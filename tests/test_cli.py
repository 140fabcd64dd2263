import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sphere4
from sphere4.cli import (
    EXIT_NONCONVERGED,
    EXIT_OK,
    EXIT_USAGE,
    SweepSpec,
    main,
)
from sphere4.model import save_matrix, stream
from sphere4.optimize import SolveConfig
from sphere4.recovery import EPS_CDL


def run(*argv: str) -> int:
    return main(list(argv))


def data_lines(path: Path) -> list:
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def gen_odl(out: Path, seed: int = 1, p: int = 2000) -> Path:
    assert run("gen", "--model", "odl", "--n", "3", "--m", "4", "--theta",
               "0.1", "--p", str(p), "--seed", str(seed), "--out-dir",
               str(out)) == EXIT_OK
    return out


# ---------------------------------------------------------------------------
# gen


def test_gen_odl_is_reproducible_bytewise(tmp_path):
    a = gen_odl(tmp_path / "a")
    b = gen_odl(tmp_path / "b")
    for name in ("dictionary.csv", "codes.csv", "observations.csv",
                 "gen.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_odl_sidecars(tmp_path):
    out = gen_odl(tmp_path)
    meta = json.loads((out / "dictionary.json").read_text())
    assert (meta["rows"], meta["cols"], meta["kind"]) == (3, 4, "dictionary")
    codes_meta = json.loads((out / "codes.json").read_text())
    assert codes_meta["theta"] == 0.1
    top = json.loads((out / "gen.json").read_text())
    assert top["model"] == "odl"
    assert top["m"] == 4


def test_gen_cdl_files(tmp_path):
    assert run("gen", "--model", "cdl", "--n", "16", "--k", "2", "--theta",
               "0.1", "--p", "200", "--seed", "3", "--out-dir",
               str(tmp_path)) == EXIT_OK
    filters = np.loadtxt(tmp_path / "filters.csv", delimiter=",", ndmin=2)
    assert filters.shape == (2, 16)
    # solve --data-dir rebuilds the whitener from the measurements
    assert not (tmp_path / "preconditioner.csv").exists()
    assert not (tmp_path / "preconditioner.json").exists()
    meta = json.loads((tmp_path / "gen.json").read_text())
    assert meta["K"] == 2
    assert meta["convention"] == "main_text"


def test_gen_odl_without_m_is_usage_error(tmp_path):
    assert run("gen", "--model", "odl", "--n", "3", "--theta", "0.1", "--p",
               "100", "--out-dir", str(tmp_path)) == EXIT_USAGE


def test_gen_invalid_shape_is_usage_error(tmp_path):
    assert run("gen", "--model", "odl", "--n", "5", "--m", "4", "--theta",
               "0.1", "--p", "100", "--out-dir", str(tmp_path)) == EXIT_USAGE


# ---------------------------------------------------------------------------
# solve


def test_solve_on_generated_data(tmp_path):
    gen_odl(tmp_path)
    code = run("solve", "--data-dir", str(tmp_path), "--out-dir",
               str(tmp_path / "run"), "--seed", "2", "--grad-tol", "1e-9")
    assert code == EXIT_OK
    header, row = data_lines(tmp_path / "run" / "recovery.csv")
    assert header == "seed,rho_e,best_index,success"
    seed, rho, best, success = row.split(",")
    assert (seed, success) == ("2", "1")
    assert float(rho) < 5e-2
    result = json.loads((tmp_path / "run" / "solve_result.json").read_text())
    assert result["termination"] == "grad_tol"
    assert "objective_trace" not in result


def test_solve_inline_matches_data_dir_bytewise(tmp_path):
    gen_odl(tmp_path / "data", seed=7)
    assert run("solve", "--data-dir", str(tmp_path / "data"), "--out-dir",
               str(tmp_path / "r1"), "--seed", "7") == EXIT_OK
    assert run("solve", "--model", "odl", "--n", "3", "--m", "4", "--theta",
               "0.1", "--p", "2000", "--seed", "7", "--out-dir",
               str(tmp_path / "r2")) == EXIT_OK
    assert (tmp_path / "r1" / "solve_result.json").read_bytes() == \
        (tmp_path / "r2" / "solve_result.json").read_bytes()
    assert (tmp_path / "r1" / "recovery.csv").read_text().splitlines()[3:] == \
        (tmp_path / "r2" / "recovery.csv").read_text().splitlines()[3:]


def test_solve_emit_trace_is_monotone(tmp_path):
    gen_odl(tmp_path)
    assert run("solve", "--data-dir", str(tmp_path), "--out-dir",
               str(tmp_path / "run"), "--seed", "2", "--emit-trace") == EXIT_OK
    result = json.loads((tmp_path / "run" / "solve_result.json").read_text())
    trace = np.array(result["objective_trace"])
    assert trace.size >= 2
    assert np.all(np.diff(trace) <= 1e-12)


def test_solve_iteration_cap_exit_code(tmp_path):
    gen_odl(tmp_path)
    code = run("solve", "--data-dir", str(tmp_path), "--out-dir",
               str(tmp_path / "run"), "--seed", "2", "--max-iters", "2",
               "--grad-tol", "1e-14")
    assert code == EXIT_NONCONVERGED
    result = json.loads((tmp_path / "run" / "solve_result.json").read_text())
    assert result["termination"] == "max_iters"


def test_solve_nonmonotone_exit_code(tmp_path, monkeypatch):
    import sphere4.cli as cli

    real_solve = cli.solve

    def cut_short(obj, q0, cfg):
        res = real_solve(obj, q0, SolveConfig(max_iters=1))
        return dataclasses.replace(res, termination="nonmonotone")

    monkeypatch.setattr(cli, "solve", cut_short)
    gen_odl(tmp_path)
    code = run("solve", "--data-dir", str(tmp_path), "--out-dir",
               str(tmp_path / "run"), "--seed", "2")
    assert code == EXIT_NONCONVERGED
    result = json.loads((tmp_path / "run" / "solve_result.json").read_text())
    assert result["termination"] == "nonmonotone"


def test_solve_data_init_rejected_for_odl(tmp_path):
    gen_odl(tmp_path)
    assert run("solve", "--data-dir", str(tmp_path), "--out-dir",
               str(tmp_path / "run"), "--init", "data") == EXIT_USAGE


def test_solve_cdl_writes_alignment(tmp_path):
    assert run("gen", "--model", "cdl", "--n", "16", "--k", "1", "--theta",
               "0.1", "--p", "2000", "--seed", "4", "--out-dir",
               str(tmp_path)) == EXIT_OK
    assert run("solve", "--data-dir", str(tmp_path), "--out-dir",
               str(tmp_path / "run"), "--seed", "1",
               "--grad-tol", "1e-10") == EXIT_OK
    header, row = data_lines(tmp_path / "run" / "filters_aligned.csv")
    assert header == "filter,shift,sign,aligned_error,recovered"
    fields = row.split(",")
    assert fields[0] == "0"
    assert float(fields[3]) <= 0.1
    assert fields[4] == "1"


def gen_cdl(out: Path, seed: int = 7) -> Path:
    assert run("gen", "--model", "cdl", "--n", "16", "--k", "2", "--theta",
               "0.1", "--p", "400", "--seed", str(seed), "--out-dir",
               str(out)) == EXIT_OK
    return out


def test_solve_cdl_inline_matches_data_dir_bytewise(tmp_path):
    gen_cdl(tmp_path / "data", seed=7)
    assert run("solve", "--data-dir", str(tmp_path / "data"), "--out-dir",
               str(tmp_path / "r1"), "--seed", "7") == EXIT_OK
    assert run("solve", "--model", "cdl", "--n", "16", "--k", "2", "--theta",
               "0.1", "--p", "400", "--seed", "7", "--out-dir",
               str(tmp_path / "r2")) == EXIT_OK
    assert (tmp_path / "r1" / "solve_result.json").read_bytes() == \
        (tmp_path / "r2" / "solve_result.json").read_bytes()
    aligned = data_lines(tmp_path / "r1" / "filters_aligned.csv")
    assert len(aligned) == 3
    assert aligned == data_lines(tmp_path / "r2" / "filters_aligned.csv")


def test_solve_cdl_random_init(tmp_path):
    gen_cdl(tmp_path)
    assert run("solve", "--data-dir", str(tmp_path), "--out-dir",
               str(tmp_path / "run"), "--seed", "3", "--init",
               "random") == EXIT_OK
    header, *rows = data_lines(tmp_path / "run" / "filters_aligned.csv")
    assert header == "filter,shift,sign,aligned_error,recovered"
    assert [r.split(",")[0] for r in rows] == ["0", "1"]
    result = json.loads((tmp_path / "run" / "solve_result.json").read_text())
    assert result["termination"] == "grad_tol"


# ---------------------------------------------------------------------------
# sweep


def sweep_args(out: Path, *extra: str) -> list:
    return ["sweep", "--objective", "phi_T", "--n-grid", "3", "--m-grid",
            "4,6", "--repeats", "3", "--max-iters", "3000", "--grad-tol",
            "1e-9", "--seed", "5", "--out-dir", str(out), *extra]


def test_sweep_rates_match_raw_exactly(tmp_path):
    assert main(sweep_args(tmp_path)) == EXIT_OK
    raw = [l.split(",") for l in data_lines(tmp_path / "sweep_raw.csv")[1:]]
    rates = [l.split(",") for l in data_lines(tmp_path / "sweep_rates.csv")[1:]]
    assert len(raw) == 6 and len(rates) == 2
    for n, m, p, theta, K, repeats, successes, rate in rates:
        hits = [r for r in raw if r[:2] == [n, m]]
        assert len(hits) == int(repeats) == 3
        recount = sum(int(r[-1]) for r in hits)
        assert recount == int(successes)
        assert float(rate) == recount / int(repeats)


def test_sweep_rerun_is_idempotent(tmp_path):
    assert main(sweep_args(tmp_path)) == EXIT_OK
    before = (tmp_path / "sweep_raw.csv").read_bytes()
    assert main(sweep_args(tmp_path)) == EXIT_OK
    assert (tmp_path / "sweep_raw.csv").read_bytes() == before


def test_sweep_manifest_guards_parameter_drift(tmp_path):
    assert main(sweep_args(tmp_path)) == EXIT_OK
    code = main(["sweep", "--objective", "phi_T", "--n-grid", "3", "--m-grid",
                 "4", "--repeats", "3", "--seed", "5", "--out-dir",
                 str(tmp_path)])
    assert code == EXIT_USAGE


def test_sweep_cdl_needs_no_m_grid(tmp_path):
    assert main(["sweep", "--objective", "phi_CDL", "--n-grid", "16",
                 "--k-grid", "1,2", "--p-grid", "400", "--repeats", "2",
                 "--seed", "4", "--out-dir", str(tmp_path)]) == EXIT_OK
    header, *rows = data_lines(tmp_path / "sweep_raw.csv")
    assert header == "n,m,p,theta,K,repeat,seed,error,success"
    assert len(rows) == 4
    for row in rows:
        fields = row.split(",")
        assert fields[4] in ("1", "2")
        assert fields[-1] == ("1" if float(fields[-2]) < EPS_CDL else "0")


def test_sweep_spec_validation():
    good = SweepSpec((3,), (4,), (0,), (0.1,), (1,), 2, "phi_T",
                     SolveConfig(), 0.05)
    assert len(good.cells()) == 1
    with pytest.raises(ValueError):
        SweepSpec((3,), (4,), (0,), (0.1,), (1,), 0, "phi_T", SolveConfig(),
                  0.05)
    with pytest.raises(ValueError):
        SweepSpec((3,), (4,), (0,), (0.1,), (1,), 2, "phi_X", SolveConfig(),
                  0.05)
    with pytest.raises(ValueError):
        SweepSpec((3,), (4,), (0,), (0.1,), (1,), 2, "phi_DL", SolveConfig(),
                  0.05)
    with pytest.raises(ValueError):
        SweepSpec((3,), (0,), (0,), (0.1,), (1,), 2, "phi_T", SolveConfig(),
                  0.05)
    # m is unused for phi_CDL; cmd_sweep fills in (0,) when --m-grid is absent
    cdl = SweepSpec((16,), (0,), (400,), (0.1,), (1,), 2, "phi_CDL",
                    SolveConfig(), 0.1)
    assert cdl.cells() == [(16, 0, 400, 0.1, 1)]


# ---------------------------------------------------------------------------
# landscape / align


def test_landscape_batch_csv(tmp_path):
    assert run("landscape", "--n", "4", "--m", "8", "--samples", "3",
               "--seed", "1", "--out-dir", str(tmp_path)) == EXIT_OK
    lines = data_lines(tmp_path / "landscape.csv")
    assert lines[0] == "seed,region,grad_norm,min_eig,classification," \
                       "best_index,inner_product"
    assert len(lines) == 4
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        assert fields[0] == str(i)
        assert fields[4] == "non_critical"


def test_landscape_at_solution_json(tmp_path):
    assert run("landscape", "--n", "4", "--m", "6", "--samples", "2",
               "--seed", "2", "--at-solution", "--grad-tol", "1e-10",
               "--format", "json", "--out-dir", str(tmp_path)) == EXIT_OK
    payload = json.loads((tmp_path / "landscape.json").read_text())
    assert len(payload) == 2
    assert {"region", "classification", "grad_norm"} <= set(payload[0])
    assert all(r["grad_norm"] < 1e-6 for r in payload)


def test_align_command(tmp_path):
    rng = stream(3, "cli-align")
    a = rng.standard_normal(16)
    a /= np.linalg.norm(a)
    save_matrix(tmp_path / "est.csv", np.roll(a, 5)[None, :], "filter")
    save_matrix(tmp_path / "true.csv", a[None, :], "filter")
    assert run("align", str(tmp_path / "est.csv"), str(tmp_path / "true.csv"),
               "--format", "json", "--out-dir", str(tmp_path)) == EXIT_OK
    result = json.loads((tmp_path / "align.json").read_text())
    assert result["shift"] == 5
    assert result["sign"] == 1.0
    assert result["error"] <= 1e-12
    assert result["recovered"] is True


# ---------------------------------------------------------------------------
# plumbing


def test_unknown_arguments_exit_usage():
    assert main(["bogus"]) == EXIT_USAGE
    assert main(["solve", "--no-such-flag"]) == EXIT_USAGE


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy is a test-only oracle
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sphere4; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(sphere4.__file__).parents[1]),
             os.environ.get("PYTHONPATH", "")])})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def console_script(name: str) -> list:
    """Command line for the console script `name`.

    The installed script when one is on PATH; otherwise the target that
    `[project.scripts]` in this checkout's pyproject.toml declares, called
    the way an installer's wrapper calls it.
    """
    exe = shutil.which(name)
    if exe is not None:
        return [exe]
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, attr = target.split(":")
    return [sys.executable, "-c",
            f"import sys; from {module} import {attr}; sys.exit({attr}())"]


def test_console_entrypoints(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "sphere4", "gen", "--model", "odl", "--n", "3",
         "--m", "4", "--theta", "0.1", "--p", "50", "--seed", "1",
         "--out-dir", str(tmp_path / "m")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        [*console_script("sphere4"), "gen", "--model", "odl", "--n", "3",
         "--m", "4", "--theta", "0.1", "--p", "50", "--seed", "1",
         "--out-dir", str(tmp_path / "s")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "m" / "observations.csv").read_bytes() == \
        (tmp_path / "s" / "observations.csv").read_bytes()
