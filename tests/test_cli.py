import argparse
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
    EXIT_IO,
    EXIT_NONCONVERGED,
    EXIT_OK,
    EXIT_USAGE,
    SweepSpec,
    _provenance,
    _repeat_seed,
    build_parser,
    main,
)
from sphere4.cdl import build_preconditioner, circ_embed
from sphere4.model import (
    FilterBank,
    ObservationSet,
    SpherePoint,
    load_matrix,
    make_untf,
    sample_bg,
    save_matrix,
    stream,
    synth_odl,
)
from sphere4.objectives import OdlObjective, TensorObjective
from sphere4.landscape import critical_point_report
from sphere4.optimize import EscapeConfig, SolveConfig, solve
from sphere4.recovery import EPS_CDL, SUCCESS_THRESHOLD, recovery_error


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


def test_gen_odl_writes_no_sidecars(tmp_path):
    # gen.json is the one record of the instance; matrices carry no .json
    out = gen_odl(tmp_path)
    assert sorted(p.name for p in out.iterdir()) == [
        "codes.csv", "dictionary.csv", "gen.json", "observations.csv"]
    assert np.loadtxt(out / "dictionary.csv", delimiter=",").shape == (3, 4)
    top = json.loads((out / "gen.json").read_text())
    assert (top["model"], top["n"], top["m"], top["theta"], top["p"]) == \
        ("odl", 3, 4, 0.1, 2000)


@pytest.mark.parametrize("cap,converged", [(1, False), (None, True)])
def test_gen_odl_records_untf_converged(tmp_path, monkeypatch, cap,
                                        converged):
    if cap is not None:
        monkeypatch.setattr(sphere4.model, "UNTF_MAX_ITERS", cap)
    meta = json.loads((gen_odl(tmp_path) / "gen.json").read_text())
    assert meta["untf_converged"] is converged


def test_gen_cdl_files(tmp_path):
    assert run("gen", "--model", "cdl", "--n", "16", "--k", "2", "--theta",
               "0.1", "--p", "200", "--seed", "3", "--out-dir",
               str(tmp_path)) == EXIT_OK
    filters = np.loadtxt(tmp_path / "filters.csv", delimiter=",", ndmin=2)
    assert filters.shape == (2, 16)
    # solve --data-dir rebuilds the whitener from the measurements
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "codes.csv", "filters.csv", "gen.json", "measurements.csv"]
    meta = json.loads((tmp_path / "gen.json").read_text())
    assert meta["K"] == 2
    assert meta["convention"] == "main_text"


def test_gen_odl_files_reproduce_the_instance(tmp_path):
    out = gen_odl(tmp_path, p=200)
    D, X, Y = (load_matrix(out / f"{name}.csv")
               for name in ("dictionary", "codes", "observations"))
    assert np.array_equal(D @ X, Y)


@pytest.mark.parametrize("eps", [1.0, None])
@pytest.mark.parametrize("convention", ["main_text", "appendix_h"])
def test_gen_cdl_files_reproduce_the_instance(tmp_path, monkeypatch,
                                              convention, eps):
    # the instance keeps no codes, so gen draws them again for codes.csv;
    # convolved through the filters they give the measurements bit for bit
    if eps is not None:
        monkeypatch.setattr(sphere4.cdl, "EPS_SPEC", eps)
    assert run("gen", "--model", "cdl", "--n", "16", "--k", "2", "--theta",
               "0.1", "--p", "200", "--seed", "3", "--convention", convention,
               "--out-dir", str(tmp_path)) == EXIT_OK
    bank, codes, Y = (load_matrix(tmp_path / f"{name}.csv")
                      for name in ("filters", "codes", "measurements"))
    assert np.array_equal(circ_embed(FilterBank(bank), codes).entries, Y)
    meta = json.loads((tmp_path / "gen.json").read_text())
    P = build_preconditioner(ObservationSet(Y), meta["theta"], meta["K"],
                             meta["convention"])
    assert P.floored is meta["floored"] is (eps is not None)


@pytest.mark.parametrize("eps,floored", [(1.0, True), (None, False)])
def test_gen_cdl_records_floored(tmp_path, monkeypatch, eps, floored):
    # a floor at the max power bin floors every other bin
    if eps is not None:
        monkeypatch.setattr(sphere4.cdl, "EPS_SPEC", eps)
    assert run("gen", "--model", "cdl", "--n", "16", "--k", "2", "--theta",
               "0.1", "--p", "200", "--seed", "3", "--out-dir",
               str(tmp_path)) == EXIT_OK
    meta = json.loads((tmp_path / "gen.json").read_text())
    assert meta["floored"] is floored


def test_gen_odl_without_m_is_usage_error(tmp_path):
    assert run("gen", "--model", "odl", "--n", "3", "--theta", "0.1", "--p",
               "100", "--out-dir", str(tmp_path)) == EXIT_USAGE


def test_gen_invalid_shape_is_usage_error(tmp_path):
    assert run("gen", "--model", "odl", "--n", "5", "--m", "4", "--theta",
               "0.1", "--p", "100", "--out-dir", str(tmp_path)) == EXIT_USAGE


SIZE_BELOW_ONE = {
    "gen-odl-n0": ["gen", "--model", "odl", "--n", "0", "--m", "4",
                   "--theta", "0.1", "--p", "50"],
    "gen-odl-p0": ["gen", "--model", "odl", "--n", "3", "--m", "4",
                   "--theta", "0.1", "--p", "0"],
    "gen-cdl-k0": ["gen", "--model", "cdl", "--n", "16", "--k", "0",
                   "--theta", "0.1", "--p", "50"],
    "landscape-samples0": ["landscape", "--n", "4", "--m", "8", "--samples",
                           "0"],
}


@pytest.mark.parametrize("argv", SIZE_BELOW_ONE.values(), ids=SIZE_BELOW_ONE)
def test_size_below_one_is_usage_error(tmp_path, capsys, argv):
    assert run(*argv, "--out-dir", str(tmp_path)) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: need ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["gen", "solve", "sweep"])
def test_format_is_refused_where_it_does_not_act(tmp_path, capsys, command):
    argv = {"gen": ["gen", "--model", "odl", "--n", "3", "--m", "4",
                    "--theta", "0.1", "--p", "50"],
            "solve": ["solve", "--data-dir", str(tmp_path / "data")],
            "sweep": sweep_args(tmp_path)[:-2]}[command]
    if command == "solve":
        gen_odl(tmp_path / "data")
    assert run(*argv, "--format", "csv", "--out-dir", str(tmp_path)) == \
        EXIT_USAGE
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


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
    # the flag is rejected before the data is read, not as an i/o error
    (tmp_path / "observations.csv").unlink()
    assert run("solve", "--data-dir", str(tmp_path), "--out-dir",
               str(tmp_path / "run"), "--init", "data") == EXIT_USAGE


@pytest.mark.parametrize("meta", [{"theta": 0.1, "n": 3}, ["odl", 0.1],
                                  {"model": "odl", "theta": "0.1"},
                                  {"model": "odl", "theta": None}],
                         ids=["no-model", "list", "theta-string", "theta-null"])
def test_solve_malformed_gen_json_is_usage_error(tmp_path, capsys, meta):
    gen_odl(tmp_path)
    (tmp_path / "gen.json").write_text(json.dumps(meta))
    assert run("solve", "--data-dir", str(tmp_path), "--out-dir",
               str(tmp_path / "run")) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert list((tmp_path / "run").iterdir()) == []


def test_solve_init_default_follows_data_dir_model(tmp_path):
    gen_odl(tmp_path / "odl")
    gen_cdl(tmp_path / "cdl")
    for model, init, table in (("odl", "random", "recovery.csv"),
                               ("cdl", "data", "filters_aligned.csv")):
        assert run("solve", "--data-dir", str(tmp_path / model), "--out-dir",
                   str(tmp_path / f"run-{model}"), "--max-iters", "3",
                   "--grad-tol", "1e-14") == EXIT_NONCONVERGED
        header = (tmp_path / f"run-{model}" / table).read_text().splitlines()[0]
        assert f" --init={init} " in header


@pytest.mark.parametrize("flag,value", [
    ("--model", "odl"), ("--n", "3"), ("--m", "4"), ("--k", "2"),
    ("--theta", "0.1"), ("--p", "100"), ("--convention", "appendix_h")])
def test_solve_data_dir_refuses_instance_flags(tmp_path, capsys, flag, value):
    # gen.json fixes the instance; solve has no instance flag to give
    gen_cdl(tmp_path)
    (tmp_path / "run").mkdir()
    assert run("solve", "--data-dir", str(tmp_path), flag, value, "--out-dir",
               str(tmp_path / "run")) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "error: " in err and flag in err
    assert list((tmp_path / "run").iterdir()) == []


def test_solve_needs_data_dir(tmp_path, capsys):
    # the instance comes only from a gen directory; the old one-line inline
    # solve is `gen` followed by `solve --data-dir`
    for argv in (["solve"], ["solve", "--model", "odl", "--n", "3", "--m",
                             "4", "--theta", "0.1", "--p", "50"]):
        assert run(*argv, "--out-dir", str(tmp_path / "run")) == EXIT_USAGE
        assert "error: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_non_finite_grad_tol_is_usage_error(tmp_path, capsys):
    # refused before any solve or write, in each command that solves
    gen_odl(tmp_path / "data", p=50)
    for value in ("nan", "inf"):
        for argv in (["solve", "--data-dir", str(tmp_path / "data")],
                     sweep_args(tmp_path / "run")[:-2],
                     ["landscape", "--n", "3", "--m", "4", "--samples", "2",
                      "--at-solution"]):
            assert run(*argv, "--grad-tol", value, "--out-dir",
                       str(tmp_path / "run")) == EXIT_USAGE
            assert "error: grad_tol must be positive and finite" in \
                capsys.readouterr().err
            assert list((tmp_path / "run").iterdir()) == []


def test_solve_header_records_only_flags_that_act(tmp_path):
    gen_cdl(tmp_path / "data")
    assert run("solve", "--data-dir", str(tmp_path / "data"), "--max-iters",
               "3", "--out-dir", str(tmp_path / "r1")) == EXIT_NONCONVERGED
    header = (tmp_path / "r1" / "filters_aligned.csv").read_text()
    assert header.startswith("# command: solve --grad-tol=1e-08 --init=data "
                             "--max-iters=3 --seed=0\n")


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


def test_solve_cdl_theta_zero_is_usage_error(tmp_path, capsys):
    # the whitener refuses theta itself, not the weights it would produce
    gen_cdl(tmp_path)
    meta = json.loads((tmp_path / "gen.json").read_text())
    (tmp_path / "gen.json").write_text(json.dumps({**meta, "theta": 0}))
    assert run("solve", "--data-dir", str(tmp_path), "--out-dir",
               str(tmp_path / "run")) == EXIT_USAGE
    assert "error: theta must lie in (0, 1)" in capsys.readouterr().err
    assert list((tmp_path / "run").iterdir()) == []


def test_solve_cdl_refuses_filters_of_another_length(tmp_path, capsys,
                                                     monkeypatch):
    import sphere4.cli as cli

    def no_solve(*args):
        raise AssertionError("solve ran on a mismatched instance")

    monkeypatch.setattr(cli, "solve", no_solve)
    gen_cdl(tmp_path)
    filters = load_matrix(tmp_path / "filters.csv")
    save_matrix(tmp_path / "filters.csv", filters[:, :-1])
    assert run("solve", "--data-dir", str(tmp_path), "--out-dir",
               str(tmp_path / "run")) == EXIT_USAGE
    assert "filters have length 15, measurements 16" in capsys.readouterr().err
    assert list((tmp_path / "run").iterdir()) == []


def test_solve_without_instance_files_is_io_error(tmp_path, capsys):
    data, out = tmp_path / "data", tmp_path / "out"
    data.mkdir()
    (data / "gen.json").write_text(json.dumps({"model": "odl", "theta": 0.1}))
    assert run("solve", "--data-dir", str(data), "--out-dir", str(out)) == \
        EXIT_IO
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# sweep


USAGE_ERRORS = {
    "solve-no-gen-json": ["solve", "--data-dir", "{tmp}"],
    "phi_DL-no-m-grid": ["sweep", "--objective", "phi_DL", "--n-grid", "4"],
    "n-grid-empty": ["sweep", "--n-grid", ",", "--m-grid", "8"],
    "n-grid-not-int": ["sweep", "--n-grid", "4,x", "--m-grid", "8"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_writes_nothing(tmp_path, argv):
    out = tmp_path / "out"
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    assert run(*argv, "--out-dir", str(out)) == EXIT_USAGE
    assert not out.exists() or list(out.iterdir()) == []


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


def assert_phi_t_rows_match_per_repeat_reference(out: Path, cfg: SolveConfig,
                                                 *flags: str) -> None:
    # the cell's frames come from one stack, and so do their solves; each
    # row must still equal a repeat run alone through make_untf, solve and
    # recovery_error
    assert main(sweep_args(out, *flags)) == EXIT_OK
    header, *rows = data_lines(out / "sweep_raw.csv")
    assert header == "n,m,p,theta,K,repeat,seed,error,success"
    assert len(rows) == 6
    for row in rows:
        n, m, p, theta, K, repeat, seed, error, success = row.split(",")
        cell = (int(n), int(m), int(p), float(theta), int(K))
        rseed = _repeat_seed(5, cell, int(repeat))
        D = make_untf(int(n), int(m), seed=rseed)
        q0 = SpherePoint.project(
            stream(rseed, "sweep-q0").standard_normal(int(n)))
        err = recovery_error(solve(TensorObjective(D), q0, cfg).q_star,
                             D).rho_e
        assert (seed, error, success) == (
            str(rseed), "%.17g" % err, "1" if err < SUCCESS_THRESHOLD else "0")


def test_sweep_phi_t_rows_match_per_repeat_reference(tmp_path):
    assert_phi_t_rows_match_per_repeat_reference(
        tmp_path, SolveConfig(max_iters=3000, grad_tol=1e-9))


@pytest.mark.parametrize("flags", [["--escape"]], ids=["escape"])
def test_sweep_phi_t_rows_match_per_repeat_reference_under_solver_flags(
        tmp_path, flags):
    cfg = SolveConfig(max_iters=3000, grad_tol=1e-9, escape=EscapeConfig())
    assert_phi_t_rows_match_per_repeat_reference(tmp_path, cfg, *flags)


REFUSED_SWEEPS = {
    "phi_T-m-below-n": ["--objective", "phi_T", "--n-grid", "8,12",
                        "--m-grid", "16,10"],
    "phi_DL-m-below-n": ["--objective", "phi_DL", "--n-grid", "8,12",
                         "--m-grid", "16,10"],
    "phi_DL-theta": ["--objective", "phi_DL", "--n-grid", "8", "--m-grid",
                     "16", "--theta-grid", "0.1,1.5"],
    "phi_CDL-theta": ["--objective", "phi_CDL", "--n-grid", "16",
                      "--theta-grid", "0.1,1.5"],
    "phi_T-repeated-n": ["--objective", "phi_T", "--n-grid", "3,3",
                         "--m-grid", "4"],
    "phi_DL-repeated-theta": ["--objective", "phi_DL", "--n-grid", "8",
                              "--m-grid", "16", "--theta-grid", "0.1,0.1"],
    "phi_DL-theta-within-1e-9": ["--objective", "phi_DL", "--n-grid", "8",
                                 "--m-grid", "16", "--theta-grid",
                                 "0.1,0.10000000001"],
    "phi_T-theta": ["--objective", "phi_T", "--n-grid", "8", "--m-grid", "16",
                    "--theta-grid", "0.1,0.2"],
    "phi_T-theta-inf": ["--objective", "phi_T", "--n-grid", "8", "--m-grid",
                        "16", "--theta-grid", "inf"],
    "phi_T-K": ["--objective", "phi_T", "--n-grid", "8", "--m-grid", "16",
                "--k-grid", "1,2"],
    "phi_DL-K": ["--objective", "phi_DL", "--n-grid", "8", "--m-grid", "16",
                 "--k-grid", "1,2"],
    "phi_CDL-m": ["--objective", "phi_CDL", "--n-grid", "16", "--m-grid",
                  "16,24"],
}


@pytest.mark.parametrize("flags", REFUSED_SWEEPS.values(), ids=REFUSED_SWEEPS)
def test_sweep_refused_before_any_work(tmp_path, flags):
    out = tmp_path / "out"
    assert main(["sweep", *flags, "--p-grid", "200", "--repeats", "2",
                 "--out-dir", str(out)]) == EXIT_USAGE
    assert list(out.iterdir()) == []


def test_sweep_phi_dl_rows_match_per_repeat_reference(tmp_path):
    # each repeat draws its own instance from its seed, solves the sample
    # objective and scores against that instance's dictionary; a rerun
    # writes the same bytes
    argv = ["sweep", "--objective", "phi_DL", "--n-grid", "4", "--m-grid",
            "8", "--p-grid", "1000", "--theta-grid", "0.2", "--repeats", "3"]
    for name in ("a", "b"):
        assert run(*argv, "--out-dir", str(tmp_path / name)) == EXIT_OK
    header, *rows = data_lines(tmp_path / "a" / "sweep_raw.csv")
    assert len(rows) == 3
    for row in rows:
        n, m, p, theta, K, repeat, seed, error, success = row.split(",")
        rseed = _repeat_seed(0, (4, 8, 1000, 0.2, 1), int(repeat))
        D = make_untf(4, 8, seed=rseed)
        Y = synth_odl(D, sample_bg(8, 1000, 0.2, seed=rseed))
        q0 = SpherePoint.project(stream(rseed, "sweep-q0").standard_normal(4))
        err = recovery_error(solve(OdlObjective(Y, 0.2), q0).q_star, D).rho_e
        assert (seed, error, success) == (
            str(rseed), "%.17g" % err, "1" if err < SUCCESS_THRESHOLD else "0")
    header, rates = data_lines(tmp_path / "a" / "sweep_rates.csv")
    assert rates == "4,8,1000,0.20000000000000001,1,3,3,1"
    for name in ("sweep_raw.csv", "sweep_rates.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_sweep_rerun_is_idempotent(tmp_path):
    assert main(sweep_args(tmp_path)) == EXIT_OK
    before = (tmp_path / "sweep_raw.csv").read_bytes()
    assert main(sweep_args(tmp_path)) == EXIT_OK
    assert (tmp_path / "sweep_raw.csv").read_bytes() == before


@pytest.mark.parametrize("drift", [["--m-grid", "4"], ["--seed", "6"],
                                   ["--escape"]], ids=["m-grid", "seed",
                                                       "escape"])
def test_sweep_manifest_guards_parameter_drift(tmp_path, drift):
    assert main(sweep_args(tmp_path)) == EXIT_OK
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    # the later flag wins, so this is the first sweep with one flag changed
    assert main(sweep_args(tmp_path, *drift)) == EXIT_USAGE
    after = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert after == before


def test_sweep_manifest_records_every_option():
    # the manifest is _provenance("sweep", ...): an option left out of it
    # would let a resumed sweep mix rows run under different values
    parser = build_parser()
    sweep = next(a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)).choices["sweep"]
    base = ["sweep", "--n-grid", "3", "--m-grid", "4"]
    manifest = _provenance("sweep", parser.parse_args(base))
    options = [a for a in sweep._actions
               if a.option_strings and a.dest not in ("help", "out_dir")]
    assert {"--seed", "--escape", "--max-iters", "--theta-grid"} <= {
        a.option_strings[0] for a in options}
    for action in options:
        flag = action.option_strings[0]
        if action.nargs == 0:
            value = []
        elif action.choices:
            value = [next(c for c in action.choices if c != action.default)]
        else:
            value = ["7"]
        assert action.type is None or action.type(*value) != action.default
        changed = _provenance("sweep", parser.parse_args(base + [flag, *value]))
        new = set(changed[0].split()) - set(manifest[0].split())
        assert [t for t in new if t.startswith(flag + "=")], flag


def test_sweep_resumes_only_under_its_manifest(tmp_path):
    assert main(sweep_args(tmp_path)) == EXIT_OK
    manifest = json.loads((tmp_path / "sweep_manifest.json").read_text())
    assert manifest == {"spec": _provenance(
        "sweep", build_parser().parse_args(sweep_args(tmp_path)))}
    raw = (tmp_path / "sweep_raw.csv").read_bytes()
    shard = tmp_path / "cells" / "cell_0000.csv"
    good = shard.read_text()
    fake = good.replace(",1\n", ",0\n")
    assert fake != good
    # under a matching manifest a shard is a finished cell and is reused
    shard.write_text(fake)
    assert main(sweep_args(tmp_path)) == EXIT_OK
    assert (tmp_path / "sweep_raw.csv").read_bytes() != raw
    # without the manifest every cell is recomputed
    shard.write_text(fake)
    (tmp_path / "sweep_manifest.json").unlink()
    assert main(sweep_args(tmp_path)) == EXIT_OK
    assert shard.read_text() == good
    assert (tmp_path / "sweep_raw.csv").read_bytes() == raw
    # a manifest that is not a spec object is refused like a changed one
    (tmp_path / "sweep_manifest.json").write_text("[]\n")
    assert main(sweep_args(tmp_path)) == EXIT_USAGE


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
        assert fields[-1] == ("1" if float(fields[-2]) <= EPS_CDL else "0")


def test_sweep_spec_validation():
    good = SweepSpec((3,), (4,), (0,), (0.1,), (1,), 2, "phi_T",
                     SolveConfig())
    assert len(good.cells()) == 1
    # range() would refuse 2.5 only once the sweep runs, and take True for 1
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match="repeats"):
            SweepSpec((3,), (4,), (0,), (0.1,), (1,), bad, "phi_T",
                      SolveConfig())
    with pytest.raises(ValueError):
        SweepSpec((3,), (4,), (0,), (0.1,), (1,), 2, "phi_X", SolveConfig())
    # the n, m, p and K grids take integers: a float or bool cell would reach
    # make_untf only once the cells before it had run
    for n, m, p, k in (((3, 3.5), (8,), (0,), (1,)),
                       ((True,), (8,), (0,), (1,)),
                       ((3,), (8.0,), (0,), (1,)),
                       ((3,), (8,), (0.5,), (1,)),
                       ((3,), (8,), (0,), (1.5,))):
        with pytest.raises(ValueError, match="must be integers"):
            SweepSpec(n, m, p, (0.1,), k, 2, "phi_T", SolveConfig())
    with pytest.raises(ValueError):
        SweepSpec((3,), (4,), (0,), (0.1,), (1,), 2, "phi_DL", SolveConfig())
    with pytest.raises(ValueError):
        SweepSpec((3,), (0,), (0,), (0.1,), (1,), 2, "phi_T", SolveConfig())
    # every (n, m) cell of the product needs m >= n; n == m is a cell
    for objective in ("phi_T", "phi_DL"):
        with pytest.raises(ValueError, match="m >= n"):
            SweepSpec((8, 12), (16, 10), (200,), (0.1,), (1,), 2, objective,
                      SolveConfig())
    assert len(SweepSpec((3, 4), (4, 6), (200,), (0.1,), (1,), 2, "phi_DL",
                         SolveConfig()).cells()) == 4
    # theta is a Bernoulli rate for the sample objectives, unused by phi_T
    for objective, theta in (("phi_DL", 1.5), ("phi_CDL", 1.0)):
        with pytest.raises(ValueError, match="theta must lie in"):
            SweepSpec((3,), (4,), (200,), (0.1, theta), (1,), 2, objective,
                      SolveConfig())
    assert len(SweepSpec((3,), (4,), (0,), (1.5,), (1,), 2, "phi_T",
                         SolveConfig()).cells()) == 1
    # the repeat seeds key theta to 1e-9, so two values that coincide there
    # would draw the same instances; values 1e-9 apart key apart
    with pytest.raises(ValueError, match="1e-9"):
        SweepSpec((4,), (8,), (100,), (0.1, 0.1 + 1e-11), (1,), 2, "phi_DL",
                  SolveConfig())
    apart = SweepSpec((4,), (8,), (100,), (0.1, 0.1 + 1e-9), (1,), 2,
                      "phi_DL", SolveConfig())
    assert len({_repeat_seed(0, cell, 0) for cell in apart.cells()}) == 2
    for theta in (np.inf, np.nan, 1e300):
        with pytest.raises(ValueError, match="finite"):
            SweepSpec((3,), (4,), (0,), (theta,), (1,), 2, "phi_T",
                      SolveConfig())
    # m is unused for phi_CDL; cmd_sweep fills in (0,) when --m-grid is absent
    cdl = SweepSpec((16,), (0,), (400,), (0.1,), (1,), 2, "phi_CDL",
                    SolveConfig())
    assert cdl.cells() == [(16, 0, 400, 0.1, 1)]
    # a phi_T cell would fail only once the manifest is written, and the
    # phi_DL and phi_CDL cells would take solve's defaults unnoticed
    for objective in ("phi_T", "phi_DL", "phi_CDL"):
        for bad in (None, "x", EscapeConfig()):
            with pytest.raises(ValueError, match="config must be a SolveConfig"):
                SweepSpec((16,), (16,), (400,), (0.1,), (1,), 2, objective, bad)


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


@pytest.mark.parametrize("flags", [[], ["--escape"]], ids=["power", "escape"])
def test_landscape_at_solution_reports_each_samples_own_solve(tmp_path, flags):
    # the samples are solved as one stack; each report must be the one at
    # the end of that sample's lone solve
    assert run("landscape", "--n", "6", "--m", "12", "--samples", "5",
               "--seed", "3", "--at-solution", *flags, "--format", "json",
               "--out-dir", str(tmp_path)) == EXIT_OK
    payload = json.loads((tmp_path / "landscape.json").read_text())
    D = make_untf(6, 12, seed=3)
    cfg = SolveConfig(escape=EscapeConfig() if "--escape" in flags else None)
    for s, report in enumerate(payload):
        q0 = SpherePoint.project(stream(3, "landscape", s).standard_normal(6))
        rep = critical_point_report(D, solve(TensorObjective(D), q0, cfg).q_star)
        assert list(report) == [f.name for f in dataclasses.fields(rep)]
        for name, value in report.items():
            expected = getattr(rep, name)
            if isinstance(expected, np.ndarray):
                expected = expected.tolist()
            assert value == expected, name


@pytest.mark.parametrize("flags", [["--max-iters", "5"], ["--grad-tol", "1e-9"],
                                   ["--escape"]],
                         ids=["max-iters", "grad-tol", "escape"])
def test_landscape_refuses_solver_flags_without_at_solution(tmp_path, capsys,
                                                            flags):
    assert run("landscape", "--n", "4", "--m", "8", *flags, "--out-dir",
               str(tmp_path)) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: {flags[0]} cannot")
    assert list(tmp_path.iterdir()) == []
    assert run("landscape", "--n", "4", "--m", "8", *flags, "--at-solution",
               "--out-dir", str(tmp_path)) == EXIT_OK


def test_landscape_header_records_solver_flags_only_at_solution(tmp_path):
    assert run("landscape", "--n", "4", "--m", "8", "--out-dir",
               str(tmp_path / "raw")) == EXIT_OK
    assert (tmp_path / "raw" / "landscape.csv").read_text().startswith(
        "# command: landscape --format=csv --m=8 --n=4 --samples=1 --seed=0\n")
    # unset solver flags take the solve defaults, as in every other command
    assert run("landscape", "--n", "4", "--m", "8", "--at-solution",
               "--out-dir", str(tmp_path / "sol")) == EXIT_OK
    assert (tmp_path / "sol" / "landscape.csv").read_text().startswith(
        "# command: landscape --at-solution=True --format=csv --grad-tol=1e-08 "
        "--m=8 --max-iters=10000 --n=4 --samples=1 --seed=0\n")


@pytest.mark.parametrize("zero_first", [True, False], ids=["est", "truth"])
def test_align_zero_filter_is_usage_error(tmp_path, capsys, zero_first):
    save_matrix(tmp_path / "zero.csv", np.zeros((1, 8)))
    save_matrix(tmp_path / "f.csv", stream(4, "cli-align").standard_normal((1, 8)))
    files = ["zero.csv", "f.csv"] if zero_first else ["f.csv", "zero.csv"]
    assert run("align", *(str(tmp_path / f) for f in files), "--format",
               "json", "--out-dir", str(tmp_path / "out")) == EXIT_USAGE
    assert capsys.readouterr() == (
        "", "error: filters must have a nonzero finite norm\n")
    assert list((tmp_path / "out").iterdir()) == []


def test_align_command(tmp_path):
    rng = stream(3, "cli-align")
    a = rng.standard_normal(16)
    a /= np.linalg.norm(a)
    save_matrix(tmp_path / "est.csv", np.roll(a, 5)[None, :])
    save_matrix(tmp_path / "true.csv", a[None, :])
    assert run("align", str(tmp_path / "est.csv"), str(tmp_path / "true.csv"),
               "--format", "json", "--out-dir", str(tmp_path)) == EXIT_OK
    result = json.loads((tmp_path / "align.json").read_text())
    assert result["shift"] == 5
    assert result["sign"] == 1.0
    assert result["error"] <= 1e-12
    assert result["recovered"] is True


# ---------------------------------------------------------------------------
# plumbing


RERUN = {
    "gen-odl": ["gen", "--model", "odl", "--n", "3", "--m", "4", "--theta",
                "0.1", "--p", "200", "--seed", "1"],
    "gen-cdl": ["gen", "--model", "cdl", "--n", "16", "--k", "2", "--theta",
                "0.1", "--p", "200", "--seed", "3"],
    "solve-power": ["solve", "--data-dir", "{in}/data", "--seed", "2"],
    "solve-escape-trace": ["solve", "--data-dir", "{in}/data", "--seed", "2",
                           "--escape", "--emit-trace"],
    "landscape-csv": ["landscape", "--n", "4", "--m", "8", "--samples", "3",
                      "--at-solution", "--seed", "1"],
    "landscape-json": ["landscape", "--n", "4", "--m", "8", "--samples", "2",
                       "--format", "json", "--seed", "1"],
    "align": ["align", "{in}/est.csv", "{in}/true.csv"],
}


# the instance each solve above reads from {in}/data
RERUN_DATA = {
    "solve-power": ["gen", "--model", "odl", "--n", "3", "--m", "4",
                    "--theta", "0.1", "--p", "500", "--seed", "2"],
    "solve-escape-trace": ["gen", "--model", "odl", "--n", "3", "--m", "6",
                           "--theta", "0.2", "--p", "500", "--seed", "2"],
}


@pytest.mark.parametrize("name", RERUN)
def test_rerun_into_a_fresh_directory_is_bytewise_identical(tmp_path, name):
    a = stream(5, "cli-rerun").standard_normal(12)
    (tmp_path / "in").mkdir()
    save_matrix(tmp_path / "in" / "est.csv", np.roll(a, 3)[None, :])
    save_matrix(tmp_path / "in" / "true.csv", a[None, :])
    if name in RERUN_DATA:
        assert run(*RERUN_DATA[name], "--out-dir",
                   str(tmp_path / "in" / "data")) == EXIT_OK
    argv = [v.replace("{in}", str(tmp_path / "in")) for v in RERUN[name]]
    files = {}
    for run_dir in ("a", "b"):
        assert run(*argv, "--out-dir", str(tmp_path / run_dir)) == EXIT_OK
        top = tmp_path / run_dir
        files[run_dir] = {p.relative_to(top): p.read_bytes()
                          for p in sorted(top.rglob("*")) if p.is_file()}
    assert files["a"]
    assert files["a"] == files["b"]


def test_unknown_arguments_exit_usage():
    assert main(["bogus"]) == EXIT_USAGE
    assert main(["solve", "--no-such-flag"]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["solve", "--data-dir", "{data}", "--method", "power"],
    ["sweep", "--n-grid", "3", "--m-grid", "4", "--method", "power"],
    ["landscape", "--n", "3", "--m", "4", "--at-solution", "--method",
     "power"],
    ["sweep", "--n", "4", "--m-grid", "6", "--repeats", "1"],
    ["solve", "--data-dir", "{data}", "--max", "3"],
    ["landscape", "--n", "3", "--m", "4", "--samp", "2"],
    ["gen", "--model", "odl", "--n", "3", "--m", "4", "--theta", "0.1",
     "--p", "50", "--conv", "main_text"],
], ids=["method-solve", "method-sweep", "method-landscape", "prefix-sweep",
        "prefix-solve", "prefix-landscape", "prefix-gen"])
def test_method_and_flag_prefixes_are_refused(tmp_path, capsys, argv):
    # the power step is the one update rule, so no command takes --method;
    # and a prefix is an unknown flag, not the one flag it begins
    gen_odl(tmp_path / "data", p=50)
    argv = [v.replace("{data}", str(tmp_path / "data")) for v in argv]
    assert run(*argv, "--out-dir", str(tmp_path / "run")) == EXIT_USAGE
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_options_per_command():
    # the options each command reads (--help aside); a new CLI option must
    # change this test on purpose
    solver = {"--max-iters", "--grad-tol", "--escape"}
    common = {"--seed", "--out-dir"}
    expected = {
        "gen": common | {"--model", "--n", "--m", "--k", "--theta", "--p",
                         "--convention"},
        "solve": common | solver | {"--data-dir", "--init", "--emit-trace"},
        "sweep": common | solver | {"--objective", "--n-grid", "--m-grid",
                                    "--p-grid", "--theta-grid", "--k-grid",
                                    "--repeats"},
        "landscape": common | solver | {"--format", "--n", "--m", "--samples",
                                        "--at-solution"},
        "align": common | {"--format"},
    }
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    options = {name: {o for a in sub._actions for o in a.option_strings
                      if o not in ("-h", "--help")}
               for name, sub in subparsers.items()}
    assert options == expected


def test_benchmark_cli_commands_parse(tmp_path):
    # bench/workloads.py runs these sphere4 command lines in cli_roundtrip
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
        cli = workloads.CliRoundtrip(0, False, {})
    finally:
        del sys.modules[spec.name]
    assert sorted(cli.argv) == sorted(cli.COMMANDS)
    parser = build_parser()
    for name, argv in cli.argv.items():
        args = parser.parse_args([v.replace("{dir}", str(tmp_path))
                                  for v in argv])
        assert args.command == argv[0], name


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


def test_readme_library_tour_runs(tmp_path):
    # the README's python block names public functions; one renamed or
    # removed there fails here
    root = Path(__file__).resolve().parents[1]
    blocks = (root / "README.md").read_text().split("```python\n")[1:]
    assert len(blocks) == 1
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0].split("```")[0]],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("RecoveryOutcome(")


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
