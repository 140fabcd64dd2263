"""Command line for generating instances, solving them, sweeping grids,
and inspecting the landscape.

Outputs are CSV tables at 17 significant digits with `# ` provenance
headers, plus JSON for structured results. Rerunning a command with the
same seed and parameters reproduces every file byte for byte (the header
records the semantic parameters, not the output location). Exit codes:
0 ok, 2 invalid arguments, 3 a required solve hit its iteration cap,
4 file I/O failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .cdl import CdlObjective, ConvProblem, build_preconditioner, synth_cdl
from .landscape import critical_point_report
from .model import (
    Dictionary,
    FilterBank,
    ObservationSet,
    SpherePoint,
    _atomic_write,
    _is_int,
    _untf_stack,
    load_matrix,
    make_filter_bank,
    make_untf,
    retract,
    sample_bg,
    save_matrix,
    stream,
    synth_odl,
)
from .objectives import OdlObjective, TensorObjective
from .optimize import EscapeConfig, SolveConfig, init_cdl, solve, solve_batch
from .recovery import (
    EPS_CDL,
    align_shift,
    cdl_score,
    recovery_error,
)

__all__ = ["SweepSpec", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3
EXIT_IO = 4

RAW_SWEEP_COLUMNS = ("n", "m", "p", "theta", "K", "repeat", "seed", "error",
                     "success")
RATE_SWEEP_COLUMNS = ("n", "m", "p", "theta", "K", "repeats", "successes",
                      "rate")
SOLVE_CSV_COLUMNS = ("seed", "rho_e", "best_index", "success")
ALIGN_CSV_COLUMNS = ("filter", "shift", "sign", "aligned_error", "recovered")
REPORT_CSV_COLUMNS = ("seed", "region", "grad_norm", "min_eig",
                      "classification", "best_index", "inner_product")


def _fmt(x) -> str:
    # rows hold Python scalars; bool first, since it is an int
    if isinstance(x, bool):
        return "1" if x else "0"
    return "%.17g" % x if isinstance(x, float) else str(x)


def _write_table(path: Path, columns, rows, provenance) -> None:
    lines = [f"# {line}" for line in provenance]
    lines.append(",".join(columns))
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def _json_fields(record) -> dict:
    """A result record's fields in order, as JSON values: arrays and
    SpherePoints become lists."""
    values = {f.name: getattr(record, f.name) for f in fields(record)}
    for name, value in values.items():
        if isinstance(value, SpherePoint):
            value = value.coords
        if isinstance(value, np.ndarray):
            values[name] = value.tolist()
    return values


def _provenance(command: str, args: argparse.Namespace,
                skip=("out_dir", "func", "command",
                      "data_dir", "estimate", "truth")) -> list:
    # semantic parameters only: no paths, no False flags,
    # so a rerun elsewhere yields byte-identical files
    parts = []
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if value is None or value is False:
            continue
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        parts.append(f"--{key.replace('_', '-')}={value}")
    return [f"command: {command} " + " ".join(parts),
            f"seed: {args.seed}",
            f"version: {__version__}"]


def _list_of(kind):
    """argparse type: a comma-separated list of `kind` values, as a tuple."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(v) for v in text.split(",") if v != "")
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"not a list of {kind.__name__}: {text!r}") from exc
    return parse


def _synth(model: str, n: int, size, theta: float, p: int, seed: int,
           convention: str):
    """The one instance recipe, shared by gen and the phi_DL/phi_CDL sweep:
    (D, X, Y) for odl with `size` = m, and the ConvProblem for cdl with
    `size` = K."""
    if size is None:
        flag = "--m" if model == "odl" else "--k"
        raise ValueError(f"{flag} is required for the {model} model")
    if model == "odl":
        D = make_untf(n, size, seed=seed)
        X = sample_bg(size, p, theta, seed=seed)
        return D, X, synth_odl(D, X)
    return synth_cdl(make_filter_bank(n, size, seed=seed), theta, p,
                     seed=seed, convention=convention)


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args: argparse.Namespace) -> int:
    out = Path(args.out_dir)
    prov = _provenance("gen", args)
    meta = {"model": args.model, "n": args.n, "theta": args.theta,
            "p": args.p, "seed": args.seed, "version": __version__}
    if args.model == "odl":
        D, X, Y = _synth("odl", args.n, args.m, args.theta, args.p, args.seed,
                         args.convention)
        matrices = {"dictionary": D.entries, "codes": X,
                    "observations": Y.entries}
        meta.update(m=args.m, untf_converged=D.untf_converged)
    else:
        problem = _synth("cdl", args.n, args.k, args.theta, args.p, args.seed,
                         args.convention)
        # the instance keeps no codes; this is synth_cdl's draw made again
        codes = sample_bg(args.n * args.k, args.p, args.theta, seed=args.seed)
        matrices = {"filters": problem.filters.filters, "codes": codes,
                    "measurements": problem.measurements.entries}
        meta.update(K=args.k, convention=args.convention,
                    floored=problem.preconditioner.floored)
    for name, entries in matrices.items():
        save_matrix(out / f"{name}.csv", entries, prov)
    _atomic_write(out / "gen.json", json.dumps(meta, indent=2) + "\n")
    print(f"wrote {args.model} instance to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve


def _solve_config(args: argparse.Namespace) -> SolveConfig:
    return SolveConfig(
        max_iters=args.max_iters,
        grad_tol=args.grad_tol,
        escape=EscapeConfig() if args.escape else None,
    )


def _load_gen(data_dir: Path) -> dict:
    meta_path = data_dir / "gen.json"
    if not meta_path.exists():
        raise ValueError(f"no gen.json under {data_dir}")
    meta = json.loads(meta_path.read_text())
    if (not isinstance(meta, dict) or meta.get("model") not in ("odl", "cdl")
            or type(meta.get("theta")) not in (int, float)):
        raise ValueError(f"{meta_path} is not a gen.json: it needs an object "
                         "with a model (odl or cdl) and a numeric theta")
    return meta


def cmd_solve(args: argparse.Namespace) -> int:
    out = Path(args.out_dir)
    data = Path(args.data_dir)
    meta = _load_gen(data)
    model, theta, seed = meta["model"], meta["theta"], args.seed
    if args.init is None:
        args.init = "data" if model == "cdl" else "random"
    if model == "odl" and args.init == "data":
        raise ValueError("--init data applies to the cdl model only")
    prov = _provenance("solve", args)
    cfg = _solve_config(args)

    if model == "odl":
        D = Dictionary(load_matrix(data / "dictionary.csv"))
        obs = ObservationSet(load_matrix(data / "observations.csv"))
        objective = OdlObjective(obs, theta)
        q0 = SpherePoint.project(stream(seed, "cli-solve").standard_normal(D.n))
        res = solve(objective, q0, cfg)
        outcome = recovery_error(res.q_star, D)
        _write_table(out / "recovery.csv", SOLVE_CSV_COLUMNS,
                     [(seed, outcome.rho_e, outcome.best_index,
                       outcome.success)], prov)
    else:
        obs = ObservationSet(load_matrix(data / "measurements.csv"))
        bank = FilterBank(load_matrix(data / "filters.csv"))
        P = build_preconditioner(obs, theta, bank.K,
                                 meta.get("convention", "main_text"))
        problem = ConvProblem(obs, P, theta, filters=bank)
        objective = CdlObjective(problem)
        if args.init == "random":
            q0 = SpherePoint.project(
                stream(seed, "cli-solve").standard_normal(problem.n))
        else:
            q0 = init_cdl(problem, stream(seed, "cli-solve-data"))
        res = solve(objective, q0, cfg)
        score = cdl_score(res.q_star, problem)
        shifts, signs, errors = (score.shifts.tolist(), score.signs.tolist(),
                                 score.aligned_errors.tolist())
        _write_table(out / "filters_aligned.csv", ALIGN_CSV_COLUMNS,
                     [(k, shifts[k], signs[k], errors[k], k in score.recovered)
                      for k in range(len(errors))], prov)

    result = _json_fields(res)
    trace = result.pop("objective_trace")  # last, and only with --emit-trace
    if args.emit_trace:
        result["objective_trace"] = trace
    _atomic_write(out / "solve_result.json", json.dumps(result) + "\n")
    print(f"terminated: {res.termination} after {res.iterations} iterations")
    if res.termination in ("max_iters", "nonmonotone"):
        return EXIT_NONCONVERGED
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class SweepSpec:
    """Cartesian grid of instance parameters with repeated trials per cell."""

    n_grid: tuple
    m_grid: tuple
    p_grid: tuple
    theta_grid: tuple
    k_grid: tuple
    repeats: int
    objective: str
    config: SolveConfig

    def __post_init__(self) -> None:
        if self.objective not in ("phi_T", "phi_DL", "phi_CDL"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if not isinstance(self.config, SolveConfig):
            raise ValueError(f"config must be a SolveConfig, got {self.config!r}")
        if not (_is_int(self.repeats) and self.repeats >= 1):
            raise ValueError("repeats must be an integer of at least 1, "
                             f"got {self.repeats!r}")
        ignored = {"phi_T": ("p", "theta", "K"), "phi_DL": ("K",),
                   "phi_CDL": ("m",)}[self.objective]
        for name, grid in (("n", self.n_grid), ("m", self.m_grid),
                           ("p", self.p_grid), ("theta", self.theta_grid),
                           ("K", self.k_grid)):
            if len(grid) == 0:
                raise ValueError(f"empty {name} grid")
            if name != "theta" and not all(_is_int(v) for v in grid):
                raise ValueError(f"{name} grid values must be integers, "
                                 f"got {grid!r}")
            if len(set(grid)) < len(grid):
                raise ValueError(f"the {name} grid repeats a value")
            if name in ignored and len(grid) > 1:
                raise ValueError(f"{self.objective} does not use {name}; "
                                 "its grid takes one value")
            if name == "p" and self.objective == "phi_T":
                continue  # p is unused in the sample limit
            if name == "m" and self.objective == "phi_CDL":
                continue  # the filter bank fixes the shape, not m
            if any(v <= 0 for v in grid):
                raise ValueError(f"{name} grid values must be positive")
        # refused here, so no cell of the grid is run before the error
        n, m = max(self.n_grid), min(self.m_grid)
        if self.objective != "phi_CDL" and n > m:
            raise ValueError(f"every cell needs m >= n, got n={n} > m={m}")
        if self.objective != "phi_T" and not all(
                0 < t < 1 for t in self.theta_grid):
            raise ValueError("theta must lie in (0, 1)")
        # the repeat seeds key a cell on _theta_key, so two values that
        # share a key would draw the same instances
        if not all(math.isfinite(float(t) * 1e9) for t in self.theta_grid):
            raise ValueError("theta grid values must be finite")
        if len({_theta_key(t) for t in self.theta_grid}) < len(self.theta_grid):
            raise ValueError("the theta grid repeats a value at the 1e-9 "
                             "resolution of the repeat seeds")

    def cells(self) -> list:
        return list(itertools.product(self.n_grid, self.m_grid, self.p_grid,
                                      self.theta_grid, self.k_grid))


def _theta_key(theta) -> int:
    """theta to 1e-9, as an integer for the seed path."""
    return int(round(theta * 1e9))


def _repeat_seed(seed_base: int, cell, repeat: int) -> int:
    n, m, p, theta, K = cell
    rng = stream(seed_base, "sweep", n, m, p, _theta_key(theta), K, repeat)
    return int(rng.integers(2**62))

def _run_repeat(spec: SweepSpec, cell, repeat: int, rseed: int):
    """One phi_DL or phi_CDL repeat under seed `rseed`, built and solved
    alone, since each synthesizes a p-column instance."""
    n, m, p, theta, K = cell
    if spec.objective == "phi_DL":
        D, _, Y = _synth("odl", n, m, theta, p, rseed, "main_text")
        q0 = SpherePoint.project(stream(rseed, "sweep-q0").standard_normal(n))
        res = solve(OdlObjective(Y, theta), q0, spec.config)
        outcome = recovery_error(res.q_star, D)
        err, success = outcome.rho_e, outcome.success
    else:
        problem = _synth("cdl", n, K, theta, p, rseed, "main_text")
        q0 = init_cdl(problem, stream(rseed, "sweep-ell"))
        res = solve(CdlObjective(problem), q0, spec.config)
        score = cdl_score(res.q_star, problem)
        err, success = float(score.aligned_errors.min()), bool(score.recovered)
    return (n, m, p, theta, K, repeat, rseed, err, success)


def _phi_t_cell(spec: SweepSpec, cell, seeds: list) -> list:
    """A phi_T cell's repeats: their frames built as one stack, and their
    solves run as one stack, each row as a repeat run alone."""
    n, m = cell[0], cell[1]
    frames = _untf_stack(n, m, seeds)
    Q0 = np.stack([stream(s, "sweep-q0").standard_normal(n) for s in seeds])
    results = solve_batch([TensorObjective(D) for D in frames], Q0, spec.config)
    outcomes = [recovery_error(res.q_star, D) for res, D in zip(results, frames)]
    return [(*cell, r, rseed, out.rho_e, out.success)
            for r, (rseed, out) in enumerate(zip(seeds, outcomes))]


def _cell_path(out: Path, index: int) -> Path:
    return out / "cells" / f"cell_{index:04d}.csv"


def cmd_sweep(args: argparse.Namespace) -> int:
    out = Path(args.out_dir)
    if args.objective != "phi_CDL" and not args.m_grid:
        raise ValueError("--m-grid is required for phi_T and phi_DL sweeps")
    spec = SweepSpec(
        n_grid=args.n_grid,
        m_grid=args.m_grid if args.m_grid else (0,),
        p_grid=args.p_grid,
        theta_grid=args.theta_grid,
        k_grid=args.k_grid,
        repeats=args.repeats,
        objective=args.objective,
        config=_solve_config(args),
    )
    (out / "cells").mkdir(exist_ok=True)

    # the manifest is the sweep's provenance (seed, solver flags, version);
    # a shard is written atomically once its cell is done, so under a
    # matching manifest an existing shard is a finished cell
    prov = _provenance("sweep", args)
    manifest_path = out / "sweep_manifest.json"
    resume = manifest_path.exists()
    if resume:
        manifest = json.loads(manifest_path.read_text())
        if not isinstance(manifest, dict) or manifest.get("spec") != prov:
            raise ValueError("out-dir holds a sweep with different parameters; "
                             "choose a fresh directory")
    else:
        _atomic_write(manifest_path,
                      json.dumps({"spec": prov}, indent=2) + "\n")

    cells = spec.cells()
    for ci, cell in enumerate(cells):
        if resume and _cell_path(out, ci).exists():
            continue
        seeds = [_repeat_seed(args.seed, cell, r) for r in range(spec.repeats)]
        rows = (_phi_t_cell(spec, cell, seeds) if spec.objective == "phi_T"
                else [_run_repeat(spec, cell, r, rseed)
                      for r, rseed in enumerate(seeds)])
        _write_table(_cell_path(out, ci), RAW_SWEEP_COLUMNS, rows, ())

    raw_rows = []
    rate_rows = []
    for ci, cell in enumerate(cells):
        text = _cell_path(out, ci).read_text().strip().splitlines()
        cell_rows = [line.split(",") for line in text[1:]]
        raw_rows.extend(cell_rows)
        successes = sum(int(r[-1]) for r in cell_rows)
        n, m, p, theta, K = cell
        rate_rows.append((n, m, p, theta, K, spec.repeats, successes,
                          successes / spec.repeats))
    _write_table(out / "sweep_raw.csv", RAW_SWEEP_COLUMNS, raw_rows, prov)
    _write_table(out / "sweep_rates.csv", RATE_SWEEP_COLUMNS, rate_rows, prov)
    print(f"swept {len(cells)} cells x {spec.repeats} repeats")
    return EXIT_OK


# ---------------------------------------------------------------------------
# landscape


def cmd_landscape(args: argparse.Namespace) -> int:
    out = Path(args.out_dir)
    if args.samples < 1:
        raise ValueError(f"need --samples >= 1, got {args.samples}")
    # the solver flags read None here unless given; they act only on a solve
    defaults = vars(_solver_parser().parse_args([]))
    given = [f"--{k.replace('_', '-')}" for k in defaults
             if getattr(args, k) is not None]
    if given and not args.at_solution:
        raise ValueError(f"{' '.join(given)} cannot be used without "
                         "--at-solution, since raw samples run no solve")
    if args.at_solution:
        vars(args).update((k, v) for k, v in defaults.items()
                          if getattr(args, k) is None)
    prov = _provenance("landscape", args)
    cfg = _solve_config(args) if args.at_solution else None
    D = make_untf(args.n, args.m, seed=args.seed)
    draws = np.stack([stream(args.seed, "landscape", s).standard_normal(args.n)
                      for s in range(args.samples)])
    # the samples share D, so their solves run as one stack
    points = (retract(draws) if cfg is None else
              [r.q_star for r in solve_batch(TensorObjective(D), draws, cfg)])
    reports = [critical_point_report(D, q) for q in points]
    if args.format == "json":
        _atomic_write(out / "landscape.json", json.dumps(
            [_json_fields(r) for r in reports], indent=2) + "\n")
    else:
        _write_table(out / "landscape.csv", REPORT_CSV_COLUMNS,
                     [(s, r.region, r.grad_norm, r.hess_min_eig,
                       r.classification, r.best_index, r.inner_product)
                      for s, r in enumerate(reports)], prov)
    counts = Counter(r.classification for r in reports)
    print(" ".join(f"{k}:{v}" for k, v in sorted(counts.items())))
    return EXIT_OK


# ---------------------------------------------------------------------------
# align


def cmd_align(args: argparse.Namespace) -> int:
    out = Path(args.out_dir)
    shift, sign, err = align_shift(load_matrix(args.estimate).ravel(),
                                   load_matrix(args.truth).ravel())
    result = {"shift": shift, "sign": sign, "error": err,
              "recovered": err <= EPS_CDL}
    if args.format == "json":
        _atomic_write(out / "align.json", json.dumps(result, indent=2) + "\n")
    else:
        _write_table(out / "align.csv", ALIGN_CSV_COLUMNS,
                     [(0, shift, sign, err, err <= EPS_CDL)],
                     _provenance("align", args))
    print(json.dumps(result))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _solver_parser() -> argparse.ArgumentParser:
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--max-iters", type=int, default=SolveConfig.max_iters)
    solver.add_argument("--grad-tol", type=float, default=SolveConfig.grad_tol)
    solver.add_argument("--escape", action="store_true",
                        help="enable second-order saddle escapes")
    return solver


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out-dir", default=".")

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json"), default="csv")

    parser = argparse.ArgumentParser(
        prog="sphere4",
        description="l4-norm maximization experiments on the sphere")
    sub = parser.add_subparsers(dest="command", required=True)

    # every flag must be spelled in full: argparse would otherwise read a
    # prefix as the one flag it begins, so `solve --m 4` as --max-iters
    gen = sub.add_parser("gen", parents=[common], allow_abbrev=False,
                         help="synthesize an instance onto disk")
    gen.add_argument("--model", choices=("odl", "cdl"), required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int)
    gen.add_argument("--k", type=int)
    gen.add_argument("--theta", type=float, required=True)
    gen.add_argument("--p", type=int, required=True)
    gen.add_argument("--convention", choices=("main_text", "appendix_h"),
                     default="main_text")
    gen.set_defaults(func=cmd_gen)

    sv = sub.add_parser("solve", parents=[common, _solver_parser()],
                        allow_abbrev=False,
                        help="one solve on an instance written by gen")
    sv.add_argument("--data-dir", required=True, help="directory produced by "
                    "gen; its gen.json fixes the instance")
    sv.add_argument("--init", choices=("random", "data"), default=None,
                    help="start point (default: data for cdl, random for odl)")
    sv.add_argument("--emit-trace", action="store_true")
    sv.set_defaults(func=cmd_solve)

    sw = sub.add_parser("sweep", parents=[common, _solver_parser()],
                        allow_abbrev=False,
                        help="success rates over a parameter grid")
    sw.add_argument("--objective", choices=("phi_T", "phi_DL", "phi_CDL"),
                    default="phi_T")
    sw.add_argument("--n-grid", type=_list_of(int), required=True)
    sw.add_argument("--m-grid", type=_list_of(int), default=())
    sw.add_argument("--p-grid", type=_list_of(int), default=(0,))
    sw.add_argument("--theta-grid", type=_list_of(float), default=(0.1,))
    sw.add_argument("--k-grid", type=_list_of(int), default=(1,))
    sw.add_argument("--repeats", type=int, default=12)
    sw.set_defaults(func=cmd_sweep)

    # each command gets its own _solver_parser, so these None defaults stay here
    ls = sub.add_parser("landscape", parents=[common, _solver_parser(), fmt],
                        allow_abbrev=False,
                        help="critical point reports at sampled points")
    ls.add_argument("--n", type=int, required=True)
    ls.add_argument("--m", type=int, required=True)
    ls.add_argument("--samples", type=int, default=1)
    ls.add_argument("--at-solution", action="store_true",
                    help="report at solver endpoints instead of raw samples; "
                    "the solver flags act only with it")
    ls.set_defaults(func=cmd_landscape, max_iters=None, grad_tol=None,
                    escape=None)

    al = sub.add_parser("align", parents=[common, fmt], allow_abbrev=False,
                        help="shift/sign alignment of two saved filters")
    al.add_argument("estimate")
    al.add_argument("truth")
    al.set_defaults(func=cmd_align)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        Path(args.out_dir).mkdir(parents=True, exist_ok=True)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
