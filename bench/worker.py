"""Run one workload in this process and write its measurements as JSON.

Started by run.py, one workload process at a time, with the BLAS thread
count already fixed in the environment. Set-up (package import plus
instance generation) is timed from before `import sphere4`; rounds are
then repeated while another one fits in the time given, at least once.
Times are kept as measured and rescaled by the run's HostProbe.
With --trace 1, half the time runs untraced rounds and half traced ones,
so the per-layer metrics come with the tracing overhead beside them.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(BENCH.parent / "src"))

from probe import HostProbe  # noqa: E402
from spans import RATIOS, Tracer, install, layer_metrics  # noqa: E402
from workloads import IN_PROCESS, CliRoundtrip  # noqa: E402

def blas_stamp(nproc: int) -> dict:
    """BLAS name, version and live thread count; fails above nproc."""
    import numpy as np

    cfg = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = []
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "blas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                threads.append(fn())
                break
    if not threads:
        threads = [int(os.environ.get("OPENBLAS_NUM_THREADS", "0"))]
    if max(threads) > nproc or min(threads) < 1:
        raise SystemExit(f"BLAS runs {threads} threads; the benchmark allows "
                         f"1..{nproc} (nproc)")
    import scipy

    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": cfg.get("name"),
            "blas_version": cfg.get("version"), "blas_threads": max(threads),
            "blas_libraries": len(libs)}


def run_phase(workload, probe, seconds: float, traced: bool,
              in_process: bool):
    """Repeat rounds for about `seconds`; returns (times, rounds, tracers)."""
    times, rounds, tracers = [], [], []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if (traced or in_process) else None
        undo = None
        if in_process:
            undo = install(tracer, None if traced else {"optimize.solve"})
        t0 = time.perf_counter()
        result = workload.run_round(tracer, probe)
        dt = time.perf_counter() - t0
        if undo is not None:
            undo()
        times.append(dt)
        rounds.append(result)
        if traced:
            tracers.append(tracer)
        spent = time.perf_counter() - start
        if spent + statistics.median(times) > seconds:
            return times, rounds, tracers


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--nproc", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    in_process = args.workload in IN_PROCESS
    setup_tracer = None
    if in_process:
        import sphere4  # noqa: F401  (timed as part of set-up)

        if args.trace:
            setup_tracer = Tracer()
            undo = install(setup_tracer)
        workload = IN_PROCESS[args.workload](args.seed, args.toy)
        if setup_tracer is not None:
            undo()
        t_setup = time.perf_counter()
    else:
        workload = CliRoundtrip(args.seed, args.toy, dict(os.environ))
    probe = HostProbe()
    probe.sample(force=True)
    record = {"setup_s": None, "setup_raw_s": None}
    if in_process:
        raw = t_setup - T_START
        record["setup_raw_s"] = raw
        record["setup_s"] = raw * probe.factor(T_START, t_setup)
    if args.setup_only:
        Path(args.out).write_text(json.dumps(record))
        return 0
    record["env"] = blas_stamp(args.nproc)

    if args.trace:
        times, rounds, _ = run_phase(workload, probe, args.seconds / 2,
                                     False, in_process)
        t_times, t_rounds, tracers = run_phase(
            workload, probe, args.seconds / 2, True, in_process)
    else:
        times, rounds, _ = run_phase(workload, probe, args.seconds, False,
                                     in_process)
        t_times, t_rounds, tracers = [], [], []

    everything = rounds + t_rounds
    problems = [p for r in everything for p in r.problems]
    prints = {r.fingerprint for r in everything}
    if len(prints) != 1:
        problems.append(f"rounds disagree: {len(prints)} distinct "
                        "fingerprints")
    for key in ("solves", "recovered"):
        if len({getattr(r, key) for r in everything}) != 1:
            problems.append(f"{key} differs between rounds")
    usage = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    whole = workload.wall_is_round
    wall = wall_estimate(rounds, whole)
    per_unit = rounds[0].solves / (1 if whole else len(rounds[0].unit_s))
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    record.update({
        "fingerprint": everything[0].fingerprint,
        "problems": problems,
        "rounds": len(times),
        "round_s": times,
        "unit_s": [r.unit_s for r in rounds],
        "raw_unit_s": [r.raw_s for r in rounds],
        "raw_wall_s": wall_estimate(rounds, whole, "raw_s"),
        "host_slowdown": probe.slowdown(),
        "attempted": attempted,
        "failed": failed,
        "commands_s": command_medians(rounds),
        "end_to_end": {
            "wall_s": wall,
            "solves_per_s": per_unit / wall,
            "recovered": rounds[0].recovered,
            "ok_frac": 1.0 - failed / max(1, attempted),
            "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
        },
    })
    if args.trace:
        merged = Tracer()
        for t in tracers:
            merged.merge(t)
        record["layers"] = traced_layers(setup_tracer, merged, len(tracers),
                                         rounds, t_rounds, whole)
        record["traced_rounds"] = len(t_times)
        merged.dump(Path(args.out).with_name(
            f"spans-{args.workload}-seed{args.seed}.json"))
    Path(args.out).write_text(json.dumps(record))
    return 0


def command_medians(rounds) -> dict:
    """Median wall seconds of each CLI command over the rounds."""
    keys = rounds[0].commands
    return {k: statistics.median(r.commands[k] for r in rounds) for k in keys}


def wall_estimate(rounds, whole_round: bool, key: str = "unit_s") -> float:
    """wall_s from each unit of work's median time over the rounds.

    Every round repeats the same units, so a unit's median over rounds
    filters out bursts of load on the shared host. With `whole_round` the
    medians are summed into a round, which averages the host's slower
    drift over the whole run; otherwise the median unit is taken, because
    single solves are heavy-tailed (one 16x32 solve took 15% of its
    round's iterations) and a median over units does not swing with the
    seed.
    """
    per_unit = [statistics.median(u)
                for u in zip(*(getattr(r, key) for r in rounds))]
    return sum(per_unit) if whole_round else statistics.median(per_unit)


def traced_layers(setup_tracer, traced, n_traced, rounds, t_rounds,
                  whole_round: bool) -> dict:
    """Per-layer metrics: set-up once plus the mean traced round."""
    per_round = layer_metrics(traced, n_traced)
    at_setup = layer_metrics(setup_tracer or Tracer(), 1)
    layers = {k: v if k in RATIOS else v + at_setup[k]
              for k, v in per_round.items()}
    # untraced process times: the traced launcher would inflate them
    commands = command_medians(rounds)
    layers.update({f"cli.{key}.s": commands.get(key, 0.0)
                   for key in CliRoundtrip.COMMANDS})
    layers["cli.exit_nonzero"] = (
        sum(r.failed for r in t_rounds) / len(t_rounds)
        if t_rounds and t_rounds[0].commands else 0.0)
    untraced = wall_estimate(rounds, whole_round)
    traced = wall_estimate(t_rounds, whole_round)
    layers["trace.overhead_s"] = traced - untraced
    layers["trace.overhead_frac"] = (traced - untraced) / untraced
    return layers


if __name__ == "__main__":
    raise SystemExit(main())
