"""sphere4 benchmark: time the package's public entry points from outside.

Usage, from the root of a checkout that holds src/sphere4:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads and metrics are those of BENCHMARK.json. The seed alone
fixes every input. One workload process runs at a time, with one BLAS
thread. With --trace 0 the run prints the end-to-end metrics; with
--trace 1 it prints the per-layer metrics of a traced run, next to the
tracing overhead. Either way the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; the lines
before it give the environment and the metrics as a table, with set-up
and wall time also as measured, before bench/probe.py rescales them to
the reference host speed. A full record goes to bench/out/. `--toy`
shrinks every workload for bench/selftest.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

BLAS_THREADS = 1
WORKLOAD_PROCESSES = 1
# set-up is measured in this many fresh processes besides the main one
SETUP_PROBES = 4
IMPORT_PROBES = 3
DEADLINE_S = 170.0


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "SPHERE4_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def process_seconds(code: str, env: dict, probe) -> tuple:
    """(raw, rescaled) wall seconds of a `python -c code` process, with
    host-speed probes run just before and after it."""
    probe.sample(force=True)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    t1 = time.perf_counter()
    probe.sample(force=True)
    return t1 - t0, (t1 - t0) * probe.factor(t0, t1)


def run_worker(args, env: dict, out: Path, extra=(), timeout=None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nproc", str(args.nproc), "--out", str(out), *extra]
    if args.toy:
        cmd.append("--toy")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"worker for {args.workload} ran past {timeout:.0f} s")
    if proc.returncode != 0:
        fail(f"worker for {args.workload} exited {proc.returncode}")
    return json.loads(out.read_text())


def source_digest() -> str:
    """Digest of the package and of the benchmark's own code."""
    h = hashlib.sha256()
    paths = [*(ROOT / "src" / "sphere4").rglob("*.py"), *BENCH.glob("*.py")]
    for path in sorted(paths):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_head():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def same_as_earlier_runs(key: str, fingerprint: str) -> bool:
    """Compare with earlier runs of the same seed and source in this
    checkout; the first run of a key records its fingerprint."""
    path = OUT / "fingerprints.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    if key in seen:
        return seen[key] == fingerprint
    seen[key] = fingerprint
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True


def main() -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail(f"no {spec_path.name} beside {BENCH.name}/")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")
    if not (ROOT / "src" / "sphere4" / "__init__.py").exists():
        fail("src/sphere4 not found: run from the root of a sphere4 checkout")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    args.nproc = len(os.sched_getaffinity(0))
    if BLAS_THREADS > args.nproc or WORKLOAD_PROCESSES > args.nproc:
        fail(f"{BLAS_THREADS} BLAS threads and {WORKLOAD_PROCESSES} workload "
             f"processes exceed nproc = {args.nproc}")
    OUT.mkdir(exist_ok=True)
    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cli = args.workload == "cli_roundtrip"

    # set-up: in-process workloads time import plus instance generation in
    # fresh processes; cli_roundtrip times a process that only imports.
    # Each sample is a (raw, rescaled) pair; see probe.py.
    setup = []
    bare, imports = [], []
    if cli or args.trace:
        from probe import HostProbe

        probe = HostProbe()
        probes = SETUP_PROBES + 1 if cli and not args.trace else IMPORT_PROBES
        imports = [process_seconds("import sphere4", env, probe)
                   for _ in range(probes)]
        if cli:
            setup = list(imports)
    if args.trace:
        bare = [process_seconds("pass", env, probe)
                for _ in range(IMPORT_PROBES)]
    elif not cli:
        for k in range(SETUP_PROBES):
            one = run_worker(args, env, OUT / f"{tag}.setup{k}.json",
                             ("--setup-only",), timeout=60)
            setup.append((one["setup_raw_s"], one["setup_s"]))

    remaining = DEADLINE_S - (time.perf_counter() - t_start)
    record = run_worker(args, env, OUT / f"{tag}.worker.json",
                        timeout=remaining)
    if record["setup_s"] is not None:
        setup.append((record["setup_raw_s"], record["setup_s"]))

    problems = list(record["problems"])
    key = f"{args.workload}/{args.seed}/{int(args.toy)}/{source_digest()}"
    if not same_as_earlier_runs(key, record["fingerprint"]):
        problems.append("outputs differ from an earlier run with this seed")

    if args.trace:
        metrics = dict(record["layers"])
        metrics["cli.import_s"] = (statistics.median(r for r, _ in imports)
                                   - statistics.median(r for r, _ in bare))
        wanted = spec["per_layer"]
    else:
        metrics = dict(record["end_to_end"])
        metrics["setup_s"] = statistics.median(s for _, s in setup)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail(f"metrics not measured: {missing}")
    out_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                   for m in wanted}

    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "toy": args.toy, "nproc": args.nproc,
        "workload_processes": WORKLOAD_PROCESSES,
        "blas_threads_requested": BLAS_THREADS, "git_head": git_head(),
        "source_sha256": key.rsplit("/", 1)[1], "machine": platform.machine(),
        **record["env"],
    }
    result = {"correct": not problems, "attempted": record["attempted"],
              "failed": record["failed"], "metrics": out_metrics}
    full = {"stamp": stamp, "problems": problems, "setup_samples_s": setup,
            "rounds": record["rounds"], "round_s": record["round_s"],
            "unit_s": record["unit_s"], "raw_unit_s": record["raw_unit_s"],
            "raw_wall_s": record["raw_wall_s"],
            "host_slowdown": record["host_slowdown"],
            "commands_s": record["commands_s"],
            "traced_rounds": record.get("traced_rounds", 0), "result": result}
    (OUT / f"{tag}.json").write_text(json.dumps(full, indent=1) + "\n")

    print("env " + json.dumps(stamp, sort_keys=True))
    for p in problems:
        print(f"INCORRECT {p}")
    fail_frac = record["failed"] / max(1, record["attempted"])
    print(f"{'fail_frac':40s} {fail_frac:14.6g} ratio "
          f"({record['failed']} of {record['attempted']} attempted)")
    for name, m in out_metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    if not args.trace:
        print(f"{'as measured: setup_s':40s} "
              f"{statistics.median(r for r, _ in setup):14.6g} s")
        print(f"{'as measured: wall_s':40s} {record['raw_wall_s']:14.6g} s")
    print(f"{'host slowdown (probe median / REF_S)':40s} "
          f"{record['host_slowdown']:14.6g} ratio")
    print(f"rounds {record['rounds']} untraced, "
          f"{record.get('traced_rounds', 0)} traced")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
