"""Self-test of the benchmark harness at toy sizes, in well under a minute.

    python3 bench/selftest.py

Checks span bookkeeping on a synthetic call tree, then runs every workload
of BENCHMARK.json with --toy, untraced and traced, and checks that the last
line is the result object, that its metrics are exactly the ones
BENCHMARK.json lists, and that the outputs were judged correct. Last, a
copy holding only BENCHMARK.json and bench/ must fail without a result.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(ROOT / "src"))

from probe import HostProbe  # noqa: E402
from spans import Tracer, install, layer_metrics  # noqa: E402
from workloads import InProcess  # noqa: E402


def check(cond: bool, message: str) -> None:
    if not cond:
        print(f"FAIL {message}")
        raise SystemExit(1)


def check_spans() -> None:
    tracer = Tracer()

    def leaf():
        time.sleep(0.01)

    leaf_w = tracer.wrap("recovery.recovery_error", leaf)

    def outer():
        leaf_w()
        leaf_w()
        time.sleep(0.01)

    tracer.wrap("recovery.recover_full", outer)()
    check(list(tracer.parent) == [-1, 0, 0], "span parents")
    m = layer_metrics(tracer)
    total = tracer.end[0] - tracer.start[0]
    leaves = m["recovery.recovery_error.s"]
    check(abs(m["recovery.self_s"] - total) < 1e-9,
          "self times of one layer sum to its outermost span")
    check(0.018 < leaves < total, "child time inside the parent's")


def check_failure_counting() -> None:
    """A max_iters solve and a raising call count as failures, once each."""
    import sphere4

    D = sphere4.make_untf(4, 6, seed=0)

    def boom():
        raise ValueError("injected")

    class Failing(InProcess):
        def calls(self):
            capped = sphere4.SolveConfig(max_iters=1)
            yield ("capped", lambda: sphere4.recover_full(
                D, capped, trial_budget=3), lambda r: [], lambda r: 0)
            yield ("boom", boom, lambda r: [], lambda r: 0)

    tap = Tracer()
    undo = install(tap, {"optimize.solve"})
    try:
        r = Failing().run_round(tap, HostProbe())
    finally:
        undo()
    check((r.attempted, r.failed, r.solves) == (4, 4, 3),
          f"failure counts {(r.attempted, r.failed, r.solves)} != (4, 4, 3)")


def run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    check_spans()
    check_failure_counting()
    print("ok spans and failure counting")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            t0 = time.perf_counter()
            proc = run(w["name"], trace)
            check(proc.returncode == 0,
                  f"{w['name']} trace {trace} exited {proc.returncode}: "
                  f"{proc.stderr.strip()[-400:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, "result keys")
            check(result["correct"] is True,
                  f"{w['name']} trace {trace} judged incorrect:\n"
                  f"{proc.stdout}")
            check(result["attempted"] >= 1, "attempted at least 1")
            check(set(result["metrics"]) == {m["name"] for m in spec[key]},
                  f"{w['name']} trace {trace}: metrics differ from {key}")
            print(f"ok {w['name']} trace {trace} "
                  f"({time.perf_counter() - t0:.1f} s)")

    bare = Path(tempfile.mkdtemp(dir=BENCH / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(spec["workloads"][0]["name"], 0, cwd=bare)
        check(proc.returncode != 0 and not proc.stdout.strip(),
              "a copy without src/ must fail without printing a result")
        print("ok fails without the package")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
