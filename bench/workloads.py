"""The four benchmark workloads: inputs, one timed round, correctness checks.

Each workload builds its inputs from the seed alone, then runs identical
rounds; each unit of work in a round is timed, with host-speed probes
between units (see probe.py). A round returns a `Round`: solves
completed, how much was recovered, operations attempted and failed, and a
fingerprint that must be identical in every round and in every run with
the same seed.

Why each workload exists, and which layer it isolates, is recorded with
its definition below. Sizes were fixed from probes on a 2-core Xeon with
2 MiB of L2 per core and 1 BLAS thread; per-solve times there are given
with each definition.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent


class Clock:
    """Times the units of work of one round, probing the host's speed
    between them."""

    def __init__(self, probe):
        self.probe = probe
        self.raw: list = []
        self.spans: list = []

    def time(self, thunk):
        """Run `thunk`; returns its result or the exception it raised."""
        self.probe.sample()
        t0 = time.perf_counter()
        try:
            result = thunk()
        except Exception as exc:  # the caller counts it as a failure
            result = exc
        t1 = time.perf_counter()
        self.raw.append(t1 - t0)
        self.spans.append((t0, t1))
        self.probe.sample()
        return result

    def rescaled(self) -> list:
        """Unit times at the reference host speed (see probe.py)."""
        return [dt * self.probe.factor(t0, t1)
                for dt, (t0, t1) in zip(self.raw, self.spans)]


@dataclass
class Round:
    solves: int
    recovered: int
    attempted: int
    failed: int
    fingerprint: str
    # seconds of each unit of work, rescaled to the reference host speed:
    # one public call in process, one command for cli_roundtrip
    unit_s: list = field(default_factory=list)
    # the same, as measured
    raw_s: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    # wall seconds per command (cli_roundtrip only)
    commands: dict = field(default_factory=dict)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _seeds(workload: str, seed: int, count: int) -> list:
    rng = random.Random(f"{workload}/{seed}")
    return [rng.randrange(2**31) for _ in range(count)]


def _check_coverage(cov, m: int, budget: int, threshold: float) -> list:
    """A trial log must agree with itself and with the recovered set."""
    problems = []
    if cov.trials_used != len(cov.per_trial) or cov.trials_used > budget:
        problems.append(f"trials_used {cov.trials_used} vs log "
                        f"{len(cov.per_trial)}, budget {budget}")
    for t, out in enumerate(cov.per_trial):
        if not 0.0 <= out.rho_e <= 1.0:
            problems.append(f"trial {t}: rho_e {out.rho_e} outside [0, 1]")
        if out.success != (out.rho_e < threshold):
            problems.append(f"trial {t}: success {out.success} but rho_e "
                            f"{out.rho_e}")
    hit = {out.best_index for out in cov.per_trial if out.success}
    if set(cov.recovered) != hit:
        problems.append(f"recovered {sorted(cov.recovered)} != successful "
                        f"best_index {sorted(hit)}")
    if len(cov.recovered) < m and cov.trials_used != budget:
        problems.append(f"stopped after {cov.trials_used} of {budget} trials "
                        "without full coverage")
    return problems


class InProcess:
    """Shared round logic for the workloads that call sphere4 directly.

    Each public call is a unit of work. `wall_is_round` makes wall_s the
    time of a whole round rather than of the median call.
    """

    name = ""
    wall_is_round = False

    def calls(self):
        """(label, thunk, check, count) per public call in one round:
        `check(result)` lists problems, `count(result)` is how much the
        call recovered."""
        raise NotImplementedError

    def run_round(self, tap, probe) -> Round:
        """One round; `tap` is a fresh tracer installed at least on solve,
        `probe` the run's HostProbe."""
        from spans import solve_failures, solve_outcomes

        recovered = solves = raised = 0
        fingerprint = []
        problems = []
        clock = Clock(probe)
        for label, thunk, check, count in self.calls():
            result = clock.time(thunk)
            if isinstance(result, Exception):
                raised += 1
                fingerprint.append([label, "raised", type(result).__name__])
                continue
            problems += [f"{label}: {p}" for p in check(result)]
            recovered += count(result)
            solves += result.trials_used
            fingerprint.append([label, sorted(result.recovered),
                                result.trials_used])
        entered, failed, raised_in_solve = solve_failures(tap)
        terms: dict = {}
        for info in solve_outcomes(tap):
            terms[info[1]] = terms.get(info[1], 0) + 1
        fingerprint.append(["terminations", sorted(terms.items())])
        return Round(solves=solves, recovered=recovered,
                     attempted=max(entered, solves + raised),
                     failed=failed + max(0, raised - raised_in_solve),
                     fingerprint=_digest(fingerprint),
                     unit_s=clock.rescaled(), raw_s=clock.raw,
                     problems=problems)


class CoverageTensor(InProcess):
    """recover_full, default TensorObjective and SolveConfig, 16x32 UNTFs.

    Why: on a 16x32 basis one objective call takes microseconds, so the
    time splits between the objective kernel and the per-iteration Python
    loop in `optimize` and `recovery`. A batched solver shows here; kernel
    changes show only in part. Isolates `optimize` loop overhead.

    A full coverage run (the gate's budget of ceil(8*32*ln 32) = 888
    trials) varied 40x in work between dictionaries in probes: from 3.8k
    to 156k power iterations, and about one dictionary in three reached
    all 32 columns and stopped early. Dictionaries differ broadly and
    single solves are heavy-tailed (one took 7.7k iterations), so a steady
    figure needs many small calls: a round makes 192 calls of 8 trials
    each, and wall_s is the time of the whole round. Over ten seeds the
    iteration count of such a round spread by 5% (IQR over median),
    against 11% for 96 calls.
    With 8 trials full coverage is impossible, so every call spends its
    whole budget. Probe: 4.3 ms per solve.
    """

    name = "coverage_tensor"
    n, m = 16, 32
    wall_is_round = True

    def __init__(self, seed: int, toy: bool):
        import sphere4

        self.dicts, self.budget = (2, 4) if toy else (192, 8)
        seeds = _seeds(self.name, seed, self.dicts + 1)
        self.seed_base = seeds[-1]
        self.D = [sphere4.make_untf(self.n, self.m, seed=s)
                  for s in seeds[:-1]]

    def calls(self):
        import sphere4
        from sphere4.recovery import SUCCESS_THRESHOLD

        for i, D in enumerate(self.D):
            yield (f"D{i}",
                   lambda D=D, i=i: sphere4.recover_full(
                       D, trial_budget=self.budget,
                       seed_base=self.seed_base + 1000 * i),
                   lambda cov: _check_coverage(cov, self.m, self.budget,
                                               SUCCESS_THRESHOLD),
                   lambda cov: len(cov.recovered))


class OdlData(InProcess):
    """recover_full with OdlObjective on Y = A X, escape on.

    Why: A = make_untf(16, 24), X ~ BG(0.2) with p = 40000, so each Y is
    5.1 MB, more than the 2 MiB L2 of a core: every data pass streams from
    L3 and objective passes take about 98% of the time. It is the only
    workload where the `tangent_min_eig` Lanczos escape does real work
    (once per solve, at the end). Isolates the `objectives` kernel; a
    fused evaluate shows most here. A round makes single-trial calls on 12
    instances, so the median call is taken over 12 draws of the
    iteration count. Probe: 0.42 s per solve, 27-83 iterations.
    """

    name = "odl_data"
    n, m, theta = 16, 24, 0.2

    def __init__(self, seed: int, toy: bool):
        import sphere4

        p, self.instances, self.trials = (2000, 2, 1) if toy else (40000, 12, 1)
        seeds = _seeds(self.name, seed, 2 * self.instances + 1)
        self.seed_base = seeds[-1]
        self.problems = []
        for i in range(self.instances):
            D = sphere4.make_untf(self.n, self.m, seed=seeds[2 * i])
            X = sphere4.sample_bg(self.m, p, self.theta, seed=seeds[2 * i + 1])
            # X is dropped here; only Y stays resident
            self.problems.append((D, sphere4.synth_odl(D, X)))
        self.config = sphere4.SolveConfig(escape=sphere4.EscapeConfig())

    def calls(self):
        import sphere4
        from sphere4.recovery import SUCCESS_THRESHOLD

        for i, (D, Y) in enumerate(self.problems):
            yield (f"Y{i}",
                   lambda D=D, Y=Y, i=i: sphere4.recover_full(
                       D, self.config, trial_budget=self.trials,
                       objective=sphere4.OdlObjective(Y, self.theta),
                       seed_base=self.seed_base + 1000 * i),
                   lambda cov: _check_coverage(cov, self.m, self.trials,
                                               SUCCESS_THRESHOLD),
                   lambda cov: len(cov.recovered))


class CdlFilters(InProcess):
    """recover_filters on make_filter_bank(64, 3), theta = 0.1.

    Why: at least 99% of the time is in the CdlObjective FFT correlations,
    so a real-FFT/half-spectrum change shows here. `synth_cdl` and
    `build_preconditioner` land in setup_s. Isolates the `cdl` layer.

    The default budget (10 trials per filter, stopping once all three are
    found) used 3 to 30 trials per instance in probes, so a round makes
    single-trial calls on 14 instances instead. The aligned error of one
    trial shrinks with p and sits at the recovery bar of 0.1 near
    p = 2000: 87% of trials fell within it over ten seeds, 2 of 8 at
    p = 1000. The count recovered is thus binomial; with 10 instances its
    spread over ten seeds reached 25% (IQR over median), hence 14.
    Probe: 1.9 s per solve, 34-71 iterations.
    """

    name = "cdl_filters"
    n, K, theta = 64, 3, 0.1

    def __init__(self, seed: int, toy: bool):
        import sphere4

        n, p, self.instances = (16, 400, 2) if toy else (self.n, 2000, 14)
        seeds = _seeds(self.name, seed, self.instances + 1)
        self.seed_base = seeds[-1]
        self.problems = [
            sphere4.synth_cdl(sphere4.make_filter_bank(n, self.K, seed=s),
                              self.theta, p, seed=s)
            for s in seeds[:-1]]

    def calls(self):
        import sphere4
        from sphere4.recovery import EPS_CDL

        def check(rec):
            problems = []
            errs = [float(e) for e in rec.aligned_errors]
            if not all(0.0 <= e <= 2.0 for e in errs):
                problems.append(f"aligned errors {errs} outside [0, 2]")
            if set(rec.recovered) != {k for k, e in enumerate(errs)
                                      if e <= EPS_CDL}:
                problems.append(f"recovered {sorted(rec.recovered)} vs "
                                f"errors {errs}")
            if rec.trials_used != 1:
                problems.append(f"trials_used {rec.trials_used} != 1")
            return problems

        for i, problem in enumerate(self.problems):
            yield (f"P{i}",
                   lambda problem=problem, i=i: sphere4.recover_filters(
                       problem, trial_budget=1,
                       seed_base=self.seed_base + 1000 * i),
                   check,
                   lambda rec: len(rec.recovered))


class CliRoundtrip:
    """Sequential `python -m sphere4` processes, each in a fresh directory.

    Why: every process pays the package import (0.42 s, of which
    scipy.linalg is 0.26 s), so dropping scipy shows only here. It is the
    only workload with `model` CSV I/O, writes beside reads (`gen` writes
    about 4 MB that `solve` reads back), and the only one running
    `critical_point_report`; the sweep calls `make_untf` at 6 shapes, 120
    times. `sweep` resumes from an existing manifest, hence fresh output
    directories. Outputs must be byte-identical across rounds.
    """

    name = "cli_roundtrip"
    wall_is_round = True
    COMMANDS = ("gen_odl", "solve_odl", "gen_cdl", "solve_cdl", "sweep",
                "landscape")

    def __init__(self, seed: int, toy: bool, env: dict):
        self.env = env
        s = str(_seeds(self.name, seed, 1)[0])
        if toy:
            odl_p, cdl_p, repeats, samples = "500", "200", "2", "3"
        else:
            odl_p, cdl_p, repeats, samples = "8000", "150", "20", "50"
        self.argv = {
            "gen_odl": ["gen", "--model", "odl", "--n", "16", "--m", "24",
                        "--theta", "0.2", "--p", odl_p, "--seed", s,
                        "--out-dir", "{dir}/odl"],
            "solve_odl": ["solve", "--data-dir", "{dir}/odl", "--seed", s,
                          "--out-dir", "{dir}/odl_solve"],
            "gen_cdl": ["gen", "--model", "cdl", "--n", "64", "--k", "3",
                        "--theta", "0.1", "--p", cdl_p, "--seed", s,
                        "--out-dir", "{dir}/cdl"],
            "solve_cdl": ["solve", "--data-dir", "{dir}/cdl", "--seed", s,
                          "--out-dir", "{dir}/cdl_solve"],
            "sweep": ["sweep", "--objective", "phi_T", "--n-grid", "8,12",
                      "--m-grid", "16,24,32", "--repeats", repeats,
                      "--seed", s, "--out-dir", "{dir}/sweep"],
            "landscape": ["landscape", "--n", "16", "--m", "24", "--samples",
                          samples, "--at-solution", "--escape", "--seed", s,
                          "--out-dir", "{dir}/landscape"],
        }
        self.workdir = BENCH / "out" / "cli"

    def _outputs(self, top: Path) -> dict:
        return {str(p.relative_to(top)): hashlib.sha256(
                    p.read_bytes()).hexdigest()
                for p in sorted(top.rglob("*"))
                if p.is_file() and p.suffix in (".csv", ".json")
                and not p.name.startswith("spans-")}

    def _recovered(self, top: Path) -> tuple:
        """(successes, solves) read back from the command outputs."""
        def rows(path):
            lines = [ln for ln in path.read_text().splitlines()
                     if not ln.startswith("#")]
            return [ln.split(",") for ln in lines[1:]]

        successes = solves = 0
        for row in rows(top / "odl_solve" / "recovery.csv"):
            successes += int(row[-1])
        solves += 1
        for row in rows(top / "cdl_solve" / "filters_aligned.csv"):
            successes += int(row[-1])
        solves += 1
        for row in rows(top / "sweep" / "sweep_rates.csv"):
            successes += int(row[-2])
            solves += int(row[-3])
        for row in rows(top / "landscape" / "landscape.csv"):
            successes += row[4] == "near_solution"
            solves += 1
        return successes, solves

    def run_round(self, tracer, probe) -> Round:
        """One round; with a tracer, each command runs under the traced
        launcher and its spans are merged into `tracer`. `probe` is the
        run's HostProbe."""
        from spans import Tracer

        self.workdir.mkdir(parents=True, exist_ok=True)
        top = Path(tempfile.mkdtemp(dir=self.workdir))
        clock = Clock(probe)
        failed = 0
        commands = {}
        problems = []
        try:
            for key in self.COMMANDS:
                argv = [a.replace("{dir}", str(top)) for a in self.argv[key]]
                if tracer is None:
                    cmd = [sys.executable, "-m", "sphere4", *argv]
                else:
                    cmd = [sys.executable, str(BENCH / "launcher.py"),
                           str(top / f"spans-{key}.json"), *argv]
                code = clock.time(lambda: subprocess.run(
                    cmd, env=self.env, cwd=top, stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL).returncode)
                commands[key] = clock.raw[-1]
                # any non-zero exit counts, 3 (iteration cap) included
                failed += code != 0
            if tracer is not None:
                for spans in sorted(top.glob("spans-*.json")):
                    tracer.merge(Tracer.load(spans))
            try:
                recovered, solves = self._recovered(top)
            except (OSError, ValueError, IndexError) as exc:
                problems.append(f"cannot read outputs: {exc}")
                recovered = solves = 0
            fingerprint = _digest(self._outputs(top))
        finally:
            shutil.rmtree(top, ignore_errors=True)
        return Round(solves=solves, recovered=recovered,
                     attempted=len(self.COMMANDS), failed=failed,
                     fingerprint=fingerprint, unit_s=clock.rescaled(),
                     raw_s=clock.raw,
                     problems=problems, commands=commands)


IN_PROCESS = {w.name: w for w in (CoverageTensor, OdlData, CdlFilters)}
