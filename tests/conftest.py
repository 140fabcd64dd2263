"""Opt-in solve digest: log every in-process solve of a test run.

    PYTHONPATH=src python3 -m pytest --solve-digest=FILE

writes one tab-separated line per `SolveResult` built during the run: the
test's node id, the result's index within that test, then the bytes of
`q_star` as hex, the SHA-256 of the objective trace's bytes, iterations,
termination, escapes taken and the final gradient norm as `float.hex`.
Each `RecoveryOutcome` (a scored trial) gets a line too, in the same
numbering: node id, index, `outcome`, `rho_e` as `float.hex`, `best_index`
and `success`. Two commits that solve and score alike write identical
files, so a speed change that claims the same bits is checked with one
`diff` (or `cmp`) of the two logs. Without the option nothing is patched
or written.
"""

from __future__ import annotations

import hashlib

import pytest


def pytest_addoption(parser):
    parser.addoption("--solve-digest", metavar="FILE", default=None,
                     help="write a digest line for every in-process solve and scored trial to FILE")


def solve_fields(res) -> tuple:
    trace = hashlib.sha256(res.objective_trace.tobytes()).hexdigest()
    return (res.q_star.coords.tobytes().hex(), trace, str(res.iterations),
            res.termination, str(res.escapes_taken),
            float(res.final_grad_norm).hex())


def outcome_fields(out) -> tuple:
    return ("outcome", float(out.rho_e).hex(), str(out.best_index),
            str(out.success))


class SolveDigest:
    """Wraps SolveResult.__init__ and RecoveryOutcome.__init__ for the
    session and restores them at the end."""

    def __init__(self, path: str):
        from sphere4.optimize import SolveResult
        from sphere4.recovery import RecoveryOutcome

        self.out = open(path, "w", encoding="ascii")
        self.test, self.count = "<collection>", 0
        self.inits = [(cls, cls.__init__) for cls in (SolveResult, RecoveryOutcome)]
        for (cls, init), fields in zip(self.inits, (solve_fields, outcome_fields)):
            cls.__init__ = self.logged(init, fields)

    def logged(self, init, fields):
        def logged_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            self.out.write("\t".join((self.test, str(self.count), *fields(obj))) + "\n")
            self.count += 1

        return logged_init

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item):
        self.test, self.count = item.nodeid, 0
        yield

    def pytest_unconfigure(self):
        for cls, init in self.inits:
            cls.__init__ = init
        self.out.close()


def pytest_configure(config):
    path = config.getoption("--solve-digest")
    if path is not None:
        config.pluginmanager.register(SolveDigest(path), "solve-digest")
