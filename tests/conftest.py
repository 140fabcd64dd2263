"""Opt-in solve digest: log every in-process solve of a test run.

    PYTHONPATH=src python3 -m pytest --solve-digest=FILE

writes one tab-separated line per `SolveResult` built during the run: the
test's node id, the solve's index within that test, then the bytes of
`q_star` as hex, the SHA-256 of the objective trace's bytes, iterations,
termination, escapes taken and the final gradient norm as `float.hex`.
Two commits that solve alike write identical files, so a speed change that
claims the same bits is checked with one `diff` (or `cmp`) of the two logs.
Without the option nothing is patched or written.
"""

from __future__ import annotations

import hashlib

import pytest


def pytest_addoption(parser):
    parser.addoption("--solve-digest", metavar="FILE", default=None,
                     help="write a digest line for every in-process solve to FILE")


class SolveDigest:
    """Wraps SolveResult.__init__ for the session and restores it at the end."""

    def __init__(self, path: str):
        from sphere4.optimize import SolveResult

        self.out = open(path, "w", encoding="ascii")
        self.test, self.count = "<collection>", 0
        self.cls, self.init = SolveResult, SolveResult.__init__

        def logged_init(res, *args, **kwargs):
            self.init(res, *args, **kwargs)
            self.record(res)

        SolveResult.__init__ = logged_init

    def record(self, res) -> None:
        trace = hashlib.sha256(res.objective_trace.tobytes()).hexdigest()
        self.out.write("\t".join((
            self.test, str(self.count), res.q_star.coords.tobytes().hex(), trace,
            str(res.iterations), res.termination, str(res.escapes_taken),
            float(res.final_grad_norm).hex())) + "\n")
        self.count += 1

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item):
        self.test, self.count = item.nodeid, 0
        yield

    def pytest_unconfigure(self):
        self.cls.__init__ = self.init
        self.out.close()


def pytest_configure(config):
    path = config.getoption("--solve-digest")
    if path is not None:
        config.pluginmanager.register(SolveDigest(path), "solve-digest")
