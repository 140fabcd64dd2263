"""Spans around sphere4's public functions and methods, from outside the package.

`install(tracer)` replaces each traced function with a wrapper in every
sphere4 module that holds a reference to it, so the wrapper runs where the
caller looks the name up (`sphere4.recovery.solve`, `sphere4.cli.make_untf`,
...). Methods are replaced on the concrete classes (`OdlObjective.grad`).
A span records name, start, end and the index of its parent span; spans
stay in flat in-memory arrays until `Tracer.dump` writes them out.

`layer_metrics` turns spans into the per-layer metrics of BENCHMARK.json.
Self time is a span's duration minus the time its child spans cover; the
package runs single-threaded, so the children of one span never overlap
and their coverage is the sum of their durations.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from array import array
from time import perf_counter

# name of a span -> number of passes over the objective's basis it makes
# (value: B^T q; grad: B^T q and B z^3; rhess_vec: B^T q, B^T w, B(...))
BASIS_PASSES = {"objectives.value": 1, "objectives.grad": 2,
                "objectives.rhess_vec": 3}

FUNCTIONS = {
    "sphere4.model": ("make_untf", "sample_bg", "synth_odl",
                      "make_filter_bank", "save_matrix", "load_matrix"),
    "sphere4.cdl": ("synth_cdl", "build_preconditioner", "deprecondition"),
    "sphere4.optimize": ("solve", "power_step", "rgd_step", "escape_saddle",
                         "tangent_min_eig", "init_cdl"),
    "sphere4.landscape": ("critical_point_report",),
    "sphere4.recovery": ("recover_full", "recover_filters", "recovery_error",
                         "align_shift"),
}
METHODS = {
    ("sphere4.objectives", "TensorObjective"): "objectives",
    ("sphere4.objectives", "OdlObjective"): "objectives",
    ("sphere4.cdl", "CdlObjective"): "cdl",
}
METHOD_NAMES = ("value", "grad", "rgrad", "rhess_vec", "rhess")

SYNTH = ("model.sample_bg", "model.synth_odl", "model.make_filter_bank")
OPTIMIZE_SELF = ("optimize.solve", "optimize.power_step", "optimize.rgd_step",
                 "optimize.escape_saddle", "optimize.init_cdl")
TERMINATIONS = ("grad_tol", "stalled", "max_iters")
# per-layer metrics that are ratios: not divided by rounds nor summed
RATIOS = ("objectives.calls_per_iter", "cdl.calls_per_iter",
          "optimize.iters_per_solve.p50", "optimize.iters_per_solve.p90",
          "recovery.useful_frac")


class Tracer:
    """Flat span store: parallel arrays indexed by span number."""

    def __init__(self):
        self.names: list = []
        self.ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.info: dict = {}
        self.counters: dict = {}

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def add(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, span_name: str, fn, after=None):
        nid = self.name_id(span_name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self.stack)
        info = self.info

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if after is not None:
                record = after(i, args, kwargs, result)
                if record is not None:
                    info[i] = record
            return result

        return wrapper

    def dump(self, path) -> None:
        """Write spans, per-span records and counters as one JSON file."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "name": self.name.tolist(),
                       "parent": self.parent.tolist(),
                       "start": self.start.tolist(), "end": self.end.tolist(),
                       "info": sorted(self.info.items()),
                       "counters": self.counters}, fh)

    @classmethod
    def load(cls, path) -> "Tracer":
        with open(path) as fh:
            raw = json.load(fh)
        t = cls()
        t.names = raw["names"]
        t.ids = {n: k for k, n in enumerate(t.names)}
        t.name.extend(raw["name"])
        t.parent.extend(raw["parent"])
        t.start.extend(raw["start"])
        t.end.extend(raw["end"])
        t.info = {i: v for i, v in raw["info"]}
        t.counters = raw["counters"]
        return t

    def merge(self, other: "Tracer") -> None:
        """Append another tracer's spans (a traced child process's)."""
        offset = len(self.name)
        for n, p, s, e in zip(other.name, other.parent, other.start,
                              other.end):
            self.name.append(self.name_id(other.names[n]))
            self.parent.append(p + offset if p >= 0 else -1)
            self.start.append(s)
            self.end.append(e)
        for i, v in other.info.items():
            self.info[i + offset] = v
        for k, v in other.counters.items():
            self.add(k, v)


# ---------------------------------------------------------------------------
# what each span records besides its interval


def _basis_bytes(tracer, span_name):
    passes = BASIS_PASSES.get(span_name)
    if passes is None:
        return None

    def after(i, args, kwargs, result):
        tracer.add("objectives.bytes_computed", passes * args[0].basis.nbytes)

    return after


def _solve_info(i, args, kwargs, result):
    trace_end = float(result.objective_trace[-1])
    finite = math.isfinite(trace_end) and math.isfinite(result.final_grad_norm)
    return (result.iterations, result.termination, result.escapes_taken,
            finite, type(args[0]).__name__ == "CdlObjective")


def _recover_full_info(i, args, kwargs, result):
    seen: set = set()
    useful = 0
    for out in result.per_trial:
        if out.success and out.best_index not in seen:
            seen.add(out.best_index)
            useful += 1
    return (result.trials_used, useful)


def _recover_filters_info(tracer, eps_default):
    align = tracer.name_id("recovery.align_shift")

    def after(i, args, kwargs, result):
        eps = kwargs.get("eps_cdl", eps_default)
        errs = [tracer.info[j] for j in range(i + 1, len(tracer.name))
                if tracer.parent[j] == i and tracer.name[j] == align]
        K = len(result.aligned_errors)
        found: set = set()
        useful = 0
        for t in range(result.trials_used):
            new = {k for k, e in enumerate(errs[t * K:(t + 1) * K])
                   if e <= eps and k not in found}
            if new:
                useful += 1
                found |= new
        return (result.trials_used, useful)

    return after


def _io_info(i, args, kwargs, result):
    """Bytes of a matrix file and its JSON sidecar."""
    path = os.fspath(args[0])
    side = os.path.splitext(path)[0] + ".json"
    return sum(os.path.getsize(p) for p in (path, side) if os.path.exists(p))


def _align_info(i, args, kwargs, result):
    return result[2]


# ---------------------------------------------------------------------------
# patching


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "sphere4"
                                  or name.startswith("sphere4."))]


def _patch_function(fn, wrapper, undo):
    for mod in _modules():
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, fn, True))


def install(tracer: Tracer, functions=None):
    """Wrap the traced functions and methods; returns the undo callable.

    With `functions` given (a set of span names) only those are wrapped;
    the untraced runs use this to record solve outcomes and nothing else.
    """
    import sphere4.recovery as recovery

    undo: list = []
    special = {
        "optimize.solve": _solve_info,
        "recovery.recover_full": _recover_full_info,
        "recovery.recover_filters": _recover_filters_info(
            tracer, recovery.EPS_CDL),
        "recovery.align_shift": _align_info,
        "model.save_matrix": _io_info,
        "model.load_matrix": _io_info,
    }
    for modname, names in FUNCTIONS.items():
        mod = sys.modules[modname]
        layer = modname.split(".")[1]
        for name in names:
            span = f"{layer}.{name}"
            if functions is not None and span not in functions:
                continue
            fn = getattr(mod, name)
            _patch_function(fn, tracer.wrap(span, fn, special.get(span)),
                            undo)
    for (modname, clsname), layer in METHODS.items():
        cls = getattr(sys.modules[modname], clsname)
        for name in METHOD_NAMES:
            span = f"{layer}.{name}"
            if functions is not None and span not in functions:
                continue
            if not hasattr(cls, name):
                continue
            own = name in vars(cls)
            fn = getattr(cls, name)
            setattr(cls, name, tracer.wrap(span, fn, _basis_bytes(tracer, span)))
            undo.append((cls, name, fn, own))

    def uninstall():
        for owner, attr, fn, own in reversed(undo):
            if own:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)
        undo.clear()

    return uninstall


# ---------------------------------------------------------------------------
# per-layer metrics


def _nearest_rank(values, q: float) -> float:
    if not values:
        return 0.0
    s = sorted(values)
    return float(s[max(0, math.ceil(q * len(s)) - 1)])


def _spans(tracer: Tracer):
    """Per span: name, duration and self time (duration minus children)."""
    n = len(tracer.name)
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    covered = [0.0] * n
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            covered[p] += dur[i]
    self_time = [d - c for d, c in zip(dur, covered)]
    return [tracer.names[k] for k in tracer.name], dur, self_time


def _top_within(tracer: Tracer, names, group: set, dur) -> float:
    """Time covered by spans in `group`, not counting nested group spans."""
    total = 0.0
    for i, name in enumerate(names):
        if name not in group:
            continue
        p = tracer.parent[i]
        while p >= 0 and names[p] not in group:
            p = tracer.parent[p]
        if p < 0:
            total += dur[i]
    return total


def layer_metrics(tracer: Tracer, rounds: int = 1) -> dict:
    """Per-layer totals of one tracer, divided by `rounds`."""
    names, dur, self_time = _spans(tracer)
    calls: dict = {}
    secs: dict = {}
    selfs: dict = {}
    for name, d, st in zip(names, dur, self_time):
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + d
        selfs[name] = selfs.get(name, 0.0) + st

    def by_name(name):
        return [tracer.info[i] for i, nm in enumerate(names)
                if nm == name and i in tracer.info]

    solves = by_name("optimize.solve")
    dense_iters = sum(s[0] for s in solves if not s[4])
    cdl_iters = sum(s[0] for s in solves if s[4])
    trials = by_name("recovery.recover_full") + by_name(
        "recovery.recover_filters")
    trials_used = sum(t[0] for t in trials)
    writes = by_name("model.save_matrix")
    reads = by_name("model.load_matrix")

    def layer_self(prefix):
        return sum(v for k, v in selfs.items() if k.startswith(prefix))

    m = {
        "model.make_untf.calls": calls.get("model.make_untf", 0),
        "model.make_untf.s": secs.get("model.make_untf", 0.0),
        "model.synth.s": _top_within(tracer, names, set(SYNTH), dur),
        "model.io.write_s": secs.get("model.save_matrix", 0.0),
        "model.io.write_bytes": sum(writes),
        "model.io.read_s": secs.get("model.load_matrix", 0.0),
        "model.io.read_bytes": sum(reads),
    }
    for meth in ("value", "grad", "rgrad", "rhess_vec"):
        m[f"objectives.{meth}.calls"] = calls.get(f"objectives.{meth}", 0)
    m["objectives.self_s"] = layer_self("objectives.")
    m["objectives.calls_per_iter"] = (
        (calls.get("objectives.value", 0) + calls.get("objectives.grad", 0))
        / dense_iters if dense_iters else 0.0)
    m["objectives.bytes_computed"] = tracer.counters.get(
        "objectives.bytes_computed", 0)
    for meth in ("value", "grad", "rgrad"):
        m[f"cdl.{meth}.calls"] = calls.get(f"cdl.{meth}", 0)
    m["cdl.self_s"] = sum(selfs.get(f"cdl.{meth}", 0.0)
                          for meth in ("value", "grad", "rgrad", "rhess_vec"))
    m["cdl.calls_per_iter"] = (
        (calls.get("cdl.value", 0) + calls.get("cdl.grad", 0)) / cdl_iters
        if cdl_iters else 0.0)
    m["cdl.build_preconditioner.s"] = secs.get("cdl.build_preconditioner", 0.0)
    iters = [s[0] for s in solves]
    m["optimize.solve.calls"] = len(solves)
    m["optimize.iterations"] = sum(iters)
    m["optimize.iters_per_solve.p50"] = _nearest_rank(iters, 0.5)
    m["optimize.iters_per_solve.p90"] = _nearest_rank(iters, 0.9)
    m["optimize.self_s"] = sum(selfs.get(k, 0.0) for k in OPTIMIZE_SELF)
    m["optimize.tangent_min_eig.calls"] = calls.get(
        "optimize.tangent_min_eig", 0)
    m["optimize.tangent_min_eig.s"] = secs.get("optimize.tangent_min_eig", 0.0)
    m["optimize.escapes_taken"] = sum(s[2] for s in solves)
    for term in TERMINATIONS:
        m[f"optimize.termination.{term}"] = sum(s[1] == term for s in solves)
    m["landscape.critical_point_report.calls"] = calls.get(
        "landscape.critical_point_report", 0)
    m["landscape.critical_point_report.s"] = secs.get(
        "landscape.critical_point_report", 0.0)
    m["recovery.self_s"] = layer_self("recovery.")
    m["recovery.recovery_error.s"] = secs.get("recovery.recovery_error", 0.0)
    m["recovery.align_shift.s"] = secs.get("recovery.align_shift", 0.0)
    m["recovery.trials_used"] = trials_used
    useful = sum(t[1] for t in trials)
    m["recovery.useful_frac"] = useful / trials_used if trials_used else 0.0
    return {k: v if k in RATIOS else v / rounds for k, v in m.items()}


def solve_outcomes(tracer: Tracer) -> list:
    """(iterations, termination, escapes, finite, is_cdl) per solve."""
    solve = tracer.ids.get("optimize.solve")
    return [tracer.info[i] for i, n in enumerate(tracer.name)
            if n == solve and i in tracer.info]


def solve_failures(tracer: Tracer) -> tuple:
    """(entered, failed, raised) over the solves a tracer saw; a solve
    fails when it raises, ends non-finite or ends max_iters."""
    solve = tracer.ids.get("optimize.solve")
    entered = failed = raised = 0
    for i, n in enumerate(tracer.name):
        if n != solve:
            continue
        entered += 1
        info = tracer.info.get(i)
        raised += info is None
        if info is None or not info[3] or info[1] == "max_iters":
            failed += 1
    return entered, failed, raised
