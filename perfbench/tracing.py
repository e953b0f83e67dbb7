"""Outside-in spans around adiawalk's public functions.

``Tracer.install`` replaces every public function of the layer modules
with a timing wrapper, in every ``adiawalk`` namespace that bound it:
``from .linalg import chain_product`` binds the same function in
``evolution``, ``grover`` and ``integrators`` as well, and the package
re-exports it.  ``WalkFamily.block`` is wrapped on its class.  Nothing
under ``src/`` changes; ``restore`` puts every original back.

Spans keep a stack per thread.  ``ThreadPoolExecutor.submit`` is wrapped
too, so a task's first span takes the submitting span as its parent.  A
span's self time is its duration minus the part of its interval that its
children cover, so a parent blocked on two worker threads does not count
the wait, and the self times summed over all spans are the busy time
summed over threads.
"""

import functools
import inspect
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

LAYERS = ("linalg", "schedules", "integrators", "spectral", "evolution", "grover",
          "toymodels", "cli")

# Spans whose metrics are reported; any that cannot be wrapped is absent.
SPANS = (
    "integrators.block",
    "integrators.exact_step_propagator",
    "integrators.walk_operator",
    "schedules.schedule_values",
    "linalg.chain_product",
    "linalg.normal_eig",
    "spectral.track_eigenpaths",
    "spectral.ck_profiles",
    "spectral.walk_gap_profile",
    "evolution.evolve",
    "evolution.ideal_adiabatic_family",
    "evolution.volterra_diagnostics",
    "grover.run_search",
    "toymodels.gap_table",
    "toymodels.fidelity_sweep",
    "cli.main",
)

# span -> (count metric, argument it is read from, count from that argument)
COUNTERS = {
    "integrators.block": ("integrators.block.steps", None, lambda a: a["j1"] - a["j0"]),
    "schedules.schedule_values": ("schedules.points", "s", np.size),
    "linalg.chain_product": ("linalg.chain_product.matrices", "ws",
                             lambda ws: 1 if np.ndim(ws) == 2 else len(ws)),
    "spectral.track_eigenpaths": ("spectral.track_eigenpaths.steps", "family",
                                  lambda fam: fam.td + 1),
    "grover.run_search": ("grover.search_steps", "t", int),
}
ORACLE = "integrators.exact_step_propagator"
ORACLE_SUBSTEPS = "integrators.oracle_substeps"

CALLS = ("integrators.block", ORACLE, "integrators.walk_operator",
         "schedules.schedule_values", "linalg.normal_eig", "grover.run_search")
COUNTS = tuple(c[0] for c in COUNTERS.values()) + (ORACLE_SUBSTEPS,)

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [(f"{span}.self_s", "s", "lower") for span in SPANS]
    + [(f"{span}.calls", "count", "lower") for span in CALLS]
    + [(name, "count", "lower") for name in COUNTS]
    + [
        ("integrators.block.ns_per_step", "ns", "lower"),
        ("schedules.us_per_point", "us", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.busy_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.absent", "count", "lower"),
        ("trace.count_mismatches", "count", "lower"),
    ]
)


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name, None)
        if (callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield name, obj


class Tracer:
    """Collects spans while installed; see the module docstring."""

    def __init__(self):
        self.spans = []  # (id, parent id, name, thread id, t0, t1, count)
        self.absent = set()
        self.threads = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = None
        if counter is not None:
            try:
                signature = inspect.signature(fn)
            except (TypeError, ValueError):
                self.absent.add(counter[0])
                counter = None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count = 0
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    count = int(counter[2](bound if counter[1] is None else bound[counter[1]]))
                except (TypeError, KeyError, AttributeError):
                    tracer.absent.add(counter[0])
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, threading.get_ident(), t0, t1, count))

        return wrapper

    def _replace(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def install(self):
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "adiawalk" or n.startswith("adiawalk.")]
        wrapped = set()
        for layer in LAYERS:
            module = sys.modules.get(f"adiawalk.{layer}")
            if module is None:
                continue
            for fname, fn in _public_functions(module):
                name = f"{layer}.{fname}"
                wrapper = self._wrap(name, fn)
                wrapped.add(name)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._replace(ns, attr, fn, wrapper)
        family = getattr(sys.modules.get("adiawalk.integrators"), "WalkFamily", None)
        block = vars(family).get("block") if family is not None else None
        if callable(block):
            self._replace(family, "block", block, self._wrap("integrators.block", block))
            wrapped.add("integrators.block")
        self._replace(ThreadPoolExecutor, "submit", ThreadPoolExecutor.submit,
                      self._wrap_submit(ThreadPoolExecutor.submit))
        self.absent |= {name for name in SPANS if name not in wrapped}
        return self

    def _wrap_submit(self, submit):
        tracer = self

        @functools.wraps(submit)
        def traced_submit(pool, fn, /, *args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None

            def task(*a, **k):
                local = tracer._stack()
                saved = local[:]
                local[:] = [] if parent is None else [parent]
                try:
                    return fn(*a, **k)
                finally:
                    local[:] = saved

            return submit(pool, task, *args, **kwargs)

        return traced_submit

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self):
        """Per-layer values of the spans recorded since the last take."""
        spans, self.spans = self.spans, []
        self.threads |= {s[3] for s in spans}
        return aggregate(spans)


def _covered(t0, t1, intervals):
    total = 0.0
    end = t0
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, t1)
        if b > a:
            total += b - a
            end = b
    return total


def aggregate(spans):
    """Self times, call counts and work counts of one traced repetition."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[1] in by_id:
            children[s[1]].append((s[4], s[5]))
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    busy = 0.0
    for sid, parent, name, _, t0, t1, count in spans:
        own = (t1 - t0) - _covered(t0, t1, children[sid])
        busy += own
        self_s[name] += own
        calls[name] += 1
        if name in COUNTERS:
            counts[COUNTERS[name][0]] += count
        if name == "schedules.schedule_values":
            p = parent
            while p in by_id:
                if by_id[p][2] == ORACLE:
                    counts[ORACLE_SUBSTEPS] += count
                    break
                p = by_id[p][1]
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name, value in self_s.items():
        out[name.split(".")[0] + ".self_s"] += value
    out.update({f"{span}.self_s": self_s[span] for span in SPANS})
    out.update({f"{span}.calls": calls[span] for span in CALLS})
    out.update({name: counts[name] for name in COUNTS})
    out["trace.busy_s"] = busy
    return out


def summarize(reps, traced_walls, untraced_walls, absent):
    """Per-layer metrics over traced repetitions: medians of times, and
    counts that must repeat exactly between repetitions."""
    metrics = {}
    mismatches = []
    for key in reps[0]:
        values = [r[key] for r in reps]
        if isinstance(values[0], int):
            metrics[key] = values[0]
            if any(v != values[0] for v in values):
                mismatches.append(key)
        else:
            metrics[key] = statistics.median(values)
    steps = metrics["integrators.block.steps"]
    points = metrics["schedules.points"]
    block_self = metrics["integrators.block.self_s"]
    sched_self = metrics["schedules.schedule_values.self_s"]
    metrics["integrators.block.ns_per_step"] = 1e9 * block_self / steps if steps else 0.0
    metrics["schedules.us_per_point"] = 1e6 * sched_self / points if points else 0.0
    metrics["trace.wall_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(untraced_walls)
    metrics["trace.absent"] = len(absent)
    metrics["trace.count_mismatches"] = len(mismatches)
    return metrics, mismatches
