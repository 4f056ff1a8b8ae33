"""Spans and counters around calls into each fueter module, from outside.

fueter's modules bind each other's functions with ``from .x import y``, so
a wrapper installed only where a function is defined misses calls made
through the other modules' bindings.  Installation therefore replaces every
binding of the original object in every loaded fueter module, and patches
methods on their classes.  Names a later version of fueter removes are
skipped; their metrics read 0.

Spans stay in memory until the run ends.  A span's self time is its
duration minus the time its child spans cover.  Spans started on a worker
thread with no open span of their own (the CLI's grid pool) take the main
thread's innermost open span as parent, and their durations include time
spent waiting for the interpreter lock.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np

# (module that defines it, name, span name); functions are rebound everywhere
FUNCTIONS = (
    ("fueter.jets", "radial_derivatives", "jets.radial_derivatives"),
    ("fueter.radial", "radial_op", "radial.op"),
    ("fueter.forward", "fueter_profile", "forward.profile"),
    ("fueter.forward", "fueter_map", "forward.map"),
    ("fueter.inverse", "invert", "inverse.invert"),
    ("fueter.inverse", "solve_alpha_beta", "inverse.chain"),
    ("fueter.cli", "main", "cli.main"),
)
# (module, class, method, span name)
METHODS = (
    ("fueter.jets", "HolomorphicFn", "jet", "jets.jet"),
    ("fueter.clifford", "Multivector", "__mul__", "clifford.mul"),
    ("fueter.clifford", "Multivector", "__add__", "clifford.add"),
    ("fueter.polynomials", "MonogenicPolynomial", "__call__", "polynomials.eval"),
    ("fueter.inverse", "FueterPrimitive", "eval", "inverse.eval"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, t0, t1, points)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = self._stack()
        self._counters: list[Counter] = []
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def counter(self) -> Counter:
        """This thread's counter; merged at the end, so no increment is lost."""
        c = getattr(self._local, "counter", None)
        if c is None:
            c = self._local.counter = Counter()
            with self._lock:
                self._counters.append(c)
        return c

    def call(self, name: str, fn, args, kwargs, points: int = 0):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main[-1] if self._main and stack is not self._main else None
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, points))

    def wrap(self, fn, name: str, count_points: bool = False):
        def wrapper(*args, **kwargs):
            points = int(np.size(args[1])) if count_points else 0
            return self.call(name, fn, args, kwargs, points)

        wrapper.__wrapped__ = fn
        return wrapper

    def counts(self) -> Counter:
        total = Counter()
        for c in self._counters:
            total.update(c)
        return total


def _integrate_wrapper(tracer: Tracer, fn, failure: type):
    """Span per integrate call; the integrand is wrapped to count panels and nodes."""

    def integrate(f, a, b, *args, **kwargs):
        panels = [0]

        def integrand(x):
            c = tracer.counter()
            c["quadrature.panels"] += 1
            c["quadrature.nodes"] += int(np.size(x))
            panels[0] += 1
            return f(x)

        try:
            return tracer.call("quadrature.integrate", fn, (integrand, a, b) + args, kwargs)
        except failure:
            tracer.counter()["quadrature.errors"] += 1
            raise
        finally:
            if panels[0]:  # an empty interval (a == b) takes no panel
                tracer.counter()["quadrature.calls_with_panels"] += 1

    integrate.__wrapped__ = fn
    return integrate


class Installation:
    """Wrappers installed on a loaded fueter package; undo() restores them."""

    def __init__(self, fueter, tracer: Tracer, fields: list, columns: list):
        self._undo: list[tuple] = []
        modules = [m for n, m in sorted(sys.modules.items()) if n == "fueter" or n.startswith("fueter.")]

        def rebind(original, wrapper):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)

        for modname, name, span in FUNCTIONS:
            original = getattr(sys.modules.get(modname), name, None)
            if callable(original):
                rebind(original, tracer.wrap(original, span))
        quad = sys.modules.get("fueter.quadrature")
        if quad is not None and callable(getattr(quad, "integrate", None)):
            rebind(quad.integrate, _integrate_wrapper(tracer, quad.integrate, fueter.QuadratureError))
        for modname, clsname, meth, span in METHODS:
            cls = getattr(sys.modules.get(modname), clsname, None)
            if cls is not None and meth in vars(cls):
                self._set(cls, meth, tracer.wrap(vars(cls)[meth], span))
        self._wrap_from_grid(fueter, tracer)
        for H in fields:
            self._wrap_field(H, tracer, restore=True)
        # the benchmark's own calls into fueter_fields' A and B closures
        for task in columns:
            for attr in ("A", "B"):
                self._set(task, attr, tracer.wrap(getattr(task, attr), "forward.fields"))

    def _set(self, obj, attr, value):
        self._undo.append((obj, attr, getattr(obj, attr) if not isinstance(obj, type) else vars(obj)[attr]))
        setattr(obj, attr, value)

    def _wrap_field(self, H, tracer, restore):
        for attr in ("A", "B"):
            wrapped = tracer.wrap(getattr(H, attr), "field.eval", count_points=True)
            if restore:
                self._set(H, attr, wrapped)
            else:
                setattr(H, attr, wrapped)

    def _wrap_from_grid(self, fueter, tracer):
        cls = getattr(fueter, "AxialFunction", None)
        original = vars(cls).get("from_grid") if cls is not None else None
        if not isinstance(original, classmethod):
            return
        installation = self

        def from_grid(klass, data):
            H = tracer.call("inverse.from_grid", original.__func__, (klass, data), {})
            installation._wrap_field(H, tracer, restore=False)
            return H

        self._set(cls, "from_grid", classmethod(from_grid))

    def undo(self):
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, end = 0.0, -np.inf
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        total += t1 - max(t0, end)
        end = t1
    return total


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; +inf entries (failed tasks) sort last."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(pct / 100.0 * len(ordered))))
    return ordered[rank - 1]


def tail_level(n: int) -> float:
    """The highest of p50, p75, p90, p95, p99, p99.9 with at least ten samples beyond it."""
    best = 100.0
    for pct in (50.0, 75.0, 90.0, 95.0, 99.0, 99.9):
        if n * (100.0 - pct) >= 1000.0 - 1e-6:
            best = pct
    return best


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict]:
    """Per-layer counts and self times from the recorded spans, plus notes."""
    spans = tracer.spans
    children = defaultdict(list)
    by_id = {}
    for s in spans:
        by_id[s[0]] = s
        if s[1] is not None:
            children[s[1]].append((s[3], s[4]))
    self_time = Counter()
    calls = Counter()
    inclusive = Counter()
    for sid, _, name, t0, t1, _ in spans:
        self_time[name] += (t1 - t0) - _covered(children.get(sid, []))
        calls[name] += 1
        inclusive[name] += t1 - t0

    def layer_self(prefix):
        return sum(v for k, v in self_time.items() if k.split(".")[0] == prefix)

    def under(span, name):
        while span[1] is not None:
            span = by_id.get(span[1])
            if span is None:
                return False
            if span[2] == name:
                return True
        return False

    counts = tracer.counts()
    evals = [s[4] - s[3] for s in spans if s[2] == "inverse.eval"]
    field_spans = [s for s in spans if s[2] == "field.eval"]
    integrate_calls = calls["quadrature.integrate"]
    working_calls = counts["quadrature.calls_with_panels"]
    eval_tail = tail_level(len(evals))
    return {
        "jets.jet_calls": calls["jets.jet"],
        "jets.self_s": layer_self("jets"),
        "radial.op_calls": calls["radial.op"],
        "radial.self_s": layer_self("radial"),
        "forward.profile_calls": calls["forward.profile"],
        "forward.profile_self_s": self_time["forward.profile"],
        "forward.fields_calls": calls["forward.fields"],
        "forward.fields_self_s": self_time["forward.fields"],
        "forward.map_calls": calls["forward.map"],
        "forward.map_self_s": self_time["forward.map"],
        "clifford.mul_calls": calls["clifford.mul"],
        "clifford.self_s": layer_self("clifford"),
        "polynomials.eval_calls": calls["polynomials.eval"],
        "polynomials.self_s": layer_self("polynomials"),
        "inverse.invert_calls": calls["inverse.invert"],
        "inverse.invert_self_s": self_time["inverse.invert"],
        "inverse.chain_s": inclusive["inverse.chain"],
        "inverse.chain_field_points": sum(s[5] for s in field_spans if under(s, "inverse.chain")),
        "inverse.eval_calls": len(evals),
        "inverse.eval_s_p50": percentile(evals, 50.0) if evals else 0.0,
        "inverse.eval_s_tail": percentile(evals, eval_tail) if evals else 0.0,
        "inverse.from_grid_s": inclusive["inverse.from_grid"],
        "quadrature.integrate_calls": integrate_calls,
        "quadrature.panels": counts["quadrature.panels"],
        "quadrature.nodes": counts["quadrature.nodes"],
        "quadrature.panels_per_call": counts["quadrature.panels"] / working_calls if working_calls else 0.0,
        "quadrature.errors": counts["quadrature.errors"],
        "quadrature.self_s": layer_self("quadrature"),
        "field.points": sum(s[5] for s in field_spans),
        "field.self_s": layer_self("field"),
        "cli.self_s": layer_self("cli"),
        "trace.spans": len(spans),
    }, {"inverse.eval_tail_pct": eval_tail}
