"""The benchmark's workloads: inputs drawn from a seed, tasks, and output checks.

Each workload is a closed loop: one task runs after the previous one ends,
on one process.  A task is the unit that gets a wall time; its outputs are
the values a user reads.  The seed draws the rectangles, the point sets and
the task order.  Why these three, and which layers each one loads:

forward-grid
    The forward transform alone: (A, B) profiles through fueter_fields, one
    r-array per x0 column of 40x40 grids, and full multivectors through
    fueter_map at a few points per (h, m, k).  jets, radial, forward,
    clifford and polynomials do all of the work; quadrature and inverse do
    none.  One grid per (m, k) has a geometric r axis down to 1e-3, where
    the radial expansion cancels about (2N-1) log10(1/r) digits (ROADMAP
    item 3).  Those rows, and one corner of the z*arctan m = 9, k = 2 grid,
    miss 1e-8 relative today and stay in (ForwardTask.allowed).

closed-form-invert
    invert and a 32x32 evaluation grid on every built-in closed-form field,
    plus example1 scaled by 10^s.  The field callables are cheap numpy
    expressions, so the RK4 coefficient chain (about a third of a task) and
    per-point FueterPrimitive.eval (the rest, 3 integrand calls per
    integral) carry the cost; the forward layers are idle.  example1 x 1e4,
    x 1e6 and x 1e8 raise QuadratureError today (ROADMAP item 5) and stay in.

tabulated-pipeline
    The README pipeline in-process through fueter.cli.main: forward
    --profiles --grid 40,40 to JSON, then invert --field-json on a 2x3
    output grid (2 x0 values, 3 r values).  Deep quadrature refinement at the bilinear interpolation
    kinks, scalar interpolator calls in the chain, JSON input/output and
    the CLI thread pool dominate.  ROADMAP items 2, 4 and 5 show here.

An output fails when its call raises (NumericalError, which covers
QuadratureError, or ValueError) or when it misses the workload's tolerance;
its task then counts as +inf in the task-time distribution.  Failures in
the regions named above are known defects: they are counted like any other
failure, but do not make the run incorrect.  A failure anywhere else does.

LAYER_MAP records which end-to-end metric each per-layer metric of the
traced run should move, and on which workload.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import references as ref

FUNCS = ("recip", "arctan", "log", "z*arctan", "power")
MS = (3, 5, 7, 9)
KS = (0, 1, 2)
MAP_KS = (0, 1)  # builtin_pk covers k <= 1

_FWD = "forward-grid"
_CFI = "closed-form-invert"
_TAB = "tabulated-pipeline"
_BOTH_INV = f"{_CFI}, {_TAB}"
_FWD_NOTE = f"slightly on {_TAB}, not at all on {_CFI}"
_MAP_NOTE = "mostly at m = 7 and 9; zero on the other workloads"
_QUAD = "task_s_p50, task_s_tail, points_per_s"
_QUAD_NOTE = f"also ok_ratio on {_CFI}"

# per-layer metric -> (end-to-end metric it should move, on which workload, note)
LAYER_MAP = {
    "setup.import_s": ("setup_s", "all", ""),
    "setup.import_scipy_s": ("setup_s", "all", ""),
    "jets.jet_calls": ("points_per_s", _FWD, _FWD_NOTE),
    "jets.self_s": ("points_per_s", _FWD, _FWD_NOTE),
    "radial.op_calls": ("points_per_s", _FWD, _FWD_NOTE),
    "radial.self_s": ("points_per_s", _FWD, _FWD_NOTE),
    "forward.profile_calls": ("points_per_s", _FWD, _FWD_NOTE),
    "forward.profile_self_s": ("points_per_s", _FWD, _FWD_NOTE),
    "forward.fields_calls": ("points_per_s", _FWD, "the per-point loop of fueter_fields"),
    "forward.fields_self_s": ("points_per_s", _FWD, "the per-point loop of fueter_fields"),
    "forward.map_calls": ("points_per_s", _FWD, _MAP_NOTE),
    "forward.map_self_s": ("points_per_s", _FWD, _MAP_NOTE),
    "clifford.mul_calls": ("points_per_s", _FWD, _MAP_NOTE),
    "clifford.self_s": ("points_per_s", _FWD, _MAP_NOTE),
    "polynomials.eval_calls": ("points_per_s", _FWD, _MAP_NOTE),
    "polynomials.self_s": ("points_per_s", _FWD, _MAP_NOTE),
    "inverse.invert_calls": ("task_s_p50", _BOTH_INV, f"zero on {_FWD}"),
    "inverse.invert_self_s": ("task_s_p50", _BOTH_INV, f"zero on {_FWD}"),
    "inverse.chain_s": ("task_s_p50", _BOTH_INV, f"zero on {_FWD}"),
    "inverse.chain_field_points": ("task_s_p50", _BOTH_INV, f"zero on {_FWD}"),
    "quadrature.integrate_calls": (_QUAD, _TAB, _QUAD_NOTE),
    "quadrature.panels": (_QUAD, _TAB, _QUAD_NOTE),
    "quadrature.nodes": (_QUAD, _TAB, _QUAD_NOTE),
    "quadrature.panels_per_call": (_QUAD, _TAB, "floor 3: one whole panel and two halves"),
    "quadrature.errors": ("ok_ratio", _CFI, "example1 x 1e6 and x 1e8"),
    "quadrature.self_s": (_QUAD, _TAB, _QUAD_NOTE),
    "field.points": (_QUAD, _TAB, _QUAD_NOTE),
    "field.self_s": (_QUAD, _TAB, _QUAD_NOTE),
    "inverse.eval_calls": ("points_per_s", _BOTH_INV, ""),
    "inverse.eval_s_p50": ("points_per_s", _BOTH_INV, ""),
    "inverse.eval_s_tail": ("points_per_s", _BOTH_INV, ""),
    "inverse.from_grid_s": ("task_s_p50", _TAB, ""),
    "cli.self_s": ("task_s_p50", _TAB, "argparse, JSON and the thread pool"),
    "cli.out_bytes": ("task_s_p50", _TAB, ""),
    "trace.overhead_s": ("", "all", "traced wall minus untraced wall of the same tasks"),
    "trace.spans": ("", "all", "spans the traced run recorded"),
}


def h_name(func: str, m: int, k: int) -> str:
    """"power" is z^(2k+m), the lowest power outside the transform's kernel."""
    return f"z^{2 * k + m}" if func == "power" else func


@dataclass
class Outcome:
    """One task execution: values (n_outputs, width), or the exception it raised."""

    values: np.ndarray | None
    raised: str | None = None


class Task:
    """A unit of timed work.

    run() calls into fueter through the package namespace at call time, so
    the traced run's wrappers see every call.  load(), errors() and tol()
    run after the timed region: errors() gives one error per output.
    """

    tolerance = 0.0

    def tol(self) -> float:
        return self.tolerance

    def run(self, failures: tuple) -> Outcome:
        raise NotImplementedError

    def load(self, outcome: Outcome) -> np.ndarray:
        return outcome.values

    def errors(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def allowed(self) -> np.ndarray:
        """Per output: a failure here is a known defect at this commit."""
        return np.zeros(self.n_outputs, dtype=bool)


class Workload:
    """A seeded list of tasks and what the report states about them."""

    name = ""
    error_kind = ""
    tail_pct = 90.0
    stop_within_cycle = False  # stop at the deadline mid-cycle (multi-second tasks)

    def __init__(self, fueter, seed: int, size: str, workdir: str):
        self.fueter = fueter
        self.rng = np.random.default_rng(seed)
        self.size = size
        self.workdir = workdir
        self.tasks: list[Task] = []
        self.build()

    def build(self) -> None:
        raise NotImplementedError

    def trace_tasks(self) -> list[Task]:
        """The fixed task list of the traced run: one cycle."""
        return list(self.tasks)

    def field_objects(self) -> list:
        """AxialFunction objects the benchmark built, whose A and B the traced run wraps."""
        return []

    def column_tasks(self) -> list:
        """Tasks that call fueter_fields' A and B closures, which the traced run wraps."""
        return [t for t in self.trace_tasks() if isinstance(t, Column)]

    def out_bytes(self) -> int:
        return 0


# -- forward-grid ----------------------------------------------------------------


class ForwardTask(Task):
    """Forward outputs checked against 50-digit or exact references.

    The known-defect region (ROADMAP item 3) is where the radial expansion
    cancels: sum |terms| >= CANCEL_DEFECT * |output|, read off the
    reference.  Outputs fail there from about 1e7 on; below 1e4 their
    rounding error stays under 1% of the tolerance.
    """

    CANCEL_DEFECT = 1e4
    tolerance = 1e-8  # relative
    _refs = None

    def references(self) -> list:
        raise NotImplementedError

    def refs(self) -> list:
        if self._refs is None:
            self._refs = self.references()
        return self._refs

    def allowed(self):
        return np.array([r[-1] >= self.CANCEL_DEFECT for r in self.refs()])


class Column(ForwardTask):
    """fueter_fields' A and B on one x0 column; outputs (A, B) per r."""

    def __init__(self, h, m, k, x0, rs, A, B):
        self.h, self.m, self.k, self.x0, self.rs = h, m, k, x0, rs
        self.A, self.B = A, B
        self.n_outputs = rs.size

    def run(self, failures):
        try:
            a = np.asarray(self.A(self.x0, self.rs), dtype=np.float64)
            b = np.asarray(self.B(self.x0, self.rs), dtype=np.float64)
        except failures as exc:
            return Outcome(None, type(exc).__name__)
        return Outcome(np.stack([a, b], axis=1))

    def references(self):
        return [ref.profile(self.h, self.m, self.k, self.x0, float(r)) for r in self.rs]

    def errors(self, values):
        return np.array([ref.profile_error(tuple(v), rf) for v, rf in zip(values, self.refs())])


class MapPoints(ForwardTask):
    """fueter_map at a few points of one (h, m, k); outputs are full multivectors."""

    def __init__(self, fueter, h, m, k, fn, P, cfg, points):
        self.fueter, self.h, self.m, self.k = fueter, h, m, k
        self.fn, self.P, self.cfg, self.points = fn, P, cfg, points
        self.n_outputs = len(points)

    def run(self, failures):
        fueter = self.fueter
        out = np.empty((len(self.points), 1 << self.m))
        try:
            for i, (x0, vec) in enumerate(self.points):
                out[i] = fueter.fueter_map(self.fn, self.P, self.cfg, fueter.Paravector(x0, vec)).coeffs
        except failures as exc:
            return Outcome(None, type(exc).__name__)
        return Outcome(out)

    def references(self):
        return [ref.map_reference(self.h, self.m, self.k, x0, vec) for x0, vec in self.points]

    def errors(self, values):
        return np.array([ref.map_error(v, rf[0]) for v, rf in zip(values, self.refs())])


class ForwardGrid(Workload):
    name = _FWD
    error_kind = "relative: max |value - ref| / max |ref| over an output's components"
    tail_pct = 90.0  # about 11 of 232 tasks per cycle fail today, so p95 and above read +inf
    BULK_COLS = 3  # x0 columns drawn per bulk grid
    NEAR_COLS = 1  # x0 columns drawn per near-axis grid
    MAP_POINTS = 4  # fueter_map points per (h, m, k)

    def build(self):
        fueter = self.fueter
        smoke = self.size == "smoke"
        grid = 8 if smoke else 40
        ms = (3, 9) if smoke else MS
        bulk_cols, near_cols, map_points = (1, 1, 1) if smoke else (
            self.BULK_COLS, self.NEAR_COLS, self.MAP_POINTS)
        fields = {}

        def fields_for(func, m, k):
            if (func, m, k) not in fields:
                fn = fueter.jets.by_name(h_name(func, m, k))
                cfg = fueter.FueterConfig(m, k)
                fields[func, m, k] = (fn, cfg) + tuple(fueter.fueter_fields(fn, cfg))
            return fields[func, m, k]

        lattice = {}
        for func, m, k in itertools.product(FUNCS, ms, KS):
            _, _, A, B = fields_for(func, m, k)
            a, c = self.rng.uniform(0.2, 0.5), self.rng.uniform(0.4, 0.6)
            x0s, rs = np.linspace(a, a + 1.0, grid), np.linspace(c, c + 1.0, grid)
            lattice[func, m, k] = (x0s, rs)
            for col in self.rng.choice(grid, bulk_cols, replace=False):
                self.tasks.append(Column(h_name(func, m, k), m, k, float(x0s[col]), rs, A, B))
        # one near-axis grid per (m, k), the function rotating through FUNCS
        for i, (m, k) in enumerate(itertools.product(ms, KS)):
            func = FUNCS[i % len(FUNCS)]
            _, _, A, B = fields_for(func, m, k)
            a, top = self.rng.uniform(0.2, 0.5), self.rng.uniform(0.8, 1.2)
            x0s, rs = np.linspace(a, a + 1.0, grid), np.geomspace(1e-3, top, grid)
            for col in self.rng.choice(grid, near_cols, replace=False):
                self.tasks.append(Column(h_name(func, m, k), m, k, float(x0s[col]), rs, A, B))
        for func, m, k in itertools.product(FUNCS, ms, MAP_KS):
            fn, cfg, _, _ = fields_for(func, m, k)
            x0s, rs = lattice[func, m, k]
            points = []
            for _ in range(map_points):
                omega = self.rng.normal(size=m)
                omega /= np.linalg.norm(omega)
                points.append((float(x0s[self.rng.integers(grid)]), float(rs[self.rng.integers(grid)]) * omega))
            self.tasks.append(MapPoints(fueter, h_name(func, m, k), m, k, fn, fueter.builtin_pk(m, k), cfg, points))


# -- closed-form-invert ------------------------------------------------------------


CLOSED_FORM = (
    ("cubic", None, 0),
    ("example1", None, 0),
    ("example2-nplus", None, 0),
    ("example2-nminus", None, 0),
    ("cauchy-kernel", 3, 0),
    ("cauchy-kernel", 5, 0),
    ("cauchy-kernel", 7, 0),
    ("cauchy-kernel", 9, 0),
) + tuple(("example1", None, s) for s in (-8, -4, 0, 4, 6, 8))
DEFECT_SCALES = (4, 6, 8)  # ROADMAP item 5: QuadratureError at depth 40 today
BASE_RECT = {
    "cubic": (0.0, 1.0, 0.5, 1.5),
    "example1": (0.0, 1.0, 0.5, 1.5),
    "cauchy-kernel": (0.0, 1.0, 0.5, 1.5),
    "example2-nplus": (0.3, 1.2, 0.3, 0.8),
    "example2-nminus": (0.3, 1.2, 0.3, 0.8),
}


def known_primitive(name: str, m: int, z: np.ndarray) -> np.ndarray:
    """The closed-form primitive of each built-in field, up to the gauge."""
    if name == "cubic":
        return z**3
    if name == "example1":
        return 1.0 / (64.0 * z)
    if name == "example2-nplus":
        return np.arctan(z) / (2 * np.pi)
    if name == "example2-nminus":
        return z * np.arctan(z) / (2 * np.pi)
    if name == "cauchy-kernel":
        # the field is conj(x) / (|S^m| |x|^(m+1)); Ft[1/z] = c_m conj(x) / |x|^(m+1)
        area = 2.0 * math.pi ** ((m + 1) / 2) / math.gamma((m + 1) / 2)
        return 1.0 / (area * ref.reciprocal_constant(m) * z)
    raise ValueError(f"no known primitive for {name!r}")


class Inversion(Task):
    """invert(H) then prim.eval on a grid; outputs (u, v) per point.

    The task stops at the first raising call: a primitive that cannot be
    evaluated is a failed product, so every output of the task fails.
    """

    tolerance = 1e-6  # absolute, on the unscaled field (the acceptance tolerance)

    def __init__(self, fueter, name, m, N, scale_exp, H, points):
        self.fueter, self.name, self.m, self.N = fueter, name, m, N
        self.scale_exp, self.H, self.points = scale_exp, H, points
        self.n_outputs = len(points)

    def run(self, failures):
        out = np.empty((len(self.points), 2))
        try:
            prim = self.fueter.invert(self.H)
            for i, (x0, r) in enumerate(self.points):
                out[i] = prim.eval(float(x0), float(r))
        except failures as exc:
            return Outcome(None, type(exc).__name__)
        return Outcome(out)

    def errors(self, values):
        z = self.points[:, 0] + 1j * self.points[:, 1]
        diff = (values[:, 0] + 1j * values[:, 1]) / 10.0**self.scale_exp
        return ref.gauge_residual(z, diff - known_primitive(self.name, self.m, z), 2 * self.N - 1)

    def allowed(self):
        return np.full(self.n_outputs, self.scale_exp in DEFECT_SCALES)


def _scaled(fn, scale):
    return lambda x0, r: scale * fn(x0, r)


class ClosedFormInvert(Workload):
    name = _CFI
    error_kind = "absolute: gauge-fit residual of the primitive, divided by the field's scale 10^s"
    tail_pct = 75.0  # 3 of 14 tasks fail today, so p80 and above read +inf
    GRID = 32

    def build(self):
        fueter = self.fueter
        smoke = self.size == "smoke"
        g = 4 if smoke else self.GRID
        for name, m, s in (CLOSED_FORM[:2] + CLOSED_FORM[-2:]) if smoke else CLOSED_FORM:
            a, b, c, d = BASE_RECT[name]
            rect = fueter.Rectangle(
                a + self.rng.uniform(-0.05, 0.05),
                b + self.rng.uniform(-0.05, 0.05),
                c + self.rng.uniform(-0.03, 0.03),
                d + self.rng.uniform(-0.05, 0.05),
            )
            H = fueter.axial_field(name, rect, m=m)
            if s:
                H = fueter.AxialFunction(
                    _scaled(H.A, 10.0**s), _scaled(H.B, 10.0**s), H.m, H.k, rect, name=f"{name}x1e{s}"
                )
            x0s, rs = np.linspace(rect.a, rect.b, g), np.linspace(rect.c, rect.d, g)
            points = np.array([(x, r) for x in x0s for r in rs])
            self.tasks.append(Inversion(fueter, name, H.m, H.N, s, H, points))

    def field_objects(self):
        return [t.H for t in self.tasks]


# -- tabulated-pipeline --------------------------------------------------------------


class Pipeline(Task):
    """fueter forward --profiles | fueter invert --field-json, in-process.

    Outputs are the (u, v) rows of the invert output file, read after the
    timed region.  CLI exit code 3 (numerical failure) fails every output;
    any other nonzero code on these valid arguments is a benchmark bug.
    """

    h = "arctan"
    m = 3

    def __init__(self, fueter, rect, grid_in, grid_out, workdir, tag):
        self.fueter, self.rect, self.grid_in, self.grid_out = fueter, rect, grid_in, grid_out
        self.f_in = os.path.join(workdir, f"profiles-{tag}.json")
        self.f_out = os.path.join(workdir, f"primitive-{tag}.json")
        self.n_outputs = grid_out[0] * grid_out[1]
        self.points = None

    def run(self, failures):
        main = self.fueter.cli.main
        rect = ",".join(repr(float(t)) for t in self.rect)
        rc = main(["forward", "--h", self.h, "--m", str(self.m), "--profiles",
                   "--grid", f"{self.grid_in},{self.grid_in}", "--rect", rect, "--out", self.f_in])
        if rc == 0:
            rc = main(["invert", "--field-json", self.f_in,
                       "--grid", f"{self.grid_out[0]},{self.grid_out[1]}", "--out", self.f_out])
        if rc == 3:
            return Outcome(None, "exit code 3")
        if rc != 0:
            raise RuntimeError(f"fueter CLI exited with {rc} on valid arguments")
        with open(self.f_out, "rb") as fh:  # the next run of this task overwrites the file
            return Outcome(np.frombuffer(fh.read(), dtype=np.uint8))

    def load(self, outcome):
        data = json.loads(outcome.values.tobytes())
        self.points = np.array([(p["x0"], p["r"]) for p in data["points"]], dtype=np.float64)
        return np.array([p["value"] for p in data["points"]], dtype=np.float64)

    def tol(self) -> float:
        """Bound on the primitive's error from bilinear interpolation of the input grid.

        eps is the field's interpolation error: the largest gap, over both
        components, between the reference field at a cell centre and the
        mean of the cell's four corner values (where bilinear interpolation
        of a smooth field errs most).  It reaches the primitive through K_N
        times the lengths the inversion integrates over: the radial
        integrals, (r^2 - c^2)/2 and r (r - c), and the edge chain,
        (b - a)^2 / 2 + (1 + c)(b - a).  The gauge fit only lowers the residual.
        """
        a, b, c, d = self.rect
        x0, r = np.meshgrid(np.linspace(a, b, self.grid_in), np.linspace(c, d, self.grid_in), indexing="ij")
        eps = 0.0
        for node, centre in zip(ref.profile_np(self.h, self.m, 0, x0, r),
                                ref.profile_np(self.h, self.m, 0, (x0[1:, 1:] + x0[:-1, :-1]) / 2,
                                               (r[1:, 1:] + r[:-1, :-1]) / 2)):
            corners = (node[1:, 1:] + node[1:, :-1] + node[:-1, 1:] + node[:-1, :-1]) / 4
            eps = max(eps, float(np.abs(centre - corners).max()))
        N = ref.order(self.m, 0)
        kn = 1.0 / (2 * N * ref.double_factorial(2 * N - 2) ** 2)
        length = (d * d - c * c) / 2 + d * (d - c) + (b - a) ** 2 / 2 + (1 + c) * (b - a)
        return kn * length * eps

    def errors(self, values):
        z = self.points[:, 0] + 1j * self.points[:, 1]
        diff = values[:, 0] + 1j * values[:, 1] - np.arctan(z)
        return ref.gauge_residual(z, diff, 2 * ref.order(self.m, 0) - 1)


class TabulatedPipeline(Workload):
    name = _TAB
    error_kind = "absolute: gauge-fit residual of the primitive against arctan"
    # A run completes 5 or 6 tasks of about 6 s, so no percentile has ten
    # samples beyond it; p75 keeps one beyond, so one slow task does not set it.
    tail_pct = 75.0
    stop_within_cycle = True
    # Rectangles drawn per seed.  A run runs all of them once (about 24 s),
    # then repeats them in a new order until --seconds have passed.
    RECTS = 4
    # Output grid (nx0, nr).  It is coarse because each output point costs
    # about 0.6 s of quadrature on top of the 2.4 s chain.  Three r values
    # let the degree-3 gauge fit (four unknowns) leave eight degrees of
    # freedom, and keep the worst residual at a steady share of the
    # interpolation bound across rectangles; on a 2x2 grid it moved 2x.
    GRID_OUT = (2, 3)

    def build(self):
        smoke = self.size == "smoke"
        grid_in, grid_out = (8, (2, 2)) if smoke else (40, self.GRID_OUT)
        for i in range(2 if smoke else self.RECTS):
            a, c = self.rng.uniform(0.2, 0.4), self.rng.uniform(0.4, 0.6)
            self.tasks.append(Pipeline(self.fueter, (a, a + 1.0, c, c + 1.0), grid_in, grid_out, self.workdir, i))

    def trace_tasks(self):
        return self.tasks[:1]

    def out_bytes(self):
        return sum(os.path.getsize(p) for t in self.tasks for p in (t.f_in, t.f_out) if os.path.exists(p))


WORKLOADS = {w.name: w for w in (ForwardGrid, ClosedFormInvert, TabulatedPipeline)}
