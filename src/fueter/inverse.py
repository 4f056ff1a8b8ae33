"""Primitives of axial monogenic fields: the integral inversion.

Given an axial monogenic H = (A(x0, r) + omega B(x0, r)) P_k(x_) on a
rectangle [a, b] x [c, d] with c > 0, a holomorphic h = u + iv whose image
under the forward transform is H reads

    u(x0, r) = K_N I1(x0, r) + sum_{j=0..N-1} alpha_j(x0) r^(2j)
    v(x0, r) = K_N I2(x0, r) + sum_{j=0..N-1} beta_j(x0)  r^(2j+1)

with N = k + (m-1)/2, the exact rational K_N = 1 / (2N ((2N-2)!!)^2), the
weighted integrals

    I1(x0, r) =   integral_c^r t (r^2 - t^2)^(N-1) A(x0, t) dt
    I2(x0, r) = r integral_c^r   (r^2 - t^2)^(N-1) B(x0, t) dt

and polynomial correction coefficients alpha_j, beta_j determined (up to
the gauge freedom of the transform's kernel) by a linear first-order ODE
chain in x0 forced by the field's trace on the r = c edge:

    alpha_j' - (2j+1) beta_j = (-1)^(N-j-1) K_N C(N-1, j) c^(2(N-j)-1) B(x0, c)
    beta_j'  + 2(j+1) alpha_(j+1) = (-1)^(N-j) K_N C(N-1, j) c^(2(N-j-1)) A(x0, c)

for j = 0..N-1, reading alpha_N = 0 in the last line.

Every field evaluation is one call of the field's pair(x0, r) -> (A, B).
The pair (I1, I2) of radial_integrals and eval is adaptive Gauss-Legendre
with a kernel-weighted first level: for a fixed r the kernel (r^2 - t^2)^(N-1),
the nodes, the Gauss weights and the panel half-widths are constants, so a
rule cached per r folds them into two matrices (the package's one cache of
first-level nodes), and a point's first level is one pair call and two dot
products, on integrate's nodes and weights with the products associated
differently.  An interval that fails the acceptance refines on the
kernel-times-field integrands through quadrature's shared engine.

The chain y' = M y + F is nilpotent (M^(2N) = 0), so with the matrix
polynomial E(s) = exp(M s) = sum_{p<2N} M^p s^p / p! its solution is one
integral, y(x0) = E(x0 - a) y(a) + integral_a^x0 E(x0 - t) F(t) dt, which
integrate evaluates to the primitive's tolerance at each new x0.  Every
integral of the inversion is thus one adaptive integral over one interval.
Different initial constants change h only by a real polynomial of degree
<= 2k+m-2 = 2N-1.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError
from .forward import FueterConfig, paired
from .quadrature import DEFAULT_QUADRATURE, PANEL_ORDER, QuadratureConfig, _layout, _rule, integrate, quadrature

# Points this close outside a rectangle (or a tabulated grid) are moved onto
# its edge: upstream arithmetic lands an ulp or two past it.
EDGE_TOL = 1e-12
# Blending degree of the Floater-Hormann interpolant of tabulated fields:
# on 40 equispaced nodes its 1-D Lebesgue constant is 24.9 (5.5 at d = 3,
# 138 at d = 9), and a 40 x 40 arctan grid inverts to about 1e-9.
BLEND_DEGREE = 6
# Distinct x0 whose coefficient vector one primitive remembers.
COEFF_CACHE = 1024
# Radial intervals [c, r] whose first-level rule the package remembers.
LAYOUT_CACHE = 64


@dataclass(frozen=True)
class Rectangle:
    """Closed rectangle [a, b] x [c, d] in the (x0, r) half plane, c > 0."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        for edge, value in zip("abcd", self.as_tuple()):
            if not math.isfinite(value):
                raise ValueError(f"rectangle edge {edge} must be finite, got {value}")
        if not self.a < self.b:
            raise ValueError(f"need a < b, got a={self.a}, b={self.b}")
        if not 0 < self.c < self.d:
            raise ValueError(f"need 0 < c < d, got c={self.c}, d={self.d}")

    def require(self, x0: float, r: float) -> tuple[float, float]:
        """(x0, r) itself on the rectangle, its nearest edge point up to EDGE_TOL outside; farther out raises."""
        if not (self.a - EDGE_TOL <= x0 <= self.b + EDGE_TOL and self.c - EDGE_TOL <= r <= self.d + EDGE_TOL):
            raise ValueError(
                f"point (x0={x0:g}, r={r:g}) outside rectangle "
                f"[{self.a:g}, {self.b:g}] x [{self.c:g}, {self.d:g}]"
            )
        return (self.a if x0 < self.a else self.b if x0 > self.b else x0,
                self.c if r < self.c else self.d if r > self.d else r)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def grid(self, nx0: int, nr: int) -> tuple[np.ndarray, np.ndarray]:
        """x0 and r of the regular nx0 x nr grid on the rectangle, edges included, as flat
        float64 arrays in x0-major order; a single point along an axis sits on a or c."""
        if nx0 < 1 or nr < 1:
            raise ValueError(f"grid needs at least 1x1 points, got {nx0}x{nr}")
        xs, rs = np.meshgrid(np.linspace(self.a, self.b, nx0), np.linspace(self.c, self.d, nr), indexing="ij")
        return xs.ravel(), rs.ravel()


def _fh_weights(grid: np.ndarray, d: int) -> np.ndarray:
    """Floater-Hormann barycentric weights of blending degree d on increasing nodes.

    w_k = sum_{i in J_k} (-1)^i prod_{j=i..i+d, j != k} 1 / (x_k - x_j),
    J_k = {i : 0 <= i <= n - d, k - d <= i <= k}, with d clipped to the
    n = grid.size - 1 intervals; computed on the nodes mapped to [0, 1],
    which scales every weight alike.
    """
    x = (grid - grid[0]) / (grid[-1] - grid[0])
    d = min(d, x.size - 1)
    windows = np.lib.stride_tricks.sliding_window_view(x, d + 1)  # window i holds x[i..i+d]
    diff = windows[:, :, None] - windows[:, None, :] + np.eye(d + 1)  # 1 on the diagonal, exact elsewhere
    terms = (-1.0) ** np.arange(len(windows))[:, None] / diff.prod(axis=2)
    w = np.zeros(x.size)
    for j in range(d, -1, -1):  # node i + j takes window i's term j; every node sums in increasing i
        w[j:j + len(windows)] += terms[:, j]
    return w


def _fh_basis(t: np.ndarray, grid: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The barycentric basis at points t: shape t.shape + (grid.size,), exactly one-hot at a node.

    Each term w_k / (t - x_k) is scaled by the smallest |t - x_j|, so none
    overflows however close t comes to a node.
    """
    diff = t[..., None] - grid
    exact = diff == 0.0
    if exact.any():  # a node's row keeps only w_k / 1: after normalising, exactly 1
        diff = np.where(exact.any(axis=-1, keepdims=True), np.where(exact, 1.0, np.inf), diff)
    terms = weights * (np.abs(diff).min(axis=-1, keepdims=True) / diff)
    return terms / terms.sum(axis=-1, keepdims=True)


def _snap(t: np.ndarray, grid: np.ndarray, axis: str) -> np.ndarray:
    """t with points within EDGE_TOL of the grid's ends snapped onto them, as Rectangle.require moves eval's
    points; exterior points raise.  t itself when every point lies more than EDGE_TOL inside both ends."""
    if t.size and t.min() - grid[0] > EDGE_TOL and grid[-1] - t.max() > EDGE_TOL:
        return t
    t = np.where(np.abs(t - grid[0]) <= EDGE_TOL, grid[0], t)
    t = np.where(np.abs(t - grid[-1]) <= EDGE_TOL, grid[-1], t)
    if not np.all((grid[0] <= t) & (t <= grid[-1])):
        raise ValueError(f"{axis} outside the tabulated [{grid[0]:g}, {grid[-1]:g}]")
    return t


def _is_number(value) -> bool:
    """A real number and not a bool, which JSON spells true or false."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _grid_row(p) -> tuple:
    """(x0, r, A, B) of one grid point {x0, r, value: [A, B]} of numbers; a malformed point raises ValueError."""
    try:
        x0, r, (a, b) = p["x0"], p["r"], p["value"]
        if all(map(_is_number, (x0, r, a, b))):
            return x0, r, a, b
    except (KeyError, TypeError, ValueError):
        pass
    raise ValueError(f"grid point {p!r} is not {{x0, r, value: [A, B]}} of numbers")


class AxialFunction:
    """An axial field on a rectangle: scalar profiles (A, B) plus (m, k).

    The inversion calls the field only through pair(x0, r) -> (A, B), once
    per quadrature level.  pair, A and B must accept (x0, r) as two
    scalars, as a scalar x0 with an ndarray r (the radial quadrature feeds r
    nodes at fixed x0), or as two ndarrays of equal shape (the coefficient
    chain feeds x0 nodes along r = c), and return float values of r's
    shape.  A native pair, given as the pair keyword, computes both from
    one evaluation, and A and B must be its components; without one, pair
    calls the A and then the B the field holds at the time, so rebinding
    either takes effect.  The integrals assume A and B smooth on the
    rectangle.  Nothing here checks that (A, B) solves the Vekua system;
    verify.cr_residual measures how far a computed primitive is from
    holomorphic.
    """

    __slots__ = ("pair", "A", "B", "m", "k", "N", "rect", "name")

    def __init__(
        self,
        A: Callable,
        B: Callable,
        m: int,
        k: int,
        rect: Rectangle,
        name: str = "axial-field",
        pair: Callable | None = None,
    ):
        if not isinstance(rect, Rectangle):
            raise TypeError("rect must be a Rectangle")
        self.A = A
        self.B = B
        self.pair = self._components if pair is None else pair
        cfg = FueterConfig(m, k)
        self.m, self.k, self.N = cfg.m, cfg.k, cfg.N
        self.rect = rect
        self.name = str(name)

    def _components(self, x0, r) -> tuple:
        return self.A(x0, r), self.B(x0, r)

    @classmethod
    def from_grid(cls, data: dict | str) -> "AxialFunction":
        """Tabulated field from grid JSON (Floater-Hormann interpolation).

        Expects the grid schema {"meta": {m, k, rect, nx0, nr},
        "points": [{x0, r, value: [A, B]}, ...]} of finite values on a full
        grid, at least 2 x 2, of any spacing, whose points span rect; a bool
        or a string is no number here, as in JSON.  A and B are tensor
        products of Floater-Hormann barycentric rational interpolants of
        blending degree BLEND_DEGREE (clipped to the grid size) in x0 and in
        r: smooth, free of real poles, exact for polynomials of that degree
        in each variable, and equal to the tabulated values at the grid's
        nodes.  The interpolant is the field's pair, so one pair of bases
        serves both tables, and A and B share its calls through
        forward.paired.
        """
        if isinstance(data, str):
            data = json.loads(data)
        meta = data.get("meta") if isinstance(data, dict) else None
        if not isinstance(meta, dict) or not isinstance(data.get("points"), list):
            raise ValueError('grid JSON must be an object with a "meta" object and a "points" list')
        if not all(isinstance(v, numbers.Integral) and _is_number(v) for v in map(meta.get, ("m", "k", "nx0", "nr"))):
            raise ValueError(f"grid meta needs integers m, k, nx0 and nr, got {meta!r}")
        edges = meta.get("rect")
        if not (isinstance(edges, (list, tuple)) and len(edges) == 4 and all(map(_is_number, edges))):
            raise ValueError(f"grid meta.rect must be four numbers a, b, c, d, got {edges!r}")
        rect = Rectangle(*map(float, edges))
        nx0, nr = int(meta["nx0"]), int(meta["nr"])
        if nx0 < 2 or nr < 2:
            raise ValueError(f"need at least a 2 x 2 grid, got {nx0} x {nr}")
        pts = data["points"]
        if len(pts) != nx0 * nr:
            raise ValueError(f"expected {nx0 * nr} grid points, got {len(pts)}")
        try:  # one flat list, checked for JSON's number types at once; other inputs go point by point
            flat = [v for p in pts for x0, r, (a, b) in [(p["x0"], p["r"], p["value"])] for v in (x0, r, a, b)]
        except (KeyError, TypeError, ValueError):
            flat = None
        if flat is None or not {*map(type, flat)} <= {int, float}:
            flat = [v for p in pts for v in _grid_row(p)]
        table = np.array(flat, dtype=np.float64).reshape(-1, 4)
        # a set, not np.unique, whose first call adds about 1 MB of resident memory
        xs, rs = (np.array(sorted(set(table[:, i].tolist()))) for i in (0, 1))
        if xs.size != nx0 or rs.size != nr or not np.all(np.isfinite(table[:, :2])):
            raise ValueError("points do not form a full nx0 x nr grid")
        vals = np.full((2, nx0, nr), np.nan)
        # a repeated point leaves another grid slot empty, which the check below catches
        vals[:, np.searchsorted(xs, table[:, 0]), np.searchsorted(rs, table[:, 1])] = table[:, 2:].T
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid has missing or non-finite points")
        if not (xs[0] - EDGE_TOL <= rect.a and rect.b <= xs[-1] + EDGE_TOL
                and rs[0] - EDGE_TOL <= rect.c and rect.d <= rs[-1] + EDGE_TOL):
            raise ValueError(
                f"rectangle [{rect.a:g}, {rect.b:g}] x [{rect.c:g}, {rect.d:g}] reaches past the tabulated "
                f"[{xs[0]:g}, {xs[-1]:g}] x [{rs[0]:g}, {rs[-1]:g}]"
            )
        wx, wr = _fh_weights(xs, BLEND_DEGREE), _fh_weights(rs, BLEND_DEGREE)

        def interpolate(x0, r):
            # one pair of bases serves both tables; the x0 basis contracts each to rows of r values
            bx = _fh_basis(_snap(np.asarray(x0, dtype=np.float64), xs, "x0"), xs, wx)
            br = _fh_basis(_snap(np.asarray(r, dtype=np.float64), rs, "r"), rs, wr)
            out = [((bx @ v) * br).sum(axis=-1) for v in vals]
            return out if out[0].ndim else [float(o) for o in out]

        return cls(*paired(interpolate), int(meta["m"]), int(meta["k"]), rect, "tabulated-grid", pair=interpolate)

    def __repr__(self) -> str:
        return (
            f"AxialFunction({self.name!r}, m={self.m}, k={self.k}, "
            f"rect={self.rect.as_tuple()})"
        )


@lru_cache(maxsize=LAYOUT_CACHE)
def _radial_rule(c: float, r: float, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first level of the weighted radial integrals on [c, r], c < r: (x, W1, W2), all read-only.

    x holds the 48 nodes integrate lays out on [c, r]: the whole panel's,
    then its left and right halves'.  Row p of the (3, 48) matrices W1 and
    W2 holds, on panel p's nodes, the kernel times the Gauss weight times
    the half-width, with the kernel t (r^2 - t^2)^(N-1) for I1 in W1 and
    (r^2 - t^2)^(N-1) for I2 / r in W2, so W1 @ A(x0, x) and W2 @ B(x0, x)
    are the panel sums (whole, left, right).  This is the one cache of
    first-level nodes: integrate lays out its own on every call.
    """
    half, x = _layout(c, r, PANEL_ORDER)
    kernel = (r * r - x * x) ** (N - 1)
    gauss = np.zeros((3, 3 * PANEL_ORDER))  # row p: weight x half-width on panel p's nodes, exact zeros elsewhere
    gauss.reshape(9, PANEL_ORDER)[::4] = half[:, None] * _rule(PANEL_ORDER)[1]
    W1, W2 = gauss * (x * kernel), gauss * kernel
    # every point on this interval shares them
    x.flags.writeable = W1.flags.writeable = W2.flags.writeable = False
    return x, W1, W2


def _radial(pair: Callable, x0: float, r: float, c: float, N: int, quad: QuadratureConfig) -> tuple[float, float]:
    """(I1, I2) from c to r >= c at x0; Rectangle.require puts every point there.

    The first level is one pair call at the rule's nodes and one .dot (@'s BLAS
    product, without matmul's dispatch) per cached matrix; quadrature accepts
    it or refines on the kernel-times-field integrands, one pair call per level.
    """
    if r == c:
        return 0.0, 0.0
    x, W1, W2 = _radial_rule(c, r, N)
    a, b = pair(x0, x)

    def integrands(t):
        k = (r * r - t * t) ** (N - 1)
        a, b = pair(x0, t)
        return np.array([(t * k) * a, k * b])

    i1, i2 = quadrature(integrands, [W1.dot(a).tolist(), W2.dot(b).tolist()], c, r, quad.abs_tol)
    return i1, r * i2


def radial_integrals(H: AxialFunction, x0: float, r: float, quad: QuadratureConfig = DEFAULT_QUADRATURE) -> tuple:
    """(I1, I2) at a point moved onto H's rectangle by Rectangle.require: eval's pair, bit for bit."""
    x0, r = H.rect.require(float(x0), float(r))
    return _radial(H.pair, x0, r, H.rect.c, H.N, quad)


@lru_cache(maxsize=None)
def _exponents(n: int) -> np.ndarray:
    """The read-only column 0..n-1 of powers in the chain's polynomials."""
    exps = np.arange(n)[:, None]
    exps.flags.writeable = False
    return exps


@lru_cache(maxsize=None)
def _propagator_terms(N: int) -> np.ndarray:
    """M^p / p! for p < 2N, with y = (alpha_0.., beta_0..) and y' = M y + F."""
    n2 = 2 * N
    j = np.arange(N)
    M = np.zeros((n2, n2))
    M[j, N + j] = 2.0 * j + 1.0
    M[N + j[:-1], j[1:]] = -2.0 * (j[:-1] + 1.0)
    terms = np.empty((n2, n2, n2))
    terms[0] = np.eye(n2)
    for p in range(1, n2):
        terms[p] = M @ terms[p - 1] / p
    terms.flags.writeable = False
    return terms


def _propagator(N: int, s: float) -> np.ndarray:
    """E(s) = exp(M s) as a matrix polynomial: one matmul of the powers of s with the terms, shape (2N, 2N)."""
    n2 = 2 * N
    return (s ** _exponents(n2)[:, 0] @ _propagator_terms(N).reshape(n2, n2 * n2)).reshape(n2, n2)


@lru_cache(maxsize=64)
def _forcing_terms(k: int, m: int, c: float) -> np.ndarray:
    """E(s) F per unit trace on the r = c edge, as a polynomial in s: a read-only (2N, 4N) matrix [U V].

    With w_j = (-1)^(N-j) K_N C(N-1, j) c^(2(N-j-1)) for j < N, a unit
    trace of B drives alpha_j with weight -c w_j and a unit trace of A
    drives beta_j with weight w_j.  Column p of U (of V) is M^p / p! times
    the forcing of a unit B (A) trace, so the forcing F of traces A, B
    propagates as E(s) F = sum_p s^p (U[:, p] B + V[:, p] A).
    """
    cfg = FueterConfig(m, k)
    N = cfg.N
    j = np.arange(N)
    w = float(cfg.K_N) * np.array([math.comb(N - 1, i) for i in j])
    w *= (-1.0) ** (N - j) * c ** (2.0 * (N - j - 1))
    unit = np.zeros((2 * N, 2))  # the forcing of a unit B trace, then of a unit A trace
    unit[:N, 0] = -c * w
    unit[N:, 1] = w
    forced = _propagator_terms(N) @ unit  # [p, :, i]: M^p / p! times column i
    terms = np.concatenate([forced[:, :, 0].T, forced[:, :, 1].T], axis=1)
    terms.flags.writeable = False
    return terms


def _edge_traces(H: AxialFunction, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) on the r = c edge at x0 nodes t, from one pair call; a non-finite value raises."""
    c = H.rect.c
    a, b = H.pair(t, np.full_like(t, c))
    finite = np.isfinite(a) & np.isfinite(b)
    if not finite.all():
        raise NumericalError(f"non-finite edge trace at x0={t[~finite][0]:g} (r={c:g})")
    return a, b


class FueterPrimitive:
    """A computed primitive: correction coefficients plus on-demand integrals.

    eval(x0, r) returns (u, v) with u + iv holomorphic in x0 + i r, at one
    point or at arrays of points.  The alpha_j, beta_j at x0 solve the
    chain exactly from init at x0 = a, as E(x0 - a) init plus one adaptive
    forcing integral over [a, x0]; the last COEFF_CACHE distinct x0 are
    remembered.  invert builds it and checks init.
    """

    __slots__ = ("field", "rect", "m", "k", "N", "K_N", "init", "quad", "_coefficients", "_kn")

    def __init__(self, field: AxialFunction, init: np.ndarray, quad: QuadratureConfig):
        self.field = field
        self.rect = field.rect
        self.m = field.m
        self.k = field.k
        self.N = field.N
        self.K_N = FueterConfig(field.m, field.k).K_N
        self._kn = float(self.K_N)
        self.init = np.asarray(init, dtype=np.float64)
        self.quad = quad
        self._coefficients = lru_cache(maxsize=COEFF_CACHE)(self._solve_at)

    def _solve_at(self, x0: float) -> tuple[float, ...]:
        """(alpha_0..alpha_(N-1), beta_0..beta_(N-1)) at x0, as Python floats."""
        a, b, N, H = self.rect.a, self.rect.b, self.N, self.field
        if not a - EDGE_TOL <= x0 <= b + EDGE_TOL:  # alpha and beta pass x0 alone
            raise ValueError(f"x0={x0:g} outside rectangle x0 range [{a:g}, {b:g}]")
        x0, _ = self.rect.require(x0, self.rect.c)
        forcing, exponents = _forcing_terms(H.k, H.m, self.rect.c), _exponents(2 * N)

        def drive(t):
            # E(x0 - t) F(t) = sum_p (x0 - t)^p (U[:, p] B + V[:, p] A), one row per coefficient
            A, B = _edge_traces(H, t)
            powers = (x0 - t) ** exponents
            return forcing @ np.concatenate((powers * B, powers * A))

        forced = integrate(drive, a, x0, self.quad)
        # an overflow here is reported below; the field's own calls, inside integrate, warn as usual
        with np.errstate(over="ignore", invalid="ignore"):
            y = (_propagator(N, x0 - a) @ self.init + forced).tolist()
        if not all(map(math.isfinite, y)):
            raise NumericalError(f"coefficient chain overflowed on [{a:g}, {x0:g}]")
        return tuple(y)

    def _family(self, j: int, x0, offset: int) -> float | np.ndarray:
        if not (isinstance(j, numbers.Integral) and _is_number(j) and 0 <= j < self.N):
            raise ValueError(f"j must be an integer in 0..{self.N - 1}, got {j!r}")
        x = np.asarray(x0, dtype=np.float64)
        vals = [self._coefficients(float(t))[offset + j] for t in x.ravel()]
        return float(vals[0]) if x.ndim == 0 else np.array(vals).reshape(x.shape)

    def alpha(self, j: int, x0) -> float | np.ndarray:
        return self._family(j, x0, 0)

    def beta(self, j: int, x0) -> float | np.ndarray:
        return self._family(j, x0, self.N)

    def eval(self, x0, r) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
        """(u, v) at rectangle points, each moved onto the rectangle by Rectangle.require.

        x0 and r broadcast against each other; scalars give a pair of
        floats, arrays a pair of float64 arrays of the broadcast shape.
        Every point's coefficients are solved before any radial integral
        runs, so a non-finite trace on r = c is reported as such; the
        points then run in order of r, so each distinct r builds its radial
        rule once, and a failing integral is reported at the least such r.
        """
        if type(x0) is not float or type(r) is not float:  # Python floats skip numpy
            x0, r = np.asarray(x0, dtype=np.float64), np.asarray(r, dtype=np.float64)
            if x0.ndim or r.ndim:
                xx, rr = np.broadcast_arrays(x0, r)
                points = [self.rect.require(x, t) for x, t in zip(xx.ravel().tolist(), rr.ravel().tolist())]
                coeffs = [self._coefficients(x) for x, _ in points]
                uv = np.empty((len(points), 2))
                for i in sorted(range(len(points)), key=lambda i: points[i][1]):
                    uv[i] = self._eval_at(*points[i], coeffs[i])
                return uv[:, 0].reshape(xx.shape), uv[:, 1].reshape(xx.shape)
            x0, r = float(x0), float(r)
        x0, r = self.rect.require(x0, r)
        return self._eval_at(x0, r, self._coefficients(x0))

    def _eval_at(self, x0: float, r: float, coeffs: tuple[float, ...]) -> tuple[float, float]:
        N, H = self.N, self.field
        i1, i2 = _radial(H.pair, x0, r, self.rect.c, N, self.quad)
        r2 = r * r
        u, v = coeffs[N - 1], coeffs[-1]
        for j in range(N - 2, -1, -1):  # the correction polynomials, Horner in r^2
            u = u * r2 + coeffs[j]
            v = v * r2 + coeffs[N + j]
        return self._kn * i1 + u, self._kn * i2 + r * v

    def __call__(self, z):
        """u + iv at z = x0 + i r: a complex for a scalar z, a complex128 array otherwise."""
        if not isinstance(z, complex):  # complex scalars skip numpy
            z = np.asarray(z)
        u, v = self.eval(z.real, z.imag)
        return complex(u, v) if np.ndim(u) == 0 else u + 1j * v

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "N": self.N,
            "K_N": f"{self.K_N.numerator}/{self.K_N.denominator}",
            "rect": list(self.rect.as_tuple()),
            "init": self.init.tolist(),
        }

    def __repr__(self) -> str:
        return (
            f"FueterPrimitive(field={self.field.name!r}, N={self.N}, "
            f"rect={self.rect.as_tuple()}, init={self.init.tolist()})"
        )


def invert(
    H: AxialFunction,
    init: Sequence[float] | None = None,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
) -> FueterPrimitive:
    """Construct a holomorphic primitive of the axial field H on its rectangle.

    init lists the 2N values (alpha_0..alpha_(N-1), beta_0..beta_(N-1)) at
    x0 = a; default all zero (any choice differs by a kernel polynomial).
    No field is called until a coefficient or value is asked for.
    """
    n2 = 2 * H.N
    y = np.zeros(n2) if init is None else np.array(init, dtype=np.float64)
    if y.shape != (n2,):
        raise ValueError(f"init must have 2N = {n2} entries, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        i = int(np.argmin(np.isfinite(y)))
        raise ValueError(f"init must be finite, but entry {i} is {y[i]}")
    return FueterPrimitive(H, y, quad)
