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

The radial integrals are adaptive Gauss-Legendre with a kernel-weighted
first level: for a fixed r the kernel (r^2 - t^2)^(N-1), the nodes and the
panel half-widths are constants, so a cached rule holds them, and a
point's first level is one A and one B call, one product with the kernels
and one batched Gauss product, with integrate's arithmetic and bits.
An interval that fails the acceptance refines on the kernel-times-field
integrands through quadrature's shared engine.

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
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError
from .forward import FueterConfig
from .quadrature import (
    DEFAULT_QUADRATURE, LAYOUT_CACHE, PANEL_ORDER, QuadratureConfig, _layout, _weigh, integrate, quadrature,
)

# Points this close outside a rectangle (or a tabulated grid) count as on
# its edge: upstream arithmetic lands an ulp or two past it.
EDGE_TOL = 1e-12
# Blending degree of the Floater-Hormann interpolant of tabulated fields:
# on 40 equispaced nodes its 1-D Lebesgue constant is 24.9 (5.5 at d = 3,
# 138 at d = 9), and a 40 x 40 arctan grid inverts to about 1e-9.
BLEND_DEGREE = 6
# Distinct x0 whose coefficient vector one primitive remembers.
COEFF_CACHE = 1024


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

    def contains(self, x0: float, r: float, tol: float = EDGE_TOL) -> bool:
        return (
            self.a - tol <= x0 <= self.b + tol and self.c - tol <= r <= self.d + tol
        )

    def require(self, x0: float, r: float) -> None:
        if not self.contains(x0, r):
            raise ValueError(
                f"point (x0={x0:g}, r={r:g}) outside rectangle "
                f"[{self.a:g}, {self.b:g}] x [{self.c:g}, {self.d:g}]"
            )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


def _fh_weights(grid: np.ndarray, d: int) -> np.ndarray:
    """Floater-Hormann barycentric weights of blending degree d on increasing nodes.

    w_k = sum_{i in J_k} (-1)^i prod_{j=i..i+d, j != k} 1 / (x_k - x_j),
    J_k = {i : 0 <= i <= n - d, k - d <= i <= k}, with d clipped to the
    n = grid.size - 1 intervals; computed on the nodes mapped to [0, 1],
    which scales every weight alike.
    """
    x = (grid - grid[0]) / (grid[-1] - grid[0])
    d = min(d, x.size - 1)
    w = np.zeros(x.size)
    for i in range(x.size - d):
        diff = x[i:i + d + 1, None] - x[i:i + d + 1]
        np.fill_diagonal(diff, 1.0)
        w[i:i + d + 1] += (-1.0) ** i / diff.prod(axis=1)
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
    """t with what Rectangle.contains lets past the grid's ends snapped onto them; exterior points raise."""
    t = np.where(np.abs(t - grid[0]) <= EDGE_TOL, grid[0], t)
    t = np.where(np.abs(t - grid[-1]) <= EDGE_TOL, grid[-1], t)
    if not np.all((grid[0] <= t) & (t <= grid[-1])):
        raise ValueError(f"{axis} outside the tabulated [{grid[0]:g}, {grid[-1]:g}]")
    return t


class AxialFunction:
    """An axial field on a rectangle: scalar profiles (A, B) plus (m, k).

    A and B must accept (x0, r) as two scalars, as a scalar x0 with an
    ndarray r (the radial quadrature feeds r nodes at fixed x0), or as two
    ndarrays of equal shape (the coefficient chain feeds x0 nodes along
    r = c), and return float values of r's shape.  The integrals assume A
    and B smooth on the rectangle.  Nothing here checks that (A, B) solves
    the Vekua system; verify.vekua_residual measures that on a sample grid.
    """

    __slots__ = ("A", "B", "m", "k", "N", "rect", "name")

    def __init__(
        self,
        A: Callable,
        B: Callable,
        m: int,
        k: int,
        rect: Rectangle,
        name: str = "axial-field",
    ):
        if not isinstance(rect, Rectangle):
            raise TypeError("rect must be a Rectangle")
        self.A = A
        self.B = B
        cfg = FueterConfig(m, k)
        self.m, self.k, self.N = cfg.m, cfg.k, cfg.N
        self.rect = rect
        self.name = str(name)

    @classmethod
    def from_grid(cls, data: dict | str) -> "AxialFunction":
        """Tabulated field from grid JSON (Floater-Hormann interpolation).

        Expects the grid schema {"meta": {m, k, rect, nx0, nr},
        "points": [{x0, r, value: [A, B]}, ...]} of finite values on a full
        grid, at least 2 x 2, of any spacing.  A and B are tensor products
        of Floater-Hormann barycentric rational interpolants of blending
        degree BLEND_DEGREE (clipped to the grid size) in x0 and in r: smooth,
        free of real poles, exact for polynomials of that degree in each
        variable, and equal to the tabulated values at the grid's nodes.
        """
        if isinstance(data, str):
            data = json.loads(data)
        meta = data["meta"]
        rect = Rectangle(*[float(t) for t in meta["rect"]])
        nx0, nr = int(meta["nx0"]), int(meta["nr"])
        if nx0 < 2 or nr < 2:
            raise ValueError(f"need at least a 2 x 2 grid, got {nx0} x {nr}")
        pts = data["points"]
        if len(pts) != nx0 * nr:
            raise ValueError(f"expected {nx0 * nr} grid points, got {len(pts)}")
        table = np.fromiter(
            (v for p in pts for v in (p["x0"], p["r"], p["value"][0], p["value"][1])),
            np.float64, count=4 * len(pts),
        ).reshape(-1, 4)
        xs = np.array(sorted({float(p["x0"]) for p in pts}))
        rs = np.array(sorted({float(p["r"]) for p in pts}))
        if xs.size != nx0 or rs.size != nr or not np.all(np.isfinite(table[:, :2])):
            raise ValueError("points do not form a full nx0 x nr grid")
        vals = np.full((2, nx0, nr), np.nan)
        # a repeated point leaves another grid slot empty, which the check below catches
        vals[:, np.searchsorted(xs, table[:, 0]), np.searchsorted(rs, table[:, 1])] = table[:, 2:].T
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid has missing or non-finite points")
        wx, wr = _fh_weights(xs, BLEND_DEGREE), _fh_weights(rs, BLEND_DEGREE)

        def component(v: np.ndarray):
            def eval_field(x0, r):
                # the x0 basis contracts the table to one row of r values per x0
                rows = _fh_basis(_snap(np.asarray(x0, dtype=np.float64), xs, "x0"), xs, wx) @ v
                out = (rows * _fh_basis(_snap(np.asarray(r, dtype=np.float64), rs, "r"), rs, wr)).sum(axis=-1)
                return out if out.ndim else float(out)

            return eval_field

        return cls(component(vals[0]), component(vals[1]), int(meta["m"]), int(meta["k"]), rect, name="tabulated-grid")

    def __repr__(self) -> str:
        return (
            f"AxialFunction({self.name!r}, m={self.m}, k={self.k}, "
            f"rect={self.rect.as_tuple()})"
        )


@lru_cache(maxsize=LAYOUT_CACHE)
def _radial_rule(lo: float, hi: float, sign: float, N: int, order: int) -> tuple:
    """The first level of the weighted radial integrals on [lo, hi]: (x, blocks).

    x holds integrate's cached, read-only nodes; r is the integral's upper
    end, lo when sign is -1.0.  blocks[variants] holds, for the integrals
    named by variants ((1,), (2,) or (1, 2)), one row per integral of the
    kernel at x, t (r^2 - t^2)^(N-1) for I1 and (r^2 - t^2)^(N-1) for
    I2 / r, and one row per integral of the panel half-widths; all are
    read-only.  Field values times the kernel rows are the integrand values
    integrate would see, bit for bit.
    """
    half, x = _layout(lo, hi, order)
    r = hi if sign > 0 else lo
    kernel = (r * r - x * x) ** (N - 1)
    kernels, halves = np.stack([x * kernel, kernel]), np.stack([half, half])
    kernels.flags.writeable = halves.flags.writeable = False  # every point on this interval shares them
    return x, {
        (1,): (kernels[:1], halves[:1]),
        (2,): (kernels[1:], halves[1:]),
        (1, 2): (kernels, halves),
    }


def _radial(fields: dict, x0: float, r: float, c: float, N: int, quad: QuadratureConfig) -> list[float]:
    """The weighted radial integrals from c to r at x0, one per {variant: field} entry of fields, in order.

    Variant 1 gives I1 and variant 2 gives I2 / r.  The first level takes
    one call per field at the rule's nodes, one product with the cached
    kernels and one batched Gauss product; quadrature accepts it or
    refines on the kernel-times-field integrands.
    """
    variants = tuple(fields)
    if r == c:
        return [0.0] * len(variants)
    lo, hi, sign = (c, r, 1.0) if c < r else (r, c, -1.0)
    x, blocks = _radial_rule(lo, hi, sign, N, PANEL_ORDER)
    kernels, halves = blocks[variants]
    values = np.empty((len(variants), x.size))
    for row, f in enumerate(fields.values()):
        values[row] = f(x0, x)
    values *= kernels
    table = _weigh(values, halves, PANEL_ORDER)

    def integrands(t):
        # the integrals share their nodes and kernel: one call per field
        k = (r * r - t * t) ** (N - 1)
        return np.array([(t * k if v == 1 else k) * f(x0, t) for v, f in fields.items()])

    return quadrature(integrands, table, lo, hi, quad.abs_tol, sign)


def integral_I(
    variant: int,
    f: Callable,
    x0: float,
    r: float,
    rect: Rectangle,
    N: int,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float:
    """The weighted radial integral from the rectangle's lower edge.

    variant 1: integral_c^r t (r^2-t^2)^(N-1) f(x0, t) dt   (pairs with A)
    variant 2: r integral_c^r (r^2-t^2)^(N-1) f(x0, t) dt   (pairs with B)

    FueterPrimitive.eval uses the same radial rule, so the two agree bit
    for bit.
    """
    if variant not in (1, 2):
        raise ValueError(f"variant must be 1 or 2, got {variant}")
    N = int(N)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    rect.require(x0, r)
    x0, r = float(x0), float(r)
    value = _radial({variant: f}, x0, r, rect.c, N, quad)[0]
    return value if variant == 1 else r * value


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


def _propagator(N: int, s) -> np.ndarray:
    """E(s) = exp(M s) as a matrix polynomial; shape s.shape + (2N, 2N)."""
    s = np.asarray(s, dtype=np.float64)
    powers = s[..., None] ** np.arange(2 * N)
    return np.tensordot(powers, _propagator_terms(N), axes=1)


@lru_cache(maxsize=64)
def _forcing_weights(k: int, m: int, c: float) -> np.ndarray:
    """The forcing of the r = c edge per unit (B, A) trace: a read-only (2, 2N) matrix.

    With w_j = (-1)^(N-j) K_N C(N-1, j) c^(2(N-j-1)) for j < N, the trace of
    B drives alpha_j with weight -c w_j (row 0) and the trace of A drives
    beta_j with weight w_j (row 1).
    """
    cfg = FueterConfig(m, k)
    N = cfg.N
    j = np.arange(N)
    w = float(cfg.K_N) * np.array([math.comb(N - 1, i) for i in j])
    w *= (-1.0) ** (N - j) * c ** (2.0 * (N - j - 1))
    weights = np.zeros((2, 2 * N))
    weights[0, :N] = -c * w
    weights[1, N:] = w
    weights.flags.writeable = False
    return weights


def _edge_forcing(H: AxialFunction, t: np.ndarray) -> np.ndarray:
    """The forcing F at x0 nodes t (one A and one B call on r = c), shape (len(t), 2N)."""
    c = H.rect.c
    r = np.full_like(t, c)
    traces = np.empty((2, t.size))
    traces[1] = H.A(t, r)
    traces[0] = H.B(t, r)
    finite = np.isfinite(traces)
    if not finite.all():
        raise NumericalError(f"non-finite edge trace at x0={t[~finite.all(axis=0)][0]:g} (r={c:g})")
    return traces.T @ _forcing_weights(H.k, H.m, c)


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
        self.rect.require(x0, self.rect.c)
        a, N, H = self.rect.a, self.N, self.field

        def drive(t):
            # E(x0 - t) F(t), one row per coefficient
            return np.einsum("qrc,qc->rq", _propagator(N, x0 - t), _edge_forcing(H, t))

        y = _propagator(N, x0 - a) @ self.init + integrate(drive, a, x0, self.quad)
        if not np.all(np.isfinite(y)):
            raise NumericalError(f"coefficient chain overflowed on [{a:g}, {x0:g}]")
        return tuple(y.tolist())

    def _family(self, index: int, x0) -> float | np.ndarray:
        x = np.asarray(x0, dtype=np.float64)
        vals = [self._coefficients(float(t))[index] for t in x.ravel()]
        return float(vals[0]) if x.ndim == 0 else np.array(vals).reshape(x.shape)

    def alpha(self, j: int, x0) -> float | np.ndarray:
        return self._family(range(self.N)[j], x0)

    def beta(self, j: int, x0) -> float | np.ndarray:
        return self._family(self.N + range(self.N)[j], x0)

    def eval(self, x0, r) -> tuple[float, float] | tuple[np.ndarray, np.ndarray]:
        """(u, v) at rectangle points.

        x0 and r broadcast against each other; scalars give a pair of
        floats, arrays a pair of float64 arrays of the broadcast shape.
        Every point's coefficients are solved before any radial integral
        runs, so a non-finite trace on r = c is reported as such.
        """
        if not (isinstance(x0, float) and isinstance(r, float)):  # floats skip numpy
            x0, r = np.asarray(x0, dtype=np.float64), np.asarray(r, dtype=np.float64)
            if x0.ndim or r.ndim:
                xx, rr = np.broadcast_arrays(x0, r)
                points = list(zip(xx.ravel().tolist(), rr.ravel().tolist()))
                for x, t in points:
                    self.rect.require(x, t)
                coeffs = [self._coefficients(x) for x, _ in points]
                uv = np.array([self._eval_at(x, t, c) for (x, t), c in zip(points, coeffs)]).reshape(-1, 2)
                return uv[:, 0].reshape(xx.shape), uv[:, 1].reshape(xx.shape)
        x0, r = float(x0), float(r)
        self.rect.require(x0, r)
        return self._eval_at(x0, r, self._coefficients(x0))

    def _eval_at(self, x0: float, r: float, coeffs: tuple[float, ...]) -> tuple[float, float]:
        N, H = self.N, self.field
        i1, i2 = _radial({1: H.A, 2: H.B}, x0, r, self.rect.c, N, self.quad)
        r2 = r * r
        u, v = coeffs[N - 1], coeffs[-1]
        for j in range(N - 2, -1, -1):  # the correction polynomials, Horner in r^2
            u = u * r2 + coeffs[j]
            v = v * r2 + coeffs[N + j]
        return self._kn * i1 + u, self._kn * (r * i2) + r * v

    def __call__(self, z: complex) -> complex:
        """u + iv at z = x0 + i r."""
        u, v = self.eval(z.real, z.imag)
        return complex(u, v)

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
