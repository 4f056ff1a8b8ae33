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
Pieces that fail the acceptance refine on the kernel-times-field
integrands through quadrature's shared engine.

The chain y' = M y + F is nilpotent (M^(2N) = 0), so y(x0) =
E(x0 - x_i) y(x_i) + integral_{x_i}^{x0} E(x0 - t) F(t) dt holds exactly
with the matrix polynomial E(s) = sum_{p<2N} M^p s^p / p!; the forcing
integral is Gauss-Legendre on fixed panels.  Different initial constants
change h only by a real polynomial of degree <= 2k+m-2 = 2N-1.
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
    DEFAULT_QUADRATURE, LAYOUT_CACHE, QuadratureConfig, _interval, _layout, _rule, _weigh, quadrature,
)

# Points this close outside a rectangle (or a tabulated grid) count as on
# its edge: upstream arithmetic lands an ulp or two past it.
EDGE_TOL = 1e-12
# The composite Gauss-Legendre rule of the coefficient chain's forcing.
CHAIN_PANELS = 256
CHAIN_ORDER = 8
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


class AxialFunction:
    """An axial field on a rectangle: scalar profiles (A, B) plus (m, k).

    A and B must accept (x0, r) as two scalars, as a scalar x0 with an
    ndarray r (the radial quadrature feeds r nodes at fixed x0), or as two
    ndarrays of equal shape (the coefficient chain feeds x0 nodes along
    r = c), and return float values of r's shape.  The radial integrals
    split at ``r_knots``, r values where A and B may lose smoothness.
    Nothing here checks that (A, B) solves the Vekua system;
    verify.vekua_residual measures that on a sample grid.
    """

    __slots__ = ("A", "B", "m", "k", "N", "rect", "name", "r_knots")

    def __init__(
        self,
        A: Callable,
        B: Callable,
        m: int,
        k: int,
        rect: Rectangle,
        name: str = "axial-field",
        r_knots: Sequence[float] = (),
    ):
        if not isinstance(rect, Rectangle):
            raise TypeError("rect must be a Rectangle")
        self.A = A
        self.B = B
        cfg = FueterConfig(m, k)
        self.m, self.k, self.N = cfg.m, cfg.k, cfg.N
        self.rect = rect
        self.name = str(name)
        self.r_knots = tuple(float(t) for t in r_knots)

    @classmethod
    def from_grid(cls, data: dict | str) -> "AxialFunction":
        """Tabulated field from grid JSON (bilinear interpolation).

        Expects the grid schema {"meta": {m, k, rect, nx0, nr},
        "points": [{x0, r, value: [A, B]}, ...]} of finite values on a full
        regular grid, at least 2 x 2.  Bilinear interpolation is less accurate
        than a closed form; its kinks, the grid's r lines, are the r_knots at
        which the radial quadrature splits, leaving a polynomial per cell.
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
        vals = np.full((nx0, nr, 2), np.nan)
        # a repeated point leaves another grid slot empty, which the check below catches
        vals[np.searchsorted(xs, table[:, 0]), np.searchsorted(rs, table[:, 1])] = table[:, 2:]
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid has missing or non-finite points")

        def cell(t, grid, axis):
            # what Rectangle.contains lets past the grid edge snaps back onto
            # it; genuinely exterior points raise
            t = np.where(np.abs(t - grid[0]) <= EDGE_TOL, grid[0], t)
            t = np.where(np.abs(t - grid[-1]) <= EDGE_TOL, grid[-1], t)
            if not np.all((grid[0] <= t) & (t <= grid[-1])):
                raise ValueError(f"{axis} outside the tabulated [{grid[0]:g}, {grid[-1]:g}]")
            i = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, grid.size - 2)
            return i, (t - grid[i]) / (grid[i + 1] - grid[i])

        def component(which: int):
            v = vals[..., which]

            def eval_field(x0, r):
                xx, rr = np.broadcast_arrays(
                    np.asarray(x0, dtype=np.float64), np.asarray(r, dtype=np.float64)
                )
                i, s = cell(xx, xs, "x0")
                j, t = cell(rr, rs, "r")
                lo = (1.0 - t) * v[i, j] + t * v[i, j + 1]  # along r at x0 line i, then i + 1
                hi = (1.0 - t) * v[i + 1, j] + t * v[i + 1, j + 1]
                out = (1.0 - s) * lo + s * hi
                return out if rr.ndim else float(out)

            return eval_field

        return cls(
            component(0), component(1), int(meta["m"]), int(meta["k"]), rect,
            name="tabulated-grid", r_knots=rs[1:-1],
        )

    def __repr__(self) -> str:
        return (
            f"AxialFunction({self.name!r}, m={self.m}, k={self.k}, "
            f"rect={self.rect.as_tuple()})"
        )


@lru_cache(maxsize=LAYOUT_CACHE)
def _radial_rule(edges: tuple[float, ...], sign: float, N: int, abs_tol: float, order: int) -> tuple:
    """The first level of the weighted radial integrals on the pieces between edges: (tols, x, blocks).

    tols and the read-only nodes x are integrate's cached layout; r is the
    integral's upper end, edges[0] when sign is -1.0.  blocks[variants]
    holds, for the integrals named by variants ((1,), (2,) or (1, 2)), one
    row per integral of the kernel at x, t (r^2 - t^2)^(N-1) for I1 and
    (r^2 - t^2)^(N-1) for I2 / r, and one row per integral of the panel
    half-widths; all are read-only.  Field values times the kernel rows
    are the integrand values integrate would see, bit for bit.
    """
    tols, half, x = _layout(edges, abs_tol, order)
    r = edges[-1] if sign > 0 else edges[0]
    kernel = (r * r - x * x) ** (N - 1)
    kernels, halves = np.stack([x * kernel, kernel]), np.stack([half, half])
    kernels.flags.writeable = halves.flags.writeable = False  # every point on these edges shares them
    return tols, x, {
        (1,): (kernels[:1], halves[:1]),
        (2,): (kernels[1:], halves[1:]),
        (1, 2): (kernels, halves),
    }


def _radial(fields: dict, x0: float, r: float, c: float, N: int, quad: QuadratureConfig, breaks) -> list[float]:
    """The weighted radial integrals from c to r at x0, one per {variant: field} entry of fields, in order.

    Variant 1 gives I1 and variant 2 gives I2 / r.  The first level takes
    one call per field at the rule's nodes, one product with the cached
    kernels and one batched Gauss product; quadrature accepts it and
    refines the failing pieces on the kernel-times-field integrands.
    """
    variants = tuple(fields)
    if r == c:
        return [0.0] * len(variants)
    edges, sign = _interval(c, r, breaks)
    order = quad.panel_order
    tols, x, blocks = _radial_rule(edges, sign, N, quad.abs_tol, order)
    kernels, halves = blocks[variants]
    values = np.empty((len(variants), x.size))
    for row, f in enumerate(fields.values()):
        values[row] = f(x0, x)
    values *= kernels
    table = _weigh(values, halves, order).reshape(len(variants), 3, -1)

    def integrands(t):
        # the integrals share their nodes and kernel: one call per field
        k = (r * r - t * t) ** (N - 1)
        return np.array([(t * k if v == 1 else k) * f(x0, t) for v, f in fields.items()])

    return quadrature(integrands, table, edges, tols, quad, sign)


def integral_I(
    variant: int,
    f: Callable,
    x0: float,
    r: float,
    rect: Rectangle,
    N: int,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
    breaks: Sequence[float] = (),
) -> float:
    """The weighted radial integral from the rectangle's lower edge.

    variant 1: integral_c^r t (r^2-t^2)^(N-1) f(x0, t) dt   (pairs with A)
    variant 2: r integral_c^r (r^2-t^2)^(N-1) f(x0, t) dt   (pairs with B)

    The quadrature splits at breaks, r values where f may lose smoothness.
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
    value = _radial({variant: f}, x0, r, rect.c, N, quad, breaks)[0]
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


def solve_alpha_beta(
    H: AxialFunction, init: Sequence[float] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the coefficient chain exactly at the CHAIN_PANELS + 1 panel edges of [a, b].

    Returns (xs, alphas, betas), each family of shape (N, len(xs)).  init
    lists the 2N values (alpha_0..alpha_(N-1), beta_0..beta_(N-1)) at
    x0 = a; default all zero (any choice differs by a kernel polynomial).
    """
    N = H.N
    rect = H.rect
    if init is None:
        y = np.zeros(2 * N)
    else:
        y = np.asarray(init, dtype=np.float64).copy()
        if y.shape != (2 * N,):
            raise ValueError(f"init must have 2N = {2 * N} entries, got shape {y.shape}")
        if not np.all(np.isfinite(y)):
            i = int(np.argmin(np.isfinite(y)))
            raise ValueError(f"init must be finite, but entry {i} is {y[i]}")

    xs = np.linspace(rect.a, rect.b, CHAIN_PANELS + 1)
    h = (rect.b - rect.a) / CHAIN_PANELS
    nodes, weights = _rule(CHAIN_ORDER)
    offsets = 0.5 * h * (nodes + 1.0)  # node positions within a panel
    forcing = _edge_forcing(H, (xs[:-1, None] + offsets).ravel())
    # every panel has the same width, so E(x_(i+1) - t) at the q-th node is
    # one matrix per q, shared by all panels
    kernel = (0.5 * h) * weights[:, None, None] * _propagator(N, h - offsets)
    drive = np.einsum("qrc,iqc->ir", kernel, forcing.reshape(CHAIN_PANELS, CHAIN_ORDER, 2 * N))
    step = _propagator(N, h)
    out = np.empty((CHAIN_PANELS + 1, 2 * N))
    out[0] = y
    for i in range(CHAIN_PANELS):
        y = step @ y + drive[i]
        out[i + 1] = y
    if not np.all(np.isfinite(out)):
        raise NumericalError(f"coefficient chain overflowed on [{rect.a:g}, {rect.b:g}]")
    return xs, out[:, :N].T.copy(), out[:, N:].T.copy()


class FueterPrimitive:
    """A computed primitive: correction coefficients plus on-demand integrals.

    eval(x0, r) returns (u, v) with u + iv holomorphic in x0 + i r, at one
    point or at arrays of points.  The alpha_j, beta_j are stored at the
    chain's panel edges; between edges they solve the chain exactly across
    one partial panel, remembered for the last COEFF_CACHE distinct x0.
    """

    __slots__ = (
        "field", "rect", "m", "k", "N", "K_N", "init", "quad",
        "xs", "alphas", "betas", "_edges", "_coefficients", "_kn",
    )

    def __init__(
        self,
        field: AxialFunction,
        init: np.ndarray,
        quad: QuadratureConfig,
        xs: np.ndarray,
        alphas: np.ndarray,
        betas: np.ndarray,
    ):
        self.field = field
        self.rect = field.rect
        self.m = field.m
        self.k = field.k
        self.N = field.N
        self.K_N = FueterConfig(field.m, field.k).K_N
        self._kn = float(self.K_N)
        if alphas.shape != (self.N, len(xs)) or betas.shape != alphas.shape:
            raise ValueError(f"trajectories need shape (N, len(xs)) = {(self.N, len(xs))}")
        self.init = np.asarray(init, dtype=np.float64)
        self.quad = quad
        self.xs = xs
        self.alphas = alphas
        self.betas = betas
        self._edges = np.concatenate([alphas, betas]).T  # (len(xs), 2N)
        self._coefficients = lru_cache(maxsize=COEFF_CACHE)(self._solve_at)

    def _solve_at(self, x0: float) -> tuple[float, ...]:
        """(alpha_0..alpha_(N-1), beta_0..beta_(N-1)) at x0, as Python floats."""
        self.rect.require(x0, self.rect.c)
        i = int(np.clip(np.searchsorted(self.xs, x0, side="right") - 1, 0, len(self.xs) - 1))
        lo = float(self.xs[i])
        if x0 == lo:
            return tuple(self._edges[i].tolist())
        # one Gauss-Legendre panel on [lo, x0] for the forcing integral; E at
        # x0 minus its nodes and, last, E(x0 - lo) in one propagator call
        nodes, weights = _rule(CHAIN_ORDER)
        half = 0.5 * (x0 - lo)
        t = lo + half * np.append(nodes + 1.0, 0.0)
        kernel = _propagator(self.N, x0 - t)
        drive = half * np.einsum("q,qrc,qc->r", weights, kernel[:-1], _edge_forcing(self.field, t[:-1]))
        return tuple((kernel[-1] @ self._edges[i] + drive).tolist())

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
        """
        if not (isinstance(x0, float) and isinstance(r, float)):  # floats skip numpy
            x0, r = np.asarray(x0, dtype=np.float64), np.asarray(r, dtype=np.float64)
            if x0.ndim or r.ndim:
                xx, rr = np.broadcast_arrays(x0, r)
                uv = np.array([self._eval_at(float(x), float(t)) for x, t in zip(xx.flat, rr.flat)])
                uv = uv.reshape(-1, 2)
                return uv[:, 0].reshape(xx.shape), uv[:, 1].reshape(xx.shape)
        return self._eval_at(float(x0), float(r))

    def _eval_at(self, x0: float, r: float) -> tuple[float, float]:
        self.rect.require(x0, r)
        N, H = self.N, self.field
        i1, i2 = _radial({1: H.A, 2: H.B}, x0, r, self.rect.c, N, self.quad, H.r_knots)
        coeffs = self._coefficients(x0)
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
            "x0": self.xs.tolist(),
            "alpha": self.alphas.tolist(),
            "beta": self.betas.tolist(),
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
    """Construct a holomorphic primitive of the axial field H on its rectangle."""
    xs, alphas, betas = solve_alpha_beta(H, init)
    y0 = np.zeros(2 * H.N) if init is None else np.asarray(init, dtype=np.float64)
    return FueterPrimitive(H, y0, quad, xs, alphas, betas)
