"""Finite-difference residual checks and polynomial gauge fitting.

Everything here is second-order central differencing on interior grids:
the grid shrinks its rectangle by one step so no stencil leaves the
domain.  Residual reports carry max and mean; acceptance thresholds read
the max.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .clifford import Multivector, Paravector
from .forward import FueterConfig, fueter_map
from .inverse import Rectangle
from .jets import power
from .polynomials import MonogenicPolynomial, builtin_pk

DEFAULT_REL_STEP = 1e-4


@dataclass(frozen=True)
class GridSpec:
    """Regular evaluation grid on a rectangle, with an FD step.

    fd_step = None resolves to 1e-4 of the larger rectangle side.  Points
    are placed on the rectangle shrunk by one step per side, so central
    stencils stay inside.
    """

    rect: Rectangle
    nx0: int = 10
    nr: int = 10
    fd_step: float | None = None

    def __post_init__(self):
        if self.nx0 < 1 or self.nr < 1:
            raise ValueError(f"grid needs at least 1x1 points, got {self.nx0}x{self.nr}")
        if self.fd_step is not None and not 0 < self.fd_step < np.inf:
            raise ValueError(f"fd_step must be finite and positive, got {self.fd_step}")

    @property
    def step(self) -> float:
        if self.fd_step is not None:
            return float(self.fd_step)
        r = self.rect
        return DEFAULT_REL_STEP * max(r.b - r.a, r.d - r.c)

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        r = self.rect
        h = self.step
        margin = 1.0000001 * h
        if r.a + margin >= r.b - margin or r.c + margin >= r.d - margin:
            raise ValueError("fd_step too large for this rectangle")
        xs = np.linspace(r.a + margin, r.b - margin, self.nx0)
        rs = np.linspace(r.c + margin, r.d - margin, self.nr)
        return xs, rs

    def points(self):
        xs, rs = self.axes()
        for x0 in xs:
            for rr in rs:
                yield float(x0), float(rr)

    def meta(self) -> dict:
        return {"rect": list(self.rect.as_tuple()), "nx0": self.nx0, "nr": self.nr}


@dataclass(frozen=True)
class ResidualReport:
    name: str
    grid: dict
    max: float
    mean: float
    step: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "grid": self.grid,
            "max": self.max,
            "mean": self.mean,
            "step": self.step,
        }


def _report(name: str, grid: GridSpec, values: Sequence[float]) -> ResidualReport:
    arr = np.asarray(values, dtype=np.float64)
    return ResidualReport(name, grid.meta(), float(arr.max()), float(arr.mean()), grid.step)


def vekua_residual(
    A: Callable, B: Callable, k: int, m: int, grid: GridSpec
) -> ResidualReport:
    """Max/mean violation of the axial system

    dA/dx0 - dB/dr = ((2k+m-1)/r) B    and    dB/dx0 + dA/dr = 0,

    the first-order system every axial monogenic profile satisfies.  A and
    B take x0 and r arrays, as AxialFunction fields do.
    """
    gamma = 2 * k + m - 1
    x0, r, ax, ar, bx, br = _gradients(lambda x0, r: (A(x0, r), B(x0, r)), grid)
    vals = np.maximum(np.abs(ax - br - gamma / r * B(x0, r)), np.abs(bx + ar))
    return _report("vekua", grid, vals)


def cr_residual(uv: Callable, grid: GridSpec) -> ResidualReport:
    """Cauchy-Riemann residual of uv, which maps x0 and r arrays to the pair
    (u, v), as FueterPrimitive.eval does."""
    _, _, ux, ur, vx, vr = _gradients(uv, grid)
    return _report("cauchy-riemann", grid, np.maximum(np.abs(ux - vr), np.abs(ur + vx)))


def _gradients(fg: Callable, grid: GridSpec):
    """x0, r of the grid points (x0-major) and the central differences f_x0, f_r, g_x0, g_r there.

    fg maps x0, r arrays to the pair (f, g); one array call per stencil offset.
    """
    h = grid.step
    x0, r = (t.ravel() for t in np.meshgrid(*grid.axes(), indexing="ij"))
    (fe, ge), (fw, gw), (fn, gn), (fs, gs) = (fg(*p) for p in ((x0 + h, r), (x0 - h, r), (x0, r + h), (x0, r - h)))

    def diff(plus, minus):
        return np.broadcast_to((plus - minus) / (2 * h), x0.shape)

    return x0, r, diff(fe, fw), diff(fn, fs), diff(ge, gw), diff(gn, gs)


def monogenicity_residual(
    F: Callable[[np.ndarray], Multivector], m: int, grid: GridSpec
) -> ResidualReport:
    """FD residual of the generalized Cauchy-Riemann operator d/dx0 + sum_j e_j d/dx_j.

    F maps a point of R^(m+1) to a Multivector; grid points (x0, r) embed
    as x0 + r * (1, ..., 1)/sqrt(m), oblique on purpose: an axis-aligned
    direction would zero out some stencil terms.
    """
    h = grid.step
    dirv = np.ones(m) / np.sqrt(m)
    basis = [Multivector.basis_vector(m, j + 1) for j in range(m)]
    vals = []
    for x0, r in grid.points():
        y = np.concatenate(([x0], r * dirv))
        e = np.zeros(m + 1)
        e[0] = h
        acc = (F(y + e) - F(y - e)) / (2 * h)
        for j in range(m):
            e = np.zeros(m + 1)
            e[j + 1] = h
            acc = acc + basis[j] * ((F(y + e) - F(y - e)) / (2 * h))
        vals.append(acc.norm())
    return _report("monogenicity", grid, vals)


def kernel_check(
    n: int, k: int, m: int, grid: GridSpec, P: MonogenicPolynomial | None = None
) -> tuple[float, bool]:
    """Largest |Ft[z^n, P_k]| over the grid points (x0, r), placed at x0 + r e_1,
    and whether zero is expected.

    z^n is annihilated exactly when n <= 2k + m - 2.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    cfg = FueterConfig(m, k)
    if P is None:
        P = builtin_pk(m, k)
    dirv = np.zeros(m)
    dirv[0] = 1.0
    h = power(n)
    worst = 0.0
    for x0, r in grid.points():
        val = fueter_map(h, P, cfg, Paravector(x0, r * dirv))
        worst = max(worst, val.norm())
    return worst, n <= cfg.kernel_degree


def polynomial_fit_residual(
    samples: Sequence[tuple[complex, complex]], degree: int
) -> float:
    """Max deviation of complex samples from their best real-coefficient polynomial.

    samples are (z, value) pairs; the fit minimizes the stacked real/imag
    least squares over real c_0..c_degree.  Raises on a rank-deficient
    design (too few or degenerate sample points).
    """
    degree = int(degree)
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    if len(samples) < degree + 1:
        raise ValueError(f"need at least {degree + 1} samples for degree {degree}")
    zs = np.array([complex(z) for z, _ in samples])
    ys = np.array([complex(w) for _, w in samples])
    design = np.stack([zs**j for j in range(degree + 1)], axis=1)
    mat = np.vstack([design.real, design.imag])
    rhs = np.concatenate([ys.real, ys.imag])
    coeffs, _, rank, _ = np.linalg.lstsq(mat, rhs, rcond=None)
    if rank < degree + 1:
        raise ValueError(f"rank-deficient fit: rank {rank} < {degree + 1}")
    fitted = design @ coeffs
    return float(np.max(np.abs(ys - fitted)))
