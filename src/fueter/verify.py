"""Checks of computed results: the Cauchy-Riemann residual, the kernel scan and
polynomial gauge fitting.

The Cauchy-Riemann residual reads the Fourier coefficients of circle samples
(jets.circle_coefficients), the one FFT from which the roundtrip also reads
the jets of its field residual; nothing here differentiates numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clifford import Paravector
from .forward import FueterConfig, fueter_map
from .inverse import Rectangle
from .jets import _checked_radius, power
from .polynomials import MonogenicPolynomial, builtin_pk


@dataclass(frozen=True)
class GridSpec:
    """Regular grid of points (x0, r) on a rectangle: the kernel scan's grid.

    The points sit inset from each side by 1.0000001e-4 of the longer side;
    the kernel scan's outputs depend on that placement bit for bit.
    """

    rect: Rectangle
    nx0: int = 10
    nr: int = 10

    def __post_init__(self):
        if self.nx0 < 1 or self.nr < 1:
            raise ValueError(f"grid needs at least 1x1 points, got {self.nx0}x{self.nr}")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        r = self.rect
        inset = 1.0000001 * (1e-4 * max(r.b - r.a, r.d - r.c))
        if r.a + inset >= r.b - inset or r.c + inset >= r.d - inset:
            raise ValueError("rectangle too thin for the grid's inset")
        xs = np.linspace(r.a + inset, r.b - inset, self.nx0)
        rs = np.linspace(r.c + inset, r.d - inset, self.nr)
        return xs, rs

    def points(self):
        xs, rs = self.axes()
        for x0 in xs:
            for rr in rs:
                yield float(x0), float(rr)


def cr_residual(coeffs: np.ndarray, radius: float) -> float:
    """Largest departure from the Cauchy-Riemann equations of a function f over the discs of
    the given radius whose circle samples have the Fourier coefficients coeffs =
    jets.circle_coefficients(f, z, radius), one row per disc.

    Per disc this is 2 |c_-1| / radius, with c_-1 the coefficient of e^(-it) on the circle.  By
    Green's theorem c_-1 = radius * (disc mean of df/dz-bar), so the value is
    |disc mean of (u_x0 - v_r) + i (u_r + v_x0)|, exact up to the trapezoidal rule's aliasing
    of c_(CIRCLE_POINTS - 1).  It is zero for f holomorphic on the closed disc.  Only slot -1
    is read: slot -n also holds c_(CIRCLE_POINTS - n) of f's own Taylor series, which grows
    with n and would swamp a small departure.
    """
    return float(2 * np.max(np.abs(coeffs[:, -1])) / _checked_radius(radius))


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
