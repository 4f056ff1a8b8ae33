"""Checks of computed results: the Cauchy-Riemann residual, the kernel scan and
polynomial gauge fitting.

The Cauchy-Riemann residual reads the Fourier coefficients of circle samples
(jets.circle_coefficients), the one FFT from which the roundtrip also reads
the jets of its field residual; nothing here differentiates numerically.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .forward import FueterConfig, _check_pair, axial_image, e1_point, fueter_profile
from .inverse import Rectangle
from .jets import _checked_radius, power
from .polynomials import MonogenicPolynomial, builtin_pk


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
    n: int, k: int, m: int, rect: Rectangle, nx0: int, nr: int, P: MonogenicPolynomial | None = None
) -> tuple[float, bool]:
    """Largest |Ft[z^n, P_k]| over the points x0 + r e_1 of rect.grid(nx0, nr), and whether
    zero is expected.

    One fueter_profile call serves the whole grid; each image equals fueter_map's at its
    point bit for bit.  z^n is annihilated exactly when n <= 2k + m - 2.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    cfg = FueterConfig(m, k)
    if P is None:
        P = builtin_pk(m, k)
    _check_pair(P, cfg)
    xs, rs = rect.grid(nx0, nr)
    a_all, b_all = fueter_profile(power(n), cfg, xs, rs)
    norms = [axial_image(P, e1_point(m, x0, r), a, b).norm()
             for x0, r, a, b in zip(xs.tolist(), rs.tolist(), a_all.tolist(), b_all.tolist())]
    return float(np.max(norms)), n <= cfg.kernel_degree


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
