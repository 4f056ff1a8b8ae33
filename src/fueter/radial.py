"""Radial calculus: iterated x^(-1)d/dx operators and their exact coefficients.

Two first-order operators drive everything here, in two interleavings:

    minus:  (x^-1 d/dx)^n g  =  sum_{j=1..n} (-1)^(n+j) a_{j,n} x^(j-2n) g^(j)(x)
    plus:   (d/dx x^-1)^n g  =  sum_{j=0..n} (-1)^(n+j) a_{j+1,n+1} x^(j-2n) g^(j)(x)

with the exact integer coefficients

    a_{j,n} = (2n-j-1)! / (2^(n-j) (n-j)! (j-1)!),   1 <= j <= n,

the coefficient rows of the Bessel polynomials.  Inverting either operator
one level costs one weighted integral (the two-variable kernel collapses a
nested n-fold integral to a single one):

    phi_n(x) = (2n-2)!!^-1 integral_a^x t (x^2-t^2)^(n-1) f(t) dt
    psi_n(x) = x (2n-2)!!^-1 integral_a^x (x^2-t^2)^(n-1) f(t) dt

and (x^-1 d/dx)^n phi_n = f, (d/dx x^-1)^n psi_n = f, with phi_n, psi_n the
particular solutions vanishing (to order n) at x = a.  These are the
pair (I1, I2) of inverse.radial_integrals divided by (2n-2)!!, with
A = B = f, N = n and the rectangle's c as a.  The recursion
phi_n = integral_a^x t phi_(n-1) dt, psi_n = x integral_a^x psi_(n-1) dt
is kept here as an independent brute-force oracle for tests.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

VARIANTS = ("minus", "plus")


def double_factorial(n: int) -> int:
    """n!! with the empty-product conventions 0!! = (-1)!! = 1."""
    n = int(n)
    if n < -1:
        raise ValueError(f"double factorial needs n >= -1, got {n}")
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@lru_cache(maxsize=None)
def _coeff(j: int, n: int) -> int:
    num = math.factorial(2 * n - j - 1)
    den = (1 << (n - j)) * math.factorial(n - j) * math.factorial(j - 1)
    q, rem = divmod(num, den)
    if rem:  # cannot happen for valid (j, n); guards the formula itself
        raise ArithmeticError(f"coefficient a_({j},{n}) is not an integer")
    return q


def coeff_a(j: int, n: int) -> int:
    """Exact integer a_{j,n}; requires 1 <= j <= n."""
    j, n = int(j), int(n)
    if not 1 <= j <= n:
        raise ValueError(f"coeff_a needs 1 <= j <= n, got j={j}, n={n}")
    return _coeff(j, n)


def coeff_row(n: int) -> tuple[int, ...]:
    """(a_{1,n}, ..., a_{n,n})."""
    return tuple(coeff_a(j, n) for j in range(1, int(n) + 1))


@lru_cache(maxsize=None)
def _op_terms(n: int, variant: str) -> tuple[int, np.ndarray, np.ndarray]:
    """The expansion's lowest derivative order, and as read-only columns the
    signed coefficients (-1)^(n+j) a and the powers j - 2n of x of its terms."""
    first, row = (1, coeff_row(n)) if variant == "minus" else (0, coeff_row(n + 1))
    coeffs = np.array([(-1) ** (n + j) * a for j, a in enumerate(row, first)], dtype=np.longdouble)
    coeffs, powers = coeffs.reshape(-1, 1), np.arange(first - 2 * n, 1 - n).reshape(-1, 1)
    coeffs.setflags(write=False)
    powers.setflags(write=False)
    return first, coeffs, powers


def radial_op(derivs, x, n: int, variant: str = "minus"):
    """Apply (x^-1 d/dx)^n ("minus") or (d/dx x^-1)^n ("plus") at x.

    derivs stacks g(x), g'(x), ..., at least to order n, along its first
    axis: shape (order+1, *batch), with x broadcasting to the batch shape.
    The terms ((-1)^(n+j) a x^(j-2n)) g^(j), with exact integers a, are
    formed and summed in longdouble in increasing j, then rounded once to
    float64: a Python float at a single point, else a batch-shaped array.
    n = 0 returns g(x) for either variant.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    n = int(n)
    if n < 0:
        raise ValueError(f"operator order must be nonnegative, got {n}")
    g = np.asarray(derivs, dtype=np.longdouble)
    if g.ndim == 0 or g.shape[0] < n + 1:
        raise ValueError(f"need derivatives up to order {n}, got shape {g.shape}")
    batch = g.shape[1:]
    if n == 0:
        out = g[0]
    else:
        xs = np.asarray(x, dtype=np.longdouble)
        if xs.shape != batch:
            xs = np.broadcast_to(xs, batch)
        xs = xs.reshape(-1)
        if np.count_nonzero(xs) < xs.size:
            raise ValueError("radial operators are singular at x = 0")
        first, coeffs, powers = _op_terms(n, variant)
        terms = coeffs * np.power(xs, powers)
        terms *= g[first : n + 1].reshape(len(coeffs), -1)
        # a matrix product sums in a fixed order, whatever the batch shape
        out = (np.ones(len(coeffs), dtype=np.longdouble) @ terms).reshape(batch)
    return float(out) if not batch else out.astype(np.float64)


def nested_antiderivative_oracle(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    x: float,
    n: int,
    order: int = 16,
) -> tuple[float, float]:
    """Brute-force n-fold nesting of the defining recursion (test oracle): (phi_n, psi_n).

    phi_n = integral_a^x t phi_(n-1)(t) dt and psi_n = x integral_a^x
    psi_(n-1)(t) dt, with phi_0 = psi_0 = f, are evaluated literally, one
    fixed Gauss-Legendre rule of 2 * order nodes per nesting level,
    vectorized over the level's node tensor.  radial_integrals / (2n-2)!!
    with c = a, the independent single-integral formula, should agree.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"antiderivative order must be >= 1, got {n}")
    a = float(a)
    nodes, weights = np.polynomial.legendre.leggauss(2 * int(order))

    def level(upper: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
        if depth == 0:
            values = np.asarray(f(upper), dtype=np.float64)
            return values, values
        half = 0.5 * (upper - a)
        t = (a + half)[..., None] + half[..., None] * nodes
        phi, psi = level(t, depth - 1)
        return half * np.sum(weights * t * phi, axis=-1), upper * half * np.sum(weights * psi, axis=-1)

    phi, psi = level(np.asarray(x, dtype=np.float64), n)
    return float(phi), float(psi)
