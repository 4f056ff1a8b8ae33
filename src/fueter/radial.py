"""Radial calculus: iterated x^(-1)d/dx operators and their exact coefficients.

Two first-order operators drive everything here, in two interleavings:

    minus:  (x^-1 d/dx)^n g  =  sum_{j=1..n} (-1)^(n+j) a_{j,n} x^(j-2n) g^(j)(x)
    plus:   (d/dx x^-1)^n g  =  sum_{j=0..n} (-1)^(n+j) a_{j+1,n+1} x^(j-2n) g^(j)(x)

with the exact integer coefficients

    a_{j,n} = (2n-j-1)! / (2^(n-j) (n-j)! (j-1)!),   1 <= j <= n,

the coefficient rows of the Bessel polynomials.  The forward map needs
minus of u and plus of v at the same x, so radial_op(u, v, x, n) returns
that pair from one table of the powers x^(j-2n), j = 0..n: plus reads all
of it and minus rows 1..n.

Inverting either operator one level costs one weighted integral (the
two-variable kernel collapses a nested n-fold integral to a single one):

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
def _expansion(n: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """The signed coefficients (-1)^(n+j) a of the minus (first = 1) or the plus
    (first = 0) expansion's terms, j = first..n, as a read-only column, and the
    read-only row of ones whose matrix product sums the terms."""
    row = coeff_row(n + 1 - first)
    coeffs = np.array([(-1) ** (n + j) * a for j, a in enumerate(row, first)], dtype=np.longdouble)
    coeffs = coeffs.reshape(-1, 1)
    ones = np.ones(len(row), dtype=np.longdouble)
    for table in (coeffs, ones):
        table.setflags(write=False)
    return coeffs, ones


@lru_cache(maxsize=None)
def _exponents(n: int) -> np.ndarray:
    """The read-only column of exponents j - 2n, j = 0..n, of the power table."""
    exps = np.arange(-2 * n, 1 - n).reshape(-1, 1)
    exps.setflags(write=False)
    return exps


def radial_op(u, v, x, n: int):
    """(x^-1 d/dx)^n u and (d/dx x^-1)^n v at x: the minus operator on u, the plus on v.

    u and v stack g(x), g'(x), ..., at least to order n, along their first
    axis: shape (order+1, *batch), one batch shape for both, with x
    broadcasting to it.  One longdouble table x^(j-2n), j = 0..n, serves
    both expansions: plus reads all its rows and minus rows 1..n.  Each
    expansion's terms ((-1)^(n+j) a x^(j-2n)) g^(j), with exact integers a,
    are formed and summed in longdouble in increasing j, then rounded once
    to float64: Python floats at a single point, else batch-shaped arrays.
    n = 0 returns (u(x), v(x)).
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"operator order must be nonnegative, got {n}")
    u, v = np.asarray(u, dtype=np.longdouble), np.asarray(v, dtype=np.longdouble)
    for g in (u, v):
        if g.ndim == 0 or g.shape[0] < n + 1:
            raise ValueError(f"need derivatives up to order {n}, got shape {g.shape}")
    batch = u.shape[1:]
    if v.shape[1:] != batch:
        raise ValueError(f"u and v need one batch shape, got {batch} and {v.shape[1:]}")
    if n == 0:
        pair = u[0], v[0]
    else:
        xs = np.asarray(x, dtype=np.longdouble)
        if xs.shape != batch:
            xs = np.broadcast_to(xs, batch)
        xs = xs.reshape(-1)
        if np.count_nonzero(xs) < xs.size:
            raise ValueError("radial operators are singular at x = 0")
        table = np.power(xs, _exponents(n))
        pair = []
        for g, first in ((u, 1), (v, 0)):
            coeffs, ones = _expansion(n, first)
            terms = coeffs * table[first:]
            terms *= g[first : n + 1].reshape(n + 1 - first, -1)
            # a matrix product sums in a fixed order, whatever the batch shape
            pair.append((ones @ terms).reshape(batch))
    return tuple(float(out) if not batch else out.astype(np.float64) for out in pair)


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
