"""Adaptive Gauss-Legendre quadrature on finite intervals.

Fixed-order panels, bisected until the two-half refinement agrees with the
parent panel to the requested absolute tolerance (halved per split, so the
leaf budgets sum to the original).  The interval is one piece: the
package's integrands are smooth on it (tabulated fields are interpolated
smoothly), and where a subinterval disagrees, it alone refines.

Integrands take a 1-d array of nodes and return values of shape (n,), or
(p, n) for p integrals sharing the nodes; the interval is accepted when
every component meets the tolerance, and each component refines exactly
where it would alone.  The integrand is called once per level: the first
call takes the whole panel and both halves, and a failing interval refines
depth-first, each step evaluating the two halves of one subinterval in one
call, so a non-converging integral fails after as few evaluations as a
panel-at-a-time recursion.

One engine, ``quadrature``, takes the first level as one row of Python
floats (whole-panel, left-half, right-half sums) per component, however it
was computed.  Its one acceptance rule, ``_refine``, tests and refines
every level in one recursion over Python floats, whose IEEE arithmetic
gives numpy's bits: a non-finite value raises first, and an accepted
component is settled, keeping its value while the others refine.
``integrate`` lays out the first level's nodes afresh on each call and
fills the rows from one integrand call on them; the radial rule of
``inverse`` fills them with two dot products of field values and matrices
it caches on the same nodes, the kernels with the Gauss weights and
half-widths folded in, and hands the engine the kernel-times-field
integrand to refine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import QuadratureError


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-11

    def __post_init__(self):
        if not self.abs_tol > 0:  # NaN fails this too; inf is a valid tolerance
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")


DEFAULT_QUADRATURE = QuadratureConfig()
# Bisection depth at which a subinterval that still disagrees raises.
MAX_DEPTH = 40
# Gauss-Legendre nodes per panel.
PANEL_ORDER = 16


@lru_cache(maxsize=None)
def _rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _nodes(lo: np.ndarray, hi: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The half-widths of the panels [lo[i], hi[i]] and their Gauss nodes, panel by panel."""
    nodes, _ = _rule(order)
    half = 0.5 * (hi - lo)
    return half, ((0.5 * (hi + lo))[:, None] + half[:, None] * nodes).ravel()


def _sums(f: Callable, half: np.ndarray, x: np.ndarray, order: int) -> np.ndarray:
    """The Gauss panel sums from one call of f at the nodes x; shape (len(half),) or (p, len(half))."""
    y = np.asarray(f(x), dtype=np.float64)
    if y.shape != x.shape and (y.ndim != 2 or y.shape[1] != x.size):
        raise ValueError("integrand must map n nodes to values of shape (n,) or (p, n)")
    # a (1, order) @ (order,) product is one dot per panel, the same sum
    # whatever the number of panels or rows in the call
    sums = (y.reshape(*y.shape[:-1], half.size, 1, order) @ _rule(order)[1])[..., 0]
    return half * sums


def _panels(f: Callable, lo: np.ndarray, hi: np.ndarray, order: int) -> np.ndarray:
    """The Gauss panel sums on [lo[i], hi[i]] from one call of f; shape (len(lo),) or (p, len(lo))."""
    return _sums(f, *_nodes(lo, hi, order), order)


def _layout(a: float, b: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The first level on [a, b], a < b: (half, x) for the whole panel, then its left and right halves."""
    mid = 0.5 * (a + b)
    # _nodes' arithmetic on the three panels, in Python floats, then one broadcast
    half = np.array((0.5 * (b - a), 0.5 * (mid - a), 0.5 * (b - mid)))
    centre = np.array(((0.5 * (b + a),), (0.5 * (mid + a),), (0.5 * (b + mid),)))
    return half, (centre + half[:, None] * _rule(order)[0]).ravel()


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float | np.ndarray:
    """Integrate f over [a, b] to abs tolerance cfg.abs_tol.

    Returns a float for an integrand of shape (n,) and an array of shape
    (p,) for one of shape (p, n); an empty interval returns 0.0 without
    calling f, and b < a the integral over [b, a] negated, whose bits
    differ only in the sign.  A non-finite bound raises ValueError before
    any call; QuadratureError is raised on a non-finite panel sum or when a
    subinterval still disagrees at depth MAX_DEPTH.
    """
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integration bound {'b' if math.isfinite(a) else 'a'} must be finite, got a={a}, b={b}")
    if a == b:
        return 0.0
    lo, hi = min(a, b), max(a, b)
    half, x = _layout(lo, hi, PANEL_ORDER)
    first = _sums(f, half, x, PANEL_ORDER)
    totals = quadrature(f, first.reshape(-1, 3).tolist(), lo, hi, cfg.abs_tol)
    if b < a:
        totals = [-t for t in totals]
    return totals[0] if first.ndim == 1 else np.array(totals)


def quadrature(f: Callable, rows: list, a: float, b: float, tol: float) -> list[float]:
    """The integrals over [a, b], a < b, one per row of Python floats (whole-panel, left-half, right-half sums)."""
    return _refine(f, a, b, rows, tol, 0)


def _refine(f, lo, hi, rows, tol, depth, settled=()):
    """left + right for each row (whole, left, right) of panel sums on [lo, hi], refined where it disagrees.

    A row not settled above is accepted when its halves are finite and
    agree with its whole to tol.  A non-finite row raises before one that
    still disagrees at MAX_DEPTH; the disagreeing rows refine depth-first,
    and the accepted ones are settled below, keeping their values.
    """
    values, pending = [], []
    for i, (whole, left, right) in enumerate(rows):
        s = left + right
        values.append(s)
        if i in settled:
            continue
        if not math.isfinite(s):
            raise QuadratureError(f"non-finite panel value on [{lo:g}, {hi:g}]")
        if not abs(s - whole) <= tol:
            pending.append(i)
    if pending:
        if depth >= MAX_DEPTH:
            raise QuadratureError(f"no convergence on [{lo:g}, {hi:g}] at depth {depth} (tol {tol:g})")
        settled = tuple(i for i in range(len(rows)) if i not in pending)
        mid = 0.5 * (lo + hi)
        lefts = _split(f, lo, mid, [row[1] for row in rows], tol / 2, depth + 1, settled)
        rights = _split(f, mid, hi, [row[2] for row in rows], tol / 2, depth + 1, settled)
        for i in pending:
            values[i] = lefts[i] + rights[i]
    return values


def _split(f, lo, hi, wholes, tol, depth, settled):
    """Refine [lo, hi], whose panel sums are wholes, after evaluating its halves in one call."""
    mid = 0.5 * (lo + hi)
    halves = _panels(f, np.array([lo, mid]), np.array([mid, hi]), PANEL_ORDER).reshape(-1, 2).tolist()
    return _refine(f, lo, hi, [(whole, *pair) for whole, pair in zip(wholes, halves)], tol, depth, settled)
