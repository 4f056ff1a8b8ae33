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

The first level's nodes and panel half-widths depend only on the interval
and PANEL_ORDER, so they are cached for the last LAYOUT_CACHE intervals,
and integrands receive read-only nodes.  One acceptance and refinement
engine, ``quadrature``, takes a first-level table of panel sums, however
it was computed: it accepts the table in Python floats, whose IEEE
arithmetic gives numpy's bits, and only a failing interval refines in
numpy.  ``integrate`` fills the table from one integrand call on the
cached nodes; the radial rule of ``inverse`` fills it from field values
times kernels it caches on the same nodes, with the same arithmetic, and
hands the engine the kernel-times-field integrand to refine.
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
# Intervals whose first-level layout integrate remembers.
LAYOUT_CACHE = 64


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
    return _weigh(y, half, order)


def _weigh(y: np.ndarray, half: np.ndarray, order: int) -> np.ndarray:
    """The Gauss panel sums of integrand values y, shape (n,) or (p, n), at the nodes of panels of half-widths half.

    half has one entry per panel, shape (panels,), or one row of them per
    row of y (a same-shape product is numpy's cheapest).
    """
    # a (1, order) @ (order,) product is one dot per panel, the same sum
    # whatever the number of panels or rows in the call
    sums = (y.reshape(*y.shape[:-1], half.shape[-1], 1, order) @ _rule(order)[1])[..., 0]
    return half * sums


def _panels(f: Callable, lo: np.ndarray, hi: np.ndarray, order: int) -> np.ndarray:
    """The Gauss panel sums on [lo[i], hi[i]] from one call of f; shape (len(lo),) or (p, len(lo))."""
    return _sums(f, *_nodes(lo, hi, order), order)


@lru_cache(maxsize=LAYOUT_CACHE)
def _layout(a: float, b: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The first level on [a, b], a < b: (half, x), read-only, for the whole panel, then its left and right halves.

    No value depends on the sign of a zero end, so ends that hash alike
    (0.0 and -0.0) may share a layout.
    """
    mid = 0.5 * (a + b)
    half, x = _nodes(np.array([a, a, mid]), np.array([b, mid, b]), order)
    half.flags.writeable = False
    x.flags.writeable = False  # every call on this interval shares them
    return half, x


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
) -> float | np.ndarray:
    """Integrate f over [a, b] to abs tolerance cfg.abs_tol.

    Returns a float for an integrand of shape (n,) and an array of shape
    (p,) for one of shape (p, n); an empty interval returns 0.0 without
    calling f.  The first level's nodes are cached per interval and handed
    to f read-only, so f must not write into its argument.  Raises
    QuadratureError on a non-finite panel sum or when a subinterval still
    disagrees at depth MAX_DEPTH.
    """
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b, sign = b, a, -1.0
    half, x = _layout(a, b, PANEL_ORDER)
    first = _sums(f, half, x, PANEL_ORDER)
    totals = quadrature(f, first.reshape(-1, 3), a, b, cfg.abs_tol, sign)
    return totals[0] if first.ndim == 1 else np.array(totals)


def quadrature(f: Callable, table: np.ndarray, a: float, b: float, tol: float, sign: float) -> list[float]:
    """The integrals over [a, b], a < b, times sign, from a first-level table of panel sums.

    table[row] holds the whole-panel, left-half and right-half sums of
    component row.  The interval is accepted in Python floats when every
    component's halves are finite and agree with its whole to tol; else it
    refines depth-first through f, where a non-finite value raises first.
    Returns one value per row.
    """
    rows = table.tolist()  # IEEE doubles: numpy's bits
    values = [left + right for _, left, right in rows]
    if not all(abs(s - row[0]) <= tol and math.isfinite(s) for s, row in zip(values, rows)):
        values = _refine(f, a, b, *table.T, tol, 0).tolist()
    return [sign * s for s in values]


def _refine(f, lo, hi, whole, left, right, tol, depth, active=True):
    """left + right, refined below [lo, hi] in the active components that disagree with whole.

    A component that agrees keeps its value here, as a scalar integral
    would, even while the others refine further.
    """
    halves = left + right
    if np.any(active & ~np.isfinite(halves)):
        raise QuadratureError(f"non-finite panel value on [{lo:g}, {hi:g}]")
    pending = active & ~(np.abs(halves - whole) <= tol)
    if not np.any(pending):
        return halves
    if depth >= MAX_DEPTH:
        raise QuadratureError(
            f"no convergence on [{lo:g}, {hi:g}] at depth {depth} (tol {tol:g})"
        )
    mid = 0.5 * (lo + hi)
    refined = _split(f, lo, mid, left, tol / 2, depth + 1, pending) + _split(
        f, mid, hi, right, tol / 2, depth + 1, pending
    )
    return np.where(pending, refined, halves)


def _split(f, lo, hi, whole, tol, depth, active):
    """Refine [lo, hi], whose panel sum is whole, after evaluating its halves in one call."""
    mid = 0.5 * (lo + hi)
    halves = _panels(f, np.array([lo, mid]), np.array([mid, hi]), PANEL_ORDER)
    return _refine(f, lo, hi, whole, halves[..., 0], halves[..., 1], tol, depth, active)
