"""Adaptive Gauss-Legendre quadrature on finite intervals.

Fixed-order panels, bisected until the two-half refinement agrees with the
parent panel to the requested absolute tolerance (halved per split, so the
leaf budgets sum to the original).  Known kinks of the integrand (say, an
interpolant's grid lines) are passed as ``breaks``: the interval is split
there first, each piece taking the tolerance share of its width (QUADPACK's
QAGP); on a piece where the integrand is a polynomial of degree
< 2 * panel_order, the first refinement agrees up to rounding.

Integrands take a 1-d array of nodes and return values of shape (n,), or
(p, n) for p integrals sharing the nodes; a piece is accepted when every
component meets its tolerance, and each component refines exactly where
it would alone.  The integrand is called once per level: the first call
takes every piece's whole panel and both halves, and a piece that fails
refines depth-first, each step evaluating the two halves of one
subinterval in one call, so a non-converging integral fails after as few
evaluations as a panel-at-a-time recursion.

The first level's layout (pieces, tolerance shares, panel half-widths and
nodes) depends only on the interval, the breaks inside it and the config,
so it is cached for the last LAYOUT_CACHE intervals, and integrands receive
read-only nodes.  One acceptance and refinement engine, ``quadrature``,
takes a first-level table of panel sums, however it was computed: it
accepts the table in Python floats, whose IEEE arithmetic gives numpy's
bits, and only failing pieces refine in numpy.  ``integrate`` fills the
table from one integrand call on the layout's nodes; the radial rule of
``inverse`` fills it from field values times kernels it caches on the
same nodes, with the same arithmetic, and hands the engine the
kernel-times-field integrand to refine.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import QuadratureError


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-11
    max_depth: int = 40
    panel_order: int = 16

    def __post_init__(self):
        if not self.abs_tol > 0:  # NaN fails this too; inf is a valid tolerance
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be nonnegative, got {self.max_depth}")
        if self.panel_order < 2:
            raise ValueError(f"panel_order must be at least 2, got {self.panel_order}")


DEFAULT_QUADRATURE = QuadratureConfig()
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


def _interval(a: float, b: float, breaks: Sequence[float]) -> tuple[tuple[float, ...], float]:
    """(edges, sign): the ends of [a, b] in increasing order with the breaks strictly inside
    between them, and -1.0 when b < a (the integral changes sign), else 1.0."""
    sign = 1.0
    if b < a:
        a, b, sign = b, a, -1.0
    return ((a, *sorted({float(t) for t in breaks if a < t < b}), b) if len(breaks) else (a, b)), sign


@lru_cache(maxsize=LAYOUT_CACHE)
def _layout(edges: tuple[float, ...], abs_tol: float, order: int) -> tuple:
    """The first level on the pieces between edges: (tols, half, x).

    Each piece takes the tolerance share of its width; half and x, read-only,
    hold every piece's whole panel, then every left half, then every right
    half.  No value depends on the sign of a zero edge, so edges that hash
    alike (0.0 and -0.0) may share a layout.
    """
    a, b = edges[0], edges[-1]
    lo, hi = edges[:-1], edges[1:]
    mid = tuple(0.5 * (l + h) for l, h in zip(lo, hi))
    tols = tuple(abs_tol * ((h - l) / (b - a)) for l, h in zip(lo, hi))
    half, x = _nodes(np.array(lo + lo + mid), np.array(hi + mid + hi), order)
    half.flags.writeable = False
    x.flags.writeable = False  # every call on these edges shares them
    return tols, half, x


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    breaks: Sequence[float] = (),
) -> float | np.ndarray:
    """Integrate f over [a, b], split at the breaks inside it, to abs tolerance cfg.abs_tol.

    Returns a float for an integrand of shape (n,) and an array of shape
    (p,) for one of shape (p, n); an empty interval returns 0.0 without
    calling f.  The first level's nodes are cached per interval, breaks
    and cfg and handed to f read-only, so f must not write into its
    argument.  Raises QuadratureError on a non-finite panel sum or when a
    subinterval still disagrees at depth cfg.max_depth.
    """
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    edges, sign = _interval(a, b, breaks)
    tols, half, x = _layout(edges, cfg.abs_tol, cfg.panel_order)
    first = _sums(f, half, x, cfg.panel_order)
    totals = quadrature(f, first.reshape(-1, 3, len(edges) - 1), edges, tols, cfg, sign)
    return totals[0] if first.ndim == 1 else np.array(totals)


def quadrature(
    f: Callable, table: np.ndarray, edges: tuple, tols: tuple, cfg: QuadratureConfig, sign: float
) -> list[float]:
    """The integrals over [edges[0], edges[-1]], times sign, from a first-level table of panel sums.

    table[row, 0 / 1 / 2, i] holds the whole-panel, left-half and right-half
    sums of component row on the piece [edges[i], edges[i + 1]], whose
    tolerance share is tols[i].  A piece is accepted in Python floats when
    every component's halves are finite and agree with its whole; failing
    pieces refine depth-first, in order, through f (a non-finite piece
    raises first).  Returns one total per row, summed piece by piece in
    order, as one scalar integral per row would be.
    """
    pieces, failing = [], []
    for whole, left, right in table.tolist():  # IEEE doubles: numpy's bits
        row = list(map(operator.add, left, right))
        pieces.append(row)
        for i, s in enumerate(row):
            if not (abs(s - whole[i]) <= tols[i] and math.isfinite(s)):
                failing.append(i)
    if failing:
        lo, hi = edges[:-1], edges[1:]
        failing = sorted(set(failing))
        nonfinite = [i for i in failing if not all(math.isfinite(row[i]) for row in pieces)]
        for i in nonfinite or failing:  # in order, depth-first; a non-finite piece raises first
            refined = _refine(f, lo[i], hi[i], *table[:, :, i].T, tols[i], 0, cfg)
            for row, value in zip(pieces, refined.tolist()):
                row[i] = value
    totals = []
    for row in pieces:
        total = 0.0
        for value in row:
            total += value
        totals.append(sign * total)
    return totals


def _refine(f, lo, hi, whole, left, right, tol, depth, cfg, active=True):
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
    if depth >= cfg.max_depth:
        raise QuadratureError(
            f"no convergence on [{lo:g}, {hi:g}] at depth {depth} (tol {tol:g})"
        )
    mid = 0.5 * (lo + hi)
    refined = _split(f, lo, mid, left, tol / 2, depth + 1, cfg, pending) + _split(
        f, mid, hi, right, tol / 2, depth + 1, cfg, pending
    )
    return np.where(pending, refined, halves)


def _split(f, lo, hi, whole, tol, depth, cfg, active):
    """Refine [lo, hi], whose panel sum is whole, after evaluating its halves in one call."""
    mid = 0.5 * (lo + hi)
    halves = _panels(f, np.array([lo, mid]), np.array([mid, hi]), cfg.panel_order)
    return _refine(f, lo, hi, whole, halves[..., 0], halves[..., 1], tol, depth, cfg, active)
