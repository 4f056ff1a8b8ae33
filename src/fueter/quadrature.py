"""Adaptive Gauss-Legendre quadrature on finite intervals.

Fixed-order panels, bisected until the two-half refinement agrees with the
parent panel to the requested absolute tolerance (halved per split, so the
leaf budgets sum to the original).  Integrands must accept numpy arrays of
nodes and return arrays of values.  Known kinks of the integrand (say, an
interpolant's grid lines) are passed as ``breaks``: the interval is split
there first, each piece taking the tolerance share of its width (QUADPACK's
QAGP); on a piece where the integrand is a polynomial of degree
< 2 * panel_order, the first refinement agrees up to rounding.
"""

from __future__ import annotations

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
        if self.abs_tol <= 0:
            raise ValueError(f"abs_tol must be positive, got {self.abs_tol}")
        if self.max_depth < 0:
            raise ValueError(f"max_depth must be nonnegative, got {self.max_depth}")
        if self.panel_order < 2:
            raise ValueError(f"panel_order must be at least 2, got {self.panel_order}")


DEFAULT_QUADRATURE = QuadratureConfig()


@lru_cache(maxsize=None)
def _rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _panel(f: Callable, lo: float, hi: float, order: int) -> float:
    nodes, weights = _rule(order)
    half = 0.5 * (hi - lo)
    x = 0.5 * (hi + lo) + half * nodes
    y = np.asarray(f(x), dtype=np.float64)
    if y.shape != x.shape:
        raise ValueError("integrand must map a node array to a value array of equal shape")
    return half * float(weights @ y)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    cfg: QuadratureConfig = DEFAULT_QUADRATURE,
    breaks: Sequence[float] = (),
) -> float:
    """Integrate f over [a, b], split at the breaks inside it, to abs tolerance cfg.abs_tol.

    Raises QuadratureError when a subinterval still disagrees at depth
    cfg.max_depth.
    """
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b, sign = b, a, -1.0
    edges = (a, *sorted({float(t) for t in breaks if a < t < b}), b) if len(breaks) else (a, b)
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        whole = _panel(f, lo, hi, cfg.panel_order)
        total += _refine(f, lo, hi, whole, cfg.abs_tol * ((hi - lo) / (b - a)), 0, cfg)
    return sign * total


def _refine(f, lo, hi, whole, tol, depth, cfg):
    mid = 0.5 * (lo + hi)
    left = _panel(f, lo, mid, cfg.panel_order)
    right = _panel(f, mid, hi, cfg.panel_order)
    if not np.isfinite(left + right):
        raise QuadratureError(f"non-finite panel value on [{lo:g}, {hi:g}]")
    if abs(left + right - whole) <= tol:
        return left + right
    if depth >= cfg.max_depth:
        raise QuadratureError(
            f"no convergence on [{lo:g}, {hi:g}] at depth {depth} (tol {tol:g})"
        )
    return _refine(f, lo, mid, left, tol / 2, depth + 1, cfg) + _refine(
        f, mid, hi, right, tol / 2, depth + 1, cfg
    )
