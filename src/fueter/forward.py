"""The forward transform: holomorphic functions to axial monogenic fields.

For odd m and an inner spherical monogenic P_k, a holomorphic
h = u + iv on the upper half plane maps to

    Ft[h, P_k](x0 + x_) = (2k+m-1)!! [ (r^-1 d/dr)^N u  +  omega (d/dr r^-1)^N v ] P_k(x_)

with r = |x_|, omega = x_/r and N = k + (m-1)/2.  This is the radial form
of applying the Laplacian N times to (u + omega v) P_k, and the output is
monogenic: (d/dx0 + D)Ft = 0.  The scalar pair in brackets (times the
leading constant) is the axial profile (A, B) of the image.

An iterated finite-difference Laplacian of the undifferentiated field is
kept as an independent oracle (N <= 2) for tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable

import numpy as np

from .clifford import Multivector, Paravector, _paravector
from .errors import NumericalError
from .jets import HolomorphicFn, radial_derivatives
from .polynomials import MonogenicPolynomial
from .radial import double_factorial, radial_op


class FueterConfig:
    """Dimension/degree bundle: odd m >= 3, k >= 0."""

    __slots__ = ("m", "k")

    def __init__(self, m: int, k: int):
        m, k = int(m), int(k)
        if m < 3 or m % 2 == 0:
            raise ValueError(f"m must be odd and >= 3, got m={m}")
        if k < 0:
            raise ValueError(f"k must be nonnegative, got k={k}")
        self.m = m
        self.k = k

    @property
    def N(self) -> int:
        """Operator order k + (m-1)/2."""
        return self.k + (self.m - 1) // 2

    @property
    def K_N(self) -> Fraction:
        """The inversion's exact normalization 1 / (2N ((2N-2)!!)^2)."""
        return Fraction(1, 2 * self.N * double_factorial(2 * self.N - 2) ** 2)

    @property
    def leading_constant(self) -> int:
        """(2k + m - 1)!! exactly."""
        return double_factorial(2 * self.k + self.m - 1)

    @property
    def kernel_degree(self) -> int:
        """Largest n with z^n annihilated: 2k + m - 2."""
        return 2 * self.k + self.m - 2

    def __repr__(self) -> str:
        return f"FueterConfig(m={self.m}, k={self.k}, N={self.N})"


def fueter_profile(h: HolomorphicFn, cfg: FueterConfig, x0, r):
    """The axial profile (A, B) of Ft[h, P_k] at (x0, r), r > 0.

    x0 and r broadcast against each other.  A and B are float64 arrays of
    the broadcast shape, or Python floats when x0 and r are both scalars.
    One jet of h and one table of powers of r serve both.  A profile that
    overflows float64 raises NumericalError, naming its first such point.
    """
    u, v = radial_derivatives(h, x0, r, cfg.N)
    const = _leading_constant(cfg.m, cfg.k)
    try:
        with np.errstate(over="raise"):
            a, b = radial_op(u, v, r, cfg.N)
            a, b = const * a, const * b
    except FloatingPointError:
        raise _overflow(h, cfg, x0, r, u, v) from None
    # a 0-d float() and a product of Python floats overflow to inf without a warning
    if isinstance(a, float) and (math.isinf(a) or math.isinf(b)):
        raise _overflow(h, cfg, x0, r, u, v)
    return a, b


@lru_cache(maxsize=None)
def _leading_constant(m: int, k: int) -> float:
    """(2k + m - 1)!! rounded to float64."""
    return float(double_factorial(2 * k + m - 1))


def _overflow(h: HolomorphicFn, cfg: FueterConfig, x0, r, u, v) -> NumericalError:
    """The error for a profile of h that overflows float64, at its first non-finite point."""
    with np.errstate(all="ignore"):
        a, b = radial_op(u, v, r, cfg.N)
        const = _leading_constant(cfg.m, cfg.k)
        finite = np.isfinite(const * np.asarray(a)) & np.isfinite(const * np.asarray(b))
    x0, r = (np.ravel(x) for x in np.broadcast_arrays(x0, r))
    i = int(np.argmin(finite.ravel()))
    return NumericalError(f"the profile of {h.name} overflows float64 at x0={x0[i]:g}, r={r[i]:g}")


def fueter_fields(h: HolomorphicFn, cfg: FueterConfig) -> tuple[Callable, Callable]:
    """(A, B) evaluators of the image field at scalar or broadcastable array (x0, r).

    The two share one fueter_profile call through paired, so A then B at the
    same points costs one jet.  Values equal fueter_profile's bit for bit.
    """
    return paired(lambda x0, r: fueter_profile(h, cfg, x0, r))


def paired(pair: Callable) -> tuple[Callable, Callable]:
    """(A, B) evaluators that share the calls of pair(x0, r) -> (a, b).

    A call to either runs pair once and returns its own component.  It
    keeps the other one, with a float64 copy of (x0, r), until the next call
    to either evaluator.  If that call is the other evaluator's, at (x0, r)
    of equal shape and bits, it returns the kept component; any other call
    recomputes.  So every returned value is fresh, and mutating the inputs
    in between, or another thread's call, cannot return stale values.
    """
    kept = []  # at most one (component, _key(x0, r), value) not yet taken

    def evaluator(which: int):
        def eval_field(x0, r):
            key = _key(x0, r)
            try:
                component, key_kept, value = kept.pop()
            except IndexError:  # nothing kept, or another thread took it
                pass
            else:
                if component == which and key is not None and key == key_kept:
                    return value
            values = pair(x0, r)
            kept[:] = [] if key is None else [(1 - which, key, values[1 - which])]
            return values[which]

        return eval_field

    return evaluator(0), evaluator(1)


def _key(x0, r) -> tuple | None:
    """The shapes and float64 bytes of x0 and r; None unless both are floats of
    at most double width, the inputs whose float64 bits fix what a pair reads."""
    key = ()
    for x in (x0, r):
        x = np.asarray(x)
        if x.dtype.kind != "f" or x.dtype.itemsize > 8:
            return None
        key += (x.shape, x.astype(np.float64, copy=False).tobytes())
    return key


def _check_pair(P: MonogenicPolynomial, cfg: FueterConfig) -> None:
    if P.m != cfg.m:
        raise ValueError(f"polynomial built for m={P.m}, config has m={cfg.m}")
    if P.k != cfg.k:
        raise ValueError(f"polynomial degree {P.k} does not match config k={cfg.k}")


def e1_point(m: int, x0: float, r: float) -> Paravector:
    """The point x0 + r e_1 of R^(m+1), where a grid point (x0, r) is placed."""
    vec = np.zeros(m)
    vec[0] = r
    return Paravector(x0, vec)


def axial_image(P: MonogenicPolynomial, p: Paravector, a: float, b: float) -> Multivector:
    """Ft[h, P_k] at p from the profile (a, b) of h at (p.x0, p.r): (a + omega b) P_k(x_)."""
    return _image(P, p, p.r, a, b)


def fueter_map(
    h: HolomorphicFn, P: MonogenicPolynomial, cfg: FueterConfig, p: Paravector
) -> Multivector:
    """Evaluate Ft[h, P_k] at the paravector p = x0 + x_ (off the real axis)."""
    _check_pair(P, cfg)
    if p.m != cfg.m:
        raise ValueError(f"point lives in R^{p.m + 1}, config has m={cfg.m}")
    r = p.r
    a, b = fueter_profile(h, cfg, p.x0, r)  # raises for r = 0, a point on the real axis
    return _image(P, p, r, a, b)


def _image(P: MonogenicPolynomial, p: Paravector, r: float, a: float, b: float) -> Multivector:
    """(a + b omega) P_k(x_) at p with r = p.r: one product of P_k(x_) with the
    multivector that holds a on the scalar blade and b x_ / r on the generators."""
    if r == 0.0:
        raise ValueError("omega is undefined at r = 0 (point on the real axis)")
    return Multivector(p.m, _paravector(a, b * (p.vec / r))) * P(p.vec)


def laplacian_oracle(
    h: HolomorphicFn,
    P: MonogenicPolynomial,
    cfg: FueterConfig,
    p: Paravector,
    fd_step: float = 1e-3,
) -> Multivector:
    """Independent check value: FD Laplacian iterated N times on (u + omega v) P_k.

    Central second differences in all m+1 Cartesian coordinates, applied
    componentwise and nested N times.  Restricted to N <= 2; every stencil
    point must stay off the real axis and inside h's domain, so keep
    fd_step well below r/(2N).
    """
    _check_pair(P, cfg)
    if cfg.N > 2:
        raise ValueError(f"oracle restricted to N <= 2, got N={cfg.N}")
    fd_step = float(fd_step)
    if not 0 < fd_step < np.inf:
        raise ValueError(f"fd_step must be finite and positive, got {fd_step}")
    if p.r <= 2 * cfg.N * fd_step:
        raise ValueError("stencil would cross the real axis; shrink fd_step")

    m = cfg.m

    def base_field(y: np.ndarray) -> np.ndarray:
        x0, xv = y[0], y[1:]
        r = float(np.linalg.norm(xv))
        if r == 0.0:
            raise ValueError("stencil touched the real axis")
        w = h(complex(x0, r))
        u, v = w.real, w.imag
        omega = Multivector.from_vector(m, xv / r)
        axial = Multivector.scalar(m, u) + v * omega
        return (axial * P(xv)).coeffs

    def fd_laplacian(F: Callable[[np.ndarray], np.ndarray], y: np.ndarray) -> np.ndarray:
        acc = -2.0 * (m + 1) * F(y)
        for i in range(m + 1):
            e = np.zeros(m + 1)
            e[i] = fd_step
            acc = acc + F(y + e) + F(y - e)
        return acc / fd_step**2

    y0 = np.concatenate(([p.x0], p.vec))
    if cfg.N == 1:
        out = fd_laplacian(base_field, y0)
    else:
        out = fd_laplacian(lambda q: fd_laplacian(base_field, q), y0)
    return Multivector(m, out)
