"""Holomorphic functions carried as truncated derivative jets.

The jet of h to order d at points z is a plain np.clongdouble array of
shape (d+1, *z.shape) whose row j holds h^(j), so the radial operators
downstream never see finite-difference noise.  Jets of products follow
the Leibniz rule; powers, polynomials and 1/z share one table of falling
factorials, log goes through 1/z, and arctan through the exact three-term
recurrence of its derivative 1/(1+z^2).
circle_coefficients takes the FFT of a callable's samples on circles around
base points; HolomorphicFn.from_circle_coefficients reads the jets of any
holomorphic callable, such as a computed primitive, from it (Cauchy's integral
formula).

On x86-64, np.clongdouble carries 11 more bits than complex128 for the
radial expansion downstream, which cancels about (2N-1) log10(1/r) digits
near the axis.  Every operation is elementwise or a matrix product summed in
a fixed order, so a point's bits do not depend on the batch.

The upper half plane Im z = r > 0 is the working domain.  arctan keeps its
standard cuts {iy : |y| >= 1} on the imaginary axis and log the cut
(-inf, 0]; HolomorphicFn.jet rejects evaluation within 1e-12 of a cut
rather than silently picking a side.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

CUT_TOL = 1e-12
# Samples per circle of circle_coefficients: order n aliases with order
# n + CIRCLE_POINTS, and carries rounding of about eps max|h| n! / radius^n.
CIRCLE_POINTS = 32


def _violation(ok, z) -> complex | None:
    """The first point of z where the predicate ok fails, or None."""
    ok = np.asarray(ok)
    if np.count_nonzero(ok) == ok.size:  # cheaper than ok.all() on small arrays
        return None
    return complex(np.reshape(z, -1)[np.argmin(np.reshape(ok, -1))])


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr made read-only, for tables that caches hand to every caller."""
    arr.setflags(write=False)
    return arr


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The jet of the product of the functions with jets a and b, of one shape (d+1, *points).

    (ab)^(n) = sum_i C(n, i) a^(i) b^(n-i), summed over ascending i by one
    matrix product per point, so the bits do not depend on the batch.
    """
    d = len(a) - 1
    shift, binom = _leibniz_table(d)
    lower = b.reshape(d + 1, -1).T[:, shift] * binom  # L[n, i] = C(n, i) b^(n-i), per point
    prod = np.matmul(lower, a.reshape(d + 1, -1).T[:, :, None])
    return prod[:, :, 0].T.reshape(a.shape)


@lru_cache(maxsize=None)
def _leibniz_table(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Index n - i and weight C(n, i) of the Leibniz sum; weight 0 for i > n."""
    n, i = np.indices((d + 1, d + 1))
    binom = [[math.comb(a, b) for b in range(d + 1)] for a in range(d + 1)]
    return _frozen(np.where(i <= n, n - i, 0)), _frozen(np.array(binom, dtype=np.clongdouble))


# -- elementary jets ---------------------------------------------------------


@lru_cache(maxsize=256)
def _laurent_table(lo: int, coeffs: tuple, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(M, q) with h^(j)(z) = sum_q M[j, q] z^q for h = sum_i c_i z^(lo+i).

    M[j, q] = c_(q+j) (q+j)(q+j-1)...(q+1), a falling factorial valid for
    negative powers too; q ascends, and stays >= 0 for a polynomial.
    """
    q0 = lo - d if lo < 0 else max(0, lo - d)
    exps = np.arange(q0, lo + len(coeffs)).reshape(-1, 1)
    mat = np.zeros((d + 1, len(exps)), dtype=np.clongdouble)
    for j in range(d + 1):
        for i, c in enumerate(coeffs):
            if lo + i - j >= q0:
                falling = math.prod(range(lo + i - j + 1, lo + i + 1))
                mat[j, lo + i - j - q0] = np.clongdouble(c) * np.clongdouble(falling)
    return _frozen(mat), _frozen(exps)


def _laurent(z: np.ndarray, lo: int, coeffs: tuple, d: int) -> np.ndarray:
    """The jet of sum_i coeffs[i] z^(lo+i) at the clongdouble points z."""
    mat, exps = _laurent_table(lo, coeffs, d)
    return (mat @ np.power(z.reshape(-1), exps)).reshape((d + 1,) + z.shape)


def _off_arctan_cut(z: np.ndarray) -> np.ndarray:
    return (np.abs(z.real) > CUT_TOL) | (np.abs(z.imag) < 1.0 - CUT_TOL)


def _off_log_cut(z: np.ndarray) -> np.ndarray:
    return (np.abs(z.imag) > CUT_TOL) | (z.real > CUT_TOL)


def _arctan(z: np.ndarray, d: int) -> np.ndarray:
    """Principal arctan at clongdouble points off its cuts {iy : |y| >= 1}.

    arctan' = q = 1/b with b = 1 + z^2.  The Leibniz rule for b q = 1, with
    b''' = 0, gives b q^(n) = -(n b' q^(n-1) + C(n, 2) b'' q^(n-2)) for n >= 1:
    one step per order, every derivative exact rational arithmetic in z.
    """
    zf = z.reshape(-1)
    rows = np.empty((d + 1, zf.size), dtype=np.clongdouble)
    rows[0] = np.arctan(zf)
    if d > 0:
        b = _laurent(zf, 0, (1.0, 0.0, 1.0), 2)
        rows[1] = np.clongdouble(1) / b[0]
        for n in range(1, d):
            known = b[1] * np.clongdouble(n) * rows[n]
            if n > 1:
                known = b[2] * np.clongdouble(math.comb(n, 2)) * rows[n - 1] + known
            rows[n + 1] = (0 - known) / b[0]
    return rows.reshape((d + 1,) + z.shape)


def _log(z: np.ndarray, d: int) -> np.ndarray:
    """Principal log at clongdouble points off its cut (-inf, 0]."""
    zf = z.reshape(-1)
    rows = np.empty((d + 1, zf.size), dtype=np.clongdouble)
    rows[0] = np.log(zf)
    if d > 0:
        rows[1:] = _laurent(zf, -1, (1.0,), d - 1)
    return rows.reshape((d + 1,) + z.shape)


# -- named holomorphic functions ---------------------------------------------


class HolomorphicFn:
    """A holomorphic function presented through its jets.

    Wraps a jet builder (z, order) -> clongdouble array (order+1, *z.shape)
    and a domain predicate z -> bool array, both called with a clongdouble
    array of points; evaluation outside the domain raises instead of
    returning garbage on a branch cut.  jet tests the predicate once, so the
    builder need not test it again.
    """

    __slots__ = ("name", "_jet_fn", "_domain")

    def __init__(
        self,
        name: str,
        jet_fn: Callable[[np.ndarray, int], np.ndarray],
        domain: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        self.name = str(name)
        self._jet_fn = jet_fn
        self._domain = domain

    def jet(self, z, order: int) -> np.ndarray:
        """(h, h', ..., h^(order)) at every point of z: a clongdouble array (order+1, *z.shape)."""
        z = np.asarray(z, dtype=np.clongdouble)
        order = int(order)
        if order < 0:
            raise ValueError(f"jet order must be nonnegative, got {order}")
        if self._domain is not None:
            bad = _violation(self._domain(z), z)
            if bad is not None:
                raise ValueError(f"{self.name} is not defined at z={bad} (domain violation)")
        j = self._jet_fn(z, order)
        if j.shape != (order + 1,) + z.shape:
            raise RuntimeError(f"jet builder for {self.name} returned shape {j.shape}")
        return j

    def __call__(self, z):
        """h(z): a complex for a scalar z, a complex128 array otherwise."""
        value = self.jet(z, 0)[0]
        return complex(value) if np.ndim(value) == 0 else value.astype(np.complex128)

    @classmethod
    def from_circle_coefficients(cls, z, coeffs: np.ndarray, radius: float) -> "HolomorphicFn":
        """Jets at the points z of a function f holomorphic on the closed disc of the given
        radius around each, read off coeffs = circle_coefficients(f, z, radius), so a caller
        that needs the coefficients too samples f once.  h^(n)(z) = n! c_n / radius^n: the
        trapezoidal rule for Cauchy's integral (Lyness and Moler, 1967).  A jet at any other
        points raises."""
        centres = np.asarray(z, dtype=np.complex128)
        radius = _checked_radius(radius)

        def jet_fn(w: np.ndarray, d: int) -> np.ndarray:
            if w.shape != centres.shape or not np.array_equal(w, centres):
                raise ValueError("circle coefficients give jets only at the centres of their circles")
            return _circle_jet(coeffs, radius, d, w.shape)

        return cls("circle samples", jet_fn)

    # a product keeps the tighter of the two domains
    def __mul__(self, other):
        if isinstance(other, HolomorphicFn):
            return HolomorphicFn(
                f"({self.name} * {other.name})",
                lambda z, d: _product(self._jet_fn(z, d), other._jet_fn(z, d)),
                _both(self._domain, other._domain),
            )
        if isinstance(other, (int, float, np.floating, np.integer)):
            c = _finite(other, "scalar factor")
            return HolomorphicFn(
                f"({c:g} * {self.name})",
                lambda z, d: c * self._jet_fn(z, d),
                self._domain,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"HolomorphicFn({self.name})"


def _checked_radius(radius: float) -> float:
    radius = float(radius)
    if not 0 < radius < math.inf:
        raise ValueError(f"circle radius must be finite and positive, got {radius}")
    return radius


def circle_coefficients(f: Callable[[np.ndarray], np.ndarray], z, radius: float) -> np.ndarray:
    """The Fourier coefficients of f on a circle of the given radius around each point of z.

    Row p holds the FFT of the CIRCLE_POINTS samples f(z_p + radius e^(2 pi i j / CIRCLE_POINTS))
    over CIRCLE_POINTS: slot n estimates c_n of f(z_p + radius e^(it)) = sum_n c_n e^(int) for
    0 <= n < CIRCLE_POINTS / 2 and c_(n - CIRCLE_POINTS) above, each plus the coefficients
    CIRCLE_POINTS orders away.  f maps a complex128 array to its values there and is called
    once for all circles.
    """
    circle = _checked_radius(radius) * np.exp(2j * np.pi * np.arange(CIRCLE_POINTS) / CIRCLE_POINTS)
    samples = np.asarray(f(np.reshape(z, (-1, 1)).astype(np.complex128) + circle), dtype=np.complex128)
    return np.fft.fft(samples, axis=1) / CIRCLE_POINTS


def _circle_jet(coeffs: np.ndarray, radius: float, d: int, shape: tuple) -> np.ndarray:
    """The jet to order d at the centres, of the given shape, of circles with coefficients
    circle_coefficients(f, centres, radius): h^(n) = n! c_n / radius^n."""
    if d >= CIRCLE_POINTS:
        raise ValueError(f"a jet from {CIRCLE_POINTS} circle points has order < {CIRCLE_POINTS}, got {d}")
    scale = np.array([math.factorial(n) / radius**n for n in range(d + 1)])
    return (coeffs[:, : d + 1] * scale).T.astype(np.clongdouble).reshape((d + 1,) + shape)


def _both(f: Callable | None, g: Callable | None) -> Callable | None:
    """The domain of a combination of two functions: where both are defined."""
    if f is None or g is None:
        return g if f is None else f
    return lambda z: f(z) & g(z)


def _finite(value, what: str) -> float:
    """value as a float; a non-finite one raises, since every jet built on it would be NaN."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")
    return value

def constant(value: float) -> HolomorphicFn:
    value = _finite(value, "const: value")
    return HolomorphicFn(f"const:{value:g}", lambda z, d: _laurent(z, 0, (complex(value),), d))

def identity() -> HolomorphicFn:
    return HolomorphicFn("z", lambda z, d: _laurent(z, 0, (0.0, 1.0), d))

def power(n: int) -> HolomorphicFn:
    """z^n for integer n >= 0, with exact falling-factorial derivatives."""
    n = int(n)
    if n < 0:
        raise ValueError(f"power must be nonnegative (use recip for 1/z), got {n}")
    return HolomorphicFn(f"z^{n}", lambda z, d: _laurent(z, n, (1.0,), d))

def recip() -> HolomorphicFn:
    return HolomorphicFn("recip", lambda z, d: _laurent(z, -1, (1.0,), d), lambda z: z != 0)

def arctan() -> HolomorphicFn:
    return HolomorphicFn("arctan", _arctan, _off_arctan_cut)

def log() -> HolomorphicFn:
    return HolomorphicFn("log", _log, _off_log_cut)

def z_arctan() -> HolomorphicFn:
    f = identity() * arctan()
    f.name = "z*arctan"
    return f

def polynomial(real_coeffs: Sequence[float]) -> HolomorphicFn:
    coeffs = tuple(_finite(c, f"poly: coefficient c{i}") for i, c in enumerate(real_coeffs))
    name = "poly:" + ",".join(f"{c:g}" for c in coeffs)
    return HolomorphicFn(name, lambda z, d: _laurent(z, 0, coeffs, d))


def by_name(name: str) -> HolomorphicFn:
    """Resolve a CLI-style function name.

    Accepts "recip", "arctan", "log", "z*arctan", "z^<n>", "const:<v>" and
    "poly:<c0,c1,...>" (real coefficients, ascending).
    """
    name = name.strip()
    if name == "recip":
        return recip()
    if name == "arctan":
        return arctan()
    if name == "log":
        return log()
    if name == "z*arctan":
        return z_arctan()
    if name.startswith("z^"):
        try:
            n = int(name[2:])
        except ValueError:
            raise ValueError(f"bad power in function name {name!r}") from None
        return power(n)
    if name.startswith("const:"):
        return constant(float(name[6:]))
    if name.startswith("poly:"):
        coeffs = [float(c) for c in name[5:].split(",")]
        return polynomial(coeffs)
    raise ValueError(f"unknown holomorphic function name {name!r}")


def radial_derivatives(h: HolomorphicFn, x0, r, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Radial derivative stacks of u = Re h, v = Im h at z = x0 + i r.

    Since d/dr h(x0 + i r) = i h'(z), the j-th radial derivatives are
    Re(i^j h^(j)(z)) and Im(i^j h^(j)(z)).  x0 and r broadcast against each
    other; each stack is a longdouble array of shape (d+1, *batch).
    Requires r > 0 at every point.
    """
    x0, r = np.asarray(x0, dtype=np.longdouble), np.asarray(r, dtype=np.longdouble)
    z = np.empty(r.shape if x0.shape == r.shape else np.broadcast(x0, r).shape, dtype=np.clongdouble)
    z.real, z.imag = x0, r  # each assignment broadcasts its part
    bad = _violation(z.imag > 0, z.imag)
    if bad is not None:
        raise ValueError(f"radial derivatives need r > 0, got r={bad.real}")
    rotated = h.jet(z, d) * _rotation(d, z.ndim)
    return rotated.real, rotated.imag


@lru_cache(maxsize=None)
def _rotation(d: int, ndim: int) -> np.ndarray:
    """i^0, ..., i^d as np.power gives them, shaped to scale a jet of ndim-dimensional points."""
    return _frozen(np.power(np.clongdouble(1j), np.arange(d + 1)).reshape((d + 1,) + (1,) * ndim))
