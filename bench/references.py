"""Independent reference values for the benchmark's output checks.

Nothing here imports fueter.  Forward profiles use the radial expansion

    A = g * sum_{j=1..N} (-1)^(N+j) a_{j,N} r^(j-2N) Re(i^j h^(j)(z))
    B = g * sum_{j=0..N} (-1)^(N+j) a_{j+1,N+1} r^(j-2N) Im(i^j h^(j)(z))

with g = (2k+m-1)!!, N = k + (m-1)/2, z = x0 + i r, evaluated exactly
(Gaussian rationals) for z^n and at 50 significant digits with mpmath for
the transcendental functions, whose derivatives come from closed forms
rather than from jet recurrences.  At r = 1e-3 and N = 6 the sum cancels
about 33 digits, which 50 digits leave room for.

Inversions are checked against the known closed-form primitive modulo the
gauge: a real polynomial of degree <= 2N - 1 fitted by least squares.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

DIGITS = 50


def double_factorial(n: int) -> int:
    return math.prod(range(n, 0, -2)) if n > 0 else 1


def bessel_coeff(j: int, n: int) -> int:
    """a_{j,n} = (2n-j-1)! / (2^(n-j) (n-j)! (j-1)!), 1 <= j <= n."""
    num = math.factorial(2 * n - j - 1)
    den = (1 << (n - j)) * math.factorial(n - j) * math.factorial(j - 1)
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"a_({j},{n}) is not an integer")
    return q


def order(m: int, k: int) -> int:
    return k + (m - 1) // 2


# -- forward profiles, exact for z^n ------------------------------------------


def power_profile(n: int, m: int, k: int, x0: float, r: float) -> tuple[Fraction, Fraction, float]:
    """Exact (A, B) of Ft[z^n] at the float point (x0, r), and the cancellation."""
    N = order(m, k)
    X, R = Fraction(x0), Fraction(r)
    den = math.lcm(X.denominator, R.denominator)
    xi, ri = X.numerator * (den // X.denominator), R.numerator * (den // R.denominator)
    # (xi + i ri)^p for p = 0..n, Gaussian integers; z^p = that / den^p
    pw = [(1, 0)]
    for _ in range(n):
        a, b = pw[-1]
        pw.append((a * xi - b * ri, a * ri + b * xi))
    A, B, sum_a, sum_b = Fraction(0), Fraction(0), Fraction(0), Fraction(0)
    for j in range(min(N, n) + 1):
        a, b = pw[n - j]
        re, im = ((a, b), (-b, a), (-a, -b), (b, -a))[j % 4]  # i^j (a + i b)
        scale = Fraction(math.perm(n, j), den ** (n - j)) * R ** (j - 2 * N)
        sign = -1 if (N + j) % 2 else 1
        if j >= 1:
            term = bessel_coeff(j, N) * scale * re
            A += sign * term
            sum_a += abs(term)
        term = bessel_coeff(j + 1, N + 1) * scale * im
        B += sign * term
        sum_b += abs(term)
    g = double_factorial(2 * k + m - 1)
    return g * A, g * B, float(max(sum_a, sum_b) / max(abs(A), abs(B)))


# -- forward profiles at 50 digits for transcendental h -----------------------


def _derivs(name: str, z, d: int) -> list:
    """h(z), h'(z), ..., h^(d)(z) as mpc, from closed forms."""
    one = mpmath.mpf(1)
    if name.startswith("z^"):
        n = int(name[2:])
        return [math.perm(n, j) * z ** (n - j) if j <= n else mpmath.mpc(0) for j in range(d + 1)]
    if name == "recip":
        w = one / z
        out, p = [], w
        for j in range(d + 1):
            out.append((-1) ** j * math.factorial(j) * p)
            p *= w
        return out
    if name == "log":
        w = one / z
        out, p = [mpmath.log(z)], w
        for j in range(1, d + 1):
            out.append((-1) ** (j - 1) * math.factorial(j - 1) * p)
            p *= w
        return out
    if name in ("arctan", "z*arctan"):
        # arctan^(j) = (-1)^(j-1) (j-1)! ((z-i)^-j - (z+i)^-j) / (2i), j >= 1
        i = mpmath.mpc(0, 1)
        w1, w2 = one / (z - i), one / (z + i)
        f = [mpmath.atan(z)]
        p1, p2 = w1, w2
        for j in range(1, d + 1):
            f.append((-1) ** (j - 1) * math.factorial(j - 1) * (p1 - p2) / (2 * i))
            p1 *= w1
            p2 *= w2
        if name == "arctan":
            return f
        # (z f)^(j) = z f^(j) + j f^(j-1)
        return [z * f[0]] + [z * f[j] + j * f[j - 1] for j in range(1, d + 1)]
    raise ValueError(f"no reference for h={name!r}")


def mp_profile(name: str, m: int, k: int, x0: float, r) -> tuple:
    """(A, B) of Ft[h] at (x0, r) as 50-digit mpf values, and the cancellation.

    r may be an mpf.  The cancellation is sum |terms| / max(|A|, |B|): the
    factor by which rounding in a double-precision evaluation of the
    expansion grows, relative to the output's size.
    """
    N = order(m, k)
    with mpmath.workdps(DIGITS):
        rr = mpmath.mpf(r)
        z = mpmath.mpc(x0, rr)
        der = _derivs(name, z, N)
        rot = [1, mpmath.mpc(0, 1), -1, mpmath.mpc(0, -1)]
        A, B, sum_a, sum_b = (mpmath.mpf(0) for _ in range(4))
        rpow = rr ** (-2 * N)
        for j in range(N + 1):
            w = rot[j % 4] * der[j]
            sign = -1 if (N + j) % 2 else 1
            if j >= 1:
                term = bessel_coeff(j, N) * rpow * w.real
                A += sign * term
                sum_a += abs(term)
            term = bessel_coeff(j + 1, N + 1) * rpow * w.imag
            B += sign * term
            sum_b += abs(term)
            rpow *= rr
        g = double_factorial(2 * k + m - 1)
        return g * A, g * B, float(max(sum_a, sum_b) / max(abs(A), abs(B)))


def profile(h: str, m: int, k: int, x0: float, r: float):
    """Reference (A, B) for a benchmark function name ("z^n" or transcendental)."""
    if h.startswith("z^"):
        return power_profile(int(h[2:]), m, k, x0, r)
    return mp_profile(h, m, k, x0, r)


def profile_error(value: tuple[float, float], ref) -> float:
    """max |value - ref| over the two components, relative to max |ref|."""
    a, b = ref[:2]
    if isinstance(a, Fraction):
        scale = max(abs(a), abs(b))
        diff = max(abs(Fraction(value[0]) - a), abs(Fraction(value[1]) - b))
        return float(diff / scale)
    with mpmath.workdps(DIGITS):
        scale = max(abs(a), abs(b))
        diff = max(abs(mpmath.mpf(value[0]) - a), abs(mpmath.mpf(value[1]) - b))
        return float(diff / scale)


# -- full multivectors ---------------------------------------------------------


def _vector_product(u: dict[int, object], v: dict[int, object]) -> dict[int, object]:
    """Product of two grade-1 elements {generator j: coeff} of R_{0,m}.

    e_l e_l = -1; e_l e_j = e_{lj} for l < j and -e_{jl} for l > j.  Keys
    of the result are blade bit masks (bit j-1 for e_j), as fueter uses.
    """
    out: dict[int, object] = {}
    for l, cl in u.items():
        for j, cj in v.items():
            if l == j:
                key, sign = 0, -1
            else:
                key, sign = (1 << (l - 1)) | (1 << (j - 1)), (1 if l < j else -1)
            out[key] = out.get(key, 0) + sign * cl * cj
    return out


def map_reference(h: str, m: int, k: int, x0: float, vec) -> tuple[dict[int, object], float]:
    """Ft[h, P_k](x0 + vec) as {blade mask: coeff} at 50 digits, and the
    cancellation of its profile.

    (A + omega B) P_k(vec) with r = |vec| and omega = vec / r taken exactly
    from the float vector.  P_0 = 1; P_1 = x_1 e_2 + x_2 e_1 (the stock
    degree-1 monogenic).
    """
    with mpmath.workdps(DIGITS):
        xs = [mpmath.mpf(float(v)) for v in vec]
        rr = mpmath.sqrt(mpmath.fsum(v * v for v in xs))
        A, B, cancel = mp_profile(h, m, k, x0, rr)
        om = {j + 1: v / rr for j, v in enumerate(xs)}
        if k == 0:
            out = {0: A}
            for j, w in om.items():
                out[1 << (j - 1)] = B * w
            return out, cancel
        p = {2: xs[0], 1: xs[1]}
        out = {1 << (j - 1): A * c for j, c in p.items()}
        for key, c in _vector_product({j: B * w for j, w in om.items()}, p).items():
            out[key] = out.get(key, 0) + c
        return out, cancel


def map_error(coeffs: np.ndarray, ref: dict[int, object]) -> float:
    """max |coeff - ref| over all blades, relative to max |ref|."""
    with mpmath.workdps(DIGITS):
        scale = max(abs(mpmath.mpf(v)) for v in ref.values())
        worst = mpmath.mpf(0)
        for idx, c in enumerate(coeffs):
            worst = max(worst, abs(mpmath.mpf(float(c)) - ref.get(idx, 0)))
        return float(worst / scale)


def profile_np(name: str, m: int, k: int, x0: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) in double precision on arrays, for curvature estimates away from the axis."""
    N = order(m, k)
    z = x0 + 1j * r
    if name != "arctan":
        raise ValueError(f"no array reference for h={name!r}")
    der = [np.arctan(z)] + [
        (-1) ** (j - 1) * math.factorial(j - 1) * ((z - 1j) ** -j - (z + 1j) ** -j) / 2j
        for j in range(1, N + 1)
    ]
    A = np.zeros_like(r)
    B = np.zeros_like(r)
    for j in range(N + 1):
        w = 1j**j * der[j]
        sign = -1 if (N + j) % 2 else 1
        if j >= 1:
            A = A + sign * bessel_coeff(j, N) * r ** (j - 2 * N) * w.real
        B = B + sign * bessel_coeff(j + 1, N + 1) * r ** (j - 2 * N) * w.imag
    g = double_factorial(2 * k + m - 1)
    return g * A, g * B


def reciprocal_constant(m: int) -> float:
    """c with Ft[1/z] = c * conj(x) / |x|^(m+1) for k = 0 (from the 50-digit forward)."""
    x0, r = 0.75, 0.5
    A = mp_profile("recip", m, 0, x0, r)[0]
    with mpmath.workdps(DIGITS):
        return float(A / (mpmath.mpf(x0) / (mpmath.mpf(x0) ** 2 + mpmath.mpf(r) ** 2) ** mpmath.mpf((m + 1) / 2)))


# -- gauge-modulo checks for inversions ----------------------------------------


def gauge_residual(z: np.ndarray, diff: np.ndarray, degree: int) -> np.ndarray:
    """|diff - p(z)| per sample for the best real polynomial p of the given degree.

    z and diff are complex arrays (primitive minus known primitive).  The
    fit is in the centred, scaled variable (z - x_c) / s with real x_c,
    which spans the same real-coefficient polynomials in z.
    """
    xc = 0.5 * (z.real.min() + z.real.max())
    w = z - xc
    s = float(np.max(np.abs(w))) or 1.0
    w = w / s
    design = np.stack([w**j for j in range(degree + 1)], axis=1)
    mat = np.vstack([design.real, design.imag])
    rhs = np.concatenate([diff.real, diff.imag])
    coeffs, _, rank, _ = np.linalg.lstsq(mat, rhs, rcond=None)
    if rank < degree + 1:
        raise ValueError(f"gauge fit is rank deficient ({rank} < {degree + 1})")
    return np.abs(diff - design @ coeffs)
