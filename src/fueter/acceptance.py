"""The nine acceptance checks, runnable from pytest or the CLI selftest.

Each criterion function is deterministic (fixed seeds), returns a
CriterionResult with pinned tolerances in the detail string, and never
raises on a mere numerical miss; genuine exceptions propagate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .clifford import Multivector, Paravector
from .forward import FueterConfig, e1_point, fueter_map, fueter_profile, laplacian_oracle
from .inverse import AxialFunction, Rectangle, invert, radial_integrals
from .jets import polynomial, power, recip
from .oracles import SphereQuadrature, axial_field, example1_oracle, example2_oracle, sphere_cauchy_integral
from .polynomials import builtin_pk
from .radial import coeff_a, coeff_row, double_factorial, nested_antiderivative_oracle
from .verify import kernel_check, polynomial_fit_residual


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(number: int, name: str, t0: float, passed: bool, detail: str) -> CriterionResult:
    return CriterionResult(number, name, bool(passed), detail, time.perf_counter() - t0)


# -- 1: round-trip on the cubic field -----------------------------------------

RT_TOL_UV = 1e-8
RT_TOL_AB = 1e-10
RT_BUDGET_S = 5.0


def criterion_1() -> CriterionResult:
    """Invert A=-12x0, B=-4r; compare with z^3 + z/4; push it forward again."""
    t0 = time.perf_counter()
    H = axial_field("cubic")
    prim = invert(H)
    h = polynomial([0.0, 0.25, 0.0, 1.0])
    cfg = FueterConfig(3, 0)
    x0s, r0s = H.rect.grid(20, 20)
    u, v = prim.eval(x0s, r0s)
    z = x0s + 1j * r0s
    want = z**3 + 0.25 * z
    uv_err = float(max(np.max(np.abs(u - want.real)), np.max(np.abs(v - want.imag))))
    a, b = fueter_profile(h, cfg, x0s, r0s)
    ab_err = float(max(np.max(np.abs(a - (-12.0 * x0s))), np.max(np.abs(b - (-4.0 * r0s)))))
    elapsed = time.perf_counter() - t0
    ok = uv_err <= RT_TOL_UV and ab_err <= RT_TOL_AB and elapsed < RT_BUDGET_S
    detail = (
        f"max|u+iv - (z^3+z/4)| = {uv_err:.2e} (tol {RT_TOL_UV:g}); "
        f"max|(A,B) - (-12x0,-4r)| = {ab_err:.2e} (tol {RT_TOL_AB:g}); "
        f"{elapsed:.2f}s (budget {RT_BUDGET_S:g}s)"
    )
    return _result(1, "round-trip on the cubic field", t0, ok, detail)


# -- 2: worked N=2 inversion, integrals and primitive --------------------------

EX1_TOL_I = 1e-10
EX1_TOL_UV = 1e-6


def criterion_2() -> CriterionResult:
    """radial_integrals and FueterPrimitive.eval against the m=5 closed forms."""
    t0 = time.perf_counter()
    rect = Rectangle(0.2, 1.0, 0.5, 1.5)
    H = axial_field("example1", rect)
    c = rect.c
    xs, rs = Rectangle(0.2, 1.0, 0.6, 1.4).grid(10, 10)
    points = list(zip(xs.tolist(), rs.tolist()))
    i_err = 0.0
    for x0, r in points:
        i1, i2 = radial_integrals(H, x0, r)
        i_err = max(
            i_err,
            abs(i1 - example1_oracle("I1", x0=x0, r=r, c=c)),
            abs(i2 - example1_oracle("I2", x0=x0, r=r, c=c)),
        )
    init = [
        example1_oracle("alpha0", x0=rect.a, c=c),
        example1_oracle("alpha1", x0=rect.a, c=c),
        example1_oracle("beta0", x0=rect.a, c=c),
        example1_oracle("beta1", x0=rect.a, c=c),
    ]
    prim = invert(H, init=init)
    u, v = prim.eval(xs, rs)
    uv_err = float(max(
        np.max(np.abs(u - example1_oracle("u", x0=xs, r=rs))),
        np.max(np.abs(v - example1_oracle("v", x0=xs, r=rs))),
    ))
    ok = i_err <= EX1_TOL_I and uv_err <= EX1_TOL_UV
    detail = (
        f"max integral error = {i_err:.2e} (tol {EX1_TOL_I:g}); "
        f"max primitive error = {uv_err:.2e} (tol {EX1_TOL_UV:g})"
    )
    return _result(2, "worked N=2 inversion (m=5)", t0, ok, detail)


# -- 3: spherical-mean fields invert to arctan primitives ----------------------

EX2_TOL_FIT = 1e-6
EX2_SAMPLES = 30


def criterion_3() -> CriterionResult:
    """Zero-init inversions differ from the arctan primitives by real deg-1 polys."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    fits = {}
    for name, w_field in (("example2-nplus", "Wplus"), ("example2-nminus", "Wminus")):
        H = axial_field(name)
        prim = invert(H)
        # each sample draws its x0, then its r
        x0s, rs = rng.uniform((H.rect.a, H.rect.c), (H.rect.b, H.rect.d), (EX2_SAMPLES, 2)).T
        zs = (x0s + 1j * rs).tolist()
        samples = [(z, w - example2_oracle(w_field, z.real, z.imag)) for z, w in zip(zs, prim(zs).tolist())]
        fits[name] = polynomial_fit_residual(samples, 1)
    ok = all(v <= EX2_TOL_FIT for v in fits.values())
    detail = (
        f"gauge-fit residuals: nplus {fits['example2-nplus']:.2e}, "
        f"nminus {fits['example2-nminus']:.2e} (tol {EX2_TOL_FIT:g}, deg 1, "
        f"{EX2_SAMPLES} samples)"
    )
    return _result(3, "spherical-mean fields invert to arctan primitives", t0, ok, detail)


# -- 4: kernel of the transform ------------------------------------------------

KER_TOL_ZERO = 1e-9
KER_MIN_NONZERO = 0.1
KER_BUDGET_S = 10.0


def criterion_4() -> CriterionResult:
    """z^n is annihilated iff n <= 2k+m-2; first survivor is visibly nonzero."""
    t0 = time.perf_counter()
    rect = Rectangle(0.3, 1.3, 0.4, 1.4)
    worst_zero = 0.0
    least_nonzero = math.inf
    lines = []
    for k, m in ((0, 3), (1, 3), (0, 5)):
        cfg = FueterConfig(m, k)
        for n in range(cfg.kernel_degree + 1):
            max_norm, expected_zero = kernel_check(n, k, m, rect, 5, 5)
            assert expected_zero
            worst_zero = max(worst_zero, max_norm)
        n1 = cfg.kernel_degree + 1
        val = fueter_map(power(n1), builtin_pk(m, k), cfg, e1_point(m, 1.0, 1.0)).norm()
        least_nonzero = min(least_nonzero, val)
        lines.append(f"(k={k},m={m}): n<={cfg.kernel_degree} zero, |Ft[z^{n1}]|(1,1)={val:.3g}")
    elapsed = time.perf_counter() - t0
    ok = worst_zero <= KER_TOL_ZERO and least_nonzero >= KER_MIN_NONZERO and elapsed < KER_BUDGET_S
    detail = (
        f"max kernel residual = {worst_zero:.2e} (tol {KER_TOL_ZERO:g}); "
        f"min survivor = {least_nonzero:.3g} (>= {KER_MIN_NONZERO:g}); "
        f"{elapsed:.2f}s (budget {KER_BUDGET_S:g}s); " + "; ".join(lines)
    )
    return _result(4, "kernel of the transform", t0, ok, detail)


# -- 5: single-integral antiderivatives vs nested recursion --------------------

ANTI_TOL = 1e-9
ANTI_FIELDS = 50
ANTI_ORACLE_ORDER = 8  # 16-node levels, exact for these degrees


def criterion_5() -> CriterionResult:
    """radial_integrals / (2n-2)!! == nested_antiderivative_oracle on random polynomial fields."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(ANTI_FIELDS):
        deg = int(rng.integers(0, 6))
        coeffs = rng.uniform(-2.0, 2.0, deg + 1)
        a = float(rng.uniform(0.1, 1.5))
        x = float(rng.uniform(a + 0.2, 3.0))
        p = lambda x0, t, c=coeffs: np.polynomial.polynomial.polyval(t, c)
        rect = Rectangle(0.0, 1.0, a, 3.0)
        for n in range(1, 5):
            scale = double_factorial(2 * n - 2)
            i1, i2 = radial_integrals(AxialFunction(p, p, 3, n - 1, rect), 0.0, x)  # m = 3, k = n - 1: N = n
            phi, psi = nested_antiderivative_oracle(lambda t: p(0.0, t), a, x, n, ANTI_ORACLE_ORDER)
            worst = max(worst, abs(i1 / scale - phi), abs(i2 / scale - psi))
    ok = worst <= ANTI_TOL
    detail = (
        f"max |single-integral - nested| = {worst:.2e} (tol {ANTI_TOL:g}; "
        f"{ANTI_FIELDS} fields, n<=4, both variants)"
    )
    return _result(5, "radial integrals vs nested recursion oracle", t0, ok, detail)


# -- 6: operator expansion identities, exact rational --------------------------

# Laurent polynomials over Q as {exponent: Fraction}; enough machinery to
# apply the radial operators symbolically and compare with the expansion.


def _lp_clean(p: dict[int, Fraction]) -> dict[int, Fraction]:
    return {e: c for e, c in p.items() if c != 0}


def _lp_deriv(p: dict[int, Fraction]) -> dict[int, Fraction]:
    return _lp_clean({e - 1: c * e for e, c in p.items() if e != 0})


def _lp_shift(p: dict[int, Fraction], s: int) -> dict[int, Fraction]:
    return {e + s: c for e, c in p.items()}


def _lp_add_scaled(p: dict[int, Fraction], q: dict[int, Fraction], scale: Fraction) -> dict[int, Fraction]:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + scale * c
    return _lp_clean(out)


def _lp_nested(g: dict[int, Fraction], n: int, variant: str) -> dict[int, Fraction]:
    p = dict(g)
    for _ in range(n):
        if variant == "minus":
            p = _lp_shift(_lp_deriv(p), -1)  # x^-1 d/dx
        else:
            p = _lp_deriv(_lp_shift(p, -1))  # d/dx x^-1
    return _lp_clean(p)


def _lp_expansion(g: dict[int, Fraction], n: int, variant: str) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    deriv = dict(g)
    if variant == "minus":
        for j in range(1, n + 1):
            deriv = _lp_deriv(deriv)
            sign = Fraction((-1) ** (n + j) * coeff_a(j, n))
            out = _lp_add_scaled(out, _lp_shift(deriv, j - 2 * n), sign)
    else:
        for j in range(0, n + 1):
            if j > 0:
                deriv = _lp_deriv(deriv)
            sign = Fraction((-1) ** (n + j) * coeff_a(j + 1, n + 1))
            out = _lp_add_scaled(out, _lp_shift(deriv, j - 2 * n), sign)
    return _lp_clean(out)


def criterion_6() -> CriterionResult:
    """Expansion formulas match literal operator nesting over Q; row (3,3,1)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    mismatches = 0
    cases = 0
    for deg in range(0, 9):
        g = {
            e: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 5)))
            for e in range(deg + 1)
        }
        g[deg] = g.get(deg, Fraction(0)) + 1  # keep the degree honest
        g = _lp_clean(g)
        for n in range(1, 5):
            for variant in ("minus", "plus"):
                cases += 1
                if _lp_nested(g, n, variant) != _lp_expansion(g, n, variant):
                    mismatches += 1
    row_ok = coeff_row(3) == (3, 3, 1)
    ok = mismatches == 0 and row_ok
    detail = (
        f"{cases} exact rational cases, {mismatches} mismatches; "
        f"coeff_row(3) = {coeff_row(3)} (want (3, 3, 1))"
    )
    return _result(6, "radial operator expansion identities (exact)", t0, ok, detail)


# -- 7: spherical mean vs closed forms ------------------------------------------

SPHERE_TOL = 1e-4
SPHERE_FLOOR = 1e-12
SPHERE_LADDER = ((2, 4), (4, 8), (8, 16), (16, 32), (32, 64), (64, 128))


def criterion_7() -> CriterionResult:
    """Product quadrature reproduces both spherical-mean fields; errors shrink."""
    t0 = time.perf_counter()
    x0, r = 1.2, 0.3
    q = e1_point(3, x0, r)
    e1 = Multivector.basis_vector(3, 1)
    expected = {
        False: Multivector.scalar(3, example2_oracle("Nplus_A", x0, r))
        + example2_oracle("Nplus_B", x0, r) * e1,
        True: Multivector.scalar(3, example2_oracle("Nminus_A", x0, r))
        + example2_oracle("Nminus_B", x0, r) * e1,
    }
    finals = {}
    monotone = True
    ladders = {}
    for with_omega in (False, True):
        errs = []
        for res in SPHERE_LADDER:
            quad = SphereQuadrature(*res)
            got = sphere_cauchy_integral(q, with_omega, quad)
            errs.append((got - expected[with_omega]).norm())
        capped = [max(e, SPHERE_FLOOR) for e in errs]
        monotone = monotone and all(b <= a for a, b in zip(capped, capped[1:]))
        finals[with_omega] = errs[-1]
        ladders[with_omega] = errs
    ok = monotone and all(e <= SPHERE_TOL for e in finals.values())
    detail = (
        f"64x128 errors: plus {finals[False]:.2e}, minus {finals[True]:.2e} "
        f"(tol {SPHERE_TOL:g}); doubling ladder monotone (floor {SPHERE_FLOOR:g}): {monotone}; "
        f"plus ladder {['%.1e' % e for e in ladders[False]]}"
    )
    return _result(7, "spherical mean vs closed forms", t0, ok, detail)


# -- 8: forward map vs FD Laplacian oracle --------------------------------------

FD_STEPS = (2e-2, 1e-2)
FD_MIN_ORDER = 1.9
FD_FLOOR = 1e-9


def criterion_8() -> CriterionResult:
    """|fueter_map - laplacian_oracle| is O(step^2): order >= 1.9 or at the floor.

    For h = z^2 the undifferentiated field is a quadratic polynomial, so
    the FD Laplacian is exact and both errors sit at rounding level; the
    floor clause records that degenerate (strongest) form of convergence.
    """
    t0 = time.perf_counter()
    cfg = FueterConfig(3, 0)
    P = builtin_pk(3, 0)
    p = Paravector(1.0, [0.5, 0.4, 0.3])
    lines = []
    ok = True
    for h in (power(2), recip()):
        ft = fueter_map(h, P, cfg, p)
        errs = [(laplacian_oracle(h, P, cfg, p, fd_step=s) - ft).norm() for s in FD_STEPS]
        if max(errs) <= FD_FLOOR:
            lines.append(f"{h.name}: errors {errs[0]:.1e}, {errs[1]:.1e} (at floor {FD_FLOOR:g})")
            continue
        if errs[1] == 0.0:
            lines.append(f"{h.name}: exact at finer step")
            continue
        order = math.log2(errs[0] / errs[1])
        lines.append(f"{h.name}: errors {errs[0]:.1e}, {errs[1]:.1e}, order {order:.2f}")
        ok = ok and order >= FD_MIN_ORDER
    detail = f"steps {FD_STEPS}; min order {FD_MIN_ORDER}; " + "; ".join(lines)
    return _result(8, "forward map vs FD Laplacian oracle", t0, ok, detail)


# -- 9: algebra property suite ---------------------------------------------------

ALG_CHECKS = 10_000
ALG_REL_TOL = 1e-12
ALG_BUDGET_S = 5.0


def criterion_9() -> CriterionResult:
    """Randomized anticommutation / associativity / conjugation checks, m <= 5."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    failures = 0
    checks = 0
    ms = (2, 3, 4, 5)
    per_m = ALG_CHECKS // (len(ms) * 3) + 1
    for m in ms:
        dim = 1 << m
        for _ in range(per_m):
            # anticommutation on generators (exact table entries)
            i = int(rng.integers(1, m + 1))
            j = int(rng.integers(1, m + 1))
            ei, ej = Multivector.basis_vector(m, i), Multivector.basis_vector(m, j)
            anti = ei * ej + ej * ei
            want = Multivector.scalar(m, -2.0 if i == j else 0.0)
            checks += 1
            if not (anti - want).is_zero():
                failures += 1
            # associativity
            a = Multivector(m, rng.uniform(-1, 1, dim))
            b = Multivector(m, rng.uniform(-1, 1, dim))
            c = Multivector(m, rng.uniform(-1, 1, dim))
            lhs = (a * b) * c
            rhs = a * (b * c)
            scale = 1.0 + a.norm() * b.norm() * c.norm()
            checks += 1
            if (lhs - rhs).norm() > ALG_REL_TOL * scale:
                failures += 1
            # conjugation anti-homomorphism
            lhs = (a * b).conjugate()
            rhs = b.conjugate() * a.conjugate()
            scale = 1.0 + a.norm() * b.norm()
            checks += 1
            if (lhs - rhs).norm() > ALG_REL_TOL * scale:
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and checks >= ALG_CHECKS and elapsed < ALG_BUDGET_S
    detail = (
        f"{checks} checks, {failures} failures (rel tol {ALG_REL_TOL:g}); "
        f"{elapsed:.2f}s (budget {ALG_BUDGET_S:g}s)"
    )
    return _result(9, "Clifford algebra property suite", t0, ok, detail)


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]


def format_result(res: CriterionResult) -> str:
    status = "PASS" if res.passed else "FAIL"
    return f"[{res.number}/9] {res.name}: {status} ({res.seconds:.2f}s) {res.detail}"
