import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fueter import jets
from fueter.clifford import Multivector, Paravector
from fueter.errors import NumericalError
from fueter.forward import (
    FueterConfig,
    axial_image,
    fueter_fields,
    fueter_map,
    fueter_profile,
    laplacian_oracle,
    paired,
)
from fueter.inverse import AxialFunction
from fueter.oracles import axial_field
from fueter.polynomials import builtin_pk
from fueter.radial import coeff_row

E1 = np.array([1.0, 0.0, 0.0])


def cfg3() -> FueterConfig:
    return FueterConfig(3, 0)


class TestConfig:
    def test_derived_quantities(self):
        c = FueterConfig(3, 1)
        assert c.N == 2
        assert c.leading_constant == 8
        assert c.kernel_degree == 3
        c = FueterConfig(5, 0)
        assert c.N == 2
        assert c.leading_constant == 8
        assert c.kernel_degree == 3

    def test_even_dimension_rejected(self):
        with pytest.raises(ValueError):
            FueterConfig(4, 0)

    def test_small_dimension_rejected(self):
        with pytest.raises(ValueError):
            FueterConfig(1, 0)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            FueterConfig(3, -1)


class TestPinnedValues:
    def test_square_at_unit_point(self):
        # first power past the kernel: Ft[z^2] = -4 at (1, e1) for (m, k) = (3, 0)
        val = fueter_map(jets.power(2), builtin_pk(3, 0), cfg3(), Paravector(1.0, E1))
        assert val == Multivector.scalar(3, -4.0)

    def test_kernel_powers_vanish(self):
        P = builtin_pk(3, 0)
        for n in (0, 1):
            val = fueter_map(jets.power(n), P, cfg3(), Paravector(0.7, 0.9 * E1))
            assert val.norm() <= 1e-12

    def test_reciprocal_matches_hand_derivation(self):
        # A = 2 (r^-1 d/dr) x0/(x0^2+r^2) = -4 x0/|z|^4, B = 4 r/|z|^4
        val = fueter_map(jets.recip(), builtin_pk(3, 0), cfg3(), Paravector(1.0, E1))
        expect = Multivector.from_pairs(3, [("", -1.0), ("1", 1.0)])
        assert (val - expect).norm() <= 1e-12
        val = fueter_map(jets.recip(), builtin_pk(3, 0), cfg3(), Paravector(0.3, 0.4 * E1))
        expect = Multivector.from_pairs(3, [("", -19.2), ("1", 25.6)])
        assert (val - expect).norm() <= 1e-10

    def test_profile_composition(self):
        h = jets.recip()
        c = cfg3()
        x0, r = 0.6, 1.1
        a, b = fueter_profile(h, c, x0, r)
        direction = np.array([0.0, 0.6, 0.8])
        val = fueter_map(h, builtin_pk(3, 0), c, Paravector(x0, r * direction))
        omega = Multivector.from_vector(3, direction)
        assert (val - (Multivector.scalar(3, a) + b * omega)).norm() <= 1e-12 * max(1.0, val.norm())


def composed_image(h, P, cfg, p) -> Multivector:
    """Ft[h, P_k] at p composed from a Paravector, its embedding and a product, as
    fueter_map once did: the reference its bits are pinned to."""
    a, b = fueter_profile(h, cfg, p.x0, p.r)
    return Paravector(a, b * p.omega).embed() * P(p.vec)


class TestImageBits:
    """fueter_map puts (a, b omega) straight on the blades: the bits of the composition."""

    @pytest.mark.parametrize("name", ["recip", "arctan", "z*arctan"])
    @pytest.mark.parametrize("m,k,sign", [(3, 0, 1), (5, 0, 1), (7, 0, 1), (9, 0, 1),
                                          (3, 1, 1), (3, 1, -1), (5, 1, 1), (5, 1, -1),
                                          (7, 1, 1), (7, 1, -1), (9, 1, 1), (9, 1, -1)])
    def test_map_equals_composition(self, name, m, k, sign):
        h, cfg = jets.by_name(name), FueterConfig(m, k)
        P = builtin_pk(m, k, 1, m, sign) if k else builtin_pk(m, 0)
        rng = np.random.default_rng(1000 * m + 10 * k + sign)
        omegas = [rng.normal(size=m) for _ in range(4)]
        omegas[0][m // 2] = 0.0  # a zero component of omega lands b * 0 on its blade
        for omega in omegas:
            p = Paravector(float(rng.uniform(-1.0, 1.0)), rng.uniform(0.2, 1.5) * omega / np.linalg.norm(omega))
            got, want = fueter_map(h, P, cfg, p), composed_image(h, P, cfg, p)
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
            a, b = fueter_profile(h, cfg, p.x0, p.r)
            assert axial_image(P, p, a, b).coeffs.tobytes() == want.coeffs.tobytes()

    def test_zero_b_on_the_imaginary_axis(self):
        # z^4 at x0 = 0 gives b = 0: the generator blades get b * omega = +-0 and drop out
        h, cfg, P = jets.power(4), FueterConfig(3, 0), builtin_pk(3, 0)
        p = Paravector(0.0, [0.6, 0.0, -0.8])
        got = fueter_map(h, P, cfg, p)
        assert got.coeffs.tobytes() == composed_image(h, P, cfg, p).coeffs.tobytes()
        assert [label for label, _ in got.to_pairs()] == [""]

    def test_image_on_the_axis_rejected(self):
        with pytest.raises(ValueError, match="omega is undefined at r = 0"):
            axial_image(builtin_pk(3, 0), Paravector(1.0, np.zeros(3)), 1.0, 1.0)


class TestOverflow:
    """A profile that overflows float64 raises NumericalError at its first such point,
    with no RuntimeWarning first (pytest turns one into an error)."""

    # Ft[1e307 z^3] for (m, k) = (3, 0): A = -1.2e308 x0, which overflows for |x0| > 1.5
    H = "poly:0,0,0,1e307"

    def test_scalar_profile(self):
        with pytest.raises(NumericalError, match=r"poly:0,0,0,1e\+307 overflows float64 at x0=2, r=1$"):
            fueter_profile(jets.by_name(self.H), cfg3(), 2.0, 1.0)
        assert fueter_profile(jets.by_name(self.H), cfg3(), 1.0, 1.0)[0] == pytest.approx(-1.2e308)

    @pytest.mark.parametrize("x0, r, where", [
        (np.array([0.5, 1.0, 2.0, 3.0]), 1.0, "x0=2, r=1"),
        (np.array([[0.5], [1.75]]), np.array([[0.5, 2.0]]), "x0=1.75, r=0.5"),
    ])
    def test_array_profile_names_first_point(self, x0, r, where):
        with pytest.raises(NumericalError, match=f"overflows float64 at {where}$"):
            fueter_profile(jets.by_name(self.H), cfg3(), x0, r)
        A, _ = fueter_fields(jets.by_name(self.H), cfg3())
        with pytest.raises(NumericalError, match=f"overflows float64 at {where}$"):
            A(x0, r)

    def test_map(self):
        with pytest.raises(NumericalError, match="overflows float64 at x0=2, r=1$"):
            fueter_map(jets.by_name(self.H), builtin_pk(3, 0), cfg3(), Paravector(2.0, [0.0, 0.6, 0.8]))


class TestLinearity:
    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=-3, max_value=3),
        st.floats(min_value=0.2, max_value=2.0),
        st.floats(min_value=0.3, max_value=1.5),
    )
    def test_real_linear(self, ca, cb, x0, r):
        c = cfg3()
        P = builtin_pk(3, 0)
        p = Paravector(x0, r * E1)
        h1, h2 = jets.power(2), jets.power(3)
        combo = jets.polynomial([0.0, 0.0, ca, cb])
        lhs = fueter_map(combo, P, c, p)
        rhs = ca * fueter_map(h1, P, c, p) + cb * fueter_map(h2, P, c, p)
        assert (lhs - rhs).norm() <= 1e-9 * max(1.0, rhs.norm())


class TestFieldViews:
    def test_fields_vectorize(self):
        A, B = fueter_fields(jets.recip(), cfg3())
        rs = np.array([0.5, 1.0, 1.5])
        av, bv = A(0.8, rs), B(0.8, rs)
        for i, r in enumerate(rs):
            a, b = fueter_profile(jets.recip(), cfg3(), 0.8, float(r))
            assert av[i] == pytest.approx(a)
            assert bv[i] == pytest.approx(b)

    @staticmethod
    def counting(h):
        """h, and a list that records the shape of every jet it builds."""
        calls = []
        return jets.HolomorphicFn(h.name, lambda z, d: calls.append(z.shape) or h.jet(z, d)), calls

    def test_a_then_b_share_one_jet(self):
        h, calls = self.counting(jets.arctan())
        cfg = FueterConfig(5, 1)
        A, B = fueter_fields(h, cfg)
        x0s, rs = np.linspace(0.2, 1.0, 4), np.linspace(0.5, 1.5, 4)
        want = fueter_profile(jets.arctan(), cfg, x0s, rs)
        a = A(x0s, rs)
        b = B(x0s.copy(), rs.copy())  # equal values, other objects
        assert calls == [(4,)]
        assert a.tolist() == want[0].tolist() and b.tolist() == want[1].tolist()
        assert (B(x0s, rs).tolist(), A(x0s, rs).tolist()) == (b.tolist(), a.tolist())
        assert calls == [(4,)] * 2
        assert (A(0.7, 0.9), B(0.7, 0.9)) == fueter_profile(jets.arctan(), cfg, 0.7, 0.9)
        assert len(calls) == 3

    def test_b_at_other_points_recomputes(self):
        h, calls = self.counting(jets.recip())
        A, B = fueter_fields(h, cfg3())
        rs = np.array([0.5, 1.0, 1.5])
        for first, then in [((0.8, rs), (0.9, rs)),               # other x0
                            ((0.8, rs), (0.8, rs[:2])),           # other r
                            ((0.8, rs), (np.full(3, 0.8), rs)),   # equal values, other shape
                            ((0.0, rs), (-0.0, rs)),              # other sign of zero
                            ((1, 2), (1, 2))]:                    # integers, not keyed by float64 bits
            del calls[:]
            A(*first)
            b = B(*then)
            assert len(calls) == 2
            assert np.array_equal(b, fueter_profile(jets.recip(), cfg3(), *then)[1])

    def test_b_after_input_mutated_in_place_recomputes(self):
        h, calls = self.counting(jets.arctan())
        A, B = fueter_fields(h, cfg3())
        rs = np.array([0.5, 1.0, 1.5])
        A(0.8, rs)
        rs[1] = 1.25
        b = B(0.8, rs)
        assert len(calls) == 2
        assert b.tolist() == fueter_profile(jets.arctan(), cfg3(), 0.8, np.array([0.5, 1.25, 1.5]))[1].tolist()

    def test_repeated_calls_return_fresh_arrays(self):
        h, calls = self.counting(jets.arctan())
        A, B = fueter_fields(h, cfg3())
        rs = np.array([0.5, 1.0, 1.5])
        first, second = A(0.8, rs), A(0.8, rs)
        assert first is not second and first.tolist() == second.tolist()
        b1, b2 = B(0.8, rs), B(0.8, rs)  # the kept B is handed out once
        assert b1 is not b2 and b1.tolist() == b2.tolist()
        assert len(calls) == 3

    def test_threads_sharing_the_evaluators_get_their_own_values(self):
        # each thread's B follows its own A at its own points; a kept component
        # another thread took or replaced must be recomputed, never mixed up
        A, B = fueter_fields(jets.recip(), cfg3())
        rs = np.array([0.5, 1.0, 1.5])
        wrong = []

        def worker(x0):
            want = fueter_profile(jets.recip(), cfg3(), x0, rs)
            for _ in range(100):
                a, b = A(x0, rs), B(x0, rs)
                if a.tolist() != want[0].tolist() or b.tolist() != want[1].tolist():
                    wrong.append(x0)

        run_threads(worker, [0.1 * (i + 1) for i in range(6)])
        assert wrong == []

    def test_real_axis_rejected(self):
        with pytest.raises(ValueError, match="r > 0"):
            fueter_map(jets.power(2), builtin_pk(3, 0), cfg3(), Paravector(1.0, np.zeros(3)))

    def test_mismatched_polynomial_rejected(self):
        with pytest.raises(ValueError):
            fueter_map(jets.power(2), builtin_pk(5, 0), cfg3(), Paravector(1.0, E1))
        with pytest.raises(ValueError):
            fueter_map(jets.power(4), builtin_pk(3, 1), cfg3(), Paravector(1.0, E1))

    def test_mismatched_point_rejected(self):
        with pytest.raises(ValueError):
            fueter_map(jets.power(2), builtin_pk(3, 0), cfg3(), Paravector(1.0, np.array([0.0, 1.0])))



def run_threads(worker, args) -> None:
    """Run worker(arg) for each arg on its own thread, switching threads as often as possible."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(arg,)) for arg in args]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


class TestPaired:
    """forward.paired: the one pairing of A and B, shared by fueter_fields and tabulated fields."""

    @staticmethod
    def counting():
        """A pair function of arrays, and a list that records the shape of r at every call."""
        calls = []

        def pair(x0, r):
            calls.append(np.shape(r))
            x0, r = np.asarray(x0, dtype=np.float64), np.asarray(r, dtype=np.float64)
            return x0 * r + 1.0, x0 - r * r

        return pair, calls

    def test_a_then_b_share_one_call(self):
        pair, calls = self.counting()
        A, B = paired(pair)
        x0s, rs = np.linspace(0.2, 1.0, 4), np.linspace(0.5, 1.5, 4)
        a, b = A(x0s, rs), B(x0s.copy(), rs.copy())  # equal values, other objects
        assert calls == [(4,)]
        assert a.tolist() == pair(x0s, rs)[0].tolist() and b.tolist() == pair(x0s, rs)[1].tolist()
        del calls[:]
        assert (B(x0s, rs).tolist(), A(x0s, rs).tolist()) == (b.tolist(), a.tolist())
        assert calls == [(4,)]

    def test_other_points_recompute(self):
        pair, calls = self.counting()
        A, B = paired(pair)
        rs = np.array([0.5, 1.0, 1.5])
        for first, then in [((0.8, rs), (0.9, rs)), ((0.0, rs), (-0.0, rs)), ((1, 2), (1, 2))]:
            want = pair(*then)[1]
            del calls[:]
            A(*first)
            assert np.array_equal(B(*then), want)
            assert len(calls) == 2

    def test_each_call_returns_a_fresh_value(self):
        pair, calls = self.counting()
        A, B = paired(pair)
        rs = np.array([0.5, 1.0, 1.5])
        a1, a2 = A(0.8, rs), A(0.8, rs)
        b1, b2 = B(0.8, rs), B(0.8, rs)  # the kept B is handed out once
        assert a1 is not a2 and b1 is not b2 and len(calls) == 3
        a1[:] = 0.0
        assert b1.tolist() == b2.tolist() and a2.tolist() == pair(0.8, rs)[0].tolist()

    @pytest.mark.parametrize("source", ["pair", "tabulated"])
    def test_threads_sharing_the_evaluators_get_their_own_values(self, source):
        # each thread's B follows its own A at its own points; a kept component
        # another thread took or replaced must be recomputed, never mixed up
        if source == "pair":
            pair, _ = self.counting()
        else:  # a tabulated field's interpolant, example1 on a 7 x 6 grid
            H = axial_field("example1")
            xs, rs = H.rect.grid(7, 6)
            points = [{"x0": x, "r": r, "value": [H.A(x, r), H.B(x, r)]} for x, r in zip(xs.tolist(), rs.tolist())]
            meta = {"m": H.m, "k": H.k, "rect": list(H.rect.as_tuple()), "nx0": 7, "nr": 6}
            G = AxialFunction.from_grid({"meta": meta, "points": points})
            pair = lambda x0, r: (G.A(x0, r), G.B(x0, r))  # noqa: E731
        A, B = paired(pair) if source == "pair" else (G.A, G.B)
        rs = np.array([0.5, 1.0, 1.5])
        wants = {x0: [c.tolist() for c in pair(x0, rs)] for x0 in (0.1 * (i + 1) for i in range(6))}
        wrong = []

        def worker(x0):
            for _ in range(100):
                if [A(x0, rs).tolist(), B(x0, rs).tolist()] != wants[x0]:
                    wrong.append(x0)

        run_threads(worker, list(wants))
        assert wrong == []


class TestLaplacianOracle:
    @pytest.mark.parametrize("name", ["recip", "z^3", "arctan"])
    def test_agrees_with_radial_form(self, name):
        h = jets.by_name(name)
        c = cfg3()
        P = builtin_pk(3, 0)
        p = Paravector(0.8, np.array([0.3, 0.5, 0.2]))
        want = fueter_map(h, P, c, p)
        got = laplacian_oracle(h, P, c, p, fd_step=1e-3)
        assert (got - want).norm() <= 1e-3 * max(1.0, want.norm())

    def test_second_order_case(self):
        h = jets.recip()
        c = FueterConfig(5, 0)
        P = builtin_pk(5, 0)
        p = Paravector(1.0, np.array([0.9, 0.0, 0.3, 0.0, 0.0]))
        want = fueter_map(h, P, c, p)
        got = laplacian_oracle(h, P, c, p, fd_step=2e-3)
        assert (got - want).norm() <= 2e-2 * max(1.0, want.norm())

    def test_high_order_refused(self):
        c = FueterConfig(7, 0)
        with pytest.raises(ValueError, match="N <= 2"):
            laplacian_oracle(jets.recip(), builtin_pk(7, 0), c, Paravector(1.0, np.ones(7)))

    @pytest.mark.parametrize("step", [0.0, -1e-3, float("nan"), float("inf")])
    def test_non_finite_or_nonpositive_step_refused(self, step):
        with pytest.raises(ValueError, match="finite and positive"):
            laplacian_oracle(jets.recip(), builtin_pk(3, 0), cfg3(), Paravector(1.0, E1), fd_step=step)

    def test_axis_crossing_refused(self):
        with pytest.raises(ValueError, match="stencil"):
            laplacian_oracle(jets.recip(), builtin_pk(3, 0), cfg3(), Paravector(1.0, 1e-4 * E1))


def exact_power_profile(n: int, m: int, k: int, x0: float, r: float) -> tuple[Fraction, Fraction]:
    """Exact (A, B) of Ft[z^n] at the float point (x0, r).

    u + iv = (x0 + i r)^n as polynomials in r with rational coefficients; the
    operators act on monomials exactly: (r^-1 d/dr) r^p = p r^(p-2) and
    (d/dr r^-1) r^p = (p-1) r^(p-2).
    """
    N = k + (m - 1) // 2
    X, R = Fraction(x0), Fraction(r)
    u = {j: (-1) ** (j // 2) * math.comb(n, j) * X ** (n - j) for j in range(0, n + 1, 2)}
    v = {j: (-1) ** (j // 2) * math.comb(n, j) * X ** (n - j) for j in range(1, n + 1, 2)}
    for _ in range(N):
        u = {p - 2: c * p for p, c in u.items() if p != 0}
        v = {p - 2: c * (p - 1) for p, c in v.items() if p != 1}
    g = math.prod(range(2 * k + m - 1, 0, -2))
    return g * sum(c * R**p for p, c in u.items()), g * sum(c * R**p for p, c in v.items())


def exact_recip_profile(m: int, k: int, x0: float, r: float) -> tuple[Fraction, Fraction]:
    """Exact (A, B) of Ft[1/z] at the float point (x0, r).

    With s = r^2, r^-1 d/dr = 2 d/ds; u = x0/(x0^2 + s) and v = -r/(x0^2 + s),
    and (d/dr r^-1)^N (r f(s)) = r 2^N f^(N)(s).
    """
    N = k + (m - 1) // 2
    X, R = Fraction(x0), Fraction(r)
    f = Fraction(2**N * (-1) ** N * math.factorial(N)) / (X * X + R * R) ** (N + 1)
    g = math.prod(range(2 * k + m - 1, 0, -2))
    return g * X * f, -g * R * f


def relative_error(a: float, b: float, ref: tuple[Fraction, Fraction]) -> float:
    """max |(a, b) - ref| over the two components, relative to max |ref|."""
    scale = max(abs(ref[0]), abs(ref[1]))
    return float(max(abs(Fraction(a) - ref[0]), abs(Fraction(b) - ref[1])) / scale)


BATCH_FUNCTIONS = ("recip", "arctan", "log", "z*arctan", "power", "poly:1,-2,0,0.5,0,0,0,0,0,0,0,0,0,0.25")


class TestBatchShape:
    """A point's profile has the same bits alone, in a column and in a grid."""

    @pytest.mark.parametrize("name", BATCH_FUNCTIONS)
    @pytest.mark.parametrize("m,k", [(3, 0), (3, 2), (9, 0), (9, 2)])
    def test_profile_bits_independent_of_batch(self, name, m, k):
        h = jets.power(2 * k + m) if name == "power" else jets.by_name(name)
        cfg = FueterConfig(m, k)
        x0s, rs = np.meshgrid(np.linspace(0.1, 1.4, 5), np.geomspace(0.01, 1.7, 8), indexing="ij")
        grid = fueter_profile(h, cfg, x0s, rs)
        column = fueter_profile(h, cfg, x0s.ravel(), rs.ravel())
        A, B = fueter_fields(h, cfg)
        for which in (0, 1):
            assert grid[which].shape == (5, 8) and grid[which].dtype == np.float64
            assert np.array_equal(grid[which].ravel(), column[which])
        assert np.array_equal(A(x0s, rs), grid[0]) and np.array_equal(B(x0s, rs), grid[1])
        for i, j in np.ndindex(5, 8):
            a, b = fueter_profile(h, cfg, float(x0s[i, j]), float(rs[i, j]))
            assert type(a) is float and type(b) is float
            assert (a, b) == (grid[0][i, j], grid[1][i, j])

    def test_scalar_x0_broadcasts_over_r(self):
        rs = np.array([0.5, 1.0, 1.5])
        a, b = fueter_profile(jets.recip(), cfg3(), 0.8, rs)
        assert a.shape == b.shape == (3,)
        assert [a[1], b[1]] == list(fueter_profile(jets.recip(), cfg3(), 0.8, 1.0))

    def test_nonpositive_r_in_batch_rejected(self):
        rs = np.array([0.5, 1.0, -0.25, 1.5])
        with pytest.raises(ValueError, match="r > 0, got r=-0.25"):
            fueter_profile(jets.recip(), cfg3(), 0.8, rs)
        A, _ = fueter_fields(jets.arctan(), cfg3())
        with pytest.raises(ValueError, match="r > 0, got r=0.0"):
            A(np.array([0.3, 0.4]), np.array([0.5, 0.0]))


LONGDOUBLE_EXTENDED = np.finfo(np.longdouble).eps < 2.0**-60


class TestNearAxisAccuracy:
    """Near the axis the radial expansion cancels; extended precision keeps digits.

    Where longdouble is wider than double (x86-64 Linux), the bounds are those
    extended precision reaches; where it is not, the float64 errors of the
    double-precision evaluation.
    """

    @pytest.mark.parametrize(
        "m,k,r,extended_tol,double_tol",
        [(9, 0, 0.01, 1e-6, 1e-3), (9, 1, 0.01, 1e-3, 2.0), (5, 1, 0.01, 1e-9, 1e-7)],
    )
    def test_power_against_exact_reference(self, m, k, r, extended_tol, double_tol):
        n = 2 * k + m
        a, b = fueter_profile(jets.power(n), FueterConfig(m, k), 0.7, r)
        err = relative_error(a, b, exact_power_profile(n, m, k, 0.7, r))
        assert err <= (extended_tol if LONGDOUBLE_EXTENDED else double_tol)

    def test_reference_against_pinned_value(self):
        # Ft[z^3] for (m, k) = (3, 0) is (-12 x0, -4 r)
        assert exact_power_profile(3, 3, 0, 0.5, 0.25) == (Fraction(-6), Fraction(-1))


class TestLargeOrder:
    """At N = 16 and N = 26 the expansion's integers pass 2**63."""

    @pytest.mark.parametrize("r", [0.8, 1.3])
    def test_power_m9_k12(self, r):
        cfg = FueterConfig(9, 12)
        assert math.perm(33, cfg.N) > 2**63
        a, b = fueter_profile(jets.power(33), cfg, np.array([0.7]), np.array([r]))
        assert a.dtype == b.dtype == np.float64
        assert relative_error(a[0], b[0], exact_power_profile(33, 9, 12, 0.7, r)) <= 1e-8

    @pytest.mark.parametrize("r", [0.8, 1.3])
    def test_recip_m3_k25(self, r):
        cfg = FueterConfig(3, 25)
        assert max(coeff_row(cfg.N)) > 2**63
        a, b = fueter_profile(jets.recip(), cfg, np.array([0.7]), np.array([r]))
        assert a.dtype == b.dtype == np.float64
        assert relative_error(a[0], b[0], exact_recip_profile(3, 25, 0.7, r)) <= 1e-10
