"""Jet arithmetic and the named holomorphic function registry."""

import cmath

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fueter import jets
from fueter.jets import CUT_TOL, radial_derivatives

TOL = 1e-12


def jets_close(a: np.ndarray, b: np.ndarray, tol=TOL) -> bool:
    if a.shape != b.shape:
        return False
    scale = max(np.max(np.abs(a)), 1.0)
    return bool(np.all(np.abs(a - b) <= tol * scale))


class TestElementaryJets:
    def test_recip_at_one(self):
        j = jets.recip().jet(1.0, 3)
        assert np.array_equal(j, (1.0, -1.0, 2.0, -6.0))

    def test_arctan_at_zero(self):
        j = jets.arctan().jet(0.0, 3)
        assert np.allclose(j, (0.0, 1.0, 0.0, -2.0))

    def test_z_arctan_at_zero(self):
        j = jets.z_arctan().jet(0.0, 3)
        assert np.allclose(j, (0.0, 0.0, 2.0, 0.0))

    def test_log_at_one(self):
        j = jets.log().jet(1.0, 4)
        assert np.allclose(j, (0.0, 1.0, -1.0, 2.0, -6.0))

    def test_power_jet(self):
        j = jets.power(3).jet(2.0, 4)
        assert np.array_equal(j, (8.0, 12.0, 12.0, 6.0, 0.0))

    def test_arctan_matches_sympy(self):
        # sympy's exact derivatives of atan at the exact binary values of the points,
        # among them one within 0.01 of the branch point i and one at |z| = 1e3
        order = 20
        x = sympy.Symbol("x")
        derivatives = [sympy.atan(x)]
        for _ in range(order):
            derivatives.append(sympy.diff(derivatives[-1], x))
        for z in (0.7 + 0.01j, 0.005 + 0.995j, 600 + 800j, 0.3 + 0.4j, -1.5 + 2.0j):
            got = jets.arctan().jet(z, order).astype(np.complex128)
            exact_z = sympy.Rational(z.real) + sympy.I * sympy.Rational(z.imag)
            for n, derivative in enumerate(derivatives):
                exact = complex(sympy.N(derivative.subs(x, exact_z), 30))
                assert abs(got[n] - exact) <= 1e-14 * abs(exact), (z, n)

    def test_recip_rejects_origin(self):
        with pytest.raises(ValueError, match=r"recip is not defined at z=0j"):
            jets.recip().jet(0.0, 2)


class TestBranchCuts:
    def test_arctan_cut_rejected(self):
        with pytest.raises(ValueError, match=r"arctan is not defined at z=\(1e-13\+1\.5j\)"):
            jets.arctan().jet(complex(1e-13, 1.5), 2)
        with pytest.raises(ValueError, match="not defined at z="):
            jets.arctan().jet(1.0j, 1)

    def test_arctan_off_cut_accepted(self):
        j = jets.arctan().jet(complex(0.1, 1.5), 2)
        assert cmath.isclose(j[0], cmath.atan(complex(0.1, 1.5)))

    def test_log_cut_rejected(self):
        with pytest.raises(ValueError, match=r"log is not defined at z=\(-1\+0j\)"):
            jets.log().jet(-1.0, 2)
        with pytest.raises(ValueError, match="not defined at z="):
            jets.log().jet(complex(-2.0, 0.5 * CUT_TOL), 1)

    def test_cut_anywhere_in_a_batch_rejected(self):
        z = np.array([[0.5 + 0.5j, 0.2 + 1.5j], [1.5j, 0.3 + 0.1j]])
        with pytest.raises(ValueError, match=r"arctan is not defined at z=1\.5j"):
            jets.arctan().jet(z, 2)
        with pytest.raises(ValueError, match=r"z\*arctan is not defined at z=1\.5j"):
            jets.z_arctan().jet(z, 2)
        z = np.array([0.5 + 0.5j, -2.0 + 0j, 1.0 + 0j])
        with pytest.raises(ValueError, match=r"log is not defined at z=\(-2\+0j\)"):
            jets.log().jet(z, 1)
        with pytest.raises(ValueError, match="not defined at z=0j"):
            jets.recip().jet(np.array([1.0, 0.0]), 1)

    @pytest.mark.parametrize("name,predicate", [
        ("arctan", "_off_arctan_cut"), ("z*arctan", "_off_arctan_cut"), ("log", "_off_log_cut"),
    ])
    def test_cut_tested_once_per_jet(self, monkeypatch, name, predicate):
        calls = []
        real = getattr(jets, predicate)
        monkeypatch.setattr(jets, predicate, lambda z: calls.append(z.shape) or real(z))
        h = jets.by_name(name)
        z = np.array([0.5 + 0.5j, 0.2 + 0.7j])
        builder = {"arctan": jets._arctan, "log": jets._log}.get(name)
        ref = builder(z.astype(np.clongdouble), 3) if builder else None
        calls.clear()
        j = h.jet(z, 3)
        assert calls == [(2,)]
        if ref is not None:
            assert np.array_equal(j, ref)

    def test_log_off_axis_accepted(self):
        j = jets.log().jet(complex(-2.0, 0.1), 1)
        assert cmath.isclose(j[1], 1.0 / complex(-2.0, 0.1))


class TestJetAlgebra:
    def test_product_rule(self):
        # (z^2 * z^3) jet must equal the z^5 jet
        z = 1.3
        prod = (jets.power(2) * jets.power(3)).jet(z, 4)
        assert jets_close(prod, jets.power(5).jet(z, 4))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=-3, max_value=3), min_size=1, max_size=5),
        st.lists(st.floats(min_value=-3, max_value=3), min_size=1, max_size=5),
        st.floats(min_value=-2, max_value=2),
    )
    def test_polynomial_product_matches_convolution(self, p, q, x):
        d = 6
        lhs = (jets.polynomial(p) * jets.polynomial(q)).jet(x, d)
        conv = [0.0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                conv[i + j] += a * b
        rhs = jets.polynomial(conv).jet(x, d)
        assert jets_close(lhs, rhs, tol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.integers(min_value=0, max_value=12),
    )
    def test_arctan_derivative_times_one_plus_z_squared(self, x, r, d):
        # (1 + z^2) arctan'(z) = 1: every order of the product but the zeroth vanishes
        b = jets.polynomial([1.0, 0.0, 1.0]).jet(complex(x, r), d)
        q = jets.arctan().jet(complex(x, r), d + 1)[1:]
        got = jets._product(b, q)
        # bound each order by the rounding of its Leibniz terms sum_i C(n, i) |b^(n-i)| |q^(i)|
        size = np.abs(jets._product(np.abs(b), np.abs(q)))
        want = np.zeros(d + 1)
        want[0] = 1.0
        assert np.all(np.abs(got - want) <= 16 * np.finfo(np.longdouble).eps * size)


class TestHolomorphicFn:
    def test_call_values(self):
        assert jets.recip()(2.0) == pytest.approx(0.5)
        assert jets.arctan()(1.0) == pytest.approx(cmath.atan(1.0).real)
        assert jets.z_arctan()(0.0) == 0.0

    def test_combinators(self):
        f = jets.identity() * jets.identity() + jets.constant(1.0)
        z = complex(0.4, 0.7)
        assert cmath.isclose(f(z), z * z + 1.0)
        j = f.jet(z, 3)
        assert jets_close(j, jets.polynomial([1.0, 0.0, 1.0]).jet(z, 3))

    def test_domain_propagates_through_combinators(self):
        f = jets.recip() * jets.arctan()
        with pytest.raises(ValueError, match=r"\(recip \* arctan\) is not defined at z=0j"):
            f.jet(0.0, 1)
        with pytest.raises(ValueError, match=r"not defined at z=1\.5j"):
            f.jet(1.5j, 1)
        assert f.jet(1.0, 1).shape == (2,)
        with pytest.raises(ValueError, match=r"not defined at z=1\.5j"):
            f.jet(np.array([1.0, 1.5j, 0.0]), 1)
        assert jets.power(2).jet(np.zeros((2, 3)), 1).shape == (2, 2, 3)

    def test_array_points(self):
        z = np.array([[0.5 + 0.5j, 1.0 + 0.2j, 2.0 + 1.0j]])
        j = jets.z_arctan().jet(z, 3)
        assert j.shape == (4, 1, 3) and j.dtype == np.clongdouble
        for i, zi in enumerate(z[0]):
            assert np.array_equal(j[:, 0, i], jets.z_arctan().jet(zi, 3))
        values = jets.arctan()(z)
        assert values.dtype == np.complex128
        assert np.allclose(values, np.arctan(z), rtol=1e-15, atol=0)


class TestFromCallable:
    # each at least 2.5 radii from the singularities 0 and +-i, so the aliased
    # Taylor terms CIRCLE_POINTS orders up weigh at most 0.4^32 ~ 2e-13
    POINTS = np.array([0.5 + 0.5j, 1.0 + 0.3j, 0.4 + 1.3j])

    @pytest.mark.parametrize("name", ["recip", "arctan", "log", "z*arctan"])
    def test_matches_exact_jets(self, name):
        h = jets.by_name(name)
        got = jets.HolomorphicFn.from_callable(h, 0.2).jet(self.POINTS, 6)
        want = h.jet(self.POINTS, 6)
        for n in range(7):
            assert np.max(np.abs(got[n] - want[n])) <= 1e-10 * np.max(np.abs(want[n])), n

    def test_one_call_per_jet(self):
        shapes = []
        f = jets.HolomorphicFn.from_callable(lambda w: shapes.append(w.shape) or w * w, 0.1)
        assert f.jet(self.POINTS.reshape(3, 1), 2).shape == (3, 3, 1)
        assert shapes == [(3, jets.CIRCLE_POINTS)]

    @pytest.mark.parametrize("radius", [0.0, -0.1, float("nan"), float("inf")])
    def test_bad_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius"):
            jets.HolomorphicFn.from_callable(np.exp, radius)

    def test_order_below_circle_points(self):
        f = jets.HolomorphicFn.from_callable(np.exp, 0.5)
        assert f.jet(0.0, jets.CIRCLE_POINTS - 1).shape == (jets.CIRCLE_POINTS,)
        with pytest.raises(ValueError, match="order"):
            f.jet(0.0, jets.CIRCLE_POINTS)


class TestByName:
    @pytest.mark.parametrize(
        "name,val_at,expect",
        [
            ("recip", 2.0, 0.5),
            ("arctan", 0.0, 0.0),
            ("z*arctan", 1.0, cmath.atan(1.0).real),
            ("z^4", 2.0, 16.0),
            ("const:2.5", 9.0, 2.5),
            ("poly:1,0,2", 3.0, 19.0),
            ("log", 1.0, 0.0),
        ],
    )
    def test_known_names(self, name, val_at, expect):
        f = jets.by_name(name)
        assert f(val_at) == pytest.approx(expect)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown holomorphic function"):
            jets.by_name("nosuch")

    def test_bad_power(self):
        with pytest.raises(ValueError):
            jets.by_name("z^-1")


class TestRadialDerivatives:
    def test_square_at_1_2(self):
        # h = z^2 at x0=1, r=2: u = -3, v = 4; radial derivatives follow i^j h^(j)
        u, v = radial_derivatives(jets.power(2), 1.0, 2.0, 2)
        assert np.allclose(u, [-3.0, -4.0, -2.0])
        assert np.allclose(v, [4.0, 2.0, 0.0])

    def test_cauchy_riemann_consistency(self):
        # dv/dr equals du/dx0; check via jets of z^3 at two nearby points
        h = jets.power(3)
        x0, r = 0.7, 0.4
        u, v = radial_derivatives(h, x0, r, 1)
        eps = 1e-6
        u_plus, _ = radial_derivatives(h, x0 + eps, r, 0)
        u_minus, _ = radial_derivatives(h, x0 - eps, r, 0)
        assert v[1] == pytest.approx((u_plus[0] - u_minus[0]) / (2 * eps), rel=1e-6)

    def test_order_zero(self):
        u, v = radial_derivatives(jets.recip(), 1.0, 1.0, 0)
        assert u.shape == (1,) and v.shape == (1,)
        assert u[0] == pytest.approx(0.5)
        assert v[0] == pytest.approx(-0.5)
