"""Closed-form reference fields, pinned values, and the sphere-mean cross-check."""

import cmath
import math

import numpy as np
import pytest

from fueter.clifford import Multivector, Paravector
from fueter.forward import FueterConfig, fueter_fields, fueter_map, laplacian_oracle
from fueter.inverse import Rectangle
from fueter import jets
from fueter.oracles import (
    SphereQuadrature,
    axial_field,
    cauchy_kernel,
    example1_oracle,
    example2_oracle,
    sphere_cauchy_integral,
    unit_sphere_area,
)
from fueter.polynomials import builtin_pk

E1_3 = np.array([1.0, 0.0, 0.0])


def cauchy_kernel_constant(m: int) -> float:
    """c_m with Ft[c_m / z] the Cauchy kernel: Ft[1/z] = (-1)^N 2^(m-1) (N!)^2 conj(x)/|x|^(m+1),
    N = (m-1)/2, and the kernel is conj(x) / (area of S^m |x|^(m+1))."""
    n = (m - 1) // 2
    return 1.0 / (unit_sphere_area(m + 1) * (-1) ** n * 2 ** (m - 1) * math.factorial(n) ** 2)


def assert_forward_image(H, h) -> None:
    """The profiles of the field H equal fueter_fields of h on a 7 x 7 grid over H.rect,
    to 1e-13 of their largest magnitude: H is the image of h, so axially monogenic."""
    A, B = fueter_fields(h, FueterConfig(H.m, H.k))
    x0, r = np.meshgrid(np.linspace(H.rect.a, H.rect.b, 7), np.linspace(H.rect.c, H.rect.d, 7))
    want = np.stack([A(x0, r), B(x0, r)])
    assert np.max(np.abs(np.stack([H.A(x0, r), H.B(x0, r)]) - want)) <= 1e-13 * np.max(np.abs(want)), H.name


class TestSphereAreas:
    def test_known_values(self):
        assert unit_sphere_area(2) == pytest.approx(2 * math.pi)
        assert unit_sphere_area(3) == pytest.approx(4 * math.pi)
        assert unit_sphere_area(4) == pytest.approx(2 * math.pi**2)
        assert unit_sphere_area(6) == pytest.approx(math.pi**3)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            unit_sphere_area(0)


class TestCauchyKernel:
    def test_value_at_basis_point(self):
        val = cauchy_kernel(3, Paravector(0.0, E1_3))
        assert (val - Multivector.from_pairs(3, [("1", -1.0 / (2 * math.pi**2))])).norm() <= 1e-15

    def test_forward_image_of_reciprocal(self):
        # Ft[1/z] = -4 conj(x)/|x|^4 = -8 pi^2 E(x) for m = 3
        cfg = FueterConfig(3, 0)
        P = builtin_pk(3, 0)
        for x0, vec in ((1.0, E1_3), (0.3, np.array([0.1, -0.5, 0.2]))):
            p = Paravector(x0, vec)
            lhs = fueter_map(jets.recip(), P, cfg, p)
            rhs = -8 * math.pi**2 * cauchy_kernel(3, p)
            assert (lhs - rhs).norm() <= 1e-12 * max(1.0, rhs.norm())

    def test_monogenicity(self):
        # the kernel is the Laplacian of (c_3/z) P_0, monogenic by Fueter's theorem,
        # checked with the independent FD oracle at oblique points
        c = cauchy_kernel_constant(3)
        dirv = np.ones(3) / np.sqrt(3)
        for x0, r in zip(*Rectangle(0.4, 1.2, 0.5, 1.3).grid(4, 4)):
            p = Paravector(x0, r * dirv)
            want = cauchy_kernel(3, p)
            got = c * laplacian_oracle(jets.recip(), builtin_pk(3, 0), FueterConfig(3, 0), p)
            assert (got - want).norm() <= 1e-5 * want.norm()

    def test_origin_rejected(self):
        with pytest.raises(ValueError, match="singular"):
            cauchy_kernel(3, Paravector(0.0, np.zeros(3)))


class TestExample1:
    def test_reconstruction_identity(self):
        # u = K_2 I1 + alpha0 + alpha1 r^2 and v = K_2 I2 + beta0 r + beta1 r^3
        # must hold exactly among the closed forms (K_2 = 1/16)
        c = 0.5
        for x0 in (0.1, 0.6, 1.0):
            for r in (0.6, 1.0, 1.4):
                u = (
                    example1_oracle("I1", x0=x0, r=r, c=c) / 16
                    + example1_oracle("alpha0", x0=x0, c=c)
                    + example1_oracle("alpha1", x0=x0, c=c) * r * r
                )
                v = (
                    example1_oracle("I2", x0=x0, r=r, c=c) / 16
                    + example1_oracle("beta0", x0=x0, c=c) * r
                    + example1_oracle("beta1", x0=x0, c=c) * r**3
                )
                assert u == pytest.approx(example1_oracle("u", x0=x0, r=r), rel=1e-12)
                assert v == pytest.approx(example1_oracle("v", x0=x0, r=r), rel=1e-12)

    def test_primitive_is_reciprocal_over_64(self):
        for x0, r in ((0.2, 0.9), (1.0, 1.5)):
            z = complex(x0, r)
            w = complex(
                example1_oracle("u", x0=x0, r=r), example1_oracle("v", x0=x0, r=r)
            )
            assert cmath.isclose(w, 1.0 / (64 * z), rel_tol=1e-12)

    def test_field_is_axially_monogenic(self):
        assert_forward_image(axial_field("example1"), jets.recip() * (1 / 64))

    def test_missing_argument_rejected(self):
        with pytest.raises(ValueError, match="needs argument"):
            example1_oracle("I1", x0=0.5, r=1.0)
        with pytest.raises(ValueError, match="unknown"):
            example1_oracle("w", x0=0.5, r=1.0)


class TestExample2:
    def test_pinned_values(self):
        # hand-evaluated: denom(1, 0.5) = 4.0625, log ratio at (0, 0.5) = log 9
        assert example2_oracle("Nplus_A", 1.0, 0.5) == pytest.approx((2 / math.pi) / 4.0625)
        want = (2 * 0.75 / 0.5625 - math.log(9.0)) / math.pi
        assert example2_oracle("Nplus_B", 0.0, 0.5) == pytest.approx(want, rel=1e-15)
        assert example2_oracle("Nplus_B", 0.0, 0.5) == pytest.approx(0.14942805802465547)

    def test_primitives(self):
        assert example2_oracle("Wplus", 0.0, 0.0) == 0.0
        z = complex(0.3, 0.4)
        assert cmath.isclose(
            example2_oracle("Wplus", 0.3, 0.4), cmath.atan(z) / (2 * math.pi), rel_tol=1e-12
        )
        assert cmath.isclose(
            example2_oracle("Wminus", 0.3, 0.4), z * cmath.atan(z) / (2 * math.pi), rel_tol=1e-12
        )

    def test_fields_are_axially_monogenic(self):
        assert_forward_image(axial_field("example2-nplus"), jets.arctan() * (1 / (2 * math.pi)))
        assert_forward_image(axial_field("example2-nminus"), jets.z_arctan() * (1 / (2 * math.pi)))

    def test_singularity_guards(self):
        with pytest.raises(ValueError, match="r > 0"):
            example2_oracle("Nplus_A", 0.5, 0.0)
        with pytest.raises(ValueError, match="singular"):
            example2_oracle("Nminus_B", 0.0, 1.0)


class TestSphereMean:
    def test_agrees_with_plus_closed_form(self):
        # the mean without omega is axial with the Nplus profiles
        q = Paravector(0.0, 0.5 * E1_3)
        val = sphere_cauchy_integral(q, with_omega=False, quad=SphereQuadrature(32, 64))
        want_b = example2_oracle("Nplus_B", 0.0, 0.5)
        assert val.coeffs[0] == pytest.approx(example2_oracle("Nplus_A", 0.0, 0.5), abs=1e-13)
        assert val.coeffs[1] == pytest.approx(want_b, abs=1e-13)

    def test_agrees_with_minus_closed_form(self):
        q = Paravector(0.4, 0.5 * E1_3)
        val = sphere_cauchy_integral(q, with_omega=True, quad=SphereQuadrature(32, 64))
        assert val.coeffs[0] == pytest.approx(example2_oracle("Nminus_A", 0.4, 0.5), abs=1e-13)
        assert val.coeffs[1] == pytest.approx(example2_oracle("Nminus_B", 0.4, 0.5), abs=1e-13)

    def test_off_axis_components_vanish(self):
        q = Paravector(0.3, 0.6 * E1_3)
        val = sphere_cauchy_integral(q, quad=SphereQuadrature(8, 16))
        # axial in the e1 direction: e2, e3 and all bivector parts cancel
        rest = val - Multivector.scalar(3, val.coeffs[0]) - Multivector.from_pairs(3, [("1", val.coeffs[1])])
        assert rest.norm() <= 1e-14

    def test_weights_sum_to_area(self):
        quad = SphereQuadrature(6, 10)
        assert quad.weights.sum() == pytest.approx(4 * math.pi)
        assert np.allclose(np.linalg.norm(quad.nodes, axis=1), 1.0)

    def test_guards(self):
        with pytest.raises(ValueError, match="unit sphere"):
            sphere_cauchy_integral(Paravector(0.0, E1_3))
        with pytest.raises(ValueError):
            SphereQuadrature(1, 8)
        with pytest.raises(ValueError, match="m = 3"):
            sphere_cauchy_integral(Paravector(0.0, 0.5 * np.array([1.0, 0, 0, 0, 0])))


class TestNamedFields:
    def test_registry(self):
        for name in ("example1", "example2-nplus", "example2-nminus", "cubic", "cauchy-kernel"):
            H = axial_field(name)
            assert H.rect.c > 0

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown axial field"):
            axial_field("example3")

    def test_cauchy_kernel_field_any_odd_m(self):
        pinned = {3: -0.0126652, 5: 5.03931e-4, 7: -1.33672e-5, 9: 2.65931e-7}
        for m, c in pinned.items():
            assert cauchy_kernel_constant(m) == pytest.approx(c, rel=1e-5)
            assert_forward_image(axial_field("cauchy-kernel", m=m), jets.recip() * cauchy_kernel_constant(m))
        assert cauchy_kernel_constant(3) == pytest.approx(-1 / (8 * math.pi**2), rel=1e-15)
        with pytest.raises(ValueError):
            axial_field("cauchy-kernel", m=4)

    def test_cubic_field_is_image_of_z_cubed(self):
        assert_forward_image(axial_field("cubic"), jets.power(3))

    def test_custom_rectangle(self):
        rect = Rectangle(0.1, 0.9, 0.2, 0.7)
        H = axial_field("cubic", rect=rect)
        assert H.rect == rect


CLOSED_FORMS = [("example1", None), ("example2-nplus", None), ("example2-nminus", None), ("cubic", None)]
CLOSED_FORMS += [("cauchy-kernel", m) for m in (3, 5, 7, 9)]


class TestClosedFormPairs:
    """Each built-in closed form is written once, as a pair (A, B); A, B and the oracles' components
    are its projections."""

    @pytest.mark.parametrize("name,m", CLOSED_FORMS)
    def test_pair_equals_components_bit_for_bit(self, name, m):
        H = axial_field(name, m=m)
        rng = np.random.default_rng(11)
        a, b, c, d = H.rect.as_tuple()
        inputs = [
            (0.37 * a + 0.63 * b, 0.81 * c + 0.19 * d),  # two scalars
            (0.5 * (a + b), rng.uniform(c, d, 48)),  # a scalar x0 and radial nodes
            (rng.uniform(a, b, (3, 4)), rng.uniform(c, d, (3, 4))),  # chain-style arrays
        ]
        for x0, r in inputs:
            pair = H.pair(x0, r)
            for got, want in zip(pair, (H.A(x0, r), H.B(x0, r))):
                got, want = np.asarray(got), np.asarray(want)
                assert got.shape == want.shape == np.shape(r)
                assert got.tobytes() == want.tobytes(), (name, m)

    def test_oracle_components_are_the_field_pairs(self):
        x0, r = 0.41, 0.67
        a, b = axial_field("example1").pair(x0, r)
        assert (example1_oracle("A", x0=x0, r=r), example1_oracle("B", x0=x0, r=r)) == (a, b)
        for name, tag in (("example2-nplus", "Nplus"), ("example2-nminus", "Nminus")):
            a, b = axial_field(name).pair(x0, r)
            assert (example2_oracle(f"{tag}_A", x0, r), example2_oracle(f"{tag}_B", x0, r)) == (a, b)

    @pytest.mark.parametrize("with_omega", [False, True], ids=["Nplus", "Nminus"])
    def test_example2_matches_the_sphere_mean(self, with_omega):
        # the closed forms against the product quadrature over the sphere, off
        # the sphere's trace (0, 1): near the axis, inside, outside and far out
        tag = "Nminus" if with_omega else "Nplus"
        for x0, r in [(0.0, 0.3), (0.3, 0.5), (0.7, 1.2), (1.2, 0.8), (-0.4, 2.5), (0.5, 0.05)]:
            val = sphere_cauchy_integral(Paravector(x0, r * E1_3), with_omega, SphereQuadrature(32, 64))
            want = (example2_oracle(f"{tag}_A", x0, r), example2_oracle(f"{tag}_B", x0, r))
            assert val.coeffs[:2].tolist() == pytest.approx(want, abs=1e-13), (x0, r)
