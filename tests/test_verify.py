"""The Cauchy-Riemann residual, the kernel scan and the polynomial gauge fit."""

import numpy as np
import pytest

from fueter import jets
from fueter.clifford import Multivector, Paravector
from fueter.forward import FueterConfig, e1_point, fueter_map, laplacian_oracle
from fueter.inverse import Rectangle
from fueter.polynomials import builtin_pk
from fueter.jets import circle_coefficients
from fueter.verify import cr_residual, kernel_check, polynomial_fit_residual

RECT = Rectangle(0.3, 1.0, 0.5, 1.2)
CENTRES = np.array([0.5 + 0.7j, 0.8 + 1.0j, 0.6 + 0.9j])


class TestCrResidual:
    def test_holomorphic_pair_passes(self):
        assert cr_residual(circle_coefficients(lambda w: w * w, CENTRES, 0.2), 0.2) <= 1e-13

    def test_detects_violation(self):
        # conj(z)^2 on a circle about z0 has c_-1 = 2 conj(z0) radius: 4|z0| per circle
        for z0 in CENTRES:
            assert cr_residual(circle_coefficients(lambda w: np.conj(w) ** 2, z0, 0.2), 0.2) == pytest.approx(4 * abs(z0), rel=1e-14)

    def test_f_called_once_for_all_circles(self):
        shapes = []
        cr_residual(circle_coefficients(lambda w: shapes.append(w.shape) or w, CENTRES, 0.2), 0.2)
        assert shapes == [(3, jets.CIRCLE_POINTS)]

    def test_all_circles_match_one_at_a_time(self):
        # each circle's FFT row is its own, so the batch gives the largest
        # single-circle value bit for bit
        def f(w):
            return w * w + 1e-9 * np.conj(w) ** 2

        def cr(z):
            return cr_residual(circle_coefficients(f, z, 0.2), 0.2)

        assert cr(CENTRES) == max(cr(z0) for z0 in CENTRES)

    @pytest.mark.parametrize("radius", [0.0, -1e-3, float("nan"), float("inf")])
    def test_non_finite_or_nonpositive_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="finite and positive"):
            cr_residual(circle_coefficients(lambda w: w, CENTRES, 0.2), radius)


class TestMonogenicity:
    @pytest.mark.parametrize("m,k", [(3, 0), (3, 1), (5, 0)])
    @pytest.mark.parametrize("name", ["z^2", "recip", "arctan"])
    def test_forward_images_are_monogenic(self, m, k, name):
        # Fueter's theorem: the Laplacian to the power N of (u + omega v) P_k is
        # monogenic, and the forward map must equal it; the oracle's central
        # differences carry O(step^2) truncation and O(eps / step^(2N)) rounding
        h, P, cfg = jets.by_name(name), builtin_pk(m, k), FueterConfig(m, k)
        step, tol = (1e-3, 1e-4) if cfg.N == 1 else (2e-3, 2e-2)
        dirv = np.ones(m) / np.sqrt(m)  # oblique, so no stencil term vanishes by symmetry
        for x0, r in zip(*RECT.grid(3, 3)):
            p = Paravector(x0, r * dirv)
            want = fueter_map(h, P, cfg, p)
            got = laplacian_oracle(h, P, cfg, p, fd_step=step)
            assert (got - want).norm() <= tol * max(1.0, want.norm()), (m, k, name, x0, r)

    def test_detects_non_monogenic_field(self):
        # the scalar x0^2 is not monogenic; added to a forward image it leaves the oracle's bound
        h, P, cfg = jets.recip(), builtin_pk(3, 0), FueterConfig(3, 0)
        p = Paravector(0.6, 0.8 * np.ones(3) / np.sqrt(3))
        bad = fueter_map(h, P, cfg, p) + Multivector.scalar(3, 0.6**2)
        assert (laplacian_oracle(h, P, cfg, p) - bad).norm() > 0.3


class TestKernelCheck:
    def test_kernel_and_survivor(self):
        max_in, expected = kernel_check(1, 0, 3, RECT, 3, 3)
        assert expected and max_in <= 1e-10
        max_out, expected = kernel_check(2, 0, 3, RECT, 3, 3)
        assert not expected and max_out > 0.1

    def test_matches_kernel_degree(self):
        for n in range(5):
            _, expected = kernel_check(n, 1, 3, RECT, 2, 2)
            assert expected == (n <= 3)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            kernel_check(-1, 0, 3, RECT, 2, 2)

    @pytest.mark.parametrize("m", [3, 5, 9])
    @pytest.mark.parametrize("k, pk", [(0, ()), (1, (1, 3, 1)), (1, (1, 3, -1))], ids=["k0", "k1+", "k1-"])
    def test_equals_a_pointwise_scan(self, m, k, pk):
        # one profile call over the grid gives each point's fueter_map image bit for bit
        P, cfg = builtin_pk(m, k, *pk), FueterConfig(m, k)
        xs, rs = RECT.grid(4, 3)
        for n in (cfg.kernel_degree - 1, cfg.kernel_degree + 1):
            pointwise = max(fueter_map(jets.power(n), P, cfg, e1_point(m, x0, r)).norm() for x0, r in zip(xs, rs))
            assert kernel_check(n, k, m, RECT, 4, 3, P=P) == (pointwise, n <= cfg.kernel_degree)

    def test_polynomial_of_another_dimension_rejected(self):
        with pytest.raises(ValueError, match="m=5"):
            kernel_check(1, 0, 3, RECT, 2, 2, P=builtin_pk(5, 0))


class TestPolynomialFit:
    def test_exact_polynomial_fits(self):
        zs = [complex(x, y) for x in (0.0, 0.5, 1.0) for y in (0.5, 1.0)]
        samples = [(z, 2.0 - z + 3.0 * z**2) for z in zs]
        assert polynomial_fit_residual(samples, 2) <= 1e-12

    def test_residual_detects_higher_degree(self):
        zs = [complex(x, y) for x in np.linspace(0, 1, 4) for y in (0.5, 1.0)]
        samples = [(z, z**3) for z in zs]
        assert polynomial_fit_residual(samples, 1) > 1e-3

    def test_complex_coefficients_not_fittable(self):
        # real-coefficient fits cannot absorb i*z
        zs = [complex(x, y) for x in np.linspace(0, 1, 4) for y in (0.5, 1.0)]
        samples = [(z, 1j * z) for z in zs]
        assert polynomial_fit_residual(samples, 1) > 1e-2

    def test_rank_deficiency_raises(self):
        samples = [(0.5 + 0.5j, 1.0)] * 6
        with pytest.raises(ValueError, match="rank"):
            polynomial_fit_residual(samples, 2)

    def test_sample_count_checked(self):
        with pytest.raises(ValueError, match="samples"):
            polynomial_fit_residual([(0.5j, 1.0)], 1)
        with pytest.raises(ValueError):
            polynomial_fit_residual([(0.5j, 1.0)], -1)
