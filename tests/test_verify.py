"""Finite-difference residual checks and the polynomial gauge fit."""

import numpy as np
import pytest

from fueter import jets
from fueter.clifford import Paravector
from fueter.forward import FueterConfig, fueter_fields, fueter_map
from fueter.inverse import Rectangle
from fueter.polynomials import builtin_pk
from fueter.verify import (
    GridSpec,
    cr_residual,
    kernel_check,
    monogenicity_residual,
    polynomial_fit_residual,
    vekua_residual,
)

RECT = Rectangle(0.3, 1.0, 0.5, 1.2)


class TestGridSpec:
    def test_default_step_scales_with_rectangle(self):
        grid = GridSpec(RECT, 4, 4)
        assert grid.step == pytest.approx(1e-4 * 0.7)

    def test_explicit_step(self):
        assert GridSpec(RECT, 4, 4, fd_step=1e-3).step == 1e-3

    def test_axes_stay_inside(self):
        grid = GridSpec(RECT, 5, 5, fd_step=1e-2)
        xs, rs = grid.axes()
        assert xs.min() > RECT.a and xs.max() < RECT.b
        assert rs.min() > RECT.c and rs.max() < RECT.d

    def test_oversized_step_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            GridSpec(RECT, 4, 4, fd_step=1.0).axes()

    @pytest.mark.parametrize("step", [0.0, -1e-3, float("nan"), float("inf")])
    def test_non_finite_or_nonpositive_step_rejected_at_construction(self, step):
        with pytest.raises(ValueError, match="finite and positive"):
            GridSpec(RECT, 4, 4, fd_step=step)

    def test_point_counts(self):
        grid = GridSpec(RECT, 3, 4)
        assert len(list(grid.points())) == 12


class TestVekuaResidual:
    def test_detects_violation(self):
        # A = x0, B = 0 leaves dA/dx0 = 1 unbalanced
        grid = GridSpec(RECT, 4, 4)
        report = vekua_residual(lambda x0, r: x0, lambda x0, r: 0.0, 0, 3, grid)
        assert report.max == pytest.approx(1.0, rel=1e-6)

    def test_passes_axial_profile(self):
        # (A, B) = (3 x0, r): dA/dx0 - dB/dr = 2 = (gamma/r) B with gamma = 2
        grid = GridSpec(RECT, 4, 4)
        report = vekua_residual(lambda x0, r: 3.0 * x0, lambda x0, r: r, 0, 3, grid)
        assert report.max <= 1e-9

    def test_report_metadata(self):
        grid = GridSpec(RECT, 3, 3)
        report = vekua_residual(lambda x0, r: 0.0, lambda x0, r: 0.0, 0, 3, grid)
        blob = report.to_json()
        assert blob["name"] == "vekua"
        assert blob["grid"]["nx0"] == 3
        assert blob["max"] == 0.0


class TestCrResidual:
    def test_holomorphic_pair_passes(self):
        grid = GridSpec(RECT, 4, 4)
        u = lambda x0, r: x0 * x0 - r * r
        v = lambda x0, r: 2 * x0 * r
        assert cr_residual(lambda x0, r: (u(x0, r), v(x0, r)), grid).max <= 1e-9

    def test_detects_violation(self):
        grid = GridSpec(RECT, 4, 4)
        u = lambda x0, r: x0 * x0
        report = cr_residual(lambda x0, r: (u(x0, r), 0.0), grid)
        xs, _ = grid.axes()
        assert report.max == pytest.approx(2 * xs.max(), rel=1e-6)


class TestStencilCalls:
    def pointwise(self, A, B, k, m, grid):
        """The Vekua residuals one scalar stencil at a time."""
        h, gamma = grid.step, 2 * k + m - 1
        vals = []
        for x0, r in grid.points():
            ax = (A(x0 + h, r) - A(x0 - h, r)) / (2 * h)
            ar = (A(x0, r + h) - A(x0, r - h)) / (2 * h)
            bx = (B(x0 + h, r) - B(x0 - h, r)) / (2 * h)
            br = (B(x0, r + h) - B(x0, r - h)) / (2 * h)
            vals.append(max(abs(float(ax - br - gamma / r * B(x0, r))), abs(float(bx + ar))))
        return vals

    def pointwise_cr(self, uv, grid):
        """The Cauchy-Riemann residuals one scalar stencil at a time."""
        h = grid.step
        vals = []
        for x0, r in grid.points():
            (ue, ve), (uw, vw) = uv(x0 + h, r), uv(x0 - h, r)
            (un, vn), (us, vs) = uv(x0, r + h), uv(x0, r - h)
            ux, ur = (ue - uw) / (2 * h), (un - us) / (2 * h)
            vx, vr = (ve - vw) / (2 * h), (vn - vs) / (2 * h)
            vals.append(max(abs(float(ux - vr)), abs(float(ur + vx))))
        return vals

    def test_one_array_call_per_stencil_offset(self):
        A, B = fueter_fields(jets.arctan(), FueterConfig(5, 1))
        sizes = []

        def counted(fn):
            return lambda x0, r: sizes.append(np.size(r)) or fn(x0, r)

        grid = GridSpec(RECT, 6, 7)
        report = vekua_residual(counted(A), counted(B), 1, 5, grid)
        assert sizes == [42] * 9  # four offsets per field and B at the centre
        # fueter_fields gives a point the same bits alone or in a batch, so
        # the report equals the scalar stencils' bit for bit
        vals = self.pointwise(A, B, 1, 5, grid)
        assert (report.max, report.mean) == (max(vals), float(np.mean(vals)))
        sizes.clear()
        cr_residual(lambda x0, r: (counted(A)(x0, r), counted(B)(x0, r)), grid)
        assert sizes == [42] * 8

    def test_pair_function_called_once_per_offset(self):
        A, B = fueter_fields(jets.arctan(), FueterConfig(5, 1))
        sizes = []

        def pair(x0, r):
            sizes.append(np.size(r))
            return A(x0, r), B(x0, r)

        grid = GridSpec(RECT, 6, 7)
        report = cr_residual(pair, grid)
        assert sizes == [42] * 4
        vals = self.pointwise_cr(lambda x0, r: (A(x0, r), B(x0, r)), grid)
        assert (report.max, report.mean) == (max(vals), float(np.mean(vals)))


class TestMonogenicity:
    @pytest.mark.parametrize("m,k", [(3, 0), (3, 1), (5, 0)])
    @pytest.mark.parametrize("name", ["z^2", "recip", "arctan"])
    def test_forward_images_are_monogenic(self, m, k, name):
        h, P, cfg = jets.by_name(name), builtin_pk(m, k), FueterConfig(m, k)

        def F(y):
            return fueter_map(h, P, cfg, Paravector(y[0], y[1:]))

        grid = GridSpec(RECT, 4, 4, fd_step=1e-5)
        report = monogenicity_residual(F, m, grid)
        assert report.max <= 1e-4, (m, k, name)

    def test_detects_non_monogenic_field(self):
        from fueter.clifford import Multivector

        def F(y):
            return Multivector.scalar(3, float(y[0] ** 2))

        grid = GridSpec(RECT, 4, 4)
        report = monogenicity_residual(F, 3, grid)
        assert report.max > 0.5


class TestKernelCheck:
    def test_kernel_and_survivor(self):
        grid = GridSpec(RECT, 3, 3)
        max_in, expected = kernel_check(1, 0, 3, grid)
        assert expected and max_in <= 1e-10
        max_out, expected = kernel_check(2, 0, 3, grid)
        assert not expected and max_out > 0.1

    def test_matches_kernel_degree(self):
        grid = GridSpec(RECT, 2, 2)
        for n in range(5):
            _, expected = kernel_check(n, 1, 3, grid)
            assert expected == (n <= 3)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            kernel_check(-1, 0, 3, GridSpec(RECT, 2, 2))


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
