"""Integral inversion: primitives of axial fields on a rectangle."""

import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import fueter
from fueter import inverse, jets, quadrature
from fueter.errors import NumericalError, QuadratureError
from fueter.forward import FueterConfig, fueter_fields, fueter_profile, order_constants
from fueter.inverse import (
    BLEND_DEGREE,
    EDGE_TOL,
    AxialFunction,
    Rectangle,
    _fh_basis,
    _fh_weights,
    _snap,
    _radial_rule,
    invert,
    radial_integrals,
)
from fueter.oracles import axial_field, example1_oracle
from fueter.quadrature import DEFAULT_QUADRATURE, PANEL_ORDER, QuadratureConfig, integrate
from fueter.verify import polynomial_fit_residual

RECT = Rectangle(0.0, 1.0, 0.5, 1.5)


class TestGeometry:
    def test_rectangle_validation(self):
        with pytest.raises(ValueError):
            Rectangle(1.0, 0.0, 0.5, 1.5)
        with pytest.raises(ValueError):
            Rectangle(0.0, 1.0, 0.0, 1.5)
        with pytest.raises(ValueError):
            Rectangle(0.0, 1.0, 1.5, 0.5)

    @pytest.mark.parametrize("edges, name", [
        ((0.0, np.inf, 0.5, 1.5), "b"),
        ((-np.inf, 1.0, 0.5, 1.5), "a"),
        ((0.0, 1.0, 0.5, np.inf), "d"),
        ((0.0, 1.0, np.nan, 1.5), "c"),
    ])
    def test_rectangle_rejects_non_finite_edges(self, edges, name):
        with pytest.raises(ValueError, match=f"rectangle edge {name} must be finite"):
            Rectangle(*edges)

    def test_require(self):
        # corners are on the rectangle and keep their values
        assert RECT.require(0.0, 0.5) == (0.0, 0.5)
        assert RECT.require(1.0, 1.5) == (1.0, 1.5)
        for x0, r in ((1.1, 1.0), (0.5, 0.4), (math.nan, 1.0), (0.5, math.nan)):
            with pytest.raises(ValueError, match="outside"):
                RECT.require(x0, r)
        # up to EDGE_TOL outside moves onto the edge; on or inside keeps its exact value
        assert RECT.require(-0.9 * EDGE_TOL, 1.5 + 0.9 * EDGE_TOL) == (0.0, 1.5)
        assert RECT.require(1.0 + 0.9 * EDGE_TOL, 0.5 - 0.9 * EDGE_TOL) == (1.0, 0.5)
        assert RECT.require(0.25, 0.75) == (0.25, 0.75)
        x0, _ = RECT.require(-0.0, 0.5)
        assert math.copysign(1.0, x0) == -1.0


class TestRectangleGrid:
    RECT = Rectangle(0.3, 1.0, 0.5, 1.2)

    def test_edges_included(self):
        xs, rs = self.RECT.grid(5, 4)
        assert xs.dtype == rs.dtype == np.float64 and xs.shape == rs.shape == (20,)
        assert (xs.min(), xs.max(), rs.min(), rs.max()) == self.RECT.as_tuple()
        assert all(self.RECT.require(x0, r) == (x0, r) for x0, r in zip(xs.tolist(), rs.tolist()))

    def test_x0_major_order(self):
        xs, rs = self.RECT.grid(3, 4)
        axis_x0, axis_r = np.linspace(0.3, 1.0, 3), np.linspace(0.5, 1.2, 4)
        assert list(zip(xs, rs)) == [(x0, r) for x0 in axis_x0 for r in axis_r]

    def test_one_by_one_grid_is_the_corner(self):
        xs, rs = self.RECT.grid(1, 1)
        assert (xs.tolist(), rs.tolist()) == ([0.3], [0.5])

    @pytest.mark.parametrize("counts", [(0, 3), (3, 0), (-1, -1)])
    def test_counts_below_one_raise(self, counts):
        with pytest.raises(ValueError, match="at least 1x1"):
            self.RECT.grid(*counts)

    def test_thin_rectangle_has_a_grid(self):
        # no inset: a rectangle 1e-5 high gives its own edges like any other
        xs, rs = Rectangle(0.3, 1.3, 0.4, 0.40001).grid(5, 5)
        assert (xs.min(), xs.max(), rs.min(), rs.max()) == (0.3, 1.3, 0.4, 0.40001)


class TestNormalization:
    def test_exact_values(self):
        assert FueterConfig(3, 0).K_N == Fraction(1, 2)
        assert FueterConfig(3, 1).K_N == Fraction(1, 16)
        assert FueterConfig(5, 0).K_N == Fraction(1, 16)
        assert FueterConfig(7, 0).K_N == Fraction(1, 384)

    def test_exact_type(self):
        assert isinstance(FueterConfig(5, 2).K_N, Fraction)

    def test_rejects_even_dimension(self):
        with pytest.raises(ValueError):
            FueterConfig(4, 0)

    def test_axial_function_validates_through_config(self):
        H = AxialFunction(lambda x0, r: r, lambda x0, r: r, 5, 1, RECT)
        assert (H.m, H.k, H.N) == (5, 1, 3)
        for m, k in ((4, 0), (1, 0), (3, -1)):
            with pytest.raises(ValueError, match="m must be odd|k must be nonnegative"):
                AxialFunction(lambda x0, r: r, lambda x0, r: r, m, k, RECT)

    @pytest.mark.parametrize("m,k", [(3, 85), (173, 0), (3, 169)])
    def test_orders_past_float64_raise_through_every_field(self, m, k):
        # K_N is subnormal from N = 86 on: refused as configuration, before any field is built
        message = f"order N={k + (m - 1) // 2} is out of range"
        with pytest.raises(ValueError, match=message):
            AxialFunction(lambda x0, r: r, lambda x0, r: r, m, k, RECT)
        data = TestTabulatedFields().grid_json(axial_field("cubic"), nx0=3, nr=3)
        data["meta"].update(m=m, k=k)
        with pytest.raises(ValueError, match=message):
            AxialFunction.from_grid(data)
        if k == 0:
            with pytest.raises(ValueError, match=message):
                axial_field("cauchy-kernel", m=m)

    def test_last_order_in_range_builds_every_field(self):
        assert AxialFunction(lambda x0, r: r, lambda x0, r: r, 3, 84, RECT).N == 85
        assert axial_field("cauchy-kernel", m=171).N == 85


class TestWeightedIntegrals:
    def test_variant1_matches_closed_form(self):
        H = axial_field("example1")
        for x0, r in ((0.1, 0.8), (0.5, 1.2), (0.9, 1.5)):
            got = radial_integrals(H, x0, r)[0]
            want = example1_oracle("I1", x0=x0, r=r, c=H.rect.c)
            assert got == pytest.approx(want, abs=1e-12)

    def test_variant2_matches_closed_form(self):
        H = axial_field("example1")
        for x0, r in ((0.1, 0.8), (0.5, 1.2), (0.9, 1.5)):
            got = radial_integrals(H, x0, r)[1]
            want = example1_oracle("I2", x0=x0, r=r, c=H.rect.c)
            assert got == pytest.approx(want, abs=1e-12)

    def test_fundamental_theorem(self):
        # with N = 1, I1 is int_c^r t A dt, so d/dr = r A
        H = axial_field("cubic")
        assert H.N == 1
        x0, r, eps = 0.4, 1.1, 1e-5
        hi = radial_integrals(H, x0, r + eps)[0]
        lo = radial_integrals(H, x0, r - eps)[0]
        assert (hi - lo) / (2 * eps) == pytest.approx(r * H.A(x0, r), rel=1e-8)

    def test_empty_interval_is_zero(self):
        H = axial_field("cubic")
        assert radial_integrals(H, 0.2, H.rect.c) == (0.0, 0.0)


class TestCubicRoundTrip:
    def test_zero_init_recovers_cubic_plus_gauge(self):
        # A = -12 x0, B = -4 r is the image of z^3; zero initial constants
        # land on the representative z^3 + c^2 z
        H = axial_field("cubic")
        prim = invert(H)
        c2 = H.rect.c**2
        for x0 in (0.0, 0.3, 0.7, 1.0):
            for r in (0.5, 1.0, 1.5):
                z = complex(x0, r)
                want = z**3 + c2 * z
                assert abs(prim(z) - want) <= 1e-10

    def test_reconstruction_along_a_line(self):
        # the alpha/beta split between integral and correction terms is an
        # implementation detail; only the reconstructed (u, v) is pinned
        H = axial_field("cubic")
        prim = invert(H)
        xs = np.linspace(0.0, 1.0, 7)
        c = H.rect.c
        for x in xs:
            u, v = prim.eval(float(x), 1.0)
            z = complex(x, 1.0)
            want = z**3 + c**2 * z
            assert u == pytest.approx(want.real, abs=1e-10)
            assert v == pytest.approx(want.imag, abs=1e-10)

    def test_explicit_field_eval_matches(self):
        # eval is K_N I + the correction polynomials, spelled out by hand
        H = axial_field("cubic")
        prim = invert(H)
        x0, r = 0.5, 1.2
        kn = float(prim.K_N)
        i1, i2 = radial_integrals(H, x0, r)
        u = kn * i1 + prim.alpha(0, x0)
        v = kn * i2 + prim.beta(0, x0) * r
        assert prim.eval(x0, r) == pytest.approx((u, v), abs=1e-15)


class TestGaugeFreedom:
    def test_inits_differ_by_kernel_polynomial(self):
        H = axial_field("cubic")
        p0 = invert(H)
        p1 = invert(H, init=[0.7, -0.3])
        samples = []
        for x0 in np.linspace(0.0, 1.0, 6):
            for r in np.linspace(0.5, 1.5, 5):
                z = complex(x0, r)
                samples.append((z, p1(z) - p0(z)))
        # kernel polynomials here have real coefficients and degree <= 2N-1 = 1
        assert polynomial_fit_residual(samples, 1) <= 1e-8

    def test_init_length_checked(self):
        H = axial_field("cubic")
        with pytest.raises(ValueError, match="2N"):
            invert(H, init=[1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_init_rejected(self, bad):
        with pytest.raises(ValueError, match=r"init must be finite, but entry 1 is"):
            invert(axial_field("cubic"), [0.0, bad])

    def test_overflowing_chain_raises_numerical_error(self):
        # E(x0 - a) init overflows float64; the library's own error comes with no RuntimeWarning first
        prim = invert(axial_field("cubic"), init=[1e308, 1e308])
        with pytest.raises(NumericalError, match=r"coefficient chain overflowed on \[0, 1\]"):
            prim.eval(1.0, 1.0)

    def test_overflowing_value_raises_numerical_error_at_every_entry(self):
        # a finite field whose I2 = r * (a finite integral) passes float64: every entry used to
        # return inf silently, radial_integrals (1e308, inf) and eval (6.5e307, inf)
        H = AxialFunction(lambda x0, r: 0 * r + 1e308, lambda x0, r: 0 * r + 1.7e308, 3, 0, RECT)
        prim = invert(H)
        calls = [
            (lambda: radial_integrals(H, 0.5, 1.5), "the radial integrals of 'axial-field' overflow"),
            (lambda: prim.eval(0.5, 1.5), "the primitive of 'axial-field' overflows"),
            (lambda: prim.eval(np.array([0.5, 0.5]), np.array([1.0 + 1e-9, 1.5])), "the primitive of 'axial-field' overflows"),
            (lambda: prim(complex(0.5, 1.5)), "the primitive of 'axial-field' overflows"),
        ]
        for call, what in calls:
            with pytest.raises(NumericalError, match=re.escape(f"{what} float64 at x0=0.5, r=1.5")):
                call()

    def test_overflowing_package_arithmetic_raises_its_own_error_without_a_warning(self):
        # the field's values are finite, the engine's panel sums (and the chain's forcing) are not:
        # the package's error comes first, where numpy used to warn of an overflow in matmul
        H = AxialFunction(lambda x0, r: 0 * r + 1e308, lambda x0, r: 0 * r + 1.7e308, 3, 0, RECT)
        with pytest.raises(QuadratureError, match=r"non-finite panel value on \[0\.75, 1\]"):
            invert(H).eval(0.5, 1.0)
        G = AxialFunction(H.A, H.B, 3, 0, Rectangle(0, 10, 5, 6))
        with pytest.raises(QuadratureError, match=r"non-finite panel value on \[0, 3\]"):
            invert(G).eval(3.0, 5.5)

    def test_coefficient_trajectories_shape(self):
        # alpha_j and beta_j along [a, b]: one finite value per x0, from init at a
        H = axial_field("example1")
        init = [0.1, -0.2, 0.3, -0.4]
        prim = invert(H, init=init)
        xs = np.linspace(H.rect.a, H.rect.b, 17)
        alphas = np.array([prim.alpha(j, xs) for j in range(H.N)])
        betas = np.array([prim.beta(j, xs) for j in range(H.N)])
        assert alphas.shape == betas.shape == (H.N, len(xs))
        assert np.all(np.isfinite(alphas)) and np.all(np.isfinite(betas))
        assert [*alphas[:, 0], *betas[:, 0]] == init


class TestForwardConsistency:
    def test_radial_operator_returns_field(self):
        # 2 (r^-1 d/dr) u = A and 2 (d/dr r^-1) v = B for the N = 1 cubic
        H = axial_field("cubic")
        prim = invert(H)
        eps = 1e-4
        for x0, r in ((0.2, 0.8), (0.6, 1.2)):
            du = (prim.eval(x0, r + eps)[0] - prim.eval(x0, r - eps)[0]) / (2 * eps)
            assert 2.0 * du / r == pytest.approx(H.A(x0, r), abs=1e-5)
            vr = [prim.eval(x0, rr)[1] / rr for rr in (r - eps, r + eps)]
            dv = (vr[1] - vr[0]) / (2 * eps)
            assert 2.0 * dv == pytest.approx(H.B(x0, r), abs=1e-5)


class TestTabulatedFields:
    def grid_json(self, H, nx0=9, nr=9):
        xs = np.linspace(H.rect.a, H.rect.b, nx0)
        rs = np.linspace(H.rect.c, H.rect.d, nr)
        points = [
            {"x0": float(x), "r": float(r), "value": [float(H.A(x, r)), float(H.B(x, r))]}
            for x in xs
            for r in rs
        ]
        return {
            "meta": {"m": H.m, "k": H.k, "rect": list(H.rect.as_tuple()), "nx0": nx0, "nr": nr},
            "points": points,
        }

    def test_ingestion_exact_for_linear_fields(self):
        H = axial_field("cubic")  # A, B linear in (x0, r): the interpolant is exact
        G = AxialFunction.from_grid(self.grid_json(H))
        assert G.m == H.m and G.k == H.k
        for x0, r in ((0.05, 0.62), (0.77, 1.38)):
            assert G.A(x0, r) == pytest.approx(H.A(x0, r), abs=1e-12)
            assert G.B(x0, r) == pytest.approx(H.B(x0, r), abs=1e-12)

    def test_inversion_of_tabulated_field(self):
        H = axial_field("cubic")
        G = AxialFunction.from_grid(json.dumps(self.grid_json(H)))
        prim = invert(G)
        z = complex(0.5, 1.0)
        assert abs(prim(z) - (z**3 + H.rect.c**2 * z)) <= 1e-8

    def test_eval_at_tabulated_grid_edges(self):
        # Rectangle.require lets x0 up to 1e-12 past an edge; the grid must
        # take the same points, and the chain's forcing integral then reaches
        # nodes just past a.  x0 span 0.5 snapped only 5e-13 before.
        # Zero init at a != 0 shifts the result by a real linear gauge.
        a, b = 0.2, 0.7
        H = axial_field("cubic", Rectangle(a, b, 0.5, 1.5))
        G = AxialFunction.from_grid(self.grid_json(H))
        prim = invert(G)
        xs = (a - 9e-13, a, 0.45, b, b + 9e-13)
        zs = [complex(x, r) for x in xs for r in (0.6, 1.0, 1.4)]
        samples = [(z, prim(z) - (z**3 + 0.25 * z)) for z in zs]
        assert polynomial_fit_residual(samples, 1) <= 1e-8

    def test_missing_points_rejected(self):
        H = axial_field("cubic")
        data = self.grid_json(H)
        data["points"] = data["points"][:-1]
        with pytest.raises(ValueError):
            AxialFunction.from_grid(data)

    def test_duplicated_point_rejected(self):
        # the count and both axes still match, but one grid slot is empty
        H = axial_field("cubic")
        data = self.grid_json(H)
        data["points"][5] = dict(data["points"][4])
        with pytest.raises(ValueError, match="missing"):
            AxialFunction.from_grid(data)

    def test_non_finite_coordinate_rejected(self):
        data = self.grid_json(axial_field("cubic"), nx0=3, nr=3)
        data["points"][4]["r"] = float("nan")
        with pytest.raises(ValueError, match="full nx0 x nr grid"):
            AxialFunction.from_grid(data)

    def test_ragged_grid_rejected(self):
        H = axial_field("cubic")
        data = self.grid_json(H)
        data["points"][0]["x0"] = 0.123
        with pytest.raises(ValueError):
            AxialFunction.from_grid(data)

    def test_single_line_grid_rejected(self):
        # one x0 column cannot be interpolated across the rectangle
        data = self.grid_json(axial_field("cubic"), nx0=1, nr=5)
        with pytest.raises(ValueError, match="2 x 2"):
            AxialFunction.from_grid(data)

    def test_infinite_sample_rejected(self):
        # Infinity is valid JSON; such a grid must fail at ingestion, not
        # later in the quadrature
        data = self.grid_json(axial_field("cubic"), nx0=5, nr=5)
        data["points"][7]["value"][0] = float("inf")
        with pytest.raises(ValueError, match="non-finite"):
            AxialFunction.from_grid(json.dumps(data))

    def test_interpolant_exact_up_to_the_edges(self):
        a, b, c, d = 0.2, 0.7, 0.5, 1.5
        H = AxialFunction(
            lambda x0, r: x0 * r + x0 - 2 * r, lambda x0, r: 3 * x0 - r * x0, 3, 0,
            Rectangle(a, b, c, d),
        )
        G = AxialFunction.from_grid(self.grid_json(H, nx0=4, nr=6))
        rng = np.random.default_rng(7)
        x0, r = rng.uniform(a, b, (5, 8)), rng.uniform(c, d, (5, 8))
        for got, want in ((G.A, H.A), (G.B, H.B)):
            assert got(x0, r) == pytest.approx(want(x0, r), abs=1e-14, rel=0)
        edges = ((a, 1.0, -1, 0), (b, 1.0, 1, 0), (0.4, c, 0, -1), (0.4, d, 0, 1))
        for x0, r, dx, dr in edges:
            # up to EDGE_TOL past an edge reads the edge; beyond that raises
            assert G.A(x0 + 9e-13 * dx, r + 9e-13 * dr) == G.A(x0, r)
            with pytest.raises(ValueError, match="outside"):
                G.A(x0 + 1e-9 * dx, r + 1e-9 * dr)

    @pytest.mark.parametrize("edge", range(4))
    def test_rect_past_the_tabulated_points_rejected(self, edge):
        # a 6 x 6 grid on [0.2, 1] x [0.5, 1.5]; its meta.rect reaches 0.2 past one side
        data = self.grid_json(axial_field("cubic", Rectangle(0.2, 1.0, 0.5, 1.5)), 6, 6)
        data["meta"]["rect"][edge] += 0.2 if edge % 2 else -0.2
        a, b, c, d = data["meta"]["rect"]
        rect = re.escape(f"rectangle [{a:g}, {b:g}] x [{c:g}, {d:g}]")
        with pytest.raises(ValueError, match=rect + r" reaches past the tabulated \[0\.2, 1\] x \[0\.5, 1\.5\]"):
            AxialFunction.from_grid(data)

    def test_rect_inside_the_tabulated_points_accepted(self):
        H = axial_field("cubic", Rectangle(0.2, 1.0, 0.5, 1.5))
        data = self.grid_json(H, 6, 6)
        data["meta"]["rect"] = [0.3, 0.9, 0.6, 1.4]
        G = AxialFunction.from_grid(data)
        assert G.rect == Rectangle(0.3, 0.9, 0.6, 1.4)
        # the primitive is z^3 + 0.25 z up to a real linear gauge
        prim = invert(G)
        samples = [(complex(x, r), prim(complex(x, r)) - (x + 1j * r) ** 3 - 0.25 * (x + 1j * r))
                   for x in (0.3, 0.6, 0.9) for r in (0.6, 1.0, 1.4)]
        assert polynomial_fit_residual(samples, 1) <= 1e-8

    def test_radial_integrals_match_the_sampled_field(self):
        # the smooth interpolant needs no split at the grid's r lines: each
        # radial integral is accepted at the first level and lands within
        # the interpolation error of the sampled field's own integral
        rect = Rectangle(0.3, 1.3, 0.45, 1.45)
        A, B = fueter_fields(jets.arctan(), FueterConfig(3, 0))
        G, calls = _counting(AxialFunction.from_grid(self.grid_json(AxialFunction(A, B, 3, 0, rect), 40, 40)))
        got = radial_integrals(G, 0.77, 1.234)
        assert calls == {"A": [48], "B": [48], "pair": [48]}
        want = radial_integrals(AxialFunction(A, B, 3, 0, rect), 0.77, 1.234)
        assert got == pytest.approx(want, abs=1e-9, rel=0)

    def test_polynomials_of_the_blending_degree_are_reproduced(self):
        # degree 6 in x0 and in r, on a non-uniform grid of 11 x 9 nodes
        rect = Rectangle(0.2, 1.1, 0.4, 1.3)
        H = AxialFunction(
            lambda x0, r: (x0 - 0.5) ** 6 * r**3 - 2.0 * x0**2 * (r - 0.9) ** 6 + 1.0,
            lambda x0, r: x0**5 * r**6 - 3.0 * x0 * r + (x0 - 0.3) ** 4,
            3, 0, rect,
        )
        rng = np.random.default_rng(3)
        xs = np.sort(np.r_[rect.a, rect.b, rng.uniform(rect.a, rect.b, 9)])
        rs = np.sort(np.r_[rect.c, rect.d, rng.uniform(rect.c, rect.d, 7)])
        points = [{"x0": float(x), "r": float(r), "value": [float(H.A(x, r)), float(H.B(x, r))]}
                  for x in xs for r in rs]
        meta = {"m": 3, "k": 0, "rect": list(rect.as_tuple()), "nx0": xs.size, "nr": rs.size}
        G = AxialFunction.from_grid({"meta": meta, "points": points})
        x0, r = rng.uniform(rect.a, rect.b, 200), rng.uniform(rect.c, rect.d, 200)
        for got, want in ((G.A, H.A), (G.B, H.B)):
            exact = want(x0, r)
            assert np.max(np.abs(got(x0, r) - exact)) <= 1e-12 * np.max(np.abs(exact))

    def test_grid_lines_return_the_tabulated_values(self):
        # on an x0 line or on r = c, grid nodes read back their samples
        # bit for bit, from scalars and from arrays
        H = axial_field("example1")
        data = self.grid_json(H, nx0=12, nr=10)
        G = AxialFunction.from_grid(data)
        table = {(p["x0"], p["r"]): p["value"] for p in data["points"]}
        xs = sorted({x for x, _ in table})
        rs = sorted({r for _, r in table})
        lines = [(np.full(len(rs), xs[5]), np.array(rs)), (np.array(xs), np.full(len(xs), H.rect.c))]
        for x0, r in lines:
            want = np.array([table[x, t] for x, t in zip(x0.tolist(), r.tolist())])
            assert G.A(x0, r).tolist() == want[:, 0].tolist()
            assert G.B(x0, r).tolist() == want[:, 1].tolist()
            assert [G.A(float(x), float(t)) for x, t in zip(x0, r)] == want[:, 0].tolist()
        assert G.A(xs[5], np.array(rs)).tolist() == [table[xs[5], t][0] for t in rs]

    @staticmethod
    def _loop_weights(grid, d):
        """The weights window by window in a Python loop: the reference for _fh_weights' bits."""
        x = (grid - grid[0]) / (grid[-1] - grid[0])
        d = min(d, x.size - 1)
        w = np.zeros(x.size)
        for i in range(x.size - d):
            diff = x[i:i + d + 1, None] - x[i:i + d + 1]
            np.fill_diagonal(diff, 1.0)
            w[i:i + d + 1] += (-1.0) ** i / diff.prod(axis=1)
        return w

    @pytest.mark.parametrize("d", [0, 1, 3, 6, 9])
    def test_weights_equal_the_window_loop_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        grids = [np.linspace(0.3, 1.7, n) for n in range(2, 61)]
        grids += [np.sort(rng.uniform(-2.0, 3.0, n)) for n in rng.integers(2, 61, 60)]
        for grid in grids:
            assert _fh_weights(grid, d).tobytes() == self._loop_weights(grid, d).tobytes(), (grid.size, d)

    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_weights_match_the_equispaced_closed_form(self, d):
        # on equispaced nodes the general weights are, up to one factor,
        # (-1)^(k-d) sum_{i in J_k} C(d, k - i) (Floater and Hormann, 2007)
        n = 39
        got = _fh_weights(np.linspace(0.3, 1.7, n + 1), d)
        want = np.array([
            (-1.0) ** (k - d) * sum(math.comb(d, k - i) for i in range(max(0, k - d), min(k, n - d) + 1))
            for k in range(n + 1)
        ])
        assert got / got[0] == pytest.approx(want / want[0], rel=1e-12, abs=0)

    def test_points_next_to_a_node_stay_finite(self):
        # a subnormal distance from the interior node x0 = 0 overflows
        # w_k / (t - x_k) unless the terms are scaled; the value there is the node's
        H = axial_field("example1", Rectangle(-0.5, 0.5, 0.5, 1.5))
        data = self.grid_json(H, nx0=41, nr=9)
        assert 0.0 in {p["x0"] for p in data["points"]}
        G = AxialFunction.from_grid(data)
        for x0 in (1e-310, 5e-324, 1e-300, -1e-300):
            got = G.A(np.array([x0, 0.5]), np.array([0.5, 1.0]))
            assert got[0] == pytest.approx(H.A(0.0, 0.5), abs=1e-15)
            assert np.isfinite(got).all()

    def test_two_by_two_grid_inverts(self):
        # the blending degree clips to the grid: 2 x 2 nodes interpolate
        # bilinearly, which is exact for the cubic's linear profiles
        H = axial_field("cubic")
        G = AxialFunction.from_grid(self.grid_json(H, nx0=2, nr=2))
        for x0, r in ((0.05, 0.62), (0.77, 1.38)):
            assert G.A(x0, r) == pytest.approx(H.A(x0, r), abs=1e-14)
            assert G.B(x0, r) == pytest.approx(H.B(x0, r), abs=1e-14)
        prim = invert(G)
        z = complex(0.5, 1.0)
        assert abs(prim(z) - (z**3 + H.rect.c**2 * z)) <= 1e-10


    @pytest.mark.parametrize("spoil, message", [
        (lambda d: d["points"][3]["value"].__setitem__(0, True), r"grid point .*'value': \[True, "),
        (lambda d: d["points"][3]["value"].__setitem__(1, "1.5"), r"grid point .*'value': \[.*, '1\.5'\]\} is not"),
        (lambda d: d["points"][3].__setitem__("x0", "0.125"), r"grid point \{'x0': '0\.125'"),
        (lambda d: d["points"][3].__setitem__("r", False), r"grid point .*'r': False"),
        (lambda d: (d["points"][3]["value"].append(1.0), d["points"][4]["value"].pop()),
         r"grid point .*'value': \[[^]]*, 1\.0\]\} is not"),
        (lambda d: d["meta"].__setitem__("m", True), "grid meta needs integers m, k, nx0 and nr"),
        (lambda d: d["meta"].__setitem__("nx0", True), "grid meta needs integers m, k, nx0 and nr"),
        (lambda d: d["meta"].__setitem__("k", 0.0), "grid meta needs integers m, k, nx0 and nr"),
        (lambda d: d["meta"]["rect"].__setitem__(0, False), r"grid meta\.rect must be four numbers a, b, c, d"),
        (lambda d: d["meta"]["rect"].__setitem__(1, "1.0"), r"grid meta\.rect must be four numbers a, b, c, d"),
    ], ids=["bool-sample", "string-sample", "string-x0", "bool-r", "three-then-one-values",
            "bool-m", "bool-nx0", "float-k", "bool-rect-edge", "string-rect-edge"])
    def test_only_json_numbers_are_read(self, spoil, message):
        # JSON's true is not 1.0 and "1.5" is not 1.5; the message names the point or the key
        data = self.grid_json(axial_field("cubic"), nx0=3, nr=3)
        spoil(data)
        with pytest.raises(ValueError, match=message):
            AxialFunction.from_grid(json.dumps(data))

    def test_integers_and_numpy_numbers_are_read_as_floats(self):
        # an integer sample (JSON's 2) is a number; so are numpy scalars from a Python caller
        data = self.grid_json(axial_field("cubic", Rectangle(0.0, 2.0, 1.0, 2.0)), nx0=3, nr=3)
        want = AxialFunction.from_grid(data)
        for p in data["points"]:
            p["x0"], p["r"] = (int(t) if t == int(t) else np.float64(t) for t in (p["x0"], p["r"]))
            p["value"] = [np.float64(v) for v in p["value"]]
        got = AxialFunction.from_grid(data)
        assert type(data["points"][0]["x0"]) is int
        x0, r = np.array([0.3, 1.7]), np.array([1.2, 1.9])
        assert (got.A(x0, r).tolist(), got.B(x0, r).tolist()) == (want.A(x0, r).tolist(), want.B(x0, r).tolist())


class TestPairedInterpolation:
    """A tabulated field's pair contracts both tables with one pair of Floater-Hormann bases."""

    @staticmethod
    def field(nx0=9, nr=7):
        data = TestTabulatedFields().grid_json(axial_field("example1"), nx0, nr)
        return data, AxialFunction.from_grid(data)

    @staticmethod
    def unpaired(data, x0, r):
        """(A, B) at (x0, r) from the table of data rebuilt here, each component contracted on its own."""
        table = {(p["x0"], p["r"]): p["value"] for p in data["points"]}
        xs, rs = (np.array(sorted({key[i] for key in table})) for i in (0, 1))
        vals = np.array([[[table[x, t][i] for t in rs.tolist()] for x in xs.tolist()] for i in (0, 1)])
        bx = _fh_basis(np.asarray(x0, dtype=np.float64), xs, _fh_weights(xs, BLEND_DEGREE))
        br = _fh_basis(np.asarray(r, dtype=np.float64), rs, _fh_weights(rs, BLEND_DEGREE))
        return [((bx @ v) * br).sum(axis=-1) for v in vals]

    POINTS = [
        (0.37, 0.81),
        (0.37, np.linspace(0.6, 1.4, 48)),
        (np.array([[0.1], [0.5], [0.9]]), np.array([0.6, 0.9, 1.2, 1.4])),
        (np.array([0.125, 0.25, 0.875]), np.array([1.125, 0.5, 1.5])),
    ]

    @pytest.mark.parametrize("first", ["A", "B"])
    def test_values_equal_unpaired_evaluation_bit_for_bit(self, first):
        data, G = self.field()
        for x0, r in self.POINTS:
            want = [np.asarray(w).tolist() for w in self.unpaired(data, x0, r)]
            if first == "A":
                got = [np.asarray(G.A(x0, r)).tolist(), np.asarray(G.B(x0, r)).tolist()]
            else:
                got = [np.asarray(G.B(x0, r)).tolist(), np.asarray(G.A(x0, r)).tolist()][::-1]
            assert got == want
        assert type(G.A(0.37, 0.81)) is float and type(G.B(0.37, 0.81)) is float

    def test_one_basis_pass_per_axis_per_pair_call(self, monkeypatch):
        _, G = self.field()
        axes = []
        monkeypatch.setattr(inverse, "_fh_basis", lambda t, grid, w: axes.append(grid.size) or _fh_basis(t, grid, w))
        x0, r = 0.37, np.linspace(0.6, 1.4, 48)
        a, b = G.pair(x0, r)
        assert axes == [9, 7]
        # A and B are the pair's components: each is one pair call
        assert (G.A(x0, r).tolist(), G.B(x0, r).tolist()) == (a.tolist(), b.tolist())
        assert axes == [9, 7] * 3

    def test_each_call_returns_a_fresh_array(self):
        _, G = self.field()
        x0, r = 0.37, np.linspace(0.6, 1.4, 5)
        a1, b1 = G.A(x0, r), G.B(x0, r)
        a2, b2 = G.A(x0, r), G.B(x0, r)
        assert len({id(a) for a in (a1, b1, a2, b2)}) == 4
        a1[:] = b1[:] = np.nan
        assert np.isfinite(a2).all() and np.isfinite(b2).all()
        assert G.B(x0, r).tolist() == b2.tolist()


class TestSnap:
    GRID = np.linspace(0.2, 0.7, 6)

    @pytest.mark.parametrize("end", [0.2, 0.7])
    @pytest.mark.parametrize("offset", [-0.9 * EDGE_TOL, -1e-16, 1e-16, 0.9 * EDGE_TOL])
    def test_points_within_edge_tol_snap_onto_each_end(self, end, offset):
        # inside and outside each end, alone, as a scalar and next to interior points
        t = end + offset
        assert _snap(np.array(t), self.GRID, "x0") == end
        assert _snap(np.array([0.45, t, 0.5]), self.GRID, "x0").tolist() == [0.45, end, 0.5]

    def test_interior_points_pass_through_untouched(self):
        t = np.array([0.2 + 2 * EDGE_TOL, 0.45, 0.7 - 2 * EDGE_TOL])
        assert _snap(t, self.GRID, "r") is t

    @pytest.mark.parametrize("t", [0.2 - 2 * EDGE_TOL, 0.7 + 2 * EDGE_TOL, math.nan])
    def test_points_past_edge_tol_raise(self, t):
        with pytest.raises(ValueError, match=r"r outside the tabulated \[0\.2, 0\.7\]"):
            _snap(np.array([0.45, t]), self.GRID, "r")

    def test_no_points(self):
        assert _snap(np.empty(0), self.GRID, "x0").size == 0

def test_import_pulls_in_no_scipy():
    src = os.path.dirname(os.path.dirname(fueter.__file__))
    code = "import sys, fueter; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_import_pulls_in_no_numpy_polynomial():
    # the Gauss-Legendre rule is built on first use: leggauss at import time would add its
    # module's import to every run; numpy releases that import it themselves are no failure
    src = os.path.dirname(os.path.dirname(fueter.__file__))
    code = ("import sys, numpy; poly = lambda: {m for m in sys.modules if m.startswith('numpy.polynomial')}; "
            "before = poly(); import fueter; print(sorted(poly() - before))")
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"


class TestPrimitiveObject:
    def test_serialization_fields(self):
        # the record holds what the primitive is determined by, no tables
        H = axial_field("cubic")
        prim = invert(H, init=[0.25, -1.5])
        blob = json.loads(json.dumps(prim.to_json()))
        assert blob == {"m": 3, "k": 0, "N": 1, "K_N": "1/2", "rect": [0.0, 1.0, 0.5, 1.5], "init": [0.25, -1.5]}

    def test_eval_outside_rectangle_rejected(self):
        H = axial_field("cubic")
        prim = invert(H)
        with pytest.raises(ValueError, match="outside"):
            prim.eval(2.0, 1.0)

    def test_quadrature_config_threads_through(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_DEPTH", 2)
        H = axial_field("example1")
        prim = invert(H, quad=QuadratureConfig(abs_tol=1e-300))
        with pytest.raises(QuadratureError, match="at depth 2"):
            prim.eval(0.5, 1.4)
        with pytest.raises(QuadratureError, match="at depth 2"):
            radial_integrals(H, 0.5, 1.4, prim.quad)


class TestExactChain:
    def test_coefficients_match_example1_closed_forms(self):
        # with the oracle's values at a as init, the chain solution is the
        # oracle's alpha_j, beta_j at every x0
        rect = Rectangle(0.2, 1.0, 0.5, 1.5)
        H = axial_field("example1", rect)
        c = rect.c
        names = ("alpha0", "alpha1", "beta0", "beta1")
        prim = invert(H, init=[example1_oracle(f, x0=rect.a, c=c) for f in names])
        for x0 in (0.2, 0.2123, 0.4567, 0.731, 0.9999, 1.0):
            got = (prim.alpha(0, x0), prim.alpha(1, x0), prim.beta(0, x0), prim.beta(1, x0))
            want = [example1_oracle(f, x0=x0, c=c) for f in names]
            assert got == pytest.approx(want, abs=1e-12, rel=0)

    def test_coefficients_accept_arrays(self):
        prim = invert(axial_field("example1"))
        x0 = np.array([[0.1, 0.35], [0.5, 0.77]])
        got = prim.beta(1, x0)
        assert got.shape == x0.shape
        assert got[1, 1] == prim.beta(1, 0.77)

    def test_chain_calls_the_field_once_per_component(self):
        # invert calls no field; a new x0 takes one pair call, so one A and
        # one B call, on the forcing integral's first level, and the same x0
        # is remembered
        G, calls = _counting(axial_field("example1"))
        prim = invert(G)
        assert calls == {"A": [], "B": [], "pair": []}
        prim.alpha(0, 0.3)
        prim.beta(1, 0.3)
        assert calls == {"A": [48], "B": [48], "pair": [48]}

    def test_refining_chain_makes_one_pair_call_per_level(self):
        # a trace with a kink at x0 = 0.37 refines the forcing integral: the
        # first level's 48 nodes, then the two halves of one subinterval per call
        H = AxialFunction(lambda x0, r: np.abs(x0 - 0.37) * r, lambda x0, r: x0 * r, 3, 0, RECT)
        G, calls = _counting(H)
        invert(G).alpha(0, 0.9)
        assert calls["pair"][0] == 48 and len(calls["pair"]) > 1
        assert set(calls["pair"][1:]) == {2 * PANEL_ORDER}
        assert calls["A"] == calls["B"] == calls["pair"]

    def test_coefficients_at_a_are_init_without_field_calls(self):
        G, calls = _counting(axial_field("example1"))
        init = [0.1, -2.5, 1e-300, -0.0]
        prim = invert(G, init=init)
        a = G.rect.a
        assert [prim.alpha(0, a), prim.alpha(1, a), prim.beta(0, a), prim.beta(1, a)] == init
        assert calls == {"A": [], "B": [], "pair": []}

    @pytest.mark.parametrize("j", [-1, 2, True, False, 1.0, np.float64(0.0), "0", None])
    def test_index_outside_0_to_n_minus_1_raises(self, j):
        # j used to index range(N): -1 read alpha_(N-1), True alpha_1, and N an IndexError
        prim = invert(axial_field("example1"))  # N = 2
        for family in (prim.alpha, prim.beta):
            with pytest.raises(ValueError, match=re.escape(f"j must be an integer in 0..1, got {j!r}")):
                family(j, 0.3)

    def test_numpy_integers_are_indices(self):
        prim = invert(axial_field("example1"))
        assert prim.alpha(np.int64(1), 0.3) == prim.alpha(1, 0.3)
        assert prim.beta(np.int32(0), 0.3) == prim.beta(0, 0.3)

    @pytest.mark.parametrize("x0", [5.0, -0.5, float("nan"), np.array([0.2, 5.0])])
    def test_x0_outside_names_x0_and_its_range(self, x0):
        # the chain used to report the point (x0, r = c), naming an r the caller never passed
        prim = invert(axial_field("example1"))  # [0, 1] x [0.5, 1.5]
        bad = np.ravel(x0)[-1]
        for family in (prim.alpha, prim.beta):
            with pytest.raises(ValueError, match=re.escape(f"x0={bad:g} outside rectangle x0 range [0, 1]")) as info:
                family(0, x0)
            assert "r=" not in str(info.value)

    def test_non_finite_edge_trace_raises(self):
        def a_field(x0, r):
            return np.where(np.asarray(x0) > 0.6, np.nan, 1.0) * np.ones_like(r)

        H = AxialFunction(a_field, lambda x0, r: np.zeros_like(r), 3, 0, RECT)
        prim = invert(H)  # lazy: nothing is evaluated yet
        with pytest.raises(NumericalError, match=r"non-finite edge trace at x0=0\.6"):
            prim.alpha(0, 0.9)
        # eval solves the coefficients before its radial integrals, which
        # would otherwise meet the NaN first
        with pytest.raises(NumericalError, match=r"non-finite edge trace at x0=0\.6"):
            prim.eval(0.9, 1.2)
        assert np.isfinite(prim.eval(0.5, 1.2)).all()  # below x0 = 0.6 the field is finite


def _counting(H, scale=1.0):
    """H with A and B wrapped to record the node count of every call, and its pair, which calls
    them, wrapped to record its own."""
    calls = {"A": [], "B": [], "pair": []}

    def counted(fn, key):
        return lambda x0, r: calls[key].append(np.size(r)) or scale * fn(x0, r)

    G = AxialFunction(counted(H.A, "A"), counted(H.B, "B"), H.m, H.k, H.rect)
    pair = G.pair
    G.pair = lambda x0, r: calls["pair"].append(np.size(r)) or pair(x0, r)
    return G, calls


def _clear(calls):
    for sizes in calls.values():
        sizes.clear()


class TestFusedEval:
    @pytest.mark.parametrize("name", ["cubic", "example1", "example2-nplus", "cauchy-kernel"])
    def test_closed_form_eval_calls_each_field_once(self, name):
        G, calls = _counting(axial_field(name))
        prim = invert(G)
        a, b, c, d = G.rect.as_tuple()
        x0, r = a + 0.37 * (b - a), c + 0.71 * (d - c)
        prim.alpha(0, x0)  # the coefficient chain's own calls
        _clear(calls)
        prim.eval(x0, r)
        # accepted at the first level: one pair call on its 48 nodes
        assert calls == {"A": [48], "B": [48], "pair": [48]}

    def test_tabulated_eval_calls_each_field_once(self):
        rect = Rectangle(0.3, 1.3, 0.45, 1.45)
        A, B = fueter_fields(jets.arctan(), FueterConfig(3, 0))
        grid = TestTabulatedFields().grid_json(AxialFunction(A, B, 3, 0, rect), 40, 40)
        G, calls = _counting(AxialFunction.from_grid(grid))
        prim = invert(G)
        x0, r = 0.77, 1.234
        prim.alpha(0, x0)
        _clear(calls)
        u, v = prim.eval(x0, r)
        # one pair call: the whole panel and its halves, accepted
        assert calls == {"A": [48], "B": [48], "pair": [48]}
        # the integrals of radial_integrals agree bit for bit
        kn = float(prim.K_N)
        i1, i2 = radial_integrals(G, x0, r)
        coeffs = [prim.alpha(0, x0), prim.beta(0, x0)]
        assert (u, v) == (kn * i1 + coeffs[0], kn * i2 + r * coeffs[1])

    def test_scaled_example1_still_fails_with_fewer_calls(self):
        # example1 x 1e6 needs a per-leaf tolerance below one ulp (ROADMAP
        # item 5); refining one panel per call took 117 integrand calls at
        # this point before it raised
        G, calls = _counting(axial_field("example1"), scale=1e6)
        prim = invert(G)
        prim.alpha(0, 0.5)
        _clear(calls)
        with pytest.raises(QuadratureError, match="no convergence"):
            prim.eval(0.5, 1.4)
        assert len(calls["A"]) == len(calls["B"]) == len(calls["pair"]) <= 117

    @pytest.mark.parametrize("name,m,calls,nodes", [("example1", None, 63, 3024), ("cauchy-kernel", 9, 65, 3088)])
    def test_pair_calls_per_invert_and_8x8_scalar_evaluations(self, name, m, calls, nodes):
        # 8 x0 solve the chain (x0 = a without a call), 7 r lie above c (one pair call each at
        # 48 nodes); cauchy-kernel m = 9 refines once, two calls at 32 nodes
        G, counts = _counting(axial_field(name, m=m) if m else axial_field(name))
        prim = invert(G)
        xs, rs = G.rect.grid(8, 8)
        for x0, r in zip(xs.tolist(), rs.tolist()):
            prim.eval(x0, r)
        assert (len(counts["pair"]), sum(counts["pair"])) == (calls, nodes)
        assert counts["A"] == counts["B"] == counts["pair"]

    def test_empty_radial_interval(self):
        # r = c integrates over nothing and calls no field
        G, calls = _counting(axial_field("example1"))
        prim = invert(G)
        prim.alpha(0, 0.3)
        _clear(calls)
        u, v = prim.eval(0.3, G.rect.c)
        assert calls == {"A": [], "B": [], "pair": []}
        c = G.rect.c
        assert u == prim.alpha(0, 0.3) + prim.alpha(1, 0.3) * c * c
        assert v == c * (prim.beta(0, 0.3) + prim.beta(1, 0.3) * c * c)


CLOSED_FORM = [("cubic", None), ("example1", None), ("example2-nplus", None), ("example2-nminus", None)]
CLOSED_FORM += [("cauchy-kernel", m) for m in (3, 5, 7, 9)]


def _closed_form(name, m):
    return axial_field(name, m=m) if m else axial_field(name)


def _tabulated_40():
    rect = Rectangle(0.3, 1.3, 0.45, 1.45)
    A, B = fueter_fields(jets.arctan(), FueterConfig(3, 0))
    return AxialFunction.from_grid(TestTabulatedFields().grid_json(AxialFunction(A, B, 3, 0, rect), 40, 40))


def _explicit_integrals(H, x0, r, quad=DEFAULT_QUADRATURE):
    """(I1, I2 / r) from integrate on the kernel-times-field integrands, one A and one B call per level."""
    N = H.N

    def integrands(t):
        k = (r * r - t * t) ** (N - 1)
        return np.array([t * k * H.A(x0, t), k * H.B(x0, t)])

    return integrate(integrands, H.rect.c, r, quad)


def _seeded_points(rect, n, seed):
    rng = np.random.default_rng(seed)
    return [(float(x), float(r)) for x, r in zip(rng.uniform(rect.a, rect.b, n), rng.uniform(rect.c, rect.d, n))]


class TestRadialRule:
    """The kernel-weighted first level that eval and radial_integrals share."""

    @pytest.mark.parametrize("name,m", CLOSED_FORM)
    def test_eval_is_kn_radial_pair_plus_corrections_bit_for_bit(self, name, m):
        H = _closed_form(name, m)
        if name == "example1":  # scaled, two of these points refine and one fails
            A, B = H.A, H.B
            H = AxialFunction(lambda x0, r: 1e4 * A(x0, r), lambda x0, r: 1e4 * B(x0, r), H.m, H.k, H.rect)
        prim = invert(H)
        kn, N = float(prim.K_N), prim.N
        a, b, c, d = H.rect.as_tuple()
        points = _seeded_points(H.rect, 12, 17) + [(a, c), (b, d), (0.5 * (a + b), d), (a, c + 1e-9)]
        checked = 0
        for x0, r in points:
            try:
                u, v = prim.eval(x0, r)
            except QuadratureError:
                continue
            # the correction polynomials as eval sums them: Horner in r^2
            alphas = [prim.alpha(j, x0) for j in range(N)]
            betas = [prim.beta(j, x0) for j in range(N)]
            cu, cv, r2 = alphas[-1], betas[-1], r * r
            for j in range(N - 2, -1, -1):
                cu, cv = cu * r2 + alphas[j], cv * r2 + betas[j]
            i1, i2 = radial_integrals(H, x0, r)
            assert (u, v) == (kn * i1 + cu, kn * i2 + r * cv), (x0, r)
            checked += 1
        assert checked >= len(points) - 2

    @pytest.mark.parametrize("name,m", CLOSED_FORM + [("tabulated", None)])
    def test_agrees_with_integrate_on_the_kernel_times_field(self, name, m):
        H = _tabulated_40() if name == "tabulated" else _closed_form(name, m)
        # the rule's first level folds the Gauss weights and half-widths into
        # its kernels: integrate's nodes and weights with the products
        # associated differently, so the two agree to rounding
        for x0, r in _seeded_points(H.rect, 64, 29):
            i1, i2 = _explicit_integrals(H, x0, r).tolist()
            for got, want in zip(radial_integrals(H, x0, r), (i1, r * i2)):
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (x0, r)

    @pytest.mark.parametrize("N", range(1, 7))
    def test_rule_has_the_bits_of_the_kron_construction(self, N):
        # the reference is the rule as first written: np.kron(np.diag(half), w) on _nodes' layout
        for c, r in [(0.5, 1.5), (0.5, 0.5 + 1e-9), (0.3, 0.31), (0.45, 1.234), (1e-3, 2.0), (0.7, 0.7000001)]:
            mid = 0.5 * (c + r)
            half, x = quadrature._nodes(np.array([c, c, mid]), np.array([r, mid, r]))
            kernel = (r * r - x * x) ** (N - 1)
            gauss = np.kron(np.diag(half), quadrature._rule()[1])
            got = _radial_rule.__wrapped__(c, r, N)
            assert [g.tobytes() for g in got] == [x.tobytes(), (gauss * (x * kernel)).tobytes(),
                                                  (gauss * kernel).tobytes()], (c, r)

    @pytest.mark.parametrize("name,m", CLOSED_FORM + [("tabulated", None)])
    def test_first_level_dot_has_the_bits_of_matmul(self, name, m):
        # the first level used to be W1 @ A and W2 @ B; .dot must give the same rows, so the same integrals
        H = _tabulated_40() if name == "tabulated" else _closed_form(name, m)
        c, N = H.rect.c, H.N
        for x0, r in _seeded_points(H.rect, 24, 41):
            x, W1, W2 = _radial_rule(c, r, N)
            a, b = H.pair(x0, x)
            assert W1.dot(a).tobytes() == (W1 @ a).tobytes() and W2.dot(b).tobytes() == (W2 @ b).tobytes()

            def integrands(t):
                k = (r * r - t * t) ** (N - 1)
                a, b = H.pair(x0, t)
                return np.array([(t * k) * a, k * b])

            i1, i2 = quadrature.quadrature(integrands, [(W1 @ a).tolist(), (W2 @ b).tolist()], c, r,
                                           DEFAULT_QUADRATURE.abs_tol)
            assert _bits(*radial_integrals(H, x0, r)) == _bits(i1, r * i2), (x0, r)

    def test_failure_matches_integrate_message_and_calls(self):
        # example1 x 1e6 cannot meet the absolute tolerance at (0.5, 1.4); the
        # leaf that fails first may differ with the first level's rounding
        G, calls = _counting(axial_field("example1"), scale=1e6)
        prim = invert(G)
        prim.alpha(0, 0.5)
        for run in (lambda: prim.eval(0.5, 1.4), lambda: _explicit_integrals(G, 0.5, 1.4)):
            _clear(calls)
            with pytest.raises(QuadratureError, match=r"no convergence on \[.*\] at depth 40"):
                run()
            assert calls["A"][0] == calls["B"][0] == 48 and len(calls["A"]) > 1

    def test_r_within_edge_tol_below_c_reads_c(self):
        # r up to EDGE_TOL below c is moved onto c: an empty radial interval, no field call
        G, calls = _counting(axial_field("example1"))
        r = G.rect.c - 5e-13
        assert radial_integrals(G, 0.3, r) == radial_integrals(G, 0.3, G.rect.c) == (0.0, 0.0)
        assert calls == {"A": [], "B": [], "pair": []}
        assert invert(G).eval(0.3, r) == invert(G).eval(0.3, G.rect.c)

    def test_rule_arrays_are_read_only(self):
        H = _tabulated_40()
        prim = invert(H)
        prim.eval(0.77, 1.234)
        x, W1, W2 = _radial_rule(H.rect.c, 1.234, H.N)
        assert _radial_rule.cache_info().hits >= 1
        assert x.size == 3 * PANEL_ORDER
        assert W1.shape == W2.shape == (3, 3 * PANEL_ORDER)
        for arr in (x, W1, W2):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0

    def test_array_eval_builds_each_rule_once(self):
        # 96 distinct r, more than the rule cache holds; r = c needs no rule
        H = axial_field("example1")
        prim = invert(H)
        xs, rs = H.rect.grid(96, 96)
        _radial_rule.cache_clear()
        u, v = prim.eval(xs, rs)
        assert _radial_rule.cache_info().misses == len(set(rs.tolist()) - {H.rect.c}) == 95
        scalar = [prim.eval(x0, r) for x0, r in zip(xs.tolist(), rs.tolist())]
        assert np.array(scalar).tobytes() == np.stack([u, v], axis=1).tobytes()


def _bits(*values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


class TestEdgeRule:
    """A point up to EDGE_TOL outside the rectangle is evaluated on its edge; one farther out raises."""

    FIELDS = ["example1", "tabulated"]

    @staticmethod
    def _field(name):
        return _tabulated_40() if name == "tabulated" else axial_field(name)

    @staticmethod
    def _edge_point(rect, edge, outside):
        """A point outside the edge-th edge (a, b, c, d) by outside, and its point on that edge."""
        a, b, c, d = rect.as_tuple()
        x_mid, r_mid = 0.5 * (a + b), 0.5 * (c + d)
        on = [(a, r_mid), (b, r_mid), (x_mid, c), (x_mid, d)][edge]
        step = [(-outside, 0.0), (outside, 0.0), (0.0, -outside), (0.0, outside)][edge]
        return (on[0] + step[0], on[1] + step[1]), on

    @pytest.mark.parametrize("edge", range(4))
    @pytest.mark.parametrize("name", FIELDS)
    def test_points_within_edge_tol_read_the_edge_bit_for_bit(self, name, edge):
        H = self._field(name)
        (x0, r), (x_on, r_on) = self._edge_point(H.rect, edge, 0.9 * EDGE_TOL)
        assert (x0, r) != (x_on, r_on)
        # a fresh primitive per side, so no coefficient comes from the other side's cache
        out, on = invert(H), invert(H)
        assert _bits(*out.eval(x0, r)) == _bits(*on.eval(x_on, r_on))
        mid = 0.5 * (H.rect.a + H.rect.b), 0.5 * (H.rect.c + H.rect.d)
        got = invert(H).eval(np.array([x0, mid[0]]), np.array([r, mid[1]]))
        want = on.eval(np.array([x_on, mid[0]]), np.array([r_on, mid[1]]))
        assert _bits(*got) == _bits(*want)
        for j in range(H.N):
            assert _bits(out.alpha(j, x0), out.beta(j, x0)) == _bits(on.alpha(j, x_on), on.beta(j, x_on))
        assert _bits(*radial_integrals(H, x0, r)) == _bits(*radial_integrals(H, x_on, r_on))

    @pytest.mark.parametrize("edge", range(4))
    @pytest.mark.parametrize("name", FIELDS)
    def test_points_farther_out_raise(self, name, edge):
        H = self._field(name)
        (x0, r), _ = self._edge_point(H.rect, edge, 1e-9)
        prim = invert(H)
        calls = [lambda: prim.eval(x0, r), lambda: prim.eval(np.array([x0]), np.array([r])),
                 lambda: radial_integrals(H, x0, r)]
        if edge < 2:  # the coefficients read x0 alone
            calls += [lambda: prim.alpha(0, x0), lambda: prim.beta(0, x0)]
        for call in calls:
            with pytest.raises(ValueError, match="outside rectangle"):
                call()

    def test_grid_whose_rect_starts_just_before_its_points(self, tmp_path):
        # meta.rect starts 0.9e-12 before the grid's first x0; a point 0.9e-12 before
        # meta.rect lies 1.8e-12 before the grid, and used to send the chain's forcing
        # integral backwards onto nodes the interpolant refused
        from fueter.cli import main

        path = tmp_path / "p.json"
        assert main(["forward", "--h", "arctan", "--m", "3", "--profiles", "--rect", "0.3,1.3,0.5,1.5",
                     "--grid", "8,8", "--out", str(path)]) == 0
        data = json.loads(path.read_text())
        data["meta"]["rect"][0] -= 0.9e-12
        H = AxialFunction.from_grid(data)
        got = invert(H).eval(H.rect.a - 0.9e-12, 1.0)
        assert _bits(*got) == _bits(*invert(H).eval(H.rect.a, 1.0))


class TestArrayEval:
    def test_arrays_match_pointwise(self):
        prim = invert(axial_field("example1"))
        x0 = np.array([[0.1, 0.35, 0.6], [0.5, 0.77, 1.0]])
        r = np.array([[0.5, 0.9, 1.4], [0.62, 1.1, 1.5]])
        u, v = prim.eval(x0, r)
        assert u.shape == v.shape == x0.shape and u.dtype == np.float64
        for i, j in np.ndindex(x0.shape):
            assert (u[i, j], v[i, j]) == prim.eval(float(x0[i, j]), float(r[i, j]))

    def test_broadcast_and_scalars(self):
        prim = invert(axial_field("cubic"))
        rs = np.linspace(0.5, 1.5, 5)
        u, v = prim.eval(0.4, rs)
        assert u.shape == (5,)
        assert [(a, b) for a, b in zip(u, v)] == [prim.eval(0.4, t) for t in rs]
        got = prim.eval(0.4, 1.1)
        assert type(got) is tuple and all(type(t) is float for t in got)
        u, v = prim.eval(np.array(0.4), np.array(1.1))
        assert (u, v) == got

    def test_scalar_types_agree(self):
        # Python floats skip numpy's 0-d arrays; every scalar type gives their pair
        prim = invert(axial_field("example1"))
        got = prim.eval(0.4, 1.1)
        scalars = ((np.float64(0.4), np.float64(1.1)), (np.array(0.4), 1.1), (0.4, np.array([1.1])[0]))
        for x0, r in scalars:
            pair = prim.eval(x0, r)
            assert pair == got and all(type(t) is float for t in pair)
        assert prim.eval(1, 1) == prim.eval(1.0, 1.0)
        assert all(type(t) is float for t in prim.eval(1, 1))

    @pytest.mark.parametrize("name,m", CLOSED_FORM)
    def test_grid_has_the_scalar_bits(self, name, m):
        H = _closed_form(name, m)
        xs, rs = H.rect.grid(12, 12)
        u, v = invert(H).eval(xs, rs)
        prim = invert(H)
        scalar = [prim.eval(x0, r) for x0, r in zip(xs.tolist(), rs.tolist())]
        assert np.array(scalar).tobytes() == np.stack([u, v], axis=1).tobytes()

    def test_any_point_outside_rejected(self):
        prim = invert(axial_field("cubic"))
        with pytest.raises(ValueError, match="outside"):
            prim.eval(np.array([0.5, 2.0]), 1.0)

    def test_call_takes_any_array_like(self):
        # a list, a tuple and an ndarray of z give a complex128 array of the scalar calls' bits
        prim = invert(axial_field("example1"))
        zs = [0.5 + 1j, 0.6 + 1.1j, 0.25 + 0.5j]
        want = [prim(z) for z in zs]
        assert all(type(w) is complex for w in want)
        for z in (zs, tuple(zs), np.array(zs)):
            got = prim(z)
            assert got.dtype == np.complex128 and got.tolist() == want


def _field_cases():
    rect = Rectangle(0.3, 1.2, 0.4, 1.4)
    fields = [axial_field(name, rect) for name in ("example1", "example2-nplus", "example2-nminus", "cubic")]
    fields += [axial_field("cauchy-kernel", rect, m=m) for m in (3, 7)]
    cases = [pytest.param(H.A, H.B, id=f"{H.name}-m{H.m}") for H in fields]
    cases.append(pytest.param(*fueter_fields(jets.arctan(), FueterConfig(5, 1)), id="fueter_fields"))
    G = AxialFunction.from_grid(TestTabulatedFields().grid_json(fields[0], nx0=7, nr=6))
    cases.append(pytest.param(G.A, G.B, id="from_grid"))
    return cases


class TestFieldContract:
    @pytest.mark.parametrize("A,B", _field_cases())
    def test_array_x0_matches_pointwise(self, A, B):
        x0 = np.array([[0.3, 0.55, 0.81], [1.0, 1.17, 1.2]])
        r = np.array([[0.4, 0.9, 1.4], [0.63, 0.77, 1.1]])
        for fn in (A, B):
            got = np.asarray(fn(x0, r))
            assert got.shape == x0.shape
            want = [float(fn(float(x), float(t))) for x, t in zip(x0.ravel(), r.ravel())]
            assert got.ravel() == pytest.approx(want, rel=1e-14, abs=1e-300)

    def test_pair_of_components_reads_the_current_a_and_b(self):
        # without a native pair, the field's pair calls whatever A and B it
        # holds, so a wrapper bound onto either later is called too
        H = AxialFunction(lambda x0, r: x0 + r, lambda x0, r: x0 * r, 3, 0, RECT)
        H.B = lambda x0, r: x0 - r
        assert H.pair(0.25, 1.5) == (1.75, -1.25)
        G = axial_field("example1")
        G.A = lambda x0, r: 0.0  # a native pair does not read its components
        assert G.pair(0.25, 1.5)[0] == example1_oracle("A", x0=0.25, r=1.5)

    @pytest.mark.parametrize("H", [*(_closed_form(name, m) for name, m in CLOSED_FORM), _tabulated_40()],
                             ids=[*(f"{name}-m{m}" for name, m in CLOSED_FORM), "tabulated"])
    def test_from_pair_components_are_the_pairs_bit_for_bit(self, H):
        xs, rs = H.rect.grid(5, 7)
        wants = []
        for x0, r in [(xs, rs), (float(xs[8]), rs[:7]), (float(xs[8]), float(rs[8]))]:
            wants.append([np.asarray(v).tobytes() for v in H.pair(x0, r)])
            assert [np.asarray(H.A(x0, r)).tobytes(), np.asarray(H.B(x0, r)).tobytes()] == wants[-1]
        H.A = H.B = lambda x0, r: 0.0  # settable, and the pair does not read them
        assert H.A(0.5, 1.0) == H.B(0.5, 1.0) == 0.0
        assert [np.asarray(v).tobytes() for v in H.pair(xs, rs)] == wants[0]

    def test_the_pair_keyword_is_gone(self):
        with pytest.raises(TypeError):
            AxialFunction(lambda x0, r: x0, lambda x0, r: r, 3, 0, RECT, pair=lambda x0, r: (x0, r))

    def test_a_number_for_a_scalar_x0_names_the_contract_in_every_radial_integral(self):
        # the chain's array calls answer rightly, so eval used to fail with a TypeError
        H = AxialFunction(lambda x0, r: x0 * 0 + 1.0, lambda x0, r: x0 * 0, 3, 0, Rectangle(0, 1, 0.5, 1.5))
        prim = invert(H)
        for call in (lambda: prim.eval(0.5, 1.0), lambda: prim.eval(np.array([0.5, 0.7]), 1.0),
                     lambda: radial_integrals(H, 0.5, 1.0)):
            with pytest.raises(ValueError, match="values of r's shape"):
                call()

    @pytest.mark.parametrize("A,B", [
        pytest.param(lambda x0, r: 1.0, lambda x0, r: 0.0, id="numbers"),
        pytest.param(lambda x0, r: x0 + r, lambda x0, r: 0.0, id="a-number-for-b"),
        pytest.param(lambda x0, r: np.asarray(r)[..., None], lambda x0, r: r, id="an-extra-axis"),
    ])
    def test_values_of_the_wrong_shape_name_the_contract(self, A, B):
        # a field that answers an array r with values of another shape raises at that answer,
        # where a number used to pass the chain and fail every radial integral with a TypeError
        H = AxialFunction(A, B, 3, 0, RECT)
        prim = invert(H)
        calls = (lambda: prim.alpha(0, 0.5), lambda: prim.beta(0, 0.5), lambda: prim.eval(0.5, 1.0),
                 lambda: prim.eval(np.array([0.5, 0.7]), 1.0), lambda: radial_integrals(H, 0.5, 1.0))
        for call in calls:
            with pytest.raises(ValueError, match="values of r's shape"):
                call()


class TestOrderKey:
    """The inversion reads (m, k) only through N: (3, 1) and (5, 0) give the same bits."""

    RECT = Rectangle(0.2, 1.0, 0.5, 1.5)

    def profile_fields(self):
        h = jets.arctan()
        return [AxialFunction.from_pair(lambda x0, r, cfg=cfg: fueter_profile(h, cfg, x0, r), cfg.m, cfg.k,
                                        self.RECT, "arctan")
                for cfg in (FueterConfig(3, 1), FueterConfig(5, 0))]

    def grid_fields(self):
        data = TestTabulatedFields().grid_json(self.profile_fields()[0], nx0=8, nr=8)
        fields = []
        for m, k in ((3, 1), (5, 0)):
            data["meta"].update(m=m, k=k)
            fields.append(AxialFunction.from_grid(json.dumps(data)))
        return fields

    @pytest.mark.parametrize("source", ["profile_fields", "grid_fields"])
    def test_primitive_bits_depend_only_on_the_order(self, source):
        xs, rs = self.RECT.grid(6, 6)
        outputs = []
        for H in getattr(self, source)():
            prim = invert(H)
            values = [*prim.eval(xs, rs)]
            values += [family(j, xs) for j in range(2) for family in (prim.alpha, prim.beta)]
            outputs.append((prim.N, prim.K_N, [v.tobytes() for v in values]))
        assert outputs[0] == outputs[1] and outputs[0][:2] == (2, Fraction(1, 16))

    def test_one_cache_entry_per_order(self):
        inverse._forcing_terms.cache_clear()
        order_constants.cache_clear()
        for H in self.profile_fields():
            invert(H).alpha(0, 0.6)
        assert inverse._forcing_terms.cache_info().currsize == 1
        assert order_constants.cache_info().currsize == 1
