"""Integral inversion: primitives of axial fields on a rectangle."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import fueter
from fueter import jets, quadrature
from fueter.errors import NumericalError, QuadratureError
from fueter.forward import FueterConfig, fueter_fields
from fueter.inverse import (
    AxialFunction,
    Rectangle,
    _fh_weights,
    _radial_rule,
    integral_I,
    invert,
)
from fueter.oracles import axial_field, example1_oracle
from fueter.quadrature import DEFAULT_QUADRATURE, PANEL_ORDER, QuadratureConfig, integrate
from fueter.verify import GridSpec, polynomial_fit_residual, vekua_residual

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

    def test_contains_and_require(self):
        assert RECT.contains(0.0, 0.5)
        assert RECT.contains(1.0, 1.5)
        assert not RECT.contains(1.1, 1.0)
        with pytest.raises(ValueError, match="outside"):
            RECT.require(0.5, 0.4)


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


class TestWeightedIntegrals:
    def test_variant1_matches_closed_form(self):
        H = axial_field("example1")
        for x0, r in ((0.1, 0.8), (0.5, 1.2), (0.9, 1.5)):
            got = integral_I(1, H.A, x0, r, H.rect, H.N)
            want = example1_oracle("I1", x0=x0, r=r, c=H.rect.c)
            assert got == pytest.approx(want, abs=1e-12)

    def test_variant2_matches_closed_form(self):
        H = axial_field("example1")
        for x0, r in ((0.1, 0.8), (0.5, 1.2), (0.9, 1.5)):
            got = integral_I(2, H.B, x0, r, H.rect, H.N)
            want = example1_oracle("I2", x0=x0, r=r, c=H.rect.c)
            assert got == pytest.approx(want, abs=1e-12)

    def test_fundamental_theorem(self):
        # variant 1 with N = 1 is int_c^r t A dt, so d/dr = r A
        H = axial_field("cubic")
        x0, r, eps = 0.4, 1.1, 1e-5
        hi = integral_I(1, H.A, x0, r + eps, H.rect, 1)
        lo = integral_I(1, H.A, x0, r - eps, H.rect, 1)
        assert (hi - lo) / (2 * eps) == pytest.approx(r * H.A(x0, r), rel=1e-8)

    def test_empty_interval_is_zero(self):
        H = axial_field("cubic")
        assert integral_I(1, H.A, 0.2, H.rect.c, H.rect, 1) == 0.0
        assert integral_I(2, H.B, 0.2, H.rect.c, H.rect, 1) == 0.0

    def test_bad_variant(self):
        H = axial_field("cubic")
        with pytest.raises(ValueError):
            integral_I(3, H.A, 0.2, 1.0, H.rect, 1)


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
        u = kn * integral_I(1, H.A, x0, r, H.rect, 1) + prim.alpha(0, x0)
        v = kn * integral_I(2, H.B, x0, r, H.rect, 1) + prim.beta(0, x0) * r
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

    def test_radial_integrals_match_the_sampled_field(self):
        # the smooth interpolant needs no split at the grid's r lines: each
        # radial integral is accepted at the first level and lands within
        # the interpolation error of the sampled field's own integral
        rect = Rectangle(0.3, 1.3, 0.45, 1.45)
        A, B = fueter_fields(jets.arctan(), FueterConfig(3, 0))
        G, calls = _counting(AxialFunction.from_grid(self.grid_json(AxialFunction(A, B, 3, 0, rect), 40, 40)))
        for variant, f, exact in ((1, G.A, A), (2, G.B, B)):
            got = integral_I(variant, f, 0.77, 1.234, rect, G.N)
            assert got == pytest.approx(integral_I(variant, exact, 0.77, 1.234, rect, G.N), abs=1e-9, rel=0)
        assert calls == {"A": [48], "B": [48]}

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


def test_import_pulls_in_no_scipy():
    src = os.path.dirname(os.path.dirname(fueter.__file__))
    code = "import sys, fueter; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
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

    def test_vekua_residual_passes_good_field(self):
        H = axial_field("cubic")
        assert vekua_residual(H.A, H.B, H.k, H.m, GridSpec(H.rect, 6, 6)).max <= 1e-8

    def test_vekua_residual_flags_non_monogenic_field(self):
        bad = AxialFunction(lambda x0, r: x0 * 0 + 1.0, lambda x0, r: r * 0 + 1.0, 3, 0, RECT)
        assert vekua_residual(bad.A, bad.B, bad.k, bad.m, GridSpec(RECT, 5, 5)).max > 1e-8

    def test_quadrature_config_threads_through(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_DEPTH", 2)
        H = axial_field("example1")
        prim = invert(H, quad=QuadratureConfig(abs_tol=1e-300))
        with pytest.raises(QuadratureError, match="at depth 2"):
            prim.eval(0.5, 1.4)
        with pytest.raises(QuadratureError, match="at depth 2"):
            integral_I(1, H.A, 0.5, 1.4, H.rect, H.N, prim.quad)


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
        # invert calls no field; a new x0 takes one A and one B call on the
        # forcing integral's first level, and the same x0 is remembered
        G, calls = _counting(axial_field("example1"))
        prim = invert(G)
        assert calls == {"A": [], "B": []}
        prim.alpha(0, 0.3)
        prim.beta(1, 0.3)
        assert calls == {"A": [48], "B": [48]}

    def test_coefficients_at_a_are_init_without_field_calls(self):
        G, calls = _counting(axial_field("example1"))
        init = [0.1, -2.5, 1e-300, -0.0]
        prim = invert(G, init=init)
        a = G.rect.a
        assert [prim.alpha(0, a), prim.alpha(1, a), prim.beta(0, a), prim.beta(1, a)] == init
        assert calls == {"A": [], "B": []}

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
    """H with A and B wrapped to record the node count of every call."""
    calls = {"A": [], "B": []}

    def counted(fn, key):
        return lambda x0, r: calls[key].append(np.size(r)) or scale * fn(x0, r)

    G = AxialFunction(counted(H.A, "A"), counted(H.B, "B"), H.m, H.k, H.rect)
    return G, calls


class TestFusedEval:
    @pytest.mark.parametrize("name", ["cubic", "example1", "example2-nplus", "cauchy-kernel"])
    def test_closed_form_eval_calls_each_field_once(self, name):
        G, calls = _counting(axial_field(name))
        prim = invert(G)
        a, b, c, d = G.rect.as_tuple()
        x0, r = a + 0.37 * (b - a), c + 0.71 * (d - c)
        prim.alpha(0, x0)  # the coefficient chain's own calls
        calls["A"].clear()
        calls["B"].clear()
        prim.eval(x0, r)
        assert calls == {"A": [48], "B": [48]}

    def test_tabulated_eval_calls_each_field_once(self):
        rect = Rectangle(0.3, 1.3, 0.45, 1.45)
        A, B = fueter_fields(jets.arctan(), FueterConfig(3, 0))
        grid = TestTabulatedFields().grid_json(AxialFunction(A, B, 3, 0, rect), 40, 40)
        G, calls = _counting(AxialFunction.from_grid(grid))
        prim = invert(G)
        x0, r = 0.77, 1.234
        prim.alpha(0, x0)
        calls["A"].clear()
        calls["B"].clear()
        u, v = prim.eval(x0, r)
        # one call per field: the whole panel and its halves, accepted
        assert calls == {"A": [48], "B": [48]}
        # the integrals of integral_I agree bit for bit
        kn = float(prim.K_N)
        i1 = integral_I(1, G.A, x0, r, rect, G.N)
        i2 = integral_I(2, G.B, x0, r, rect, G.N)
        coeffs = [prim.alpha(0, x0), prim.beta(0, x0)]
        assert (u, v) == (kn * i1 + coeffs[0], kn * i2 + r * coeffs[1])

    def test_scaled_example1_still_fails_with_fewer_calls(self):
        # example1 x 1e6 needs a per-leaf tolerance below one ulp (ROADMAP
        # item 5); refining one panel per call took 117 integrand calls at
        # this point before it raised
        G, calls = _counting(axial_field("example1"), scale=1e6)
        prim = invert(G)
        prim.alpha(0, 0.5)
        calls["A"].clear()
        calls["B"].clear()
        with pytest.raises(QuadratureError, match="no convergence"):
            prim.eval(0.5, 1.4)
        assert len(calls["A"]) == len(calls["B"]) <= 117

    def test_empty_radial_interval(self):
        # r = c integrates over nothing and calls no field
        G, calls = _counting(axial_field("example1"))
        prim = invert(G)
        prim.alpha(0, 0.3)
        calls["A"].clear()
        u, v = prim.eval(0.3, G.rect.c)
        assert calls["A"] == []
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
    """The kernel-weighted first level that eval and integral_I share."""

    @pytest.mark.parametrize("name,m", CLOSED_FORM)
    def test_eval_is_kn_integral_I_plus_corrections_bit_for_bit(self, name, m):
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
            i1 = integral_I(1, H.A, x0, r, H.rect, N)
            i2 = integral_I(2, H.B, x0, r, H.rect, N)
            assert (u, v) == (kn * i1 + cu, kn * i2 + r * cv), (x0, r)
            checked += 1
        assert checked >= len(points) - 2

    @pytest.mark.parametrize("name,m", CLOSED_FORM + [("tabulated", None)])
    def test_agrees_with_integrate_on_the_kernel_times_field(self, name, m):
        H = _tabulated_40() if name == "tabulated" else _closed_form(name, m)
        # the rule's first level is integrate's arithmetic on cached kernels,
        # so the two agree bit for bit, well inside 1e-14 * max(1, |I|)
        for x0, r in _seeded_points(H.rect, 64, 29):
            i1, i2 = _explicit_integrals(H, x0, r).tolist()
            got1 = integral_I(1, H.A, x0, r, H.rect, H.N)
            got2 = integral_I(2, H.B, x0, r, H.rect, H.N)
            assert (got1, got2) == (i1, r * i2), (x0, r)

    def test_failure_matches_integrate_message_and_calls(self):
        # example1 x 1e6 cannot meet the absolute tolerance at (0.5, 1.4)
        G, calls = _counting(axial_field("example1"), scale=1e6)
        prim = invert(G)
        prim.alpha(0, 0.5)
        outcomes = []
        for run in (lambda: prim.eval(0.5, 1.4), lambda: _explicit_integrals(G, 0.5, 1.4)):
            calls["A"].clear()
            calls["B"].clear()
            with pytest.raises(QuadratureError) as err:
                run()
            outcomes.append((str(err.value), list(calls["A"]), list(calls["B"])))
        assert "no convergence" in outcomes[0][0]
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1][0] == 48 and len(outcomes[0][1]) > 1

    def test_reversed_interval_below_c(self):
        # r up to EDGE_TOL below c integrates from c down to r
        H = axial_field("example1")
        r = H.rect.c - 5e-13
        for variant, f in ((1, H.A), (2, H.B)):
            got = integral_I(variant, f, 0.3, r, H.rect, H.N)
            want = _explicit_integrals(H, 0.3, r)[variant - 1] * (r if variant == 2 else 1.0)
            assert got == want and got != 0.0

    def test_rule_arrays_are_read_only(self):
        H = _tabulated_40()
        prim = invert(H)
        prim.eval(0.77, 1.234)
        x, blocks = _radial_rule(H.rect.c, 1.234, 1.0, H.N, PANEL_ORDER)
        assert _radial_rule.cache_info().hits >= 1
        assert x.size == 3 * PANEL_ORDER
        assert {v: (k.shape, h.shape) for v, (k, h) in blocks.items()} == {
            (1,): ((1, x.size), (1, 3)),
            (2,): ((1, x.size), (1, 3)),
            (1, 2): ((2, x.size), (2, 3)),
        }
        for arr in (x, *[a for block in blocks.values() for a in block]):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0


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

    def test_any_point_outside_rejected(self):
        prim = invert(axial_field("cubic"))
        with pytest.raises(ValueError, match="outside"):
            prim.eval(np.array([0.5, 2.0]), 1.0)


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
