"""Radial operator expansions and their integral inverses.

The symbolic checks below recompute everything from the defining
compositions (iterated d/dx with 1/x factors, explicit parameter
integrals), so they share no code with the expansion coefficients or the
quadrature under test.
"""

import math

import numpy as np
import pytest
import sympy

from fueter import quadrature
from fueter.errors import QuadratureError
from fueter.inverse import AxialFunction, Rectangle, radial_integrals
from fueter.quadrature import QuadratureConfig
from fueter.radial import (
    coeff_a,
    coeff_row,
    double_factorial,
    nested_antiderivative_oracle,
    radial_op,
)

X = sympy.Symbol("x", positive=True)
T = sympy.Symbol("t", positive=True)


def sym_minus(expr, n):
    for _ in range(n):
        expr = sympy.diff(expr, X) / X
    return sympy.simplify(expr)


def sym_plus(expr, n):
    for _ in range(n):
        expr = sympy.diff(expr / X, X)
    return sympy.simplify(expr)


class TestCoefficients:
    def test_pinned_rows(self):
        assert coeff_row(1) == (1,)
        assert coeff_row(2) == (1, 1)
        assert coeff_row(3) == (3, 3, 1)
        assert coeff_row(4) == (15, 15, 6, 1)

    def test_closed_form(self):
        for n in range(1, 9):
            for j in range(1, n + 1):
                expect = math.factorial(2 * n - j - 1) // (
                    2 ** (n - j) * math.factorial(n - j) * math.factorial(j - 1)
                )
                assert coeff_a(j, n) == expect

    def test_bessel_row_shifts(self):
        assert coeff_row(1) == (1,)
        assert coeff_row(2) == (1, 1)
        assert coeff_row(3) == (3, 3, 1)

    def test_range_checks(self):
        with pytest.raises(ValueError):
            coeff_a(0, 1)
        with pytest.raises(ValueError):
            coeff_a(3, 2)

    def test_double_factorial(self):
        assert [double_factorial(n) for n in (-1, 0, 1, 2, 5, 6)] == [1, 1, 1, 2, 15, 48]
        with pytest.raises(ValueError):
            double_factorial(-2)


def single_variant_reference(derivs, x, n, variant):
    """The one-operator expansion radial_op computed per variant before it
    returned the pair, step for step: one power table per variant."""
    g = np.asarray(derivs, dtype=np.longdouble)
    batch = g.shape[1:]
    if n == 0:
        out = g[0]
    else:
        xs = np.broadcast_to(np.asarray(x, dtype=np.longdouble), batch).reshape(-1)
        first, row = (1, coeff_row(n)) if variant == "minus" else (0, coeff_row(n + 1))
        coeffs = np.array([(-1) ** (n + j) * a for j, a in enumerate(row, first)], dtype=np.longdouble)
        terms = coeffs.reshape(-1, 1) * np.power(xs, np.arange(first - 2 * n, 1 - n).reshape(-1, 1))
        terms *= g[first : n + 1].reshape(len(coeffs), -1)
        out = (np.ones(len(coeffs), dtype=np.longdouble) @ terms).reshape(batch)
    return float(out) if not batch else out.astype(np.float64)


def op(derivs, x, n, variant):
    """One component of radial_op's pair: minus of u, or plus of v."""
    return radial_op(derivs, derivs, x, n)[0 if variant == "minus" else 1]


class TestRadialOp:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("variant", ["minus", "plus"])
    def test_matches_symbolic_composition(self, n, variant):
        # derivative data from exp: every order is exp(x)
        x = 1.7
        derivs = np.full(n + 1, math.exp(x))
        got = op(derivs, x, n, variant)
        sym = sym_minus if variant == "minus" else sym_plus
        want = float(sym(sympy.exp(X), n).subs(X, x))
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("variant", ["minus", "plus"])
    def test_polynomial_symbolic(self, variant):
        g = X**7 + 3 * X**4 + 2
        x = 0.83
        derivs = [float(sympy.diff(g, X, j).subs(X, x)) for j in range(4)]
        got = op(np.array(derivs), x, 3, variant)
        sym = sym_minus if variant == "minus" else sym_plus
        want = float(sym(g, 3).subs(X, x))
        assert got == pytest.approx(want, rel=1e-12)

    def test_order_zero_is_identity(self):
        assert radial_op([4.5, 1.0], [-2.5, 3.0], 2.0, 0) == (4.5, -2.5)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_minus_annihilates_even_powers(self, n):
        # (x^-1 d/dx)^n kills x^(2j) for j < n
        for j in range(n):
            g = X ** (2 * j)
            for x in (0.5, 1.0, 2.3):
                derivs = [float(sympy.diff(g, X, i).subs(X, x)) for i in range(n + 1)]
                assert op(np.array(derivs), x, n, "minus") == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_plus_annihilates_odd_powers(self, n):
        for j in range(n):
            g = X ** (2 * j + 1)
            for x in (0.5, 1.0, 2.3):
                derivs = [float(sympy.diff(g, X, i).subs(X, x)) for i in range(n + 1)]
                assert op(np.array(derivs), x, n, "plus") == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("variant", ["minus", "plus"])
    def test_stack_matches_columns(self, variant):
        n = 4
        rng = np.random.default_rng(7)
        derivs = rng.uniform(-2.0, 2.0, (n + 1, 7))
        xs = rng.uniform(0.05, 2.0, 7)
        got = op(derivs, xs, n, variant)
        assert got.shape == (7,) and got.dtype == np.float64
        assert got.tolist() == [op(derivs[:, i], xs[i], n, variant) for i in range(7)]

    @pytest.mark.parametrize("n", range(7))
    def test_pair_equals_single_variant_expansions_bit_for_bit(self, n):
        # one shared power table gives each component the bits of its own expansion,
        # at a point, on a batch and whatever the batch's shape
        rng = np.random.default_rng(100 + n)
        u, v = rng.uniform(-3.0, 3.0, (2, n + 2, 4, 5))
        xs = rng.uniform(0.01, 2.0, (4, 5))
        minus, plus = radial_op(u, v, xs, n)
        assert minus.tolist() == single_variant_reference(u, xs, n, "minus").tolist()
        assert plus.tolist() == single_variant_reference(v, xs, n, "plus").tolist()
        flat = radial_op(u.reshape(n + 2, 20), v.reshape(n + 2, 20), xs.reshape(20), n)
        assert [c.reshape(4, 5).tolist() for c in flat] == [minus.tolist(), plus.tolist()]
        point = radial_op(u[:, 1, 2], v[:, 1, 2], xs[1, 2], n)
        assert all(type(c) is float for c in point)
        assert point == (single_variant_reference(u[:, 1, 2], xs[1, 2], n, "minus"),
                         single_variant_reference(v[:, 1, 2], xs[1, 2], n, "plus"))
        assert point == (minus[1, 2], plus[1, 2])

    def test_singular_at_origin(self):
        with pytest.raises(ValueError, match="singular"):
            radial_op([1.0, 1.0], [1.0, 1.0], 0.0, 1)
        with pytest.raises(ValueError, match="singular"):
            radial_op(np.ones((2, 3)), np.ones((2, 3)), np.array([1.0, 0.0, 2.0]), 1)

    def test_short_derivative_array(self):
        with pytest.raises(ValueError):
            radial_op([1.0], [1.0, 1.0], 1.0, 1)
        with pytest.raises(ValueError):
            radial_op([1.0, 1.0], [1.0], 1.0, 1)

    def test_mismatched_batch_shapes_rejected(self):
        with pytest.raises(ValueError, match="batch"):
            radial_op(np.ones((2, 3)), np.ones((2, 4)), 1.0, 1)


class TestAntiderivative:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_phi_is_right_inverse_symbolically(self, n):
        # 1/(2n-2)!! Int_a^x t (x^2-t^2)^(n-1) f(t) dt solves (x^-1 d/dx)^n g = f
        a = sympy.Rational(1, 2)
        f = T**2 + 1
        phi = sympy.integrate(
            T * (X**2 - T**2) ** (n - 1) * f, (T, a, X)
        ) / double_factorial(2 * n - 2)
        assert sympy.simplify(sym_minus(phi, n) - (X**2 + 1)) == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_psi_is_right_inverse_symbolically(self, n):
        a = sympy.Rational(1, 2)
        f = T**2 + 1
        psi = X * sympy.integrate(
            (X**2 - T**2) ** (n - 1) * f, (T, a, X)
        ) / double_factorial(2 * n - 2)
        assert sympy.simplify(sym_plus(psi, n) - (X**2 + 1)) == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("variant", [1, 2], ids=["phi", "psi"])
    def test_numeric_matches_symbolic(self, n, variant):
        # radial_integrals / (2n-2)!! is (phi_n, psi_n) with a = c; m = 3, k = n - 1 give N = n
        def field(x0, t):
            return t**2 + 1.0

        a = 0.5
        H = AxialFunction(field, field, 3, n - 1, Rectangle(0.0, 1.0, a, 2.0))
        f = T**2 + 1
        if variant == 1:
            expr = sympy.integrate(T * (X**2 - T**2) ** (n - 1) * f, (T, a, X))
        else:
            expr = X * sympy.integrate((X**2 - T**2) ** (n - 1) * f, (T, a, X))
        expr = expr / double_factorial(2 * n - 2)
        for x in (0.5, 0.9, 1.7, 2.0):
            got = radial_integrals(H, 0.0, x)[variant - 1] / double_factorial(2 * n - 2)
            want = float(expr.subs(X, x))
            assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_agrees_with_nested_recursion(self):
        def f(t):
            return np.exp(-t) * np.sin(3 * t)

        rect = Rectangle(0.0, 1.0, 0.2, 1.4)
        for n in (1, 2, 3):
            H = AxialFunction(lambda x0, t: f(t), lambda x0, t: f(t), 3, n - 1, rect)  # N = n
            single = [i / double_factorial(2 * n - 2) for i in radial_integrals(H, 0.0, 1.3)]
            assert single == pytest.approx(nested_antiderivative_oracle(f, 0.2, 1.3, n), abs=1e-10)

    def test_argument_validation(self):
        H = AxialFunction(lambda x0, t: np.cos(t), lambda x0, t: np.cos(t), 3, 0, Rectangle(0.0, 1.0, 0.5, 1.0))
        with pytest.raises(ValueError, match="outside"):
            radial_integrals(H, 0.0, 1.5)
        with pytest.raises(ValueError, match="order"):
            nested_antiderivative_oracle(np.cos, 0.0, 0.5, 0)

    def test_quadrature_failure_surfaces(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_DEPTH", 3)
        def f(x0, t):
            return np.sin(200.0 / (t + 0.01))

        H = AxialFunction(f, f, 3, 0, Rectangle(0.0, 1.0, 0.001, 1.0))
        strict = QuadratureConfig(abs_tol=1e-300)
        with pytest.raises(QuadratureError, match="at depth 3"):
            radial_integrals(H, 0.0, 1.0, quad=strict)
