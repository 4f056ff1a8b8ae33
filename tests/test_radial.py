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


class TestRadialOp:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("variant", ["minus", "plus"])
    def test_matches_symbolic_composition(self, n, variant):
        # derivative data from exp: every order is exp(x)
        x = 1.7
        derivs = np.full(n + 1, math.exp(x))
        got = radial_op(derivs, x, n, variant)
        op = sym_minus if variant == "minus" else sym_plus
        want = float(op(sympy.exp(X), n).subs(X, x))
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("variant", ["minus", "plus"])
    def test_polynomial_symbolic(self, variant):
        g = X**7 + 3 * X**4 + 2
        x = 0.83
        derivs = [float(sympy.diff(g, X, j).subs(X, x)) for j in range(4)]
        got = radial_op(np.array(derivs), x, 3, variant)
        op = sym_minus if variant == "minus" else sym_plus
        want = float(op(g, 3).subs(X, x))
        assert got == pytest.approx(want, rel=1e-12)

    def test_order_zero_is_identity(self):
        assert radial_op([4.5, 1.0], 2.0, 0, "minus") == 4.5
        assert radial_op([4.5, 1.0], 2.0, 0, "plus") == 4.5

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_minus_annihilates_even_powers(self, n):
        # (x^-1 d/dx)^n kills x^(2j) for j < n
        for j in range(n):
            g = X ** (2 * j)
            for x in (0.5, 1.0, 2.3):
                derivs = [float(sympy.diff(g, X, i).subs(X, x)) for i in range(n + 1)]
                assert radial_op(np.array(derivs), x, n, "minus") == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_plus_annihilates_odd_powers(self, n):
        for j in range(n):
            g = X ** (2 * j + 1)
            for x in (0.5, 1.0, 2.3):
                derivs = [float(sympy.diff(g, X, i).subs(X, x)) for i in range(n + 1)]
                assert radial_op(np.array(derivs), x, n, "plus") == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("variant", ["minus", "plus"])
    def test_stack_matches_columns(self, variant):
        n = 4
        rng = np.random.default_rng(7)
        derivs = rng.uniform(-2.0, 2.0, (n + 1, 7))
        xs = rng.uniform(0.05, 2.0, 7)
        got = radial_op(derivs, xs, n, variant)
        assert got.shape == (7,) and got.dtype == np.float64
        assert got.tolist() == [radial_op(derivs[:, i], xs[i], n, variant) for i in range(7)]

    def test_singular_at_origin(self):
        with pytest.raises(ValueError, match="singular"):
            radial_op([1.0, 1.0], 0.0, 1)
        with pytest.raises(ValueError, match="singular"):
            radial_op(np.ones((2, 3)), np.array([1.0, 0.0, 2.0]), 1)

    def test_short_derivative_array(self):
        with pytest.raises(ValueError):
            radial_op([1.0], 1.0, 1)

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            radial_op([1.0, 1.0], 1.0, 1, "sideways")


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
