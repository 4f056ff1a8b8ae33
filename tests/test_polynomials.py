import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fueter.clifford import Multivector
from fueter.polynomials import MonogenicPolynomial, builtin_pk


def e(m, j):
    return Multivector.basis_vector(m, j)


class TestDirac:
    def test_swap_polynomial_is_monogenic(self):
        # x1 e2 + x2 e1 has Dirac image e1 e2 + e2 e1 = 0
        P = builtin_pk(3, 1, 1, 2, 1)
        assert P.validate() is P

    def test_difference_polynomial_is_monogenic(self):
        P = builtin_pk(3, 1, 1, 2, -1)
        assert P.validate() is P

    def test_linear_monomial_is_not(self):
        # Dirac of x1 e1 is e1 e1 = -1
        bad = MonogenicPolynomial(3, 1, {(1, 0, 0): e(3, 1)})
        image = bad.dirac()
        assert image.k == 0
        assert image(np.zeros(3)) == Multivector.scalar(3, -1.0)
        with pytest.raises(ValueError, match="not monogenic"):
            bad.validate()

    def test_constant_has_zero_dirac(self):
        P = builtin_pk(5, 0)
        assert P.validate() is P


class TestEvaluation:
    def test_builtin_k1_values(self):
        P = builtin_pk(3, 1)
        val = P(np.array([2.0, 3.0, 0.0]))
        assert val == 2.0 * e(3, 2) + 3.0 * e(3, 1)

    def test_k0_is_one(self):
        P = builtin_pk(3, 0)
        assert P(np.zeros(3)) == Multivector.scalar(3, 1.0)

    def test_wrong_point_dimension(self):
        with pytest.raises(ValueError):
            builtin_pk(3, 1)(np.zeros(4))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=-10, max_value=10), min_size=3, max_size=3),
        st.floats(min_value=-5, max_value=5),
    )
    def test_homogeneity(self, point, t):
        P = builtin_pk(3, 1, 1, 3, -1)
        x = np.asarray(point)
        lhs = P(t * x)
        rhs = t ** P.k * P(x)
        assert (lhs - rhs).norm() <= 1e-9 * max(1.0, rhs.norm())


class TestConstruction:
    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            MonogenicPolynomial(3, 2, {(1, 0, 0): e(3, 1)})

    def test_exponent_arity_rejected(self):
        with pytest.raises(ValueError):
            MonogenicPolynomial(3, 1, {(1, 0): e(3, 1)})

    def test_coefficient_algebra_mismatch(self):
        with pytest.raises(ValueError, match="algebra mismatch"):
            MonogenicPolynomial(3, 1, {(1, 0, 0): e(5, 1)})

    def test_builtin_bad_axes(self):
        with pytest.raises(ValueError):
            builtin_pk(3, 1, 2, 2)
        with pytest.raises(ValueError):
            builtin_pk(3, 1, 1, 4)
        with pytest.raises(ValueError):
            builtin_pk(3, 2)
