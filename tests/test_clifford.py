import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fueter.clifford import MAX_DIM, Multivector, Paravector, _tables

REL_TOL = 1e-12


def mv(m, **labels):
    """Shorthand: mv(2, s=1.0, e1=2.0, e12=-1.0)."""
    pairs = []
    for key, val in labels.items():
        pairs.append(("" if key == "s" else key[1:], val))
    return Multivector.from_pairs(m, pairs)


coeff = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


@st.composite
def multivectors(draw, m=None):
    if m is None:
        m = draw(st.integers(min_value=1, max_value=4))
    c = draw(st.lists(coeff, min_size=1 << m, max_size=1 << m))
    return Multivector(m, c)


def close(a: Multivector, b: Multivector, tol=REL_TOL) -> bool:
    scale = max(a.norm(), b.norm(), 1.0)
    return (a - b).norm() <= tol * scale


class TestProducts:
    def test_basis_vector_squares_to_minus_one(self):
        for m in (1, 2, 3, 5):
            for j in range(1, m + 1):
                e = Multivector.basis_vector(m, j)
                assert e * e == Multivector.scalar(m, -1.0)

    def test_anticommutation(self):
        e1 = Multivector.basis_vector(3, 1)
        e2 = Multivector.basis_vector(3, 2)
        assert e1 * e2 == -(e2 * e1)
        assert e1 * e2 == Multivector.from_pairs(3, [("12", 1.0)])

    def test_difference_of_squares(self):
        one = Multivector.scalar(2, 1.0)
        e1 = Multivector.basis_vector(2, 1)
        assert (one + e1) * (one - e1) == Multivector.scalar(2, 2.0)

    def test_triple_blade_reordering(self):
        # e2 e1 e3 = -e1 e2 e3
        e1, e2, e3 = (Multivector.basis_vector(3, j) for j in (1, 2, 3))
        assert e2 * e1 * e3 == -Multivector.from_pairs(3, [("123", 1.0)])

    def test_scalar_multiplication(self):
        a = mv(2, s=1.0, e1=-2.0, e12=0.5)
        assert 2.0 * a == a * 2.0
        assert (2.0 * a).coeffs[0] == 2.0
        assert a / 2.0 == 0.5 * a

    def test_dimension_mismatch_rejected(self):
        a = Multivector.scalar(2, 1.0)
        b = Multivector.scalar(3, 1.0)
        with pytest.raises(ValueError):
            a * b
        with pytest.raises(ValueError):
            a + b


def oracle_sign(a: int, b: int) -> float:
    """Sign of e_A e_B: pairs (i in A, j in B) with i > j, plus |A & B|."""
    A = [i for i in range(MAX_DIM) if a >> i & 1]
    B = [j for j in range(MAX_DIM) if b >> j & 1]
    count = sum(1 for i in A for j in B if i > j) + len(set(A) & set(B))
    return -1.0 if count % 2 else 1.0


def bincount_product(x: np.ndarray, y: np.ndarray, m: int) -> np.ndarray:
    """Dense outer product scattered onto a ^ b by bincount, in blade-pair order."""
    perm, signs, _, _ = _tables(m)
    blades = np.arange(1 << m)
    pair_signs = np.take_along_axis(signs, perm, axis=1)  # sign of e_a e_b at [a, b]
    contrib = (x[:, None] * y[None, :]) * pair_signs
    return np.bincount((blades[:, None] ^ blades).ravel(), weights=contrib.ravel(), minlength=1 << m)


class TestProductTables:
    @pytest.mark.parametrize("m", range(1, 7))
    def test_tables_match_oracle_exhaustively(self, m):
        perm, signs, _, _ = _tables(m)
        dim = 1 << m
        for a in range(dim):
            for k in range(dim):
                assert perm[a, k] == a ^ k
                assert signs[a, k] == oracle_sign(a, a ^ k), (m, a, k)

    @pytest.mark.parametrize("m", range(7, MAX_DIM + 1))
    def test_tables_match_oracle_on_samples(self, m):
        perm, signs, _, _ = _tables(m)
        rng = np.random.default_rng(m)
        for a, k in rng.integers(0, 1 << m, size=(300, 2)):
            assert perm[a, k] == a ^ k
            assert signs[a, k] == oracle_sign(int(a), int(a ^ k)), (m, a, k)

    @pytest.mark.parametrize("m", range(1, MAX_DIM + 1))
    def test_products_bitwise_equal_dense_scatter(self, m):
        rng = np.random.default_rng(100 + m)
        dim = 1 << m
        for density in (1.0, 0.1, 0.02):
            for _ in range(3):
                # masked normals carry both +0.0 and -0.0
                x = rng.standard_normal(dim) * (rng.random(dim) < density)
                y = rng.standard_normal(dim) * (rng.random(dim) < density)
                got = (Multivector(m, x) * Multivector(m, y)).coeffs
                assert got.tobytes() == bincount_product(x, y, m).tobytes(), (m, density)
        y = rng.standard_normal(dim)
        got = (Multivector.scalar(m, 0.0) * Multivector(m, y)).coeffs
        assert got.tobytes() == bincount_product(np.zeros(dim), y, m).tobytes()
        assert got.tobytes() == np.zeros(dim).tobytes()
        # every term -0.0: the sum is +0.0, as bincount's is
        got = (Multivector.scalar(m, -1.0) * Multivector.scalar(m, 0.0)).coeffs
        assert got.tobytes() == bincount_product(-np.eye(dim)[0], np.zeros(dim), m).tobytes()

    @pytest.mark.parametrize("m", (1, 4, MAX_DIM))
    def test_tables_are_read_only(self, m):
        for table in _tables(m):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0


class TestConjugation:
    def test_scalar_fixed_vector_negated(self):
        assert Multivector.scalar(3, 2.0).conjugate() == Multivector.scalar(3, 2.0)
        e1 = Multivector.basis_vector(3, 1)
        assert e1.conjugate() == -e1

    def test_bivector_negated(self):
        b = Multivector.from_pairs(3, [("12", 1.0)])
        assert b.conjugate() == -b

    def test_grade_signs(self):
        # grade g picks up (-1)^(g(g+1)/2): +, -, -, +, +, ...
        signs = [1, -1, -1, 1, 1]
        for g, sign in enumerate(signs):
            blade = Multivector.from_pairs(5, [("12345"[:g], 1.0)])
            assert blade.conjugate() == float(sign) * blade


class TestParavector:
    def test_embed_product_gives_squared_norm(self):
        p = Paravector(2.0, [1.0, 0.0, 2.0])
        x = p.embed()
        prod = x * x.conjugate()
        assert prod == Multivector.scalar(3, 9.0)

    def test_omega_is_unit(self):
        p = Paravector(0.5, [3.0, 4.0])
        assert p.r == pytest.approx(5.0)
        assert np.allclose(p.omega, [0.6, 0.8])

    @pytest.mark.parametrize("scale", [1e-150, 1e-3, 1.0, 1e3, 1e150])
    def test_r_has_the_bits_of_linalg_norm(self, scale):
        rng = np.random.default_rng(7)
        for size in range(1, MAX_DIM + 1):
            for _ in range(20):
                vec = scale * rng.normal(size=size)
                r = Paravector(0.0, vec).r
                assert type(r) is float and r == float(np.linalg.norm(vec))
        assert Paravector(0.0, [3.0, -4.0]).r == 5.0

    def test_omega_undefined_on_axis(self):
        with pytest.raises(ValueError):
            Paravector(1.0, [0.0, 0.0]).omega


class TestSerialization:
    def test_pairs_round_trip(self):
        a = mv(3, s=1.5, e1=-2.0, e13=0.25, e123=7.0)
        assert Multivector.from_pairs(3, a.to_pairs()) == a

    def test_pairs_drop_zeros(self):
        a = mv(2, e2=1.0)
        assert a.to_pairs() == [("2", 1.0)]

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            Multivector.from_pairs(2, [("3", 1.0)])

    def test_max_dim_enforced(self):
        with pytest.raises(ValueError):
            Multivector.scalar(MAX_DIM + 1, 0.0)


@settings(max_examples=200, deadline=None)
@given(multivectors(m=3), multivectors(m=3), multivectors(m=3))
def test_product_associative(a, b, c):
    assert close((a * b) * c, a * (b * c), tol=1e-9)


@settings(max_examples=200, deadline=None)
@given(multivectors(m=3), multivectors(m=3), multivectors(m=3))
def test_product_distributes(a, b, c):
    assert close(a * (b + c), a * b + a * c, tol=1e-9)


@settings(max_examples=200, deadline=None)
@given(multivectors(), st.floats(min_value=-10, max_value=10))
def test_scalar_embedding_commutes(a, t):
    assert close(Multivector.scalar(a.m, t) * a, t * a)
    assert close(a * Multivector.scalar(a.m, t), t * a)


@settings(max_examples=200, deadline=None)
@given(multivectors(m=4), multivectors(m=4))
def test_conjugation_antiautomorphism(a, b):
    assert close((a * b).conjugate(), b.conjugate() * a.conjugate(), tol=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-5, max_value=5),
    st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=5).filter(
        lambda v: sum(x * x for x in v) > 1e-12
    ),
)
def test_embed_conjugate_norm(x0, vec):
    p = Paravector(x0, vec)
    x = p.embed()
    prod = x * x.conjugate()
    assert np.all(np.abs(prod.coeffs[1:]) <= 1e-12 * max(1.0, prod.norm()))
    assert prod.coeffs[0] == pytest.approx(x0**2 + np.dot(vec, vec), rel=1e-12, abs=1e-12)
