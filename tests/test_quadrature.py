"""Adaptive Gauss-Legendre quadrature with known breakpoints and vector integrands."""

import numpy as np
import pytest

from fueter.errors import QuadratureError
from fueter.quadrature import QuadratureConfig, integrate

PANEL = 16  # DEFAULT_QUADRATURE.panel_order
FIRST = 3 * PANEL  # a piece's whole panel and its two halves


def counted(fn):
    calls = []

    def f(t):
        calls.append(np.size(t))
        return fn(t)

    return f, calls


class TestBreaks:
    KINK = 0.37

    def kinked(self, t):
        return t * t * np.abs(t - self.KINK)

    def test_split_at_kink_is_exact_per_piece(self):
        p = self.KINK
        want = 0.25 - p / 3 + p**4 / 6  # integral_0^1 t^2 |t - p| dt
        f, calls = counted(self.kinked)
        assert integrate(f, 0.0, 1.0, breaks=(p,)) == pytest.approx(want, abs=1e-14, rel=0)
        # one call for both pieces' whole panels and halves, which agree at once
        assert calls == [2 * FIRST]

    def test_breaks_outside_or_on_the_ends_change_nothing(self):
        plain = integrate(np.cos, 0.2, 1.3)
        for breaks in ((0.2, 1.3), (-1.0, 5.0), (1.3, 0.2, 0.2)):
            f, calls = counted(np.cos)
            assert integrate(f, 0.2, 1.3, breaks=breaks) == plain
            assert calls == [FIRST]

    def test_reversed_interval_uses_the_same_pieces(self):
        f, calls = counted(self.kinked)
        got = integrate(f, 1.0, 0.0, breaks=np.array([self.KINK, self.KINK]))
        assert got == -integrate(self.kinked, 0.0, 1.0, breaks=(self.KINK,))
        assert calls == [2 * FIRST]


class TestRefinementLevels:
    def test_one_call_per_level_depth_first(self):
        # 1 / (t + 0.01) needs refinement near 0: the first call holds the
        # whole panel and both halves, each later call the two halves of one
        # subinterval
        f, calls = counted(lambda t: 1.0 / (t + 0.01))
        got = integrate(f, 0.0, 1.0)
        assert got == pytest.approx(np.log(101.0), abs=1e-11, rel=0)
        assert calls[0] == FIRST
        assert len(calls) > 1 and set(calls[1:]) == {2 * PANEL}

    def test_only_failing_pieces_refine(self):
        # the kink at 0.8 is not a break, so only the piece holding it refines
        f, calls = counted(lambda t: np.abs(t - 0.8))
        got = integrate(f, 0.0, 1.0, breaks=(0.25, 0.5))
        assert got == pytest.approx(0.32 + 0.02, abs=1e-11, rel=0)
        assert calls[0] == 3 * FIRST
        assert set(calls[1:]) == {2 * PANEL}

    def test_non_finite_value_raises(self):
        with pytest.raises(QuadratureError, match="non-finite"):
            integrate(lambda t: np.where(t > 0.5, np.inf, 1.0), 0.0, 1.0, breaks=(0.25,))

    def test_no_convergence_raises_at_max_depth(self):
        f, calls = counted(np.sqrt)
        with pytest.raises(QuadratureError, match="depth 3"):
            integrate(f, 0.0, 1.0, QuadratureConfig(abs_tol=1e-14, max_depth=3))
        # depth-first: the first level, then one call per level down the
        # leftmost path, where sqrt is least smooth
        assert calls == [FIRST] + [2 * PANEL] * 3


class TestVectorIntegrand:
    SMOOTH = (np.cos, lambda t: np.exp(-t) * t**3, lambda t: 1.0 / (1.0 + 25.0 * t * t))

    @pytest.mark.parametrize("breaks", [(), (0.1, 0.55, 0.9)])
    @pytest.mark.parametrize("pair", [(0, 1), (1, 2), (2, 0)])
    def test_rows_equal_scalar_integrals(self, pair, breaks):
        # each row refines exactly where its scalar integral would, so the
        # values agree bit for bit, even when one row needs more levels
        fs = [self.SMOOTH[i] for i in pair]
        got = integrate(lambda t: np.stack([fn(t) for fn in fs]), -0.3, 1.2, breaks=breaks)
        assert got.shape == (2,)
        assert got.tolist() == [integrate(fn, -0.3, 1.2, breaks=breaks) for fn in fs]

    def test_fewer_calls_than_two_scalar_integrals(self):
        fs = (lambda t: 1.0 / (t + 0.01), np.cos)
        f, calls = counted(lambda t: np.stack([fn(t) for fn in fs]))
        got = integrate(f, 0.0, 1.0)
        scalar_calls = 0
        for fn in fs:
            g, c = counted(fn)
            integrate(g, 0.0, 1.0)
            scalar_calls += len(c)
        assert got.tolist() == [integrate(fn, 0.0, 1.0) for fn in fs]
        assert len(calls) < scalar_calls

    def test_scalar_integrand_returns_float(self):
        assert isinstance(integrate(np.cos, 0.0, 1.0), float)
        assert integrate(np.cos, 0.5, 0.5) == 0.0

    def test_shape_checked(self):
        with pytest.raises(ValueError, match=r"\(p, n\)"):
            integrate(lambda t: t[:-1], 0.0, 1.0)
        with pytest.raises(ValueError, match=r"\(p, n\)"):
            integrate(lambda t: np.ones((2, 2, t.size)), 0.0, 1.0)
