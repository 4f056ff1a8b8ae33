"""Adaptive Gauss-Legendre quadrature on one interval, with vector integrands."""

import re

import numpy as np
import pytest

from fueter import quadrature
from fueter.errors import QuadratureError
from fueter.quadrature import PANEL_ORDER as PANEL
from fueter.quadrature import QuadratureConfig, _layout, _panels, _refine, integrate

FIRST = 3 * PANEL  # a piece's whole panel and its two halves


def counted(fn):
    calls = []

    def f(t):
        calls.append(np.size(t))
        return fn(t)

    return f, calls


class TestOneInterval:
    KINK = 0.37

    def kinked(self, t):
        return t * t * np.abs(t - self.KINK)

    def test_polynomial_is_exact_at_the_first_level(self):
        # degree < 2 * PANEL: the whole panel and both halves agree up to rounding
        f, calls = counted(lambda t: t**7 - 3.0 * t**2 + 1.0)
        assert integrate(f, 0.0, 1.0) == pytest.approx(0.125, abs=1e-15, rel=0)
        assert calls == [FIRST]

    def test_reversed_interval_refines_the_same_subintervals(self):
        f, calls = counted(self.kinked)
        got = integrate(f, 1.0, 0.0)
        g, forward = counted(self.kinked)
        assert got == -integrate(g, 0.0, 1.0)
        assert calls == forward and len(calls) > 1


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

    def test_only_failing_subintervals_refine(self):
        # every refinement call evaluates the halves of one child of a
        # subinterval that disagreed, and only those holding the kink at 0.8
        # disagree: each call lies within its own width of the kink
        nodes = []
        got = integrate(lambda t: nodes.append(t) or np.abs(t - 0.8), 0.0, 1.0)
        assert got == pytest.approx(0.32 + 0.02, abs=1e-11, rel=0)
        assert nodes[0].size == FIRST and len(nodes) > 2
        for t in nodes[1:]:
            span = t.max() - t.min()
            assert t.size == 2 * PANEL and abs(0.5 * (t.max() + t.min()) - 0.8) < 1.6 * span

    def test_non_finite_value_raises(self):
        with pytest.raises(QuadratureError, match="non-finite"):
            integrate(lambda t: np.where(t > 0.5, np.inf, 1.0), 0.0, 1.0)

    def test_no_convergence_raises_at_max_depth(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_DEPTH", 3)
        f, calls = counted(np.sqrt)
        with pytest.raises(QuadratureError, match="depth 3"):
            integrate(f, 0.0, 1.0, QuadratureConfig(abs_tol=1e-14))
        # depth-first: the first level, then one call per level down the
        # leftmost path, where sqrt is least smooth
        assert calls == [FIRST] + [2 * PANEL] * 3

    def test_non_finite_halves_raise_under_any_tolerance(self):
        def spike(t):  # the whole panel's nodes miss it, the left half's first node does not
            return np.where(t < 0.004, np.inf, 1.0)

        with pytest.raises(QuadratureError, match=r"non-finite panel value on \[0, 1\]"):
            integrate(spike, 0.0, 1.0, QuadratureConfig(abs_tol=np.inf))

    @pytest.mark.parametrize("vector", [False, True])
    @pytest.mark.parametrize("shift", [0.0, 1.0])
    def test_non_finite_value_raises_before_no_convergence(self, monkeypatch, shift, vector):
        # on [s, s + 1] the left half only disagrees (a kink, and max depth
        # 0 allows no refinement) while the right half is infinite: the
        # non-finite value raises, although disagreement alone would too
        monkeypatch.setattr(quadrature, "MAX_DEPTH", 0)

        def kinked(t):
            return np.abs(t - 0.2 - shift)

        def f(t):
            infinite = t > 0.5 + shift
            if vector:
                return np.stack([kinked(t), np.where(infinite, np.inf, 1.0)])
            return np.where(infinite, np.inf, kinked(t))

        a, b = shift, 1.0 + shift
        with pytest.raises(QuadratureError, match=re.escape(f"non-finite panel value on [{a:g}, {b:g}]")):
            integrate(f, a, b)
        with pytest.raises(QuadratureError, match=re.escape(f"no convergence on [{a:g}, {b:g}] at depth 0")):
            integrate(kinked, a, b)


def outcome(fn, a, b, cfg=QuadratureConfig()):
    """(the result's bytes or the error's message, the integrand's call sizes)."""
    f, calls = counted(fn)
    try:
        return np.asarray(integrate(f, a, b, cfg)).tobytes(), calls
    except QuadratureError as exc:
        return str(exc), calls


def reference_integrate(f, a, b, cfg=QuadratureConfig()):
    """integrate with the first level laid out afresh and accepted in numpy arrays."""
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b, sign = b, a, -1.0
    mid = 0.5 * (a + b)
    whole, left, right = np.moveaxis(_panels(f, np.array([a, a, mid]), np.array([b, mid, b]), PANEL), -1, 0)
    values = left + right
    settled = np.isfinite(values)
    if settled.all():
        settled = np.abs(values - whole) <= cfg.abs_tol
    if not settled.all():
        values = _refine(f, a, b, np.atleast_1d(whole), np.atleast_1d(left), np.atleast_1d(right), cfg.abs_tol, 0)
    totals = [sign * value for value in np.atleast_1d(values).tolist()]
    return totals[0] if np.ndim(whole) == 0 else np.array(totals)


class TestAgainstNumpyAcceptance:
    FNS = (
        np.cos,
        np.sqrt,
        lambda t: np.abs(t - 0.37),
        lambda t: 1.0 / (t + 0.01),
        lambda t: np.where(t > 0.5, np.inf, np.abs(t - 0.2)),
        lambda t: np.where(t > 0.7, np.nan, t * t),
        lambda t: np.stack([np.cos(t), np.abs(t - 0.6), t**3]),
        lambda t: np.stack([np.abs(t - 0.3), np.where(t > 0.8, np.inf, t)]),
        lambda t: 1e8 / (t * t + 0.3) ** 3,
        lambda t: np.where(np.abs(t - 0.5) < 0.004, np.inf, 1.0),
    )
    # (abs_tol, MAX_DEPTH)
    CFGS = ((1e-11, 40), (1e-14, 3), (1e-11, 0), (np.inf, 40))

    def test_same_bits_messages_and_calls(self, monkeypatch):
        rng = np.random.default_rng(5)
        with np.errstate(invalid="ignore"):  # sqrt of negative nodes
            for _ in range(400):
                fn = self.FNS[rng.integers(len(self.FNS))]
                tol, depth = self.CFGS[rng.integers(len(self.CFGS))]
                monkeypatch.setattr(quadrature, "MAX_DEPTH", depth)
                cfg = QuadratureConfig(abs_tol=tol)
                a, b = rng.uniform(-0.5, 1.5, 2).round(rng.integers(1, 4))
                a = rng.choice([a, 0.0, -0.0], p=[0.9, 0.05, 0.05])
                results = []
                for engine in (reference_integrate, integrate):
                    f, calls = counted(fn)
                    try:
                        got = np.asarray(engine(f, a, b, cfg)).tobytes()
                    except QuadratureError as exc:
                        got = str(exc)
                    results.append((got, calls))
                assert results[0] == results[1], (a, b, tol, depth)


class TestLayoutCache:
    """The first level is cached per interval; nothing else may show it."""

    LOOSE = QuadratureConfig(abs_tol=1e-9)
    STRICT = QuadratureConfig(abs_tol=1e-14)

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        _layout.cache_clear()

    @pytest.mark.parametrize("a", [0.0, 0.25])
    def test_other_settings_on_the_same_interval_behave_as_uncached(self, a, monkeypatch):
        # sqrt's endpoint singularity converges under abs_tol 1e-9 (the
        # default 1e-11 runs out of depth on [0, 1], ROADMAP item 1)
        def root(t):
            return np.sqrt(t - a)

        settings = ((self.LOOSE, 40), (self.STRICT, 3))

        def run(cfg, depth):
            monkeypatch.setattr(quadrature, "MAX_DEPTH", depth)
            return outcome(root, a, a + 1.0, cfg)

        cold = []
        for setting in settings:
            _layout.cache_clear()
            cold.append(run(*setting))
        depth3 = f"no convergence on [{a:g}, {a + 0.125:g}] at depth 3 (tol 1.25e-15)"
        assert cold[1] == (depth3, [FIRST] + [2 * PANEL] * 3)
        assert isinstance(cold[0][0], bytes)  # converged
        _layout.cache_clear()
        for _ in range(2):
            assert [run(*setting) for setting in settings] == cold

    def test_cached_interval_is_reused(self):
        first = outcome(np.cos, 0.2, 1.3)
        assert _layout.cache_info().misses == 1
        assert outcome(np.cos, 0.2, 1.3) == first
        assert outcome(np.cos, 1.3, 0.2)[0] == np.asarray(-integrate(np.cos, 0.2, 1.3)).tobytes()
        assert _layout.cache_info().hits == 3

    def test_signed_zero_ends_keep_their_sign_in_messages(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_DEPTH", 3)
        for a in (0.0, -0.0, 0.0):
            got = outcome(np.sqrt, a, 1.0, self.STRICT)
            depth3 = f"no convergence on [{a:g}, 0.125] at depth 3 (tol 1.25e-15)"
            assert got == (depth3, [FIRST] + [2 * PANEL] * 3)
        assert _layout.cache_info().misses == 1  # 0.0 and -0.0 share one layout

    def test_cold_and_warm_calls_agree(self):
        cases = [
            (lambda t: 1.0 / (t + 0.01), 0.1, 1.0),
            (lambda t: np.stack([np.exp(-t) * t**3, np.abs(t - 0.7)]), -0.3, 1.2),
            (TestOneInterval().kinked, 1.0, 0.0),
        ]
        for fn, a, b in cases:
            _layout.cache_clear()
            cold = outcome(fn, a, b)
            assert outcome(fn, a, b) == cold
            assert outcome(fn, a, b) == cold

    def test_nodes_are_read_only(self):
        def writes(t):
            t *= 2.0
            return t

        before = outcome(np.cos, 0.2, 1.3)
        with pytest.raises(ValueError, match="read-only"):
            integrate(writes, 0.2, 1.3)
        assert outcome(np.cos, 0.2, 1.3) == before


class TestVectorIntegrand:
    SMOOTH = (np.cos, lambda t: np.exp(-t) * t**3, lambda t: 1.0 / (1.0 + 25.0 * t * t))

    @pytest.mark.parametrize("pair", [(0, 1), (1, 2), (2, 0)])
    def test_rows_equal_scalar_integrals(self, pair):
        # each row refines exactly where its scalar integral would, so the
        # values agree bit for bit, even when one row needs more levels
        fs = [self.SMOOTH[i] for i in pair]
        got = integrate(lambda t: np.stack([fn(t) for fn in fs]), -0.3, 1.2)
        assert got.shape == (2,)
        assert got.tolist() == [integrate(fn, -0.3, 1.2) for fn in fs]

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


class TestConfig:
    @pytest.mark.parametrize("tol", [0.0, -1e-9, np.nan])
    def test_non_positive_or_nan_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="abs_tol must be positive"):
            QuadratureConfig(abs_tol=tol)
