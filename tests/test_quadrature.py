"""Adaptive Gauss-Legendre quadrature with known breakpoints and vector integrands."""

import re

import numpy as np
import pytest

from fueter.errors import QuadratureError
from fueter.quadrature import QuadratureConfig, _layout, _panels, _refine, integrate

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

    def test_non_finite_halves_raise_under_any_tolerance(self):
        def spike(t):  # the whole panel's nodes miss it, the left half's first node does not
            return np.where(t < 0.004, np.inf, 1.0)

        with pytest.raises(QuadratureError, match=r"non-finite panel value on \[0, 1\]"):
            integrate(spike, 0.0, 1.0, QuadratureConfig(abs_tol=np.inf))

    @pytest.mark.parametrize("vector", [False, True])
    @pytest.mark.parametrize("shift", [0.0, 1.0])
    def test_non_finite_piece_raises_before_any_piece_refines(self, shift, vector):
        # [s, s + 0.5] only disagrees (a kink, and max_depth 0 allows no
        # refinement) while [s + 0.5, s + 1] is infinite: the non-finite piece
        # raises, although the disagreeing piece comes first
        def kinked(t):
            return np.abs(t - 0.2 - shift)

        def f(t):
            infinite = t > 0.5 + shift
            if vector:
                return np.stack([kinked(t), np.where(infinite, np.inf, 1.0)])
            return np.where(infinite, np.inf, kinked(t))

        a, b, args = shift, 1.0 + shift, (QuadratureConfig(max_depth=0), (0.5 + shift,))
        with pytest.raises(QuadratureError, match=re.escape(f"non-finite panel value on [{a + 0.5:g}, {b:g}]")):
            integrate(f, a, b, *args)
        with pytest.raises(QuadratureError, match=re.escape(f"no convergence on [{a:g}, {a + 0.5:g}]")):
            integrate(kinked, a, b, *args)


def outcome(fn, a, b, cfg=QuadratureConfig(), breaks=()):
    """(the result's bytes or the error's message, the integrand's call sizes)."""
    f, calls = counted(fn)
    try:
        return np.asarray(integrate(f, a, b, cfg, breaks)).tobytes(), calls
    except QuadratureError as exc:
        return str(exc), calls


def reference_integrate(f, a, b, cfg=QuadratureConfig(), breaks=()):
    """integrate with the first level laid out afresh and accepted in numpy arrays."""
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b, sign = b, a, -1.0
    edges = (a, *sorted({float(t) for t in breaks if a < t < b}), b) if len(breaks) else (a, b)
    lo, hi = edges[:-1], edges[1:]
    mid = tuple(0.5 * (l + h) for l, h in zip(lo, hi))
    tols = np.array([cfg.abs_tol * ((h - l) / (b - a)) for l, h in zip(lo, hi)])
    n = len(lo)
    first = _panels(f, np.array(lo + lo + mid), np.array(hi + mid + hi), cfg.panel_order)
    whole, left, right = first[..., :n], first[..., n : 2 * n], first[..., 2 * n :]
    pieces = left + right
    settled = np.isfinite(pieces)
    if settled.all():
        settled = np.abs(pieces - whole) <= tols
    for i in np.flatnonzero(~settled.reshape(-1, n).all(axis=0)):
        at = (whole[..., i], left[..., i], right[..., i])
        pieces[..., i] = _refine(f, lo[i], hi[i], *at, tols[i], 0, cfg)
    totals = []
    for row in pieces.reshape(-1, n).tolist():
        total = 0.0
        for value in row:
            total += value
        totals.append(sign * total)
    return totals[0] if pieces.ndim == 1 else np.array(totals)


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
    CFGS = (
        QuadratureConfig(),
        QuadratureConfig(abs_tol=1e-14, max_depth=3),
        QuadratureConfig(max_depth=0),
        QuadratureConfig(abs_tol=1e-6, panel_order=5),
        QuadratureConfig(abs_tol=np.inf),
    )

    def test_same_bits_messages_and_calls(self):
        rng = np.random.default_rng(5)
        with np.errstate(invalid="ignore"):  # sqrt of negative nodes
            for _ in range(400):
                fn = self.FNS[rng.integers(len(self.FNS))]
                cfg = self.CFGS[rng.integers(len(self.CFGS))]
                a, b = rng.uniform(-0.5, 1.5, 2).round(rng.integers(1, 4))
                a = rng.choice([a, 0.0, -0.0], p=[0.9, 0.05, 0.05])
                breaks = list(rng.uniform(-0.6, 1.6, rng.integers(0, 4)).round(2))
                breaks = (tuple(breaks), breaks, np.array(breaks))[rng.integers(3)]
                results = []
                for engine in (reference_integrate, integrate):
                    f, calls = counted(fn)
                    try:
                        got = np.asarray(engine(f, a, b, cfg, breaks)).tobytes()
                    except QuadratureError as exc:
                        got = str(exc)
                    results.append((got, calls))
                assert results[0] == results[1], (a, b, breaks, cfg)


class TestLayoutCache:
    """The first level is cached per interval, breaks and config; nothing else may show it."""

    LOOSE = QuadratureConfig(abs_tol=1e-9)
    SHALLOW = QuadratureConfig(abs_tol=1e-14, max_depth=3)
    LOW_ORDER = QuadratureConfig(abs_tol=1e-9, panel_order=5)

    @pytest.fixture(autouse=True)
    def cold_cache(self):
        _layout.cache_clear()

    @pytest.mark.parametrize("a", [0.0, 0.25])
    def test_other_config_on_the_same_interval_behaves_as_uncached(self, a):
        # sqrt's endpoint singularity converges under abs_tol 1e-9 (the
        # default 1e-11 runs out of depth on [0, 1], ROADMAP item 1)
        def root(t):
            return np.sqrt(t - a)

        cfgs = (self.LOOSE, self.SHALLOW, self.LOW_ORDER)
        cold = []
        for cfg in cfgs:
            _layout.cache_clear()
            cold.append(outcome(root, a, a + 1.0, cfg))
        depth3 = f"no convergence on [{a:g}, {a + 0.125:g}] at depth 3 (tol 1.25e-15)"
        assert cold[1] == (depth3, [FIRST] + [2 * PANEL] * 3)
        assert cold[2][1][0] == 3 * 5
        _layout.cache_clear()
        for _ in range(2):
            assert [outcome(root, a, a + 1.0, cfg) for cfg in cfgs] == cold

    def test_cached_interval_is_reused(self):
        first = outcome(np.cos, 0.2, 1.3)
        assert _layout.cache_info().misses == 1
        assert outcome(np.cos, 0.2, 1.3) == first
        assert outcome(np.cos, 1.3, 0.2)[0] == np.asarray(-integrate(np.cos, 0.2, 1.3)).tobytes()
        assert _layout.cache_info().hits == 3

    def test_signed_zero_ends_keep_their_sign_in_messages(self):
        for a in (0.0, -0.0, 0.0):
            got = outcome(np.sqrt, a, 1.0, self.SHALLOW)
            depth3 = f"no convergence on [{a:g}, 0.125] at depth 3 (tol 1.25e-15)"
            assert got == (depth3, [FIRST] + [2 * PANEL] * 3)
        assert _layout.cache_info().misses == 1  # 0.0 and -0.0 share one layout

    @pytest.mark.parametrize("vector", [False, True])
    def test_breaks_as_tuple_list_or_array_agree(self, vector):
        def f(t):
            kinked = np.abs(t - 0.8)  # not a break: its piece refines
            return np.stack([kinked, np.cos(t)]) if vector else kinked

        knots = (0.25, 0.5, 0.5, 2.0)
        got = []
        for breaks in (knots, list(knots), np.array(knots), tuple(reversed(knots))):
            for _ in range(2):  # cold, then warm
                got.append(outcome(f, 0.1, 1.0, breaks=breaks))
        assert got[0][1][0] == 3 * FIRST and len(got[0][1]) > 1
        assert all(g == got[0] for g in got)

    def test_cold_and_warm_calls_agree(self):
        cases = [
            (lambda t: 1.0 / (t + 0.01), 0.1, 1.0, ()),
            (lambda t: np.stack([np.exp(-t) * t**3, np.abs(t - 0.7)]), -0.3, 1.2, (0.1, 0.55)),
            (TestBreaks().kinked, 1.0, 0.0, (TestBreaks.KINK,)),
        ]
        for fn, a, b, breaks in cases:
            _layout.cache_clear()
            cold = outcome(fn, a, b, breaks=breaks)
            assert outcome(fn, a, b, breaks=breaks) == cold
            assert outcome(fn, a, b, breaks=breaks) == cold

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


class TestConfig:
    @pytest.mark.parametrize("tol", [0.0, -1e-9, np.nan])
    def test_non_positive_or_nan_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="abs_tol must be positive"):
            QuadratureConfig(abs_tol=tol)
