"""Adaptive Gauss-Legendre quadrature on one interval, with vector integrands."""

import re

import numpy as np
import pytest

from fueter import quadrature
from fueter.errors import QuadratureError
from fueter.quadrature import PANEL_ORDER as PANEL
from fueter.quadrature import QuadratureConfig, _layout, _nodes, _panels, integrate

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
    """integrate through an independent engine in numpy arrays: the first level is accepted
    when every component's halves are finite and agree with its whole, else it refines
    through reference_refine."""
    a, b = float(a), float(b)
    if a == b:
        return 0.0
    sign = 1.0
    if b < a:
        a, b, sign = b, a, -1.0
    mid = 0.5 * (a + b)
    first = _panels(f, np.array([a, a, mid]), np.array([b, mid, b]), PANEL)
    whole, left, right = first.reshape(-1, 3).T
    values = left + right
    if not (np.isfinite(values).all() and (np.abs(values - whole) <= cfg.abs_tol).all()):
        values = reference_refine(f, a, b, whole, left, right, cfg.abs_tol, 0)
    totals = [sign * value for value in values.tolist()]
    return totals[0] if first.ndim == 1 else np.array(totals)


def reference_refine(f, lo, hi, whole, left, right, tol, depth, active=True):
    """left + right, refined below [lo, hi] in the active components that disagree with whole,
    with numpy masks; a component that agrees keeps its value."""
    halves = left + right
    if np.any(active & ~np.isfinite(halves)):
        raise QuadratureError(f"non-finite panel value on [{lo:g}, {hi:g}]")
    pending = active & ~(np.abs(halves - whole) <= tol)
    if not np.any(pending):
        return halves
    if depth >= quadrature.MAX_DEPTH:
        raise QuadratureError(f"no convergence on [{lo:g}, {hi:g}] at depth {depth} (tol {tol:g})")
    mid = 0.5 * (lo + hi)
    refined = reference_split(f, lo, mid, left, tol / 2, depth + 1, pending) + reference_split(
        f, mid, hi, right, tol / 2, depth + 1, pending
    )
    return np.where(pending, refined, halves)


def reference_split(f, lo, hi, whole, tol, depth, active):
    mid = 0.5 * (lo + hi)
    halves = _panels(f, np.array([lo, mid]), np.array([mid, hi]), PANEL)
    return reference_refine(f, lo, hi, whole, halves[..., 0], halves[..., 1], tol, depth, active)


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
        lambda t: np.stack([np.abs(t - 0.1) ** 0.5, np.cos(3 * t), 1 / (t + 0.02), np.abs(t - 0.77)]),
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
    """integrate lays out its first level afresh on every call, uncached (inverse's radial rule
    is the one cache of first-level nodes): calls on one interval never see each other."""

    LOOSE = QuadratureConfig(abs_tol=1e-9)
    STRICT = QuadratureConfig(abs_tol=1e-14)

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

        first = [run(*setting) for setting in settings]
        depth3 = f"no convergence on [{a:g}, {a + 0.125:g}] at depth 3 (tol 1.25e-15)"
        assert first[1] == (depth3, [FIRST] + [2 * PANEL] * 3)
        assert isinstance(first[0][0], bytes)  # converged
        for _ in range(2):
            assert [run(*setting) for setting in settings] == first

    def test_repeated_and_reversed_calls_agree(self):
        first = outcome(np.cos, 0.2, 1.3)
        assert outcome(np.cos, 0.2, 1.3) == first
        assert outcome(np.cos, 1.3, 0.2) == (np.asarray(-integrate(np.cos, 0.2, 1.3)).tobytes(), first[1])

    def test_signed_zero_ends_keep_their_sign_in_messages(self, monkeypatch):
        monkeypatch.setattr(quadrature, "MAX_DEPTH", 3)
        for a in (0.0, -0.0, 0.0):
            got = outcome(np.sqrt, a, 1.0, self.STRICT)
            depth3 = f"no convergence on [{a:g}, 0.125] at depth 3 (tol 1.25e-15)"
            assert got == (depth3, [FIRST] + [2 * PANEL] * 3)

    def test_cold_and_warm_calls_agree(self):
        cases = [
            (lambda t: 1.0 / (t + 0.01), 0.1, 1.0),
            (lambda t: np.stack([np.exp(-t) * t**3, np.abs(t - 0.7)]), -0.3, 1.2),
            (TestOneInterval().kinked, 1.0, 0.0),
        ]
        for fn, a, b in cases:
            cold = outcome(fn, a, b)
            assert outcome(fn, a, b) == cold
            assert outcome(fn, a, b) == cold

    def test_integrand_may_write_into_its_nodes(self):
        def writes(t):
            t *= 2.0
            return t

        before = outcome(np.cos, 0.2, 1.3)
        doubled = integrate(writes, 0.2, 1.3)
        assert doubled == integrate(lambda t: 2.0 * t, 0.2, 1.3)
        assert doubled == pytest.approx(1.3**2 - 0.2**2, abs=1e-14)
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

    def test_settled_row_ignores_later_non_finite_values(self):
        # row 0 is accepted at the first level, whose nodes all lie past 1e-4;
        # row 1 refines towards 0, where a deeper call's nodes reach row 0's
        # infinity, which a settled row no longer tests
        def spike(t):
            return np.where(t < 1e-4, np.inf, 1.0)

        def pole(t):
            return 1.0 / (t + 0.01)

        spikes = []

        def f(t):
            values = np.stack([spike(t), pole(t)])
            spikes.append(np.isinf(values[0]).any())
            return values

        got = integrate(f, 0.0, 1.0)
        assert got.tolist() == [integrate(spike, 0.0, 1.0), integrate(pole, 0.0, 1.0)]
        assert got.tolist() == [0.9999999999999999, 4.615120516841259]
        assert len(spikes) == 11 and sum(spikes) == 1

    def test_scalar_integrand_returns_float(self):
        assert isinstance(integrate(np.cos, 0.0, 1.0), float)
        assert integrate(np.cos, 0.5, 0.5) == 0.0

    def test_shape_checked(self):
        with pytest.raises(ValueError, match=r"\(p, n\)"):
            integrate(lambda t: t[:-1], 0.0, 1.0)
        with pytest.raises(ValueError, match=r"\(p, n\)"):
            integrate(lambda t: np.ones((2, 2, t.size)), 0.0, 1.0)


class TestBounds:
    NAN, INF = float("nan"), float("inf")

    @pytest.mark.parametrize(
        "a,b,bad",
        [(0.0, NAN, "b"), (0.0, INF, "b"), (0.0, -INF, "b"), (NAN, 1.0, "a"), (-INF, 1.0, "a"), (INF, INF, "a"),
         (NAN, NAN, "a")],
    )
    def test_non_finite_bound_raises_before_any_call(self, a, b, bad):
        # a NaN end used to return 0.0 (min and max both picked the other end),
        # an infinite one made numpy warn, and a NaN a called f on NaN nodes
        f, calls = counted(np.cos)
        with pytest.raises(ValueError, match=f"integration bound {bad} must be finite"):
            integrate(f, a, b)
        g, vector_calls = counted(lambda t: np.stack([np.cos(t), t]))
        with pytest.raises(ValueError, match=f"integration bound {bad} must be finite"):
            integrate(g, np.float64(a), b)
        assert calls == vector_calls == []


def reference_layout(a, b):
    """The first level on [a, b] as _nodes lays out any panels: (half, x)."""
    mid = 0.5 * (a + b)
    return _nodes(np.array([a, a, mid]), np.array([b, mid, b]), PANEL)


class TestLayout:
    """_layout computes _nodes' half-widths and centres of the first level's three panels in Python floats."""

    ENDS = [(0.0, 1.0), (-0.0, 1.0), (-1.0, -0.0), (-1.0, 0.0), (0.2, 1.3), (0.5, 0.5 + 1e-9), (-3e5, 7e-3),
            (1e-300, 3e-300), (-1e300, 1e300), (0.45, 1.234)]

    def test_bits_equal_nodes_on_any_interval(self):
        rng = np.random.default_rng(11)
        ends = self.ENDS + [tuple(sorted(rng.uniform(-2, 2, 2) * 10.0 ** rng.integers(-6, 6))) for _ in range(500)]
        for a, b in ends:
            got, want = _layout(float(a), float(b), PANEL), reference_layout(float(a), float(b))
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want], (a, b)

    @pytest.mark.parametrize("a,b", ENDS[:8])
    def test_integrate_lays_out_the_sorted_interval_either_way(self, a, b):
        want = reference_layout(a, b)[1].tobytes()
        for ends in ((a, b), (b, a)):
            nodes = []
            integrate(lambda t: nodes.append(t.copy()) or np.ones_like(t), *ends)
            assert nodes[0].tobytes() == want, ends


class TestConfig:
    @pytest.mark.parametrize("tol", [0.0, -1e-9, np.nan])
    def test_non_positive_or_nan_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="abs_tol must be positive"):
            QuadratureConfig(abs_tol=tol)
