"""Adaptive Gauss-Legendre quadrature with known breakpoints."""

import numpy as np
import pytest

from fueter.quadrature import integrate


def counted(fn):
    panels = []

    def f(t):
        panels.append(np.size(t))
        return fn(t)

    return f, panels


class TestBreaks:
    KINK = 0.37

    def kinked(self, t):
        return t * t * np.abs(t - self.KINK)

    def test_split_at_kink_is_exact_per_piece(self):
        p = self.KINK
        want = 0.25 - p / 3 + p**4 / 6  # integral_0^1 t^2 |t - p| dt
        f, panels = counted(self.kinked)
        assert integrate(f, 0.0, 1.0, breaks=(p,)) == pytest.approx(want, abs=1e-14, rel=0)
        # each piece: the whole panel and its two halves, which agree at once
        assert len(panels) == 2 * 3

    def test_breaks_outside_or_on_the_ends_change_nothing(self):
        plain = integrate(np.cos, 0.2, 1.3)
        for breaks in ((0.2, 1.3), (-1.0, 5.0), (1.3, 0.2, 0.2)):
            f, panels = counted(np.cos)
            assert integrate(f, 0.2, 1.3, breaks=breaks) == plain
            assert len(panels) == 3

    def test_reversed_interval_uses_the_same_pieces(self):
        f, panels = counted(self.kinked)
        got = integrate(f, 1.0, 0.0, breaks=np.array([self.KINK, self.KINK]))
        assert got == -integrate(self.kinked, 0.0, 1.0, breaks=(self.KINK,))
        assert len(panels) == 2 * 3
