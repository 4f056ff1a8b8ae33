"""Error types shared across the numerical layers.

Config and domain problems raise plain ValueError at the point of use;
these classes mark failures of the numerical machinery itself so callers
(notably the CLI) can tell the two apart.
"""


class NumericalError(RuntimeError):
    """A numerical routine failed to meet its contract."""


class QuadratureError(NumericalError):
    """Adaptive quadrature met a non-finite panel sum, or a piece (in any
    component of a vector integrand) still disagreed at the maximum depth."""

