"""Closed-form reference fields and independent cross-checks.

Two worked inversions anchor the test suite:

* "example1" (m = 5, k = 0, N = 2): the axial field proportional to the
  degree -6 Cauchy kernel, A = x0/(x0^2+r^2)^3, B = -r/(x0^2+r^2)^3, with
  closed forms for the weighted integrals I1, I2, the correction
  coefficients alpha_j, beta_j matching the field's own trace, and the
  primitive u + iv = 1/(64 z).

* "example2" (m = 3, k = 0, N = 1): the spherical mean of the Cauchy
  kernel over the unit 2-sphere, without (Nplus) and with (Nminus) a right
  omega factor; primitives are arctan(z)/(2 pi) and z arctan(z)/(2 pi).
  The A/B component formulas below are real closed forms; the arctan-based
  primitives go through the jets module so the branch convention is shared
  with everything else.

The sphere integral itself is also computed by product quadrature
(Gauss-Legendre in cos(theta) x uniform in phi) as an independent route to
the same fields.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .clifford import Multivector, Paravector
from .forward import FueterConfig
from .inverse import AxialFunction, Rectangle
from . import jets

_ARCTAN = jets.arctan()
_Z_ARCTAN = jets.z_arctan()


def unit_sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^(n-1) inside R^n: 2 pi^(n/2) / Gamma(n/2)."""
    n = int(n)
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return 2.0 * math.pi ** (n / 2) / math.gamma(n / 2)


def cauchy_kernel(m: int, p: Paravector) -> Multivector:
    """The monogenic Cauchy kernel conj(p) / (A_(m+1) |p|^(m+1)) at p = x0 + x_."""
    if p.m != m:
        raise ValueError(f"point has m={p.m}, expected {m}")
    norm2 = p.x0 * p.x0 + p.r * p.r
    if norm2 == 0.0:
        raise ValueError("Cauchy kernel is singular at the origin")
    scale = 1.0 / (unit_sphere_area(m + 1) * norm2 ** ((m + 1) / 2))
    return p.embed().conjugate() * scale


# -- example 1: m = 5, k = 0 --------------------------------------------------


def _example1_a(x0, r):
    return x0 / (x0 * x0 + r * r) ** 3


def _example1_b(x0, r):
    return -r / (x0 * x0 + r * r) ** 3


def example1_oracle(
    field: str,
    x0: Optional[float] = None,
    r: Optional[float] = None,
    c: Optional[float] = None,
) -> float:
    """Closed forms for the N = 2 worked inversion.

    Fields "A", "B", "u", "v" need (x0, r); "I1", "I2" need (x0, r, c);
    "alpha0", "alpha1", "beta0", "beta1" need (x0, c).
    """
    def need(**vals):
        for name, val in vals.items():
            if val is None:
                raise ValueError(f"field {field!r} needs argument {name}")

    if field == "A":
        need(x0=x0, r=r)
        return _example1_a(x0, r)
    if field == "B":
        need(x0=x0, r=r)
        return _example1_b(x0, r)
    if field == "I1":
        need(x0=x0, r=r, c=c)
        return (r * r - c * c) ** 2 * x0 / (4 * (x0 * x0 + r * r) * (x0 * x0 + c * c) ** 2)
    if field == "I2":
        need(x0=x0, r=r, c=c)
        return -((r * r - c * c) ** 2) * r / (4 * (x0 * x0 + r * r) * (x0 * x0 + c * c) ** 2)
    if field == "beta0":
        need(x0=x0, c=c)
        return -(x0 * x0 + 2 * c * c) / (64 * (x0 * x0 + c * c) ** 2)
    if field == "alpha0":
        need(x0=x0, c=c)
        return x0 * (x0 * x0 + 2 * c * c) / (64 * (x0 * x0 + c * c) ** 2)
    if field == "beta1":
        need(x0=x0, c=c)
        return 1.0 / (64 * (x0 * x0 + c * c) ** 2)
    if field == "alpha1":
        need(x0=x0, c=c)
        return -x0 / (64 * (x0 * x0 + c * c) ** 2)
    if field == "u":
        need(x0=x0, r=r)
        return x0 / (64 * (x0 * x0 + r * r))
    if field == "v":
        need(x0=x0, r=r)
        return -r / (64 * (x0 * x0 + r * r))
    raise ValueError(f"unknown example1 field {field!r}")


# -- example 2: m = 3, k = 0 --------------------------------------------------


def _denom(x0: float, r: float):
    return (1 + x0 * x0 - r * r) ** 2 + 4 * x0 * x0 * r * r


def _log_ratio(x0: float, r: float):
    return np.log((x0 * x0 + (r + 1) ** 2) / (x0 * x0 + (r - 1) ** 2))


def _nplus_a(x0, r):
    return (1 / math.pi) * 2 * x0 / _denom(x0, r)


def _nplus_b(x0, r):
    return (1 / (2 * math.pi * r)) * (2 * (1 + x0 * x0 - r * r) / _denom(x0, r) - _log_ratio(x0, r) / (2 * r))


def _nminus_a(x0, r):
    return (1 / (2 * math.pi)) * (-_log_ratio(x0, r) / (2 * r) + 2 * (x0 * x0 + r * r - 1) / _denom(x0, r))


def _nminus_b(x0, r):
    return (x0 / (2 * math.pi * r)) * (-_log_ratio(x0, r) / (2 * r) + 2 * (1 + x0 * x0 + r * r) / _denom(x0, r))


_EXAMPLE2 = {"Nplus_A": _nplus_a, "Nplus_B": _nplus_b, "Nminus_A": _nminus_a, "Nminus_B": _nminus_b}


def example2_oracle(field: str, x0: float, r: float):
    """Closed forms for the spherical-mean fields and their primitives.

    "Nplus_A", "Nplus_B", "Nminus_A", "Nminus_B" are the axial profiles
    (real, need r > 0 and (x0, r) != (0, 1)); "Wplus", "Wminus" are the
    complex primitives arctan(z)/(2 pi) and z arctan(z)/(2 pi) at
    z = x0 + i r.
    """
    if field in ("Wplus", "Wminus"):
        z = complex(x0, r)
        fn = _ARCTAN if field == "Wplus" else _Z_ARCTAN
        return fn(z) / (2 * math.pi)
    if r <= 0:
        raise ValueError(f"field {field!r} needs r > 0, got r={r}")
    if x0 * x0 + (r - 1) ** 2 < 1e-24:
        raise ValueError("singular at the sphere's trace (x0, r) = (0, 1)")
    if field not in _EXAMPLE2:
        raise ValueError(f"unknown example2 field {field!r}")
    return _EXAMPLE2[field](x0, r)


# -- spherical-mean quadrature -------------------------------------------------


class SphereQuadrature:
    """Product rule on the unit 2-sphere: Gauss-Legendre in cos(theta), uniform in phi.

    Weights sum to the sphere area 4 pi; both factors converge spectrally
    for smooth integrands.
    """

    __slots__ = ("nodes", "weights", "n_theta", "n_phi")

    def __init__(self, n_theta: int = 64, n_phi: int = 128):
        n_theta, n_phi = int(n_theta), int(n_phi)
        if n_theta < 2 or n_phi < 2:
            raise ValueError(f"need at least 2 nodes per factor, got {n_theta} x {n_phi}")
        self.n_theta = n_theta
        self.n_phi = n_phi
        mu, w_mu = np.polynomial.legendre.leggauss(n_theta)  # mu = cos(theta)
        phi = 2 * np.pi * np.arange(n_phi) / n_phi
        sin_theta = np.sqrt(1.0 - mu**2)
        x = np.outer(sin_theta, np.cos(phi)).ravel()
        y = np.outer(sin_theta, np.sin(phi)).ravel()
        z = np.repeat(mu, n_phi)
        self.nodes = np.stack([x, y, z], axis=1)
        self.weights = np.repeat(w_mu, n_phi) * (2 * np.pi / n_phi)


def sphere_cauchy_integral(
    q: Paravector, with_omega: bool = False, quad: SphereQuadrature | None = None
) -> Multivector:
    """Spherical mean of the Cauchy kernel over S^2 (m = 3).

    Returns sum_i w_i G(q - omega_i), with an extra right factor omega_i
    when with_omega is set.  q must stay off the unit sphere's trace.
    """
    if q.m != 3:
        raise ValueError(f"spherical mean is built for m = 3, got m={q.m}")
    if math.hypot(q.x0, q.r - 1.0) < 1e-6:
        raise ValueError("q is on (or within 1e-6 of) the unit sphere")
    if quad is None:
        quad = SphereQuadrature()
    acc = np.zeros(8)
    for node, w in zip(quad.nodes, quad.weights):
        kern = cauchy_kernel(3, Paravector(q.x0, q.vec - node))
        if with_omega:
            kern = kern * Multivector.from_vector(3, node)
        acc += w * kern.coeffs
    return Multivector(3, acc)


# -- named axial fields for ingestion -----------------------------------------


AXIAL_NAMES = ("example1", "example2-nplus", "example2-nminus", "cauchy-kernel", "cubic")


def axial_field(name: str, rect: Rectangle | None = None, m: int | None = None) -> AxialFunction:
    """Built-in axial fields by name.

    "example1" (m=5), "example2-nplus"/"example2-nminus" (m=3), "cubic"
    (m=3; the image of z^3, A = -12 x0, B = -4 r) and "cauchy-kernel"
    (any odd m, default 3).  rect defaults to a region that stays clear of
    each field's singularities.
    """
    name = name.strip()
    if name == "example1":
        return AxialFunction(_example1_a, _example1_b, m=5, k=0, rect=rect or Rectangle(0.0, 1.0, 0.5, 1.5), name=name)
    if name in ("example2-nplus", "example2-nminus"):
        A, B = (_nplus_a, _nplus_b) if name == "example2-nplus" else (_nminus_a, _nminus_b)
        return AxialFunction(A, B, m=3, k=0, rect=rect or Rectangle(0.3, 1.2, 0.3, 0.8), name=name)
    if name == "cubic":
        rect = rect or Rectangle(0.0, 1.0, 0.5, 1.5)
        return AxialFunction(
            lambda x0, r: -12.0 * x0 * np.ones_like(np.asarray(r, dtype=np.float64)),
            lambda x0, r: -4.0 * np.asarray(r, dtype=np.float64),
            m=3, k=0, rect=rect, name="cubic",
        )
    if name == "cauchy-kernel":
        mm = FueterConfig(3 if m is None else m, 0).m
        rect = rect or Rectangle(0.0, 1.0, 0.5, 1.5)
        area = unit_sphere_area(mm + 1)
        power = (mm + 1) / 2

        def a_field(x0, r):
            return x0 / (area * (x0 * x0 + r * r) ** power)

        def b_field(x0, r):
            return -r / (area * (x0 * x0 + r * r) ** power)

        return AxialFunction(a_field, b_field, m=mm, k=0, rect=rect, name="cauchy-kernel")
    raise ValueError(f"unknown axial field {name!r}; known: {', '.join(AXIAL_NAMES)}")
