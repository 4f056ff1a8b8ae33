"""Homogeneous multivector-coefficient polynomials on R^m and the Dirac operator.

The inner spherical factors P_k used by the axial transform live here: a
polynomial is a map from exponent tuples to multivector coefficients, all
terms of one total degree k.  Applying the Dirac operator sum_j e_j d/dx_j
term by term both tests monogenicity (D P = 0) and produces the defect
when there is one.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .clifford import Multivector, _check_m


class MonogenicPolynomial:
    """Homogeneous degree-k polynomial in x_1..x_m with Multivector coefficients.

    Monogenicity is a property, not a precondition: any homogeneous
    polynomial can be represented, and ``validate()`` rejects those whose
    Dirac image does not vanish.  Built-in constructors validate what they
    return.
    """

    __slots__ = ("_m", "_k", "_terms")

    def __init__(self, m: int, k: int, terms: Mapping[Sequence[int], Multivector]):
        self._m = _check_m(m)
        k = int(k)
        if k < 0:
            raise ValueError(f"degree k must be nonnegative, got {k}")
        self._k = k
        clean: dict[tuple[int, ...], Multivector] = {}
        for exp, coeff in terms.items():
            e = tuple(int(d) for d in exp)
            if len(e) != self._m or any(d < 0 for d in e):
                raise ValueError(f"exponent tuple {exp} is not valid for m={self._m}")
            if sum(e) != k:
                raise ValueError(f"term {exp} has degree {sum(e)}, expected {k}")
            if not isinstance(coeff, Multivector):
                raise TypeError("coefficients must be Multivector instances")
            if coeff.m != self._m:
                raise ValueError(f"coefficient algebra mismatch: m={coeff.m} vs {self._m}")
            if coeff.is_zero():
                continue
            clean[e] = clean[e] + coeff if e in clean else coeff
        self._terms = clean

    @property
    def m(self) -> int:
        return self._m

    @property
    def k(self) -> int:
        return self._k

    def __call__(self, x: Sequence[float] | np.ndarray) -> Multivector:
        """Evaluate at a point of R^m."""
        v = np.asarray(x, dtype=np.float64)
        if v.shape != (self._m,):
            raise ValueError(f"expected a point of R^{self._m}, got shape {v.shape}")
        acc = np.zeros(1 << self._m)
        for exp, coeff in self._terms.items():
            mono = 1.0
            for xi, d in zip(v, exp):
                if d:
                    mono *= xi**d
            acc += mono * coeff.coeffs
        return Multivector(self._m, acc)

    def dirac(self) -> "MonogenicPolynomial":
        """Apply sum_j e_j d/dx_j; the result is homogeneous of degree k-1.

        For k = 0 (or a zero polynomial) the result is the zero polynomial
        of degree 0.
        """
        out_deg = max(self._k - 1, 0)
        acc: dict[tuple[int, ...], Multivector] = {}
        for exp, coeff in self._terms.items():
            for axis in range(self._m):
                d = exp[axis]
                if d == 0:
                    continue
                e_axis = Multivector.basis_vector(self._m, axis + 1)
                contrib = float(d) * (e_axis * coeff)
                new = list(exp)
                new[axis] -= 1
                key = tuple(new)
                acc[key] = acc[key] + contrib if key in acc else contrib
        return MonogenicPolynomial(self._m, out_deg, acc)

    def validate(self) -> "MonogenicPolynomial":
        """Return self, or raise if the Dirac image is not zero."""
        image = self.dirac()
        worst = max((c.norm() for c in image._terms.values()), default=0.0)
        if worst > 0.0:
            raise ValueError(f"polynomial is not monogenic: Dirac image has norm {worst:g}")
        return self

    def __repr__(self) -> str:
        return f"MonogenicPolynomial(m={self._m}, k={self._k}, {len(self._terms)} terms)"


def builtin_pk(m: int, k: int, i: int | None = None, j: int | None = None, sign: int = 1) -> MonogenicPolynomial:
    """Stock inner spherical monogenics of degree 0 and 1.

    k = 0 gives the constant 1.  For k = 1 with indices i < j (default 1
    and 2), sign=+1 gives x_i e_j + x_j e_i and sign=-1 gives
    x_i e_i - x_j e_j; both are annihilated by the Dirac operator.  Given
    indices and the sign are checked at every k.
    """
    m = _check_m(m)
    if k not in (0, 1):
        raise ValueError(f"built-in polynomials cover k in {{0, 1}}, got k={k}")
    if k == 1 or i is not None or j is not None:
        i, j = 1 if i is None else i, 2 if j is None else j
        if not (1 <= i < j <= m):
            raise ValueError(f"need 1 <= i < j <= m = {m}, got i={i}, j={j}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if k == 0:
        return MonogenicPolynomial(m, 0, {(0,) * m: Multivector.scalar(m, 1.0)}).validate()

    def unit_exp(axis: int) -> tuple[int, ...]:
        e = [0] * m
        e[axis - 1] = 1
        return tuple(e)

    if sign == 1:
        terms = {
            unit_exp(i): Multivector.basis_vector(m, j),
            unit_exp(j): Multivector.basis_vector(m, i),
        }
    else:
        terms = {
            unit_exp(i): Multivector.basis_vector(m, i),
            unit_exp(j): -Multivector.basis_vector(m, j),
        }
    return MonogenicPolynomial(m, 1, terms).validate()
