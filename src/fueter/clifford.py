"""Dense arithmetic in the real Clifford algebra R_{0,m}.

Basis blades are indexed by bit patterns: bit j-1 set in the index means
the generator e_j is a factor, so index 0 is the scalar 1 and index
2**(j-1) is e_j.  A product e_A e_B lands on the blade A XOR B; its sign
is the parity of the transpositions needed to interleave the two index
sequences, times -1 for every repeated generator (e_j e_j = -1).  Both
are bit counts, so the sign tables are built by integer arithmetic on
index arrays, with no loop over blade pairs.

A product gathers one signed, permuted row of the right factor per
nonzero blade of the left factor and sums the rows in ascending blade
order: n * 2**m multiplications for a left factor with n nonzero blades.
The forward image multiplies a paravector (m + 1 blades) by P_k(x_), so
it never pays the dense 4**m.

Elements are stored densely as 2**m coefficients, which is the right
trade-off for the small m used here (m <= 9, enforced; this also keeps
the blade labels single-digit and therefore unambiguous as strings).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

MAX_DIM = 9


@lru_cache(maxsize=None)
def _tables(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only product/conjugation tables for R_{0,m}: (perm, signs, conj_signs, grades).

    Row a of the product tables pairs each output blade k with the right
    factor's blade perm[a, k] = a ^ k, so e_a e_(a ^ k) = signs[a, k] e_k.
    """
    dim = 1 << m
    blades = np.arange(dim)
    grades = np.array([i.bit_count() for i in range(dim)])
    a = blades[:, None]
    perm = a ^ blades
    # for each generator j of B = a ^ k, the generators of A above it
    swaps = sum(grades[a >> (j + 1)] * (perm >> j & 1) for j in range(m))
    signs = np.where((swaps + grades[a & perm]) & 1, -1.0, 1.0)
    conj_signs = np.where(grades * (grades + 1) // 2 % 2, -1.0, 1.0)
    for table in (perm, signs, conj_signs, grades):
        table.setflags(write=False)
    return perm, signs, conj_signs, grades


# the blade of each generator e_1, ..., e_MAX_DIM
_GENERATORS = 1 << np.arange(MAX_DIM)


def _paravector(x0: float, vec: np.ndarray) -> np.ndarray:
    """The coefficients of x0 + vec in R_{0,m}, m = vec.size: x0 on the scalar blade and
    vec on the generators."""
    c = np.zeros(1 << vec.size)
    c[0] = x0
    c[_GENERATORS[: vec.size]] = vec
    return c


def _check_m(m: int) -> int:
    m = int(m)
    if not 1 <= m <= MAX_DIM:
        raise ValueError(f"m must be between 1 and {MAX_DIM}, got {m}")
    return m


class Multivector:
    """Element of R_{0,m} with one real coefficient per basis blade."""

    __slots__ = ("_m", "_c")

    def __init__(self, m: int, coeffs: Sequence[float] | np.ndarray):
        self._m = _check_m(m)
        c = np.array(coeffs, dtype=np.float64)
        if c.shape != (1 << self._m,):
            raise ValueError(
                f"expected {1 << self._m} coefficients for m={self._m}, got shape {c.shape}"
            )
        c.setflags(write=False)
        self._c = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def scalar(cls, m: int, value: float) -> "Multivector":
        c = np.zeros(1 << _check_m(m))
        c[0] = value
        return cls(m, c)

    @classmethod
    def basis_vector(cls, m: int, j: int) -> "Multivector":
        """The generator e_j, 1-based."""
        m = _check_m(m)
        if not 1 <= j <= m:
            raise ValueError(f"generator index must be in 1..{m}, got {j}")
        c = np.zeros(1 << m)
        c[1 << (j - 1)] = 1.0
        return cls(m, c)

    @classmethod
    def from_vector(cls, m: int, vec: Sequence[float]) -> "Multivector":
        """Embed a vector of R^m on the grade-1 blades."""
        m = _check_m(m)
        v = np.asarray(vec, dtype=np.float64)
        if v.shape != (m,):
            raise ValueError(f"expected a vector of length {m}, got shape {v.shape}")
        return cls(m, _paravector(0.0, v))

    # -- structure ---------------------------------------------------------

    @property
    def m(self) -> int:
        return self._m

    @property
    def coeffs(self) -> np.ndarray:
        """Read-only coefficient array, blade-indexed."""
        return self._c

    def norm(self) -> float:
        """Euclidean norm of the coefficient vector."""
        return float(np.sqrt(np.dot(self._c, self._c)))

    def is_zero(self) -> bool:
        return not np.any(self._c)

    # -- algebra -----------------------------------------------------------

    def _like(self, other: "Multivector") -> None:
        if other._m != self._m:
            raise ValueError(f"dimension mismatch: m={self._m} vs m={other._m}")

    def __add__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        self._like(other)
        return Multivector(self._m, self._c + other._c)

    def __sub__(self, other: "Multivector") -> "Multivector":
        if not isinstance(other, Multivector):
            return NotImplemented
        self._like(other)
        return Multivector(self._m, self._c - other._c)

    def __neg__(self) -> "Multivector":
        return Multivector(self._m, -self._c)

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._like(other)
            perm, signs, _, _ = _tables(self._m)
            nz = np.flatnonzero(self._c)
            terms = signs[nz]  # a copy, scaled in place: one (n, 2**m) temporary fewer
            terms *= self._c[nz, None]
            terms *= other._c[perm[nz]]
            # initial=0.0: a column of -0.0 terms sums to +0.0 on every numpy
            return Multivector(self._m, terms.sum(axis=0, initial=0.0))
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Multivector(self._m, self._c * float(other))
        return NotImplemented

    def __rmul__(self, other):
        # scalars commute with everything; multivector * multivector
        # never reaches here
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Multivector(self._m, self._c * float(other))
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Multivector(self._m, self._c / float(other))
        return NotImplemented

    def conjugate(self) -> "Multivector":
        """Clifford conjugation: the anti-automorphism with e_j -> -e_j."""
        _, _, conj_signs, _ = _tables(self._m)
        return Multivector(self._m, self._c * conj_signs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Multivector):
            return NotImplemented
        return self._m == other._m and bool(np.array_equal(self._c, other._c))

    # -- rendering ---------------------------------------------------------

    def to_pairs(self) -> list[tuple[str, float]]:
        """Nonzero coefficients as (blade label, value) pairs.

        Labels are the ascending generator indices as a string: "" for the
        scalar, "1" for e_1, "13" for e_1 e_3.  Exact round-trip through
        from_pairs.
        """
        out = []
        for idx in np.flatnonzero(self._c):
            out.append((_blade_label(int(idx)), float(self._c[idx])))
        return out

    @classmethod
    def from_pairs(cls, m: int, pairs: Iterable[Sequence]) -> "Multivector":
        m = _check_m(m)
        c = np.zeros(1 << m)
        for label, value in pairs:
            bits = 0
            for ch in str(label):
                j = int(ch)
                if not 1 <= j <= m:
                    raise ValueError(f"blade label {label!r} out of range for m={m}")
                if bits & (1 << (j - 1)):
                    raise ValueError(f"repeated index in blade label {label!r}")
                bits |= 1 << (j - 1)
            c[bits] += float(value)
        return cls(m, c)

    def __repr__(self) -> str:
        pairs = self.to_pairs()
        if not pairs:
            body = "0"
        else:
            parts = []
            for label, value in pairs:
                blade = f"e{label}" if label else ""
                if blade:
                    parts.append(f"{value:g}*{blade}")
                else:
                    parts.append(f"{value:g}")
            body = " + ".join(parts)
        return f"Multivector(m={self._m}: {body})"


def _blade_label(idx: int) -> str:
    return "".join(str(j + 1) for j in range(MAX_DIM) if idx >> j & 1)


class Paravector:
    """A point x0 + x_ of R^(m+1) seen inside R_{0,m}."""

    __slots__ = ("_x0", "_vec")

    def __init__(self, x0: float, vec: Sequence[float] | np.ndarray):
        v = np.array(vec, dtype=np.float64)
        if v.ndim != 1 or not 1 <= v.size <= MAX_DIM:
            raise ValueError(f"vector part must have 1..{MAX_DIM} entries, got shape {v.shape}")
        v.setflags(write=False)
        self._x0 = float(x0)
        self._vec = v

    @property
    def x0(self) -> float:
        return self._x0

    @property
    def vec(self) -> np.ndarray:
        return self._vec

    @property
    def m(self) -> int:
        return self._vec.size

    @property
    def r(self) -> float:
        """Length of the vector part: sqrt(v . v), the formula np.linalg.norm uses for
        a 1-D float64 vector, so the bits are its bits."""
        return math.sqrt(self._vec.dot(self._vec))

    @property
    def omega(self) -> np.ndarray:
        """Unit vector x_/|x_|; undefined on the real axis."""
        r = self.r
        if r == 0.0:
            raise ValueError("omega is undefined at r = 0 (point on the real axis)")
        return self._vec / r

    def embed(self) -> Multivector:
        """x0 + x_ as a multivector (grade 0 plus grade 1)."""
        return Multivector(self.m, _paravector(self._x0, self._vec))

    def __repr__(self) -> str:
        return f"Paravector(x0={self._x0:g}, vec={self._vec.tolist()})"
