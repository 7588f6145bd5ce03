"""Exact arithmetic in the cyclotomic field Q(zeta_m).

A value is a rational coefficient vector on the powers zeta^0 .. zeta^(m-1).
Those powers are linearly dependent, so vectors are kept in the canonical
reduced form obtained by taking the remainder modulo the m-th cyclotomic
polynomial: only the first phi(m) coefficients can be nonzero, and equal
values always have identical stored coefficients. Equality is therefore
plain tuple comparison. The remainder is taken in one pass, from a table
cached per conductor of zeta^s reduced for phi(m) <= s < m.

A coefficient keeps the exact rational type the arithmetic produced: an
`int` until a `Fraction` enters (a user-table entry, or the 1/|G| of an
inner product). An integral `Fraction` equals, and hashes like, the `int` of
its value, so equality, hashing, sorting and the JSON [numerator,
denominator] pairs do not depend on which type holds a coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Union

from .errors import CertificationFailed

Rationalish = Union[int, Fraction]


def _exact_polydiv(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Quotient of integer polynomials (low-to-high coefficients) when the
    division is exact and the divisor is monic."""
    if den[-1] != 1:
        raise CertificationFailed(f"divisor {den} is not monic")
    num = list(num)
    deg_d = len(den) - 1
    out = [0] * (len(num) - deg_d)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i]
        if c:
            out[i - deg_d] = c
            for t, dv in enumerate(den):
                num[i - deg_d + t] -= c * dv
    if any(num):
        raise CertificationFailed("polynomial division not exact")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, low to high."""
    if m <= 0:
        raise ValueError(f"invalid conductor {m}")
    poly = [0] * (m + 1)
    poly[0] = -1
    poly[m] = 1
    for d in range(1, m):
        if m % d == 0:
            poly = _exact_polydiv(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def _reduction_table(m: int) -> tuple[int, tuple[tuple[tuple[int, int], ...],
                                                  ...]]:
    """phi(m) and, for each s in phi(m)..m-1, zeta^s mod the m-th cyclotomic
    polynomial as sparse (power, coefficient) pairs below phi(m). Each row is
    zeta times the one before, with the zeta^phi(m) this makes replaced by
    the first row."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    top = [-c for c in phi[:deg]]  # zeta^deg
    dense, rows = top, []
    for _ in range(deg, m):
        rows.append(tuple((t, c) for t, c in enumerate(dense) if c))
        carry = dense[-1]
        dense = [0, *dense[:-1]]
        if carry:
            dense = [a + carry * b for a, b in zip(dense, top)]
    return deg, tuple(rows)


def _reduce(m: int, vec: list[Rationalish]) -> tuple[Rationalish, ...]:
    """The remainder of sum vec[s] zeta^s modulo the cyclotomic polynomial,
    in one pass over the powers at or above its degree."""
    deg, table = _reduction_table(m)
    for c, pairs in zip(vec[deg:], table):
        if c:
            for t, r in pairs:
                vec[t] += c * r
    vec[deg:] = [0] * (m - deg)
    return tuple(vec)


@dataclass(frozen=True)
class Cyclotomic:
    conductor: int
    coeffs: tuple[Rationalish, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.conductor:
            raise ValueError("coefficient vector length must equal the conductor")

    # --- constructors -------------------------------------------------

    @classmethod
    def rational(cls, m: int, value: Rationalish) -> "Cyclotomic":
        vec = [0] * m
        vec[0] = value
        return cls(m, _reduce(m, vec))

    @classmethod
    def root_of_unity(cls, m: int, k: int = 1) -> "Cyclotomic":
        vec = [0] * m
        vec[k % m] = 1
        return cls(m, _reduce(m, vec))

    @classmethod
    def from_powers(cls, m: int, coeffs: Iterable[Rationalish]) -> "Cyclotomic":
        vec = [0] * m
        for i, c in enumerate(coeffs):
            vec[i % m] += c
        return cls(m, _reduce(m, vec))

    # --- ring operations ----------------------------------------------

    def _coerce(self, other) -> "Cyclotomic":
        if isinstance(other, Cyclotomic):
            if other.conductor != self.conductor:
                raise ValueError("conductor mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.rational(self.conductor, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclotomic(self.conductor,
                          tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.conductor, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Cyclotomic(self.conductor,
                              tuple(a * other for a in self.coeffs))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = self.conductor
        vec = [0] * m
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        vec[(i + j) % m] += a * b
        return Cyclotomic(m, _reduce(m, vec))

    __rmul__ = __mul__

    # --- Galois structure ----------------------------------------------

    def galois(self, a: int) -> "Cyclotomic":
        """Image under zeta -> zeta^a, defined for a coprime to the conductor."""
        m = self.conductor
        if gcd(a, m) != 1:
            raise ValueError(f"substitution exponent {a} not coprime to {m}")
        vec = [0] * m
        for i, c in enumerate(self.coeffs):
            if c:
                vec[(i * a) % m] += c
        return Cyclotomic(m, _reduce(m, vec))

    def conjugate(self) -> "Cyclotomic":
        if self.conductor == 1:
            return self
        return self.galois(self.conductor - 1)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        """Galois test: fixed by every substitution zeta -> zeta^a."""
        m = self.conductor
        return all(self.galois(a) == self
                   for a in range(1, m) if gcd(a, m) == 1) if m > 1 else True

    def as_fraction(self) -> Rationalish:
        """The rational value: an `int` unless a `Fraction` entered it."""
        if any(c != 0 for c in self.coeffs[1:]):
            raise ValueError(f"value is not rational: {self}")
        return self.coeffs[0]

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                parts.append(f"{c}*z{self.conductor}^{i}")
        return " + ".join(parts)
