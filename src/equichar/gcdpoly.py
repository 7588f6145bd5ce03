"""Quasi-polynomials with the gcd-property, stored as their constituents.

A value is a declared period together with one polynomial per divisor d of
the period: the constituent shared by every residue r with
gcd(period, r) = d. Coefficients are exact rationals listed from low to high
with trailing zeros trimmed, so for a given period the table is canonical and
== is equality as functions. Evaluation at q <= 0 uses the constituent of
gcd(period, q), with gcd(period, 0) = period.

The closed gcd form, a finite sum of terms

    coeff * gcd(e_1, q) * ... * gcd(e_s, q) * q^power

with every e_j dividing the period, enters through `from_terms` (and
`make_quasimonomial` for a single term): on the class of d each gcd factor is
the constant gcd(e_j, d). This agrees with reading gcd(e, q) for q <= 0 as
gcd(e, q mod e) and gcd(e, 0) = e.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable


def divisors_of(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def _poly_trim(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class GcdQuasiPolynomial:
    period: int
    constituents: dict[int, tuple[Fraction, ...]]

    def __post_init__(self):
        if type(self.period) is not int or self.period < 1:
            raise ValueError(f"invalid period {self.period!r}")
        if sorted(self.constituents) != list(divisors_of(self.period)):
            raise ValueError("constituent keys must be the divisors of the period")
        if any(poly and poly[-1] == 0 for poly in self.constituents.values()):
            raise ValueError("constituents must have trailing zeros trimmed")

    # --- evaluation -----------------------------------------------------

    def evaluate(self, q: int) -> Fraction:
        return Fraction(horner(reversed(self.constituent(q)), q))

    def constituent(self, r: int) -> tuple[Fraction, ...]:
        """Polynomial (coefficients low to high) giving the value on the
        residue class of r modulo the period."""
        return self.constituents[gcd(self.period, r)]

    # --- structure ------------------------------------------------------

    def minimal_period(self) -> int:
        """Smallest divisor n of the declared period such that constituents
        only depend on the residue modulo n.

        That holds iff the constituent at every divisor d equals the one at
        gcd(n, d): then the value at q is read at gcd(n, q). Conversely some
        q = d (mod n) has gcd(period, q) = gcd(n, d), so periodicity mod n
        forces the two constituents to agree."""
        table = self.constituents
        return next(n for n in divisors_of(self.period)
                    if all(table[d] == table[gcd(n, d)] for d in table))

    # --- serialization ----------------------------------------------------

    def serialize(self) -> dict:
        return {
            "period": self.period,
            "constituents": {
                str(d): [[c.numerator, c.denominator] for c in poly]
                for d, poly in sorted(self.constituents.items())
            },
        }


def horner(coeffs: Iterable, q: int):
    """The value at q of the coefficients, top one first."""
    acc = 0
    for c in coeffs:
        acc = acc * q + c
    return acc


def integer_constituents(qp: GcdQuasiPolynomial, period: int
                         ) -> dict[int, tuple[tuple[int, ...], int]]:
    """d -> (nums, den) for every divisor d of period, a multiple of
    qp.period: the constituent on the class of d is horner(nums, q) / den,
    its coefficients as integer numerators over the lcm of their
    denominators, top coefficient first."""
    table = {}
    for d in divisors_of(period):
        poly = qp.constituent(d)
        den = lcm(1, *(c.denominator for c in poly))
        table[d] = (tuple(c.numerator * (den // c.denominator)
                          for c in reversed(poly)), den)
    return table


def from_terms(period: int, terms: Iterable[tuple[tuple[int, ...], int, object]]
               ) -> GcdQuasiPolynomial:
    """The sum of coeff * prod(gcd(e, q) for e in divisors) * q^power over
    the (divisors, power, coeff) terms, each divisor dividing the period."""
    terms = [(divs, power, Fraction(coeff)) for divs, power, coeff in terms]
    for divs, power, _ in terms:
        if power < 0 or any(e < 1 or period % e for e in divs):
            raise ValueError(f"term {divs}, q^{power} invalid for period {period}")
    top = max((power for _, power, _ in terms), default=-1)
    table = {}
    for d in divisors_of(period):
        coeffs = [Fraction(0)] * (top + 1)
        for divs, power, coeff in terms:
            for e in divs:
                coeff *= gcd(e, d)
            coeffs[power] += coeff
        table[d] = _poly_trim(coeffs)
    return GcdQuasiPolynomial(period, table)


def make_quasimonomial(divisors: Iterable[int], power: int, coeff=Fraction(1),
                       period: int | None = None) -> GcdQuasiPolynomial:
    """Single term coeff * prod gcd(e, q) * q^power. The declared period
    defaults to the lcm of the divisors."""
    divs = tuple(int(e) for e in divisors)
    if period is None:
        period = lcm(1, *divs)
    return from_terms(period, [(divs, power, coeff)])
