"""Quasi-polynomials with the gcd-property, stored as integer constituents.

A value is a declared period, one positive denominator, and one polynomial
numerator per divisor d of the period: the constituent shared by every
residue r with gcd(period, r) = d is numerators[d] / denominator. Numerators
are integer coefficients listed from low to high with trailing zeros
trimmed, keyed in divisor order, and the denominator and all numerators
have gcd 1. So for a given period the table is canonical and == is equality
as functions. Evaluation at q <= 0 uses the constituent of gcd(period, q),
with gcd(period, 0) = period.

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
from typing import Iterable, Sequence


def divisors_of(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


@dataclass(frozen=True)
class GcdQuasiPolynomial:
    period: int
    denominator: int
    numerators: dict[int, tuple[int, ...]]

    def __post_init__(self):
        if type(self.period) is not int or self.period < 1:
            raise ValueError(f"invalid period {self.period!r}")
        if type(self.denominator) is not int or self.denominator < 1:
            raise ValueError(f"invalid denominator {self.denominator!r}")
        if list(self.numerators) != list(divisors_of(self.period)):
            raise ValueError("keys must be the divisors of the period, in order")
        if any(nums and nums[-1] == 0 for nums in self.numerators.values()):
            raise ValueError("numerators must have trailing zeros trimmed")
        if gcd(self.denominator,
               *(n for nums in self.numerators.values() for n in nums)) != 1:
            raise ValueError("the table is not reduced")

    # --- evaluation -----------------------------------------------------

    def evaluate(self, q: int) -> Fraction:
        return Fraction(horner(self.numerators[gcd(self.period, q)], q),
                        self.denominator)

    def constituent(self, r: int) -> tuple[Fraction, ...]:
        """Polynomial (coefficients low to high) giving the value on the
        residue class of r modulo the period."""
        return tuple(Fraction(n, self.denominator)
                     for n in self.numerators[gcd(self.period, r)])

    # --- structure ------------------------------------------------------

    def minimal_period(self) -> int:
        """Smallest divisor n of the declared period such that constituents
        only depend on the residue modulo n.

        That holds iff the constituent at every divisor d equals the one at
        gcd(n, d): then the value at q is read at gcd(n, q). Conversely some
        q = d (mod n) has gcd(period, q) = gcd(n, d), so periodicity mod n
        forces the two constituents to agree."""
        table = self.numerators
        return next(n for n in table
                    if all(table[d] == table[gcd(n, d)] for d in table))

    # --- serialization ----------------------------------------------------

    def serialize(self) -> dict:
        den = self.denominator
        return {
            "period": self.period,
            "constituents": {
                str(d): [[n // g, den // g] for n in nums for g in [gcd(n, den)]]
                for d, nums in self.numerators.items()
            },
        }


def rows_by_object(qps: Sequence[GcdQuasiPolynomial]
                   ) -> list[tuple[GcdQuasiPolynomial, list[int]]]:
    """Each distinct object among qps, in order of first appearance, with
    the positions that hold it: a check made through this runs once per
    object, however many rows share it."""
    found: dict[int, tuple[GcdQuasiPolynomial, list[int]]] = {}
    for i, qp in enumerate(qps):
        found.setdefault(id(qp), (qp, []))[1].append(i)
    return list(found.values())


def horner(coeffs: Sequence, q: int):
    """The value at q of the coefficients, listed low to high."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * q + c
    return acc


def from_terms(period: int, terms: Iterable[tuple[tuple[int, ...], int, object]]
               ) -> GcdQuasiPolynomial:
    """The sum of coeff * prod(gcd(e, q) for e in divisors) * q^power over
    the (divisors, power, coeff) terms, each divisor dividing the period and
    each coeff an int or a Fraction. The coefficients are brought over the
    lcm of their denominators once, and the table is tabulated in integers."""
    terms = list(terms)
    for divs, power, _ in terms:
        if power < 0 or any(e < 1 or period % e for e in divs):
            raise ValueError(f"term {divs}, q^{power} invalid for period {period}")
    den = lcm(1, *(coeff.denominator for *_, coeff in terms))
    terms = [(divs, power, coeff.numerator * (den // coeff.denominator))
             for divs, power, coeff in terms]
    top = max((power for _, power, _ in terms), default=-1)
    table = {}
    for d in divisors_of(period):
        nums = [0] * (top + 1)
        for divs, power, num in terms:
            for e in divs:
                num *= gcd(e, d)
            nums[power] += num
        while nums and nums[-1] == 0:
            nums.pop()
        table[d] = nums
    common = gcd(den, *(n for nums in table.values() for n in nums))
    return GcdQuasiPolynomial(period, den // common, {
        d: tuple(n // common for n in nums) for d, nums in table.items()})


def make_quasimonomial(divisors: Iterable[int], power: int, coeff=1,
                       period: int | None = None) -> GcdQuasiPolynomial:
    """Single term coeff * prod gcd(e, q) * q^power. The declared period
    defaults to the lcm of the divisors."""
    divs = tuple(int(e) for e in divisors)
    if period is None:
        period = lcm(1, *divs)
    return from_terms(period, [(divs, power, coeff)])
