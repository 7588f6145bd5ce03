"""Quasi-polynomials written in gcd form.

A value is a finite sum of terms

    coeff * gcd(e_1, q) * ... * gcd(e_s, q) * q^power

with exact rational coefficients, together with a declared period that every
divisor e_j divides. Restricted to a residue class r mod period, each gcd
factor is the constant gcd(e_j, r), so the whole value collapses to an
ordinary polynomial, the constituent of that residue class. Because every
divisor divides the declared period, constituents only depend on
gcd(period, r); evaluation at q <= 0 is defined through the constituent of
the residue representative in 1..period, which coincides with reading
gcd(e, q) as gcd(e, q mod e) and gcd(e, 0) = e.

Canonical form sorts terms, merges equal (divisors, power) keys, drops zero
coefficients and divisor entries equal to 1. Distinct gcd products that
agree as functions, such as gcd(2,q)*gcd(3,q) and gcd(6,q), are deliberately
kept distinct structurally; the equals() method decides functional equality
by comparing constituents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

from .errors import CertificationFailed

Term = tuple[tuple[int, ...], int, Fraction]

_ZERO = Fraction(0)


def divisors_of(n: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, n + 1) if n % d == 0)


def _poly_trim(coeffs: list[Fraction]) -> tuple[Fraction, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_eval(coeffs: Iterable[Fraction], q) -> Fraction:
    acc = Fraction(0)
    for c in reversed(tuple(coeffs)):
        acc = acc * q + c
    return acc


def _canonical(raw: Mapping[tuple[tuple[int, ...], int], Fraction]) -> tuple[Term, ...]:
    items = [(divs, power, coeff) for (divs, power), coeff in raw.items() if coeff != 0]
    items.sort(key=lambda t: (t[1], t[0]))
    return tuple(items)


@dataclass(frozen=True)
class GcdQuasiPolynomial:
    period: int
    terms: tuple[Term, ...]

    def __post_init__(self):
        if self.period < 1:
            raise ValueError(f"invalid period {self.period}")
        for divs, power, coeff in self.terms:
            if power < 0:
                raise ValueError(f"negative power {power}")
            for e in divs:
                if e < 2 or self.period % e != 0:
                    raise ValueError(
                        f"divisor {e} invalid for period {self.period}")
            if not isinstance(coeff, Fraction) or coeff == 0:
                raise ValueError(f"non-canonical coefficient {coeff!r}")

    # --- evaluation -----------------------------------------------------

    def evaluate(self, q: int) -> Fraction:
        return poly_eval(self.constituent(q), q)

    def constituent(self, r: int) -> tuple[Fraction, ...]:
        """Polynomial (coefficients low to high) giving the value on the
        residue class of r modulo the period."""
        top = max((power for _, power, _ in self.terms), default=-1)
        coeffs = [_ZERO] * (top + 1)
        for divs, power, coeff in self.terms:
            val = coeff
            for e in divs:
                val *= gcd(e, r)
            coeffs[power] += val
        return _poly_trim(coeffs)

    def constituents(self) -> dict[int, tuple[Fraction, ...]]:
        """One polynomial per divisor d of the period, the shared constituent
        of all residues r with gcd(period, r) = d."""
        return {d: self.constituent(d) for d in divisors_of(self.period)}

    # --- structure ------------------------------------------------------

    def minimal_period(self) -> int:
        """Smallest divisor n of the declared period such that constituents
        only depend on the residue modulo n."""
        for n in divisors_of(self.period):
            if all(self.constituent(r) == self.constituent(((r - 1) % n) + 1)
                   for r in range(1, self.period + 1)):
                return n
        return self.period

    def degree(self) -> int:
        return max((power for _, power, _ in self.terms), default=-1)

    # --- arithmetic -----------------------------------------------------

    def add(self, other: "GcdQuasiPolynomial") -> "GcdQuasiPolynomial":
        raw: dict[tuple[tuple[int, ...], int], Fraction] = {}
        for divs, power, coeff in self.terms + other.terms:
            key = (divs, power)
            raw[key] = raw.get(key, _ZERO) + coeff
        return GcdQuasiPolynomial(lcm(self.period, other.period), _canonical(raw))

    def scale(self, factor) -> "GcdQuasiPolynomial":
        f = Fraction(factor)
        if f == 0:
            return GcdQuasiPolynomial(self.period, ())
        return GcdQuasiPolynomial(
            self.period,
            tuple((divs, power, coeff * f) for divs, power, coeff in self.terms))

    def __add__(self, other):
        return self.add(other)

    def __sub__(self, other):
        return self.add(other.scale(-1))

    def equals(self, other: "GcdQuasiPolynomial") -> bool:
        """Functional equality: same value at every integer."""
        if self.period == other.period and self.terms == other.terms:
            return True
        span = lcm(self.period, other.period)
        return all(self.constituent(r) == other.constituent(r)
                   for r in range(1, span + 1))

    # --- serialization ----------------------------------------------------

    def serialize(self) -> dict:
        return {
            "period": self.period,
            "constituents": {
                str(d): [[c.numerator, c.denominator] for c in poly]
                for d, poly in sorted(self.constituents().items())
            },
        }

    @classmethod
    def deserialize(cls, payload: dict) -> "GcdQuasiPolynomial":
        """Rebuild a gcd-form object from serialized constituents.

        The functions q -> gcd(d, q) for d dividing the period are a basis
        of everything that only depends on gcd(period, q): the matrix
        [gcd(d, d')] over the divisor lattice has determinant
        prod(phi(d)) != 0. Solving against it per power recovers exact
        gcd-form coefficients whose constituents reproduce the input.
        """
        period = int(payload["period"])
        divisors = divisors_of(period)
        raw_cons = payload["constituents"]
        if set(raw_cons) != {str(d) for d in divisors}:
            raise ValueError("constituent keys must be the divisors of the period")
        polys = {
            d: [Fraction(int(num), int(den)) for num, den in raw_cons[str(d)]]
            for d in divisors
        }
        top = max((len(p) for p in polys.values()), default=0)
        matrix = [[Fraction(gcd(dj, di)) for dj in divisors] for di in divisors]
        raw: dict[tuple[tuple[int, ...], int], Fraction] = {}
        for power in range(top):
            rhs = [polys[d][power] if power < len(polys[d]) else _ZERO
                   for d in divisors]
            solution = _solve_exact(matrix, rhs)
            for dj, coeff in zip(divisors, solution):
                if coeff != 0:
                    key = ((dj,) if dj > 1 else (), power)
                    raw[key] = raw.get(key, _ZERO) + coeff
        return cls(period, _canonical(raw))


def _solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over the rationals; the matrix must be invertible."""
    n = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] != 0), None)
        if pivot is None:
            raise CertificationFailed("singular system")
        a[c], a[pivot] = a[pivot], a[c]
        inv = 1 / a[c][c]
        a[c] = [v * inv for v in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[c])]
    return [a[i][n] for i in range(n)]


def make_quasimonomial(divisors: Iterable[int], power: int, coeff=Fraction(1),
                       period: int | None = None) -> GcdQuasiPolynomial:
    """Single term coeff * prod gcd(e, q) * q^power. The declared period
    defaults to the lcm of the divisors."""
    divs = tuple(sorted(int(e) for e in divisors if int(e) != 1))
    for e in divs:
        if e < 1:
            raise ValueError(f"invalid divisor {e}")
    if period is None:
        period = lcm(1, *divs) if divs else 1
    f = Fraction(coeff)
    terms = ((divs, power, f),) if f != 0 else ()
    return GcdQuasiPolynomial(period, terms)
