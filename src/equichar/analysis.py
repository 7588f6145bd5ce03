"""From a finite unimodular group action on Z^l to the exact quasi-polynomial
decomposition of its mod-q permutation characters, with verification.

For each conjugacy class the Smith normal form of (R - I) supplies the
elementary divisors e_1 | ... | e_r; the number of fixed points of that
class on (Z/q)^l is then gcd(e_1, q) * ... * gcd(e_r, q) * q^(l - r), a
single gcd-form quasi-monomial. Averaging against irreducible characters
produces the multiplicity quasi-polynomials. `analyze` then checks each
structural fact once (gcd-property, leading terms, minimal period, the
reciprocity twist by the parity character of the ranks, dimension identity,
integrality), each verdict a proof for all q, and optionally compares
everything against brute-force orbit enumeration for small q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, gcd, lcm

from . import bruteforce
from .characters import (CharacterTable, ClassFunction, dixon_character_table,
                         ingest_character_table, find_row,
                         rational_class_function, tensor_identify)
from .checks import Verdict
from .errors import NonRationalCoefficient, NotACharacter, NotLinearCharacter
from .gcdpoly import (GcdQuasiPolynomial, divisors_of, make_quasimonomial,
                      poly_eval)
from .groups import FiniteMatrixGroup
from .intmat import IntMatrix, smith_normal_form


@dataclass(frozen=True)
class ClassDivisorData:
    """Per conjugacy class: rank and elementary divisor chain of (R - I)
    for the class representative. Divisor chains keep leading 1 entries;
    display code is free to suppress them."""

    lattice_rank: int
    ranks: tuple[int, ...]
    divisors: tuple[tuple[int, ...], ...]

    def reduced_divisors(self, c: int) -> tuple[int, ...]:
        return tuple(e for e in self.divisors[c] if e != 1)


def class_divisor_data(group: FiniteMatrixGroup) -> ClassDivisorData:
    ident = IntMatrix.identity(group.rank)
    ranks = []
    divisors = []
    for rep in group.class_representatives:
        snf = smith_normal_form(group.elements[rep].sub(ident))
        ranks.append(snf.rank)
        divisors.append(snf.divisors)
    # the action of the stored matrices is faithful: only the identity fixes
    # the whole lattice
    assert ranks[0] == 0 and all(r > 0 for r in ranks[1:])
    return ClassDivisorData(lattice_rank=group.rank, ranks=tuple(ranks),
                            divisors=tuple(divisors))


def action_period(data: ClassDivisorData) -> int:
    """lcm of the largest elementary divisors over all classes; this is the
    common period of every quasi-polynomial the action produces."""
    period = 1
    for chain in data.divisors:
        if chain:
            period = lcm(period, chain[-1])
    return period


def fixed_point_qp(data: ClassDivisorData, class_index: int,
                   period: int | None = None) -> GcdQuasiPolynomial:
    """Fixed-point count of the class representative on (Z/q)^l as a single
    gcd-form quasi-monomial."""
    if period is None:
        period = action_period(data)
    power = data.lattice_rank - data.ranks[class_index]
    return make_quasimonomial(data.divisors[class_index], power, 1, period=period)


def multiplicity_qp(group: FiniteMatrixGroup, table: CharacterTable,
                    data: ClassDivisorData, i: int,
                    period: int | None = None) -> GcdQuasiPolynomial:
    """Multiplicity of irreducible row i in the permutation character of the
    action on (Z/q)^l, as a quasi-polynomial in q."""
    if period is None:
        period = action_period(data)
    accum: dict[tuple[tuple[int, ...], int], object] = {}
    for c in range(group.class_count):
        key = (data.reduced_divisors(c), data.lattice_rank - data.ranks[c])
        weight = table.rows[i].values[c] * group.class_sizes[c]
        accum[key] = accum[key] + weight if key in accum else weight
    raw: dict[tuple[tuple[int, ...], int], Fraction] = {}
    for key, value in accum.items():
        scaled = value * Fraction(1, group.order)
        try:
            coeff = scaled.as_fraction()
        except ValueError:
            raise NonRationalCoefficient(
                f"row {i}: coefficient on {key} is {scaled}, not rational")
        if coeff != 0:
            raw[key] = coeff
    return GcdQuasiPolynomial(period, tuple(sorted(
        ((divs, power, coeff) for (divs, power), coeff in raw.items()),
        key=lambda t: (t[1], t[0]))))


@dataclass(frozen=True)
class EquivariantQuasiPolynomial:
    """The full character-valued quasi-polynomial: one multiplicity
    quasi-polynomial per irreducible row of the table."""

    lattice_rank: int
    period: int
    multiplicities: tuple[GcdQuasiPolynomial, ...]
    degrees: tuple[int, ...]
    trivial_index: int

    def evaluate(self, q: int) -> tuple[Fraction, ...]:
        return tuple(m.evaluate(q) for m in self.multiplicities)


def equivariant_qp(group: FiniteMatrixGroup, table: CharacterTable,
                   data: ClassDivisorData,
                   period: int | None = None) -> EquivariantQuasiPolynomial:
    if period is None:
        period = action_period(data)
    mults = tuple(multiplicity_qp(group, table, data, i, period)
                  for i in range(table.size))
    return EquivariantQuasiPolynomial(lattice_rank=data.lattice_rank,
                                      period=period,
                                      multiplicities=mults,
                                      degrees=table.degrees,
                                      trivial_index=table.trivial_index)


def reciprocity_character(group: FiniteMatrixGroup, table: CharacterTable,
                          data: ClassDivisorData) -> tuple[ClassFunction, int]:
    """The degree-1 character gamma -> (-1)^rank(R_gamma - I), which equals
    det(R_gamma). Returns it with its row index in the table.

    The determinant is multiplicative, so matching it on one representative
    per class shows that the parity function is a degree-1 character."""
    signs = tuple((-1) ** r for r in data.ranks)
    dets = tuple(group.elements[rep].det() for rep in group.class_representatives)
    if dets != signs:
        raise NotACharacter(
            f"determinants {list(dets)} differ from the rank parities "
            f"{list(signs)} of the classes")
    cf = rational_class_function(group, signs)
    idx = find_row(table, cf.values)
    if idx is None:
        raise NotACharacter("the rank-parity character matches no table row")
    return cf, idx


def _reflected(poly: tuple[Fraction, ...], ell: int) -> tuple[Fraction, ...]:
    # coefficients of (-1)^ell * g(-t)
    return tuple(c * (-1) ** (ell + p) for p, c in enumerate(poly))


def _negated_residue(r: int, period: int) -> int:
    return ((-r - 1) % period) + 1


def check_reciprocity(table: CharacterTable, eqp: EquivariantQuasiPolynomial,
                      delta: ClassFunction, delta_index: int) -> list[Verdict]:
    """Constituent-level verification of the twist identity
    m(chi_i (x) delta; q) = (-1)^l m(chi_i; -q) and of its aggregate form
    F(q) = (-1)^l delta (x) F(-q)."""
    ell = eqp.lattice_rank
    period = eqp.period
    twist = [tensor_identify(table, i, delta) for i in range(table.size)]
    # the twist is an involution, so this one pass over the rows also covers
    # the aggregate identity read from the other side
    failures = []
    for i in range(table.size):
        j = twist[i]
        for r in range(1, period + 1):
            lhs = eqp.multiplicities[j].constituent(r)
            rhs = _reflected(
                eqp.multiplicities[i].constituent(_negated_residue(r, period)), ell)
            if lhs != rhs:
                failures.append((i, r))
    involution = all(twist[j] == i for i, j in enumerate(twist))
    method = f"symbolic, constituents mod {period}"
    details = f"first failure at row, residue {failures[0]}" if failures else ""
    return [
        Verdict(
            name="reciprocity-twist",
            statement="m(chi_i (x) delta; q) = (-1)^l m(chi_i; -q) for every row i",
            method=method,
            passed=not failures,
            details=details,
        ),
        Verdict(
            name="reciprocity-aggregate",
            statement="F(q) = (-1)^l delta (x) F(-q), componentwise",
            method=method,
            passed=not failures and involution,
            details=details or ("" if involution else
                                "twisting by delta is not an involution"),
        ),
    ]


def orbit_count_qp(table: CharacterTable, eqp: EquivariantQuasiPolynomial,
                   index: int) -> GcdQuasiPolynomial:
    """For a degree-1 row, the multiplicity quasi-polynomial also counts the
    orbits whose isotropy lies inside the kernel of that character; for the
    trivial row it is the total orbit count."""
    if table.degrees[index] != 1:
        raise NotLinearCharacter(f"row {index} has degree {table.degrees[index]}")
    return eqp.multiplicities[index]


def integrality_failure(multiplicities, period: int,
                        ell: int) -> str | None:
    """Decide whether every multiplicity takes a nonnegative integer value at
    every q >= 1; returns None if so, else a description of a failure.

    Each multiplicity must have a period dividing `period` and degree at
    most `ell`. For a residue r, t -> m(r + period*t) is then a polynomial
    of degree at most ell, and such a polynomial is integer-valued on Z iff
    its values at ell + 1 consecutive integers are (Polya). So integrality
    at q in 1..period*(ell + 1) proves it for every q. For the sign, a
    constituent with a positive leading coefficient is positive beyond the
    Cauchy bound 1 + max|a_j / a_top| on its roots, so only the q below
    that bound in its gcd class are evaluated."""
    for i, m in enumerate(multiplicities):
        polys = {d: m.constituent(d) for d in divisors_of(period)}
        for q in range(1, period * (ell + 1) + 1):
            value = poly_eval(polys[gcd(period, q)], q)
            if value.denominator != 1:
                return f"row {i}: value {value} at q={q} is not an integer"
        for d, poly in polys.items():
            if not poly or poly[-1] <= 0:
                return f"row {i}: leading coefficient at gcd {d} is not positive"
            bound = 1 + max((abs(c / poly[-1]) for c in poly[:-1]), default=0)
            for q in range(d, ceil(bound), d):
                if gcd(period, q) == d and poly_eval(poly, q) < 0:
                    return (f"row {i}: value {poly_eval(poly, q)} at q={q} "
                            f"is negative")
    return None


# ---------------------------------------------------------------------------
# full pipeline with verdicts
# ---------------------------------------------------------------------------

CONVENTIONS = {
    "negative-evaluation":
        "values at q <= 0 come from the constituent of the residue class of "
        "q, equivalently gcd(e, q) = gcd(e, q mod e) with gcd(e, 0) = e",
    "orbit-counts":
        "for a degree-1 character the listed quasi-polynomial counts orbits "
        "whose isotropy group lies in the character kernel",
    "minimal-periods":
        "the declared period is certified minimal for the trivial row; for "
        "other rows the empirical minimal period is reported and only its "
        "divisibility into the declared period is asserted",
}


@dataclass(frozen=True)
class AnalysisReport:
    name: str
    group: FiniteMatrixGroup = field(compare=False, repr=False)
    table: CharacterTable = field(compare=False, repr=False)
    data: ClassDivisorData = field(compare=False)
    period: int = 1
    fixed_point_qps: tuple[GcdQuasiPolynomial, ...] = ()
    equivariant: EquivariantQuasiPolynomial | None = None
    reciprocity_values: tuple[int, ...] = ()
    reciprocity_index: int = 0
    linear_indices: tuple[int, ...] = ()
    minimal_periods: tuple[int, ...] = ()
    verdicts: tuple[Verdict, ...] = ()
    q_max: int = 0
    oracle_q_max: int = 0

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def _top_constituent_reference(group: FiniteMatrixGroup,
                               data: ClassDivisorData) -> tuple[Fraction, ...]:
    # (1/|G|) sum over classes of size * prod(divisors) * t^(l - rank)
    coeffs = [Fraction(0)] * (data.lattice_rank + 1)
    for c in range(group.class_count):
        prod = Fraction(group.class_sizes[c], group.order)
        for e in data.divisors[c]:
            prod *= e
        coeffs[data.lattice_rank - data.ranks[c]] += prod
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def analyze(group: FiniteMatrixGroup, *, raw_table: dict | None = None,
            name: str = "", q_max: int | None = None, verify: bool = True,
            enumeration_cap: int | None = None) -> AnalysisReport:
    table = (ingest_character_table(group, raw_table) if raw_table is not None
             else dixon_character_table(group))
    data = class_divisor_data(group)
    period = action_period(data)
    effective_q_max = q_max if q_max is not None else max(24, 4 * period)

    fixed = tuple(fixed_point_qp(data, c, period)
                  for c in range(group.class_count))
    eqp = equivariant_qp(group, table, data, period)
    delta, delta_index = reciprocity_character(group, table, data)
    linear = table.linear_indices()
    minimal_periods = tuple(m.minimal_period() for m in eqp.multiplicities)

    verdicts: list[Verdict] = []
    symbolic = f"symbolic, constituents mod {period}"

    produced = list(fixed) + list(eqp.multiplicities)
    gcd_ok = all(
        qp.constituent(r) == qp.constituent(gcd(period, r))
        for qp in produced for r in range(1, period + 1))
    verdicts.append(Verdict(
        name="gcd-property",
        statement="constituents depend on the residue r only through gcd(period, r)",
        method=symbolic,
        passed=gcd_ok))

    ell = data.lattice_rank
    leading_ok = True
    for i, qp in enumerate(eqp.multiplicities):
        expected = Fraction(table.degrees[i], group.order)
        for d in divisors_of(period):
            poly = qp.constituent(d)
            if len(poly) - 1 != ell or poly[-1] != expected:
                leading_ok = False
    verdicts.append(Verdict(
        name="leading-term",
        statement="every multiplicity has degree l with leading coefficient "
                  "degree(chi_i)/|G|",
        method=symbolic,
        passed=leading_ok))

    trivial_period = minimal_periods[table.trivial_index]
    verdicts.append(Verdict(
        name="minimal-period",
        statement="the trivial-row multiplicity has minimal period equal to "
                  "the declared period; all rows divide it",
        method=symbolic,
        passed=(trivial_period == period
                and all(period % mp == 0 for mp in minimal_periods)),
        details=f"empirical minimal periods {list(minimal_periods)}"))

    top_ref = _top_constituent_reference(group, data)
    verdicts.append(Verdict(
        name="top-constituent",
        statement="the constituent of the trivial row at the full-period "
                  "residue equals the class average of prod(divisors) * "
                  "t^(l - rank)",
        method=symbolic,
        passed=eqp.multiplicities[table.trivial_index].constituent(period) == top_ref))

    dim_target = make_quasimonomial((), ell, 1, period=period)
    acc = GcdQuasiPolynomial(period, ())
    for i, qp in enumerate(eqp.multiplicities):
        acc = acc.add(qp.scale(table.degrees[i]))
    verdicts.append(Verdict(
        name="dimension-identity",
        statement="sum of degree(chi_i) * m(chi_i; q) equals q^l",
        method=symbolic,
        passed=acc.equals(dim_target)))

    failure = integrality_failure(eqp.multiplicities, period, ell)
    verdicts.append(Verdict(
        name="integrality",
        statement="every multiplicity evaluates to a nonnegative integer",
        method=f"proof for all q: exact values at q in 1..{period * (ell + 1)}, "
               f"signs below Cauchy root bounds",
        passed=failure is None,
        details=failure or ""))

    verdicts.extend(check_reciprocity(table, eqp, delta, delta_index))

    oracle_q_max = 0
    if verify:
        oracle_verdicts, oracle_q_max = bruteforce.differential_check(
            group, table, eqp.multiplicities, fixed,
            q_max=effective_q_max, cap=enumeration_cap)
        verdicts.extend(oracle_verdicts)

    return AnalysisReport(
        name=name,
        group=group,
        table=table,
        data=data,
        period=period,
        fixed_point_qps=fixed,
        equivariant=eqp,
        reciprocity_values=tuple((-1) ** r for r in data.ranks),
        reciprocity_index=delta_index,
        linear_indices=linear,
        minimal_periods=minimal_periods,
        verdicts=tuple(verdicts),
        q_max=effective_q_max,
        oracle_q_max=oracle_q_max,
    )


def report_to_dict(report: AnalysisReport) -> dict:
    """Deterministic JSON-ready view of a report; key order is fixed and all
    numbers are exact (rationals appear as [numerator, denominator])."""
    from .characters import table_to_dict

    group = report.group
    data = report.data
    eqp = report.equivariant
    table = report.table
    return {
        "name": report.name,
        "rank": group.rank,
        "group": {
            "order": group.order,
            "exponent": group.exponent,
            "class_sizes": list(group.class_sizes),
            "class_representatives": list(group.class_representatives),
            "class_representative_orders": [
                group.element_orders[r] for r in group.class_representatives],
        },
        "period": report.period,
        "class_data": [
            {
                "class": c,
                "size": group.class_sizes[c],
                "rank": data.ranks[c],
                "divisors": list(data.reduced_divisors(c)),
                "fixed_points": report.fixed_point_qps[c].serialize(),
            }
            for c in range(group.class_count)
        ],
        "character_table": {**table_to_dict(table),
                            "degrees": list(table.degrees),
                            "trivial_index": table.trivial_index,
                            "source": table.source},
        "reciprocity_character": {
            "index": report.reciprocity_index,
            "values": list(report.reciprocity_values),
        },
        "multiplicities": [
            {
                "index": i,
                "degree": table.degrees[i],
                "minimal_period": report.minimal_periods[i],
                "quasi_polynomial": eqp.multiplicities[i].serialize(),
            }
            for i in range(table.size)
        ],
        "orbit_counts": [
            {
                "character_index": i,
                "quasi_polynomial": eqp.multiplicities[i].serialize(),
            }
            for i in report.linear_indices
        ],
        "conventions": dict(CONVENTIONS),
        "verification": {
            "q_max": report.q_max,
            "oracle_q_max": report.oracle_q_max,
            "verdicts": [
                {
                    "name": v.name,
                    "statement": v.statement,
                    "method": v.method,
                    "passed": v.passed,
                    "details": v.details,
                }
                for v in report.verdicts
            ],
            "all_passed": report.all_passed,
        },
    }
