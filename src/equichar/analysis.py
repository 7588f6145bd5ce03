"""From a finite unimodular group action on Z^l to the exact quasi-polynomial
decomposition of its mod-q permutation characters, with verification.

For each conjugacy class the Smith normal form of (R - I) supplies the
elementary divisors e_1 | ... | e_r; the number of fixed points of that
class on (Z/q)^l is then gcd(e_1, q) * ... * gcd(e_r, q) * q^(l - r), a
single gcd-form quasi-monomial. The classes of one Galois family (the
classes of rep^a, a prime to the order of rep) share their Smith form, so
it is computed once per family, as is the determinant. Averaging against
irreducible characters, summed as integer coefficient vectors, produces the
multiplicity quasi-polynomials; rows with equal term lists share one.
`analyze` then checks each structural fact once (gcd-property, leading
terms, minimal period, the reciprocity twist by the parity character of
the ranks, dimension identity, integrality), each on the stored integer
numerators of each distinct multiplicity object rather than of each row,
each verdict a proof for all q, and optionally compares everything against
brute-force orbit enumeration for small q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod

from . import bruteforce
from .characters import (CharacterTable, ClassFunction, dixon_character_table,
                         ingest_character_table, find_row,
                         rational_class_function)
from .checks import Verdict
from .cyclo import Cyclotomic
from .errors import (CertificationFailed, NoMatch, NonRationalCoefficient,
                     NotACharacter)
from .gcdpoly import (GcdQuasiPolynomial, divisors_of, from_terms, horner,
                      make_quasimonomial, rows_by_object)
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
    # One Smith form per Galois family. Conjugation by a unimodular element
    # keeps a Smith form, and for R = rep_leader and a prime to its order o,
    # R^a - I = (R - I)(I + R + ... + R^(a-1)) and, with a*b = 1 (mod o),
    # R - I = (R^a)^b - I = (R^a - I)(I + R^a + ... + R^(a(b-1))). So
    # R^a - I and R - I have the same column lattice, hence the same rank
    # and elementary divisors.
    ident = IntMatrix.identity(group.rank)
    snfs = {c: smith_normal_form(m.sub(ident))
            for c, m in group.leader_matrices.items()}
    ranks = [snfs[leader].rank for leader, _ in group.families]
    divisors = [snfs[leader].divisors for leader, _ in group.families]
    # the action of the stored matrices is faithful: only the identity fixes
    # the whole lattice
    if ranks[0] != 0 or not all(r > 0 for r in ranks[1:]):
        raise CertificationFailed(f"ranks {ranks} of R - I: action not faithful")
    return ClassDivisorData(lattice_rank=group.rank, ranks=tuple(ranks),
                            divisors=tuple(divisors))


def action_period(data: ClassDivisorData) -> int:
    """lcm of the largest elementary divisors over all classes; this is the
    common period of every quasi-polynomial the action produces."""
    return lcm(1, *(chain[-1] for chain in data.divisors if chain))


def fixed_point_qp(data: ClassDivisorData,
                   class_index: int) -> GcdQuasiPolynomial:
    """Fixed-point count of the class representative on (Z/q)^l as a single
    gcd-form quasi-monomial."""
    power = data.lattice_rank - data.ranks[class_index]
    return make_quasimonomial(data.divisors[class_index], power, 1,
                              period=action_period(data))


def _multiplicity_terms(group: FiniteMatrixGroup, table: CharacterTable,
                        data: ClassDivisorData, i: int) -> tuple:
    """The (divisors, power, coeff) terms of row i's multiplicity. Values
    are summed per term as reduced coefficient vectors: reduction is linear,
    so the sum is reduced, and rational iff only its constant term is
    nonzero."""
    accum: dict[tuple[tuple[int, ...], int], list] = {}
    for c, (size, value) in enumerate(zip(group.class_sizes,
                                          table.rows[i].values)):
        key = (data.reduced_divisors(c), data.lattice_rank - data.ranks[c])
        prev = accum.get(key)
        accum[key] = ([a * size for a in value.coeffs] if prev is None else
                      [b + a * size for b, a in zip(prev, value.coeffs)])
    terms = []
    for key, vec in accum.items():
        if any(vec[1:]):
            value = Cyclotomic(group.exponent, tuple(vec))
            raise NonRationalCoefficient(
                f"row {i}: coefficient on {key} is "
                f"{value * Fraction(1, group.order)}, not rational")
        terms.append((*key, Fraction(vec[0], group.order)))
    return tuple(terms)


@dataclass(frozen=True)
class EquivariantQuasiPolynomial:
    """The full character-valued quasi-polynomial: one multiplicity
    quasi-polynomial per irreducible row of the table."""

    lattice_rank: int
    period: int
    multiplicities: tuple[GcdQuasiPolynomial, ...]


def equivariant_qp(group: FiniteMatrixGroup, table: CharacterTable,
                   data: ClassDivisorData) -> EquivariantQuasiPolynomial:
    # rows with equal term lists, such as Galois-conjugate rows, share one
    # quasi-polynomial
    period = action_period(data)
    shared: dict[tuple, GcdQuasiPolynomial] = {}
    mults = []
    for i in range(table.size):
        terms = _multiplicity_terms(group, table, data, i)
        if (qp := shared.get(terms)) is None:
            qp = shared[terms] = from_terms(period, terms)
        mults.append(qp)
    return EquivariantQuasiPolynomial(lattice_rank=data.lattice_rank,
                                      period=period,
                                      multiplicities=tuple(mults))


def reciprocity_character(group: FiniteMatrixGroup, table: CharacterTable,
                          data: ClassDivisorData) -> tuple[ClassFunction, int]:
    """The degree-1 character gamma -> (-1)^rank(R_gamma - I), which equals
    det(R_gamma). Returns it with its row index in the table.

    The determinant is multiplicative, so matching it on one representative
    per class shows that the parity function is a degree-1 character. It is
    computed once per Galois family: det(rep_c) = det(rep_leader)^a."""
    signs = tuple((-1) ** r for r in data.ranks)
    leader_dets = {c: m.det() for c, m in group.leader_matrices.items()}
    dets = tuple(leader_dets[leader] ** a for leader, a in group.families)
    if dets != signs:
        raise NotACharacter(
            f"determinants {list(dets)} differ from the rank parities "
            f"{list(signs)} of the classes")
    cf = rational_class_function(group, signs)
    idx = find_row(table, cf.values)
    if idx is None:
        raise NotACharacter("the rank-parity character matches no table row")
    return cf, idx


def _reflected(qp: GcdQuasiPolynomial, ell: int) -> GcdQuasiPolynomial:
    # (-1)^ell * qp(-q): constituents depend on r only through
    # gcd(period, r) = gcd(period, -r), so each numerator is reflected in place
    return GcdQuasiPolynomial(qp.period, qp.denominator, {
        d: tuple(-c if (ell + p) % 2 else c for p, c in enumerate(nums))
        for d, nums in qp.numerators.items()})


def _twist_indices(table: CharacterTable, delta: ClassFunction) -> list[int]:
    """For each row i, the index of the row chi_i (x) delta. delta takes
    only the values +-1, so the twist negates the values on the classes
    where delta = -1, and the twisted row is looked up by its values."""
    m = delta.group.exponent
    one, minus = Cyclotomic.rational(m, 1), Cyclotomic.rational(m, -1)
    if any(v != one and v != minus for v in delta.values):
        raise NotACharacter("the twisting character takes a value other "
                            "than 1 and -1")
    flips = [c for c, v in enumerate(delta.values) if v == minus]
    index = {row.values: i for i, row in enumerate(table.rows)}
    twist = []
    for i, row in enumerate(table.rows):
        values = list(row.values)
        for c in flips:
            values[c] = -values[c]
        j = index.get(tuple(values))
        if j is None:
            raise NoMatch(f"row {i} twisted by the given character is not in "
                          f"the table")
        twist.append(j)
    return twist


def check_reciprocity(table: CharacterTable, eqp: EquivariantQuasiPolynomial,
                      delta: ClassFunction) -> list[Verdict]:
    """Constituent-level verification of the twist identity
    m(chi_i (x) delta; q) = (-1)^l m(chi_i; -q) and of its aggregate form
    F(q) = (-1)^l delta (x) F(-q)."""
    period = eqp.period
    mults = eqp.multiplicities
    twist = _twist_indices(table, delta)
    reflected = {id(qp): _reflected(qp, eqp.lattice_rank)
                 for qp, _ in rows_by_object(mults)}
    # the twist is an involution, so this pass also covers the aggregate
    # identity read from the other side. Canonical tables of one period are
    # equal iff every constituent is: == runs once per distinct pair of
    # objects, at its first row, and the smallest failing divisor d is also
    # the smallest failing residue.
    first_rows: dict[tuple[int, int], int] = {}
    for i, j in enumerate(twist):
        first_rows.setdefault((id(mults[i]), id(mults[j])), i)
    failure = None
    for i in first_rows.values():
        lhs, rhs = mults[twist[i]], reflected[id(mults[i])]
        if lhs != rhs:
            failure = (i, next(d for d in divisors_of(period)
                               if lhs.constituent(d) != rhs.constituent(d)))
            break
    involution = all(twist[j] == i for i, j in enumerate(twist))
    method = f"symbolic, constituents mod {period}"
    details = f"first failure at row, residue {failure}" if failure else ""
    return [
        Verdict(
            name="reciprocity-twist",
            statement="m(chi_i (x) delta; q) = (-1)^l m(chi_i; -q) for every row i",
            method=method,
            passed=failure is None,
            details=details,
        ),
        Verdict(
            name="reciprocity-aggregate",
            statement="F(q) = (-1)^l delta (x) F(-q), componentwise",
            method=method,
            passed=failure is None and involution,
            details=details or ("" if involution else
                                "twisting by delta is not an involution"),
        ),
    ]


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
    that bound in its gcd class are evaluated.

    Values are the stored integer numerators evaluated at q, over the
    denominator. Each distinct multiplicity is tested once, at its first
    row, which is the row a failure names."""
    for m, (i, *_) in rows_by_object(multiplicities):
        den = m.denominator
        table = {d: m.numerators[gcd(m.period, d)] for d in divisors_of(period)}
        for q in range(1, period * (ell + 1) + 1):
            acc = horner(table[gcd(period, q)], q)
            if acc % den:
                return (f"row {i}: value {Fraction(acc, den)} at q={q} "
                        f"is not an integer")
        for d, nums in table.items():
            if not nums or nums[-1] <= 0:
                return f"row {i}: leading coefficient at gcd {d} is not positive"
            # the ratios a_j / a_top are those of the numerators
            bound = 1 + -(-max(map(abs, nums[:-1]), default=0) // nums[-1])
            for q in range(d, bound, d):
                if gcd(period, q) == d and (acc := horner(nums, q)) < 0:
                    return (f"row {i}: value {Fraction(acc, den)} at q={q} "
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
        "other rows the exact minimal period is reported and only its "
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


def analyze(group: FiniteMatrixGroup, *, raw_table: dict | None = None,
            name: str = "", q_max: int | None = None,
            verify: bool = True) -> AnalysisReport:
    table = (ingest_character_table(group, raw_table) if raw_table is not None
             else dixon_character_table(group))
    data = class_divisor_data(group)
    period = action_period(data)
    effective_q_max = q_max if q_max is not None else max(24, 4 * period)

    # classes of one Galois family share their fixed-point quasi-polynomial
    by_leader = {c: fixed_point_qp(data, c) for c in group.leaders}
    fixed = tuple(by_leader[leader] for leader, _ in group.families)
    eqp = equivariant_qp(group, table, data)
    delta, delta_index = reciprocity_character(group, table, data)
    linear = table.linear_indices()
    # every check below reads each distinct multiplicity once, with its rows
    shared = rows_by_object(eqp.multiplicities)
    periods = {id(qp): qp.minimal_period() for qp, _ in shared}
    minimal_periods = tuple(periods[id(m)] for m in eqp.multiplicities)

    verdicts: list[Verdict] = []
    symbolic = f"symbolic, constituents mod {period}"

    gcd_ok = all(
        qp.numerators[gcd(qp.period, r)] == qp.numerators[gcd(qp.period, period, r)]
        for qp, _ in rows_by_object((*fixed, *eqp.multiplicities))
        for r in range(1, period + 1))
    verdicts.append(Verdict(
        name="gcd-property",
        statement="constituents depend on the residue r only through gcd(period, r)",
        method=symbolic,
        passed=gcd_ok))

    # every multiplicity has the period of eqp, so its numerators are keyed
    # by the divisors of `period`
    ell = data.lattice_rank
    leading_ok = all(
        len(nums) == ell + 1
        and nums[-1] * group.order == degree * qp.denominator
        for qp, rows in shared for degree in {table.degrees[i] for i in rows}
        for nums in qp.numerators.values())
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
        details=f"exact minimal periods {list(minimal_periods)}"))

    # |G| times the class average of prod(divisors) * t^(l - rank); only
    # the identity has rank 0, so the t^l coefficient is 1 and nothing trims
    top_ref = [0] * (ell + 1)
    for size, rank, chain in zip(group.class_sizes, data.ranks, data.divisors):
        top_ref[ell - rank] += size * prod(chain)
    trivial = eqp.multiplicities[table.trivial_index]
    verdicts.append(Verdict(
        name="top-constituent",
        statement="the constituent of the trivial row at the full-period "
                  "residue equals the class average of prod(divisors) * "
                  "t^(l - rank)",
        method=symbolic,
        passed=[n * group.order for n in trivial.numerators[period]] ==
               [c * trivial.denominator for c in top_ref]))

    # each distinct multiplicity counts with the summed degrees of its rows,
    # over the lcm of the denominators; every one has degree at most l, so
    # the weighted sum is q^l iff at every divisor its trimmed constituent is
    # that of q^l
    den = lcm(*(qp.denominator for qp, _ in shared))
    weighted = [(qp, sum(table.degrees[i] for i in rows) * (den // qp.denominator))
                for qp, rows in shared]
    dim_ok = True
    for d in divisors_of(period):
        total = [0] * (ell + 1)
        for qp, weight in weighted:
            for p, c in enumerate(qp.numerators[d]):
                total[p] += weight * c
        while total and total[-1] == 0:
            total.pop()
        if total != [0] * ell + [den]:
            dim_ok = False
            break
    verdicts.append(Verdict(
        name="dimension-identity",
        statement="sum of degree(chi_i) * m(chi_i; q) equals q^l",
        method=symbolic,
        passed=dim_ok))

    failure = integrality_failure(eqp.multiplicities, period, ell)
    verdicts.append(Verdict(
        name="integrality",
        statement="every multiplicity evaluates to a nonnegative integer",
        method=f"proof for all q: exact values at q in 1..{period * (ell + 1)}, "
               f"signs below Cauchy root bounds",
        passed=failure is None,
        details=failure or ""))

    verdicts.extend(check_reciprocity(table, eqp, delta))

    oracle_q_max = 0
    if verify:
        oracle_verdicts, oracle_q_max = bruteforce.differential_check(
            group, table, eqp.multiplicities, fixed,
            q_max=effective_q_max)
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
    table = report.table
    # an orbit-count entry repeats its row's multiplicity, and rows or
    # classes may share one quasi-polynomial object: serialize each once
    mults = report.equivariant.multiplicities
    layout = {id(qp): qp.serialize() for qp, _ in
              rows_by_object((*mults, *report.fixed_point_qps))}
    serialized = [layout[id(m)] for m in mults]
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
                "fixed_points": layout[id(report.fixed_point_qps[c])],
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
                "quasi_polynomial": serialized[i],
            }
            for i in range(table.size)
        ],
        "orbit_counts": [
            {
                "character_index": i,
                "quasi_polynomial": serialized[i],
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
