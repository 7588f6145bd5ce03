"""The symbolic pipeline against hand-checked golden data: divisor tables,
multiplicity constituents, reciprocity pairings, and the verdict suite."""

import dataclasses
from collections import Counter
from fractions import Fraction
from math import ceil, gcd, lcm

from hypothesis import example, given, settings
from hypothesis import strategies as st
import pytest

from equichar import (CertificationFailed, IntMatrix, NoMatch,
                      NonRationalCoefficient, NotACharacter, action_period,
                      analysis, analyze, class_divisor_data,
                      dixon_character_table, equivariant_qp, find_row,
                      fixed_point_qp, generate_group,
                      reciprocity_character, report_to_dict,
                      smith_normal_form)
from equichar.analysis import integrality_failure
from equichar.characters import twist_indices
from equichar.cyclo import Cyclotomic
from equichar.gcdpoly import GcdQuasiPolynomial, divisors_of, from_terms

from conftest import (BUILTIN_NAMES, C21_GENERATOR, CARTAN_F4,
                      make_builtin_group, mat, plus_one,
                      signed_permutation_generators, weyl_group_generators)


def F(*nums):
    return tuple(Fraction(n, 6) for n in nums)


def row_by_generator_value(table, group, generator_index, power):
    """Index of the character sending the generator to zeta_e^power."""
    target = Cyclotomic.root_of_unity(group.exponent, power)
    cls = group.class_of[generator_index]
    matches = [i for i in range(table.size)
               if table.rows[i].values[cls] == target]
    assert len(matches) == 1
    return matches[0]


# constituents (coefficients low to high, all over denominator 6) keyed by
# gcd(6, q), for the C6 actions; j indexes the character zeta_6^j
C6_Z2_GOLDEN = {
    1: {1: F(-1, 0, 1), 2: F(-4, 0, 1), 3: F(-3, 0, 1), 6: F(-6, 0, 1)},
    5: {1: F(-1, 0, 1), 2: F(-4, 0, 1), 3: F(-3, 0, 1), 6: F(-6, 0, 1)},
    2: {1: F(-1, 0, 1), 2: F(2, 0, 1), 3: F(-3, 0, 1), 6: F(0, 0, 1)},
    4: {1: F(-1, 0, 1), 2: F(2, 0, 1), 3: F(-3, 0, 1), 6: F(0, 0, 1)},
    3: {1: F(-1, 0, 1), 2: F(-4, 0, 1), 3: F(3, 0, 1), 6: F(0, 0, 1)},
    0: {1: F(5, 0, 1), 2: F(8, 0, 1), 3: F(9, 0, 1), 6: F(12, 0, 1)},
}

C6_Z3_GOLDEN = {
    1: {1: F(1, -1, -1, 1), 2: F(2, -1, -2, 1),
        3: F(3, -3, -1, 1), 6: F(6, -3, -2, 1)},
    5: {1: F(1, -1, -1, 1), 2: F(2, -1, -2, 1),
        3: F(3, -3, -1, 1), 6: F(6, -3, -2, 1)},
    2: {1: F(-1, -1, 1, 1), 2: F(-2, -1, 2, 1),
        3: F(-3, -3, 1, 1), 6: F(-6, -3, 2, 1)},
    4: {1: F(-1, -1, 1, 1), 2: F(-2, -1, 2, 1),
        3: F(-3, -3, 1, 1), 6: F(-6, -3, 2, 1)},
    3: {1: F(-2, 2, -1, 1), 2: F(-4, 2, -2, 1),
        3: F(-6, 6, -1, 1), 6: F(-12, 6, -2, 1)},
    0: {1: F(2, 2, 1, 1), 2: F(4, 2, 2, 1),
        3: F(6, 6, 1, 1), 6: F(12, 6, 2, 1)},
}

# S3 on the A2 lattice, keyed by gcd(3, q); rows: trivial, sign, degree 2
S3_GOLDEN = {
    "trivial": {1: F(2, 3, 1), 3: F(6, 3, 1)},
    "sign": {1: F(2, -3, 1), 3: F(6, -3, 1)},
    "two": {1: F(-2, 0, 2), 3: F(-6, 0, 2)},
}


@pytest.fixture(scope="module")
def pipelines():
    out = {}
    for name in BUILTIN_NAMES:
        group = make_builtin_group(name)
        table = dixon_character_table(group)
        data = class_divisor_data(group)
        out[name] = (group, table, data)
    return out


class TestClassDivisorData:
    def test_c6_z2(self, pipelines):
        group, _, data = pipelines["c6-z2"]
        assert data.ranks[0] == 0 and data.divisors[0] == ()
        # by representative element order: -I has (2,2), the order-3
        # rotations have (1,3), the order-6 rotations have (1,1)
        by_rep = {group.class_representatives[c]:
                  (data.ranks[c], data.divisors[c])
                  for c in range(group.class_count)}
        assert by_rep[3] == (2, (2, 2))
        assert by_rep[2] == (2, (3,))
        assert by_rep[4] == (2, (3,))
        assert by_rep[1] == (2, ())
        assert by_rep[5] == (2, ())

    def test_c6_z3(self, pipelines):
        group, _, data = pipelines["c6-z3"]
        by_rep = {group.class_representatives[c]:
                  (data.ranks[c], data.divisors[c])
                  for c in range(group.class_count)}
        assert by_rep[1] == (3, (6,))
        assert by_rep[5] == (3, (6,))
        assert by_rep[2] == (2, (3,))
        assert by_rep[4] == (2, (3,))
        assert by_rep[3] == (1, (2,))

    def test_s3_a2(self, pipelines):
        group, _, data = pipelines["s3-a2"]
        by_order = {group.element_orders[group.class_representatives[c]]:
                    (data.ranks[c], data.divisors[c])
                    for c in range(group.class_count)}
        assert by_order[1] == (0, ())
        assert by_order[2] == (1, ())
        assert by_order[3] == (2, (3,))

    def test_action_periods(self, pipelines):
        expected = {"c6-z2": 6, "c6-z3": 6, "s3-a2": 3,
                    "trivial-z2": 1, "dihedral-z2": 2}
        for name, (_, _, data) in pipelines.items():
            assert action_period(data) == expected[name]

    def test_non_faithful_action_fails_certification(self, monkeypatch):
        # one non-identity class leader acting as the identity matrix
        group = make_builtin_group("c6-z2")
        matrices = dict(group.leader_matrices)
        c = next(c for c in matrices if c != 0)
        matrices[c] = IntMatrix.identity(group.rank)
        monkeypatch.setitem(group.__dict__, "leader_matrices", matrices)
        with pytest.raises(CertificationFailed,
                           match="action not faithful") as info:
            class_divisor_data(group)
        assert info.value.stage == "certification"


def family_test_groups(pipelines):
    """The builtins with their tables, then C21, B4 and F4 with theirs."""
    extra = [generate_group([mat(C21_GENERATOR)], rank=8),
             generate_group(signed_permutation_generators(4)),
             generate_group(weyl_group_generators(CARTAN_F4))]
    return [(group, table) for group, table, _ in pipelines.values()] + \
        [(group, dixon_character_table(group)) for group in extra]


class TestGaloisFamilies:
    def test_smith_forms_and_determinants_match_per_class(self, pipelines):
        for group, table in family_test_groups(pipelines):
            data = class_divisor_data(group)
            ident = IntMatrix.identity(group.rank)
            matrices = [group.matrix(x) for x in group.class_representatives]
            snfs = [smith_normal_form(m.sub(ident)) for m in matrices]
            assert data.ranks == tuple(snf.rank for snf in snfs)
            assert data.divisors == tuple(
                tuple(e for e in snf.divisors if e > 1) for snf in snfs)
            delta, _ = reciprocity_character(group, table, data)
            assert [v.as_fraction() for v in delta.values] == \
                [m.det() for m in matrices]

    def test_one_smith_form_and_determinant_per_family(self, monkeypatch):
        group = generate_group([mat(C21_GENERATOR)], rank=8)
        table = dixon_character_table(group)
        snf_calls, det_calls = [], []
        original_snf = analysis.smith_normal_form
        original_det = IntMatrix.det

        def counting_snf(a):
            snf_calls.append(a)
            return original_snf(a)

        def counting_det(self):
            det_calls.append(self)
            return original_det(self)

        monkeypatch.setattr(analysis, "smith_normal_form", counting_snf)
        monkeypatch.setattr(IntMatrix, "det", counting_det)
        data = class_divisor_data(group)
        assert len(snf_calls) == len(group.leaders) == 4
        det_calls.clear()
        reciprocity_character(group, table, data)
        assert det_calls == list(group.leader_matrices.values())


class TestFixedPoints:
    def test_identity_class(self, pipelines):
        group, _, data = pipelines["c6-z2"]
        qp = fixed_point_qp(group, data, 0)
        assert qp.evaluate(5) == 25

    def test_sigma_cubed_on_z3(self, pipelines):
        group, _, data = pipelines["c6-z3"]
        c = group.class_of[3]
        qp = fixed_point_qp(group, data, c)
        # gcd(2, q) * q^2
        assert qp.evaluate(2) == 8
        assert qp.evaluate(3) == 9

    def test_order_three_class_on_z2(self, pipelines):
        group, _, data = pipelines["c6-z2"]
        c = group.class_of[2]
        qp = fixed_point_qp(group, data, c)
        assert [qp.evaluate(q) for q in (1, 2, 3, 6)] == [1, 1, 3, 3]


class TestGoldenMultiplicities:
    def check_table(self, group, table, data, golden, index_of):
        mults = equivariant_qp(group, table, data).multiplicities
        for key, constituents in golden.items():
            qp = mults[index_of(key)]
            for d, coeffs in constituents.items():
                assert qp.constituent(d) == coeffs, (key, d)

    def test_c6_z2(self, pipelines):
        group, table, data = pipelines["c6-z2"]
        self.check_table(
            group, table, data, C6_Z2_GOLDEN,
            lambda j: row_by_generator_value(table, group, 1, j))

    def test_c6_z3(self, pipelines):
        group, table, data = pipelines["c6-z3"]
        self.check_table(
            group, table, data, C6_Z3_GOLDEN,
            lambda j: row_by_generator_value(table, group, 1, j))

    def test_s3_a2(self, pipelines):
        group, table, data = pipelines["s3-a2"]

        def index_of(key):
            if key == "trivial":
                return table.trivial_index
            if key == "two":
                return next(i for i in range(3) if table.degrees[i] == 2)
            return next(i for i in range(3) if table.degrees[i] == 1
                        and i != table.trivial_index)

        self.check_table(group, table, data, S3_GOLDEN, index_of)

    def test_trivial_group(self, pipelines):
        group, table, data = pipelines["trivial-z2"]
        qp = equivariant_qp(group, table, data).multiplicities[0]
        assert qp.constituent(1) == (Fraction(0), Fraction(0), Fraction(1))


class TestEquivariant:
    def test_equal_term_lists_share_one_multiplicity(self, c21_group):
        # 21 rows of C21 in 4 Galois orbits: 4 distinct term lists
        table = dixon_character_table(c21_group)
        eqp = equivariant_qp(c21_group, table, class_divisor_data(c21_group))
        assert len(eqp.multiplicities) == 21
        assert len({id(m) for m in eqp.multiplicities}) == 4
        assert len(set(map(repr, eqp.multiplicities))) == 4

    def test_leading_coefficients(self, pipelines):
        for name, (group, table, data) in pipelines.items():
            eqp = equivariant_qp(group, table, data)
            for i, qp in enumerate(eqp.multiplicities):
                poly = qp.constituent(action_period(data))
                assert len(poly) - 1 == group.rank
                assert poly[-1] == Fraction(table.degrees[i], group.order)

    def test_dimension_identity_numeric(self, pipelines):
        for group, table, data in pipelines.values():
            eqp = equivariant_qp(group, table, data)
            for q in range(1, 13):
                total = sum(table.degrees[i] * m.evaluate(q)
                            for i, m in enumerate(eqp.multiplicities))
                assert total == q ** group.rank

    @pytest.mark.parametrize("name", ["s3-a2", "c6-z2"])
    def test_dimension_identity_sees_one_constituent_off(self, name,
                                                         monkeypatch):
        # the verdict must read every row at every divisor: adding 1 to the
        # constant term of any one of them breaks it
        group = make_builtin_group(name)

        def dimension_verdict():
            report = analyze(group, verify=False)
            return next(v for v in report.verdicts
                        if v.name == "dimension-identity"), report

        verdict, report = dimension_verdict()
        assert verdict.passed
        original = analysis.equivariant_qp
        for row in range(report.table.size):
            for d in divisors_of(report.period):
                def shifted(*args, row=row, d=d):
                    eqp = original(*args)
                    mults = list(eqp.multiplicities)
                    mults[row] = plus_one(mults[row], [d])
                    return dataclasses.replace(eqp,
                                               multiplicities=tuple(mults))
                monkeypatch.setattr(analysis, "equivariant_qp", shifted)
                assert not dimension_verdict()[0].passed, (row, d)

    @pytest.mark.parametrize("name", ["s3-a2", "c6-z2"])
    def test_top_constituent_reads_the_full_period_residue(self, name,
                                                           monkeypatch):
        # adding 1 to the trivial row's constituent at gcd = period breaks
        # the verdict; the other residues are not its business
        group = make_builtin_group(name)
        original = analysis.equivariant_qp
        period = analyze(group, verify=False).period
        for d in divisors_of(period):
            def shifted(*args, d=d):
                eqp = original(*args)
                mults = list(eqp.multiplicities)
                row = args[1].trivial_index
                mults[row] = plus_one(mults[row], [d])
                return dataclasses.replace(eqp, multiplicities=tuple(mults))
            monkeypatch.setattr(analysis, "equivariant_qp", shifted)
            verdict = next(v for v in analyze(group, verify=False).verdicts
                           if v.name == "top-constituent")
            assert verdict.passed == (d != period), d

    @pytest.mark.parametrize("name", ["s3-a2", "c6-z2"])
    def test_leading_term_sees_one_top_coefficient_off(self, name,
                                                       monkeypatch):
        # adding 1 to the t^l coefficient of any one row at any divisor
        # breaks degree(chi)/|G|; the rows of a shared object are replaced
        # one at a time
        group = make_builtin_group(name)

        def leading_verdict():
            report = analyze(group, verify=False)
            return next(v for v in report.verdicts
                        if v.name == "leading-term"), report

        verdict, report = leading_verdict()
        assert verdict.passed
        original = analysis.equivariant_qp
        for row in range(report.table.size):
            for d in divisors_of(report.period):
                def raised(*args, row=row, d=d):
                    eqp = original(*args)
                    mults = list(eqp.multiplicities)
                    qp = mults[row]
                    table = dict(qp.numerators)
                    *low, top = table[d]
                    table[d] = (*low, top + qp.denominator)
                    mults[row] = GcdQuasiPolynomial(qp.period, qp.denominator,
                                                    table)
                    return dataclasses.replace(eqp,
                                               multiplicities=tuple(mults))
                monkeypatch.setattr(analysis, "equivariant_qp", raised)
                verdict = leading_verdict()[0]
                assert not verdict.passed and verdict.method.startswith(
                    "symbolic"), (row, d)

    def test_minimal_period_fails_on_a_shorter_trivial_period(self,
                                                              monkeypatch):
        # c6-z2 has period 6; the trivial row's constituent at gcd 6 read on
        # every residue has minimal period 1, and the verdict names it
        group = make_builtin_group("c6-z2")
        report = analyze(group, verify=False)
        verdict = next(v for v in report.verdicts
                       if v.name == "minimal-period")
        assert verdict.passed and report.period == 6
        original = analysis.equivariant_qp

        def flattened(*args):
            eqp = original(*args)
            mults = list(eqp.multiplicities)
            row = args[1].trivial_index
            qp = mults[row]
            mults[row] = from_terms(qp.period, tuple(
                ((), p, Fraction(n, qp.denominator))
                for p, n in enumerate(qp.numerators[qp.period])))
            assert mults[row].minimal_period() == 1
            return dataclasses.replace(eqp, multiplicities=tuple(mults))

        monkeypatch.setattr(analysis, "equivariant_qp", flattened)
        report = analyze(group, verify=False)
        verdict = next(v for v in report.verdicts
                       if v.name == "minimal-period")
        periods = list(report.minimal_periods)
        assert not verdict.passed
        assert periods[report.table.trivial_index] == 1
        assert verdict.details == f"exact minimal periods {periods}"

    def test_non_rational_coefficient_names_row_key_and_value(self, pipelines):
        # a row that is constant zeta_6 is no character, and its sum over
        # the identity's family, the key ((), 2), is not rational
        group, table, data = pipelines["c6-z2"]
        zeta = Cyclotomic.root_of_unity(group.exponent, 1)
        bad = dataclasses.replace(table.rows[0],
                                  values=(zeta,) * group.class_count)
        table = dataclasses.replace(table, rows=(bad, *table.rows[1:]))
        with pytest.raises(NonRationalCoefficient) as info:
            equivariant_qp(group, table, data)
        assert str(info.value) == (
            f"row 0: the sum over the Galois family of class 0 is {zeta}, "
            f"not rational")


def fraction_horner(poly, q):
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * q + c
    return acc


def reference_integrality_failure(multiplicities, period, ell):
    """The integrality and sign scan evaluated in Fraction arithmetic."""
    for i, m in enumerate(multiplicities):
        polys = {d: m.constituent(d) for d in divisors_of(period)}
        for q in range(1, period * (ell + 1) + 1):
            value = fraction_horner(polys[gcd(period, q)], q)
            if value.denominator != 1:
                return f"row {i}: value {value} at q={q} is not an integer"
        for d, poly in polys.items():
            if not poly or poly[-1] <= 0:
                return f"row {i}: leading coefficient at gcd {d} is not positive"
            bound = 1 + max((abs(c / poly[-1]) for c in poly[:-1]), default=0)
            for q in range(d, ceil(bound), d):
                if gcd(period, q) == d and fraction_horner(poly, q) < 0:
                    return (f"row {i}: value {fraction_horner(poly, q)} "
                            f"at q={q} is negative")
    return None


# binomial(q, k) as (power, coefficient) terms
BINOMIAL_TERMS = {
    0: ((0, Fraction(1)),),
    1: ((1, Fraction(1)),),
    2: ((1, Fraction(-1, 2)), (2, Fraction(1, 2))),
    3: ((1, Fraction(1, 3)), (2, Fraction(-1, 2)), (3, Fraction(1, 6))),
}


@st.composite
def quasi_polynomials(draw):
    """A period dividing 12 and a from_terms quasi-polynomial of degree at
    most 3 over it. Free terms have mixed-sign coefficients over 1..12.
    Integer multiples of gcd products times binomial(q, k) add terms over 2
    and 6 that keep the values integral, and a mostly positive multiple of
    binomial(q, 3) leads, so that every outcome is reached."""
    period = draw(st.sampled_from(divisors_of(12)))
    divs = st.lists(st.sampled_from(divisors_of(period)), max_size=2).map(tuple)
    coeffs = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
    terms = draw(st.lists(st.tuples(divs, st.integers(0, 3), coeffs),
                          max_size=2))
    binomials = draw(st.lists(st.tuples(divs, st.integers(0, 2),
                                        st.integers(-9, 9)), max_size=3))
    binomials.append((draw(divs), 3, draw(st.integers(-1, 3))))
    for d, k, c in binomials:
        terms += [(d, power, c * a) for power, a in BINOMIAL_TERMS[k]]
    return period, from_terms(period, terms)


class TestIntegrality:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(quasi_polynomials(), min_size=1, max_size=3))
    # q^2 - gcd(2, q) q - 2 gcd(2, q) + 2 is q^2 - q for odd q and
    # q^2 - 2q - 2 for even q: negative at q = 2, the last even q below its
    # Cauchy bound 3
    @example([(2, from_terms(2, [((), 2, 1), ((2,), 1, -1), ((2,), 0, -2),
                                 ((), 0, 2)]))])
    def test_matches_fraction_reference(self, drawn):
        period = lcm(*(p for p, _ in drawn))
        qps = [qp for _, qp in drawn]
        assert integrality_failure(qps, period, 3) == \
            reference_integrality_failure(qps, period, 3)

    @pytest.mark.parametrize("terms, ell, expected", [
        ((((), 1, Fraction(1, 2)),), 1,
         "row 0: value 1/2 at q=1 is not an integer"),
        # (q - 29)(q - 31) dips below zero only at q = 30
        ((((), 0, Fraction(899)), ((), 1, Fraction(-60)),
          ((), 2, Fraction(1))), 2,
         "row 0: value -1 at q=30 is negative"),
        ((((), 1, Fraction(-1)),), 1,
         "row 0: leading coefficient at gcd 1 is not positive"),
    ], ids=["half-q", "negative-at-30", "negative-leading"])
    def test_failures_found(self, terms, ell, expected):
        qp = from_terms(1, terms)
        assert integrality_failure([qp], 1, ell) == expected

    def test_gcd_terms_checked_per_class(self):
        # q^2 - 3 gcd(2, q) q + 2 is q^2 - 3q + 2 = (q - 1)(q - 2) for odd q
        # and q^2 - 6q + 2 for even q, which is negative at q = 2 and q = 4
        terms = [((), 2, 1), ((2,), 1, -3), ((), 0, 2)]
        assert integrality_failure([from_terms(2, terms)], 2, 2) == \
            "row 0: value -6 at q=2 is negative"
        assert integrality_failure([from_terms(2, terms + [((2,), 0, 6)])],
                                   2, 2) is None

    def test_equal_failing_rows_name_the_first(self):
        good = from_terms(1, [((), 1, 1)])
        bad = from_terms(1, [((), 1, Fraction(1, 2))])
        assert integrality_failure([good, bad, bad], 1, 1) == \
            "row 1: value 1/2 at q=1 is not an integer"

    def test_each_distinct_multiplicity_tested_once(self, monkeypatch):
        # C21's 21 rows fall into 4 Galois orbits, of 1, 2, 6 and 12 rows,
        # with one multiplicity object each. Reads of each object's
        # numerators are counted between consecutive verdicts: a check that
        # walked the rows would read the 12-row object 12 times as often as
        # the 1-row object, and one that walks the objects reads all four
        # equally often
        group = generate_group([mat(C21_GENERATOR)], rank=8)
        eqp = equivariant_qp(group, dixon_character_table(group),
                             class_divisor_data(group))
        reads = Counter()

        class CountedTable(dict):
            def __getitem__(self, d):
                reads[id(self)] += 1
                return super().__getitem__(d)

            def values(self):
                reads[id(self)] += 1
                return super().values()

            def items(self):
                reads[id(self)] += 1
                return super().items()

        counted = {}
        for qp in eqp.multiplicities:
            if id(qp) not in counted:
                counted[id(qp)] = dataclasses.replace(
                    qp, numerators=CountedTable(qp.numerators))
        spied = dataclasses.replace(eqp, multiplicities=tuple(
            counted[id(qp)] for qp in eqp.multiplicities))
        assert sorted(Counter(map(id, spied.multiplicities)).values()) == \
            [1, 2, 6, 12]

        periods = []
        original_period = analysis.GcdQuasiPolynomial.minimal_period
        original_verdict = analysis.Verdict
        per_verdict = {}

        def counting_period(qp):
            periods.append(qp)
            return original_period(qp)

        def snapshot(**fields):
            per_verdict[fields["name"]] = dict(reads)
            reads.clear()
            return original_verdict(**fields)

        monkeypatch.setattr(analysis.GcdQuasiPolynomial, "minimal_period",
                            counting_period)
        monkeypatch.setattr(analysis, "equivariant_qp", lambda *args: spied)
        monkeypatch.setattr(analysis, "Verdict", snapshot)
        reads.clear()
        assert analyze(group, verify=False).all_passed
        assert len(periods) == 4
        for name in ("leading-term", "dimension-identity", "integrality",
                     "reciprocity-twist"):
            assert len(per_verdict[name]) == 4, name
            assert len(set(per_verdict[name].values())) == 1, name

    def test_real_multiplicities_pass(self, pipelines):
        for group, table, data in pipelines.values():
            eqp = equivariant_qp(group, table, data)
            assert integrality_failure(eqp.multiplicities, action_period(data),
                                       group.rank) is None


class TestReciprocity:
    def test_delta_is_trivial_for_c6_z2(self, pipelines):
        group, table, data = pipelines["c6-z2"]
        _, idx = reciprocity_character(group, table, data)
        assert idx == table.trivial_index

    def test_delta_is_cube_character_for_c6_z3(self, pipelines):
        group, table, data = pipelines["c6-z3"]
        delta, idx = reciprocity_character(group, table, data)
        assert idx == row_by_generator_value(table, group, 1, 3)
        assert [v.as_fraction() for v in delta.values] == \
            [(-1) ** r for r in data.ranks]

    def test_delta_is_sign_for_s3(self, pipelines):
        group, table, data = pipelines["s3-a2"]
        _, idx = reciprocity_character(group, table, data)
        assert table.degrees[idx] == 1 and idx != table.trivial_index

    def test_parity_must_match_determinant(self, pipelines):
        group, table, data = pipelines["c6-z2"]
        ranks = (0, 1) + data.ranks[2:]
        with pytest.raises(NotACharacter):
            reciprocity_character(group, table,
                                  dataclasses.replace(data, ranks=ranks))

    def test_parity_row_missing_from_table(self, pipelines):
        group, table, data = pipelines["s3-a2"]
        _, sign = reciprocity_character(group, table, data)
        rows = list(table.rows)
        rows[sign] = rows[table.trivial_index]
        with pytest.raises(NotACharacter, match="matches no table row"):
            reciprocity_character(
                group, dataclasses.replace(table, rows=tuple(rows)), data)

    def test_twist_pairings_between_rows(self, pipelines):
        # m(chi^1; q) = -m(chi^4; -q) and m(chi^3; q) = -m(trivial; -q)
        # for the rank-3 action; m(trivial; q) = m(sign; -q) for S3
        group, table, data = pipelines["c6-z3"]
        mults = equivariant_qp(group, table, data).multiplicities
        m = {j: mults[row_by_generator_value(table, group, 1, j)]
             for j in range(6)}
        for q in range(-12, 13):
            assert m[1].evaluate(q) == -m[4].evaluate(-q)
            assert m[3].evaluate(q) == -m[0].evaluate(-q)

        group, table, data = pipelines["s3-a2"]
        sign = next(i for i in range(3) if table.degrees[i] == 1
                    and i != table.trivial_index)
        mults = equivariant_qp(group, table, data).multiplicities
        triv, delta = mults[table.trivial_index], mults[sign]
        for q in range(-12, 13):
            assert triv.evaluate(q) == delta.evaluate(-q)

    def test_twist_makes_no_cyclotomic_product(self, pipelines, c21_group,
                                               monkeypatch):
        cases = [pipelines[name] for name in ("c6-z3", "s3-a2")]
        table = dixon_character_table(c21_group)
        cases.append((c21_group, table, class_divisor_data(c21_group)))
        prepared = []
        for group, table, data in cases:
            delta, _ = reciprocity_character(group, table, data)
            prepared.append((table, equivariant_qp(group, table, data), delta))

        def refuse(self, other):
            raise AssertionError("Cyclotomic product in check_reciprocity")

        monkeypatch.setattr(Cyclotomic, "__mul__", refuse)
        monkeypatch.setattr(Cyclotomic, "__rmul__", refuse)
        for table, eqp, delta in prepared:
            verdicts = analysis.check_reciprocity(table, eqp, delta)
            assert all(v.passed for v in verdicts)

    @pytest.mark.parametrize("name", ["c6-z2", "c6-z3", "s3-a2"])
    def test_first_failure_names_row_and_residue(self, name, pipelines):
        # one row's constituent at one divisor shifted by 1: the verdict
        # names the first (row, divisor) at which the reflected constituent
        # differs, found here row by row in Fraction arithmetic. With l even,
        # a self-paired row keeps the identity under the shift: every row of
        # c6-z2 (delta trivial) and the degree-2 row of s3-a2
        group, table, data = pipelines[name]
        delta, _ = reciprocity_character(group, table, data)
        eqp = equivariant_qp(group, table, data)
        twist = twist_indices(table, delta)
        ell = group.rank
        divisors = divisors_of(action_period(data))
        failing = 0
        for row in range(table.size):
            for d in divisors:
                mults = list(eqp.multiplicities)
                mults[row] = plus_one(mults[row], [d])
                expected = next((
                    (i, e) for i in range(table.size)
                    for e in divisors
                    if mults[twist[i]].constituent(e) != tuple(
                        (-1) ** (ell + p) * c
                        for p, c in enumerate(mults[i].constituent(e)))),
                    None)
                verdict = analysis.check_reciprocity(
                    table, dataclasses.replace(eqp, multiplicities=tuple(mults)),
                    delta)[0]
                assert verdict.passed == (expected is None)
                assert verdict.details == (
                    "" if expected is None
                    else f"first failure at row, residue {expected}")
                failing += expected is not None
        assert (failing == 0) == (name == "c6-z2")

    def test_aggregate_fails_alone_when_the_twist_is_no_involution(
            self, c21_group, monkeypatch):
        # three C21 rows that share one multiplicity object, 3-cycled:
        # every row still meets the twist identity, but twisting twice
        # does not return each row to itself
        table = dixon_character_table(c21_group)
        data = class_divisor_data(c21_group)
        eqp = equivariant_qp(c21_group, table, data)
        shared = Counter(map(id, eqp.multiplicities)).most_common(1)[0][0]
        i, j, k = [r for r, qp in enumerate(eqp.multiplicities)
                   if id(qp) == shared][:3]
        # delta is trivial on a group of odd order: the twist fixes every row
        delta, _ = reciprocity_character(c21_group, table, data)
        twist = twist_indices(table, delta)
        assert twist == list(range(table.size))
        twist[i], twist[j], twist[k] = j, k, i
        monkeypatch.setattr(analysis, "twist_indices",
                            lambda table, delta: twist)
        by_name = {v.name: v for v in analyze(c21_group,
                                               verify=False).verdicts}
        assert by_name["reciprocity-twist"].passed
        aggregate = by_name["reciprocity-aggregate"]
        assert not aggregate.passed
        assert aggregate.details == "twisting by delta is not an involution"
        assert [name for name, v in by_name.items() if not v.passed] == \
            ["reciprocity-aggregate"]

    def test_twist_twists_by_delta(self, pipelines):
        # the rows check_reciprocity pairs are those of the products
        # chi_i * delta, formed value by value
        for group, table, data in pipelines.values():
            delta, _ = reciprocity_character(group, table, data)
            assert twist_indices(table, delta) == [
                find_row(table, tuple(a * b for a, b in zip(row.values,
                                                            delta.values)))
                for row in table.rows]

    def test_twist_with_missing_row_names_it(self, pipelines):
        group, table, data = pipelines["s3-a2"]
        delta, _ = reciprocity_character(group, table, data)
        sign = find_row(table, delta.values)
        # both rows now hold the sign character, whose twist is gone
        rows = list(table.rows)
        rows[table.trivial_index] = rows[sign]
        first = min(sign, table.trivial_index)
        with pytest.raises(NoMatch, match=f"row {first} twisted by the given "
                                          f"character is not in the table"):
            twist_indices(dataclasses.replace(table, rows=rows), delta)

    def test_even_rank_trivial_delta_gives_symmetry(self, pipelines):
        group, table, data = pipelines["c6-z2"]
        for qp in equivariant_qp(group, table, data).multiplicities:
            for q in range(-12, 13):
                assert qp.evaluate(q) == qp.evaluate(-q)


class TestAnalyze:
    def test_all_verdicts_pass_symbolically(self):
        for name in BUILTIN_NAMES:
            report = analyze(make_builtin_group(name), name=name, verify=False)
            assert report.all_passed, [v for v in report.verdicts
                                       if not v.passed]
            assert report.oracle_q_max == 0

    def test_composite_conductor_passes_every_verdict(self, c21_group):
        # the lift uses one DFT table per element order
        assert {c21_group.element_orders[r]
                for r in c21_group.class_representatives} == {1, 3, 7, 21}
        report = analyze(c21_group, verify=False)
        assert report.period == 21
        assert report.all_passed, [v for v in report.verdicts
                                   if not v.passed]
        integrality = next(v for v in report.verdicts
                           if v.name == "integrality")
        assert integrality.method == (
            "proof for all q: exact values at q in 1..189, signs below "
            "Cauchy root bounds")

    def test_minimal_periods_reported(self):
        report = analyze(make_builtin_group("c6-z2"), verify=False)
        assert report.minimal_periods[report.table.trivial_index] == 6

    def test_orbit_count_requires_degree_one(self):
        group = make_builtin_group("s3-a2")
        report = analyze(group, verify=False)
        # orbit counts are read off the degree-1 rows only
        two_dim = next(i for i in range(report.table.size)
                       if report.table.degrees[i] == 2)
        assert two_dim not in report.linear_indices

    def test_report_dict_shape(self):
        report = analyze(make_builtin_group("s3-a2"), name="s3-a2",
                         verify=False)
        payload = report_to_dict(report)
        assert payload["name"] == "s3-a2"
        assert payload["period"] == 3
        assert len(payload["multiplicities"]) == 3
        assert payload["verification"]["all_passed"] is True
        assert set(payload["conventions"]) == {
            "negative-evaluation", "orbit-counts", "minimal-periods"}
        for entry in payload["class_data"]:
            assert set(entry) == {"class", "size", "rank", "divisors",
                                  "fixed_points"}
        for entry in payload["orbit_counts"]:
            i = entry["character_index"]
            assert entry["quasi_polynomial"] == \
                payload["multiplicities"][i]["quasi_polynomial"] == \
                report.equivariant.multiplicities[i].serialize()

    def test_user_table_reaches_same_multiplicities(self, pipelines):
        from equichar import find_row

        from conftest import load_reference_table
        group, table, data = pipelines["c6-z2"]
        report = analyze(group, raw_table=load_reference_table("c6_table.json"),
                         verify=False)
        assert report.table.source == "user"
        direct = analyze(group, verify=False)
        for i in range(report.table.size):
            j = find_row(direct.table, report.table.rows[i].values)
            assert j is not None
            assert report.equivariant.multiplicities[i] == \
                direct.equivariant.multiplicities[j]
