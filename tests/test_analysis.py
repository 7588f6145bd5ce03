"""The symbolic pipeline against hand-checked golden data: divisor tables,
multiplicity constituents, reciprocity pairings, and the verdict suite."""

import dataclasses
from fractions import Fraction

import pytest

from equichar import (NotACharacter, NotLinearCharacter, action_period,
                      analyze, class_divisor_data, dixon_character_table,
                      equivariant_qp, fixed_point_qp, multiplicity_qp,
                      orbit_count_qp, reciprocity_character, report_to_dict)
from equichar.analysis import integrality_failure
from equichar.cyclo import Cyclotomic
from equichar.gcdpoly import GcdQuasiPolynomial, make_quasimonomial

from conftest import BUILTIN_NAMES, make_builtin_group


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
                  (data.ranks[c], data.reduced_divisors(c))
                  for c in range(group.class_count)}
        assert by_rep[3] == (2, (2, 2))
        assert by_rep[2] == (2, (3,))
        assert by_rep[4] == (2, (3,))
        assert by_rep[1] == (2, ())
        assert by_rep[5] == (2, ())

    def test_c6_z3(self, pipelines):
        group, _, data = pipelines["c6-z3"]
        by_rep = {group.class_representatives[c]:
                  (data.ranks[c], data.reduced_divisors(c))
                  for c in range(group.class_count)}
        assert by_rep[1] == (3, (6,))
        assert by_rep[5] == (3, (6,))
        assert by_rep[2] == (2, (3,))
        assert by_rep[4] == (2, (3,))
        assert by_rep[3] == (1, (2,))

    def test_s3_a2(self, pipelines):
        group, _, data = pipelines["s3-a2"]
        by_order = {group.element_orders[group.class_representatives[c]]:
                    (data.ranks[c], data.reduced_divisors(c))
                    for c in range(group.class_count)}
        assert by_order[1] == (0, ())
        assert by_order[2] == (1, ())
        assert by_order[3] == (2, (3,))

    def test_action_periods(self, pipelines):
        expected = {"c6-z2": 6, "c6-z3": 6, "s3-a2": 3,
                    "trivial-z2": 1, "dihedral-z2": 2}
        for name, (_, _, data) in pipelines.items():
            assert action_period(data) == expected[name]


class TestFixedPoints:
    def test_identity_class(self, pipelines):
        _, _, data = pipelines["c6-z2"]
        qp = fixed_point_qp(data, 0)
        assert qp.evaluate(5) == 25

    def test_sigma_cubed_on_z3(self, pipelines):
        group, _, data = pipelines["c6-z3"]
        c = group.class_of[3]
        qp = fixed_point_qp(data, c)
        # gcd(2, q) * q^2
        assert qp.evaluate(2) == 8
        assert qp.evaluate(3) == 9

    def test_order_three_class_on_z2(self, pipelines):
        group, _, data = pipelines["c6-z2"]
        c = group.class_of[2]
        qp = fixed_point_qp(data, c)
        assert [qp.evaluate(q) for q in (1, 2, 3, 6)] == [1, 1, 3, 3]


class TestGoldenMultiplicities:
    def check_table(self, group, table, data, golden, index_of):
        period = action_period(data)
        for key, constituents in golden.items():
            i = index_of(key)
            qp = multiplicity_qp(group, table, data, i, period)
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
        qp = multiplicity_qp(group, table, data, 0)
        assert qp.constituent(1) == (Fraction(0), Fraction(0), Fraction(1))


class TestEquivariant:
    def test_leading_coefficients(self, pipelines):
        for name, (group, table, data) in pipelines.items():
            eqp = equivariant_qp(group, table, data)
            for i, qp in enumerate(eqp.multiplicities):
                poly = qp.constituent(eqp.period)
                assert len(poly) - 1 == group.rank
                assert poly[-1] == Fraction(table.degrees[i], group.order)

    def test_dimension_identity_numeric(self, pipelines):
        for group, table, data in pipelines.values():
            eqp = equivariant_qp(group, table, data)
            for q in range(1, 13):
                total = sum(table.degrees[i] * m.evaluate(q)
                            for i, m in enumerate(eqp.multiplicities))
                assert total == q ** group.rank


class TestIntegrality:
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
        qp = GcdQuasiPolynomial(1, terms)
        assert integrality_failure([qp], 1, ell) == expected

    def test_gcd_terms_checked_per_class(self):
        # q^2 - 3 gcd(2, q) q + 2 is q^2 - 3q + 2 = (q - 1)(q - 2) for odd q
        # and q^2 - 6q + 2 for even q, which is negative at q = 2 and q = 4
        qp = make_quasimonomial((), 2, 1, period=2) + \
            make_quasimonomial((2,), 1, -3) + \
            make_quasimonomial((), 0, 2, period=2)
        assert integrality_failure([qp], 2, 2) == \
            "row 0: value -6 at q=2 is negative"
        assert integrality_failure([qp.add(make_quasimonomial((2,), 0, 6))],
                                   2, 2) is None

    def test_real_multiplicities_pass(self, pipelines):
        for group, table, data in pipelines.values():
            eqp = equivariant_qp(group, table, data)
            assert integrality_failure(eqp.multiplicities, eqp.period,
                                       eqp.lattice_rank) is None


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

    def test_twist_pairings_between_rows(self, pipelines):
        # m(chi^1; q) = -m(chi^4; -q) and m(chi^3; q) = -m(trivial; -q)
        # for the rank-3 action; m(trivial; q) = m(sign; -q) for S3
        group, table, data = pipelines["c6-z3"]
        period = action_period(data)
        m = {j: multiplicity_qp(group, table, data,
                                row_by_generator_value(table, group, 1, j),
                                period)
             for j in range(6)}
        for q in range(-12, 13):
            assert m[1].evaluate(q) == -m[4].evaluate(-q)
            assert m[3].evaluate(q) == -m[0].evaluate(-q)

        group, table, data = pipelines["s3-a2"]
        sign = next(i for i in range(3) if table.degrees[i] == 1
                    and i != table.trivial_index)
        triv = multiplicity_qp(group, table, data, table.trivial_index)
        delta = multiplicity_qp(group, table, data, sign)
        for q in range(-12, 13):
            assert triv.evaluate(q) == delta.evaluate(-q)

    def test_even_rank_trivial_delta_gives_symmetry(self, pipelines):
        group, table, data = pipelines["c6-z2"]
        for i in range(table.size):
            qp = multiplicity_qp(group, table, data, i)
            for q in range(-12, 13):
                assert qp.evaluate(q) == qp.evaluate(-q)


class TestAnalyze:
    def test_all_verdicts_pass_symbolically(self):
        for name in BUILTIN_NAMES:
            report = analyze(make_builtin_group(name), name=name, verify=False)
            assert report.all_passed, [v for v in report.verdicts
                                       if not v.passed]
            assert report.oracle_q_max == 0

    def test_minimal_periods_reported(self):
        report = analyze(make_builtin_group("c6-z2"), verify=False)
        assert report.minimal_periods[report.table.trivial_index] == 6

    def test_orbit_count_requires_degree_one(self):
        group = make_builtin_group("s3-a2")
        report = analyze(group, verify=False)
        two_dim = next(i for i in range(report.table.size)
                       if report.table.degrees[i] == 2)
        with pytest.raises(NotLinearCharacter):
            orbit_count_qp(report.table, report.equivariant, two_dim)
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
            assert report.equivariant.multiplicities[i].equals(
                direct.equivariant.multiplicities[j])
