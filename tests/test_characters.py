from fractions import Fraction

import pytest

from equichar import (NoMatch, NotASubgroup, NotLinearCharacter,
                      ValidationFailed, cyclic_subgroup,
                      dixon_character_table, find_row, generate_group,
                      induce_trivial, ingest_character_table, inner_product,
                      rational_class_function, regular_character,
                      table_to_dict, tensor_identify, trivial_character)
from equichar.cyclo import Cyclotomic

from conftest import (BUILTIN_NAMES, load_reference_table,
                      make_builtin_group, mat)


def as_int(value: Cyclotomic) -> Fraction:
    return value.as_fraction()


def row_key(row):
    return tuple(tuple(v.coeffs) for v in row.values)


class TestClassFunctions:
    def test_trivial_character(self, s3_group):
        one = trivial_character(s3_group)
        assert all(v == Cyclotomic.rational(6, 1) for v in one.values)
        assert one.degree().as_fraction() == 1

    def test_regular_character(self, groups):
        for group in groups.values():
            reg = regular_character(group)
            values = [v.as_fraction() for v in reg.values]
            assert values[0] == group.order
            assert all(v == 0 for v in values[1:])

    def test_inner_products(self, s3_group):
        one = trivial_character(s3_group)
        reg = regular_character(s3_group)
        assert as_int(inner_product(one, one)) == 1
        assert as_int(inner_product(reg, one)) == 1

    def test_orthogonality_of_distinct_rows(self, c6_group):
        table = dixon_character_table(c6_group)
        for i in range(table.size):
            for j in range(table.size):
                expected = 1 if i == j else 0
                assert as_int(inner_product(table.rows[i], table.rows[j])) \
                    == expected

    def test_regular_equals_degree_weighted_sum(self, tables):
        for name, table in tables.items():
            group = table.group
            reg = regular_character(group)
            for c in range(group.class_count):
                total = Cyclotomic.rational(group.exponent, 0)
                for i in range(table.size):
                    total = total + table.degrees[i] * table.rows[i].values[c]
                assert total == reg.values[c]


class TestDixon:
    def test_cyclic_table_is_power_table(self, c6_group):
        table = dixon_character_table(c6_group)
        assert table.degrees == (1,) * 6
        # the values on the class of the generator are exactly the six
        # sixth roots of unity, one per row
        generator_class = c6_group.class_of[1]
        seen = {row.values[generator_class] for row in table.rows}
        assert seen == {Cyclotomic.root_of_unity(6, k) for k in range(6)}

    def test_degrees(self, tables):
        assert sorted(tables["s3-a2"].degrees) == [1, 1, 2]
        assert sorted(tables["dihedral-z2"].degrees) == [1, 1, 1, 1, 2]
        assert tables["trivial-z2"].degrees == (1,)

    def test_degree_squares_sum_to_order(self, tables):
        for table in tables.values():
            assert sum(d * d for d in table.degrees) == table.group.order

    def test_trivial_row_identified(self, tables):
        for table in tables.values():
            row = table.rows[table.trivial_index]
            one = Cyclotomic.rational(table.group.exponent, 1)
            assert all(v == one for v in row.values)

    def test_matches_reference_tables(self, groups):
        references = {
            "c6-z2": "c6_table.json",
            "s3-a2": "s3_table.json",
            "dihedral-z2": "d4_table.json",
        }
        for name, fname in references.items():
            group = groups[name]
            reference = ingest_character_table(group, load_reference_table(fname))
            computed = dixon_character_table(group)
            assert sorted(map(row_key, computed.rows)) == \
                sorted(map(row_key, reference.rows))

    def test_rows_sorted_by_degree_then_values(self, tables):
        for table in tables.values():
            keys = [(table.degrees[i], row_key(table.rows[i]))
                    for i in range(table.size)]
            assert keys == sorted(keys)


class TestCoefficientTypes:
    def test_dixon_tables_hold_int_coefficients(self, tables):
        # Dixon values are cyclotomic integers built from integer
        # multiplicities; no Fraction may enter their coefficients
        b3 = generate_group([mat([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
                             mat([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
                             mat([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])], rank=3)
        assert b3.order == 48
        for table in [*tables.values(), dixon_character_table(b3)]:
            assert {type(c) for row in table.rows for value in row.values
                    for c in value.coeffs} == {int}


class TestIngestValidation:
    def test_reference_table_accepted(self, c6_group):
        table = ingest_character_table(c6_group,
                                       load_reference_table("c6_table.json"))
        assert table.source == "user"
        assert table.size == 6

    def test_duplicated_row_fails_orthogonality(self, c6_group):
        raw = load_reference_table("c6_table.json")
        raw["rows"][0] = raw["rows"][1]
        with pytest.raises(ValidationFailed) as info:
            ingest_character_table(c6_group, raw)
        assert "orthogonality" in info.value.relation

    def test_swapped_columns_fail_first_orthogonality(self, s3_group):
        # second orthogonality is implied rather than checked, so column
        # damage has to surface through first orthogonality
        raw = load_reference_table("s3_table.json")
        assert s3_group.class_sizes[1] != s3_group.class_sizes[2]
        for row in raw["rows"]:
            row[1], row[2] = row[2], row[1]
        with pytest.raises(ValidationFailed) as info:
            ingest_character_table(s3_group, raw)
        assert info.value.relation == "first orthogonality"

    def test_wrong_row_count_fails_squareness(self, c6_group):
        raw = load_reference_table("c6_table.json")
        raw["rows"] = raw["rows"][:-1]
        with pytest.raises(ValidationFailed) as info:
            ingest_character_table(c6_group, raw)
        assert info.value.relation == "squareness"

    def test_wrong_conductor_rejected(self, c6_group):
        raw = load_reference_table("c6_table.json")
        raw["conductor"] = 12
        with pytest.raises(ValidationFailed):
            ingest_character_table(c6_group, raw)

    def test_wrong_class_order_rejected(self, c6_group):
        raw = load_reference_table("c6_table.json")
        raw["classes"] = list(reversed(raw["classes"]))
        with pytest.raises(ValidationFailed):
            ingest_character_table(c6_group, raw)

    def test_export_reimports_identically(self, tables):
        for table in tables.values():
            raw = table_to_dict(table)
            again = ingest_character_table(table.group, raw)
            assert list(map(row_key, again.rows)) == \
                list(map(row_key, table.rows))


class TestInduction:
    def test_whole_group_gives_trivial(self, s3_group):
        induced = induce_trivial(s3_group, range(s3_group.order))
        assert induced.values == trivial_character(s3_group).values

    def test_identity_subgroup_gives_regular(self, s3_group):
        induced = induce_trivial(s3_group, [0])
        assert induced.values == regular_character(s3_group).values

    def test_transposition_subgroup(self, s3_group):
        # order-2 subgroup generated by a transposition: induced values
        # (3, 1, 0) on (identity, transpositions, 3-cycles)
        tau = next(i for i in range(6) if s3_group.element_orders[i] == 2)
        induced = induce_trivial(s3_group, cyclic_subgroup(s3_group, tau))
        by_order = {s3_group.element_orders[rep]: v.as_fraction()
                    for rep, v in zip(s3_group.class_representatives,
                                      induced.values)}
        assert by_order == {1: 3, 2: 1, 3: 0}

    def test_not_a_subgroup(self, s3_group):
        tau = next(i for i in range(6) if s3_group.element_orders[i] == 2)
        sigma = next(i for i in range(6) if s3_group.element_orders[i] == 3)
        with pytest.raises(NotASubgroup):
            induce_trivial(s3_group, [0, tau, sigma])

    def test_frobenius_reciprocity_on_cyclic_subgroups(self, groups, tables):
        # (chi, Ind 1_H) = average of chi over H, for every cyclic H
        for name in BUILTIN_NAMES:
            group = groups[name]
            table = tables[name]
            subgroups = {cyclic_subgroup(group, i) for i in range(group.order)}
            for sub in subgroups:
                induced = induce_trivial(group, sub)
                for row in table.rows:
                    lhs = inner_product(row, induced)
                    total = Cyclotomic.rational(group.exponent, 0)
                    for h in sub:
                        total = total + row.values[group.class_of[h]]
                    rhs = total * Fraction(1, len(sub))
                    assert lhs == rhs
                    value = lhs.as_fraction()
                    assert value.denominator == 1 and value >= 0


class TestTensorIdentify:
    def test_trivial_twist_is_identity(self, tables):
        for table in tables.values():
            one = table.rows[table.trivial_index]
            for i in range(table.size):
                assert tensor_identify(table, i, one) == i

    def test_sign_twist_on_s3(self, tables):
        table = tables["s3-a2"]
        sign_index = next(
            i for i in range(table.size)
            if table.degrees[i] == 1 and i != table.trivial_index)
        sign = table.rows[sign_index]
        assert tensor_identify(table, table.trivial_index, sign) == sign_index
        assert tensor_identify(table, sign_index, sign) == table.trivial_index

    def test_rejects_higher_degree_twist(self, tables):
        table = tables["s3-a2"]
        two_dim = next(i for i in range(table.size) if table.degrees[i] == 2)
        with pytest.raises(NotLinearCharacter):
            tensor_identify(table, 0, table.rows[two_dim])

    def test_no_match_for_corrupted_row(self, s3_group, tables):
        table = tables["s3-a2"]
        fake = rational_class_function(s3_group, (1, 1, -1))
        with pytest.raises(NoMatch):
            tensor_identify(table, table.trivial_index, fake)

    def test_find_row(self, tables):
        table = tables["s3-a2"]
        assert find_row(table, table.rows[2].values) == 2
        missing = tuple(v + 1 for v in table.rows[2].values)
        assert find_row(table, missing) is None
