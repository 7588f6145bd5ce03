import copy
from dataclasses import replace
from fractions import Fraction
import hashlib
import json
import random

import pytest

from equichar import (FiniteMatrixGroup, GroupMismatch, NoMatch, NotASubgroup,
                      NotLinearCharacter, ValidationFailed, cyclic_subgroup,
                      dixon_character_table, find_row, generate_group,
                      induce_trivial, ingest_character_table, inner_product,
                      rational_class_function, table_to_dict,
                      tensor_identify)
from equichar import characters, cyclo
from equichar.characters import _echelon_mod, build_table, twist_indices
from equichar.cli import parse_input, render, run_analyze
from equichar.cyclo import Cyclotomic

from conftest import (BUILTIN_NAMES, CARTAN_F4, PROBLEMS_DIR,
                      load_reference_table, make_builtin_group, mat,
                      signed_permutation_generators, weyl_group_generators)


def as_int(value: Cyclotomic) -> Fraction:
    return value.as_fraction()


def row_key(row):
    return tuple(tuple(v.coeffs) for v in row.values)


def all_ones(group):
    return rational_class_function(group, [1] * group.class_count)


def regular(group):
    return rational_class_function(
        group, [group.order] + [0] * (group.class_count - 1))


class TestClassFunctions:
    def test_inner_products(self, s3_group):
        one = all_ones(s3_group)
        reg = regular(s3_group)
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
            reg = regular(group)
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


@pytest.fixture(scope="module")
def b5_group():
    return generate_group(signed_permutation_generators(5))


@pytest.fixture(scope="module")
def f4_group():
    return generate_group(weyl_group_generators(CARTAN_F4))


class TestDixonLargerGroups:
    # sha256 of json.dumps(table_to_dict(table)), recorded with the dense
    # structure-constant cube and the exponent-wide lift (C21: the lift over
    # generator expressions), re-taken when the export stopped writing
    # trailing zero coefficients
    PINNED = {
        "B5": ("6198455c9aaa04fd8d15f9123f8299f9"
               "6ae4981cd9c395fbb1aba7cc2858c9b0"),
        "F4": ("285765d3b4bf88a0e4879e497803e36c"
               "d6734b8cf7fef230edbcae37bbc29fb9"),
        "C21": ("ba929a9311045c648682aa77845fa902"
                "3efaaefa5d64ed1e72efcea519af454a"),
    }

    def test_tables_match_pinned_digests(self, b5_group, f4_group, c21_group):
        for name, group, order, k in (("B5", b5_group, 3840, 36),
                                      ("F4", f4_group, 1152, 25),
                                      ("C21", c21_group, 21, 21)):
            assert (group.order, group.class_count) == (order, k)
            payload = json.dumps(table_to_dict(dixon_character_table(group)))
            assert hashlib.sha256(payload.encode()).hexdigest() == \
                self.PINNED[name], name

    def test_class_matrices_built_on_demand(self, b5_group, monkeypatch):
        # the full structure-constant cube costs |G| * k products
        calls = 0
        product = FiniteMatrixGroup.mul

        def counting_mul(group, i, j):
            nonlocal calls
            calls += 1
            return product(group, i, j)

        monkeypatch.setattr(FiniteMatrixGroup, "mul", counting_mul)
        dixon_character_table(b5_group)
        assert 0 < calls < b5_group.order * b5_group.class_count / 10


def per_class(group):
    """The group with every class leading its own family, so that Dixon's
    lift runs at every class: the straightforward per-class lift."""
    return replace(group, families=tuple((c, 1)
                                         for c in range(group.class_count)))


class TestGaloisFamilies:
    def test_lift_matches_per_class_lift(self, groups, b5_group, f4_group,
                                         c21_group):
        for group in (*groups.values(), b5_group, f4_group, c21_group):
            reference = per_class(group)
            assert reference.leaders == tuple(range(group.class_count))
            assert [row.values for row in
                    dixon_character_table(group).rows] == \
                [row.values for row in dixon_character_table(reference).rows]

    def test_c21_rows_are_powers_of_zeta(self, c21_group):
        # chi_s(g^k) = zeta_21^(s k): one row per s in 0..20
        g = c21_group.generator_indices[0]
        power_of, x = {}, 0
        for k in range(21):
            power_of[x] = k
            x = c21_group.mul(x, g)
        expected = {tuple(Cyclotomic.root_of_unity(21, s * power_of[rep])
                          for rep in c21_group.class_representatives)
                    for s in range(21)}
        rows = dixon_character_table(c21_group).rows
        assert {row.values for row in rows} == expected
        assert len(rows) == 21

    def test_lift_runs_at_leaders_only(self, c21_group, monkeypatch):
        # C21 has 4 families (orders 1, 3, 7 and 21): 4 lifts per row, each
        # reading one power map
        reads = []

        class Recording(tuple):
            def __getitem__(self, c):
                reads.append(c)
                return tuple.__getitem__(self, c)

        group = replace(c21_group,
                        power_classes=Recording(c21_group.power_classes))
        dixon_character_table(group)
        assert set(reads) == set(group.leaders) and len(group.leaders) == 4
        assert len(reads) == 21 * 4


class TestDistinctValues:
    def test_c21_builds_each_distinct_value_once(self, c21_group,
                                                 monkeypatch):
        # every reduction in `cyclo` and `characters`, with its input; the
        # first-orthogonality pair sums make k (k + 1) / 2 of them
        inputs = []
        for module in (cyclo, characters):
            def recording(m, vec, reduce=module._reduce):
                inputs.append(tuple(vec))
                return reduce(m, vec)
            monkeypatch.setattr(module, "_reduce", recording)
        handed = []
        original = characters.build_table

        def capture(group, preimages, source):
            handed.extend(preimages)
            return original(group, preimages, source)

        monkeypatch.setattr(characters, "build_table", capture)
        table = dixon_character_table(c21_group)
        distinct = {pre for row in handed for pre in row}
        assert len(distinct) == len({v for row in table.rows
                                     for v in row.values}) == 21
        k, e = c21_group.class_count, c21_group.exponent
        assert len(inputs) == len(distinct) + k * (k + 1) // 2
        for pre in distinct:
            vec = [0] * e
            for s, a in pre:
                vec[s] += a
            assert inputs.count(tuple(vec)) == 1, pre


def plain_rref(vectors, p):
    """Gauss-Jordan over F_p on whole rows, as a reference."""
    rows = [[v % p for v in vec] for vec in vectors]
    width = len(rows[0]) if rows else 0
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [v * inv % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        r += 1
    return rows[:r]


class TestEchelon:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_plain_rref(self, seed):
        rng = random.Random(seed)
        p = rng.choice([2, 3, 7, 43, 337])
        height, width = rng.randint(1, 7), rng.randint(1, 7)
        rank = rng.randint(0, min(height, width))
        # rows spanning a space of at most `rank` dimensions, some entries
        # far outside 0..p-1
        basis = [[rng.randint(-3 * p, 3 * p) for _ in range(width)]
                 for _ in range(rank)]
        vectors = [[sum(rng.randint(-2, 2) * b[j] for b in basis)
                    + p * rng.randint(-2, 2) for j in range(width)]
                   for _ in range(height)]
        if rng.random() < 0.3:
            vectors[0][0] += p
        assert _echelon_mod(vectors, p) == plain_rref(vectors, p)

    def test_unreduced_zero_rows_vanish(self):
        assert _echelon_mod([[5, 10], [0, 5]], 5) == []
        assert _echelon_mod([[6, 5], [5, 12]], 5) == [[1, 0], [0, 1]]


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


def is_orthonormal(rows):
    return all(inner_product(a, b).as_fraction() == (i == j)
               for i, a in enumerate(rows) for j, b in enumerate(rows))


class TestTableChecks:
    """Each check of the row validation, reached by a table that passes
    every check before it."""

    @staticmethod
    def rejection(group, rows):
        # each value as the preimage of its reduced coefficients
        preimages = [[tuple((s, a) for s, a in enumerate(v.coeffs) if a)
                      for v in row.values] for row in rows]
        with pytest.raises(ValidationFailed) as info:
            build_table(group, preimages, source="user")
        return info.value

    def test_non_rational_degree_fails_degree(self, c6_group, tables):
        rows = list(tables["c6-z2"].rows)
        zeta = Cyclotomic.root_of_unity(c6_group.exponent)
        rows[1] = replace(rows[1], values=(zeta, *rows[1].values[1:]))
        failure = self.rejection(c6_group, rows)
        assert failure.relation == "degree"
        assert "row 1 has a non-rational degree" in str(failure)

    def test_negated_row_fails_degree(self, s3_group, tables):
        rows = list(tables["s3-a2"].rows)
        rows[1] = replace(rows[1], values=tuple(-v for v in rows[1].values))
        assert is_orthonormal(rows)
        failure = self.rejection(s3_group, rows)
        assert failure.relation == "degree"
        assert f"row 1 has degree {-tables['s3-a2'].degrees[1]}" in str(failure)

    def test_column_times_zeta_fails_trivial_row(self, c6_group, tables):
        # a unit factor on one column keeps orthogonality and the degrees,
        # and leaves no all-ones row
        zeta = Cyclotomic.root_of_unity(c6_group.exponent)
        rows = [replace(row, values=(*row.values[:2], row.values[2] * zeta,
                                     *row.values[3:]))
                for row in tables["c6-z2"].rows]
        assert is_orthonormal(rows)
        assert self.rejection(c6_group, rows).relation == "trivial row"

    def test_copied_degree_two_row_fails_first_orthogonality(self, s3_group,
                                                             tables):
        # the squared degrees sum to 9, not |G| = 6, and first
        # orthogonality is what rejects it
        table = tables["s3-a2"]
        two = table.degrees.index(2)
        sign = next(i for i in table.linear_indices()
                    if i != table.trivial_index)
        rows = list(table.rows)
        rows[sign] = rows[two]
        assert sum(row.values[0].as_fraction() ** 2 for row in rows) == 9
        assert self.rejection(s3_group, rows).relation == \
            "first orthogonality"


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

    @staticmethod
    def problem_table():
        spec = parse_input(PROBLEMS_DIR / "c6_z2_with_table.json")
        return generate_group(spec.generators, rank=spec.rank), \
            spec.character_table

    def test_conjugated_row_fails_first_orthogonality(self):
        group, raw = self.problem_table()
        # zeta^s -> zeta^-s on the power coefficients of every value
        conjugated = [[value[0]] + value[:0:-1] for value in raw["rows"][0]]
        assert conjugated != raw["rows"][0] and conjugated in raw["rows"]
        raw["rows"][0] = conjugated
        with pytest.raises(ValidationFailed) as info:
            ingest_character_table(group, raw)
        assert info.value.relation == "first orthogonality"

    def test_changed_irrational_coefficient_fails_first_orthogonality(self):
        group, raw = self.problem_table()
        # row 0 takes the value zeta on class 4; make it 2 zeta, which
        # keeps every degree
        assert raw["rows"][0][4][1] == [1, 1]
        raw["rows"][0][4][1] = [2, 1]
        with pytest.raises(ValidationFailed) as info:
            ingest_character_table(group, raw)
        assert info.value.relation == "first orthogonality"

    def test_fraction_valued_table_accepted(self, c6_group):
        raw = load_reference_table("c6_table.json")
        reference = ingest_character_table(c6_group, raw)
        for row in raw["rows"]:
            for value in row:
                for pair in value:
                    pair[0] *= 3
                    pair[1] *= 3
        table = ingest_character_table(c6_group, raw)
        assert Fraction in {type(c) for row in table.rows
                            for value in row.values for c in value.coeffs}
        assert list(map(row_key, table.rows)) == \
            list(map(row_key, reference.rows))

    def test_unreduced_cells_accepted(self):
        # 1 + zeta^2 + zeta^4 = 0 at conductor 6: added to every cell, it
        # leaves each value as it was and no cell reduced
        spec = parse_input(PROBLEMS_DIR / "c6_z2_with_table.json")
        group = generate_group(spec.generators, rank=spec.rank)
        raw = spec.character_table
        unreduced = copy.deepcopy(raw)
        for row in unreduced["rows"]:
            for value in row:
                for s in (0, 2, 4):
                    value[s][0] += value[s][1]
        assert unreduced != raw
        assert ingest_character_table(group, unreduced) == \
            ingest_character_table(group, raw)
        changed = replace(spec, character_table=unreduced)
        assert render(run_analyze(changed), "json") == \
            render(run_analyze(spec), "json")

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
            assert not any(cell and cell[-1] == [0, 1]
                           for row in raw["rows"] for cell in row)
            again = ingest_character_table(table.group, raw)
            assert list(map(row_key, again.rows)) == \
                list(map(row_key, table.rows))


class TestInduction:
    def test_whole_group_gives_trivial(self, s3_group):
        induced = induce_trivial(s3_group, range(s3_group.order))
        assert induced.values == all_ones(s3_group).values

    def test_identity_subgroup_gives_regular(self, s3_group):
        induced = induce_trivial(s3_group, [0])
        assert induced.values == regular(s3_group).values

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

    def test_twist_by_a_faithful_character(self, tables):
        # a faithful character of C6 is -1 on the involution, which
        # negates, and irrational on the elements of order 3 and 6, which
        # multiply
        table = tables["c6-z2"]
        linear = next(row for row in table.rows
                      if sum(v == row.values[0] for v in row.values) == 1)
        twist = twist_indices(table, linear)
        assert twist == [
            find_row(table, tuple(a * b for a, b in zip(row.values,
                                                        linear.values)))
            for row in table.rows]
        assert sorted(twist) == list(range(table.size))
        assert all(j != i for i, j in enumerate(twist))

    def test_twist_by_a_character_of_another_group(self, tables):
        with pytest.raises(GroupMismatch):
            twist_indices(tables["s3-a2"], tables["c6-z2"].rows[0])

    def test_find_row(self, tables):
        table = tables["s3-a2"]
        assert find_row(table, table.rows[2].values) == 2
        missing = tuple(v + 1 for v in table.rows[2].values)
        assert find_row(table, missing) is None
