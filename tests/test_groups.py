from itertools import combinations, permutations, product
import time

import pytest

from equichar import (DimensionMismatch, NonUnimodularGenerator,
                      OrderCapExceeded, cyclic_subgroup, generate_group,
                      is_subgroup, smith_normal_form)
from equichar.intmat import IntMatrix

from conftest import mat


def signed_permutation(perm, signs) -> IntMatrix:
    """The matrix sending e_col to signs[col] * e_perm[col]."""
    n = len(perm)
    entries = [0] * (n * n)
    for col, row in enumerate(perm):
        entries[row * n + col] = signs[col]
    return IntMatrix(n, n, tuple(entries))


def signed_permutation_generators(n: int) -> list[IntMatrix]:
    """An n-cycle, a transposition and one sign change: generators of the
    hyperoctahedral group B_n of order 2^n n!."""
    ones = (1,) * n
    return [signed_permutation(list(range(1, n)) + [0], ones),
            signed_permutation([1, 0] + list(range(2, n)), ones),
            signed_permutation(range(n), (-1,) + ones[1:])]


def all_signed_permutations(n: int) -> list[IntMatrix]:
    return [signed_permutation(perm, signs)
            for perm in permutations(range(n))
            for signs in product((1, -1), repeat=n)]


class TestGeneration:
    def test_cyclic_order_six(self, c6_group):
        assert c6_group.order == 6
        assert c6_group.rank == 2
        assert c6_group.exponent == 6
        # single-generator BFS lists the powers of the generator in order
        gen = c6_group.elements[1]
        power = IntMatrix.identity(2)
        for i in range(6):
            assert c6_group.elements[i] == power
            power = power.multiply(gen)

    def test_symmetric_group_of_degree_three(self, s3_group):
        assert s3_group.order == 6
        assert s3_group.class_count == 3
        assert sorted(s3_group.class_sizes) == [1, 2, 3]
        assert s3_group.exponent == 6

    def test_trivial_group(self):
        group = generate_group([], rank=2)
        assert group.order == 1
        assert group.class_count == 1
        assert group.exponent == 1

    def test_infinite_group_hits_order_cap(self):
        with pytest.raises(OrderCapExceeded):
            generate_group([mat([[1, 1], [0, 1]])], max_order=50)

    def test_non_unimodular_generator_rejected(self):
        with pytest.raises(NonUnimodularGenerator):
            generate_group([mat([[2, 0], [0, 1]])])

    def test_mixed_generator_sizes_rejected(self):
        with pytest.raises(DimensionMismatch):
            generate_group([mat([[1]]), mat([[0, 1], [-1, 1]])])

    def test_rank_required_without_generators(self):
        with pytest.raises(DimensionMismatch):
            generate_group([])

    def test_dihedral_order_eight(self, d4_group):
        assert d4_group.order == 8
        assert d4_group.class_count == 5
        assert d4_group.exponent == 4


class TestStructure:
    def test_closure_certificate(self, groups):
        for group in groups.values():
            for i, a in enumerate(group.elements):
                for j, b in enumerate(group.elements):
                    assert group.elements[group.mul(i, j)] == a.multiply(b)

    def test_inverses(self, d4_group):
        for i in range(d4_group.order):
            assert d4_group.mul(i, d4_group.inverse[i]) == 0

    def test_identity_first_and_class_order(self, groups):
        for group in groups.values():
            assert group.elements[0] == IntMatrix.identity(group.rank)
            assert group.class_partition[0] == (0,)
            keys = [(group.element_orders[rep], rep)
                    for rep in group.class_representatives]
            assert keys == sorted(keys)

    def test_class_sizes_divide_group_order(self, groups):
        for group in groups.values():
            assert sum(group.class_sizes) == group.order
            assert all(group.order % size == 0 for size in group.class_sizes)

    def test_classes_closed_under_conjugation(self, s3_group):
        for c, members in enumerate(s3_group.class_partition):
            for x in members:
                for h in range(s3_group.order):
                    assert s3_group.class_of[s3_group.conjugate(h, x)] == c

    def test_classes_match_conjugation_by_every_element(self):
        # B3 classes come from conjugating by the generators only; the
        # reference conjugates by every element, straight from the matrices
        group = generate_group(signed_permutation_generators(3))
        everything = all_signed_permutations(3)
        assert group.order == 48
        assert set(group.elements) == set(everything)
        ident = IntMatrix.identity(3)
        inverse_of = {h: next(g for g in everything if h.multiply(g) == ident)
                      for h in everything}
        reference = {frozenset(inverse_of[h].multiply(x).multiply(h)
                               for h in everything)
                     for x in everything}
        got = {frozenset(group.elements[i] for i in members)
               for members in group.class_partition}
        assert got == reference
        assert group.class_count == 10

    def test_pinned_class_data(self, groups):
        pinned = {
            "c6-z2": ((0, 3, 2, 4, 1, 5), (1, 1, 1, 1, 1, 1)),
            "c6-z3": ((0, 3, 2, 4, 1, 5), (1, 1, 1, 1, 1, 1)),
            "s3-a2": ((0, 1, 2), (1, 3, 2)),
            "trivial-z2": ((0,), (1,)),
            "dihedral-z2": ((0, 2, 3, 4, 1), (1, 2, 1, 2, 2)),
        }
        for name, (reps, sizes) in pinned.items():
            assert groups[name].class_representatives == reps
            assert groups[name].class_sizes == sizes

    def test_conjugacy_classes_returns_partition(self, c6_group):
        classes = c6_group.class_partition
        assert len(classes) == 6
        assert sorted(i for cl in classes for i in cl) == list(range(6))

    def test_divisors_constant_on_classes(self, groups):
        for group in groups.values():
            ident = IntMatrix.identity(group.rank)
            for members in group.class_partition:
                snfs = [smith_normal_form(group.elements[x].sub(ident))
                        for x in members]
                assert len({(s.rank, s.divisors) for s in snfs}) == 1

    def test_det_equals_parity_of_rank(self, groups):
        # det R = (-1)^rank(R - I) for every element of every builtin
        for group in groups.values():
            ident = IntMatrix.identity(group.rank)
            for element in group.elements:
                rank = element.sub(ident).rank()
                assert element.det() == (-1) ** rank

    def test_power_and_exponent(self, groups):
        for group in groups.values():
            for i in range(group.order):
                assert group.power(i, group.exponent) == 0
                assert group.power(i, -1) == group.inverse[i]


class TestSubgroups:
    def test_is_subgroup(self, s3_group):
        assert is_subgroup(s3_group, range(s3_group.order))
        assert is_subgroup(s3_group, [0])
        assert not is_subgroup(s3_group, [])

    def test_is_subgroup_matches_closure_definition(self, d4_group):
        # every subset of D4, against "nonempty and closed under products"
        elements = d4_group.elements
        index_of = {m: i for i, m in enumerate(elements)}
        n = d4_group.order
        for size in range(n + 1):
            for subset in combinations(range(n), size):
                closed = bool(subset) and all(
                    index_of[elements[a].multiply(elements[b])] in subset
                    for a in subset for b in subset)
                assert is_subgroup(d4_group, subset) == closed, subset

    def test_cyclic_subgroups(self, s3_group):
        for i in range(s3_group.order):
            sub = cyclic_subgroup(s3_group, i)
            assert is_subgroup(s3_group, sub)
            assert len(sub) == s3_group.element_orders[i]


def test_b5_closes_in_seconds():
    # order 3840: a dense multiplication table would need 14.7M products
    start = time.perf_counter()
    group = generate_group(signed_permutation_generators(5))
    elapsed = time.perf_counter() - start
    assert group.order == 3840
    assert group.class_count == 36
    assert all(group.mul(i, group.inverse[i]) == 0 for i in range(group.order))
    assert elapsed < 10
