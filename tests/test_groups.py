import pytest

from equichar import (DimensionMismatch, NonUnimodularGenerator,
                      OrderCapExceeded, cyclic_subgroup, generate_group,
                      is_subgroup, smith_normal_form)
from equichar.intmat import IntMatrix

from conftest import mat


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
    def test_closure_certificate(self, s3_group):
        index_of = {m: i for i, m in enumerate(s3_group.elements)}
        for i, a in enumerate(s3_group.elements):
            for j, b in enumerate(s3_group.elements):
                product = a.multiply(b)
                assert index_of[product] == s3_group.cayley[i][j]

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

    def test_cyclic_subgroups(self, s3_group):
        for i in range(s3_group.order):
            sub = cyclic_subgroup(s3_group, i)
            assert is_subgroup(s3_group, sub)
            assert len(sub) == s3_group.element_orders[i]
