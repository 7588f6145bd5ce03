from itertools import combinations, permutations, product
import json
from math import gcd, lcm
import time

import pytest

from equichar import (DimensionMismatch, NonUnimodularGenerator,
                      OrderCapExceeded, cyclic_subgroup, generate_group,
                      is_subgroup, smith_normal_form)
from equichar import groups
from equichar.cli import builtin, main
from equichar.intmat import IntMatrix

from conftest import (BUILTIN_NAMES, C21_GENERATOR, CARTAN_F4, mat,
                      signed_permutation, signed_permutation_generators,
                      weyl_group_generators)


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
        gen = c6_group.matrix(1)
        power = IntMatrix.identity(2)
        for i in range(6):
            assert c6_group.matrix(i) == power
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

    def test_infinite_group_of_involutions_hits_order_cap(self):
        # two reflections whose product is a shear: the infinite dihedral
        # group, although each generator has order 2
        with pytest.raises(OrderCapExceeded):
            generate_group([mat([[-1, 0], [0, 1]]), mat([[-1, 1], [0, 1]])],
                           max_order=50)

    @pytest.mark.parametrize("generators, named", [
        ([[[2, 1], [1, 1]]], "generator 0"),
        # two reflections whose product is a shear
        ([[[-1, 0], [0, 1]], [[-1, 1], [0, 1]]],
         "the product of generators 0 and 1"),
    ], ids=["hyperbolic", "infinite-dihedral"])
    def test_infinite_order_rejected_before_closure(self, generators, named,
                                                    tmp_path, monkeypatch,
                                                    capsys):
        # default options; no orbit is grown before the error
        grown = []
        original = groups._orbit

        def counting(*args):
            grown.append(args[1])
            return original(*args)

        monkeypatch.setattr(groups, "_orbit", counting)
        path = tmp_path / "infinite.json"
        path.write_text(json.dumps({"rank": 2, "generators": generators}))
        assert main(["analyze", "--input", str(path)]) == 2
        assert capsys.readouterr().err == \
            f"error [group construction]: {named} has infinite order\n"
        assert grown == []

    @pytest.mark.parametrize("generators", [
        signed_permutation_generators(5), signed_permutation_generators(6),
        weyl_group_generators(((2, 0, -1, 0, 0, 0), (0, 2, 0, -1, 0, 0),
                               (-1, 0, 2, -1, 0, 0), (0, -1, -1, 2, -1, 0),
                               (0, 0, 0, -1, 2, -1), (0, 0, 0, 0, -1, 2)))],
        ids=["B5", "B6", "W(E6)"])
    def test_large_finite_groups_pass_the_order_test(self, generators):
        # the builtins, B4, F4 and C21 are closed in full elsewhere
        assert groups._validated_generators(generators, None) == \
            (generators, len(generators[0].row(0)))

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
            matrices = [group.matrix(i) for i in range(group.order)]
            for i, a in enumerate(matrices):
                for j, b in enumerate(matrices):
                    assert group.matrix(group.mul(i, j)) == a.multiply(b)

    def test_inverses(self, d4_group):
        for i in range(d4_group.order):
            assert d4_group.mul(i, d4_group.inverse[i]) == 0

    def test_identity_first_and_class_order(self, groups):
        for group in groups.values():
            assert group.matrix(0) == IntMatrix.identity(group.rank)
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
                    # h^-1 x h
                    y = s3_group.mul(s3_group.mul(s3_group.inverse[h], x), h)
                    assert s3_group.class_of[y] == c

    def test_classes_match_conjugation_by_every_element(self):
        # B3 classes come from conjugating by the generators only; the
        # reference conjugates by every element, straight from the matrices
        group = generate_group(signed_permutation_generators(3))
        everything = all_signed_permutations(3)
        assert group.order == 48
        assert {group.matrix(i) for i in range(group.order)} == set(everything)
        ident = IntMatrix.identity(3)
        inverse_of = {h: next(g for g in everything if h.multiply(g) == ident)
                      for h in everything}
        reference = {frozenset(inverse_of[h].multiply(x).multiply(h)
                               for h in everything)
                     for x in everything}
        got = {frozenset(group.matrix(i) for i in members)
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
                snfs = [smith_normal_form(group.matrix(x).sub(ident))
                        for x in members]
                assert len({(s.rank, s.divisors) for s in snfs}) == 1

    def test_det_equals_parity_of_rank(self, groups):
        # det R = (-1)^rank(R - I) for every element of every builtin
        for group in groups.values():
            ident = IntMatrix.identity(group.rank)
            for i in range(group.order):
                element = group.matrix(i)
                rank = element.sub(ident).rank()
                assert element.det() == (-1) ** rank

    def test_power_and_exponent(self, groups):
        for group in groups.values():
            assert group.exponent == lcm(*group.element_orders)
            for i in range(group.order):
                # the powers of i are its order many elements, so
                # i^exponent is the identity
                powers = cyclic_subgroup(group, i)
                assert len(powers) == group.element_orders[i]
                assert group.exponent % group.element_orders[i] == 0
                assert group.mul(i, group.inverse[i]) == 0


class TestSubgroups:
    def test_is_subgroup(self, s3_group):
        assert is_subgroup(s3_group, range(s3_group.order))
        assert is_subgroup(s3_group, [0])
        assert not is_subgroup(s3_group, [])

    def test_is_subgroup_matches_closure_definition(self, d4_group):
        # every subset of D4, against "nonempty and closed under products"
        elements = [d4_group.matrix(i) for i in range(d4_group.order)]
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


def reference_closure(generators, rank):
    """Breadth-first closure on plain row tuples, right-multiplying by each
    generator in turn: the element order generate_group must reproduce."""
    ident = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
    elements, seen = [ident], {ident}
    for x in elements:
        for g in generators:
            y = tuple(tuple(sum(x[i][t] * g[t][j] for t in range(rank))
                            for j in range(rank)) for i in range(rank))
            if y not in seen:
                seen.add(y)
                elements.append(y)
    return elements


def permutation_matrix(images):
    n = len(images)
    return mat([[int(images[j] == i) for j in range(n)] for i in range(n)])


# name -> (rank, generators)
DIFFERENTIAL_GROUPS = {
    **{name: (builtin(name).rank, builtin(name).generators)
       for name in BUILTIN_NAMES},
    "b4": (4, signed_permutation_generators(4)),
    "s6": (6, [permutation_matrix([1, 0, 2, 3, 4, 5]),
               permutation_matrix([1, 2, 3, 4, 5, 0])]),
    "f4": (4, weyl_group_generators(CARTAN_F4)),
    "c21": (8, [mat(C21_GENERATOR)]),
}


@pytest.mark.parametrize("name", DIFFERENTIAL_GROUPS)
def test_closure_matches_matrix_reference(name):
    rank, gens = DIFFERENTIAL_GROUPS[name]
    group = generate_group(gens, rank=rank)
    reference = reference_closure([tuple(map(tuple, g.to_rows())) for g in gens],
                                  rank)
    assert group.order == len(reference)
    for n, rows in enumerate(reference):
        assert tuple(map(tuple, group.matrix(n).to_rows())) == rows


# name -> (rank, generators) of the groups whose recorded tree and power
# maps are checked against plain products
RECORDED_GROUPS = {
    **{name: (builtin(name).rank, builtin(name).generators)
       for name in BUILTIN_NAMES},
    "b3": (3, signed_permutation_generators(3)),
    "f4": (4, weyl_group_generators(CARTAN_F4)),
}


@pytest.mark.parametrize("name", RECORDED_GROUPS)
def test_parent_is_the_breadth_first_tree(name):
    rank, gens = RECORDED_GROUPS[name]
    group = generate_group(gens, rank=rank)
    assert len(group.parent) == group.order
    for x in range(1, group.order):
        a, j = group.parent[x]
        assert a < x
        assert group.mul(a, group.generator_indices[j]) == x
    # and x is first reached there, scanning a in order and then j
    first = {0: (0, 0)}
    for a in range(group.order):
        for j, g in enumerate(group.generator_indices):
            first.setdefault(group.mul(a, g), (a, j))
    assert group.parent == tuple(first[x] for x in range(group.order))


@pytest.mark.parametrize("name", RECORDED_GROUPS)
def test_power_classes_match_plain_powers(name):
    rank, gens = RECORDED_GROUPS[name]
    group = generate_group(gens, rank=rank)
    assert len(group.power_classes) == group.class_count
    for c, rep in enumerate(group.class_representatives):
        expected, x = [], 0
        for _ in range(group.element_orders[rep]):
            expected.append(group.class_of[x])
            x = group.mul(x, rep)
        assert x == 0
        assert group.power_classes[c] == tuple(expected)


def test_b5_closure_makes_no_matrix_products(monkeypatch):
    # closure runs on permutations of the spanning orbit: a matrix product
    # per element would show up here long before it shows in a timing
    calls = []
    original = IntMatrix.multiply

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(IntMatrix, "multiply", counting)
    group = generate_group(signed_permutation_generators(5))
    assert group.order == 3840
    assert not calls


def dense_unimodular(n):
    """D = L L^T for the lower unitriangular all-ones L, so D[i][j] =
    min(i, j) + 1 and D^-1 = L^-T L^-1 with L^-1 = I minus the subdiagonal."""
    lower_inv = [[int(i == j) - int(i == j + 1) for j in range(n)]
                 for i in range(n)]
    d = mat([[min(i, j) + 1 for j in range(n)] for i in range(n)])
    d_inv = mat([list(col) for col in zip(*lower_inv)]).multiply(mat(lower_inv))
    return d, d_inv


@pytest.mark.parametrize("rank, generators", [
    (5, signed_permutation_generators(5)),
    (4, weyl_group_generators(CARTAN_F4)),
], ids=["b5", "f4"])
def test_omega_does_not_depend_on_the_basis(rank, generators):
    # in the basis of D's columns the unit vectors have orbits of up to |G|
    # points (6592 together for B5), but Omega stays the orbits of a short
    # basis for the invariant form, and element n is still D^-1 M_n D
    d, d_inv = dense_unimodular(rank)
    assert d.multiply(d_inv) == IntMatrix.identity(rank)
    group = generate_group(generators)
    dense = generate_group([d_inv.multiply(g).multiply(d) for g in generators])
    assert dense.order == group.order
    assert dense.class_partition == group.class_partition
    assert len(dense.points) == len(group.points)
    for n in range(group.order):
        assert dense.matrix(n) == d_inv.multiply(group.matrix(n)).multiply(d)


def dense_b5():
    d, d_inv = dense_unimodular(5)
    return generate_group([d_inv.multiply(g).multiply(d)
                           for g in signed_permutation_generators(5)])


# name -> group whose Galois families are checked with plain matrix products
FAMILY_GROUPS = {
    **{name: lambda name=name: generate_group(builtin(name).generators,
                                              rank=builtin(name).rank)
       for name in BUILTIN_NAMES},
    "c21": lambda: generate_group([mat(C21_GENERATOR)], rank=8),
    "b4": lambda: generate_group(signed_permutation_generators(4)),
    "f4": lambda: generate_group(weyl_group_generators(CARTAN_F4)),
    "b5-dense": dense_b5,
}


@pytest.mark.parametrize("name", FAMILY_GROUPS)
def test_families_match_plain_powers_and_conjugacy(name):
    group = FAMILY_GROUPS[name]()
    matrices = [group.matrix(n) for n in range(group.order)]
    index = {m: n for n, m in enumerate(matrices)}
    reps = [matrices[x] for x in group.class_representatives]
    for c, (leader, a) in enumerate(group.families):
        order = group.element_orders[group.class_representatives[c]]
        assert gcd(a, order) == 1
        # the family: the classes of rep_c^u for u prime to the order
        family, power = set(), IntMatrix.identity(group.rank)
        for u in range(order):
            if gcd(u, order) == 1:
                family.add(group.class_of[index[power]])
            power = power.multiply(reps[c])
        assert leader == min(family)
        assert group.families[leader] == (leader, 1)
        # g^-1 rep_leader^a g = rep_c for some element g
        power = IntMatrix.identity(group.rank)
        for _ in range(a):
            power = power.multiply(reps[leader])
        assert any(power.multiply(g) == g.multiply(reps[c]) for g in matrices)
    assert group.leaders == tuple(sorted({leader for leader, _
                                          in group.families}))
