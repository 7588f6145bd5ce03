from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import gcd
from operator import mul

import pytest

from equichar import (CertificationFailed, EnumerationCapExceeded,
                      differential_check,
                      dixon_character_table, enumerate_action, fixed_point_qp,
                      class_divisor_data, equivariant_qp,
                      generate_group, ingest_character_table,
                      make_quasimonomial, NonRationalCoefficient,
                      reciprocity_character, ValidationError)
from equichar import Cyclotomic, GcdQuasiPolynomial, bruteforce
from equichar.cli import builtin, parse_input
from equichar.groups import FiniteMatrixGroup
from equichar.bruteforce import MAX_POINTS_ENV, resolve_cap

from conftest import (BUILTIN_NAMES, C21_GENERATOR, PROBLEMS_DIR,
                      make_builtin_group, mat, plus_one)

# C5 on Z^4: the companion matrix of x^4 + x^3 + x^2 + x + 1
C5_GENERATOR = [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]

# B3 on Z^3: the transposition (1 2), the 3-cycle and the sign flip of e_1
B3_GENERATORS = ([[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                 [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
                 [[-1, 0, 0], [0, 1, 0], [0, 0, 1]])


def reference_apply(rows, point, q):
    """M·x mod q, one point at a time, for the reference enumeration."""
    return tuple(sum(a * x for a, x in zip(row, point)) % q for row in rows)


def reference_action(group, q):
    """Orbits, met orbits and fixed counts of the action on (Z/q)^l, point
    by point over every group element. A point's code has coordinate j at
    weight q^j, and points are listed in code order. Each class but the
    identity's maps to the orbits whose representative's stabilizer, tested
    element by element, meets it."""
    points = [p[::-1] for p in product(range(q), repeat=group.rank)]
    code_of = {p: code for code, p in enumerate(points)}
    rows = [group.matrix(i).to_rows() for i in range(group.order)]
    orbits = sorted({tuple(sorted({code_of[reference_apply(r, p, q)]
                                   for r in rows}))
                     for p in points})
    met = {c: set() for c in range(1, group.class_count)}
    for o, orbit in enumerate(orbits):
        x = points[orbit[0]]
        for idx, r in enumerate(rows):
            if idx and reference_apply(r, x, q) == x:
                met[group.class_of[idx]].add(o)
    fixed = [sum(reference_apply(rows[rep], p, q) == p for p in points)
             for rep in group.class_representatives]
    return tuple(orbits), met, tuple(fixed)


def met_orbits(group, dec):
    """The orbits each class but the identity's meets the stabilizers of,
    read from its family leader's hit orbits."""
    return {c: dec.hit_orbits[group.families[c][0]]
            for c in range(1, group.class_count)}


def decode(code, q, rank):
    """The point with the given code, coordinate j at weight q^j."""
    coords = []
    for _ in range(rank):
        code, digit = divmod(code, q)
        coords.append(digit)
    return tuple(coords)


def orbits_of(dec):
    """The orbits as sorted code tuples, rebuilt from the labels, in label
    order; each must have the size the decomposition records."""
    orbits = [[] for _ in dec.orbit_sizes]
    for code, index in enumerate(dec.labels):
        orbits[index].append(code)
    assert tuple(map(len, orbits)) == dec.orbit_sizes
    return tuple(map(tuple, orbits))


def reference_image_array(rows, q):
    """img[code] for M = rows, from reference_apply one point at a time."""
    rank = len(rows)
    return [sum(v * q ** j for j, v in enumerate(
        reference_apply(rows, decode(code, q, rank), q)))
        for code in range(q ** rank)]


IMAGE_MATRICES = {
    "identity": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "minus-identity": [[-1, 0], [0, -1]],
    "permutation": [[0, 0, 1], [1, 0, 0], [0, 1, 0]],
    # entries, and at q = 2, 3, 6 a whole row, that vanish mod q
    "vanishing-entries": [[6, 0, 0], [1, 4, 0], [0, 2, 3]],
    "dense-unimodular": [[4, 2, 1], [0, 1, 0], [3, 3, 1]],
}


def pipeline(name):
    group = make_builtin_group(name)
    table = dixon_character_table(group)
    data = class_divisor_data(group)
    eqp = equivariant_qp(group, table, data)
    fixed = tuple(fixed_point_qp(group, data, c)
                  for c in range(group.class_count))
    return group, table, eqp, fixed


class TestImageArray:
    @pytest.mark.parametrize("name", IMAGE_MATRICES)
    def test_matches_reference_apply(self, name):
        rows = IMAGE_MATRICES[name]
        for q in range(1, 8):
            assert bruteforce._image_array(mat(rows), q) == \
                reference_image_array(rows, q)

    def test_rank_one_above_a_byte_alphabet(self):
        img = bruteforce._image_array(mat([[-1]]), 300)
        assert img == reference_image_array([[-1]], 300)
        assert img[1] == 299

    @pytest.mark.parametrize("m", [-1, 1, 7])
    def test_rank_one_at_a_large_modulus(self, m):
        # one digit per column: each t reads one ring entry, not a slice
        q = 4000
        assert bruteforce._image_array(mat([[m]]), q) == \
            [m * x % q for x in range(q)]


class TestEnumeration:
    def test_trivial_group_has_singleton_orbits(self):
        group = make_builtin_group("trivial-z2")
        dec = enumerate_action(group, 5)
        assert dec.orbit_count == 25
        assert dec.orbit_sizes == (1,) * 25
        assert dec.labels == list(range(25))
        assert dec.fixed_counts == (25,)

    def test_c6_z2_small_orbit_counts(self):
        group = make_builtin_group("c6-z2")
        assert enumerate_action(group, 2).orbit_count == 2
        assert enumerate_action(group, 6).orbit_count == 8

    def test_s3_orbit_count_at_three(self):
        group = make_builtin_group("s3-a2")
        assert enumerate_action(group, 3).orbit_count == 4

    def test_orbit_sizes_partition_the_point_set(self):
        group = make_builtin_group("dihedral-z2")
        for q in (1, 2, 3, 4, 5):
            dec = enumerate_action(group, q)
            assert len(dec.labels) == q ** group.rank
            assert sum(dec.orbit_sizes) == q ** group.rank
            orbits = orbits_of(dec)
            codes = sorted(code for orbit in orbits for code in orbit)
            assert codes == list(range(q ** group.rank))
            # orbits are numbered by their smallest members
            assert [orbit[0] for orbit in orbits] == \
                sorted(orbit[0] for orbit in orbits)

    def test_orbit_stabilizer_identity(self):
        # |O|·|Stab(x)| = |G|: orbit sizes divide |G|, and an orbit is
        # free exactly when no family but the identity's hits it
        group = make_builtin_group("s3-a2")
        for q in (2, 3, 4, 7):
            dec = enumerate_action(group, q)
            hit = frozenset().union(*dec.hit_orbits.values())
            for o, size in enumerate(dec.orbit_sizes):
                assert group.order % size == 0
                assert (size == group.order) == (o not in hit)

    def test_fixed_counts_constant_on_classes(self):
        group = make_builtin_group("s3-a2")
        for q in (2, 3, 4):
            dec = enumerate_action(group, q)
            points = [decode(code, q, group.rank)
                      for code in range(q ** group.rank)]
            for members in group.class_partition:
                counts = {
                    sum(1 for p in points
                        if reference_apply(group.matrix(x).to_rows(), p, q)
                        == p)
                    for x in members[:2]}
                assert len(counts) == 1

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_matches_reference_on_builtins(self, name):
        # c6-z3 up to q = 8, where most points lie in free orbits
        group = make_builtin_group(name)
        for q in range(1, 9 if name == "c6-z3" else 7):
            dec = enumerate_action(group, q)
            assert (orbits_of(dec), met_orbits(group, dec),
                    dec.fixed_counts) == reference_action(group, q)

    def test_matches_reference_on_b3(self):
        group = generate_group([mat(rows) for rows in B3_GENERATORS], rank=3)
        assert group.order == 48
        for q in range(1, 7):
            dec = enumerate_action(group, q)
            assert (orbits_of(dec), met_orbits(group, dec),
                    dec.fixed_counts) == reference_action(group, q)

    def test_matches_reference_in_a_dense_basis(self):
        # c6-z3 conjugated by a unimodular U: the generator U·g·U^-1 has
        # rows with several nonzero entries, unlike the builtin's
        u = mat([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        u_inv = mat([[1, -1, 1], [0, 1, -1], [0, 0, 1]])
        c6 = make_builtin_group("c6-z3")
        group = generate_group([u.multiply(c6.matrix(i)).multiply(u_inv)
                                for i in c6.generator_indices], rank=3)
        assert [group.matrix(i).to_rows() for i in group.generator_indices] \
            == [[[0, -1, 1], [1, -1, 0], [0, 0, -1]]]
        for q in range(1, 9):
            dec = enumerate_action(group, q)
            assert (orbits_of(dec), met_orbits(group, dec),
                    dec.fixed_counts) == reference_action(group, q)

    def test_fixed_points_sought_only_on_orbits_shorter_than_the_group(
            self, monkeypatch):
        # dihedral-z2 at q = 24: the fixed-point step gets only the codes
        # of orbits of fewer than 8 points, counted here point by point;
        # c6-z3, read off its generator's cycles, never reaches that step
        seen = []
        original = bruteforce._fixed_points

        def recording(group, gen_images, q, short):
            seen.append(short)
            return original(group, gen_images, q, short)

        monkeypatch.setattr(bruteforce, "_fixed_points", recording)
        group = make_builtin_group("dihedral-z2")
        orbits, _, _ = reference_action(group, 24)
        expected = sum(len(orbit) for orbit in orbits
                       if len(orbit) < group.order)
        dec = enumerate_action(group, 24)
        [short] = seen
        assert (len(set(short)), len(short), len(dec.labels)) == \
            (expected, expected, 24 ** 2)
        assert sorted({dec.orbit_sizes[dec.labels[y]] for y in short}) == \
            [1, 2, 4]
        # c6-z3 at q = 24: 2,101 of its 2,522 orbits are free
        dec = enumerate_action(make_builtin_group("c6-z3"), 24)
        assert len(seen) == 1
        hit = frozenset().union(*dec.hit_orbits.values())
        assert (dec.orbit_count, dec.orbit_count - len(hit)) == (2522, 2101)

    @pytest.mark.parametrize("generator", [
        *(builtin(name).generators[0] for name in ("c6-z2", "c6-z3")),
        mat(C5_GENERATOR)], ids=["c6-z2", "c6-z3", "c5-z4"])
    def test_cycles_agree_with_the_bfs(self, generator, monkeypatch):
        # g alone is read off its cycles; [g, g] closes to the same data
        # and takes the BFS and the composed arrays
        calls = []
        original = bruteforce._fixed_points

        def recording(group, *args):
            calls.append(len(group.generator_indices))
            return original(group, *args)

        monkeypatch.setattr(bruteforce, "_fixed_points", recording)
        cyclic, doubled = (generate_group([generator] * n,
                                          rank=generator.rows)
                           for n in (1, 2))
        assert doubled.generator_indices == (1, 1)
        assert replace(doubled, generator_indices=(1,)) == cyclic
        for q in range(1, 13):
            assert enumerate_action(cyclic, q) == enumerate_action(doubled, q)
        assert calls == [2] * 12

    def test_non_permutation_array_raises(self, monkeypatch):
        # codes 0 and 1 both sent to 0: the cycle from 1 meets the
        # labelled 0 instead of closing
        original = bruteforce._image_array

        def merging(matrix, q):
            img = original(matrix, q)
            img[1] = img[0]
            return img

        monkeypatch.setattr(bruteforce, "_image_array", merging)
        with pytest.raises(CertificationFailed,
                           match="generator 0 at q=3: the image array is "
                                 "not a permutation"):
            enumerate_action(make_builtin_group("c6-z2"), 3)

    def test_wrong_leader_matrix_on_the_cycles_raises(self, monkeypatch):
        # the first leader after the identity's (-I, of order 2) given
        # g's matrix: g^3's tree word disagrees with it mod 3
        group = make_builtin_group("c6-z2")
        c = group.leaders[1]
        monkeypatch.setitem(group.leader_matrices, c,
                            group.generator_matrices[0])
        with pytest.raises(CertificationFailed,
                           match=f"class {c} at q=3: the composed image "
                                 "array of element"):
            enumerate_action(group, 3)

    def test_q_must_be_positive(self):
        with pytest.raises(ValueError, match="q must be positive"):
            enumerate_action(make_builtin_group("c6-z2"), 0)

    @pytest.mark.parametrize("name, q", [("c6-z3", 12), ("s3-a2", 16)])
    def test_fixed_points_same_on_short_orbits_as_on_every_code(self, name,
                                                                q):
        # every code is the whole space, re-indexed to itself
        group = make_builtin_group(name)
        gen_images = [bruteforce._image_array(m, q)
                      for m in group.generator_matrices]
        short = [y for orbit in orbits_of(enumerate_action(group, q))
                 if len(orbit) < group.order for y in orbit]
        on_short = bruteforce._fixed_points(group, gen_images, q, short)
        on_all = bruteforce._fixed_points(group, gen_images, q,
                                          list(range(q ** group.rank)))
        assert {c: sorted(codes) for c, codes in on_short.items()} == on_all
        assert all(on_all.values())

    def test_short_orbit_code_left_out_raises(self):
        # without one code of an orbit of 3, S is not G-invariant, and a
        # generator's re-indexed array no longer restricts its full one
        group = make_builtin_group("c6-z3")
        gen_images = [bruteforce._image_array(m, 4)
                      for m in group.generator_matrices]
        orbits = orbits_of(enumerate_action(group, 4))
        short = [y for orbit in orbits if len(orbit) < group.order
                 for y in orbit]
        dropped = next(orbit[1] for orbit in orbits if len(orbit) == 3)
        short.remove(dropped)
        with pytest.raises(CertificationFailed, match="generator 0 at q=4"):
            bruteforce._fixed_points(group, gen_images, 4, short)

    def test_image_arrays_one_per_generator_and_class(self, monkeypatch):
        group = generate_group([mat(rows) for rows in B3_GENERATORS], rank=3)
        built = []
        original = bruteforce._image_array

        def counting(matrix, q):
            built.append(matrix)
            return original(matrix, q)

        monkeypatch.setattr(bruteforce, "_image_array", counting)
        enumerate_action(group, 4)
        assert len(built) == len(group.generator_indices)

    def test_miscomposed_representative_raises(self):
        # swapping two representatives' entries in the closure tree makes
        # each one's array the other's
        group = make_builtin_group("s3-a2")
        first, second = group.class_representatives[1:3]
        parent = list(group.parent)
        parent[first], parent[second] = parent[second], parent[first]
        bad = replace(group, parent=tuple(parent))
        with pytest.raises(CertificationFailed, match="composed image array"):
            enumerate_action(bad, 3)

    def test_uneven_isotropy_count_raises(self):
        # keeping one element of the transposition class makes |C| = 1;
        # at q = 2 its one fixed point in the orbit of size 3 gives 1/3
        group = make_builtin_group("s3-a2")
        parts = list(group.class_partition)
        c = next(c for c, part in enumerate(parts)
                 if group.element_orders[part[0]] == 2)
        parts[c] = parts[c][:1]
        bad = replace(group, class_partition=tuple(parts))
        with pytest.raises(CertificationFailed, match=f"class {c} at q=2"):
            enumerate_action(bad, 2)

    def test_cap_raises(self, monkeypatch):
        monkeypatch.setenv(MAX_POINTS_ENV, "50")
        group = make_builtin_group("c6-z2")
        with pytest.raises(EnumerationCapExceeded):
            enumerate_action(group, 100)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(MAX_POINTS_ENV, "10")
        assert resolve_cap() == 10
        group = make_builtin_group("c6-z2")
        with pytest.raises(EnumerationCapExceeded):
            enumerate_action(group, 4)
        monkeypatch.delenv(MAX_POINTS_ENV)
        assert resolve_cap() == 2_000_000

    @pytest.mark.parametrize("value", ["abc", "-5", "0", "", "1.5"])
    def test_env_must_be_a_positive_integer(self, monkeypatch, value):
        monkeypatch.setenv(MAX_POINTS_ENV, value)
        with pytest.raises(ValidationError):
            resolve_cap()


def counted_multiplicities(group, table, dec):
    """|G| times each row's inner product with the counted fixed points:
    the oracle's counts, each divided by its row's scale over |G|."""
    scales, weights, _ = bruteforce._family_weights(group, table)
    at_leaders = [dec.fixed_counts[c] for c in group.leaders]
    return [sum(map(mul, row, at_leaders)) * group.order // s
            for s, row in zip(scales, weights)]


class TestBruteMultiplicities:
    def test_single_point_gives_trivial_only(self):
        group = make_builtin_group("dihedral-z2")
        table = dixon_character_table(group)
        dec = enumerate_action(group, 1)
        mults = counted_multiplicities(group, table, dec)
        for i, value in enumerate(mults):
            assert value == (group.order if i == table.trivial_index else 0)

    def test_s3_at_q_two(self):
        group = make_builtin_group("s3-a2")
        table = dixon_character_table(group)
        dec = enumerate_action(group, 2)
        # fixed-point counts (identity, transpositions, 3-cycles) = (4, 2, 1)
        by_order = {group.element_orders[rep]: count
                    for rep, count in zip(group.class_representatives,
                                          dec.fixed_counts)}
        assert by_order == {1: 4, 2: 2, 3: 1}
        mults = counted_multiplicities(group, table, dec)
        for i, value in enumerate(mults):
            if table.degrees[i] == 2:
                assert value == 6
            elif i == table.trivial_index:
                assert value == 2 * 6
            else:
                assert value == 0

    def test_c6_z2_at_six(self):
        group = make_builtin_group("c6-z2")
        table = dixon_character_table(group)
        mults = counted_multiplicities(group, table, enumerate_action(group, 6))
        assert all(type(v) is int for v in mults)
        assert mults[table.trivial_index] == 36 + 12
        assert sum(mults) == 36 * 6  # degrees are all 1, so the sum is q^2
        assert all(v % 6 == 0 and v >= 0 for v in mults)

    def test_supplied_table_weights_are_integers(self):
        # the table's entries are integral Fractions; each row is scaled
        # once, so no q does Fraction arithmetic
        spec = parse_input(PROBLEMS_DIR / "c6_z2_with_table.json")
        group = generate_group(spec.generators, rank=spec.rank)
        table = ingest_character_table(group, spec.character_table)
        scales, weights, _ = bruteforce._family_weights(group, table)
        assert all(type(v) is int for v in scales)
        assert all(type(v) is int for row in weights for v in row)
        dec = enumerate_action(group, 6)
        assert sorted(counted_multiplicities(group, table, dec)) == \
            sorted(counted_multiplicities(group, dixon_character_table(group),
                                          dec))

    def test_irrational_family_sum_raises(self):
        # a faithful row with chi(g^5) set to chi(g): the family {g, g^5}
        # then sums to 2·chi(g), which is not rational
        group, table, eqp, fixed = pipeline("c6-z2")
        g = group.generator_indices[0]
        x = g
        for _ in range(4):
            x = group.mul(x, g)
        leader, five = group.class_of[g], group.class_of[x]
        assert group.families[five][0] == leader != five
        i = next(i for i, row in enumerate(table.rows)
                 if any(row.values[leader].coeffs[1:]))
        rows = list(table.rows)
        values = list(rows[i].values)
        values[five] = values[leader]
        rows[i] = replace(rows[i], values=tuple(values))
        with pytest.raises(NonRationalCoefficient,
                           match=f"row {i}: the sum over the Galois family "
                                 f"of class {leader} is .*, not rational"):
            differential_check(group, replace(table, rows=tuple(rows)),
                               eqp.multiplicities, fixed, q_max=2)


def linear_orbit_counts(group, table, dec):
    return bruteforce._linear_orbit_counts(
        bruteforce._family_weights(group, table)[2], dec)


class TestLinearOrbitCounts:
    def test_total_count_for_trivial(self):
        group = make_builtin_group("c6-z2")
        table = dixon_character_table(group)
        dec = enumerate_action(group, 6)
        counts = linear_orbit_counts(group, table, dec)
        assert sorted(counts) == list(table.linear_indices())
        assert counts[table.trivial_index] == dec.orbit_count == 8

    def test_sign_restricted_count_for_s3(self):
        group = make_builtin_group("s3-a2")
        table = dixon_character_table(group)
        sign = next(i for i in range(3) if table.degrees[i] == 1
                    and i != table.trivial_index)
        assert linear_orbit_counts(
            group, table, enumerate_action(group, 2))[sign] == 0
        assert linear_orbit_counts(
            group, table, enumerate_action(group, 4))[sign] == 1

    def test_matches_an_orbit_by_orbit_count(self):
        # each orbit counts when every class its representative's
        # stabilizer meets, element by element, lies in the row's kernel
        for name, q in (("c6-z3", 12), ("s3-a2", 9)):
            group = make_builtin_group(name)
            table = dixon_character_table(group)
            _, met, _ = reference_action(group, q)
            dec = enumerate_action(group, q)
            expected = {}
            for i in table.linear_indices():
                values = table.rows[i].values
                moved = [c for c, v in enumerate(values) if v != values[0]]
                expected[i] = sum(not any(o in met[c] for c in moved)
                                  for o in range(dec.orbit_count))
            assert linear_orbit_counts(group, table, dec) == expected


class TestDifferentialCheck:
    def test_builtins_agree(self):
        for name in ("c6-z2", "s3-a2", "dihedral-z2"):
            group, table, eqp, fixed = pipeline(name)
            verdicts, covered = differential_check(
                group, table, eqp.multiplicities, fixed, q_max=10)
            assert covered == 10
            assert all(v.passed for v in verdicts)

    def test_cyclotomic_products_do_not_grow_with_q(self, monkeypatch):
        group, table, eqp, fixed = pipeline("c6-z2")
        calls = []
        original = Cyclotomic.__mul__

        def counting(self, other):
            calls.append(None)
            return original(self, other)

        monkeypatch.setattr(Cyclotomic, "__mul__", counting)
        monkeypatch.setattr(Cyclotomic, "__rmul__", counting)
        per_run = []
        for q_max in (4, 8):
            calls.clear()
            differential_check(group, table, eqp.multiplicities, fixed,
                               q_max=q_max)
            per_run.append(len(calls))
        # the oracle reads the table through rational family sums
        assert per_run == [0, 0]

    def test_enumeration_makes_no_group_products(self, monkeypatch):
        groups = [make_builtin_group(name) for name in BUILTIN_NAMES]
        groups.append(generate_group([mat(rows) for rows in B3_GENERATORS],
                                     rank=3))

        def forbidden(self, i, j):
            raise AssertionError("group.mul called during enumeration")

        monkeypatch.setattr(FiniteMatrixGroup, "mul", forbidden)
        for group in groups:
            for q in (1, 2, 4):
                enumerate_action(group, q)

    def test_matrices_only_for_generators_and_family_leaders(self,
                                                             monkeypatch):
        # C6 on Z^3, a fresh group: the generator's digit array, then one
        # certificate for each Galois family: {1}, {g, g^5}, {g^2, g^4} and
        # {g^3}; the first q builds them and later ones reuse them
        group = make_builtin_group("c6-z3")
        calls = []
        original = FiniteMatrixGroup.matrix

        def counting(self, i):
            calls.append(i)
            return original(self, i)

        monkeypatch.setattr(FiniteMatrixGroup, "matrix", counting)
        reps = group.class_representatives
        expected = sorted([*group.generator_indices,
                           *(reps[c] for c in group.leaders)])
        for q in (1, 3, 6):
            enumerate_action(group, q)
            assert sorted(calls) == expected
        assert len(calls) == 1 + 4

    def test_matrices_built_once_per_check(self, monkeypatch):
        # c6-z3: the pipeline has built the family leaders' matrices on the
        # group; the first check adds the generator's, and none is built
        # again, whatever the number of q
        group, table, eqp, fixed = pipeline("c6-z3")
        calls = []
        original = FiniteMatrixGroup.matrix

        def counting(self, i):
            calls.append(i)
            return original(self, i)

        monkeypatch.setattr(FiniteMatrixGroup, "matrix", counting)
        for q_max in (2, 6):
            verdicts, covered = differential_check(
                group, table, eqp.multiplicities, fixed, q_max=q_max)
            assert covered == q_max and all(v.passed for v in verdicts)
            assert calls == list(group.generator_indices)

    def test_matrices_built_once_per_group(self, monkeypatch):
        # one matrix per generator and one per Galois family leader, the
        # identity's included, across the Smith forms, the determinants and
        # the oracle to any q_max: C6 on Z^3 has the families {1}, {g, g^5},
        # {g^2, g^4} and {g^3}, C21 four as well
        calls = []
        original = FiniteMatrixGroup.matrix

        def counting(self, i):
            calls.append(i)
            return original(self, i)

        monkeypatch.setattr(FiniteMatrixGroup, "matrix", counting)
        for group in (make_builtin_group("c6-z3"),
                      generate_group([mat(C21_GENERATOR)], rank=8)):
            calls.clear()
            table = dixon_character_table(group)
            data = class_divisor_data(group)
            reciprocity_character(group, table, data)
            eqp = equivariant_qp(group, table, data)
            fixed = tuple(fixed_point_qp(group, data, c)
                          for c in range(group.class_count))
            for q_max in (2, 3):
                verdicts, covered = differential_check(
                    group, table, eqp.multiplicities, fixed, q_max=q_max)
                assert covered == q_max and all(v.passed for v in verdicts)
            reps = group.class_representatives
            assert sorted(calls) == sorted([*group.generator_indices,
                                            *(reps[c] for c in group.leaders)])
            assert len(calls) == 1 + 4

    def test_cap_clamps_range(self, monkeypatch):
        monkeypatch.setenv(MAX_POINTS_ENV, "100")
        group, table, eqp, fixed = pipeline("c6-z2")
        verdicts, covered = differential_check(
            group, table, eqp.multiplicities, fixed, q_max=24)
        assert covered == 10  # 10^2 <= 100 < 11^2
        assert all(v.passed for v in verdicts)
        assert all("1..10" in v.method for v in verdicts)

    def test_fractional_row_scale_enters_the_comparison(self):
        # chi/2 has half chi's multiplicity; its weights are scaled by 2 to
        # integers, and the scale must divide the count back out
        group, table, eqp, fixed = pipeline("c6-z2")
        i = next(i for i in range(table.size) if i != table.trivial_index)
        rows, mults = list(table.rows), list(eqp.multiplicities)
        rows[i] = replace(rows[i], values=tuple(v * Fraction(1, 2)
                                                for v in rows[i].values))
        qp = mults[i]
        g = gcd(2, *(n for nums in qp.numerators.values() for n in nums))
        mults[i] = GcdQuasiPolynomial(
            qp.period, qp.denominator * 2 // g,
            {d: tuple(n // g for n in nums)
             for d, nums in qp.numerators.items()})
        halved = replace(table, rows=tuple(rows))
        assert bruteforce._family_weights(group, halved)[0][i] == \
            2 * group.order
        verdicts, _ = differential_check(group, halved, tuple(mults), fixed,
                                         q_max=8)
        assert {v.name: v for v in verdicts}["oracle-multiplicities"].passed

    def test_corrupted_fixed_points_detected(self):
        group, table, eqp, fixed = pipeline("c6-z2")
        bad = list(fixed)
        victim = next(c for c in range(group.class_count)
                      if fixed[c].minimal_period() > 1)
        bad[victim] = make_quasimonomial((2,), 0, 1,
                                         period=fixed[victim].period)
        verdicts, _ = differential_check(
            group, table, eqp.multiplicities, tuple(bad), q_max=8)
        by_name = {v.name: v for v in verdicts}
        assert not by_name["oracle-fixed-points"].passed
        assert f"class {victim}" in by_name["oracle-fixed-points"].details
        # the untouched predictions still pass
        assert by_name["oracle-multiplicities"].passed
        assert by_name["oracle-orbit-count"].passed

    def test_burnside_sees_one_fixed_count_off(self, monkeypatch):
        group, table, eqp, fixed = pipeline("s3-a2")
        original = bruteforce.enumerate_action

        def miscounted(group, q):
            dec = original(group, q)
            counts = list(dec.fixed_counts)
            counts[1] += 1
            return replace(dec, fixed_counts=tuple(counts))

        monkeypatch.setattr(bruteforce, "enumerate_action", miscounted)
        verdicts, _ = differential_check(group, table, eqp.multiplicities,
                                         fixed, q_max=4)
        burnside = {v.name: v for v in verdicts}["oracle-burnside"]
        assert not burnside.passed
        assert burnside.details.startswith("q=1: ")

    def test_corrupted_fixed_points_off_a_family_leader_detected(self):
        # g^5 fixes what g fixes, and only g's class is masked; a fault in
        # the fixed-point quasi-polynomial of g^5's class alone must show
        group, table, eqp, fixed = pipeline("c6-z2")
        g = group.generator_indices[0]
        x = g
        for _ in range(4):
            x = group.mul(x, g)
        victim = group.class_of[x]
        assert victim > group.class_of[g]
        bad = list(fixed)
        bad[victim] = plus_one(fixed[victim])
        verdicts, _ = differential_check(
            group, table, eqp.multiplicities, tuple(bad), q_max=8)
        by_name = {v.name: v for v in verdicts}
        assert not by_name["oracle-fixed-points"].passed
        assert by_name["oracle-fixed-points"].details.startswith(
            f"class {victim} at q=1:")
        assert by_name["oracle-multiplicities"].passed

    def test_corrupted_multiplicity_detected(self):
        group, table, eqp, fixed = pipeline("s3-a2")
        bad = list(eqp.multiplicities)
        bad[table.trivial_index] = plus_one(bad[table.trivial_index])
        verdicts, _ = differential_check(
            group, table, tuple(bad), fixed, q_max=8)
        by_name = {v.name: v for v in verdicts}
        assert not by_name["oracle-multiplicities"].passed
        assert not by_name["oracle-orbit-count"].passed
        assert "q=1" in by_name["oracle-multiplicities"].details
        assert by_name["oracle-fixed-points"].passed

    def test_corrupted_linear_orbit_count_detected(self):
        group, table, eqp, fixed = pipeline("s3-a2")
        sign = next(i for i in table.linear_indices()
                    if i != table.trivial_index)
        bad = list(eqp.multiplicities)
        bad[sign] = plus_one(bad[sign])
        verdicts, _ = differential_check(
            group, table, tuple(bad), fixed, q_max=8)
        by_name = {v.name: v for v in verdicts}
        assert not by_name["oracle-linear-orbit-counts"].passed
        assert f"row {sign} at q=1" in \
            by_name["oracle-linear-orbit-counts"].details
        assert by_name["oracle-fixed-points"].passed
