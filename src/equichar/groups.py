"""Finite groups of unimodular integer matrices, held as permutations.

A group acts faithfully on Omega, the union of the orbits of a lattice basis
b_1..b_l under v -> M v, because Omega spans the lattice. The b_j are LLL
reduced for a positive definite form that every element preserves, so they
are short for it and their orbits stay small whatever basis the generators
are written in. An element is stored as the permutation of Omega it induces,
p(AB) = p(A) o p(B), as `bytes` while |Omega| <= 256, so that a product is
one `translate` (b.translate(a + pad) is a o b), and as a tuple above. Its
matrix is rebuilt on demand from the images of the b_j; the generators' and
the family leaders' matrices are kept once built. Closure is breadth-first
from an explicit generator list: element 0 is the identity and the element
order is the BFS discovery order, so it is reproducible for a fixed
generator list. Conjugacy classes are orbits under conjugation by the
generators (Holt, Eick and O'Brien, Handbook of Computational Group Theory,
ch. 4), sorted by (order of the representative, representative index), which
places the identity class first. The classes of rep^a, a prime to the order
of rep, form a Galois family: they generate conjugate cyclic groups, so they
share fixed points, Smith forms and Galois-conjugate character values, and
each class records the family's smallest class (its leader) and such an a.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .errors import (DimensionMismatch, NonUnimodularGenerator,
                     OrderCapExceeded)
from .intmat import IntMatrix

DEFAULT_MAX_ORDER = 100_000
BYTES_LIMIT = 256  # the most points a permutation held as bytes can move


class _Perm(tuple):
    """A permutation of more than BYTES_LIMIT points: a tuple with the two
    methods of bytes that products and inverses use."""

    def translate(self, table) -> "_Perm":
        return _Perm([table[i] for i in self])

    @staticmethod
    def maketrans(x, y) -> list[int]:  # the table mapping x[i] to y[i]
        return [t for _, t in sorted(zip(x, y))]


@dataclass(frozen=True)
class FiniteMatrixGroup:
    rank: int
    points: tuple[tuple[int, ...], ...]  # Omega, starting with b_1..b_l
    basis_inverse: IntMatrix  # inverse of the matrix with columns b_1..b_l
    perms: tuple[bytes | _Perm, ...]  # perms[i][n]: position of M_i w_n
    generator_indices: tuple[int, ...]
    inverse: tuple[int, ...]
    class_partition: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    element_orders: tuple[int, ...]
    exponent: int
    parent: tuple[tuple[int, int], ...]  # (a, j): x first reached as a g_j
    power_classes: tuple[tuple[int, ...], ...]  # [c][u]: class of rep_c^u
    # [c]: (leader, a), rep_c conjugate to rep_leader^a, a prime to the order
    families: tuple[tuple[int, int], ...]
    index_of: dict[bytes | _Perm, int] = field(compare=False, repr=False)
    # appended to a, the table through which b.translate gives a o b
    pad: bytes | tuple = field(compare=False, repr=False)

    @property
    def order(self) -> int:
        return len(self.perms)

    @property
    def class_count(self) -> int:
        return len(self.class_partition)

    @cached_property
    def class_representatives(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.class_partition)

    @cached_property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.class_partition)

    @cached_property
    def leaders(self) -> tuple[int, ...]:
        """The classes that lead their Galois family, in class order."""
        return tuple(c for c, (leader, _) in enumerate(self.families)
                     if leader == c)

    @cached_property
    def generator_matrices(self) -> tuple[IntMatrix, ...]:
        return tuple(map(self.matrix, self.generator_indices))

    @cached_property
    def leader_matrices(self) -> dict[int, IntMatrix]:
        """The representative's matrix of each family leader, by class."""
        reps = self.class_representatives
        return {c: self.matrix(reps[c]) for c in self.leaders}

    def mul(self, i: int, j: int) -> int:
        return self.products(i, (j,))[0]

    def products(self, i: int, js: Iterable[int]) -> list[int]:
        """The index of x_i x_j for each j, padding x_i once."""
        table, perms = self.perms[i] + self.pad, self.perms
        return [self.index_of[perms[j].translate(table)] for j in js]

    def matrix(self, i: int) -> IntMatrix:
        """The matrix M of element i: M B = W, where column j of B is b_j
        and column j of W is its image M b_j."""
        columns = [self.points[x] for x in self.perms[i][:self.rank]]
        images = IntMatrix(self.rank, self.rank,
                           tuple(v for row in zip(*columns) for v in row))
        return images.multiply(self.basis_inverse)


def _validated_generators(generators: Sequence[IntMatrix], rank: int | None) -> tuple[list[IntMatrix], int]:
    gens = list(generators)
    if not gens:
        if rank is None:
            raise DimensionMismatch("rank is required when there are no generators")
        if rank <= 0:
            raise DimensionMismatch(f"invalid rank {rank}")
        return [], rank
    ell = gens[0].rows
    for g in gens:
        if not g.is_square() or g.rows != ell:
            raise DimensionMismatch("generators must be square matrices of one size")
    if rank is not None and rank != ell:
        raise DimensionMismatch(f"declared rank {rank} does not match generator size {ell}")
    for g in gens:
        if abs(g.det()) != 1:
            raise NonUnimodularGenerator(f"generator with determinant {g.det()}")
    _reject_infinite_orders(gens, ell)
    return gens, ell


def _reject_infinite_orders(gens: list[IntMatrix], ell: int) -> None:
    """Raise OrderCapExceeded when a generator, or a product of two, has
    infinite order. A finite order of an ell x ell integer matrix divides
    M = lcm{n : phi(n) <= ell}, the lcm of the prime powers q <= 2 ell with
    phi(q) <= ell. g^M is taken modulo the prime 2^61 - 1: g^M != I there
    proves g infinite, and a match leaves the order cap to apply."""
    exponent = lcm(*(n for n in range(1, 2 * ell + 1)
                     if sum(gcd(k, n) == 1 for k in range(n)) <= ell))
    p = (1 << 61) - 1

    def product(a, b):
        cols = list(zip(*b))
        return [[sum(map(mul, row, col)) % p for col in cols] for row in a]

    # g^2 has infinite order iff g has, so the pairs i <= j cover both
    rows = [g.to_rows() for g in gens]
    ident = IntMatrix.identity(ell).to_rows()
    for (i, a), (j, b) in combinations_with_replacement(enumerate(rows), 2):
        g, power = product(a, b), ident
        for bit in bin(exponent)[2:]:  # left-to-right binary powering
            power = product(power, power)
            if bit == "1":
                power = product(power, g)
        if power != ident:
            name = (f"generator {i}" if i == j else
                    f"the product of generators {i} and {j}")
            raise OrderCapExceeded(f"{name} has infinite order")


def _image(g_rows: list[tuple[int, ...]], v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([sum(map(mul, row, v)) for row in g_rows])


def _orbit(g_rows: list[list[tuple[int, ...]]], seed: tuple[int, ...],
           index: dict[tuple[int, ...], int], max_order: int) -> list[tuple[int, ...]]:
    """Seed, which index holds, and the points of its orbit under v -> g v
    (each g given by its rows) that index lacked, breadth-first; each new
    point gets the next position in index. An orbit of a finite group has at
    most |G| points, so OrderCapExceeded is raised once more than max_order
    come from one seed."""
    orbit = [seed]
    for v in orbit:  # breadth-first: orbit grows while scanned
        for rows in g_rows:
            w = _image(rows, v)
            if w not in index:
                if len(orbit) == max_order:
                    raise OrderCapExceeded(f"the orbit of {list(seed)} "
                                           f"exceeded max_order={max_order}")
                index[w] = len(index)
                orbit.append(w)
    return orbit


def _invariant_form(gens: list[IntMatrix], ell: int, max_order: int) -> list[list[int]]:
    """A positive definite P with g^T P g = P for every generator: the sum of
    u u^T over the orbits of unit vectors under u -> g^T u, grown only for
    the e_j outside the span of the orbits before. The transposes permute
    each orbit, so P is invariant, and the orbits span, so P is definite.
    An infinite group has an infinite orbit among them (a finite spanning
    set acted on faithfully would make it finite), which hits max_order."""
    transposed = [[tuple(g.entries[c::ell]) for c in range(ell)] for g in gens]
    form = [[0] * ell for _ in range(ell)]
    index: dict[tuple[int, ...], int] = {}
    rank = 0
    for j in range(ell):
        if rank == ell:
            break
        unit = tuple(int(r == j) for r in range(ell))
        # P = W W^T has the row space of the orbit vectors W
        if unit in index or IntMatrix.from_rows([*form, unit]).rank() == rank:
            continue
        index[unit] = len(index)
        coords = list(zip(*_orbit(transposed, unit, index, max_order)))
        for a in range(ell):
            for b in range(ell):
                form[a][b] += sum(map(mul, coords[a], coords[b]))
        rank = IntMatrix.from_rows(form).rank()
    return form


def _integral_gram_schmidt(gram: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Gram-Schmidt data of the basis with Gram matrix gram, in integers
    (Cohen, A Course in Computational Algebraic Number Theory, 2.6.7): d[i] is
    the Gram determinant of the first i vectors, so the i-th squared length
    is d[i+1] / d[i], and lam[i][j] = d[j+1] mu[i][j] for j < i."""
    n = len(gram)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = gram[i][j]
            for m in range(j):  # an exact division
                u = (d[m + 1] * u - lam[i][m] * lam[j][m]) // d[m]
            if j < i:
                lam[i][j] = u
            else:
                d[i + 1] = u
    return d, lam


def _reduced_basis(form: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """An LLL-reduced basis b_1..b_l of Z^l (Lovasz constant 3/4) for the
    positive definite form, and the rows of the inverse of the matrix whose
    columns are the b_j, by integral LLL on the Gram matrix. Each b_j is at
    most 2^(l-1) times the j-th successive minimum in squared length, so for
    an invariant form its orbit lies among a number of short vectors that
    does not depend on the basis the generators are written in."""
    n = len(form)
    gram = [list(row) for row in form]  # gram[i][j] = b_i^T P b_j
    basis = [[int(i == j) for j in range(n)] for i in range(n)]
    inverse = [[int(i == j) for j in range(n)] for i in range(n)]

    def subtract(k: int, j: int, r: int) -> None:  # b_k -= r b_j
        basis[k] = [a - r * b for a, b in zip(basis[k], basis[j])]
        inverse[j] = [a + r * b for a, b in zip(inverse[j], inverse[k])]
        gram[k] = [a - r * b for a, b in zip(gram[k], gram[j])]
        for row in gram:
            row[k] -= r * row[j]

    # size reduction updates lam in place and keeps d: only a swap redoes them
    d, lam = _integral_gram_schmidt(gram)
    k = 1
    while k < n:
        for j in reversed(range(k)):  # size reduction: |mu[k][j]| <= 1/2
            if 2 * abs(lam[k][j]) > d[j + 1]:
                r = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])
                subtract(k, j, r)
                lam[k][j] -= r * d[j + 1]
                for m in range(j):
                    lam[k][m] -= r * lam[j][m]
        # Lovasz: |b*_k|^2 >= (3/4 - mu[k][k-1]^2) |b*_(k-1)|^2, times
        # 4 d[k] d[k-1]; a swap when it fails
        if 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2:
            k += 1
            continue
        for rows in (basis, inverse, gram):
            rows[k - 1], rows[k] = rows[k], rows[k - 1]
        for row in gram:
            row[k - 1], row[k] = row[k], row[k - 1]
        d, lam = _integral_gram_schmidt(gram)
        k = max(k - 1, 1)
    return basis, inverse


def generate_group(generators: Sequence[IntMatrix],
                   max_order: int = DEFAULT_MAX_ORDER,
                   rank: int | None = None) -> FiniteMatrixGroup:
    """Close the generators under multiplication and package the group data.

    Raises OrderCapExceeded before closure when a generator or a product of
    two has infinite order, and as soon as an orbit grown for the invariant
    form or for Omega, or the closure, would pass max_order, so infinite (or
    merely huge) generated groups fail fast instead of looping.
    """
    gens, ell = _validated_generators(generators, rank)
    basis, basis_inverse = _reduced_basis(_invariant_form(gens, ell, max_order))
    rows = [[g.row(r) for r in range(ell)] for g in gens]
    index = {tuple(b): j for j, b in enumerate(basis)}
    for b in basis:
        _orbit(rows, tuple(b), index, max_order)
    points = tuple(index)
    perm = bytes if len(points) <= BYTES_LIMIT else _Perm
    pad = bytes(range(len(points), 256)) if perm is bytes else ()
    gen_perms = [perm([index[_image(g_rows, v)] for v in points])
                 for g_rows in rows]
    ident = perm(range(len(points)))
    perms, index_of, parent = [ident], {ident: 0}, [(0, 0)]
    right: list[list[int]] = [[] for _ in gen_perms]  # right[g][x] = x g
    for x, a in enumerate(perms):  # breadth-first: perms grows while scanned
        a += pad
        for j, (b, table) in enumerate(zip(gen_perms, right)):
            prod = b.translate(a)
            if prod not in index_of:
                if len(perms) == max_order:
                    raise OrderCapExceeded(
                        f"closure exceeded max_order={max_order}")
                index_of[prod] = len(perms)
                perms.append(prod)
                parent.append((x, j))
            table.append(index_of[prod])
    inverse = [index_of[ident.translate(perm.maketrans(x, ident))]
               for x in perms]

    # conjugacy classes as orbits of y -> g^-1 y g = ((y g)^-1 g)^-1 over the
    # generators; the first member of each orbit is its smallest index
    seen: set[int] = set()
    orbits: list[tuple[int, ...]] = []
    for x in range(len(perms)):
        if x in seen:
            continue
        members = [x]
        seen.add(x)
        for y in members:
            for table in right:
                z = inverse[table[inverse[table[y]]]]
                if z not in seen:
                    seen.add(z)
                    members.append(z)
        orbits.append(tuple(sorted(members)))

    # the order is a class function: one powering loop per class
    orders, powers = [0] * len(perms), {}
    for members in orbits:
        power = perms[members[0]]
        table = power + pad
        powers[members[0]] = seq = [0]
        while power != ident:
            seq.append(index_of[power])
            power = power.translate(table)
        for y in members:
            orders[y] = len(seq)
    partition = tuple(sorted(orbits, key=lambda c: (orders[c[0]], c[0])))
    class_of = [0] * len(perms)
    for c, members in enumerate(partition):
        for y in members:
            class_of[y] = c
    power_classes = [[class_of[x] for x in powers[c[0]]] for c in partition]
    # rep_c^u for u prime to o runs over c's family, whose smallest class is
    # the leader; rep_leader^a is in class c for the smallest such a
    families = []
    for c, seq in enumerate(power_classes):
        o = len(seq)
        leader = min(seq[u] for u in range(o) if gcd(u, o) == 1)
        a = next(a for a in range(1, o + 1)
                 if power_classes[leader][a % o] == c)
        families.append((leader, a))

    return FiniteMatrixGroup(
        rank=ell,
        points=points,
        basis_inverse=IntMatrix.from_rows(basis_inverse),
        perms=tuple(perms),
        generator_indices=tuple(table[0] for table in right),
        inverse=tuple(inverse),
        class_partition=partition,
        class_of=tuple(class_of),
        element_orders=tuple(orders),
        exponent=lcm(*orders),
        parent=tuple(parent),
        power_classes=tuple(map(tuple, power_classes)),
        families=tuple(families),
        index_of=index_of,
        pad=pad,
    )


def is_subgroup(group: FiniteMatrixGroup, indices: Iterable[int]) -> bool:
    """True when the index set is nonempty and closed under multiplication,
    that is, when it equals the subgroup its members generate. That subgroup
    is grown one new generator at a time, each at least doubling it, so this
    takes O(|G| log^2 |G|) products rather than |H|^2."""
    subset = set(indices)
    closure, gens = {0}, []
    for h in subset:
        if h in closure:
            continue
        gens.append(h)
        frontier = list(closure)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = group.mul(x, g)
                if y not in closure:
                    closure.add(y)
                    frontier.append(y)
    return closure == subset


def cyclic_subgroup(group: FiniteMatrixGroup, i: int) -> frozenset[int]:
    powers = {0}
    x = i
    while x != 0:
        powers.add(x)
        x = group.mul(x, i)
    return frozenset(powers)
