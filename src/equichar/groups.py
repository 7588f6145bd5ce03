"""Finite groups of unimodular integer matrices.

A group is built by breadth-first closure from an explicit generator list.
Element 0 is always the identity; the element order is the BFS discovery
order, so it is reproducible for a fixed generator list. Products are
computed on demand by `FiniteMatrixGroup.mul`. Conjugacy classes are orbits
under conjugation by the generators (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, ch. 4), sorted by (order of the representative,
representative index), which places the identity class first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm
from typing import Iterable, Sequence

from .errors import (DimensionMismatch, NonUnimodularGenerator,
                     OrderCapExceeded)
from .intmat import IntMatrix

DEFAULT_MAX_ORDER = 100_000


@dataclass(frozen=True)
class FiniteMatrixGroup:
    rank: int
    elements: tuple[IntMatrix, ...]
    generator_indices: tuple[int, ...]
    inverse: tuple[int, ...]
    class_partition: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    element_orders: tuple[int, ...]
    exponent: int
    index_of: dict[IntMatrix, int] = field(compare=False, repr=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def class_count(self) -> int:
        return len(self.class_partition)

    @property
    def class_representatives(self) -> tuple[int, ...]:
        return tuple(c[0] for c in self.class_partition)

    @property
    def class_sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.class_partition)

    def mul(self, i: int, j: int) -> int:
        return self.index_of[self.elements[i].multiply(self.elements[j])]

    def power(self, i: int, n: int) -> int:
        if n < 0:
            return self.power(self.inverse[i], -n)
        acc = 0
        for _ in range(n):
            acc = self.mul(acc, i)
        return acc

    def conjugate(self, h: int, x: int) -> int:
        """Index of h^-1 x h."""
        return self.mul(self.mul(self.inverse[h], x), h)


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
    return gens, ell


def generate_group(generators: Sequence[IntMatrix],
                   max_order: int = DEFAULT_MAX_ORDER,
                   rank: int | None = None) -> FiniteMatrixGroup:
    """Close the generators under multiplication and package the group data.

    Raises OrderCapExceeded as soon as the closure would pass max_order, so
    infinite (or merely huge) generated groups fail fast instead of looping.
    """
    gens, ell = _validated_generators(generators, rank)
    ident = IntMatrix.identity(ell)
    elements: list[IntMatrix] = [ident]
    index_of: dict[IntMatrix, int] = {ident: 0}
    for current in elements:  # breadth-first: elements grows while scanned
        for g in gens:
            prod = current.multiply(g)
            if prod not in index_of:
                if len(elements) + 1 > max_order:
                    raise OrderCapExceeded(
                        f"closure exceeded max_order={max_order}")
                index_of[prod] = len(elements)
                elements.append(prod)

    # one powering loop per element: its order, and its inverse as the
    # last power before the identity
    orders: list[int] = []
    inverse: list[int] = []
    for x in elements:
        power, last, k = x, ident, 1
        while power != ident:
            power, last, k = power.multiply(x), power, k + 1
        orders.append(k)
        inverse.append(index_of[last])

    # conjugacy classes as orbits of x -> g^-1 x g over the generators; the
    # first member of each orbit is its smallest index
    conjugators = [(elements[inverse[index_of[g]]], g) for g in gens]
    seen: set[int] = set()
    orbits: list[tuple[int, ...]] = []
    for x in range(len(elements)):
        if x in seen:
            continue
        members = [x]
        seen.add(x)
        for y in members:
            for g_inv, g in conjugators:
                z = index_of[g_inv.multiply(elements[y]).multiply(g)]
                if z not in seen:
                    seen.add(z)
                    members.append(z)
        orbits.append(tuple(sorted(members)))
    partition = tuple(sorted(orbits, key=lambda c: (orders[c[0]], c[0])))
    class_of = [0] * len(elements)
    for c, members in enumerate(partition):
        for y in members:
            class_of[y] = c

    return FiniteMatrixGroup(
        rank=ell,
        elements=tuple(elements),
        generator_indices=tuple(index_of[g] for g in gens),
        inverse=tuple(inverse),
        class_partition=partition,
        class_of=tuple(class_of),
        element_orders=tuple(orders),
        exponent=lcm(*orders),
        index_of=index_of,
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
