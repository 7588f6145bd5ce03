"""Finite groups of unimodular integer matrices.

A group is built by breadth-first closure from an explicit generator list.
Element 0 is always the identity; the element order is the BFS discovery
order, so it is reproducible for a fixed generator list. Conjugacy classes
are sorted by (order of the representative, representative index), which
places the identity class first.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    cayley: tuple[tuple[int, ...], ...]
    inverse: tuple[int, ...]
    class_partition: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]
    element_orders: tuple[int, ...]
    exponent: int

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
        return self.cayley[i][j]

    def power(self, i: int, n: int) -> int:
        if n < 0:
            return self.power(self.inverse[i], -n)
        acc = 0
        for _ in range(n):
            acc = self.cayley[acc][i]
        return acc

    def conjugate(self, h: int, x: int) -> int:
        """Index of h^-1 x h."""
        return self.cayley[self.cayley[self.inverse[h]][x]][h]


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
    pos = 0
    while pos < len(elements):
        current = elements[pos]
        for g in gens:
            prod = current.multiply(g)
            if prod not in index_of:
                if len(elements) + 1 > max_order:
                    raise OrderCapExceeded(
                        f"closure exceeded max_order={max_order}")
                index_of[prod] = len(elements)
                elements.append(prod)
        pos += 1

    n = len(elements)
    cayley = tuple(
        tuple(index_of[elements[i].multiply(elements[j])] for j in range(n))
        for i in range(n)
    )
    inverse = [0] * n
    for i in range(n):
        row = cayley[i]
        inverse[i] = row.index(0)

    orders = [0] * n
    for i in range(n):
        k = 1
        x = i
        while x != 0:
            x = cayley[x][i]
            k += 1
        orders[i] = k

    class_of = [-1] * n
    raw_classes: list[tuple[int, ...]] = []
    for x in range(n):
        if class_of[x] != -1:
            continue
        members = sorted({cayley[cayley[inverse[h]][x]][h] for h in range(n)})
        idx = len(raw_classes)
        for y in members:
            class_of[y] = idx
        raw_classes.append(tuple(members))
    order_key = sorted(range(len(raw_classes)),
                       key=lambda c: (orders[raw_classes[c][0]], raw_classes[c][0]))
    partition = tuple(raw_classes[c] for c in order_key)
    relabel = {old: new for new, old in enumerate(order_key)}
    class_of = tuple(relabel[c] for c in class_of)

    return FiniteMatrixGroup(
        rank=ell,
        elements=tuple(elements),
        generator_indices=tuple(index_of[g] for g in gens),
        cayley=cayley,
        inverse=tuple(inverse),
        class_partition=partition,
        class_of=class_of,
        element_orders=tuple(orders),
        exponent=lcm(*orders),
    )


def is_subgroup(group: FiniteMatrixGroup, indices: Iterable[int]) -> bool:
    """True when the index set is nonempty and closed under multiplication
    (for a finite subset that already implies identity and inverses)."""
    subset = set(indices)
    if not subset:
        return False
    for a in subset:
        for b in subset:
            if group.cayley[a][b] not in subset:
                return False
    return True


def cyclic_subgroup(group: FiniteMatrixGroup, i: int) -> frozenset[int]:
    powers = {0}
    x = i
    while x != 0:
        powers.add(x)
        x = group.cayley[x][i]
    return frozenset(powers)
