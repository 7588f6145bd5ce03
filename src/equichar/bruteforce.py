"""Brute-force orbit enumeration on (Z/q)^l, used as an independent check
on the symbolic pipeline.

Everything here is deliberately direct: for each q, every generator and
every class representative acts on all q^l points through one image array,
`img[code]` being the code of `M·x mod q`, built from the matrix entries
reduced mod q. Orbits come from a BFS over the generators' arrays, which
labels every code with its orbit. Fixed points are the codes a class
representative's array maps to themselves. Isotropy is counted per class
from those same fixed points: since stabilizers along an orbit O are
conjugate, |Stab(x) ∩ C| = |C|·|Fix(rep_C) ∩ O|/|O| for every x in O.
Multiplicities are computed from the textbook inner product against the
counted fixed points. None of it shares code with the Smith-form route,
which is the point.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import eq

from .characters import CharacterTable, inner_product, rational_class_function
from .checks import Verdict
from .errors import (CertificationFailed, EnumerationCapExceeded,
                     ValidationError)
from .gcdpoly import GcdQuasiPolynomial
from .groups import FiniteMatrixGroup
from .intmat import IntMatrix

DEFAULT_MAX_POINTS = 2_000_000
MAX_POINTS_ENV = "EQUICHAR_MAX_POINTS"


def resolve_cap(cap: int | None = None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get(MAX_POINTS_ENV, str(DEFAULT_MAX_POINTS)).strip()
    if not env.isdecimal() or int(env) < 1:
        raise ValidationError(
            f"{MAX_POINTS_ENV} must be a positive integer, got {env!r}")
    return int(env)


def _image_array(mat: IntMatrix, q: int) -> list[int]:
    """img[code] is the code of mat·x mod q for every point code of
    (Z/q)^rank, coordinate j having weight q^j."""
    img = None
    weight = 1
    for i in range(mat.rows):
        # digit i of the image as a function of the code, one column at a time
        arr = [0]
        for m in mat.row(i):
            m %= q
            arr = (arr * q if m == 0 else
                   [(a + t * m) % q for t in range(q) for a in arr])
        img = arr if img is None else [v + weight * a
                                       for v, a in zip(img, arr)]
        weight *= q
    return img


@dataclass(frozen=True)
class OrbitDecomposition:
    """Orbit data of a group action on (Z/q)^l. Points are encoded as
    integers in mixed radix q, coordinate j having weight q^j. labels[code]
    is the index of the orbit of that point; orbits are numbered in the
    order of their smallest members, so the whole object is deterministic.
    orbit_sizes[o] is the number of points of orbit o, and isotropy[o]
    lists, in class order, the (class, |Stab ∩ C|) pairs of the classes
    that meet the stabilizer of any point of orbit o."""

    q: int
    labels: list[int]
    orbit_sizes: tuple[int, ...]
    isotropy: tuple[tuple[tuple[int, int], ...], ...]
    fixed_counts: tuple[int, ...]

    @property
    def orbit_count(self) -> int:
        return len(self.orbit_sizes)


def enumerate_action(group: FiniteMatrixGroup, q: int,
                     cap: int | None = None) -> OrbitDecomposition:
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    cap = resolve_cap(cap)
    total = q ** group.rank
    if total > cap:
        raise EnumerationCapExceeded(
            f"(Z/{q})^{group.rank} has {total} points, over the cap {cap}; "
            f"raise it via the cap argument or {MAX_POINTS_ENV}")
    # one representative's array at a time: only its fixed-point mask is kept
    fixed = [bytes(map(eq, _image_array(group.matrix(rep), q), range(total)))
             for rep in group.class_representatives]
    gen_images = [_image_array(group.matrix(i), q)
                  for i in group.generator_indices]
    label = [-1] * total
    sizes = []
    for start in range(total):
        if label[start] >= 0:
            continue
        index = len(sizes)
        label[start] = index
        frontier = [start]
        count = 1
        while frontier:
            code = frontier.pop()
            for img in gen_images:
                image = img[code]
                if label[image] < 0:
                    label[image] = index
                    frontier.append(image)
                    count += 1
        sizes.append(count)
    # |Stab(x) ∩ C| = |C|·|Fix(rep_C) ∩ O|/|O| for every x in the orbit O
    isotropy = [[] for _ in sizes]
    for c, (mask, size) in enumerate(zip(fixed, group.class_sizes)):
        for index, hits in Counter(compress(label, mask)).items():
            meets, rest = divmod(size * hits, sizes[index])
            if rest:
                raise CertificationFailed(
                    f"class {c} at q={q}: {hits} fixed points in an orbit "
                    f"of {sizes[index]} do not divide evenly")
            isotropy[index].append((c, meets))
    return OrbitDecomposition(q=q, labels=label, orbit_sizes=tuple(sizes),
                              isotropy=tuple(map(tuple, isotropy)),
                              fixed_counts=tuple(m.count(1) for m in fixed))


def brute_multiplicities(group: FiniteMatrixGroup, table: CharacterTable,
                         dec: OrbitDecomposition) -> tuple[Fraction, ...]:
    """Inner product of each table row against the counted permutation
    character: (1/|G|) sum over classes of size * fixed * conj(value)."""
    counted = rational_class_function(group, dec.fixed_counts)
    return tuple(inner_product(counted, row).as_fraction() for row in table.rows)


def brute_orbit_count_for_linear(group: FiniteMatrixGroup,
                                 table: CharacterTable,
                                 dec: OrbitDecomposition, index: int) -> int:
    """Number of orbits whose isotropy lies in the kernel of the degree-1
    row `index`. A kernel is a union of classes, so an orbit counts when
    every class its stabilizer meets is one where the row takes its
    identity value."""
    values = table.rows[index].values
    kernel = {c for c, v in enumerate(values) if v == values[0]}
    # orbits with the same isotropy are tested once
    return sum(n for stab, n in Counter(dec.isotropy).items()
               if kernel.issuperset(c for c, _ in stab))


def differential_check(group: FiniteMatrixGroup, table: CharacterTable,
                       multiplicities: tuple[GcdQuasiPolynomial, ...],
                       fixed_qps: tuple[GcdQuasiPolynomial, ...], *,
                       q_max: int, cap: int | None = None) -> tuple[list[Verdict], int]:
    """Compare every symbolic prediction against enumeration for q up to
    q_max (clamped by the point cap). Returns the verdicts and the largest q
    actually enumerated."""
    cap = resolve_cap(cap)
    linear = table.linear_indices()
    first_bad: dict[str, str] = {}
    covered = 0
    for q in range(1, q_max + 1):
        if q ** group.rank > cap:
            break
        dec = enumerate_action(group, q, cap)
        for c in range(group.class_count):
            predicted = fixed_qps[c].evaluate(q)
            if predicted != dec.fixed_counts[c] and "fixed-points" not in first_bad:
                first_bad["fixed-points"] = (
                    f"class {c} at q={q}: predicted {predicted}, "
                    f"counted {dec.fixed_counts[c]}")
        brute = brute_multiplicities(group, table, dec)
        for i in range(table.size):
            predicted = multiplicities[i].evaluate(q)
            if predicted != brute[i] and "multiplicities" not in first_bad:
                first_bad["multiplicities"] = (
                    f"row {i} at q={q}: predicted {predicted}, counted {brute[i]}")
        burnside = sum(group.class_sizes[c] * dec.fixed_counts[c]
                       for c in range(group.class_count))
        if (burnside != dec.orbit_count * group.order
                and "burnside" not in first_bad):
            first_bad["burnside"] = (
                f"q={q}: {dec.orbit_count} orbits but class-weighted fixed "
                f"sum is {burnside}")
        predicted = multiplicities[table.trivial_index].evaluate(q)
        if predicted != dec.orbit_count and "orbit-count" not in first_bad:
            first_bad["orbit-count"] = (
                f"q={q}: predicted {predicted}, enumerated {dec.orbit_count}")
        for i in linear:
            predicted = multiplicities[i].evaluate(q)
            counted = brute_orbit_count_for_linear(group, table, dec, i)
            if predicted != counted and "linear-orbit-counts" not in first_bad:
                first_bad["linear-orbit-counts"] = (
                    f"row {i} at q={q}: predicted {predicted}, counted {counted}")
        covered = q
    method = (f"enumeration, q in 1..{covered}" if covered
              else "enumeration skipped, cap too small")
    specs = [
        ("oracle-fixed-points",
         "Smith-form fixed-point counts match counted fixed points"),
        ("oracle-multiplicities",
         "multiplicity quasi-polynomials match inner products against "
         "counted fixed points"),
        ("oracle-burnside",
         "enumerated orbit count satisfies the averaged fixed-point formula"),
        ("oracle-orbit-count",
         "trivial-row multiplicity equals the enumerated orbit count"),
        ("oracle-linear-orbit-counts",
         "degree-1 multiplicities count orbits with isotropy in the kernel"),
    ]
    verdicts = []
    for name, statement in specs:
        key = name.removeprefix("oracle-")
        detail = first_bad.get(key, "")
        verdicts.append(Verdict(name=name, statement=statement, method=method,
                                passed=covered >= 1 and key not in first_bad,
                                details=detail))
    return verdicts, covered
