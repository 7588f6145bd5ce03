"""Brute-force orbit enumeration on (Z/q)^l, used as an independent check
on the symbolic pipeline.

Everything here is deliberately direct: for each q, group elements act on
all q^l points through image arrays, `img[code]` being the code of
`M·x mod q`. The generators' arrays are built from the matrix entries
reduced mod q by C-level slicing and lookups. A BFS over them labels every
code with its orbit first; fixed points are then sought only in the orbits
of fewer than |G| points, as |O|·|Stab(x)| = |G|. The classes of rep^k, k
prime to the order of rep, share their fixed points (rep^k generates
rep's cyclic group), so only the leader of each such Galois family
(`group.families`) gets an array, composed from the generators' along the
closure's stored BFS tree and certified against its matrix; the identity
class fixes all q^l points and gets none. The generators' and leaders'
matrices are built once per group (`group.generator_matrices`,
`group.leader_matrices`). Both counts then go per family too. A family's
classes meet the stabilizers of the orbits its leader's fixed points hit,
and no others, since stabilizers along an orbit are conjugate: a degree-1
row counts the orbits that no family it moves hits. A multiplicity is the
inner product of the fixed counts with each family's weight, the row's
rational class-weighted sum over the family (`characters.family_sums`),
which is its own conjugate. None of it shares code with the Smith-form
route, which is the point.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul

from .characters import CharacterTable, family_sums
from .checks import Verdict
from .errors import (CertificationFailed, EnumerationCapExceeded,
                     ValidationError)
from .gcdpoly import GcdQuasiPolynomial, horner, rows_by_object
from .groups import FiniteMatrixGroup
from .intmat import IntMatrix

DEFAULT_MAX_POINTS = 2_000_000
MAX_POINTS_ENV = "EQUICHAR_MAX_POINTS"


def resolve_cap() -> int:
    env = os.environ.get(MAX_POINTS_ENV, str(DEFAULT_MAX_POINTS)).strip()
    if not env.isdecimal() or int(env) < 1:
        raise ValidationError(
            f"{MAX_POINTS_ENV} must be a positive integer, got {env!r}")
    return int(env)


def _image_array(mat: IntMatrix, q: int) -> list[int]:
    """img[code] is the code of mat·x mod q for every point code of
    (Z/q)^rank, coordinate j having weight q^j. Digit i is built a column
    at a time by C-level lookups: adding t·m mod q to each digit x so far
    reads ring[s + x] (through ring[s:s + q] from q digits on), ring being
    range(q) twice, times q^i at the row's last nonzero column, past which
    the row is periodic. Rows are summed shortest first; the sum is tiled."""
    rows = []  # each nonzero row's digit times q^i, over its period
    for i in range(mat.rows):
        row = [m % q for m in mat.row(i)]
        last = max((j for j, m in enumerate(row) if m), default=-1)
        arr, ring = [0], list(range(q)) * 2
        for j, m in enumerate(row[:last + 1]):
            if j == last:
                ring = list(range(0, q ** (i + 1), q ** i)) * 2
            if not m:
                arr *= q
                continue
            out, short = [], len(arr) < q
            for t in range(q):
                s = t * m % q
                out += ([ring[s + x] for x in arr] if short
                        else map(ring[s:s + q].__getitem__, arr))
            arr = out
        if last >= 0:
            rows.append(arr)
    rows.sort(key=len)
    img, period = (rows[0], len(rows[0])) if rows else ([0], 1)
    for arr in rows[1:]:  # materialized only to be tiled
        if len(arr) > period:
            img, period = list(img) * (len(arr) // period), len(arr)
        img = map(add, img, arr)
    return list(img) * (q ** mat.cols // period)


@dataclass(frozen=True)
class OrbitDecomposition:
    """Orbit data of a group action on (Z/q)^l. Points are encoded as
    integers in mixed radix q, coordinate j having weight q^j. labels[code]
    is the index of the orbit of that point; orbits are numbered in the
    order of their smallest members, so the whole object is deterministic.
    orbit_sizes[o] is the number of points of orbit o, and fixed_counts[c]
    the number of points class c fixes. hit_orbits maps each family leader
    but the identity's to the orbits its representative fixes a point of,
    the orbits whose stabilizers its family's classes meet."""

    labels: list[int]
    orbit_sizes: tuple[int, ...]
    fixed_counts: tuple[int, ...]
    hit_orbits: dict[int, frozenset[int]]

    @property
    def orbit_count(self) -> int:
        return len(self.orbit_sizes)


def _fixed_points(group: FiniteMatrixGroup, gen_images: list[list[int]],
                  q: int, short: list[int]) -> dict[int, list[int]]:
    """The codes of the fixed points of the representatives of the family
    leaders but the identity's, by class. They lie in the G-invariant set S
    of codes that short lists, so arrays act on positions in S, sorted, each
    generator's re-indexed once and certified at every position to be its
    full array restricted to S. An element first reached in closure as a·g
    has the array img_a ∘ img_g, so arrays are composed along the closure's
    breadth-first tree (Schreier vectors: Holt, Eick and O'Brien, Handbook
    of Computational Group Theory, 4.1), each dropped once no pending
    element below it needs it. A representative's tree word, walked through
    the generators' full arrays, is a linear map and is certified against
    its matrix at the unit vectors; the array scanned is that word
    restricted to S."""
    parent, reps = group.parent, group.class_representatives
    matrices = group.leader_matrices
    wanted = set()  # the representatives and their ancestors
    for c in matrices:
        x = reps[c]
        while x and x not in wanted:
            wanted.add(x)
            x = parent[x][0]
    pending = Counter(parent[x][0] for x in wanted)  # children to build
    # the unit vectors' codes; (Z/1)^l is the one point 0
    units = [q ** j for j in range(group.rank)] if q > 1 else []
    support, position, steps = sorted(short), [0] * q ** group.rank, []
    for p, y in enumerate(support):
        position[y] = p
    for j, img in enumerate(gen_images):
        targets = list(map(img.__getitem__, support))
        steps.append(list(map(position.__getitem__, targets)))
        if list(map(support.__getitem__, steps[j])) != targets:
            raise CertificationFailed(
                f"generator {j} at q={q}: maps a code of a short orbit "
                f"outside the short orbits")
    images, fixed = {}, {}
    for x in sorted(wanted):  # parents first
        a, j = parent[x]  # a generator's own array serves as is
        images[x] = (list(map(images[a].__getitem__, steps[j])) if a
                     else steps[j])
        pending[a] -= 1
        if not pending[a]:
            images.pop(a, None)
        if (c := group.class_of[x]) in matrices and reps[c] == x:
            m, ends, y = matrices[c], units, x
            while y:  # the tree word, last letter first
                y, j = parent[y]
                ends = list(map(gen_images[j].__getitem__, ends))
            # column j of the matrix mod q, coded like a point
            if ends != [sum(v % q * u for v, u in zip(
                    m.entries[j::m.cols], units)) for j in range(len(units))]:
                raise CertificationFailed(
                    f"class {c} at q={q}: the composed image array of "
                    f"element {x} disagrees with its matrix")
            fixed[c] = [support[p] for p, z in enumerate(images[x]) if p == z]
            if not pending[x]:
                del images[x]
    return fixed


def enumerate_action(group: FiniteMatrixGroup, q: int) -> OrbitDecomposition:
    """The orbit decomposition of (Z/q)^l."""
    if q < 1:
        raise ValueError(f"q must be positive, got {q}")
    cap = resolve_cap()
    total = q ** group.rank
    if total > cap:
        raise EnumerationCapExceeded(
            f"(Z/{q})^{group.rank} has {total} points, over the cap {cap}; "
            f"raise it via {MAX_POINTS_ENV}")
    gen_images = [_image_array(m, q) for m in group.generator_matrices]
    order = group.order
    label = [-1] * total
    sizes, short = [], []  # short: the codes of orbits of fewer than |G|
    start = done = 0
    while done < total:
        start = label.index(-1, start)
        index = len(sizes)
        label[start] = index
        frontier = [start]
        for code in frontier:  # grows while scanned
            for img in gen_images:
                image = img[code]
                if label[image] < 0:
                    label[image] = index
                    frontier.append(image)
        sizes.append(n := len(frontier))
        if n < order:
            short += frontier
        done += n
    # x^k generates the group x does for k prime to its order, so such
    # powers fix the same points: each Galois family of classes is counted
    # once, at its leader; the identity class (0) fixes every point
    points = _fixed_points(group, gen_images, q, short)
    tallies = {c: Counter(map(label.__getitem__, codes))
               for c, codes in points.items()}
    # |Stab(x) ∩ C| = |C|·|Fix(rep_C) ∩ O|/|O| for every x in the orbit O;
    # x -> x^a maps a family's classes onto each other: one size, one tally
    for c in group.leaders[1:]:
        for index, hits in tallies[c].items():
            if group.class_sizes[c] * hits % sizes[index]:
                raise CertificationFailed(
                    f"class {c} at q={q}: {hits} fixed points in an orbit "
                    f"of {sizes[index]} do not divide evenly")
    fixed = (total, *(len(points[leader]) for leader, _ in group.families[1:]))
    return OrbitDecomposition(labels=label, orbit_sizes=tuple(sizes),
                              fixed_counts=fixed,
                              hit_orbits={c: frozenset(tally) for c, tally
                                          in tallies.items()})


def _family_weights(group: FiniteMatrixGroup,
                    table: CharacterTable) -> tuple[list, list, dict]:
    """Per row chi, its scale s·|G| and its integer weights s·Σ|C_c|·chi(c)
    over each Galois family, in the order of `group.leaders`, s the least
    that clears denominators; and, at degree 1, the families chi moves. A
    rational family sum equals the sum over conj chi(c) the inner product
    takes. A degree-1 row's values have the modulus of chi(1), so its sum
    is chi(1) times the trivial row's exactly when chi is chi(1) on F."""
    sums = family_sums(table)
    scales, weights = [], []
    for row in sums:
        s = lcm(*(v.denominator for v in row))
        scales.append(s * group.order)
        weights.append([int(v * s) for v in row])
    trivial = sums[table.trivial_index]
    moved = {i: frozenset(c for c, v, w in zip(group.leaders, row, trivial)
                          if v != w * row[0])
             for i, row in enumerate(sums) if table.degrees[i] == 1}
    return scales, weights, moved


def _linear_orbit_counts(moved: dict[int, frozenset[int]],
                         dec: OrbitDecomposition) -> dict[int, int]:
    """For each degree-1 row, the number of orbits whose isotropy lies in
    its kernel: those that no family it moves hits. Each distinct set of
    moved families is united once."""
    hit = {leaders: frozenset().union(*map(dec.hit_orbits.__getitem__,
                                           leaders))
           for leaders in set(moved.values())}
    return {i: dec.orbit_count - len(hit[leaders])
            for i, leaders in moved.items()}


def differential_check(group: FiniteMatrixGroup, table: CharacterTable,
                       multiplicities: tuple[GcdQuasiPolynomial, ...],
                       fixed_qps: tuple[GcdQuasiPolynomial, ...], *,
                       q_max: int) -> tuple[list[Verdict], int]:
    """Compare every symbolic prediction against enumeration for q up to
    q_max (clamped by the point cap). Returns the verdicts and the largest q
    actually enumerated. Predictions are compared in integers, as numerators
    over their denominator, each distinct object evaluated once per q."""
    cap = resolve_cap()
    scales, weights, moved = _family_weights(group, table)
    objects = [qp for qp, _ in rows_by_object((*fixed_qps, *multiplicities))]
    first_bad: dict[str, str] = {}  # the first mismatch of each check

    def compare(key, where, value, counted, scale=1, verb="counted"):
        num, den = value  # predicted num/den against counted/scale
        if num * scale != counted * den:
            first_bad.setdefault(key, f"{where}: predicted {Fraction(num, den)}"
                                 f", {verb} {Fraction(counted, scale)}")

    covered = 0
    for q in range(1, q_max + 1):
        if q ** group.rank > cap:
            break
        dec = enumerate_action(group, q)
        value = {id(qp): (horner(qp.numerators[gcd(qp.period, q)], q),
                          qp.denominator) for qp in objects}
        fixed, mults = ([value[id(qp)] for qp in qps]
                        for qps in (fixed_qps, multiplicities))
        for c, counted in enumerate(dec.fixed_counts):
            compare("fixed-points", f"class {c} at q={q}", fixed[c], counted)
        at_leaders = [dec.fixed_counts[c] for c in group.leaders]
        for i, row in enumerate(weights):
            compare("multiplicities", f"row {i} at q={q}", mults[i],
                    sum(map(mul, row, at_leaders)), scales[i])
        burnside = sum(map(mul, group.class_sizes, dec.fixed_counts))
        if burnside != dec.orbit_count * group.order:
            first_bad.setdefault("burnside", f"q={q}: {dec.orbit_count} orbits "
                                 f"but class-weighted fixed sum is {burnside}")
        compare("orbit-count", f"q={q}", mults[table.trivial_index],
                dec.orbit_count, verb="enumerated")
        for i, counted in _linear_orbit_counts(moved, dec).items():
            compare("linear-orbit-counts", f"row {i} at q={q}", mults[i],
                    counted)
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
