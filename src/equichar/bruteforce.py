"""Brute-force orbit enumeration on (Z/q)^l, used as an independent check
on the symbolic pipeline.

Everything here is deliberately dumb: points are enumerated one by one,
fixed points are counted by applying matrices, orbits come from a BFS over
generator moves, and multiplicities are computed from the textbook inner
product against actual fixed-point counts. None of it shares code with the
Smith-form route, which is the point.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

from .characters import CharacterTable
from .checks import Verdict
from .errors import EnumerationCapExceeded, ValidationError
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


def _decode(code: int, q: int, rank: int) -> tuple[int, ...]:
    coords = []
    for _ in range(rank):
        code, digit = divmod(code, q)
        coords.append(digit)
    return tuple(coords)


def _encode(coords: tuple[int, ...], q: int) -> int:
    code = 0
    for digit in reversed(coords):
        code = code * q + digit
    return code


def _apply(mat: IntMatrix, coords: tuple[int, ...], q: int) -> tuple[int, ...]:
    return tuple(
        sum(mat.entry(i, j) * coords[j] for j in range(mat.cols)) % q
        for i in range(mat.rows))


@dataclass(frozen=True)
class OrbitDecomposition:
    """Complete orbit data of a group action on (Z/q)^l. Points are encoded
    as integers in mixed radix q; each orbit is sorted and orbits are sorted
    by smallest member, so the whole object is deterministic."""

    q: int
    lattice_rank: int
    orbits: tuple[tuple[int, ...], ...]
    isotropy: tuple[tuple[int, ...], ...]
    fixed_counts: tuple[int, ...]

    def decode(self, code: int) -> tuple[int, ...]:
        return _decode(code, self.q, self.lattice_rank)

    @property
    def orbit_count(self) -> int:
        return len(self.orbits)


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
    gens = [group.elements[i] for i in group.generator_indices]
    visited = bytearray(total)
    orbits = []
    isotropy = []
    for start in range(total):
        if visited[start]:
            continue
        visited[start] = 1
        frontier = [start]
        members = [start]
        while frontier:
            code = frontier.pop()
            coords = _decode(code, q, group.rank)
            for gen in gens:
                image = _encode(_apply(gen, coords, q), q)
                if not visited[image]:
                    visited[image] = 1
                    frontier.append(image)
                    members.append(image)
        members.sort()
        rep = _decode(members[0], q, group.rank)
        stab = tuple(idx for idx, mat in enumerate(group.elements)
                     if _apply(mat, rep, q) == rep)
        orbits.append(tuple(members))
        isotropy.append(stab)
    counts = []
    for rep_idx in group.class_representatives:
        mat = group.elements[rep_idx]
        fixed = 0
        for code in range(total):
            coords = _decode(code, q, group.rank)
            if _apply(mat, coords, q) == coords:
                fixed += 1
        counts.append(fixed)
    return OrbitDecomposition(q=q, lattice_rank=group.rank,
                              orbits=tuple(orbits), isotropy=tuple(isotropy),
                              fixed_counts=tuple(counts))


def brute_multiplicities(group: FiniteMatrixGroup, table: CharacterTable,
                         dec: OrbitDecomposition) -> tuple[Fraction, ...]:
    """Inner product of each table row against the counted permutation
    character: (1/|G|) sum over classes of size * conj(value) * fixed."""
    out = []
    for row in table.rows:
        total = 0
        for c in range(group.class_count):
            total = total + (row.values[c].conjugate()
                             * (group.class_sizes[c] * dec.fixed_counts[c]))
        value = (total * Fraction(1, group.order)).as_fraction()
        out.append(value)
    return tuple(out)


def brute_orbit_count_for_linear(group: FiniteMatrixGroup,
                                 table: CharacterTable,
                                 dec: OrbitDecomposition, index: int) -> int:
    """Number of orbits whose isotropy lies in the kernel of the degree-1
    row `index`."""
    row = table.rows[index]
    one = row.values[0]
    count = 0
    for stab in dec.isotropy:
        if all(row.values[group.class_of[g]] == one for g in stab):
            count += 1
    return count


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
