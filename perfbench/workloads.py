"""Workloads of the equichar benchmark: generators written out by hand, the
seeded conjugation that makes a workload's inputs, the problem files handed
to the CLI, and references that do not come from equichar.

Seed 0 uses the generators exactly as written. Any other seed conjugates
every generator of every problem by one seeded signed permutation matrix U
per lattice rank. Conjugation is an isomorphism of the actions that keeps the
BFS element order and every Smith form, so a report must not depend on the
seed byte for byte.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from pathlib import Path
from typing import Callable

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    return [[sum(a[i][t] * b[t][j] for t in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def permutation_matrix(images: list[int]) -> Matrix:
    """Matrix sending basis vector e_j to e_images[j]."""
    n = len(images)
    mat = [[0] * n for _ in range(n)]
    for j, i in enumerate(images):
        mat[i][j] = 1
    return mat


def companion(poly: list[int]) -> Matrix:
    """Companion matrix of a monic integer polynomial, coefficients low to
    high without the leading 1."""
    n = len(poly)
    mat = [[0] * n for _ in range(n)]
    for i in range(1, n):
        mat[i][i - 1] = 1
    for i, c in enumerate(poly):
        mat[i][n - 1] = -c
    return mat


def block_diagonal(*blocks: Matrix) -> Matrix:
    n = sum(len(b) for b in blocks)
    mat = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            mat[offset + i][offset:offset + len(row)] = row
        offset += len(b)
    return mat


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------

def _closure(gens: list[Matrix], rank: int) -> list[Matrix]:
    elements = [identity(rank)]
    seen = {str(elements[0])}
    for x in elements:
        for g in gens:
            y = matmul(x, g)
            if str(y) not in seen:
                seen.add(str(y))
                elements.append(y)
    return elements


def enumerated_orbit_count(gens: list[Matrix], rank: int, q: int) -> int:
    """Orbits of the generated group on (Z/q)^rank, by Burnside's lemma over
    fixed points counted point by point. Shares no code with equichar."""
    points = [[]]
    for _ in range(rank):
        points = [p + [x] for p in points for x in range(q)]
    elements = _closure(gens, rank)
    fixed = 0
    for g in elements:
        for p in points:
            if all(sum(g[i][j] * p[j] for j in range(rank)) % q == p[i]
                   for i in range(rank)):
                fixed += 1
    count, rem = divmod(fixed, len(elements))
    if rem:
        raise ArithmeticError("Burnside sum not divisible by the group order")
    return count


def c21_orbits(q: int) -> int:
    value = Fraction((q * q + 2 * gcd(3, q)) * (q ** 6 + 6 * gcd(7, q)), 21)
    if value.denominator != 1:
        raise ArithmeticError(f"C21 orbit formula not integral at q={q}")
    return int(value)


# ---------------------------------------------------------------------------
# problems and workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Problem:
    name: str
    rank: int
    generators: tuple
    character_table: dict | None = None
    # q -> orbit count from a closed formula, checked for q in 1..ORBIT_Q_MAX
    orbit_formula: Callable[[int], int] | None = None
    # (order, class count, period)
    invariants: tuple[int, int, int] | None = None

    def payload(self, seed: int) -> dict:
        gens = [conjugate(g, seed) for g in self.generators]
        out = {"name": self.name, "rank": self.rank, "generators": gens}
        if self.character_table is not None:
            out["character_table"] = self.character_table
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    verify: bool
    problems: tuple[Problem, ...]


ORBIT_Q_MAX = 60
# q range of the benchmark's own enumeration for problems without a formula
ENUMERATED_Q_MAX = 6

ORACLE_VERDICTS = ("oracle-fixed-points", "oracle-multiplicities",
                   "oracle-burnside", "oracle-orbit-count",
                   "oracle-linear-orbit-counts")


def _catalog(root: Path) -> tuple[Problem, ...]:
    supplied = json.loads(
        (root / "problems" / "c6_z2_with_table.json").read_text(encoding="utf-8"))
    return (
        Problem("c6-z2", 2, ([[0, 1], [-1, 1]],)),
        Problem("c6-z3", 3, ([[-1, -1, 0], [1, 0, 0], [0, 0, -1]],)),
        Problem("dihedral-z2", 2, ([[0, 1], [-1, 0]], [[0, 1], [1, 0]])),
        Problem("s3-a2", 2, ([[-1, 1], [0, 1]], [[0, -1], [1, -1]])),
        Problem("trivial-z2", 2, (), orbit_formula=lambda q: q * q),
        Problem(supplied["name"], supplied["rank"],
                tuple(supplied["generators"]),
                character_table=supplied["character_table"]),
    )


B4 = Problem(
    "b4", 4,
    (permutation_matrix([1, 0, 2, 3]),
     permutation_matrix([1, 2, 3, 0]),
     [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
    orbit_formula=lambda q: comb(q // 2 + 4, 4),
    invariants=(384, 20, 2))

S6 = Problem(
    "s6", 6,
    (permutation_matrix([1, 0, 2, 3, 4, 5]),
     permutation_matrix([1, 2, 3, 4, 5, 0])),
    orbit_formula=lambda q: comb(q + 5, 6),
    invariants=(720, 11, 1))

# companion matrices of Phi_3 and Phi_7 side by side: C21 with conductor 21
C21 = Problem(
    "c21", 8,
    (block_diagonal(companion([1, 1]), companion([1] * 6)),),
    orbit_formula=c21_orbits,
    invariants=(21, 21, 21))


def workloads(root: Path) -> dict[str, Workload]:
    return {w.name: w for w in (
        Workload("catalog-oracle", True, _catalog(root)),
        Workload("large-group-symbolic", False, (B4, S6)),
        Workload("cyclic-conductor-symbolic", False, (C21,)),
    )}


# ---------------------------------------------------------------------------
# seeded conjugation
# ---------------------------------------------------------------------------

def conjugator(rank: int, seed: int) -> tuple[Matrix, Matrix]:
    """A seeded signed permutation matrix U and its inverse. Seed 0 gives
    the identity.

    U is monomial so that every seed keeps the generators' sparsity:
    equichar's matrix product skips zero entries, and a dense U would make
    the work depend on the seed."""
    if seed == 0:
        return identity(rank), identity(rank)
    rng = random.Random(f"{seed}:{rank}")
    images = list(range(rank))
    rng.shuffle(images)
    signs = [rng.choice((-1, 1)) for _ in range(rank)]
    if rank > 1 and images == sorted(images) and len(set(signs)) == 1:
        signs[0] = -signs[0]  # +-I would leave every generator unchanged
    u = permutation_matrix(images)
    for j, i in enumerate(images):
        u[i][j] = signs[j]
    u_inv = [list(col) for col in zip(*u)]
    if matmul(u, u_inv) != identity(rank):
        raise ArithmeticError("conjugator inverse is wrong")
    return u, u_inv


def conjugate(g: Matrix, seed: int) -> Matrix:
    u, u_inv = conjugator(len(g), seed)
    return matmul(matmul(u, g), u_inv)


def write_problems(workload: Workload, seed: int, directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for pos, problem in enumerate(workload.problems):
        path = directory / f"{pos:02d}-{problem.name}.json"
        path.write_text(json.dumps(problem.payload(seed)), encoding="utf-8")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# checking a report
# ---------------------------------------------------------------------------

def orbit_count_from_report(report: dict, q: int) -> Fraction:
    """Evaluate the trivial row's orbit count at q from the report's JSON
    constituent at gcd(period, q), by Horner's rule."""
    trivial = report["character_table"]["trivial_index"]
    entry = next(e for e in report["orbit_counts"]
                 if e["character_index"] == trivial)
    qp = entry["quasi_polynomial"]
    poly = qp["constituents"][str(gcd(qp["period"], q))]
    value = Fraction(0)
    for num, den in reversed(poly):
        value = value * q + Fraction(num, den)
    return value


def check_report(problem: Problem, report: dict, verify: bool) -> list[str]:
    """Every way the report disagrees with the references; empty when it
    agrees."""
    problems = []
    verification = report["verification"]
    failed = [v["name"] for v in verification["verdicts"] if not v["passed"]]
    if failed or not verification["all_passed"]:
        problems.append(f"failed verdicts {failed}")
    if verify:
        names = {v["name"] for v in verification["verdicts"]}
        missing = [n for n in ORACLE_VERDICTS if n not in names]
        if missing:
            problems.append(f"missing oracle verdicts {missing}")
    if problem.invariants is not None:
        group = report["group"]
        seen = (group["order"], len(group["class_sizes"]), report["period"])
        if seen != problem.invariants:
            problems.append(f"order/classes/period {seen}, "
                            f"expected {problem.invariants}")
    if problem.orbit_formula is not None:
        reference, q_max = problem.orbit_formula, ORBIT_Q_MAX
    else:
        reference = functools.partial(enumerated_orbit_count,
                                      list(problem.generators), problem.rank)
        q_max = ENUMERATED_Q_MAX
    for q in range(1, q_max + 1):
        got, want = orbit_count_from_report(report, q), reference(q)
        if got != want:
            problems.append(f"orbit count at q={q}: {got}, expected {want}")
            break
    return problems
