import json
from pathlib import Path

import pytest

from equichar import (FiniteMatrixGroup, GcdQuasiPolynomial, IntMatrix,
                      dixon_character_table, generate_group)
from equichar.cli import builtin

DATA_DIR = Path(__file__).parent / "data"
PROBLEMS_DIR = Path(__file__).parent.parent / "problems"

BUILTIN_NAMES = ("c6-z2", "c6-z3", "s3-a2", "trivial-z2", "dihedral-z2")


def load_reference_table(name: str) -> dict:
    return json.loads((DATA_DIR / name).read_text())


def make_builtin_group(name: str) -> FiniteMatrixGroup:
    spec = builtin(name)
    return generate_group(spec.generators, rank=spec.rank)


@pytest.fixture(scope="session")
def groups() -> dict[str, FiniteMatrixGroup]:
    return {name: make_builtin_group(name) for name in BUILTIN_NAMES}


@pytest.fixture(scope="session")
def tables(groups):
    return {name: dixon_character_table(group)
            for name, group in groups.items()}


@pytest.fixture(scope="session")
def c6_group(groups):
    return groups["c6-z2"]


@pytest.fixture(scope="session")
def s3_group(groups):
    return groups["s3-a2"]


@pytest.fixture(scope="session")
def d4_group(groups):
    return groups["dihedral-z2"]


def mat(rows) -> IntMatrix:
    return IntMatrix.from_rows(rows)


def plus_one(qp: GcdQuasiPolynomial, divisors=None) -> GcdQuasiPolynomial:
    """qp + 1 on the residue classes of the given divisors of its period,
    all of them by default. Adding the denominator to a numerator keeps the
    table reduced."""
    table = dict(qp.numerators)
    for d in divisors or table:
        nums = list(table[d] or [0])
        nums[0] += qp.denominator
        while nums and nums[-1] == 0:
            nums.pop()
        table[d] = tuple(nums)
    return GcdQuasiPolynomial(qp.period, qp.denominator, table)


# the companion matrices of Phi_3 = 1 + x + x^2 and of Phi_7 = 1 + x + ... + x^6
# side by side: a generator of C21 on Z^8, of conductor 21, whose elements
# have orders 1, 3, 7 and 21
C21_GENERATOR = (
    (0, -1, 0, 0, 0, 0, 0, 0),
    (1, -1, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, -1),
    (0, 0, 1, 0, 0, 0, 0, -1),
    (0, 0, 0, 1, 0, 0, 0, -1),
    (0, 0, 0, 0, 1, 0, 0, -1),
    (0, 0, 0, 0, 0, 1, 0, -1),
    (0, 0, 0, 0, 0, 0, 1, -1),
)


@pytest.fixture(scope="session")
def c21_group() -> FiniteMatrixGroup:
    return generate_group([mat(C21_GENERATOR)], rank=8)


def signed_permutation(perm, signs) -> IntMatrix:
    """The matrix sending e_col to signs[col] * e_perm[col]."""
    n = len(perm)
    entries = [0] * (n * n)
    for col, row in enumerate(perm):
        entries[row * n + col] = signs[col]
    return IntMatrix(n, n, tuple(entries))


def signed_permutation_generators(n: int) -> list[IntMatrix]:
    """An n-cycle, a transposition and one sign change: generators of the
    hyperoctahedral group B_n of order 2^n n!."""
    ones = (1,) * n
    return [signed_permutation(list(range(1, n)) + [0], ones),
            signed_permutation([1, 0] + list(range(2, n)), ones),
            signed_permutation(range(n), (-1,) + ones[1:])]


def weyl_group_generators(cartan) -> list[IntMatrix]:
    """Simple reflections s_i(alpha_j) = alpha_j - C_ij alpha_i on the root
    lattice, in the basis of simple roots."""
    n = len(cartan)
    return [mat([[(r == j) - (r == i) * cartan[i][j] for j in range(n)]
                 for r in range(n)])
            for i in range(n)]


# Bourbaki numbering
CARTAN_F4 = ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2))
