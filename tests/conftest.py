import json
from pathlib import Path

import pytest

from equichar import (FiniteMatrixGroup, IntMatrix, dixon_character_table,
                      generate_group)
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
