"""Rules on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "equichar"


def test_no_assert_statements():
    # python -O strips assert, and certification must not depend on it
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
