"""List the statements of src/equichar that the in-process tests never run.

    python3 scripts/uncovered.py [PYTEST_ARGS ...]

Runs pytest in this process (by default on tests/, as `-q
--continue-on-collection-errors`) under a `sys.settrace` line tracer that
watches only src/equichar. It then prints, file by file, the first line of
each statement that carries bytecode but never ran, and their total. Code
that tests run in a subprocess is not seen. The tracer slows the suite
about 3x, so this script is not part of it. Standard library only.
"""

from __future__ import annotations

import ast
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "equichar"


def statement_lines(path: Path) -> set[int]:
    """First lines of the statements that compile to bytecode, without
    docstrings."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    docstrings = {node.body[0].lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef,
                                       ast.FunctionDef, ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None}
    starts = {node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.stmt)} - docstrings
    with_code, stack = set(), [compile(tree, str(path), "exec")]
    while stack:
        code = stack.pop()
        with_code.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts
                     if isinstance(c, types.CodeType))
    return starts & with_code


def main(argv: list[str]) -> int:
    prefix = str(PACKAGE) + "/"
    executed: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def watch(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    threading.settrace(watch)
    sys.settrace(watch)
    try:
        status = pytest.main(argv or ["-q", "--continue-on-collection-errors",
                                      "-p", "no:cacheprovider",
                                      str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missing = sorted(line for line in statement_lines(path)
                         if (str(path), line) not in executed)
        total += len(missing)
        if missing:
            print(f"{path.relative_to(ROOT)}: "
                  f"{', '.join(map(str, missing))}")
    print(f"{total} statements never run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
