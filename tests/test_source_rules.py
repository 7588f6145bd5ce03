"""Rules on the package source itself."""

import ast
import importlib
import types
from pathlib import Path

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "equichar"


def test_no_assert_statements():
    # python -O strips assert, and certification must not depend on it
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_oracle_stays_off_the_smith_form_route():
    # the oracle checks the Smith-form route, so it may not import it or
    # cyclotomic arithmetic: it reads a table through `family_sums`, its
    # degrees and its trivial index alone
    path = SRC / "bruteforce.py"
    banned, imported, read = {"analysis", "cyclo", "smith_normal_form"}, [], set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            imported += [part for alias in node.names
                         for part in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            imported += [*(node.module or "").split("."),
                         *(alias.name for alias in node.names)]
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "table"):
            read.add(node.attr)
    assert banned.isdisjoint(imported)
    assert "family_sums" in imported
    assert read == {"degrees", "trivial_index"}


def test_benchmark_trace_targets_exist():
    # the benchmark's tracer replaces these attributes by name, through
    # vars(), so a renamed function or a moved import breaks traced runs
    # alone. The table is compiled from its source, which stays untouched.
    path = ROOT / "perfbench" / "spans.py"
    spans = types.ModuleType("spans")
    exec(compile(path.read_text(), str(path), "exec"), vars(spans))
    for module, attr, _ in spans.SPANS:
        owner = importlib.import_module(f"equichar.{module}")
        assert attr in vars(owner), (module, attr)
    for module, cls, attr, _ in spans.COUNTS:
        owner = getattr(importlib.import_module(f"equichar.{module}"), cls)
        assert attr in vars(owner), (module, cls, attr)


def test_every_error_class_names_a_stage_and_is_raised():
    # the CLI prints every error with its stage, and an error class with
    # no raise site is dead code
    raised = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                raised.add(getattr(func, "id", getattr(func, "attr", None)))
    errors = importlib.import_module("equichar.errors")
    classes = [cls for cls in vars(errors).values() if isinstance(cls, type)
               and issubclass(cls, errors.EquicharError)
               and cls is not errors.EquicharError]
    assert [cls.__name__ for cls in classes if cls.stage is None] == []
    assert [cls.__name__ for cls in classes if cls.__name__ not in raised] == []


def test_readme_library_example_runs():
    # README's first python block is the documented library API; run it
    # as written so that a renamed function or attribute shows here
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    report = namespace["report"]
    assert (report.period, report.all_passed) == (6, True)
