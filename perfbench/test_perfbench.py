"""Tests of the benchmark itself. Run from the repository root with

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import pytest

import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))

ALL = workloads.workloads(run.ROOT)
CATALOG = ALL["catalog-oracle"]
BY_NAME = {p.name: p for p in CATALOG.problems}


@pytest.fixture(scope="module")
def modules():
    return run.import_equichar()


def reports_for(modules, workload, seed, directory):
    paths = workloads.write_problems(workload, seed, directory)
    _, outcomes = run.run_pass(modules["cli"].main, paths, workload.verify)
    return outcomes


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
@pytest.mark.parametrize("rank", [2, 3, 4, 6, 8])
def test_conjugator_is_unimodular_with_exact_inverse(seed, rank):
    u, u_inv = workloads.conjugator(rank, seed)
    assert workloads.matmul(u, u_inv) == workloads.identity(rank)
    assert (u == workloads.identity(rank)) == (seed == 0)
    # monomial: one entry +-1 in every row and column
    assert all(sorted(map(abs, row)) == [0] * (rank - 1) + [1] for row in u)
    assert workloads.conjugator(rank, seed) == (u, u_inv)


@pytest.mark.parametrize("problem, q_max", [
    (workloads.B4, 4), (workloads.S6, 2), (workloads.C21, 3)])
def test_formulas_match_own_enumeration(problem, q_max):
    for q in range(1, q_max + 1):
        assert problem.orbit_formula(q) == workloads.enumerated_orbit_count(
            list(problem.generators), problem.rank, q)


@pytest.mark.parametrize("name", sorted(ALL))
def test_references_hold_on_seed_0(modules, tmp_path, name):
    outcomes = reports_for(modules, ALL[name], 0, tmp_path)
    assert run.check_reference(ALL[name], outcomes) == [""] * len(outcomes)


@pytest.mark.parametrize("workload", [
    CATALOG,
    workloads.Workload("b4", False, (workloads.B4,)),
    ALL["cyclic-conductor-symbolic"]], ids=lambda w: w.name)
def test_two_seeds_give_identical_report_bytes(modules, tmp_path, workload):
    # a second seed whose inputs differ from seed 1's in every problem
    other = next(s for s in range(2, 100)
                 if all(p.payload(s) != p.payload(1)
                        for p in workload.problems if p.generators))
    texts = {}
    for seed in (1, other):
        outcomes = reports_for(modules, workload, seed, tmp_path / str(seed))
        assert all(o.code == 0 for o in outcomes)
        texts[seed] = [o.text for o in outcomes]
    assert texts[1] == texts[other]


def test_traced_run_gives_untraced_bytes(modules, tmp_path):
    # a supplied table and a Dixon table, both checked by the oracle
    workload = workloads.Workload(
        "traced", True, (BY_NAME["c6-z2-with-table"], BY_NAME["dihedral-z2"]))
    plain = reports_for(modules, workload, 3, tmp_path / "plain")
    tracer = spans.Tracer(modules)
    with tracer:
        traced = reports_for(modules, workload, 3, tmp_path / "traced")
    assert [o.text for o in traced] == [o.text for o in plain]
    for _, _, name in spans.SPANS:
        assert tracer.calls[name] > 0, name
    assert tracer.counts["groups.order"] == 6 + 8


def test_every_wrapped_attribute_is_restored(modules):
    owners = ([(modules[m], attr) for m, attr, _ in spans.SPANS]
              + [(getattr(modules[m], cls), attr)
                 for m, cls, attr, _ in spans.COUNTS])
    before = [vars(owner)[attr] for owner, attr in owners]
    tracer = spans.Tracer(modules)
    with pytest.raises(RuntimeError):
        with tracer:
            assert all(vars(owner)[attr] is not original
                       for (owner, attr), original in zip(owners, before))
            raise RuntimeError("leave the traced region early")
    assert all(vars(owner)[attr] is original
               for (owner, attr), original in zip(owners, before))


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_every_declared_metric(trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "cyclic-conductor-symbolic", "--seed",
                         "4", "--seconds", "0.01", "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog-oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
