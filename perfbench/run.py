"""Benchmark runner for equichar.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout, in one process and one thread. Each
problem of the workload goes through the CLI entry point
equichar.cli.main(["analyze", "--input", FILE, "--format", "json"]) as a
closed loop with one client: the next problem starts only when the previous
report has been rendered. A pass runs every problem once; passes repeat
until S seconds have gone by.

Before timing, one pass runs the seed-0 inputs. Its reports are checked
against references that do not come from equichar, and every timed report
must equal them byte for byte, which also checks that the seed changes no
report.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 untraced and traced passes alternate and
it holds the per-layer metrics of the traced passes. The lines before it
give the environment and a readable summary.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 15
MAX_POINTS_ENV = "EQUICHAR_MAX_POINTS"
TRACED_MODULES = ("cli", "analysis", "characters", "bruteforce", "cyclo",
                  "gcdpoly")

SPAN_METRICS = (
    # (metric, span, kind): kind "s" is inclusive time, "self_s" self time
    ("cli.parse_input.s", "cli.parse_input", "s"),
    ("cli.render.s", "cli.render", "s"),
    ("groups.generate_group.s", "groups.generate_group", "s"),
    ("intmat.smith_normal_form.s", "intmat.smith_normal_form", "s"),
    ("intmat.smith_normal_form.calls", "intmat.smith_normal_form", "calls"),
    ("characters.dixon_character_table.self_s",
     "characters.dixon_character_table", "self_s"),
    ("characters.ingest_character_table.self_s",
     "characters.ingest_character_table", "self_s"),
    ("characters.build_table.s", "characters.build_table", "s"),
    ("cyclo.mul.calls", "cyclo.mul", "calls"),
    ("cyclo.add.calls", "cyclo.add", "calls"),
    ("cyclo.conjugate.calls", "cyclo.conjugate", "calls"),
    ("gcdpoly.evaluate.calls", "gcdpoly.evaluate", "calls"),
    ("gcdpoly.constituent.calls", "gcdpoly.constituent", "calls"),
    ("analysis.class_divisor_data.self_s", "analysis.class_divisor_data",
     "self_s"),
    ("analysis.equivariant_qp.s", "analysis.equivariant_qp", "s"),
    ("analysis.reciprocity_character.s", "analysis.reciprocity_character",
     "s"),
    ("analysis.check_reciprocity.s", "analysis.check_reciprocity", "s"),
    ("analysis.verdicts.self_s", "analysis.verdicts", "self_s"),
    ("bruteforce.enumerate_action.s", "bruteforce.enumerate_action", "s"),
    ("bruteforce.enumerate_action.calls", "bruteforce.enumerate_action",
     "calls"),
    ("bruteforce.differential_check.self_s", "bruteforce.differential_check",
     "self_s"),
)
UNITS = {"s": "s", "self_s": "s", "calls": "count"}


class Outcome(NamedTuple):
    """One problem run through the CLI: exit code (None when the CLI raised)
    and captured standard output, followed by standard error when the exit
    code is not 0, or the traceback."""

    code: int | None
    text: str


def import_equichar() -> dict:
    """Import equichar afresh and return the modules the tracer patches."""
    for name in [m for m in sys.modules
                 if m == "equichar" or m.startswith("equichar.")]:
        del sys.modules[name]
    importlib.import_module("equichar.cli")
    return {m: sys.modules[f"equichar.{m}"] for m in TRACED_MODULES}


def run_problem(cli_main, path: Path, verify: bool) -> Outcome:
    argv = ["analyze", "--input", str(path), "--format", "json"]
    if not verify:
        argv.append("--no-verify")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except Exception:  # a traceback is a failed problem, not a crash
            return Outcome(None, traceback.format_exc())
    return Outcome(code, out.getvalue() + (err.getvalue() if code else ""))


def run_pass(cli_main, paths: list[Path],
             verify: bool) -> tuple[float, list[Outcome]]:
    outcomes = []
    start = perf_counter()
    for path in paths:
        outcomes.append(run_problem(cli_main, path, verify))
    return perf_counter() - start, outcomes


def check_reference(workload: workloads.Workload,
                    outcomes: list[Outcome]) -> list[str]:
    """One message per problem whose seed-0 report is wrong, else ''."""
    messages = []
    for problem, outcome in zip(workload.problems, outcomes):
        if outcome.code != 0:
            messages.append(f"exit {outcome.code}: {outcome.text[-200:]}")
            continue
        try:
            report = json.loads(outcome.text)
        except json.JSONDecodeError as exc:
            messages.append(f"report is not JSON: {exc}")
            continue
        messages.append("; ".join(workloads.check_report(problem, report,
                                                         workload.verify)))
    return messages


def count_failed(outcomes: list[Outcome], reference: list[Outcome],
                 messages: list[str]) -> int:
    """Executions that exited nonzero, differ from the reference report, or
    belong to a problem whose reference report is wrong."""
    return sum(o.code != 0 or o.text != r.text or bool(m)
               for o, r, m in zip(outcomes, reference, messages))


def layer_metrics(tracer: spans.Tracer, wall: float,
                  reports: list[dict]) -> dict[str, tuple[float, str]]:
    tables = {"s": tracer.inclusive, "self_s": tracer.self_time,
              "calls": tracer.calls}
    out = {metric: (tables[kind][span], UNITS[kind])
           for metric, span, kind in SPAN_METRICS}
    counts = tracer.counts
    out["groups.order"] = (counts["groups.order"], "count")
    out["groups.classes"] = (counts["groups.classes"], "count")
    points = counts["bruteforce.points"]
    busy = tracer.inclusive["bruteforce.enumerate_action"]
    out["bruteforce.points"] = (points, "count")
    out["bruteforce.points_per_s"] = (points / busy if busy else 0.0, "1/s")
    covered = sum(r["verification"]["oracle_q_max"] for r in reports)
    asked = sum(r["verification"]["q_max"] for r in reports)
    out["bruteforce.coverage"] = (covered / asked if asked else 0.0, "ratio")
    out["trace.unattributed_s"] = (wall - tracer.root_time, "s")
    return out


def read_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog-oracle", "large-group-symbolic",
                                 "cyclic-conductor-symbolic"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "equichar" / "__init__.py").is_file():
        print(f"error: no equichar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the oracle's point cap stays at its default
    os.environ.pop(MAX_POINTS_ENV, None)
    workload = workloads.workloads(ROOT)[args.workload]

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="perfbench-", dir=build) as tmp:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            modules = import_equichar()
            reference_files = workloads.write_problems(
                workload, 0, Path(tmp) / "seed-0")
            files = workloads.write_problems(
                workload, args.seed, Path(tmp) / f"seed-{args.seed}")
            setup_times.append(perf_counter() - start)
        cli_main = modules["cli"].main

        _, reference = run_pass(cli_main, reference_files, workload.verify)
        messages = check_reference(workload, reference)
        reports = [json.loads(o.text) for o, m in zip(reference, messages)
                   if not m]

        tracer = spans.Tracer(modules)
        walls, traced_walls, layer_samples = [], [], []
        attempted, failed = len(reference), sum(bool(m) for m in messages)

        # with tracing, untraced and traced passes alternate
        start = perf_counter()
        for traced in itertools.cycle((False, True) if args.trace else (False,)):
            if (walls and (traced_walls or not args.trace)
                    and perf_counter() - start >= args.seconds):
                break
            if traced:
                tracer.reset()
                with tracer:
                    wall, outcomes = run_pass(cli_main, files, workload.verify)
                traced_walls.append(wall)
                layer_samples.append(layer_metrics(tracer, wall, reports))
            else:
                wall, outcomes = run_pass(cli_main, files, workload.verify)
                walls.append(wall)
            attempted += len(outcomes)
            failed += count_failed(outcomes, reference, messages)

    wall_s = statistics.median(walls)
    setup_s = statistics.median(setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"python {platform.python_version()} commit {read_commit(ROOT)} "
          f"nproc {os.cpu_count()}")
    for problem, message in zip(workload.problems, messages):
        if message:
            print(f"reference mismatch on {problem.name}: {message}")
    print(f"wall_s median {wall_s:.4f} over {len(walls)} untraced passes: "
          + " ".join(f"{w:.3f}" for w in walls))
    print(f"setup_s median {setup_s:.4f} over {len(setup_times)} set-ups")
    print(f"peak_rss_mb {peak_rss_mb:.1f}")
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted}")

    if args.trace:
        metrics = {
            name: {"value": statistics.median(s[name][0]
                                              for s in layer_samples),
                   "unit": unit}
            for name, (_, unit) in layer_samples[0].items()}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(traced_walls) - wall_s, "unit": "s"}
        for name, entry in metrics.items():
            print(f"{name} {entry['value']} {entry['unit']}")
    else:
        metrics = {"wall_s": {"value": wall_s, "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
