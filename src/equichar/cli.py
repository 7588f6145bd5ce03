"""Command line driver: parse a problem description, run the analysis, and
render the result as text, JSON, or LaTeX.

Problem files are JSON:

    {
      "name": "c6-z2",
      "rank": 2,
      "generators": [[[0, 1], [-1, 1]]],
      "character_table": {...optional, see below...},
      "options": {"q_max": 24, "max_order": 100000,
                  "format": "text", "verify": true}
    }

A supplied character table overrides the built-in table computation and uses
the exchange schema {"conductor": m, "classes": [...], "rows": [[[num, den]
per power of the m-th root of unity] per class] per row}.

Exit codes: 0 when every verification verdict passes, 1 when the analysis
ran but some verdict failed, 2 for input or pipeline errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, replace
from math import gcd
from pathlib import Path

from .analysis import AnalysisReport, analyze, report_to_dict
from .bruteforce import MAX_POINTS_ENV
from .errors import EquicharError, ParseError, UnknownExample, ValidationError
from .gcdpoly import divisors_of, rows_by_object
from .groups import DEFAULT_MAX_ORDER, generate_group
from .intmat import IntMatrix

FORMATS = ("text", "json", "latex")


@dataclass(frozen=True)
class ProblemOptions:
    q_max: int | None = None
    max_order: int = DEFAULT_MAX_ORDER
    output_format: str = "text"
    verify: bool = True


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    rank: int
    generators: tuple[IntMatrix, ...]
    character_table: dict | None = None
    options: ProblemOptions = ProblemOptions()


BUILTINS: dict[str, dict] = {
    "c6-z2": {
        "description": "cyclic group of order 6 acting on Z^2",
        "rank": 2,
        "generators": [[[0, 1], [-1, 1]]],
    },
    "c6-z3": {
        "description": "cyclic group of order 6 acting on Z^3",
        "rank": 3,
        "generators": [[[-1, -1, 0], [1, 0, 0], [0, 0, -1]]],
    },
    "s3-a2": {
        "description": "symmetric group of degree 3 on the A2 root lattice",
        "rank": 2,
        "generators": [[[-1, 1], [0, 1]], [[0, -1], [1, -1]]],
    },
    "trivial-z2": {
        "description": "trivial group acting on Z^2",
        "rank": 2,
        "generators": [],
    },
    "dihedral-z2": {
        "description": "dihedral group of order 8 acting on Z^2",
        "rank": 2,
        "generators": [[[0, 1], [-1, 0]], [[0, 1], [1, 0]]],
    },
}

def builtin(name: str) -> ProblemSpec:
    if name not in BUILTINS:
        known = ", ".join(sorted(BUILTINS))
        raise UnknownExample(f"unknown builtin {name!r}; available: {known}")
    entry = BUILTINS[name]
    gens = tuple(IntMatrix.from_rows(rows) for rows in entry["generators"])
    return ProblemSpec(name=name, rank=entry["rank"], generators=gens)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _positive_int(value: object) -> bool:
    # bool is an int subclass; true must not pass as 1
    return type(value) is int and value >= 1


def _parse_options(raw: object) -> ProblemOptions:
    _require(isinstance(raw, dict), "options must be an object")
    allowed = {"q_max", "max_order", "format", "verify"}
    unknown = set(raw) - allowed
    _require(not unknown, f"unknown options keys: {sorted(unknown)}")
    opts = ProblemOptions()
    if "q_max" in raw:
        _require(_positive_int(raw["q_max"]),
                 "options.q_max must be a positive integer")
        opts = replace(opts, q_max=raw["q_max"])
    if "max_order" in raw:
        _require(_positive_int(raw["max_order"]),
                 "options.max_order must be a positive integer")
        opts = replace(opts, max_order=raw["max_order"])
    if "format" in raw:
        _require(raw["format"] in FORMATS,
                 f"options.format must be one of {FORMATS}")
        opts = replace(opts, output_format=raw["format"])
    if "verify" in raw:
        _require(isinstance(raw["verify"], bool),
                 "options.verify must be a boolean")
        opts = replace(opts, verify=raw["verify"])
    return opts


def parse_input(path: str | Path) -> ProblemSpec:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    _require(isinstance(payload, dict), f"{path}: top level must be an object")
    allowed = {"name", "rank", "generators", "character_table", "options"}
    unknown = set(payload) - allowed
    _require(not unknown, f"{path}: unknown keys: {sorted(unknown)}")
    name = payload.get("name", path.stem)
    _require(isinstance(name, str) and name, "name must be a nonempty string")
    _require("rank" in payload, "missing required field: rank")
    rank = payload["rank"]
    _require(_positive_int(rank), "rank must be a positive integer")
    raw_gens = payload.get("generators", [])
    _require(isinstance(raw_gens, list), "generators must be a list")
    gens = []
    for pos, rows in enumerate(raw_gens):
        label = f"generators[{pos}]"
        _require(isinstance(rows, list) and len(rows) == rank,
                 f"{label} must have {rank} rows")
        for row in rows:
            _require(isinstance(row, list) and len(row) == rank,
                     f"{label} must be a square {rank}x{rank} matrix")
            _require(all(isinstance(x, int) and not isinstance(x, bool)
                         for x in row),
                     f"{label} entries must be integers")
        gens.append(IntMatrix.from_rows(rows))
    table = payload.get("character_table")
    if table is not None:
        _require(isinstance(table, dict), "character_table must be an object")
    options = (_parse_options(payload["options"]) if "options" in payload
               else ProblemOptions())
    return ProblemSpec(name=name, rank=rank, generators=tuple(gens),
                       character_table=table, options=options)


def run_analyze(spec: ProblemSpec) -> AnalysisReport:
    group = generate_group(spec.generators, max_order=spec.options.max_order,
                           rank=spec.rank)
    return analyze(group, raw_table=spec.character_table, name=spec.name,
                   q_max=spec.options.q_max, verify=spec.options.verify)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def format_constituent(nums: tuple[int, ...], den: int,
                       latex: bool = False) -> str:
    """The polynomial in q with integer coefficients nums (low to high) over
    den, numerators and denominator divided by their gcd first."""
    common = gcd(den, *nums)
    denom = den // common
    parts = []
    for power in range(len(nums) - 1, -1, -1):
        mag = abs(nums[power]) // common
        if mag == 0:
            continue
        sign = "-" if nums[power] < 0 else "+"
        if power == 0:
            body = str(mag)
        else:
            if power == 1:
                head = "q"
            elif latex:
                head = f"q^{{{power}}}"
            else:
                head = f"q^{power}"
            body = head if mag == 1 else f"{mag}{head}"
        parts.append((sign, body))
    if not parts:
        return "0"
    first_sign, first_body = parts[0]
    body = ("-" if first_sign == "-" else "") + first_body
    for sign, part in parts[1:]:
        body += f" {sign} {part}"
    if denom == 1:
        return body
    if latex:
        return rf"\dfrac{{1}}{{{denom}}}\left({body}\right)"
    return f"({body})/{denom}"


def _constituent_texts(report: AnalysisReport, latex: bool) -> list[list[str]]:
    """Per row, its constituents formatted in divisor order (every
    multiplicity has the report's period), once per distinct object."""
    mults = report.equivariant.multiplicities
    texts = {id(qp): [format_constituent(nums, qp.denominator, latex=latex)
                      for nums in qp.numerators.values()]
             for qp, _ in rows_by_object(mults)}
    return [texts[id(qp)] for qp in mults]


def _row_label(report: AnalysisReport, i: int) -> str:
    tags = []
    if i == report.table.trivial_index:
        tags.append("trivial")
    if i == report.reciprocity_index and i != report.table.trivial_index:
        tags.append("reciprocity")
    suffix = f", {'/'.join(tags)}" if tags else ""
    return f"chi_{i} (degree {report.table.degrees[i]}{suffix})"


def _coverage_warning(report: AnalysisReport) -> str:
    # differential_check stops early only when q^l passes the point cap
    oracle_ran = any(v.name.startswith("oracle-") for v in report.verdicts)
    if not oracle_ran or report.oracle_q_max >= report.q_max:
        return ""
    covered = (f"q in 1..{report.oracle_q_max}" if report.oracle_q_max
               else "no q")
    return (f"warning: oracle covered {covered} of 1..{report.q_max} "
            f"({MAX_POINTS_ENV})")


def render_text(report: AnalysisReport) -> str:
    group = report.group
    data = report.data
    lines = []
    lines.append(f"problem: {report.name}" if report.name else "problem:")
    lines.append(
        f"group: order {group.order}, exponent {group.exponent}, "
        f"{group.class_count} conjugacy classes, lattice rank {group.rank}")
    lines.append(f"period: {report.period}")
    lines.append(
        f"character table: {report.table.source}, "
        f"degrees {list(report.table.degrees)}")
    lines.append("")
    lines.append("classes (representative element, size, rank, divisors, "
                 "fixed points):")
    for c in range(group.class_count):
        divs = data.divisors[c]
        div_text = "*".join(f"gcd({e},q)" for e in divs) or "1"
        power = group.rank - data.ranks[c]
        if power:
            div_text = (f"{div_text}*q^{power}" if divs else f"q^{power}")
        lines.append(
            f"  class {c}: rep {group.class_representatives[c]}, "
            f"size {group.class_sizes[c]}, rank {data.ranks[c]}, "
            f"divisors {list(divs) or '[]'}, fixed {div_text}")
    lines.append("")
    lines.append(f"multiplicities, constituents by gcd({report.period}, q):")
    for i, texts in enumerate(_constituent_texts(report, latex=False)):
        lines.append(f"  m[{i}] for {_row_label(report, i)}, "
                     f"minimal period {report.minimal_periods[i]}:")
        for d, text in zip(divisors_of(report.period), texts):
            lines.append(f"    gcd = {d}: {text}")
    lines.append("")
    delta = "trivial" if report.reciprocity_index == report.table.trivial_index \
        else f"row {report.reciprocity_index}"
    lines.append(f"reciprocity character: {delta}, "
                 f"values {list(report.reciprocity_values)}")
    lines.append(f"orbit-count rows (degree-1 characters): "
                 f"{list(report.linear_indices)}")
    lines.append("")
    lines.append("verdicts:")
    for v in report.verdicts:
        lines.append(f"  {v}")
    warning = _coverage_warning(report)
    if warning:
        lines.append(warning)
    lines.append(f"overall: {'PASS' if report.all_passed else 'FAIL'}")
    return "\n".join(lines) + "\n"


_encode_scalar = json.JSONEncoder().encode


def _to_json(value, indent: str = "") -> str:
    """json.dumps(value, indent=2), byte for byte, for values built from
    plain dicts with string keys, lists, tuples, strings, numbers, booleans
    and None. json lays out an indented dump with its pure-Python encoder,
    so containers are joined here and only scalars go to its C encoder.

    A list of int lists, such as a table cell or a constituent, is often
    one object met many times at one depth: its text is kept by (id,
    indent) for the length of the call, while the value holds the object.
    Only those leaf lists are kept, which keeps the memo small."""
    memo: dict[tuple[int, str], str] = {}

    def encode(value, indent: str) -> str:
        kind = type(value)
        if kind is list or kind is tuple:
            if not value:
                return "[]"
            kinds = set(map(type, value))
            if kinds == {list}:
                key = (id(value), indent)
                if (text := memo.get(key)) is not None:
                    return text
            inner = indent + "  "
            items = (map(int.__repr__, value) if kinds == {int}
                     else [encode(v, inner) for v in value])
            text = f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
            if kinds == {list} and all(set(map(type, v)) == {int}
                                       for v in value):
                memo[key] = text
            return text
        if kind is dict:
            if not value:
                return "{}"
            inner = indent + "  "
            items = [f"{_encode_scalar(k)}: {encode(v, inner)}"
                     for k, v in value.items()]
            return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
        return _encode_scalar(value)

    return encode(value, indent)


def render_json(report: AnalysisReport) -> str:
    return _to_json(report_to_dict(report)) + "\n"


def render_latex(report: AnalysisReport) -> str:
    group = report.group
    lines = []
    lines.append(f"% problem: {report.name}")
    lines.append(f"% group order {group.order}, lattice rank {group.rank}, "
                 f"period {report.period}")
    divisors = divisors_of(report.period)
    for i, bodies in enumerate(_constituent_texts(report, latex=True)):
        lines.append(r"\begin{align*}")
        lines.append(rf"m(\chi_{{{i}}};\,q) &= \begin{{cases}}")
        for pos, (d, body) in enumerate(zip(divisors, bodies)):
            last = pos == len(divisors) - 1
            tail = "," if last else (";" + r"\\")
            lines.append(
                rf"\, {body} & \gcd\{{{report.period},\,q\}} = {d}{tail}")
        lines.append(r"\end{cases}")
        lines.append(r"\end{align*}")
    return "\n".join(lines) + "\n"


_RENDERERS = {"text": render_text, "json": render_json, "latex": render_latex}


def render(report: AnalysisReport, output_format: str) -> str:
    return _RENDERERS[output_format](report)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _describe_error(exc: EquicharError) -> str:
    return f"error [{exc.stage}]: {exc}"


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first call and kept: parse_args leaves it unchanged
    parser = argparse.ArgumentParser(
        prog="equichar",
        description="exact quasi-polynomial analysis of finite group "
                    "actions on (Z/q)^l")
    sub = parser.add_subparsers(dest="command", required=True)
    pa = sub.add_parser("analyze", help="run the full pipeline on a problem")
    source = pa.add_mutually_exclusive_group(required=True)
    source.add_argument("--builtin", metavar="NAME",
                        help="use a builtin problem (see the builtins command)")
    source.add_argument("--input", metavar="PATH",
                        help="load a problem description from a JSON file")
    pa.add_argument("--qmax", type=int, default=None, metavar="N",
                    help="brute-force check q in 1..N (default max(24, 4*period))")
    pa.add_argument("--format", choices=FORMATS, default=None,
                    help="output format (default text)")
    pa.add_argument("--no-verify", action="store_true",
                    help="skip the brute-force enumeration checks")
    pa.add_argument("--max-order", type=int, default=None, metavar="N",
                    help="abort if the generated group exceeds N elements")
    sub.add_parser("builtins", help="list the builtin problems")
    return parser


def _cmd_builtins() -> int:
    for name in sorted(BUILTINS):
        entry = BUILTINS[name]
        print(f"{name}: rank {entry['rank']}, {entry['description']}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        spec = builtin(args.builtin) if args.builtin else parse_input(args.input)
        opts = spec.options
        if args.qmax is not None:
            if args.qmax < 1:
                raise ValidationError("--qmax must be a positive integer")
            opts = replace(opts, q_max=args.qmax)
        if args.max_order is not None:
            if args.max_order < 1:
                raise ValidationError("--max-order must be a positive integer")
            opts = replace(opts, max_order=args.max_order)
        if args.no_verify:
            opts = replace(opts, verify=False)
        if args.format is not None:
            opts = replace(opts, output_format=args.format)
        spec = replace(spec, options=opts)
        report = run_analyze(spec)
    except EquicharError as exc:
        print(_describe_error(exc), file=sys.stderr)
        return 2
    sys.stdout.write(render(report, spec.options.output_format))
    return 0 if report.all_passed else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "builtins":
        return _cmd_builtins()
    return _cmd_analyze(args)


if __name__ == "__main__":
    sys.exit(main())
