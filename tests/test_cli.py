import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from equichar import (ParseError, UnknownExample, ValidationError, Verdict,
                      divisors_of, errors)
from equichar.analysis import report_to_dict
from equichar.gcdpoly import from_terms
from equichar.cli import (BUILTINS, _build_parser, _describe_error, _to_json,
                          builtin, format_constituent, main, parse_input,
                          render_json, render_latex, render_text, run_analyze)

from conftest import PROBLEMS_DIR


def run_cli(args, extra_env=None, timeout=10):
    """Run `python -m equichar.cli` in a fresh process on this source tree."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    env.update(extra_env or {})
    return subprocess.run([sys.executable, "-m", "equichar.cli", *args],
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


@pytest.fixture(scope="module")
def s3_report():
    spec = builtin("s3-a2")
    spec = dataclasses.replace(
        spec, options=dataclasses.replace(spec.options, q_max=6))
    return run_analyze(spec)


class TestProblemSpecs:
    def test_builtin_catalog(self):
        assert set(BUILTINS) == {"c6-z2", "c6-z3", "s3-a2", "trivial-z2",
                                 "dihedral-z2"}
        spec = builtin("c6-z2")
        assert spec.rank == 2
        assert len(spec.generators) == 1
        assert spec.generators[0].to_rows() == [[0, 1], [-1, 1]]

    def test_unknown_builtin(self):
        with pytest.raises(UnknownExample):
            builtin("c7-z2")

    def test_parse_shipped_problems(self):
        for path in sorted(PROBLEMS_DIR.glob("*.json")):
            spec = parse_input(path)
            assert spec.rank >= 1
            assert all(g.rows == spec.rank for g in spec.generators)

    def test_parse_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_input(tmp_path / "absent.json")

    def test_parse_bad_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"rank": 2,\n  "generators": [[[1, 0], [0, 1]]')
        with pytest.raises(ParseError) as info:
            parse_input(path)
        assert "line" in str(info.value)

    def test_parse_rejects_non_square_generator(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"rank": 2, "generators": [[[1, 0, 0], [0, 1, 0]]]}))
        with pytest.raises(ValidationError):
            parse_input(path)

    def test_parse_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rank": 2, "generaters": []}))
        with pytest.raises(ValidationError):
            parse_input(path)

    def test_parse_rejects_boolean_rank(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rank": True, "generators": []}))
        with pytest.raises(ValidationError, match="rank must be"):
            parse_input(path)

    def test_parse_rejects_bad_options(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"rank": 2, "options": {"format": "xml"}}))
        with pytest.raises(ValidationError):
            parse_input(path)

    def test_parse_reads_table_and_options(self):
        spec = parse_input(PROBLEMS_DIR / "c6_z2_with_table.json")
        assert spec.character_table is not None
        assert spec.options.q_max == 12


class TestRendering:
    def test_format_constituent(self):
        assert format_constituent((5, 0, 1), 6) == "(q^2 + 5)/6"
        assert format_constituent((-1, 2), 1) == "2q - 1"
        assert format_constituent((), 1) == "0"
        assert format_constituent((1,), 2, latex=True) == \
            r"\dfrac{1}{2}\left(1\right)"
        # numerators and denominator are divided by their gcd
        assert format_constituent((-2, 4), 6) == "(2q - 1)/3"
        assert format_constituent((), 6) == "0"

    def test_constituents_with_different_denominators(self):
        # q^2/2 + gcd(2, q)/4 is stored over 4, but reduces to (q^2 + 1)/2
        # on the even class; put in as the multiplicity of row 0 of a
        # period-2 report
        qp = from_terms(2, [((), 2, Fraction(1, 2)), ((2,), 0, Fraction(1, 4))])
        assert qp.denominator == 4
        report = run_analyze(dataclasses.replace(
            builtin("dihedral-z2"),
            options=dataclasses.replace(builtin("dihedral-z2").options,
                                        verify=False)))
        eqp = report.equivariant
        report = dataclasses.replace(report, equivariant=dataclasses.replace(
            eqp, multiplicities=(qp, *eqp.multiplicities[1:])))
        text = render_text(report).splitlines()
        row = text.index(next(line for line in text
                              if line.startswith("  m[0] for")))
        assert text[row + 1:row + 3] == ["    gcd = 1: (2q^2 + 1)/4",
                                         "    gcd = 2: (q^2 + 1)/2"]
        latex = render_latex(report)
        assert r"\, \dfrac{1}{4}\left(2q^{2} + 1\right) & \gcd\{2,\,q\} = 1;" \
            in latex
        assert r"\, \dfrac{1}{2}\left(q^{2} + 1\right) & \gcd\{2,\,q\} = 2," \
            in latex

    def test_text_contains_golden_constituents(self, s3_report):
        text = render_text(s3_report)
        assert "(q^2 + 3q + 2)/6" in text
        assert "(q^2 + 3q + 6)/6" in text
        assert "(q^2 - 3q + 2)/6" in text
        assert "overall: PASS" in text

    def test_latex_mirrors_cases_layout(self, s3_report):
        tex = render_latex(s3_report)
        assert r"\begin{cases}" in tex
        assert r"\gcd\{3,\,q\} = 1" in tex
        assert r"\dfrac{1}{6}\left(q^{2} + 3q + 2\right)" in tex

    def test_json_is_deterministic_and_round_trips(self, s3_report):
        first = render_json(s3_report)
        second = render_json(s3_report)
        assert first == second
        payload = json.loads(first)
        for entry in payload["multiplicities"]:
            original = s3_report.equivariant.multiplicities[entry["index"]]
            written = entry["quasi_polynomial"]
            assert written["period"] == original.period
            assert sorted(map(int, written["constituents"])) == \
                list(divisors_of(original.period))
            for d in divisors_of(original.period):
                assert [Fraction(*pair) for pair in
                        written["constituents"][str(d)]] == \
                    list(original.constituent(d))


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()
    assert main(["builtins"]) == 0 and main(["builtins"]) == 0


class TestJsonWriter:
    EDGE_VALUES = [
        {}, [], "", 0, -1, None, True, 1.5,
        {"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {"g": []}}},
        [[[]], [{}], [[], {}]],
        [True, False, None, 1, 0], [1, True], [None], [False, 2],
        ["quote \" backslash \\ tab \t newline \n", "\u0001", "é ☃ 𝄞"],
        {"k\u00e9y \"x\"": "\u2028"},
        [-1, -(10 ** 40), 10 ** 40, 0], (1, 2), [(3, "4"), ()],
        [1.0, -2.5, 1e300, 3], {"nested": [[1, 2], [3, [4, [5, {}]]]]},
    ]

    @pytest.mark.parametrize("value", EDGE_VALUES)
    def test_edge_values_match_json_dumps(self, value):
        assert _to_json(value) == json.dumps(value, indent=2)

    @staticmethod
    def shared_values():
        cell = [[1, 2], [3, 4]]
        flags = [[True, 1], [1, 0]]
        return [
            [cell, cell],
            {"a": cell, "b": [cell, {"c": cell}], "d": cell},
            [cell, [cell, [cell]]],
            [flags, flags, [flags]],
            [[[True, 1]], [[True, 1]]],
            [[[1], []], [[1], []], cell, [[1, True]]],
            ([cell, cell], [cell, (cell,)]),
        ]

    def test_shared_lists_match_json_dumps(self):
        for value in self.shared_values():
            assert _to_json(value) == json.dumps(value, indent=2)
            # the same value two levels deep
            assert _to_json(value, "    ") == \
                json.dumps([[value]], indent=2)[len("[\n  [\n    "):
                                                -len("\n  ]\n]")]

    @pytest.mark.parametrize("name", sorted(BUILTINS))
    def test_builtin_reports_match_json_dumps(self, name):
        report = run_analyze(builtin(name))
        assert render_json(report) == \
            json.dumps(report_to_dict(report), indent=2) + "\n"


class TestMain:
    def test_analyze_builtin_passes(self, capsys):
        rc = main(["analyze", "--builtin", "s3-a2", "--qmax", "6",
                   "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out)
        assert payload["verification"]["all_passed"] is True
        assert payload["verification"]["oracle_q_max"] == 6

    def test_no_verify_skips_oracle(self, capsys):
        rc = main(["analyze", "--builtin", "c6-z2", "--no-verify",
                   "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verification"]["oracle_q_max"] == 0
        names = [v["name"] for v in payload["verification"]["verdicts"]]
        assert not any(name.startswith("oracle-") for name in names)

    def test_unknown_builtin_is_input_error(self, capsys):
        rc = main(["analyze", "--builtin", "missing"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "error [problem input]" in captured.err

    def test_input_file_flow(self, capsys):
        rc = main(["analyze", "--input",
                   str(PROBLEMS_DIR / "c6_z2_with_table.json"),
                   "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["character_table"]["source"] == "user"

    def test_non_unimodular_input_is_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"rank": 2, "generators": [[[2, 0], [0, 1]]]}))
        rc = main(["analyze", "--input", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "group construction" in captured.err

    def test_infinite_group_is_error(self, tmp_path, capsys):
        path = tmp_path / "infinite.json"
        path.write_text(json.dumps(
            {"rank": 2, "generators": [[[1, 1], [0, 1]]]}))
        rc = main(["analyze", "--input", str(path), "--max-order", "64"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "group construction" in captured.err

    def test_failed_verdict_gives_exit_one(self, capsys, monkeypatch):
        import equichar.cli as cli_module
        real = run_analyze

        def doctored(spec):
            report = real(spec)
            broken = dataclasses.replace(
                report.verdicts[0], passed=False, details="injected")
            return dataclasses.replace(
                report, verdicts=(broken,) + report.verdicts[1:])

        monkeypatch.setattr(cli_module, "run_analyze", doctored)
        rc = main(["analyze", "--builtin", "trivial-z2", "--no-verify"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "overall: FAIL" in out
        assert "FAIL" in out

    def test_builtins_listing(self, capsys):
        rc = main(["builtins"])
        out = capsys.readouterr().out
        assert rc == 0
        for name in BUILTINS:
            assert name in out

    def test_env_cap_limits_oracle(self, capsys, monkeypatch):
        from equichar.bruteforce import MAX_POINTS_ENV
        monkeypatch.setenv(MAX_POINTS_ENV, "36")
        rc = main(["analyze", "--builtin", "c6-z2", "--qmax", "12",
                   "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verification"]["oracle_q_max"] == 6

    def test_capped_oracle_warns_in_text_only(self, capsys, monkeypatch):
        from equichar.bruteforce import MAX_POINTS_ENV
        monkeypatch.setenv(MAX_POINTS_ENV, "100")
        assert main(["analyze", "--builtin", "c6-z2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == [
            "warning: oracle covered q in 1..10 of 1..24 (EQUICHAR_MAX_POINTS)",
            "overall: PASS"]
        for fmt in ("json", "latex"):
            assert main(["analyze", "--builtin", "c6-z2", "--format", fmt]) == 0
            assert "warning" not in capsys.readouterr().out

    def test_uncapped_oracle_does_not_warn(self, capsys, monkeypatch):
        from equichar.bruteforce import MAX_POINTS_ENV
        monkeypatch.delenv(MAX_POINTS_ENV, raising=False)
        assert main(["analyze", "--builtin", "c6-z2"]) == 0
        assert "warning" not in capsys.readouterr().out

    def test_skipped_oracle_warns_and_no_verify_does_not(self, s3_report):
        skipped = dataclasses.replace(s3_report, oracle_q_max=0)
        assert ("warning: oracle covered no q of 1..6 (EQUICHAR_MAX_POINTS)"
                in render_text(skipped).splitlines())
        unverified = dataclasses.replace(
            skipped, verdicts=tuple(v for v in s3_report.verdicts
                                    if not v.name.startswith("oracle-")))
        assert "warning" not in render_text(unverified)

    def test_huge_qmax_without_oracle_returns_quickly(self):
        # with the oracle off no verdict depends on q_max, so a huge value
        # must not slow the run down
        proc = run_cli(["analyze", "--builtin", "c6-z2", "--qmax",
                        "100000000", "--no-verify"])
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "overall: PASS" in proc.stdout

    @pytest.mark.parametrize("value", ["abc", "-5"])
    def test_bad_env_cap_is_input_error(self, value):
        from equichar.bruteforce import MAX_POINTS_ENV
        proc = run_cli(["analyze", "--builtin", "c6-z2", "--qmax", "6"],
                       extra_env={MAX_POINTS_ENV: value})
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (f"error [problem input]: {MAX_POINTS_ENV} must "
                               f"be a positive integer, got {value!r}\n")

    @pytest.mark.parametrize("cell", [[[1, 0]], 5, [["a", 1]], [[True, 1]]],
                             ids=["zero-denominator", "bare-integer",
                                  "string-numerator", "boolean-numerator"])
    def test_malformed_table_cell_is_validation_error(self, tmp_path, capsys,
                                                      cell):
        payload = json.loads(
            (PROBLEMS_DIR / "c6_z2_with_table.json").read_text())
        payload["character_table"]["rows"][1][2] = cell
        path = tmp_path / "bad_cell.json"
        path.write_text(json.dumps(payload))
        rc = main(["analyze", "--input", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error [character table validation]: ")

    @pytest.mark.parametrize("field, value", [
        ("conductor", 6.9), ("conductor", "6"), ("conductor", True),
        ("classes", "abc"),
    ], ids=["float-conductor", "string-conductor", "boolean-conductor",
            "string-classes"])
    def test_malformed_table_field_is_format_error(self, tmp_path, field,
                                                   value):
        payload = json.loads(
            (PROBLEMS_DIR / "c6_z2_with_table.json").read_text())
        payload["character_table"][field] = value
        path = tmp_path / "bad_field.json"
        path.write_text(json.dumps(payload))
        proc = run_cli(["analyze", "--input", str(path)])
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error [character table validation]: "
                                   "character table validation failed: "
                                   "format")

    @pytest.mark.parametrize("content", [
        json.dumps({"rank": 2, "options": {"q_max": True}}).encode(),
        json.dumps({"rank": 2, "options": {"max_order": True}}).encode(),
        b"\xff\xfe",
        b"[" * 200_000 + b"]" * 200_000,
    ], ids=["boolean-q_max", "boolean-max_order", "not-utf8", "deep-nesting"])
    def test_malformed_problem_file_is_input_error(self, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        proc = run_cli(["analyze", "--input", str(path)])
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error [problem input]: ")


ERROR_STAGES = (
    (errors.ParseError, "problem input"),
    (errors.ValidationError, "problem input"),
    (errors.UnknownExample, "problem input"),
    (errors.DimensionMismatch, "matrix arithmetic"),
    (errors.NonUnimodularGenerator, "group construction"),
    (errors.OrderCapExceeded, "group construction"),
    (errors.GroupMismatch, "class functions"),
    (errors.NotASubgroup, "class functions"),
    (errors.ValidationFailed, "character table validation"),
    (errors.PrimeSearchFailed, "character table computation"),
    (errors.NoMatch, "character table lookup"),
    (errors.NonRationalCoefficient, "multiplicity assembly"),
    (errors.NotACharacter, "reciprocity character"),
    (errors.NotLinearCharacter, "orbit counting"),
    (errors.EnumerationCapExceeded, "oracle enumeration"),
    (errors.CertificationFailed, "certification"),
)


def test_error_stages_cover_every_error_class():
    assert ({cls for cls, _ in ERROR_STAGES}
            == set(errors.EquicharError.__subclasses__()))


@pytest.mark.parametrize("cls, stage", ERROR_STAGES,
                         ids=[cls.__name__ for cls, _ in ERROR_STAGES])
def test_error_renders_with_its_stage(cls, stage):
    exc = cls("boom")
    assert _describe_error(exc) == f"error [{stage}]: {exc}"
