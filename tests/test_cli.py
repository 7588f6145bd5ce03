import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from equichar import (GcdQuasiPolynomial, ParseError, UnknownExample,
                      ValidationError, Verdict, errors)
from equichar.cli import (BUILTINS, _describe_error, builtin,
                          format_constituent, main, parse_input, render_json,
                          render_latex, render_text, run_analyze)

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
        from fractions import Fraction as Fr
        assert format_constituent((Fr(5, 6), Fr(0), Fr(1, 6))) == \
            "(q^2 + 5)/6"
        assert format_constituent((Fr(-1), Fr(2))) == "2q - 1"
        assert format_constituent(()) == "0"
        assert format_constituent((Fr(1, 2),), latex=True) == \
            r"\dfrac{1}{2}\left(1\right)"

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
            rebuilt = GcdQuasiPolynomial.deserialize(entry["quasi_polynomial"])
            original = s3_report.equivariant.multiplicities[entry["index"]]
            assert rebuilt.equals(original)


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
)


def test_error_stages_cover_every_error_class():
    assert ({cls for cls, _ in ERROR_STAGES}
            == set(errors.EquicharError.__subclasses__()))


@pytest.mark.parametrize("cls, stage", ERROR_STAGES,
                         ids=[cls.__name__ for cls, _ in ERROR_STAGES])
def test_error_renders_with_its_stage(cls, stage):
    exc = cls("boom")
    assert _describe_error(exc) == f"error [{stage}]: {exc}"
