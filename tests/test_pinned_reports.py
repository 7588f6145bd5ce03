"""Report bytes pinned by sha256 digest. The reports are meant to be
deterministic, so a change that should not alter them must reproduce these
digests exactly: text, JSON and LaTeX of one default `analyze` per builtin,
and JSON of every problem file under `problems/`."""

import hashlib

import pytest

from equichar.cli import builtin, parse_input, render, run_analyze

from conftest import BUILTIN_NAMES, PROBLEMS_DIR

BUILTIN_DIGESTS = {
    ("c6-z2", "text"):
        "ce1565a67568c7e150a9907ead535b8fb8e2232b18f5abcd0eef7913d81c4129",
    ("c6-z2", "json"):
        "82bc7a63f27e6bbfdccfa2f3b0990424b55fd1aa773e203f76abb3c370808f0c",
    ("c6-z2", "latex"):
        "858457afe2782812d7a1cbfbce0911bbc94809a1beb9944ba36d845032f911b1",
    ("c6-z3", "text"):
        "ea8f2a6907997ad4824fc1864cf084fd4cef97b8d9a9f9ed07106fe434dfb255",
    ("c6-z3", "json"):
        "5b2deb55b9fa99d1e498cee70a12b87e5a1507ba3ecbf6aa40394eeeaed87f84",
    ("c6-z3", "latex"):
        "159a7e178a6654204e03c89fa2e0d49b40c5e3d0b441849da2b29b581256f23e",
    ("s3-a2", "text"):
        "71bb51ce810f8779f6c386c341897894861af0089812bf65302289037dea592d",
    ("s3-a2", "json"):
        "a418e66c13b9e51dd9a7b72a60b0b53b080eaa772d50301dbba39ff61b32ff0b",
    ("s3-a2", "latex"):
        "4ee305e56028dc39aa30922902f63e3bc03d8420a832c06af10faddc721cbb99",
    ("trivial-z2", "text"):
        "1c3f4ad1473fe5569ff34c8e12152371848adeb1e2da4f8187bc758394ee8918",
    ("trivial-z2", "json"):
        "29f4b5b76a19342974be333a12affd45806a2a4ab5f62bb3e01c67e31873f1f8",
    ("trivial-z2", "latex"):
        "397179b83f4e910a90399b666ee81bc04413bd20382c37cbc483004d2d03283c",
    ("dihedral-z2", "text"):
        "ffe0147d89a3c77c9c0b5fd900f99ac88ab0023110ff9d6e459c0985c24c3bd2",
    ("dihedral-z2", "json"):
        "0a5310f23aadaa81b7227dc7cadd804199e5842869c7a3db533b7e1ed91124e4",
    ("dihedral-z2", "latex"):
        "c1d0f4c96946d5e0c6d6babaff3284c96b40f149a357cd78534d9a4a12488121",
}

PROBLEM_DIGESTS = {
    "c6_z2.json":
        "82bc7a63f27e6bbfdccfa2f3b0990424b55fd1aa773e203f76abb3c370808f0c",
    "c6_z2_with_table.json":
        "1c8f2b091f567b185a16713063d654665154d65a89fbbbe470391c7acbec6377",
    "c6_z3.json":
        "5b2deb55b9fa99d1e498cee70a12b87e5a1507ba3ecbf6aa40394eeeaed87f84",
    "dihedral_z2.json":
        "0a5310f23aadaa81b7227dc7cadd804199e5842869c7a3db533b7e1ed91124e4",
    "s3_a2.json":
        "a418e66c13b9e51dd9a7b72a60b0b53b080eaa772d50301dbba39ff61b32ff0b",
    "trivial_z2.json":
        "29f4b5b76a19342974be333a12affd45806a2a4ab5f62bb3e01c67e31873f1f8",
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def builtin_reports():
    return {name: run_analyze(builtin(name)) for name in BUILTIN_NAMES}


@pytest.mark.parametrize("name, fmt", list(BUILTIN_DIGESTS))
def test_builtin_report_bytes(builtin_reports, name, fmt):
    assert digest(render(builtin_reports[name], fmt)) == \
        BUILTIN_DIGESTS[name, fmt]


def test_every_problem_file_is_pinned():
    assert {path.name for path in PROBLEMS_DIR.glob("*.json")} == \
        set(PROBLEM_DIGESTS)


@pytest.mark.parametrize("filename", list(PROBLEM_DIGESTS))
def test_problem_report_bytes(builtin_reports, filename):
    spec = parse_input(PROBLEMS_DIR / filename)
    # a file that parses to a builtin's spec is checked against the
    # builtin's report instead of running the same analysis again
    same = [name for name in BUILTIN_NAMES if builtin(name) == spec]
    report = builtin_reports[same[0]] if same else run_analyze(spec)
    assert digest(render(report, "json")) == PROBLEM_DIGESTS[filename]
