"""Report bytes pinned by sha256 digest. The reports are meant to be
deterministic, so a change that should not alter them must reproduce these
digests exactly: text, JSON and LaTeX of one default `analyze` per builtin,
JSON of every problem file under `problems/`, and text, JSON and LaTeX of
`analyze(verify=False)` for C21 on Z^8 (period 21), B4 and the F4 Weyl group
(period 12), whose rows share multiplicity objects."""

import hashlib

import pytest

from equichar import analyze, generate_group
from equichar.cli import builtin, parse_input, render, run_analyze

from conftest import (BUILTIN_NAMES, C21_GENERATOR, CARTAN_F4, PROBLEMS_DIR,
                      mat, signed_permutation_generators,
                      weyl_group_generators)

BUILTIN_DIGESTS = {
    ("c6-z2", "text"):
        "14eb400c38cdbc1c9b49426c20ca68030012b96b3a354f8ee91a816d33b65da8",
    ("c6-z2", "json"):
        "f3044b18a304d79a99dd67d70d70b03536edca4f64521e08c573f5ebd5951e06",
    ("c6-z2", "latex"):
        "858457afe2782812d7a1cbfbce0911bbc94809a1beb9944ba36d845032f911b1",
    ("c6-z3", "text"):
        "95c5cc6cfecb1e7d7c21756a671217bf658fb6137c55a7aa3f81f9dd06b7eca3",
    ("c6-z3", "json"):
        "b4dd64d543cf61e67399a2781835f4ba60aa70eaab302e0c1c5984a44c3ffaef",
    ("c6-z3", "latex"):
        "159a7e178a6654204e03c89fa2e0d49b40c5e3d0b441849da2b29b581256f23e",
    ("s3-a2", "text"):
        "2578b14ab0b0e8400e21c16e9206c9e6de7feafe3716c9bb046cf0e018ecbe59",
    ("s3-a2", "json"):
        "a15b96fede90432fa5de0d4de2c356a3929facf7df504c29b25dddffb93e3725",
    ("s3-a2", "latex"):
        "4ee305e56028dc39aa30922902f63e3bc03d8420a832c06af10faddc721cbb99",
    ("trivial-z2", "text"):
        "b9585de7871ca99ef3c9631228a606290109183d3fd6f6e096d4a73da227f814",
    ("trivial-z2", "json"):
        "f12e954f88d7cd67dfeca0bf3dfc9c4850b01cf97efbde7da11e06343af6dd09",
    ("trivial-z2", "latex"):
        "397179b83f4e910a90399b666ee81bc04413bd20382c37cbc483004d2d03283c",
    ("dihedral-z2", "text"):
        "2b0e2914be7504b75d11158c8c3b69a69e81f7c304216396be7c9693acfd7b23",
    ("dihedral-z2", "json"):
        "ed9e655b58b92a75748081eeb668f5436fd5b1658917bc496cc200f0415756d6",
    ("dihedral-z2", "latex"):
        "c1d0f4c96946d5e0c6d6babaff3284c96b40f149a357cd78534d9a4a12488121",
}

PROBLEM_DIGESTS = {
    "c6_z2.json":
        "f3044b18a304d79a99dd67d70d70b03536edca4f64521e08c573f5ebd5951e06",
    "c6_z2_with_table.json":
        "b36531965e2d42e024f5cfc8609c2a08e5edb1f6a601f3a78ee2f8c4f66bcb02",
    "c6_z3.json":
        "b4dd64d543cf61e67399a2781835f4ba60aa70eaab302e0c1c5984a44c3ffaef",
    "dihedral_z2.json":
        "ed9e655b58b92a75748081eeb668f5436fd5b1658917bc496cc200f0415756d6",
    "s3_a2.json":
        "a15b96fede90432fa5de0d4de2c356a3929facf7df504c29b25dddffb93e3725",
    "trivial_z2.json":
        "f12e954f88d7cd67dfeca0bf3dfc9c4850b01cf97efbde7da11e06343af6dd09",
}

LARGE_DIGESTS = {
    ("c21", "text"):
        "c42df749759252f22ac1cc367ac9078a9da23e91ecf325a901e9c64bef87b747",
    ("c21", "json"):
        "b8b2f970911bb14bd3a37d43513adad164396db5593dc410a31e8fd8e87a4224",
    ("c21", "latex"):
        "d92ce58b01e562e40f192b7f3343d2bd0a3ff68a47310ac6d9e96beac916c5b2",
    ("b4", "text"):
        "46056b19445489a072ab0eeb33f856b51e128830356da5dd09337b4d0023da4f",
    ("b4", "json"):
        "7f67a8cbf0330b2af900f5cb77256ee9e698cdd31d7352126b8449d51159dccd",
    ("b4", "latex"):
        "00815022b750513abd39e0595dbe4f8673f73e07b702aa491c8a7520ee7c9c39",
    ("f4", "text"):
        "2512885d266cb83cb0046f2f8fa228b23e34593bc24261ccda1fb4bdde0ce874",
    ("f4", "json"):
        "8fb091b0bdcf403034e580b765733b9be1b82296ffda0a9945e6e98338f9c862",
    ("f4", "latex"):
        "ed44f7ff5cea43d1fd0ffbfaaa51852d1b82e76f5ead4bd1ed1f84b4146050b4",
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


@pytest.fixture(scope="module")
def large_reports():
    generators = {"c21": ([mat(C21_GENERATOR)], 8),
                  "b4": (signed_permutation_generators(4), 4),
                  "f4": (weyl_group_generators(CARTAN_F4), 4)}
    return {name: analyze(generate_group(gens, rank=rank), name=name,
                          verify=False)
            for name, (gens, rank) in generators.items()}


@pytest.mark.parametrize("name, fmt", list(LARGE_DIGESTS))
def test_large_report_bytes(large_reports, name, fmt):
    assert digest(render(large_reports[name], fmt)) == LARGE_DIGESTS[name, fmt]
