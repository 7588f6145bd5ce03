"""Input contract of the command line: every problem file and every
EQUICHAR_MAX_POINTS value ends in a report (exit 0 or 1) or in one typed
error (exit 2), never in an uncaught exception."""

import contextlib
import io
import json
import os
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from equichar.bruteforce import MAX_POINTS_ENV
from equichar.cli import main

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12)


def mostly(valid, other):
    # one draw in eight takes the other branch, so that most near-valid
    # files get past parsing to the closure, the tables and the oracle
    return st.integers(0, 7).flatmap(lambda k: other if k == 0 else valid)


def square_matrices(rank):
    small = st.lists(st.lists(st.integers(-2, 2), min_size=rank,
                              max_size=rank), min_size=rank, max_size=rank)
    # signed permutation matrices are unimodular of finite order
    signed = st.tuples(st.permutations(range(rank)),
                       st.lists(st.sampled_from([-1, 1]), min_size=rank,
                                max_size=rank)).map(
        lambda ps: [[ps[1][i] if j == ps[0][i] else 0 for j in range(rank)]
                    for i in range(rank)])
    return mostly(signed, small)


options = st.fixed_dictionaries({}, optional={
    "q_max": mostly(st.integers(1, 30), json_values),
    "max_order": mostly(st.integers(1, 200), st.integers(-1, 0)),
    "format": mostly(st.sampled_from(["text", "json", "latex"]), json_values),
    "verify": mostly(st.booleans(), json_values),
})


@st.composite
def near_valid_problems(draw):
    rank = draw(st.integers(1, 2))
    problem = {"rank": draw(mostly(st.just(rank), json_values)),
               "generators": draw(st.lists(square_matrices(rank),
                                           max_size=3))}
    problem.update(draw(st.fixed_dictionaries({}, optional={
        "name": mostly(st.text(min_size=1, max_size=8), json_values),
        "options": mostly(options, json_values),
        "character_table": json_values,
    })))
    return problem


# environment strings cannot hold NUL or unpaired surrogates
env_text = st.text(st.characters(blacklist_categories=("Cs",),
                                 blacklist_characters="\x00"), max_size=10)
max_points_values = mostly(st.none() | st.integers(1, 10 ** 6).map(str),
                           env_text | st.integers(-5, 0).map(str))

CONTRACT = settings(max_examples=200, deadline=10_000,
                    suppress_health_check=[HealthCheck.too_slow])


def run_main(tmp_path_factory, payload, max_points):
    path = tmp_path_factory.mktemp("contract") / "problem.json"
    path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if max_points is None:
            os.environ.pop(MAX_POINTS_ENV, None)
        else:
            os.environ[MAX_POINTS_ENV] = max_points
        rc = main(["analyze", "--input", str(path)])
    assert rc in (0, 1, 2)
    if rc == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error")
        assert len(err.getvalue().splitlines()) == 1
    else:
        assert err.getvalue() == ""


@CONTRACT
@given(payload=json_values, max_points=max_points_values)
def test_arbitrary_json_ends_in_exit_code(tmp_path_factory, payload,
                                          max_points):
    run_main(tmp_path_factory, payload, max_points)


@CONTRACT
@given(payload=near_valid_problems(), max_points=max_points_values)
def test_near_valid_problem_ends_in_exit_code(tmp_path_factory, payload,
                                              max_points):
    run_main(tmp_path_factory, payload, max_points)
