import json
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equichar import (GcdQuasiPolynomial, class_divisor_data, divisors_of,
                      dixon_character_table, equivariant_qp,
                      make_quasimonomial)
from equichar.gcdpoly import from_terms, horner

from conftest import BUILTIN_NAMES, make_builtin_group


F = Fraction


class TestConstruction:
    def test_single_gcd_factor(self):
        qp = make_quasimonomial((1, 3), 0, 1)
        assert qp.period == 3
        assert [qp.evaluate(q) for q in range(1, 7)] == [1, 1, 3, 1, 1, 3]

    def test_pure_power(self):
        qp = make_quasimonomial((), 2, 1)
        assert qp.period == 1
        assert qp.evaluate(5) == 25
        assert qp.evaluate(0) == 0

    def test_squared_gcd(self):
        qp = make_quasimonomial((2, 2), 0, 1)
        assert qp.evaluate(2) == 4
        assert qp.evaluate(3) == 1

    def test_divisor_one_entries_dropped(self):
        qp = make_quasimonomial((1, 1, 2), 1, F(1) / 2)
        assert qp.period == 2
        assert (qp.denominator, qp.numerators) == (2, {1: (0, 1), 2: (0, 2)})

    def test_zero_coefficient_dropped(self):
        qp = make_quasimonomial((2,), 1, 0)
        assert (qp.denominator, qp.numerators) == (1, {1: (), 2: ()})
        assert qp.evaluate(7) == 0

    def test_divisor_must_divide_period(self):
        with pytest.raises(ValueError):
            make_quasimonomial((3,), 0, 1, period=4)

    # the float, string and bool periods come with the keys of the period
    # a truncating reader would make of them
    @pytest.mark.parametrize("period, denominator, numerators, message", [
        (0, 1, {}, "invalid period"),
        (2.7, 1, {1: (1,), 2: (1,)}, "invalid period"),
        ("2", 1, {1: (1,), 2: (1,)}, "invalid period"),
        (True, 1, {1: (1,)}, "invalid period"),
        (4, 1, {1: (1,), 4: (1,)}, "divisors"),
        (2, 1, {1: (1,)}, "divisors"),
        (2, 1, {1: (1,), 2: (1,), 4: (1,)}, "divisors"),
        (2, 1, {1: (1,), 3: (1,)}, "divisors"),
        (2, 1, {2: (1,), 1: (1,)}, "divisors"),
        (2, 1, {1: (1, 0), 2: (1,)}, "trailing zeros"),
        (1, 0, {1: (1,)}, "invalid denominator"),
        (1, -2, {1: (1,)}, "invalid denominator"),
        (1, 2.0, {1: (1,)}, "invalid denominator"),
        (2, 2, {1: (2, 4), 2: (6,)}, "not reduced"),
        (1, 3, {1: ()}, "not reduced"),
    ], ids=["period-zero", "float-period", "string-period", "bool-period",
            "missing-divisor", "lone-one", "extra-divisor", "non-divisor",
            "unordered", "untrimmed", "zero-denominator",
            "negative-denominator", "float-denominator", "unreduced",
            "zero-over-three"])
    def test_constructor_requires_canonical_table(self, period, denominator,
                                                  numerators, message):
        with pytest.raises(ValueError, match=message):
            GcdQuasiPolynomial(period, denominator, numerators)


class TestEvaluationAndConstituents:
    def test_constituent_selection(self):
        # gcd(3,q) + q has constituents q + 1 and q + 3
        qp = from_terms(3, [((3,), 0, 1), ((), 1, 1)])
        assert qp.constituent(1) == (F(1), F(1))
        assert qp.constituent(2) == (F(1), F(1))
        assert qp.constituent(3) == (F(3), F(1))

    def test_negative_arguments_follow_constituents(self):
        qp = make_quasimonomial((3,), 0, 1)
        # q = -1 lies in the residue class of 2 mod 3, so gcd(3,-1) = 1;
        # q = -3 is in the class of 3, so gcd(3,-3) = 3
        assert qp.evaluate(-1) == 1
        assert qp.evaluate(-3) == 3
        assert qp.evaluate(0) == 3

    def test_gcd_rule_matches_math_gcd_for_nonpositive(self):
        qp = make_quasimonomial((2, 3), 1, 1, period=6)
        for q in range(-12, 13):
            expected = gcd(2, q) * gcd(3, q) * q
            assert qp.evaluate(q) == expected

    def test_both_evaluation_routes_agree(self):
        qp = from_terms(6, [((2, 2), 0, F(1, 2)), ((6,), 1, F(1, 3))])
        for q in range(1, 4 * qp.period + 1):
            direct = F(1, 2) * gcd(2, q) ** 2 + F(1, 3) * gcd(6, q) * q
            r = ((q - 1) % qp.period) + 1
            from_poly = sum(c * q ** p
                            for p, c in enumerate(qp.constituent(r)))
            assert direct == qp.evaluate(q) == from_poly


class TestEquality:
    def test_gcd_product_identity(self):
        # gcd(2,q) * gcd(3,q) = gcd(6,q) as functions, and with equal
        # periods the stored constituents are the same
        split = make_quasimonomial((2, 3), 0, 1, period=6)
        merged = make_quasimonomial((6,), 0, 1)
        assert split == merged

    def test_equal_functions_from_different_terms(self):
        # (q^2 + q + gcd(2, q))/2 with a coefficient written 2/4, and with
        # a constant that cancels: one canonical table over 2. Without the
        # /2 the function differs
        a = from_terms(2, [((), 2, F(2, 4)), ((), 1, F(1, 2)),
                           ((2,), 0, F(1, 2))])
        b = from_terms(2, [((2,), 0, 1), ((), 1, 1), ((), 2, 1),
                           ((), 0, 0)])
        c = from_terms(2, [((), 2, F(1, 2)), ((), 1, F(1, 2)),
                           ((), 0, F(1, 2)), ((2,), 0, F(1, 2)),
                           ((), 0, F(-1, 2))])
        assert a == c
        assert a.denominator == 2 and b.denominator == 1
        assert a != b

    def test_distinguishes_close_functions(self):
        # gcd(2, q) and gcd(4, q) differ only on the class of 4
        a = make_quasimonomial((2,), 0, 1, period=4)
        b = make_quasimonomial((4,), 0, 1)
        assert a != b
        assert [d for d in (1, 2, 4) if a.constituent(d) != b.constituent(d)] \
            == [4]


class TestPeriods:
    def test_minimal_period_of_constant(self):
        assert make_quasimonomial((), 2, 1).minimal_period() == 1

    def test_minimal_period_detects_smaller_cycle(self):
        # declared period 6 but only gcd(2, q) matters
        qp = make_quasimonomial((2,), 0, 1, period=6)
        assert qp.period == 6
        assert qp.minimal_period() == 2

    def test_degree_counts_only_the_power_of_q(self):
        # gcd factors are bounded, so they do not raise the degree
        qp = make_quasimonomial((2, 3), 2, 1, period=6)
        assert {len(nums) - 1 for nums in qp.numerators.values()} == {2}


def round_trip(qp):
    """The serialized table as JSON text, read back into a table of
    Fractions keyed by divisor."""
    payload = json.loads(json.dumps(qp.serialize()))
    return payload["period"], {
        int(d): tuple(F(num, den) for num, den in pairs)
        for d, pairs in payload["constituents"].items()}


class TestSerialization:
    def test_round_trip(self):
        qp = from_terms(12, [((2, 2), 1, F(1, 3)), ((3,), 0, F(-1, 2))])
        period, table = round_trip(qp)
        assert period == 12
        assert sorted(table) == list(divisors_of(12))
        for d in divisors_of(12):
            assert table[d] == qp.constituent(d)

    def test_round_trip_pure_polynomial(self):
        qp = make_quasimonomial((), 3, F(5, 6))
        assert round_trip(qp) == (1, {1: (0, 0, 0, F(5, 6))})


term_lists = st.lists(st.tuples(
    st.lists(st.sampled_from([2, 2, 3, 4, 6]), max_size=3).map(tuple),
    st.integers(min_value=0, max_value=3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4)), max_size=3)

quasi_polys = term_lists.map(lambda terms: from_terms(12, terms))


@settings(max_examples=100, deadline=None)
@given(term_lists, term_lists)
def test_addition_is_pointwise(a, b):
    # from_terms over the joined term lists is the pointwise sum
    total = from_terms(12, a + b)
    for q in list(range(1, 14)) + [-5, 0, 25]:
        assert total.evaluate(q) == \
            from_terms(12, a).evaluate(q) + from_terms(12, b).evaluate(q)


@settings(max_examples=60, deadline=None)
@given(term_lists)
def test_split_terms_give_the_same_table(terms):
    # every coefficient split into two halves, in reverse order: the same
    # function, so the same canonical table
    halves = [(divs, power, c / 2) for divs, power, c in reversed(terms)
              for _ in range(2)]
    assert from_terms(12, halves) == from_terms(12, terms)


@settings(max_examples=100, deadline=None)
@given(quasi_polys)
def test_constituents_govern_their_residue_classes(qp):
    for r in range(1, qp.period + 1):
        poly = qp.constituent(r)
        for q in (r, r + qp.period, r + 3 * qp.period, r - qp.period):
            value = sum(c * q ** p for p, c in enumerate(poly))
            assert qp.evaluate(q) == value


@settings(max_examples=60, deadline=None)
@given(quasi_polys)
def test_gcd_property_of_single_terms(qp):
    for r1 in range(1, qp.period + 1):
        r2 = gcd(qp.period, r1)
        assert qp.constituent(r1) == qp.constituent(r2)


@settings(max_examples=60, deadline=None)
@given(quasi_polys)
def test_minimal_period_divides_declared(qp):
    n = qp.minimal_period()
    assert qp.period % n == 0
    for r in range(1, qp.period + 1):
        assert qp.constituent(r) == qp.constituent(((r - 1) % n) + 1)


@settings(max_examples=40, deadline=None)
@given(quasi_polys)
def test_serialization_round_trip(qp):
    period, table = round_trip(qp)
    assert period == qp.period
    for d in divisors_of(qp.period):
        assert table[d] == qp.constituent(d)


@settings(max_examples=40, deadline=None)
@given(quasi_polys)
def test_serialization_round_trip_is_structural(qp):
    # the lcm of the serialized denominators is the stored denominator, so
    # the reduced pairs rebuild the canonical table
    period, table = round_trip(qp)
    den = lcm(1, *(c.denominator for poly in table.values() for c in poly))
    assert GcdQuasiPolynomial(period, den, {
        d: tuple(int(c * den) for c in poly)
        for d, poly in table.items()}) == qp


def _lagrange_value(points, x):
    total = F(0)
    for i, (xi, yi) in enumerate(points):
        weight = F(1)
        for j, (xj, _) in enumerate(points):
            if j != i:
                weight *= F(x - xj, xi - xj)
        total += yi * weight
    return total


@settings(max_examples=40, deadline=None)
@given(quasi_polys, st.integers(min_value=1, max_value=12))
def test_each_residue_class_is_a_single_polynomial(qp, r):
    # interpolate through degree + 2 points of one residue class, then the
    # fit must extrapolate to further points of the same class
    count = max(1, *map(len, qp.numerators.values())) + 1
    xs = [r + k * qp.period for k in range(count)]
    points = [(x, qp.evaluate(x)) for x in xs]
    for extra in (r + count * qp.period, r + (count + 1) * qp.period):
        assert qp.evaluate(extra) == _lagrange_value(points, extra)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_integer_constituents_agree_with_evaluate(name):
    # the stored integer numerators over the denominator are the values
    group = make_builtin_group(name)
    eqp = equivariant_qp(group, dixon_character_table(group),
                         class_divisor_data(group))
    period = eqp.period
    for qp in eqp.multiplicities:
        assert list(qp.numerators) == list(divisors_of(period))
        assert qp.denominator > 0
        for q in range(-period, 3 * period + 1):
            nums = qp.numerators[gcd(period, q)]
            assert all(type(n) is int for n in nums)
            value = F(horner(nums, q), qp.denominator)
            assert value == qp.evaluate(q) == sum(
                c * F(q) ** k for k, c in enumerate(qp.constituent(q)))
