from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equichar import GcdQuasiPolynomial, divisors_of, make_quasimonomial
from equichar.gcdpoly import from_terms


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
        assert qp.constituents == {1: (F(0), F(1, 2)), 2: (F(0), F(1))}

    def test_zero_coefficient_dropped(self):
        qp = make_quasimonomial((2,), 1, 0)
        assert qp.constituents == {1: (), 2: ()}
        assert qp.evaluate(7) == 0

    def test_divisor_must_divide_period(self):
        with pytest.raises(ValueError):
            make_quasimonomial((3,), 0, 1, period=4)

    @pytest.mark.parametrize("period, constituents", [
        (0, {}),
        (4, {1: (F(1),), 4: (F(1),)}),
        (2, {1: (F(1), F(0)), 2: (F(1),)}),
    ], ids=["period-zero", "missing-divisor", "untrimmed"])
    def test_constructor_requires_canonical_table(self, period, constituents):
        with pytest.raises(ValueError):
            GcdQuasiPolynomial(period, constituents)


class TestEvaluationAndConstituents:
    def test_constituent_selection(self):
        # gcd(3,q) + q has constituents q + 1 and q + 3
        qp = make_quasimonomial((3,), 0, 1).add(make_quasimonomial((), 1, 1))
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
        qp = make_quasimonomial((2, 2), 0, F(1, 2)).add(
            make_quasimonomial((6,), 1, F(1, 3)))
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
        assert split.equals(merged)

    def test_distinguishes_close_functions(self):
        assert not make_quasimonomial((2,), 0, 1).equals(
            make_quasimonomial((4,), 0, 1))

    def test_equality_across_periods(self):
        a = make_quasimonomial((2,), 0, 1, period=2)
        b = make_quasimonomial((2,), 0, 1, period=6)
        assert a.equals(b)

    def test_add_scale(self):
        a = make_quasimonomial((3,), 1, F(1, 2))
        zero = a.scale(0)
        assert zero == make_quasimonomial((), 0, 0, period=a.period)
        assert a.add(zero).equals(a)
        assert (a + a).equals(a.scale(2))
        assert (a - a).equals(zero)


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
        assert qp.degree() == 2
        assert len(qp.constituent(6)) - 1 == 2


class TestSerialization:
    def test_round_trip(self):
        qp = make_quasimonomial((2, 2), 1, F(1, 3)).add(
            make_quasimonomial((3,), 0, F(-1, 2), period=12))
        payload = qp.serialize()
        assert payload["period"] == 12
        assert sorted(int(k) for k in payload["constituents"]) == \
            list(divisors_of(12))
        rebuilt = GcdQuasiPolynomial.deserialize(payload)
        assert rebuilt.equals(qp)

    def test_round_trip_pure_polynomial(self):
        qp = make_quasimonomial((), 3, F(5, 6))
        rebuilt = GcdQuasiPolynomial.deserialize(qp.serialize())
        assert rebuilt.equals(qp)


class TestDeserializeRejects:
    @staticmethod
    def payload(**changes):
        good = make_quasimonomial((2,), 1, F(1, 2)).serialize()
        return {**good, **changes}

    @pytest.mark.parametrize("period, keys", [
        (2.7, ["1", "2"]), ("2", ["1", "2"]), (True, ["1"])])
    def test_period_must_be_a_positive_int(self, period, keys):
        # the keys fit the period a truncating reader would make of it
        payload = self.payload(period=period,
                               constituents={k: [[1, 1]] for k in keys})
        with pytest.raises(ValueError, match="invalid period"):
            GcdQuasiPolynomial.deserialize(payload)

    @pytest.mark.parametrize("pair", [
        [1.9, 1], [1, 0], [True, 1], [1, False], [1], [1, 2, 3], "1/2", 1,
    ], ids=["float", "zero-denominator", "bool-numerator", "bool-denominator",
            "short", "long", "string", "bare-int"])
    def test_coefficients_must_be_integer_pairs(self, pair):
        payload = self.payload()
        payload["constituents"] = {"1": [[0, 1], pair], "2": [[0, 1], [1, 1]]}
        with pytest.raises(ValueError, match="integer pairs"):
            GcdQuasiPolynomial.deserialize(payload)

    @pytest.mark.parametrize("keys", [["1"], ["1", "2", "4"], ["1", "3"]])
    def test_keys_must_be_the_divisors(self, keys):
        payload = self.payload(constituents={k: [[1, 1]] for k in keys})
        with pytest.raises(ValueError, match="divisors"):
            GcdQuasiPolynomial.deserialize(payload)


divisor_lists = st.lists(st.sampled_from([2, 2, 3, 4, 6]), max_size=3)


@st.composite
def quasi_polys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=3))
    qp = from_terms(12, ())
    for _ in range(n_terms):
        divisors = draw(divisor_lists)
        power = draw(st.integers(min_value=0, max_value=3))
        coeff = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
        qp = qp.add(make_quasimonomial(divisors, power, coeff, period=12))
    return qp


@settings(max_examples=100, deadline=None)
@given(quasi_polys(), quasi_polys())
def test_addition_is_pointwise(a, b):
    total = a.add(b)
    for q in list(range(1, 14)) + [-5, 0, 25]:
        assert total.evaluate(q) == a.evaluate(q) + b.evaluate(q)


@settings(max_examples=100, deadline=None)
@given(quasi_polys())
def test_constituents_govern_their_residue_classes(qp):
    for r in range(1, qp.period + 1):
        poly = qp.constituent(r)
        for q in (r, r + qp.period, r + 3 * qp.period, r - qp.period):
            value = sum(c * q ** p for p, c in enumerate(poly))
            assert qp.evaluate(q) == value


@settings(max_examples=60, deadline=None)
@given(quasi_polys())
def test_gcd_property_of_single_terms(qp):
    for r1 in range(1, qp.period + 1):
        r2 = gcd(qp.period, r1)
        assert qp.constituent(r1) == qp.constituent(r2)


@settings(max_examples=60, deadline=None)
@given(quasi_polys())
def test_minimal_period_divides_declared(qp):
    n = qp.minimal_period()
    assert qp.period % n == 0
    for r in range(1, qp.period + 1):
        assert qp.constituent(r) == qp.constituent(((r - 1) % n) + 1)


@settings(max_examples=40, deadline=None)
@given(quasi_polys())
def test_serialization_round_trip(qp):
    rebuilt = GcdQuasiPolynomial.deserialize(qp.serialize())
    assert rebuilt.equals(qp)
    assert rebuilt.period == qp.period


@settings(max_examples=40, deadline=None)
@given(quasi_polys())
def test_serialization_round_trip_is_structural(qp):
    assert GcdQuasiPolynomial.deserialize(qp.serialize()) == qp


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
@given(quasi_polys(), st.integers(min_value=1, max_value=12))
def test_each_residue_class_is_a_single_polynomial(qp, r):
    # interpolate through degree + 2 points of one residue class, then the
    # fit must extrapolate to further points of the same class
    count = max(qp.degree(), 0) + 2
    xs = [r + k * qp.period for k in range(count)]
    points = [(x, qp.evaluate(x)) for x in xs]
    for extra in (r + count * qp.period, r + (count + 1) * qp.period):
        assert qp.evaluate(extra) == _lagrange_value(points, extra)
