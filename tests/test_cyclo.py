import operator
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equichar import CertificationFailed
from equichar.cyclo import (Cyclotomic, _exact_polydiv, _reduce,
                            cyclotomic_polynomial)


def zeta(m, k=1):
    return Cyclotomic.root_of_unity(m, k)


class TestCyclotomicPolynomials:
    def test_small_cases(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(3) == (1, 1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    @pytest.mark.parametrize("m", [0, -3])
    def test_nonpositive_conductor_rejected(self, m):
        with pytest.raises(ValueError, match="invalid conductor"):
            cyclotomic_polynomial(m)

    def test_degrees_are_euler_phi(self):
        for m in range(1, 30):
            phi = sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)
            assert len(cyclotomic_polynomial(m)) - 1 == phi


class TestArithmetic:
    def test_sixth_root_relations(self):
        z = zeta(6)
        assert z * z * z == Cyclotomic.rational(6, -1)
        # zeta_6 satisfies z^2 = z - 1
        assert z * z == z - 1

    def test_primitive_root_sum_is_minus_one(self):
        total = sum((zeta(5, k) for k in range(1, 5)),
                    Cyclotomic.rational(5, 0))
        assert total == Cyclotomic.rational(5, -1)
        assert total.as_fraction() == -1

    def test_scalar_mixing(self):
        z = zeta(12)
        value = 2 * z + Fraction(1, 3) - z
        assert value == z + Fraction(1, 3)

    def test_conductor_mismatch_rejected(self):
        with pytest.raises(ValueError):
            zeta(6) + zeta(4)

    @pytest.mark.parametrize("op", [operator.add, operator.sub,
                                    operator.mul], ids=["add", "sub", "mul"])
    def test_non_numbers_rejected(self, op):
        with pytest.raises(TypeError):
            op(zeta(6), "x")

    def test_coefficient_count_must_not_exceed_the_conductor(self):
        with pytest.raises(ValueError, match="at most the conductor"):
            Cyclotomic(3, (1, 2, 3, 4))

    @pytest.mark.parametrize("coeffs", [(1, 0), (0,), (1, Fraction(0))])
    def test_trailing_zero_rejected(self, coeffs):
        with pytest.raises(ValueError, match="must end nonzero"):
            Cyclotomic(6, coeffs)

    def test_storage_stops_at_the_last_nonzero_coefficient(self):
        assert Cyclotomic.rational(6, 0).coeffs == ()
        assert Cyclotomic.rational(6, -2).coeffs == (-2,)
        assert (zeta(6) - zeta(6)).coeffs == ()
        assert (zeta(6) * 0).coeffs == ()
        # zeta_6 + zeta_6^5 = 1
        assert (zeta(6) + zeta(6, 5)).coeffs == (1,)
        assert (zeta(6, 2) + zeta(6) - zeta(6, 2)) == zeta(6)

    def test_zero_prints_as_zero(self):
        assert str(Cyclotomic.rational(6, 0)) == "0"

    def test_canonical_form_is_reduced(self):
        # zeta_6^2 - zeta_6 + 1 = 0, so high powers collapse to the
        # first phi(6) = 2 coefficients
        value = zeta(6, 2)
        assert all(c == 0 for c in value.coeffs[2:])


class TestGaloisAndConjugation:
    def test_conjugate_is_involution(self):
        value = zeta(12, 5) + 3 * zeta(12, 2)
        assert value.conjugate().conjugate() == value

    def test_conjugate_of_root(self):
        assert zeta(6).conjugate() == zeta(6, 5)

    def test_galois_requires_coprime(self):
        with pytest.raises(ValueError):
            zeta(6).galois(2)

    def test_norm_is_rational(self):
        value = zeta(5) + 2
        product = value
        for a in (2, 3, 4):
            product = product * value.galois(a)
        # the norm of 2 + zeta_5 is Phi_5(-2)
        assert product.as_fraction() == 11

    def test_rationality_detection(self):
        assert Cyclotomic.rational(6, Fraction(5, 3)).as_fraction() == \
            Fraction(5, 3)
        with pytest.raises(ValueError):
            zeta(6).as_fraction()

    def test_conductor_one(self):
        one = Cyclotomic.rational(1, 1)
        assert one.conjugate() == one
        assert one.as_fraction() == 1


small_rationals = st.fractions(min_value=-4, max_value=4,
                               max_denominator=6)


@st.composite
def cyclo_values(draw, m=12):
    coeffs = draw(st.dictionaries(st.integers(min_value=0, max_value=m - 1),
                                  small_rationals, max_size=4))
    vec = [coeffs.get(s, 0) for s in range(m)]
    return Cyclotomic(m, _reduce(m, vec))


@settings(max_examples=80, deadline=None)
@given(cyclo_values(), cyclo_values())
def test_ring_laws(a, b):
    assert a + b == b + a
    assert a * b == b * a
    assert (a - b) + b == a
    assert a * (a + b) == a * a + a * b


@settings(max_examples=80, deadline=None)
@given(cyclo_values())
def test_conjugation_distributes(a):
    assert a.conjugate().conjugate() == a
    assert (a + a).conjugate() == a.conjugate() + a.conjugate()
    assert (a * a).conjugate() == a.conjugate() * a.conjugate()


@settings(max_examples=60, deadline=None)
@given(cyclo_values(), st.sampled_from([1, 5, 7, 11]))
def test_galois_is_ring_map(a, s):
    image = a.galois(s)
    assert (a * a).galois(s) == image * image
    assert (a + a).galois(s) == image + image


def polynomial_remainder(m, coeffs):
    """The remainder of sum coeffs[s] x^s on division by the m-th
    cyclotomic polynomial, by schoolbook long division, up to its last
    nonzero coefficient."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    rem = list(coeffs)
    for top in range(len(rem) - 1, deg - 1, -1):
        c = rem[top]
        if c:
            for t, p in enumerate(phi):
                rem[top - deg + t] -= c * p
    rem = rem[:deg]
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(rem)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 6, 12, 15, 21, 30, 105, 360, 840]),
       st.data())
def test_reduction_matches_polynomial_remainder(m, data):
    sparse = data.draw(st.dictionaries(
        st.integers(min_value=0, max_value=m - 1),
        st.integers(-9, 9) | small_rationals, max_size=12))
    # a vector may stop anywhere after its last nonzero entry
    length = data.draw(st.integers(max(sparse, default=-1) + 1, m))
    coeffs = [sparse.get(s, 0) for s in range(length)]
    assert _reduce(m, list(coeffs)) == polynomial_remainder(m, coeffs)


def test_inexact_division_is_certification_failure_under_optimize():
    # `python -O` strips assert statements, so certification must not use them
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("from equichar import CertificationFailed, cyclo\n"
            "try:\n"
            "    print(cyclo._exact_polydiv([1, 0, 1], (1, 1)))\n"
            "except CertificationFailed as exc:\n"
            "    print(exc.stage)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "certification\n"


@pytest.mark.parametrize("den, message", [
    ((1, 2), "divisor (1, 2) is not monic"),
    ((1, 1), "polynomial division not exact"),
], ids=["not-monic", "not-exact"])
def test_exact_polydiv_raises_in_process(den, message):
    # 1 + x^2 over 1 + 2x, whose top coefficient is not 1, and over 1 + x,
    # which leaves the remainder 2
    with pytest.raises(CertificationFailed) as info:
        _exact_polydiv([1, 0, 1], den)
    assert str(info.value) == message
    assert info.value.stage == "certification"
