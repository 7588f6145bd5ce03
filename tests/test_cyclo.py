import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equichar.cyclo import Cyclotomic, cyclotomic_polynomial


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
        assert total.is_rational()
        assert total.as_fraction() == -1

    def test_scalar_mixing(self):
        z = zeta(12)
        value = 2 * z + Fraction(1, 3) - z
        assert value == z + Fraction(1, 3)

    def test_from_powers_folds_exponents(self):
        # coefficient at index 7 wraps to power 7 mod 6 = 1
        assert Cyclotomic.from_powers(6, [0, 0, 0, 0, 0, 0, 0, 1]) == zeta(6)
        # zeta_6^3 = -1, so two copies give -2
        assert Cyclotomic.from_powers(6, [0, 0, 0, 2]) == \
            Cyclotomic.rational(6, -2)
        # wrapped indices accumulate instead of overwrite
        assert Cyclotomic.from_powers(6, [1, 0, 0, 0, 0, 0, 2]) == \
            Cyclotomic.rational(6, 3)

    def test_conductor_mismatch_rejected(self):
        with pytest.raises(ValueError):
            zeta(6) + zeta(4)

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
        assert product.is_rational()

    def test_rationality_detection(self):
        assert Cyclotomic.rational(6, Fraction(5, 3)).is_rational()
        assert not zeta(6).is_rational()
        with pytest.raises(ValueError):
            zeta(6).as_fraction()

    def test_conductor_one(self):
        one = Cyclotomic.rational(1, 1)
        assert one.is_rational()
        assert one.conjugate() == one
        assert one.as_fraction() == 1


small_rationals = st.fractions(min_value=-4, max_value=4,
                               max_denominator=6)


@st.composite
def cyclo_values(draw, m=12):
    coeffs = draw(st.dictionaries(st.integers(min_value=0, max_value=m - 1),
                                  small_rationals, max_size=4))
    return Cyclotomic.from_powers(m, coeffs)


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
    cyclotomic polynomial, by schoolbook long division, padded to m."""
    phi = cyclotomic_polynomial(m)
    deg = len(phi) - 1
    rem = list(coeffs)
    for top in range(len(rem) - 1, deg - 1, -1):
        c = rem[top]
        if c:
            for t, p in enumerate(phi):
                rem[top - deg + t] -= c * p
    return tuple(rem[:deg]) + (0,) * (m - deg)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 6, 12, 15, 21, 30, 105, 360, 840]),
       st.data())
def test_reduction_matches_polynomial_remainder(m, data):
    sparse = data.draw(st.dictionaries(
        st.integers(min_value=0, max_value=m - 1),
        st.integers(-9, 9) | small_rationals, max_size=12))
    coeffs = [sparse.get(s, 0) for s in range(m)]
    assert Cyclotomic.from_powers(m, coeffs).coeffs == \
        polynomial_remainder(m, coeffs)


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
