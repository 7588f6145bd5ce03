import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equichar import DimensionMismatch, IntMatrix, smith_normal_form

from conftest import mat


def random_unimodular(rng: random.Random, n: int, steps: int = 6) -> IntMatrix:
    # product of elementary shears and swaps, so det is +-1 by construction
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.5:
            k = rng.choice((-2, -1, 1, 2))
            for col in range(n):
                rows[i][col] += k * rows[j][col]
        else:
            rows[i], rows[j] = rows[j], rows[i]
    return mat(rows)


def checked_snf(a: IntMatrix):
    snf = smith_normal_form(a)
    n = a.rows
    product = snf.left_transform.multiply(a).multiply(snf.right_transform)
    assert product == snf.diagonal(n)
    assert abs(snf.left_transform.det()) == 1
    assert abs(snf.right_transform.det()) == 1
    for first, second in zip(snf.divisors, snf.divisors[1:]):
        assert second % first == 0
    assert all(e >= 1 for e in snf.divisors)
    assert snf.rank == a.rank()
    return snf


class TestArithmetic:
    def test_multiply_order_six_generator(self):
        a = mat([[0, 1], [-1, 1]])
        assert a.multiply(a) == mat([[-1, 1], [-1, 0]])

    def test_multiply_identity(self):
        a = mat([[3, -2], [7, 5]])
        assert IntMatrix.identity(2).multiply(a) == a
        assert a.multiply(IntMatrix.identity(2)) == a

    def test_multiply_matches_power_of_order_six_generator_on_z3(self):
        a = mat([[-1, -1, 0], [1, 0, 0], [0, 0, -1]])
        power = IntMatrix.identity(3)
        for _ in range(6):
            power = power.multiply(a)
        assert power == IntMatrix.identity(3)

    def test_multiply_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mat([[1, 2]]).multiply(mat([[1, 2]]))

    def test_entries_count_validated(self):
        with pytest.raises(DimensionMismatch):
            IntMatrix(rows=2, cols=2, entries=(1, 2, 3))

    def test_det_and_rank(self):
        assert mat([[2, 0], [0, 3]]).det() == 6
        assert mat([[1, 2], [2, 4]]).det() == 0
        assert mat([[1, 2], [2, 4]]).rank() == 1
        assert mat([[0, 0], [0, 0]]).rank() == 0

    def test_is_unimodular(self):
        assert mat([[0, 1], [-1, 1]]).is_unimodular()
        assert not mat([[2, 0], [0, 1]]).is_unimodular()


class TestSmithNormalForm:
    def test_order_six_rotation_minus_identity(self):
        # R - I for the order-6 rotation acting on Z^2
        snf = checked_snf(mat([[-1, 1], [-1, 0]]))
        assert snf.rank == 2
        assert snf.divisors == (1, 1)

    def test_minus_two_identity(self):
        snf = checked_snf(mat([[-2, 0], [0, -2]]))
        assert snf.rank == 2
        assert snf.divisors == (2, 2)

    def test_zero_matrix(self):
        snf = checked_snf(mat([[0, 0], [0, 0]]))
        assert snf.rank == 0
        assert snf.divisors == ()

    def test_three_cycle_on_root_lattice(self):
        # R - I for a 3-cycle acting on the A2 root lattice
        snf = checked_snf(mat([[-1, -1], [1, -2]]))
        assert snf.rank == 2
        assert snf.divisors == (1, 3)

    def test_divisor_product_equals_abs_det(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(1, 4)
            a = mat([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            snf = checked_snf(a)
            if snf.rank == n:
                assert math.prod(snf.divisors) == abs(a.det())

    def test_requires_square_input(self):
        with pytest.raises(DimensionMismatch):
            smith_normal_form(mat([[1, 2, 3], [4, 5, 6]]))

    def test_divisors_invariant_under_unimodular_conjugation(self):
        rng = random.Random(11)
        for _ in range(25):
            n = rng.randint(2, 4)
            a = mat([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
            u = random_unimodular(rng, n)
            v = random_unimodular(rng, n)
            transformed = u.multiply(a).multiply(v)
            assert smith_normal_form(a).divisors == \
                smith_normal_form(transformed).divisors


@st.composite
def square_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    entries = draw(st.lists(st.integers(min_value=-5, max_value=5),
                            min_size=n * n, max_size=n * n))
    return IntMatrix(rows=n, cols=n, entries=tuple(entries))


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_snf_certification_random(a):
    checked_snf(a)


@settings(max_examples=60, deadline=None)
@given(square_matrices())
def test_snf_rank_matches_fraction_free_elimination(a):
    snf = smith_normal_form(a)
    assert snf.rank == a.rank()
    assert len(snf.divisors) == snf.rank
