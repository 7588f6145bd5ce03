import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equichar import (CertificationFailed, DimensionMismatch, IntMatrix,
                      intmat, smith_normal_form)

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

    def test_sub_shape_mismatch(self):
        with pytest.raises(DimensionMismatch, match="subtraction"):
            mat([[1, 2]]).sub(mat([[1], [2]]))

    def test_entries_count_validated(self):
        with pytest.raises(DimensionMismatch):
            IntMatrix(rows=2, cols=2, entries=(1, 2, 3))

    @pytest.mark.parametrize("build", [
        lambda: IntMatrix(2, 2, (1, 0, 0, True)),
        lambda: IntMatrix(1, 2, (1, 2.0)),
        lambda: IntMatrix(0, 0, ()),
        lambda: IntMatrix.from_rows([[False]]),
        lambda: IntMatrix.from_rows([[1, "2"]]),
        lambda: IntMatrix.from_rows([[1, 2], [3]]),
        lambda: IntMatrix.from_rows([]),
    ], ids=["bool", "float", "empty-shape", "bool-row", "string-row",
            "ragged", "no-rows"])
    def test_user_input_validated(self, build):
        with pytest.raises(DimensionMismatch):
            build()

    def test_products_equal_validated_matrices(self):
        # products and differences skip the entry check, and must still
        # equal and hash like the same matrix built from user input
        a, b = mat([[2, -1], [0, 3]]), mat([[1, 4], [-5, 0]])
        for result in (a.multiply(b), a.sub(b)):
            rebuilt = mat(result.to_rows())
            assert result == rebuilt and hash(result) == hash(rebuilt)
        assert a.multiply(b) == mat([[7, 8], [-15, 0]])
        assert a.sub(b) == mat([[1, -5], [5, 3]])

    def test_det_and_rank(self):
        assert mat([[2, 0], [0, 3]]).det() == 6
        assert mat([[1, 2], [2, 4]]).det() == 0
        assert mat([[1, 2], [2, 4]]).rank() == 1
        assert mat([[0, 0], [0, 0]]).rank() == 0

    def test_det_sign_and_rectangular_rank(self):
        assert mat([[0, 1], [1, 0]]).det() == -1
        assert mat([[0, 0, 1], [0, 1, 0], [1, 0, 0]]).det() == -1
        assert mat([[0, 2, 1], [1, 0, 0], [0, 0, 3]]).det() == -6
        assert mat([[1, 2, 3], [2, 4, 6]]).rank() == 1
        assert mat([[0, 1], [0, 2], [1, 0]]).rank() == 2
        with pytest.raises(DimensionMismatch):
            mat([[1, 2, 3], [2, 4, 6]]).det()

    def test_is_unimodular(self):
        # unimodular means determinant +-1, as generator validation checks
        assert abs(mat([[0, 1], [-1, 1]]).det()) == 1
        assert abs(mat([[2, 0], [0, 1]]).det()) != 1


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



class TestCertificates:
    """Each certificate of the Smith form and of the Bareiss pass, reached
    by one mutation of the computation it checks."""

    @staticmethod
    def failure(compute) -> str:
        with pytest.raises(CertificationFailed) as info:
            compute()
        assert info.value.stage == "certification"
        return str(info.value)

    @staticmethod
    def start_transforms_at_2i(monkeypatch):
        monkeypatch.setattr(IntMatrix, "identity", classmethod(
            lambda cls, n: cls(n, n, tuple(2 * (i == j) for i in range(n)
                                           for j in range(n)))))

    def test_wrong_transform_fails_diagonal(self, monkeypatch):
        # L A R becomes 4 D
        a = mat([[-1, -1], [1, -2]])
        self.start_transforms_at_2i(monkeypatch)
        assert "do not reproduce the diagonal" in \
            self.failure(lambda: smith_normal_form(a))

    def test_non_unimodular_transform_fails_unimodularity(self, monkeypatch):
        # on the zero matrix 4 L A R is still the zero diagonal
        a = mat([[0, 0], [0, 0]])
        self.start_transforms_at_2i(monkeypatch)
        assert "not unimodular" in self.failure(lambda: smith_normal_form(a))

    def test_divisors_out_of_order_fail_chain(self, monkeypatch):
        # at the second stage the pivot search returns the finished corner,
        # so the swaps move the divisor 3 ahead of the divisor 1
        search = intmat._pick_pivot

        def outside(m, t, n):
            where = search(m, t, n)
            return (0, 0) if t == 1 and where is not None else where

        a = mat([[-1, -1], [1, -2]])
        monkeypatch.setattr(intmat, "_pick_pivot", outside)
        assert "3, 1) are not a chain" in \
            self.failure(lambda: smith_normal_form(a))

    def test_wrong_elimination_entry_fails_bareiss(self, monkeypatch):
        # the first quotient of the first stage is stored one too large, so
        # the second stage's division by the pivot 2 leaves -3/2
        quotients = []

        def faulty(num, den):
            q, rem = divmod(num, den)
            quotients.append(q)
            return (q + 1 if len(quotients) == 1 else q), rem

        a = mat([[2, 1, 1], [1, 3, 2], [1, 0, 0]])
        assert a.det() == -1
        monkeypatch.setattr(intmat, "divmod", faulty, raising=False)
        assert "Bareiss division not exact" in self.failure(a.det)


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
