"""Exact integer matrices and Smith normal form with certified transforms.

Everything runs on Python's arbitrary-precision integers; intermediate
entries during elimination routinely outgrow machine words even when the
input entries are tiny, so no fixed-width shortcuts are taken anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DimensionMismatch


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise DimensionMismatch(f"invalid shape {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise DimensionMismatch(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )
        for v in self.entries:
            if not isinstance(v, int) or isinstance(v, bool):
                raise DimensionMismatch(f"non-integer entry {v!r}")

    @classmethod
    def from_rows(cls, rows: Sequence[Iterable[int]]) -> "IntMatrix":
        data = [list(r) for r in rows]
        if not data:
            raise DimensionMismatch("empty matrix")
        width = len(data[0])
        for r in data:
            if len(r) != width:
                raise DimensionMismatch("ragged rows")
        return cls(len(data), width, tuple(v for r in data for v in r))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def multiply(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n, m, k = self.rows, other.cols, self.cols
        out = [0] * (n * m)
        for i in range(n):
            base = i * k
            for t in range(k):
                a = self.entries[base + t]
                if a:
                    obase = t * m
                    for j in range(m):
                        out[i * m + j] += a * other.entries[obase + j]
        return IntMatrix(n, m, tuple(out))

    def sub(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape mismatch in subtraction")
        return IntMatrix(self.rows, self.cols,
                         tuple(a - b for a, b in zip(self.entries, other.entries)))

    def det(self) -> int:
        """Determinant by fraction-free (Bareiss) elimination."""
        if not self.is_square():
            raise DimensionMismatch("determinant of a non-square matrix")
        n = self.rows
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
                if pivot is None:
                    return 0
                a[k], a[pivot] = a[pivot], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                    q, r = divmod(num, prev)
                    assert r == 0, "Bareiss division not exact"
                    a[i][j] = q
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def rank(self) -> int:
        """Rank by fraction-free elimination, independent of the Smith form."""
        a = self.to_rows()
        nrows, ncols = self.rows, self.cols
        r = 0
        prev = 1
        for c in range(ncols):
            pivot = next((i for i in range(r, nrows) if a[i][c] != 0), None)
            if pivot is None:
                continue
            a[r], a[pivot] = a[pivot], a[r]
            for i in range(r + 1, nrows):
                for j in range(c + 1, ncols):
                    num = a[i][j] * a[r][c] - a[i][c] * a[r][j]
                    q, rem = divmod(num, prev)
                    assert rem == 0, "Bareiss division not exact"
                    a[i][j] = q
                a[i][c] = 0
            prev = a[r][c]
            r += 1
            if r == nrows:
                break
        return r

    def is_unimodular(self) -> bool:
        return self.is_square() and abs(self.det()) == 1


@dataclass(frozen=True)
class SmithDecomposition:
    """Certified Smith normal form: left * A * right is diagonal with the
    positive elementary divisors, each dividing the next, followed by zeros."""

    rank: int
    divisors: tuple[int, ...]
    left_transform: IntMatrix
    right_transform: IntMatrix

    def diagonal(self, n: int) -> IntMatrix:
        ent = [0] * (n * n)
        for i, d in enumerate(self.divisors):
            ent[i * n + i] = d
        return IntMatrix(n, n, tuple(ent))


def _pick_pivot(m: list[list[int]], t: int, n: int) -> tuple[int, int] | None:
    # smallest absolute value wins; ties resolved in row-major order
    best = None
    where = None
    for i in range(t, n):
        for j in range(t, n):
            v = m[i][j]
            if v != 0 and (best is None or abs(v) < best):
                best = abs(v)
                where = (i, j)
    return where


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """Diagonalize a square integer matrix by unimodular row and column
    operations.

    The pivot at each stage is a smallest-magnitude nonzero entry of the
    working submatrix. Rows and columns are reduced against it until the
    pivot divides its whole row and column, then the remaining submatrix is
    forced into divisibility by folding an offending row into the pivot row.
    The transforms are accumulated alongside and the result is re-checked
    against the input before returning.
    """
    if not a.is_square():
        raise DimensionMismatch("Smith normal form needs a square matrix")
    n = a.rows
    m = a.to_rows()
    left = IntMatrix.identity(n).to_rows()
    right = IntMatrix.identity(n).to_rows()

    def swap_rows(i, k):
        m[i], m[k] = m[k], m[i]
        left[i], left[k] = left[k], left[i]

    def swap_cols(j, k):
        for row in m:
            row[j], row[k] = row[k], row[j]
        for row in right:
            row[j], row[k] = row[k], row[j]

    def add_row(dst, src, factor):
        # row_dst += factor * row_src
        mrow, srow = m[dst], m[src]
        for j in range(n):
            mrow[j] += factor * srow[j]
        lrow, lsrc = left[dst], left[src]
        for j in range(n):
            lrow[j] += factor * lsrc[j]

    def add_col(dst, src, factor):
        for row in m:
            row[dst] += factor * row[src]
        for row in right:
            row[dst] += factor * row[src]

    def negate_row(i):
        m[i] = [-v for v in m[i]]
        left[i] = [-v for v in left[i]]

    t = 0
    while t < n:
        where = _pick_pivot(m, t, n)
        if where is None:
            break
        while True:
            i, j = where
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            pivot = m[t][t]
            # reduce the pivot column, then the pivot row
            for i in range(t + 1, n):
                if m[i][t] != 0:
                    add_row(i, t, -(m[i][t] // pivot))
            for j in range(t + 1, n):
                if m[t][j] != 0:
                    add_col(j, t, -(m[t][j] // pivot))
            col_clear = all(m[i][t] == 0 for i in range(t + 1, n))
            row_clear = all(m[t][j] == 0 for j in range(t + 1, n))
            if not (col_clear and row_clear):
                where = _pick_pivot(m, t, n)
                continue
            # force divisibility of the rest of the submatrix
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if m[i][j] % pivot != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
            where = _pick_pivot(m, t, n)
        if m[t][t] < 0:
            negate_row(t)
        t += 1

    divisors = tuple(m[i][i] for i in range(t))
    lmat = IntMatrix.from_rows(left)
    rmat = IntMatrix.from_rows(right)
    result = SmithDecomposition(rank=t, divisors=divisors,
                                left_transform=lmat, right_transform=rmat)
    # certification: transforms are unimodular and reproduce the diagonal
    assert lmat.multiply(a).multiply(rmat) == result.diagonal(n)
    assert abs(lmat.det()) == 1 and abs(rmat.det()) == 1
    for k in range(len(divisors) - 1):
        assert divisors[k + 1] % divisors[k] == 0
    return result
