"""Class functions, character tables and their construction.

The table of irreducible characters is computed by the classical modular
method: the class-sum structure constants give a family of commuting
integer matrices whose simultaneous eigenvectors over a suitable prime
field are the central characters. Degrees and character values are then
recovered modulo p and lifted to exact cyclotomic integers through the
root-of-unity multiplicity counting formula. The finished table is checked
against first orthogonality, which for a square table implies the second,
before being returned, and the same validation is applied to user-supplied
tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt

from .cyclo import Cyclotomic
from .errors import (GroupMismatch, NoMatch, NotASubgroup, NotLinearCharacter,
                     PrimeSearchFailed, ValidationFailed)
from .groups import FiniteMatrixGroup, is_subgroup


@dataclass(frozen=True)
class ClassFunction:
    group: FiniteMatrixGroup = field(compare=False, repr=False)
    values: tuple[Cyclotomic, ...]

    def __post_init__(self):
        if len(self.values) != self.group.class_count:
            raise GroupMismatch("one value per conjugacy class is required")

    def degree(self) -> Cyclotomic:
        return self.values[0]

    def tensor(self, other: "ClassFunction") -> "ClassFunction":
        if self.group is not other.group:
            raise GroupMismatch("tensor of class functions on different groups")
        return ClassFunction(self.group,
                             tuple(a * b for a, b in zip(self.values, other.values)))

    def conjugate(self) -> "ClassFunction":
        return ClassFunction(self.group, tuple(v.conjugate() for v in self.values))


def inner_product(phi: ClassFunction, psi: ClassFunction) -> Cyclotomic:
    """(phi, psi) = |G|^-1 sum over G of phi(g) * conj(psi(g)), evaluated
    as a class-weighted sum."""
    if phi.group is not psi.group:
        raise GroupMismatch("inner product of class functions on different groups")
    g = phi.group
    total = Cyclotomic.rational(g.exponent, 0)
    for size, a, b in zip(g.class_sizes, phi.values, psi.values):
        total = total + (a * b.conjugate()) * size
    return total * Fraction(1, g.order)


def trivial_character(group: FiniteMatrixGroup) -> ClassFunction:
    one = Cyclotomic.rational(group.exponent, 1)
    return ClassFunction(group, tuple(one for _ in range(group.class_count)))


def regular_character(group: FiniteMatrixGroup) -> ClassFunction:
    m = group.exponent
    vals = [Cyclotomic.rational(m, group.order)]
    vals += [Cyclotomic.rational(m, 0)] * (group.class_count - 1)
    return ClassFunction(group, tuple(vals))


def rational_class_function(group: FiniteMatrixGroup, values) -> ClassFunction:
    m = group.exponent
    return ClassFunction(group, tuple(Cyclotomic.rational(m, v) for v in values))


def induce_trivial(group: FiniteMatrixGroup, subgroup) -> ClassFunction:
    """Induction of the trivial character of a subgroup, given as a set of
    element indices closed under multiplication:
    Ind(g) = |G| |g^G meet H| / (|g^G| |H|)."""
    members = sorted(set(subgroup))
    if not is_subgroup(group, members):
        raise NotASubgroup(f"{members} is not closed under multiplication")
    counts = [0] * group.class_count
    for x in members:
        counts[group.class_of[x]] += 1
    return rational_class_function(group, (
        Fraction(group.order * count, size * len(members))
        for count, size in zip(counts, group.class_sizes)))


# ---------------------------------------------------------------------------
# character tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharacterTable:
    group: FiniteMatrixGroup = field(compare=False, repr=False)
    rows: tuple[ClassFunction, ...]
    degrees: tuple[int, ...]
    trivial_index: int
    source: str = field(default="dixon", compare=False)

    @property
    def size(self) -> int:
        return len(self.rows)

    def linear_indices(self) -> tuple[int, ...]:
        return tuple(i for i, d in enumerate(self.degrees) if d == 1)


def _validate_rows(group: FiniteMatrixGroup,
                   rows: tuple[ClassFunction, ...]) -> tuple[tuple[int, ...], int]:
    k = group.class_count
    if len(rows) != k:
        raise ValidationFailed("squareness",
                               f"{len(rows)} rows for {k} conjugacy classes")
    degrees = []
    for i, row in enumerate(rows):
        try:
            d = row.values[0].as_fraction()
        except ValueError:
            raise ValidationFailed("degree", f"row {i} has a non-rational degree")
        if d.denominator != 1 or d <= 0:
            raise ValidationFailed("degree", f"row {i} has degree {d}")
        degrees.append(int(d))
    if sum(d * d for d in degrees) != group.order:
        raise ValidationFailed("degree sum",
                               f"sum of squared degrees is {sum(d*d for d in degrees)},"
                               f" group order is {group.order}")
    # First orthogonality for the square table X reads X D X* = |G| I with
    # D the diagonal of class sizes. It makes X invertible with inverse
    # D X* / |G|, so X* X = |G| D^-1 holds exactly in the cyclotomic field:
    # that is second orthogonality, which therefore needs no check of its own.
    one = Cyclotomic.rational(group.exponent, 1)
    zero = Cyclotomic.rational(group.exponent, 0)
    for i in range(k):
        for j in range(i, k):
            expected = one if i == j else zero
            if inner_product(rows[i], rows[j]) != expected:
                raise ValidationFailed("first orthogonality", f"rows {i}, {j}")
    trivial = None
    for i, row in enumerate(rows):
        if all(v == one for v in row.values):
            trivial = i
            break
    if trivial is None:
        raise ValidationFailed("trivial row", "no all-ones row present")
    return tuple(degrees), trivial


def build_table(group: FiniteMatrixGroup, rows, source: str) -> CharacterTable:
    rows = tuple(rows)
    degrees, trivial = _validate_rows(group, rows)
    return CharacterTable(group=group, rows=rows, degrees=degrees,
                          trivial_index=trivial, source=source)


def find_row(table: CharacterTable, values: tuple[Cyclotomic, ...]) -> int | None:
    for i, row in enumerate(table.rows):
        if row.values == values:
            return i
    return None


def tensor_identify(table: CharacterTable, i: int, linear: ClassFunction) -> int:
    """Index of the row equal to row i twisted by a degree-1 character."""
    try:
        d = linear.values[0].as_fraction()
    except ValueError:
        raise NotLinearCharacter("twisting character has non-rational degree")
    if d != 1:
        raise NotLinearCharacter(f"twisting character has degree {d}")
    product = table.rows[i].tensor(linear)
    j = find_row(table, product.values)
    if j is None:
        raise NoMatch(f"row {i} twisted by the given character is not in the table")
    return j


# ---------------------------------------------------------------------------
# modular computation of the irreducible table
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True

def _working_prime(exponent: int, order: int) -> int:
    """Smallest prime p = 1 (mod exponent) with p^2 > 4*order, so that F_p
    contains the needed roots of unity and degree lifts are unambiguous."""
    k = 1
    while k < 10_000_000:
        p = k * exponent + 1
        if p * p > 4 * order and _is_prime(p):
            return p
        k += 1
    raise PrimeSearchFailed(
        f"no prime = 1 mod {exponent} above 2*sqrt({order}) within bounds")

def _root_of_unity_mod(p: int, e: int) -> int:
    if e == 1:
        return 1
    prime_factors = set()
    n = e
    f = 2
    while f * f <= n:
        while n % f == 0:
            prime_factors.add(f)
            n //= f
        f += 1
    if n > 1:
        prime_factors.add(n)
    for z in range(2, p):
        if pow(z, e, p) == 1 and all(pow(z, e // q, p) != 1 for q in prime_factors):
            return z
    raise PrimeSearchFailed(f"no element of order {e} in F_{p}")

def _echelon_mod(vectors: list[list[int]], p: int) -> list[list[int]]:
    """Reduced row echelon form over F_p; canonical basis of the row span."""
    rows = [list(v) for v in vectors]
    width = len(rows[0]) if rows else 0
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] % p != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] % p != 0:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        r += 1
    return rows[:r]

def _charpoly_mod(mat: list[list[int]], p: int) -> list[int]:
    """Characteristic polynomial over F_p via Hessenberg reduction."""
    n = len(mat)
    h = [row[:] for row in mat]
    for j in range(n - 2):
        pivot = next((i for i in range(j + 1, n) if h[i][j] % p != 0), None)
        if pivot is None:
            continue
        if pivot != j + 1:
            h[pivot], h[j + 1] = h[j + 1], h[pivot]
            for row in h:
                row[pivot], row[j + 1] = row[j + 1], row[pivot]
        inv = pow(h[j + 1][j], p - 2, p)
        for i in range(j + 2, n):
            if h[i][j] % p != 0:
                f = (h[i][j] * inv) % p
                for c in range(n):
                    h[i][c] = (h[i][c] - f * h[j + 1][c]) % p
                for r in range(n):
                    h[r][j + 1] = (h[r][j + 1] + f * h[r][i]) % p
    # char polys of leading principal submatrices of the Hessenberg form
    polys: list[list[int]] = [[1]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        cur = [0] * (len(prev) + 1)
        d = h[m - 1][m - 1] % p
        for t, c in enumerate(prev):
            cur[t + 1] = (cur[t + 1] + c) % p
            cur[t] = (cur[t] - d * c) % p
        prod = 1
        for i in range(m - 1, 0, -1):
            prod = (prod * h[i][i - 1]) % p
            f = (h[i - 1][m - 1] * prod) % p
            if f:
                for t, c in enumerate(polys[i - 1]):
                    cur[t] = (cur[t] - f * c) % p
        polys.append(cur)
    return polys[n]

def _poly_roots_mod(poly: list[int], p: int) -> list[int]:
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots

def _kernel_mod(mat: list[list[int]], p: int) -> list[list[int]]:
    """Canonical kernel basis of a square matrix over F_p."""
    n = len(mat)
    rows = _echelon_mod(mat, p)
    pivots = []
    for row in rows:
        pivots.append(next(c for c in range(n) if row[c] % p != 0))
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-rows[r][fc]) % p
        basis.append(v)
    return basis

def _structure_matrices(group: FiniteMatrixGroup) -> list[list[list[int]]]:
    """a[i][j][l] = number of pairs (x, y) in C_i x C_j with x*y = z_l for a
    fixed representative z_l of class l."""
    k = group.class_count
    reps = group.class_representatives
    a = [[[0] * k for _ in range(k)] for _ in range(k)]
    for l in range(k):
        z = reps[l]
        for i, members in enumerate(group.class_partition):
            row = a[i]
            for x in members:
                j = group.class_of[group.mul(group.inverse[x], z)]
                row[j][l] += 1
    return a


def dixon_character_table(group: FiniteMatrixGroup) -> CharacterTable:
    k = group.class_count
    e = group.exponent
    p = _working_prime(e, group.order)
    struct = _structure_matrices(group)
    sizes = group.class_sizes
    reps = group.class_representatives

    # split F_p^k into the simultaneous eigenspaces of the class matrices
    subspaces: list[list[list[int]]] = [_echelon_mod(
        [[1 if i == j else 0 for j in range(k)] for i in range(k)], p)]
    for ci in range(1, k):
        if all(len(v) == 1 for v in subspaces):
            break
        bmat = struct[ci]
        refined: list[list[list[int]]] = []
        for basis in subspaces:
            d = len(basis)
            if d == 1:
                refined.append(basis)
                continue
            images = []
            for vec in basis:
                img = [sum(bmat[j][l] * vec[l] for l in range(k)) % p
                       for j in range(k)]
                images.append(img)
            pivots = [next(c for c in range(k) if row[c] % p != 0)
                      for row in basis]
            action = [[images[j][pivots[i]] % p for j in range(d)]
                      for i in range(d)]
            # invariance check: the image must land back in the subspace
            for j in range(d):
                recon = [sum(action[i][j] * basis[i][l] for i in range(d)) % p
                         for l in range(k)]
                if recon != [v % p for v in images[j]]:
                    raise ValidationFailed("class algebra",
                                           "class matrix does not preserve a "
                                           "previously split eigenspace")
            eigenvalues = sorted(set(_poly_roots_mod(_charpoly_mod(action, p), p)))
            covered = 0
            for lam in eigenvalues:
                shifted = [[(action[i][j] - (lam if i == j else 0)) % p
                            for j in range(d)] for i in range(d)]
                coord_basis = _kernel_mod(shifted, p)
                if not coord_basis:
                    continue
                vecs = [[sum(coords[i] * basis[i][l] for i in range(d)) % p
                         for l in range(k)] for coords in coord_basis]
                refined.append(_echelon_mod(vecs, p))
                covered += len(coord_basis)
            if covered != d:
                raise ValidationFailed("class algebra",
                                       "class matrix is not diagonalizable")
        subspaces = refined
    if any(len(v) != 1 for v in subspaces):
        raise ValidationFailed("class algebra", "joint eigenspaces not all 1-dimensional")

    # central characters, normalized to take value 1 on the identity class
    omegas = []
    for basis in subspaces:
        w = basis[0]
        if w[0] % p == 0:
            raise ValidationFailed("class algebra", "eigenvector vanishes at identity")
        inv0 = pow(w[0], p - 2, p)
        omegas.append([(v * inv0) % p for v in w])

    inv_class = [group.class_of[group.inverse[reps[i]]] for i in range(k)]
    inv_sizes = [pow(s, p - 2, p) for s in sizes]

    degrees_mod = []
    for w in omegas:
        s = sum(w[i] * w[inv_class[i]] * inv_sizes[i] for i in range(k)) % p
        if s == 0:
            raise ValidationFailed("class algebra", "degenerate degree sum")
        d2 = (group.order * pow(s, p - 2, p)) % p
        d = next((c for c in range(1, isqrt(group.order) + 1)
                  if (c * c) % p == d2), None)
        if d is None:
            raise ValidationFailed("class algebra", "degree lift failed")
        degrees_mod.append(d)

    chi_mod = [[(degrees_mod[t] * omegas[t][j] * inv_sizes[j]) % p
                for j in range(k)] for t in range(k)]

    # lift to exact cyclotomic values through eigenvalue multiplicities
    z = _root_of_unity_mod(p, e)
    zpow = [pow(z, s, p) for s in range(e)]
    inv_e = pow(e, p - 2, p)
    power_class = []
    for j in range(k):
        row = []
        x = 0
        for _ in range(e):
            row.append(group.class_of[x])
            x = group.mul(x, reps[j])
        power_class.append(row)

    rows = []
    for t in range(k):
        values = []
        for j in range(k):
            coeffs = []
            for s in range(e):
                acc = 0
                for u in range(e):
                    acc += chi_mod[t][power_class[j][u]] * zpow[(-s * u) % e]
                ms = (acc % p) * inv_e % p
                if ms > degrees_mod[t]:
                    raise ValidationFailed("class algebra",
                                           f"eigenvalue multiplicity lift {ms} "
                                           f"exceeds degree {degrees_mod[t]}")
                coeffs.append(ms)
            if sum(coeffs) != degrees_mod[t]:
                raise ValidationFailed("class algebra",
                                       "eigenvalue multiplicities do not sum "
                                       "to the degree")
            values.append(Cyclotomic.from_powers(e, coeffs))
        rows.append(ClassFunction(group, tuple(values)))

    rows.sort(key=lambda r: (r.values[0].as_fraction(),
                             tuple(v.coeffs for v in r.values)))
    return build_table(group, rows, source="dixon")


# ---------------------------------------------------------------------------
# ingesting an externally supplied table
# ---------------------------------------------------------------------------

def ingest_character_table(group: FiniteMatrixGroup, raw: dict) -> CharacterTable:
    """Accept a table in the exchange format

        {"conductor": m, "classes": [...], "rows": [[[num, den] ...] ...]}

    where classes lists the representative element indices in table column
    order and each value is a coefficient list on the powers of zeta_m."""
    if not isinstance(raw, dict):
        raise ValidationFailed("format", "table must be a JSON object")
    try:
        conductor = int(raw["conductor"])
        classes = list(raw["classes"])
        raw_rows = list(raw["rows"])
    except (KeyError, TypeError) as exc:
        raise ValidationFailed("format", f"missing or malformed field: {exc}")
    if conductor != group.exponent:
        raise ValidationFailed("conductor",
                               f"table conductor {conductor}, group exponent "
                               f"{group.exponent}")
    if classes != list(group.class_representatives):
        raise ValidationFailed("classes",
                               f"expected representatives "
                               f"{list(group.class_representatives)}, got {classes}")
    k = group.class_count
    rows = []
    for i, raw_row in enumerate(raw_rows):
        if len(raw_row) != k:
            raise ValidationFailed("squareness",
                                   f"row {i} has {len(raw_row)} values for {k} classes")
        values = []
        for raw_value in raw_row:
            coeffs = []
            for pair in raw_value:
                num, den = pair
                coeffs.append(Fraction(int(num), int(den)))
            if len(coeffs) > conductor:
                raise ValidationFailed("format",
                                       f"value with {len(coeffs)} coefficients "
                                       f"for conductor {conductor}")
            values.append(Cyclotomic.from_powers(conductor, coeffs))
        rows.append(ClassFunction(group, tuple(values)))
    return build_table(group, rows, source="user")


def table_to_dict(table: CharacterTable) -> dict:
    """Serialize a table back into the exchange format."""
    return {
        "conductor": table.group.exponent,
        "classes": list(table.group.class_representatives),
        "rows": [
            [[[c.numerator, c.denominator] for c in value.coeffs]
             for value in row.values]
            for row in table.rows
        ],
    }
