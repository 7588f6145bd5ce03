"""Class functions, character tables and their construction.

The table of irreducible characters is computed by the modular method of
Dixon and Schneider: the class matrices, holding the class-sum structure
constants, commute, and their simultaneous eigenvectors over a suitable
prime field are the central characters. A class matrix is built only when
the eigenspace split reaches its class. Degrees and character values are
then recovered modulo p and lifted to exact cyclotomic integers through the
root-of-unity multiplicity counting formula, at the order of each class's
representative. Only the leader of each Galois family of classes is lifted:
a class whose representative is conjugate to rep_leader^a takes the
leader's eigenvalue multiplicities on zeta_o^(r*a) in place of zeta_o^r.
Such an eigenvalue multiset is a sparse preimage of the value in
Z[x]/(x^e - 1). A user-supplied table gives one as well: the coefficients
of each entry on the powers of zeta_e, reduced or not. Both sources enter
through `build_table`, which reduces each distinct preimage once to a value
and checks the table against first orthogonality, which for a square table
implies the second; each distinct entry enters that check once, through its
preimage where that is sparser than its reduced coefficients. The twist of
every row by one degree-1 character is looked up here as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import isqrt
from operator import mul

from .cyclo import Cyclotomic, _reduce
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


def build_table(group: FiniteMatrixGroup, preimages, source: str
                ) -> CharacterTable:
    """Validate a table and build its rows. `preimages` holds, row by row
    and class by class, each entry as a sparse preimage in Z[x]/(x^e - 1):
    a hashable sequence of (power, coefficient) pairs, 0 <= power < e."""
    k = group.class_count
    if len(preimages) != k:
        raise ValidationFailed("squareness",
                               f"{len(preimages)} rows for {k} conjugacy classes")
    # Each distinct preimage is reduced once to its value, and keeps one
    # sparse term list on the powers of zeta_e: the preimage or the reduced
    # coefficients, whichever has fewer terms. Reduction modulo the
    # cyclotomic polynomial is a ring map from Z[x]/(x^e - 1) that sends
    # x^-1 to the complex conjugate of zeta_e, so sums over either form
    # reduce to the same value.
    e = group.exponent
    sparse: dict = {}
    rows, entry_terms = [], []
    for pres in preimages:
        values, line = [], []
        for pre in pres:
            if (entry := sparse.get(pre)) is None:
                vec = [0] * e
                for s, a in pre:
                    vec[s] += a
                coeffs = _reduce(e, vec)
                pairs = tuple((s, a) for s, a in enumerate(coeffs) if a)
                if len(pre) < len(pairs):
                    pairs = pre
                # the value, then its terms and those of its complex conjugate
                entry = sparse[pre] = (Cyclotomic(e, coeffs), (
                    pairs, [(-s % e, a) for s, a in pairs]))
            values.append(entry[0])
            line.append(entry[1])
        rows.append(ClassFunction(group, tuple(values)))
        entry_terms.append(line)
    degrees = []
    for i, row in enumerate(rows):
        try:
            d = row.values[0].as_fraction()
        except ValueError:
            raise ValidationFailed("degree", f"row {i} has a non-rational degree")
        if d.denominator != 1 or d <= 0:
            raise ValidationFailed("degree", f"row {i} has degree {d}")
        degrees.append(int(d))
    # First orthogonality for the square table X reads X D X* = |G| I with
    # D the diagonal of class sizes. It makes X invertible with inverse
    # D X* / |G|, so X* X = |G| D^-1 holds exactly in the cyclotomic field:
    # that is second orthogonality, whose identity entry is sum deg^2 = |G|:
    # neither needs a check of its own. Each entry is summed exactly on the
    # powers of zeta_e and reduced once. A rational r is stored as
    # (r, 0, ..., 0).
    weighted = [[[(s, a * size) for s, a in pairs]
                 for (pairs, _), size in zip(line, group.class_sizes)]
                for line in entry_terms]
    conjugated = [[conj for _, conj in line] for line in entry_terms]
    zeros = (0,) * (e - 1)
    targets = ((0, *zeros), (group.order, *zeros))
    for i in range(k):
        for j in range(i, k):
            vec = [0] * e
            for left, right in zip(weighted[i], conjugated[j]):
                for s, a in left:
                    for t, b in right:
                        vec[(s + t) % e] += a * b
            if _reduce(e, vec) != targets[i == j]:
                raise ValidationFailed("first orthogonality", f"rows {i}, {j}")
    one = (1, *zeros)
    trivial = next((i for i, row in enumerate(rows)
                    if all(v.coeffs == one for v in row.values)), None)
    if trivial is None:
        raise ValidationFailed("trivial row", "no all-ones row present")
    return CharacterTable(group=group, rows=tuple(rows), degrees=tuple(degrees),
                          trivial_index=trivial, source=source)


def find_row(table: CharacterTable, values: tuple[Cyclotomic, ...]) -> int | None:
    for i, row in enumerate(table.rows):
        if row.values == values:
            return i
    return None


def twist_indices(table: CharacterTable, linear: ClassFunction) -> list[int]:
    """For each row i, the index of the row chi_i (x) linear, for a degree-1
    character `linear`. Where `linear` is 1 a value is kept and where it is
    -1 negated, so a rational twist makes no cyclotomic product."""
    if linear.group is not table.group:
        raise GroupMismatch("tensor of class functions on different groups")
    one = Cyclotomic.rational(table.group.exponent, 1)
    if linear.values[0] != one:
        raise NotLinearCharacter(
            f"twisting character has degree {linear.values[0]}")
    # None marks a value -1, negated rather than multiplied
    factors = [(c, None if v == -one else v)
               for c, v in enumerate(linear.values) if v != one]
    index = {row.values: i for i, row in enumerate(table.rows)}
    twist = []
    for i, row in enumerate(table.rows):
        values = list(row.values)
        for c, v in factors:
            values[c] = -values[c] if v is None else values[c] * v
        if (j := index.get(tuple(values))) is None:
            raise NoMatch(f"row {i} twisted by the given character is not in "
                          f"the table")
        twist.append(j)
    return twist


def tensor_identify(table: CharacterTable, i: int, linear: ClassFunction) -> int:
    """Index of the row equal to row i twisted by a degree-1 character."""
    return twist_indices(table, linear)[i]


# ---------------------------------------------------------------------------
# modular computation of the irreducible table
# ---------------------------------------------------------------------------

def _prime_factors(n: int) -> set[int]:
    """The primes dividing n >= 1, by trial division."""
    factors = set()
    f = 2
    while f * f <= n:
        while n % f == 0:
            factors.add(f)
            n //= f
        f += 1
    if n > 1:
        factors.add(n)
    return factors

def _working_prime(exponent: int, order: int) -> int:
    """Smallest prime p = 1 (mod exponent) with p^2 > 4*order, so that F_p
    contains the needed roots of unity and degree lifts are unambiguous."""
    k = 1
    while k < 10_000_000:
        p = k * exponent + 1
        if p * p > 4 * order and _prime_factors(p) == {p}:
            return p
        k += 1
    raise PrimeSearchFailed(
        f"no prime = 1 mod {exponent} above 2*sqrt({order}) within bounds")

def _root_of_unity_mod(p: int, e: int) -> int:
    if e == 1:
        return 1
    prime_factors = _prime_factors(e)
    for z in range(2, p):
        if pow(z, e, p) == 1 and all(pow(z, e // q, p) != 1 for q in prime_factors):
            return z
    raise PrimeSearchFailed(f"no element of order {e} in F_{p}")

def _echelon_mod(vectors: list[list[int]], p: int) -> list[list[int]]:
    """Reduced row echelon form over F_p; canonical basis of the row span.
    Rows at or below the current one are zero left of the current column,
    so row operations touch only the pivot row's nonzero entries from the
    pivot column on."""
    rows = [[v % p for v in vec] for vec in vectors]
    width = len(rows[0]) if rows else 0
    r = 0
    for c in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        inv = pow(prow[c], p - 2, p)
        # the pivot row's support, scaled so that the pivot is 1
        support = [(j, prow[j] * inv % p) for j in range(c, width) if prow[j]]
        for j, v in support:
            prow[j] = v
        for i, row in enumerate(rows):
            if i != r and (f := row[c]):
                for j, v in support:
                    row[j] = (row[j] - f * v) % p
        r += 1
        if r == len(rows):
            break
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

def _class_matrix(group: FiniteMatrixGroup, c: int) -> list[list[int]]:
    """a[j][l] = number of x in C_c with x^-1 z_l in C_j, for a fixed
    representative z_l of class l: the class-sum structure constants of one
    class, at a cost of |C_c| * k products (Schneider 1990)."""
    k = group.class_count
    a = [[0] * k for _ in range(k)]
    for l, z in enumerate(group.class_representatives):
        for x in group.class_partition[c]:
            a[group.class_of[group.mul(group.inverse[x], z)]][l] += 1
    return a


def dixon_character_table(group: FiniteMatrixGroup) -> CharacterTable:
    k = group.class_count
    e = group.exponent
    p = _working_prime(e, group.order)
    sizes = group.class_sizes
    reps = group.class_representatives

    # split F_p^k into the simultaneous eigenspaces of the class matrices,
    # building each class matrix only when the split reaches its class
    subspaces: list[list[list[int]]] = [_echelon_mod(
        [[1 if i == j else 0 for j in range(k)] for i in range(k)], p)]
    for ci in range(1, k):
        if all(len(v) == 1 for v in subspaces):
            break
        bmat = _class_matrix(group, ci)
        refined: list[list[list[int]]] = []
        for basis in subspaces:
            d = len(basis)
            if d == 1:
                refined.append(basis)
                continue
            images = [[sum(map(mul, row, vec)) % p for row in bmat]
                      for vec in basis]
            pivots = [next(c for c in range(k) if row[c] % p != 0)
                      for row in basis]
            action = [[images[j][pivots[i]] for j in range(d)]
                      for i in range(d)]
            columns = list(zip(*basis))
            # invariance check: the image must land back in the subspace
            for j in range(d):
                coeffs = [row[j] for row in action]
                recon = [sum(map(mul, coeffs, col)) % p for col in columns]
                if recon != images[j]:
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
                vecs = [[sum(map(mul, coords, col)) % p for col in columns]
                        for coords in coord_basis]
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

    # lift to exact cyclotomic values through eigenvalue multiplicities: an
    # element of order o has eigenvalues zeta_e^s only for s a multiple of
    # e/o, each with multiplicity (1/o) sum_{u<o} chi(x^u) zeta_e^(-s u)
    z = _root_of_unity_mod(p, e)
    zpow = [pow(z, s, p) for s in range(e)]

    # the DFT rows depend only on the order o: dft[o][r][u] = zeta^(-r*u*e/o)
    dft = {o: [[zpow[(-r * (e // o) * u) % e] for u in range(o)]
               for r in range(o)]
           for o in {len(row) for row in group.power_classes}}

    # chi(rep_leader^a) has the eigenvalues zeta_o^(r*a) of chi(rep_leader),
    # with the same multiplicities: only family leaders are lifted. The
    # eigenvalue multiset sum mults[r] x^(r*a*e/o mod e) is a sparse preimage
    # of the value in Z[x]/(x^e - 1), which `build_table` reduces.
    lifts = []
    for t in range(k):
        lifted = {}
        for j in group.leaders:
            powers = [chi_mod[t][c] for c in group.power_classes[j]]
            o = len(powers)
            inv_o = pow(o, p - 2, p)
            mults = [(acc % p) * inv_o % p for acc in (
                sum(map(mul, powers, dft_row)) for dft_row in dft[o])]
            if (top := max(mults)) > degrees_mod[t]:
                raise ValidationFailed("class algebra",
                                       f"eigenvalue multiplicity lift {top} "
                                       f"exceeds degree {degrees_mod[t]}")
            if sum(mults) != degrees_mod[t]:
                raise ValidationFailed("class algebra",
                                       "eigenvalue multiplicities do not sum "
                                       "to the degree")
            lifted[j] = [(r * (e // o), m) for r, m in enumerate(mults) if m]
        lifts.append([tuple(sorted((s * a % e, m) for s, m in lifted[leader]))
                      for leader, a in group.families])

    # rows by degree, then by reduced coefficients
    table = build_table(group, lifts, source="dixon")
    order = sorted(range(k), key=lambda i: (
        table.degrees[i], tuple(v.coeffs for v in table.rows[i].values)))
    return replace(table, rows=tuple(table.rows[i] for i in order),
                   degrees=tuple(table.degrees[i] for i in order),
                   trivial_index=order.index(table.trivial_index))


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
        conductor, classes, raw_rows = raw["conductor"], raw["classes"], raw["rows"]
    except KeyError as exc:
        raise ValidationFailed("format", f"missing field: {exc}")
    if not (type(conductor) is int and isinstance(classes, list)
            and all(type(c) is int for c in classes)
            and isinstance(raw_rows, list)):
        raise ValidationFailed("format", "conductor must be an integer, "
                                         "classes a list of integers and "
                                         "rows a list")
    if conductor != group.exponent:
        raise ValidationFailed("conductor",
                               f"table conductor {conductor}, group exponent "
                               f"{group.exponent}")
    if classes != list(group.class_representatives):
        raise ValidationFailed("classes",
                               f"expected representatives "
                               f"{list(group.class_representatives)}, got {classes}")
    k = group.class_count
    preimages = []
    for i, raw_row in enumerate(raw_rows):
        if not isinstance(raw_row, list):
            raise ValidationFailed("format", f"row {i} is not a list")
        if len(raw_row) != k:
            raise ValidationFailed("squareness",
                                   f"row {i} has {len(raw_row)} values for {k} classes")
        pres = []
        for raw_value in raw_row:
            if not (isinstance(raw_value, list) and all(
                    isinstance(pair, list) and len(pair) == 2
                    and all(type(v) is int for v in pair) and pair[1] != 0
                    for pair in raw_value)):
                raise ValidationFailed(
                    "format", f"row {i}: value {raw_value!r} is not a list of "
                              f"[num, den] integer pairs with den != 0")
            if len(raw_value) > conductor:
                raise ValidationFailed("format",
                                       f"value with {len(raw_value)} coefficients "
                                       f"for conductor {conductor}")
            # the coefficients on zeta^0, zeta^1, ...: a preimage as it stands
            pres.append(tuple((s, Fraction(num, den))
                              for s, (num, den) in enumerate(raw_value) if num))
        preimages.append(pres)
    return build_table(group, preimages, source="user")


def _cell(coeffs) -> list[list[int]]:
    # [num, den] pairs up to the last nonzero coefficient
    end = len(coeffs)
    while end and not coeffs[end - 1]:
        end -= 1
    return [[c.numerator, c.denominator] for c in coeffs[:end]]


def table_to_dict(table: CharacterTable) -> dict:
    """Serialize a table back into the exchange format. Each value lists
    its coefficients only up to the last nonzero one; the missing powers
    are zero, as `ingest_character_table` reads them. Equal values share
    one cell list."""
    cells: dict = {}

    def cell(coeffs):
        if (found := cells.get(coeffs)) is None:
            found = cells[coeffs] = _cell(coeffs)
        return found

    return {
        "conductor": table.group.exponent,
        "classes": list(table.group.class_representatives),
        "rows": [[cell(value.coeffs) for value in row.values]
                 for row in table.rows],
    }
