"""Class functions, character tables and their construction.

The table of irreducible characters is computed by the modular method of
Dixon and Schneider: the class matrices, holding the class-sum structure
constants, commute, and their simultaneous eigenvectors over a suitable
prime field are the central characters. A class matrix is built, as sparse
columns, only when the eigenspace split reaches its class. Values are
lifted from F_p at family leaders only, for one row of each Galois orbit of
rows: a class alone in its family takes the symmetric residue, another the
root-of-unity multiplicities, a sparse preimage in Z[x]/(x^e - 1). Dixon's
tables and user-supplied ones enter through `build_table`, which reduces
each distinct preimage once and certifies that the rows are exactly the
irreducible characters: eigenvectors of the class matrices, told apart by
their eigenvalues, each of norm 1. The twist of a row by a degree-1
character is looked up here as well.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm
from operator import mul

from .cyclo import Cyclotomic, Rationalish, _reduce
from .errors import (GroupMismatch, NoMatch, NonRationalCoefficient,
                     NotASubgroup, NotLinearCharacter, PrimeSearchFailed,
                     ValidationFailed)
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


def build_table(group: FiniteMatrixGroup, preimages, source: str, *,
                class_matrices=None) -> CharacterTable:
    """Validate a table and build its rows. `preimages` holds, row by row
    and class by class, each entry as a sparse preimage in Z[x]/(x^e - 1):
    a tuple of (power, coefficient) pairs, 0 <= power < e. `class_matrices`
    maps classes to `_class_matrix`'s results already built, if any."""
    k = group.class_count
    if len(preimages) != k:
        raise ValidationFailed("squareness",
                               f"{len(preimages)} rows for {k} conjugacy classes")
    # each distinct preimage is reduced once to its value
    e, values = group.exponent, {}
    for pre in {pre for pres in preimages for pre in pres}:
        vec = [0] * (1 + max((s for s, _ in pre), default=0))
        for s, a in pre:
            vec[s] += a
        values[pre] = Cyclotomic(e, _reduce(e, vec))
    rows = [ClassFunction(group, tuple(map(values.__getitem__, pres)))
            for pres in preimages]
    degrees = []
    for i, row in enumerate(rows):
        try:
            d = row.values[0].as_fraction()
        except ValueError:
            raise ValidationFailed("degree", f"row {i} has a non-rational degree")
        if d.denominator != 1 or d <= 0:
            raise ValidationFailed("degree", f"row {i} has degree {d}")
        degrees.append(int(d))
    one = Cyclotomic.rational(e, 1)
    trivial = next((i for i, row in enumerate(rows)
                    if all(v == one for v in row.values)), None)
    if trivial is None:
        raise ValidationFailed("trivial row", "no all-ones row present")
    _certify(group, rows, degrees, preimages, class_matrices or {})
    return CharacterTable(group=group, rows=tuple(rows), degrees=tuple(degrees),
                          trivial_index=trivial, source=source)


def _certify(group: FiniteMatrixGroup, rows, degrees, preimages,
             built) -> None:
    """Prove that the rows are the k irreducible characters (Schneider
    1990). For a row chi of degree d let u_c = |C_c| chi(c) and w = u / d.
    The class matrices M_t are diagonal in the basis of the central
    characters w_psi, psi irreducible (Isaacs, ch. 3). Classes t are taken
    in the split's order until the rows' tuples (w_t) differ. If each row
    has d M_t u = u_t u at each such t, the k rows lie in k distinct joint
    eigenspaces: each is a line, w = w_psi as both are 1 at the identity,
    and a norm sum_c |C_c| chi(c) chi(c^-1) = |G| makes chi = psi."""
    k, common = group.class_count, lcm(*degrees)
    # chi(t) / chi(1) times the degrees' lcm: w_t up to a common factor
    cells = [tuple(v.coeffs for v in row.values) for row in rows]
    keys, classes = [()] * k, []
    for t in _split_order(group):
        if len(set(keys)) == k:
            break
        classes.append(t)
        keys = [key + (tuple(a * (common // d) for a in cell[t]),)
                for key, cell, d in zip(keys, cells, degrees)]
    if len(set(keys)) < k:
        raise ValidationFailed("class algebra",
                               "no class matrices tell the rows apart")
    mats = [built[t] if t in built else _class_matrix(group, t)
            for t in classes]
    # sum_i B^i M_(t_i), as the classes and entries of each of its rows
    base, combined = 2 * group.order + 1, [Counter() for _ in range(k)]
    for scale, mat in zip((base ** i for i in range(len(mats))), mats):
        for l, column in enumerate(mat):
            for j, a in column:
                combined[j][l] += a * scale
    combined = [(list(line), list(line.values())) for line in combined]
    inverse = [seq[-1] for seq in group.power_classes]  # class of rep^-1
    # sigma_b(chi) = chi o pi_b: a certified row composed with pi_b has a
    # joint eigenvector w o pi_b and the same norm, and is certified too
    maps = _class_maps(group)
    index = {cell: i for i, cell in enumerate(cells)} if maps else {}
    certified = set()
    for i, (row, d, pres) in enumerate(zip(rows, degrees, preimages)):
        if i not in certified:
            _certify_row(group, classes, mats, combined, inverse, i, row, d,
                         pres)
            certified.update(index.get(tuple(cells[i][c] for c in pi))
                             for pi in maps)


def _certify_row(group: FiniteMatrixGroup, classes, mats, combined, inverse,
                 i: int, row: ClassFunction, d: int, pres) -> None:
    """Raise unless row i has d M_t u = u_t u at each of the given classes
    t, and sum_c |C_c| chi(c) chi(c^-1) = |G|."""
    e, sizes = group.exponent, group.class_sizes
    if all(len(v.coeffs) <= 1 for v in row.values) and all(
            a.denominator == 1 for v in row.values for a in v.coeffs):
        x = [int(v.coeffs[0]) if v.coeffs else 0 for v in row.values]
        u = [size * a for size, a in zip(sizes, x)]
        # Each w_t must be an integer with |w_t| <= |C_t|, as for any
        # character. For each psi in w's expansion, the algebraic integers
        # w_psi(t_i) - w_(t_i), of conjugates at most 2 |C_t| < B, are then
        # the digits of 0 to base B: each is 0.
        eigenvalue = sum((2 * group.order + 1) ** n * u[t] // d
                         for n, t in enumerate(classes))
        fits = not any(u[t] % d or abs(x[t]) > d for t in classes) and all(
            sum(map(mul, entries, map(u.__getitem__, line))) == eigenvalue * a
            for (line, entries), a in zip(combined, u))
        norm_fits = sum(a * x[c] for a, c in zip(u, inverse)) == group.order
    else:
        # preimages in Z[x]/(x^e - 1), reduced only where the sides differ
        u = [tuple((s, size * a) for s, a in pre)
             for size, pre in zip(sizes, pres)]
        fits = True
        for t, mat in zip(classes, mats):
            sides = [Counter() for _ in u]
            for ul, column in zip(u, mat):
                for (j, a), (s, c) in product(column, ul):
                    sides[j][s] += d * a * c
            for side, uj in zip(sides, u):
                for (s, a), (r, b) in product(u[t], uj):
                    side[(s + r) % e] -= a * b
            fits = fits and all(_vanishes(e, side) for side in sides)
        norm = Counter({0: -group.order})
        for ul, pre in zip(u, (pres[c] for c in inverse)):
            for (s, a), (r, b) in product(ul, pre):
                norm[(s + r) % e] += a * b
        norm_fits = _vanishes(e, norm)
    if not fits:
        raise ValidationFailed("class algebra", f"row {i} is off its "
                               f"eigenvalue at classes {classes}")
    if not norm_fits:
        raise ValidationFailed("norm", f"row {i} does not have norm 1")


def _vanishes(e: int, poly: Counter) -> bool:
    """Whether sum poly[s] x^s is 0 in Q(zeta_e): reduced unless it is 0."""
    return not (any(poly.values()) and _reduce(e, [poly[s] for s in range(e)]))


def family_sums(table: CharacterTable) -> list[list[Rationalish]]:
    """For each row chi, the rational sum over c in F of |C_c| chi(c) for
    each Galois family F, in the order of `group.leaders`: a Galois trace
    under the power-map rule, summed over every class of F so that a table
    changed after `build_table` is checked too. Reduced coefficient vectors
    add up reduced, so a sum is rational iff no coefficient follows the
    first."""
    group = table.group
    out = []
    for i, row in enumerate(table.rows):
        vecs: dict[int, list] = {c: [0] for c in group.leaders}
        for (leader, _), size, value in zip(group.families, group.class_sizes,
                                            row.values):
            vec = vecs[leader]
            vec += [0] * (len(value.coeffs) - len(vec))
            for s, a in enumerate(value.coeffs):
                vec[s] += a * size
        for leader, vec in vecs.items():
            if any(vec[1:]):
                value = Cyclotomic(group.exponent, _reduce(group.exponent, vec))
                raise NonRationalCoefficient(
                    f"row {i}: the sum over the Galois family of class "
                    f"{leader} is {value}, not rational")
        out.append([vec[0] for vec in vecs.values()])
    return out


def find_row(table: CharacterTable, values: tuple[Cyclotomic, ...]) -> int | None:
    return next((i for i, row in enumerate(table.rows)
                 if row.values == values), None)


def twist_indices(table: CharacterTable, linear: ClassFunction) -> list[int]:
    """For each row i, the index of the row chi_i (x) linear."""
    return _twist(table, linear, range(table.size))


def tensor_identify(table: CharacterTable, i: int, linear: ClassFunction) -> int:
    """Index of the row equal to row i twisted by a degree-1 character."""
    return _twist(table, linear, (i,))[0]


def _twist(table: CharacterTable, linear: ClassFunction, indices) -> list[int]:
    """The index of each given row twisted by a degree-1 character: where it
    is 1 a value is kept and where it is -1 negated, so a rational twist
    makes no cyclotomic product."""
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
    for i in indices:
        values = list(table.rows[i].values)
        for c, v in factors:
            values[c] = -values[c] if v is None else values[c] * v
        if (j := index.get(tuple(values))) is None:
            raise NoMatch(f"row {i} twisted by the given character is not in "
                          f"the table")
        twist.append(j)
    return twist


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

def _split_order(group: FiniteMatrixGroup) -> list[int]:
    """The classes but the identity, family leaders first: the central
    characters at rep_leader^a are Galois images of those at rep_leader."""
    return sorted(range(1, group.class_count),
                  key=lambda c: group.families[c][0] != c)

def _class_maps(group: FiniteMatrixGroup) -> dict[tuple[int, ...], int]:
    """Each pi_b but the identity, b prime to e, with a b giving it: pi_b
    sends a class to that of its representative's b-th power, and sigma_b:
    zeta_e -> zeta_e^b maps a character chi to chi o pi_b."""
    e = group.exponent
    maps = {tuple(seq[b % len(seq)] for seq in group.power_classes): b
            for b in range(2, e) if gcd(b, e) == 1}
    maps.pop(tuple(range(group.class_count)), None)
    return maps

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

def _poly_roots_mod(poly: list[int], p: int, xs) -> list[int]:
    roots = []
    for x in xs:
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x % p)
    return roots

def _kernel_mod(mat: list[list[int]], p: int) -> list[list[int]]:
    """Canonical kernel basis of a square matrix over F_p."""
    n = len(mat)
    rows = _echelon_mod(mat, p)
    pivots = [next(c for c in range(n) if row[c]) for row in rows]
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-rows[r][fc]) % p
        basis.append(v)
    return basis

def _class_matrix(group: FiniteMatrixGroup, c: int) -> list[list[tuple[int, int]]]:
    """Column l as its at most |C_c| nonzero (j, a[j][l]), a[j][l] the number
    of x in C_c with x^-1 z_l in C_j, z_l representing class l: |C_c| * k
    products (Schneider 1990), each x^-1 z_l the inverse of z_l^-1 x."""
    inverse, class_of = group.inverse, group.class_of
    return [list(Counter(class_of[inverse[y]] for y in group.products(
        inverse[z], group.class_partition[c])).items())
        for z in group.class_representatives]

def _combine(coeffs, supports, k: int, p: int) -> list[int]:
    """sum_i coeffs[i] * v_i mod p, each v_i as its nonzero (j, v_i[j])."""
    out = [0] * k
    for f, support in zip(coeffs, supports):
        if f:
            for c, v in support:
                out[c] += f * v
    return [v % p for v in out]


def dixon_character_table(group: FiniteMatrixGroup) -> CharacterTable:
    k, e = group.class_count, group.exponent
    p = _working_prime(e, group.order)

    alone = {j for j, n in Counter(j for j, _ in group.families).items()
             if n == 1}
    # split F_p^k into the simultaneous eigenspaces of the class matrices,
    # building each class matrix only when the split reaches its class
    subspaces = [[[int(i == j) for j in range(k)] for i in range(k)]]
    built = {}  # handed on to the certificate
    for ci in _split_order(group):
        if all(len(v) == 1 for v in subspaces):
            break
        bmat = built[ci] = _class_matrix(group, ci)
        # at a rational class, the eigenvalues |C| psi(c) / psi(1) of the
        # class matrix are integers of absolute value at most |C|
        size = group.class_sizes[ci] if ci in alone else p
        xs = range(-size, size + 1) if 2 * size < p else range(p)
        refined: list[list[list[int]]] = []
        for basis in subspaces:
            d = len(basis)
            if d == 1:
                refined.append(basis)
                continue
            images = [_combine(vec, bmat, k, p) for vec in basis]
            supports = [[(c, v) for c, v in enumerate(row) if v]
                        for row in basis]
            pivots = [support[0][0] for support in supports]
            action = [[images[j][pivots[i]] for j in range(d)]
                      for i in range(d)]
            for lam in sorted(set(_poly_roots_mod(_charpoly_mod(action, p), p, xs))):
                shifted = [[(action[i][j] - (lam if i == j else 0)) % p
                            for j in range(d)] for i in range(d)]
                refined.append(_echelon_mod([_combine(
                    coords, supports, k, p) for coords in _kernel_mod(
                        shifted, p)], p))
        subspaces = refined
    if [len(v) for v in subspaces] != [1] * k:
        raise ValidationFailed("class algebra", "the eigenspace split does not "
                                                "end in k lines")

    # central characters, normalized to take value 1 on the identity class;
    # one vanishing there is all zero, and fails the degree lift
    omegas = [[v * inv0 % p for v in w] for (w,) in subspaces
              for inv0 in [pow(w[0], p - 2, p)]]

    inv_class = [seq[-1] for seq in group.power_classes]
    inv_sizes = [pow(s, p - 2, p) for s in group.class_sizes]

    degrees_mod = []
    for w in omegas:
        s = sum(w[i] * w[inv_class[i]] * inv_sizes[i] for i in range(k)) % p
        # s = 0 gives d2 = 0, which no c in 1..sqrt|G| < p lifts
        d2 = (group.order * pow(s, p - 2, p)) % p
        d = next((c for c in range(1, isqrt(group.order) + 1)
                  if (c * c) % p == d2), None)
        if d is None:
            raise ValidationFailed("class algebra", "degree lift failed")
        degrees_mod.append(d)

    chi_mod = [[(degrees_mod[t] * omegas[t][j] * inv_sizes[j]) % p
                for j in range(k)] for t in range(k)]

    # Lift to exact values, which `build_table` certifies. A class alone in
    # its Galois family is rational, and |chi(g)| <= chi(1) <= sqrt|G| <
    # p/2: its value is the symmetric residue of chi(g) mod p. At another
    # leader, of order o, chi(g) has eigenvalues zeta_e^s only for s a
    # multiple of e/o, each with multiplicity (1/o) sum_{u<o} chi(g^u)
    # zeta_e^(-s u), and chi(rep_leader^a) has the eigenvalues zeta_o^(r*a)
    # with the same multiplicities: sum mults[r] x^(r*a*e/o mod e) is a
    # sparse preimage of the value in Z[x]/(x^e - 1).
    z = _root_of_unity_mod(p, e)
    zpow = [pow(z, s, p) for s in range(e)]
    # the DFT rows depend only on the order o: dft[o][r][u] = zeta^(-r*u*e/o)
    dft = {o: [[zpow[(-r * (e // o) * u) % e] for u in range(o)]
               for r in range(o)]
           for o in {len(group.power_classes[j]) for j in group.leaders
                     if j not in alone}}
    # One row of each Galois orbit of rows is lifted. If chi_u = chi_t o
    # pi_b mod p, u's DFT reads t's powers with v -> v b, so its
    # multiplicities are t's moved by r -> r b^-1: u's lift is sigma_b(t's).
    maps = _class_maps(group)
    row_of = {tuple(row): t for t, row in enumerate(chi_mod)}
    lifts = [None] * k
    for t in range(k):
        if lifts[t] is not None:
            continue
        lifted = {}
        for j in group.leaders:
            if j in alone:
                lifted[j] = [(0, (chi_mod[t][j] + p // 2) % p - p // 2)]
                continue
            powers = [chi_mod[t][c] for c in group.power_classes[j]]
            o = len(powers)
            inv_o = pow(o, p - 2, p)
            mults = [(acc % p) * inv_o % p for acc in (
                sum(map(mul, powers, dft_row)) for dft_row in dft[o])]
            lifted[j] = [(r * (e // o), m) for r, m in enumerate(mults) if m]
        lifts[t] = [tuple(sorted((s * a % e, m) for s, m in lifted[leader]))
                    for leader, a in group.families]
        for pi, b in maps.items():
            u = row_of.get(tuple(chi_mod[t][c] for c in pi))
            if u is not None and lifts[u] is None:
                lifts[u] = [tuple(sorted((s * b % e, m) for s, m in pre))
                            for pre in lifts[t]]

    # rows by degree, then by reduced coefficients, compared as if padded
    # with zeros to the conductor
    table = build_table(group, lifts, source="dixon", class_matrices=built)
    width = max(len(v.coeffs) for row in table.rows for v in row.values)
    order = sorted(range(k), key=lambda i: (table.degrees[i], tuple(
        v.coeffs + (0,) * (width - len(v.coeffs)) for v in table.rows[i].values)))
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


def table_to_dict(table: CharacterTable) -> dict:
    """Serialize a table back into the exchange format. Each value lists
    its stored coefficients, which stop at the last nonzero one; the missing
    powers are zero, as `ingest_character_table` reads them. Equal values
    share one cell list."""
    cells: dict = {}

    def cell(coeffs):
        if (found := cells.get(coeffs)) is None:
            found = cells[coeffs] = [[c.numerator, c.denominator]
                                     for c in coeffs]
        return found

    return {
        "conductor": table.group.exponent,
        "classes": list(table.group.class_representatives),
        "rows": [[cell(value.coeffs) for value in row.values]
                 for row in table.rows],
    }
