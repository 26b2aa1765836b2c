"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch with plain integer
arithmetic: no imports from lrc5 except in the tests that compare the two
sides, and lrc5.errors, whose classes oracle_erasure_decode and
oracle_error_correct raise so that a test can compare verdicts. Extension
fields get a tuple-coefficient polynomial model instead of the package's
index tables. The exceptions run on the Field or EvaluationDomain they are
given: oracle_error_correct, the dense syndrome search that
codec.correct_error replaced, and the last two sections' references,
which only tests call.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from itertools import combinations
from math import comb

from lrc5.construct import EvaluationDomain
from lrc5.errors import (
    AmbiguousErasuresError,
    LengthMismatchError,
    TooLargeError,
    TooManyErasuresError,
    UndecodableError,
)
from lrc5.field import Field
from lrc5.linalg import rank, reduce_row
from lrc5.rng import LANES, SplitMix64
from lrc5.verify import constraint_matrix


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, m) with n = p^m and p prime, else None."""
    for p in range(2, n + 1):
        if not is_prime(p):
            continue
        m, v = 0, n
        while v % p == 0:
            v //= p
            m += 1
        if v == 1 and m >= 1:
            return p, m
        if p * p > n:
            break
    return (n, 1) if is_prime(n) else None


# --- plain mod-p linear algebra -------------------------------------------


def rank_mod(rows: list[list[int]], p: int) -> int:
    """Row rank over GF(p), p prime, by fresh Gaussian elimination."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((i for i in range(row, nrows) if mat[i][col] % p), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = pow(mat[row][col], p - 2, p)
        mat[row] = [(x * inv) % p for x in mat[row]]
        for i in range(nrows):
            if i != row and mat[i][col] % p:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[row])]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def mat_vec_mod(rows: list[list[int]], x: list[int], p: int) -> list[int]:
    return [sum(a * b for a, b in zip(r, x)) % p for r in rows]


# --- tuple-coefficient extension field model -------------------------------


class PolyField:
    """GF(p^m) with elements as little-endian coefficient tuples.

    The modulus is the first monic degree-m polynomial, in ascending order
    of the integer index of its low coefficients, that has no factorization
    witness; for m <= 3 irreducibility is exactly having no root in GF(p),
    and for m = 4 it is having no root and not being a product of two
    monic quadratics. A given modulus, of any degree m >= 1, is taken as
    it is: the model multiplies under it but does not certify it.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...] | None = None):
        self.p = p
        self.m = m
        self.q = p**m
        if modulus is None:
            assert m in (2, 3, 4), "root and quadratic-product tests certify m <= 4"
            modulus = self._first_irreducible()
        self.modulus = tuple(modulus)

    def _first_irreducible(self) -> tuple[int, ...]:
        p, m = self.p, self.m
        quad_products = set()
        if m == 4:
            quads = [(a, b, 1) for a in range(p) for b in range(p)]
            for f in quads:
                for g in quads:
                    prod = [0] * 5
                    for i, x in enumerate(f):
                        for j, y in enumerate(g):
                            prod[i + j] = (prod[i + j] + x * y) % p
                    quad_products.add(tuple(prod))
        for tail_index in range(p**m):
            coeffs = self.idx_to_tuple(tail_index) + (1,)
            if coeffs in quad_products:
                continue
            if all(self._poly_eval(coeffs, x) % p for x in range(p)):
                return coeffs
        raise AssertionError("no irreducible polynomial found")

    def _poly_eval(self, coeffs: tuple[int, ...], x: int) -> int:
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def idx_to_tuple(self, v: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            out.append(v % self.p)
            v //= self.p
        return tuple(out)

    def tuple_to_idx(self, t: tuple[int, ...]) -> int:
        v = 0
        for c in reversed(t):
            v = v * self.p + c
        return v

    def add_idx(self, a: int, b: int) -> int:
        ta, tb = self.idx_to_tuple(a), self.idx_to_tuple(b)
        return self.tuple_to_idx(tuple((x + y) % self.p for x, y in zip(ta, tb)))

    def neg_idx(self, a: int) -> int:
        return self.tuple_to_idx(tuple((-x) % self.p for x in self.idx_to_tuple(a)))

    def sub_idx(self, a: int, b: int) -> int:
        ta, tb = self.idx_to_tuple(a), self.idx_to_tuple(b)
        return self.tuple_to_idx(tuple((x - y) % self.p for x, y in zip(ta, tb)))

    def mul_idx(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        ta, tb = self.idx_to_tuple(a), self.idx_to_tuple(b)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(ta):
            for j, y in enumerate(tb):
                prod[i + j] = (prod[i + j] + x * y) % p
        mod = self.modulus
        for d in range(len(prod) - 1, m - 1, -1):
            f = prod[d]
            if f:
                for i, c in enumerate(mod):
                    prod[d - m + i] = (prod[d - m + i] - f * c) % p
        return self.tuple_to_idx(tuple(prod[:m]))

    def pow_idx(self, a: int, e: int) -> int:
        out = 1
        for _ in range(e):
            out = self.mul_idx(out, a)
        return out

    def inv_idx(self, a: int) -> int:
        assert a != 0
        return self.pow_idx(a, self.q - 2)

    def order_idx(self, a: int) -> int:
        assert a != 0
        x, k = a, 1
        while x != 1:
            x = self.mul_idx(x, a)
            k += 1
        return k

    def smallest_generator(self) -> int:
        for a in range(1, self.q):
            if self.order_idx(a) == self.q - 1:
                return a
        raise AssertionError("no generator")


def mult_order(x: int, q: int) -> int:
    """Multiplicative order of x mod prime q."""
    acc, k = x % q, 1
    while acc != 1:
        acc = (acc * x) % q
        k += 1
    return k


def smallest_generator(q: int) -> int:
    for x in range(2, q):
        if mult_order(x, q) == q - 1:
            return x
    raise AssertionError("no generator")


# --- plain GF(q) linear algebra, any field kind ---------------------------


def rank_gf(rows: list[list[int]], q: int) -> int:
    """Row rank over GF(q) on element indices: rank_mod for prime q, else a
    fresh Gaussian elimination in the PolyField model."""
    if is_prime(q):
        return rank_mod(rows, q)
    fld = PolyField(*prime_power(q))
    mat = [list(r) for r in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = fld.inv_idx(mat[rank][col])
        prow = [fld.mul_idx(inv, x) for x in mat[rank]]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col]
            if f:
                mat[i] = [fld.sub_idx(a, fld.mul_idx(f, b)) for a, b in zip(mat[i], prow)]
        rank += 1
    return rank


def mat_vec_gf(rows: list[list[int]], x: list[int], q: int) -> list[int]:
    """A x over GF(q) on element indices, in the PolyField model for prime powers."""
    if is_prime(q):
        return mat_vec_mod(rows, x, q)
    fld = PolyField(*prime_power(q))
    out = []
    for row in rows:
        acc = 0
        for a, b in zip(row, x):
            acc = fld.add_idx(acc, fld.mul_idx(a, b))
        out.append(acc)
    return out


# --- construction reimplemented from the public contract -------------------


def oracle_monomials(q: int, r: int) -> list[tuple[int, int]]:
    removed = {(0, 0), (q - 3, q - 2), (q - 4, q - 2)}
    return [
        (i, j)
        for i in range(q - 1)
        for j in range(q - 1)
        if i % (r + 1) != r and (i, j) not in removed
    ]


def _arith(q: int):
    """(add, mul, g) on element indices of GF(q): plain integers mod q for
    prime q, otherwise the PolyField model under the field's modulus, so at
    every degree m; g is the smallest generator."""
    if is_prime(q):
        g = smallest_generator(q)
        return (lambda a, b: (a + b) % q), (lambda a, b: a * b % q), g
    p, m = prime_power(q)
    fld = PolyField(p, m, Field(p, m).modulus)
    return fld.add_idx, fld.mul_idx, fld.smallest_generator()


def oracle_points(q: int, r: int) -> list[tuple[int, int]]:
    """Grid ordering: index t(q-1) + c(r+1) + s -> (g^c h^s, g^t) with
    h = g^((q-1)/(r+1)); prime q, or q = p^m via PolyField."""
    _, mul, g = _arith(q)
    powers = [1]
    for _ in range(q - 2):
        powers.append(mul(powers[-1], g))
    step = (q - 1) // (r + 1)
    pts = []
    for t in range(q - 1):
        for c in range(step):
            for s in range(r + 1):
                pts.append((powers[c + s * step], powers[t]))
    return pts


@lru_cache(maxsize=None)
def _tables(q: int):
    """(add, mul, neg, inv, powers, log) tables of _arith; powers[e] is g^e
    and log inverts it on the units. Shared between calls: never mutate."""
    add, mul, g = _arith(q)
    add_t = [[add(a, b) for b in range(q)] for a in range(q)]
    mul_t = [[mul(a, b) for b in range(q)] for a in range(q)]
    neg = [row.index(0) for row in add_t]
    inv = [None] + [row.index(1) for row in mul_t[1:]]
    powers = [1]
    for _ in range(q - 2):
        powers.append(mul(powers[-1], g))
    log = {x: e for e, x in enumerate(powers)}
    return add_t, mul_t, neg, inv, powers, log


def oracle_generator_matrix(q: int, r: int) -> list[list[int]]:
    """Evaluation matrix: plain pow arithmetic for prime q, powers of the
    PolyField model's generator otherwise."""
    pts = oracle_points(q, r)
    if is_prime(q):
        return [
            [(pow(x, i, q) * pow(y, j, q)) % q for (x, y) in pts]
            for (i, j) in oracle_monomials(q, r)
        ]
    *_, powers, log = _tables(q)
    return [
        [powers[(i * log[x] + j * log[y]) % (q - 1)] for (x, y) in pts]
        for (i, j) in oracle_monomials(q, r)
    ]


def extra_dual_rows(q: int, r: int) -> list[list[int]]:
    """The dual's three dense rows before any reduction, the evaluations of
    x^(-i) y^(-j) for the removed monomials x^i y^j: 1, x^2 y and x^3 y at
    oracle_points, multiplied out in the arithmetic of _arith, so at every
    degree m. The reference that EvaluationDomain.dense_dual reduces in
    closed form."""
    _, mul, _ = _arith(q)
    pts = oracle_points(q, r)
    return [
        [1] * len(pts),
        [mul(mul(x, x), y) for x, y in pts],
        [mul(mul(mul(x, x), x), y) for x, y in pts],
    ]


def oracle_dual_rows(q: int, r: int) -> list[list[int]]:
    """A basis of the dual in the layout the distance suite scans: the local
    parity (1, h, ..., h^r), h = g^((q-1)/(r+1)), on each cell and zero
    elsewhere, in cell order, then each row of extra_dual_rows less, on
    every cell, its cell-start value times the local parity; on the tables
    of _tables."""
    add_t, mul_t, neg, _, powers, _ = _tables(q)
    size, n = r + 1, (q - 1) ** 2
    local = powers[::(q - 1) // size]
    rows = [[0] * s + local + [0] * (n - s - size) for s in range(0, n, size)]
    for row in extra_dual_rows(q, r):
        rows.append([
            add_t[v][neg[mul_t[row[pos - pos % size]][local[pos % size]]]]
            for pos, v in enumerate(row)
        ])
    return rows


def oracle_parity_check(q: int, r: int) -> list[list[int]]:
    """The parity-check matrix from the whole dense dual: the RREF of the
    n-k evaluations of x^(-i) y^(-j) for the pairs (i, j) outside
    oracle_monomials, by Gauss-Jordan on tables of _arith."""
    add_t, mul_t, neg, inv, powers, log = _tables(q)
    kept = set(oracle_monomials(q, r))
    rows = [
        [powers[(-i * log[x] - j * log[y]) % (q - 1)] for x, y in oracle_points(q, r)]
        for i in range(q - 1)
        for j in range(q - 1)
        if (i, j) not in kept
    ]
    lead = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(lead, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        scale = mul_t[inv[rows[lead][col]]]
        prow = rows[lead] = [scale[x] for x in rows[lead]]
        for i, row in enumerate(rows):
            if i != lead and row[col]:
                sub = mul_t[neg[row[col]]]
                rows[i] = [add_t[a][sub[b]] for a, b in zip(row, prow)]
        lead += 1
    return rows


def oracle_erasure_decode(field, h_rows: list[list[int]], received: list) -> list[int]:
    """The dense erasure decoder: solve H_E x = -H y over all n-k rows of H,
    y the kept symbols, by Gauss-Jordan on the tables of _arith (field is read
    only for its order). Checks and errors come in lrc5's order with lrc5's
    messages: length, too many, inconsistent, ambiguous. A word without
    erasures is a system of no columns, consistent only when H y = 0."""
    add_t, mul_t, neg, inv, _, _ = _tables(field.q)
    n = len(h_rows[0])
    if len(received) != n:
        raise LengthMismatchError(f"word length {len(received)} != n = {n}")
    erased = [i for i, s in enumerate(received) if s is None]
    if len(erased) > len(h_rows):
        raise TooManyErasuresError(
            f"{len(erased)} erasures exceed the redundancy n-k = {len(h_rows)}"
        )
    aug = []
    for row in h_rows:
        acc = 0
        for a, s in zip(row, received):
            if s is not None:
                acc = add_t[acc][mul_t[a][s]]
        aug.append([row[e] for e in erased] + [neg[acc]])
    width = len(erased)
    lead = 0
    for col in range(width + 1):
        piv = next((i for i in range(lead, len(aug)) if aug[i][col]), None)
        if piv is None:
            continue
        if col == width:
            raise UndecodableError("kept symbols are not consistent with any codeword")
        aug[lead], aug[piv] = aug[piv], aug[lead]
        scale = mul_t[inv[aug[lead][col]]]
        prow = aug[lead] = [scale[x] for x in aug[lead]]
        for i, row in enumerate(aug):
            if i != lead and row[col]:
                sub = mul_t[neg[row[col]]]
                aug[i] = [add_t[a][sub[b]] for a, b in zip(row, prow)]
        lead += 1
    if lead < width:
        raise AmbiguousErasuresError("erasure pattern does not determine a unique codeword")
    out = list(received)
    for row, pos in zip(aug, erased):
        out[pos] = row[width]
    return out


BD_MAX_LENGTH = 256


def oracle_error_correct(
    field, h_rows: list[list[int]], received: list[int], t_max: int = 1
) -> list[int]:
    """Bounded-distance correction of up to t_max symbol errors.

    Exhaustive syndrome search, deterministic lowest-pattern-first order.
    The match is unique only when 2 * t_max is below the code's minimum
    distance; otherwise the lowest matching pattern wins and may differ from
    the transmitted word. The default t_max = 1 is the largest unique radius
    at distance 4; t_max = 2 must be asked for. Any returned word has a zero
    syndrome.
    """
    if any(s is None for s in received):
        raise ValueError("erasures are not allowed here; use erasure_decode")
    n = len(h_rows[0])
    if len(received) != n:
        raise LengthMismatchError(f"word length {len(received)} != n = {n}")
    if n > BD_MAX_LENGTH:
        raise TooLargeError(f"syndrome search is limited to n <= {BD_MAX_LENGTH}")
    if not 0 <= t_max <= 2:
        raise ValueError("t_max must be 0, 1, or 2")
    syn = [field.dot(row, received) for row in h_rows]
    if not any(syn):
        return list(received)
    if t_max == 0:
        raise UndecodableError("nonzero syndrome with t_max = 0")
    m = len(h_rows)
    cols = [list(c) for c in zip(*h_rows)]
    mul, sub, div = field.mul, field.sub, field.div
    # weight 1: e * col_i = syndrome
    for i, col in enumerate(cols):
        jnz = next((j for j in range(m) if col[j]), None)
        if jnz is None or syn[jnz] == 0:
            continue
        e = div(syn[jnz], col[jnz])
        if all(mul(e, col[j]) == syn[j] for j in range(m)):
            out = list(received)
            out[i] = sub(out[i], e)
            return out
    if t_max == 1:
        raise UndecodableError("no error pattern of weight <= 1 matches the syndrome")
    # weight 2 by meet-in-the-middle over single-column syndromes
    singles: dict[tuple[int, ...], tuple[int, int]] = {}
    for i, col in enumerate(cols):
        if not any(col):
            continue
        for e in range(1, field.q):
            singles.setdefault(tuple(mul(e, c) for c in col), (i, e))
    for i, col in enumerate(cols):
        for e in range(1, field.q):
            resid = tuple(sub(s, mul(e, c)) for s, c in zip(syn, col))
            hit = singles.get(resid)
            if hit is not None and hit[0] != i:
                j, f = hit
                out = list(received)
                out[i] = sub(out[i], e)
                out[j] = sub(out[j], f)
                return out
    raise UndecodableError("no error pattern of weight <= 2 matches the syndrome")


def oracle_supports_codeword(g_rows: list[list[int]], q: int, support: list[int]) -> bool:
    """Whether a nonzero codeword lives entirely inside the given positions.

    Such a word exists iff deleting those columns drops the row rank of G.
    """
    k = len(g_rows)
    keep = [c for c in range(len(g_rows[0])) if c not in set(support)]
    reduced = [[row[c] for c in keep] for row in g_rows]
    return rank_mod(reduced, q) < k


def oracle_min_distance_at_most(g_rows: list[list[int]], q: int, w: int) -> bool:
    n = len(g_rows[0])
    return any(
        oracle_supports_codeword(g_rows, q, list(s)) for s in combinations(range(n), w)
    )


def oracle_lemma_matrix(points: list[tuple[int, int]], q: int) -> list[list[int]]:
    """7x4 moment matrix at four grid points, plain arithmetic, prime q."""
    rows = []
    for (i, j) in ((0, 0), (1, 1), (2, 1), (3, 1), (1, 2), (1, 3), (1, 4)):
        rows.append([(pow(a, i, q) * pow(b, j, q)) % q for (a, b) in points])
    return rows


# --- the weight-4 family in closed form ------------------------------------
#
# The dual of the code is spanned by the rows 1, x^2 y, x^3 y (one per removed
# monomial) and, on each cell, the local parity x restricted to that cell.
# Take a word supported on at most four positions. The local parity has full
# support on its cell, so every cell carries 0 or at least 2 nonzero symbols.
# Two to four symbols in one cell (x-values distinct, y shared) would satisfy
# sum c x^e = 0 for e = 0..3, a Vandermonde system with only the zero
# solution; so the only weight-4 words sit on two positions (x1,y1), (x2,y1)
# of one cell and two positions (x3,y3), (x4,y3) of another. The local parity
# of the first cell forces (c1, c2) = l (x2, -x1), and the three extra rows
# then read l (x1 - x2) (-1, x1 x2 y1, x1 x2 y1 (x1 + x2)). The two cells
# cancel for some nonzero scales iff these directions agree:
#
#     x1 + x2 = x3 + x4   and   x1 x2 y1 = x3 x4 y3,
#
# and then the word is unique up to scale. The same argument applies, row for
# row, to the 7x4 moment matrix of oracle_lemma_matrix (its rows a b^e,
# e = 1..4, split any dependency by y-value the way the local parities do):
# it has rank exactly 3 on the two-pairs family below and rank 4 elsewhere.


def _two_pairs(keyed_pairs) -> list[tuple]:
    """Sorted 4-subsets made of two pairs that share a key."""
    by_key = defaultdict(list)
    for key, pair in keyed_pairs:
        by_key[key].append(pair)
    return sorted(
        tuple(sorted(a + b))
        for group in by_key.values()
        for a, b in combinations(group, 2)
    )


def oracle_weight4_supports(q: int, r: int) -> list[tuple[int, int, int, int]]:
    """Every weight-4 codeword support of the (q, r) code, as 0-based
    positions, in lexicographic order (two pairs in two cells)."""
    add, mul, _ = _arith(q)
    pts = oracle_points(q, r)
    keyed = []
    for start in range(0, len(pts), r + 1):
        for a, b in combinations(range(start, start + r + 1), 2):
            (x1, y), (x2, _) = pts[a], pts[b]
            keyed.append(((add(x1, x2), mul(mul(x1, x2), y)), (a, b)))
    return _two_pairs(keyed)


def oracle_lemma_family(q: int) -> list[tuple[tuple[int, int], ...]]:
    """Every 4-subset of grid points (a, b), a, b in 1..q-1, at which the
    moment matrix has rank 3, in lexicographic order (two pairs on two rows)."""
    add, mul, _ = _arith(q)
    keyed = [
        ((add(a1, a2), mul(mul(a1, a2), b)), ((a1, b), (a2, b)))
        for b in range(1, q)
        for a1, a2 in combinations(range(1, q), 2)
    ]
    return _two_pairs(keyed)


# --- references on lrc5's Field ----------------------------------------------
#
# Matrix products, the constraint-matrix rank through linalg.rank, the
# per-point Horner evaluation and indicator polynomials of one grid point,
# and evaluate_on_domain with its inverse interpolate, which round-trip
# coefficient tables through the library's grid transform.


def matmul(field: Field, a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bcols = list(zip(*b))
    return [[field.dot(row, col) for col in bcols] for row in a]


def mat_vec(field: Field, a: list[list[int]], x: list[int]) -> list[int]:
    return [field.dot(row, x) for row in a]


def constraint_matrix_rank(field: Field, points: list[tuple[int, int]]) -> int:
    return rank(field, constraint_matrix(field, points))


def interpolation_poly(field: Field, point: tuple[int, int]) -> list[list[int]]:
    """Coefficient table of the indicator polynomial of one grid point.

    Entry [i][j] is the coefficient of x^i y^j, namely alpha^-i * beta^-j.
    The polynomial evaluates to 1 at (alpha, beta) and 0 elsewhere on V.
    """
    alpha, beta = point
    if alpha == 0 or beta == 0:
        raise ValueError("grid points have nonzero coordinates")
    qm1 = field.q - 1
    la, lb = field.log[alpha], field.log[beta]
    exp = field.exp
    return [
        [exp[(-i * la - j * lb) % qm1] for j in range(qm1)] for i in range(qm1)
    ]


def evaluate_table(field: Field, table: list[list[int]], point: tuple[int, int]) -> int:
    """Evaluate a coefficient table at one point, Horner in both variables."""
    alpha, beta = point
    add, mul = field.add, field.mul
    total = 0
    for row in reversed(table):
        acc = 0
        for c in reversed(row):
            acc = add(mul(acc, beta), c)
        total = add(mul(total, alpha), acc)
    return total


def evaluate_on_domain(domain: EvaluationDomain, table: list[list[int]]) -> list[int]:
    """Grid evaluations of a coefficient table of any shape, through the
    library's EvaluationDomain.evaluate."""
    return domain.evaluate(
        ((i, j), c) for i, row in enumerate(table) for j, c in enumerate(row)
    )


def interpolate(domain: EvaluationDomain, values: list[int]) -> list[list[int]]:
    """The unique (q-1) x (q-1) coefficient table whose grid evaluations
    equal values; the inverse of evaluate_on_domain, on the grid of
    oracle_points rather than the domain's own.

    On V the sum of x^a y^b is (q-1)^2 = 1 when a = b = 0 mod q-1 and 0
    otherwise, so c_ij = sum_t y_t^(-j) sum_u v_tu x_u^(-i), with v_tu the
    value at grid row t, column u.
    """
    field = domain.field
    qm1, exp, log = field.q - 1, field.exp, field.log
    pts = oracle_points(field.q, domain.cell_size - 1)
    if len(values) != len(pts):
        raise ValueError("one value per domain point required")
    x_inv = [[exp[-i * log[x] % qm1] for x, _ in pts[:qm1]] for i in range(qm1)]
    y_inv = [[exp[-j * log[y] % qm1] for _, y in pts[::qm1]] for j in range(qm1)]
    grid_rows = [values[s:s + qm1] for s in range(0, len(values), qm1)]
    # sums[i][t] = sum_u v_tu x_u^(-i)
    sums = [[field.dot(v, xi) for v in grid_rows] for xi in x_inv]
    return [[field.dot(s, yj) for yj in y_inv] for s in sums]


# --- references for verify's subset scans ------------------------------------
#
# verify's scans as they were before they used the column family's sparsity
# and walked the draw buffer in groups: the same code, run on lrc5's Field,
# linalg.reduce_row and SplitMix64. The exhaustive one pivots each prefix
# column on its first nonzero coordinate and reduces every later column
# against every (size-2)-prefix, exhaustive_cost reductions in a complete
# scan; the sampled one slices each subset out of the buffer and checks it
# for repeats. verify's _scan_exhaustive and _scan_sampled must return what
# these return, and the exhaustive one with no more reductions.


def reference_scan_exhaustive(field, columns, size):
    """(checked, failure) of every size-subset of columns, as
    verify._scan_exhaustive defines them."""
    n = len(columns)
    if size == 1:
        for idx in range(n):
            if not any(columns[idx]):
                return idx + 1, (idx,)
        return n, None
    checked = 0

    def last_two(start, stop, basis, chosen):
        # partner: the first l > j whose residual is zero or equal to j's
        # (reduce_row scales pivots to 1, so parallel residuals are equal
        # tuples); a zero residual at j fails at once, completed as (j, j+1).
        nonlocal checked
        next_zero, seen, first = n, {}, None
        for i in range(n - 1, start - 1, -1):
            ext = reduce_row(field, basis, columns[i])
            if ext is None:
                partner, next_zero = i + 1, i
            else:
                key = tuple(ext[1])
                partner = min(next_zero, seen.get(key, n))
                seen[key] = i
            if i < stop and partner < n:
                first = i, partner
        j_end = stop if first is None else first[0]
        # leaves (j, l) for j in [start, j_end), l in (j, n) all pass
        checked += comb(n - start, 2) - comb(n - j_end, 2)
        if first is None:
            return None
        j, partner = first
        checked += partner - j
        return (*chosen, j, partner)

    def rec(start, stop, basis, chosen):
        nonlocal checked
        depth = len(chosen)
        if depth == size - 2:
            return last_two(start, stop, basis, chosen)
        for idx in range(start, stop):
            ext = reduce_row(field, basis, columns[idx])
            if ext is None:
                checked += 1
                need = size - depth - 1
                return tuple(chosen) + (idx,) + tuple(range(idx + 1, idx + 1 + need))
            found = rec(idx + 1, n - (size - depth - 2), basis + [ext], chosen + [idx])
            if found is not None:
                return found
        return None

    failure = rec(0, n - size + 1, [], [])
    return checked, failure


def reference_scan_sampled(field, columns, size, trials, seed, betas=None):
    """(checked, failure, counts) of `trials` seeded size-subsets, as
    verify._scan_sampled defines them, with every subset it does not
    confirm by its y-pattern decided by column reduction."""
    n = len(columns)
    draw = SplitMix64(seed).below
    counts = [0] * 7
    buf, pos = [], 0
    for t in range(trials):
        while len(buf) - pos < size:
            buf, pos = buf[pos:] + draw(n, LANES), 0
        subset = buf[pos:pos + size]
        pos += size
        if len(set(subset)) < size:
            subset = list(dict.fromkeys(subset))
            while len(subset) < size:
                if pos == len(buf):
                    buf, pos = draw(n, LANES), 0
                if buf[pos] not in subset:
                    subset.append(buf[pos])
                pos += 1
        code = 2  # without betas no y-pattern certifies a subset
        if betas is not None:  # as _bin_pairs bins, without a call per subset
            i, j, k, l = subset
            a, b, c, d = betas[i], betas[j], betas[k], betas[l]
            code = (a == b) + (a == c) + (a == d) + (b == c) + (b == d) + (c == d)
        if code == 2:
            subset.sort()
            basis = []
            for idx in subset:
                ext = reduce_row(field, basis, columns[idx])
                if ext is None:
                    return t + 1, tuple(subset), counts
                basis.append(ext)
        counts[code] += 1
    return trials, None, counts
