"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from scratch with plain integer
arithmetic: no imports from lrc5 except in the tests that compare the two
sides. Extension fields get a tuple-coefficient polynomial model instead of
the package's index tables.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations


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
    return None


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
    monic quadratics.
    """

    def __init__(self, p: int, m: int):
        assert m in (2, 3, 4), "root and quadratic-product tests certify m <= 4"
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = self._first_irreducible()

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
    prime q, the PolyField model otherwise; g is the smallest generator."""
    if is_prime(q):
        g = smallest_generator(q)
        return (lambda a, b: (a + b) % q), (lambda a, b: a * b % q), g
    fld = PolyField(*prime_power(q))
    return fld.add_idx, fld.mul_idx, fld.smallest_generator()


def oracle_points(q: int, r: int) -> list[tuple[int, int]]:
    """Grid ordering: index t(q-1) + c(r+1) + s -> (g^c h^s, g^t) with
    h = g^((q-1)/(r+1)); prime q, or q = p^m with m <= 3 via PolyField."""
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


def oracle_generator_matrix(q: int, r: int) -> list[list[int]]:
    """Evaluation matrix over prime q with plain pow arithmetic."""
    pts = oracle_points(q, r)
    return [
        [(pow(x, i, q) * pow(y, j, q)) % q for (x, y) in pts]
        for (i, j) in oracle_monomials(q, r)
    ]


def oracle_parity_check(q: int, r: int) -> list[list[int]]:
    """The parity-check matrix from the whole dense dual: the RREF of the
    n-k evaluations of x^(-i) y^(-j) for the pairs (i, j) outside
    oracle_monomials, by Gauss-Jordan on tables of _arith."""
    add, mul, g = _arith(q)
    add_t = [[add(a, b) for b in range(q)] for a in range(q)]
    mul_t = [[mul(a, b) for b in range(q)] for a in range(q)]
    neg = [row.index(0) for row in add_t]
    inv = [None] + [row.index(1) for row in mul_t[1:]]
    powers = [1]
    for _ in range(q - 2):
        powers.append(mul(powers[-1], g))
    log = {x: e for e, x in enumerate(powers)}
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
