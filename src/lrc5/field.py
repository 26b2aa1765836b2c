"""Exact arithmetic in GF(p^m) for prime powers up to 2^16.

Field elements are plain ints in [0, q). The base-p digits of an index are
the coefficients of the representative polynomial, constant term first, so
index 0 is the additive zero, index 1 the multiplicative one, and index p
the polynomial x (when m > 1). Multiplication, inversion, and powers run on
log/antilog tables of the generator.

Addition and the vector primitives run on one kernel for every field kind:
a q x q addition table, a q x q multiplication table and the negation row
-a = (p-1)*a. add, sub and neg are single lookups; submul (ys - a*xs, the
step of row reduction), scale (a*xs) and dot are one loop of lookups each.
The tables are built on first use, so a Field that only names a code, or
builds its grid from log/antilog, never holds q^2 entries; above
MAX_TABLE_ORDER they are refused with TooLargeError.

Construction only finds the modulus. The generator, its power chain exp
(one bootstrap product per power, on base-p digits, or mod p at prime q)
and log are built on first use too, so a Field that only names a code
builds no table at all.

A field is named by (p, m) alone. Its reducing modulus is the first monic
irreducible polynomial of degree m in index order (non-leading coefficients
read as a base-p integer, constant term least significant), and its
generator is the smallest primitive element, so both are re-derived from
(p, m) and a serialized field is checked by comparing it with spec_dict().
For m = 1 that polynomial is x, so an index is its own residue mod p.

field_of_order(q) names the field of order q, refusing q above 2^16 and q
that is not a prime power.
"""

from collections.abc import Sequence
from functools import cached_property

from .errors import NotADivisorError, NotPrimeError, TooLargeError, ValidationError

MAX_ORDER = 1 << 16
#: largest order whose q x q tables are built: 16.8M entries each; a
#: command at that order already needs (q-1)^2 = 16.7M grid points
MAX_TABLE_ORDER = 1 << 12


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _digits(v: int, p: int, length: int) -> list[int]:
    out = []
    for _ in range(length):
        out.append(v % p)
        v //= p
    return out


def _undigits(digits: Sequence[int], p: int) -> int:
    v = 0
    for d in reversed(digits):
        v = v * p + d
    return v


def _poly_divmod_tail(num: list[int], den: Sequence[int], p: int) -> list[int]:
    """Remainder of polynomial division, coefficients constant-first, den monic."""
    rem = list(num)
    dd = len(den) - 1
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            for t in range(dd + 1):
                rem[i - dd + t] = (rem[i - dd + t] - c * den[t]) % p
    return rem[:dd]


def _is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..m//2."""
    m = len(coeffs) - 1
    if m == 1:
        return True
    if coeffs[0] == 0:
        return False
    for deg in range(1, m // 2 + 1):
        for v in range(p**deg):
            den = _digits(v, p, deg) + [1]
            if not any(_poly_divmod_tail(list(coeffs), den, p)):
                return False
    return True


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    for v in range(p**m):
        cand = _digits(v, p, m) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


class Field:
    """Arithmetic tables for GF(p^m).

    Attributes:
        p: field characteristic (prime).
        m: extension degree, at least 1.
        q: field order p^m.
        modulus: m+1 coefficients of the canonical reducing polynomial,
            constant first.
        generator: index of the canonical primitive element, the smallest
            index of multiplicative order q-1.
        exp, log: antilog and log tables of the generator; exp is doubled,
            so exp[log[a] + log[b]] needs no reduction mod q-1.

    add, sub, neg, submul, scale and dot read the q x q addition
    and multiplication tables; mul, inv, div and pow read exp and log only.
    All of these, and the generator, are built on first use.
    """

    def __init__(self, p: int, m: int = 1):
        # both checks come before trial division of p; min(m, 17) decides
        # the cap for any p >= 2
        if m < 1:
            raise ValueError("extension degree must be at least 1")
        if p >= 2 and p ** min(m, 17) > MAX_ORDER:
            raise TooLargeError(f"field order {p}^{m} exceeds 2^16")
        if p < 2 or _prime_factors(p) != [p]:
            raise NotPrimeError(f"characteristic {p} is not prime")
        self.p, self.m, self.q = p, m, p**m
        self.modulus = _smallest_irreducible(p, m)
        self._qm1 = self.q - 1

    # Bootstrap arithmetic on polynomial indices, used only to build tables.
    def _raw_mul(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        if m == 1:  # the modulus is x: the digit path gives a * b % p
            return a * b % p
        da = _digits(a, p, m)
        db = _digits(b, p, m)
        prod = [0] * (2 * m - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        prod = [c % p for c in prod]
        return _undigits(_poly_divmod_tail(prod, self.modulus, p), p)

    def _raw_pow(self, a: int, e: int) -> int:
        out = 1
        base = a
        while e:
            if e & 1:
                out = self._raw_mul(out, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return out

    @cached_property
    def generator(self) -> int:
        """The smallest index of multiplicative order q-1."""
        # at q = 2 there is nothing to check and 1 generates
        checks = [self._qm1 // f for f in _prime_factors(self._qm1)]
        for a in range(1, self.q):
            if all(self._raw_pow(a, e) != 1 for e in checks):
                return a
        raise AssertionError("no primitive element found")  # unreachable

    @cached_property
    def exp(self) -> list[int]:
        """g^0, ..., g^(q-2), one _raw_mul by the generator g each, twice."""
        g, powers = self.generator, [1]
        for _ in range(self.q - 2):
            powers.append(self._raw_mul(powers[-1], g))
        return powers + powers

    @cached_property
    def log(self) -> list[int]:
        """log[g^e] = e for e in [0, q-2]; log[0] is a placeholder 0."""
        log = [0] * self.q
        for e, a in enumerate(self.exp[:self._qm1]):
            log[a] = e
        return log

    def table_order(self) -> int:
        """q, once it is known to be at most MAX_TABLE_ORDER: the guard of
        the q x q tables, which Code.build also runs before building."""
        if self.q > MAX_TABLE_ORDER:
            raise TooLargeError(
                f"{self!r} is above GF({MAX_TABLE_ORDER}), the largest order "
                "that builds q x q addition and multiplication tables"
            )
        return self.q

    @cached_property
    def _add(self) -> list[list[int]]:
        """Addition table. Sums are digit-wise mod p, so row a is row a - w
        with digit k raised by 1 mod p, for w = p^k and k the lowest nonzero
        digit of a."""
        p, q = self.p, self.table_order()
        rows = [list(range(q))]
        for a in range(1, q):
            w = 1
            while a // w % p == 0:
                w *= p
            rows.append([v + w if v // w % p != p - 1 else v + w - p * w for v in rows[a - w]])
        return rows

    @cached_property
    def _mul(self) -> list[list[int]]:
        """Multiplication table, one log-table row per element."""
        exp, logs = self.exp, self.log[1:]
        return [[0] * self.table_order()] + [[0] + [exp[la + lb] for lb in logs] for la in logs]

    @cached_property
    def _neg(self) -> list[int]:
        """-a = (p-1)*a, so negation is a row of the multiplication table."""
        return self._mul[self.p - 1]

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def units(self) -> range:
        return range(1, self.q)

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[self.log[a] + self.log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.exp[self._qm1 - self.log[a]]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero")
        if a == 0:
            return 0
        return self.exp[self.log[a] + self._qm1 - self.log[b]]

    def pow(self, a: int, e: int) -> int:
        """a**e with 0**0 = 1; negative exponents invert (a must be nonzero)."""
        if a == 0:
            if e < 0:
                raise ZeroDivisionError("zero has no negative powers")
            return 1 if e == 0 else 0
        return self.exp[(self.log[a] * e) % self._qm1]

    def dot(self, xs: Sequence[int], ys: Sequence[int]) -> int:
        """Inner product; hot path for syndromes and matrix products."""
        add, mul = self._add, self._mul
        acc = 0
        for x, y in zip(xs, ys):
            acc = add[acc][mul[x][y]]
        return acc

    def submul(self, ys: Sequence[int], a: int, xs: Sequence[int]) -> list[int]:
        """ys - a*xs as a new list: the hot step of row reduction."""
        add, mr = self._add, self._mul[self._neg[a]]
        return [add[y][mr[x]] for y, x in zip(ys, xs)]

    def scale(self, a: int, xs: Sequence[int]) -> list[int]:
        """a*xs as a new list."""
        return list(map(self._mul[a].__getitem__, xs))

    def spec_dict(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus), "q": self.q}


def field_of_order(q: int) -> Field:
    """GF(q), for q a prime power up to 2^16."""
    if q > MAX_ORDER:  # before factoring, which trial-divides up to sqrt(q)
        raise TooLargeError(f"field order {q} exceeds 2^16")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise ValidationError(f"q = {q} is not a prime power")
    p, m = factors[0], 1
    while p**m < q:
        m += 1
    return Field(p, m)


def subgroup_of_order(field: Field, t: int) -> list[int]:
    """The unique multiplicative subgroup of order t, listed as successive
    powers of g^((q-1)/t) starting at 1."""
    qm1 = field.q - 1
    if t < 1 or qm1 % t:
        raise NotADivisorError(f"{t} does not divide the group order {qm1}")
    return field.exp[:qm1:qm1 // t]
