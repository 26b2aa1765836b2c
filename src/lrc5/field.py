"""Exact arithmetic in GF(p^m) for prime powers up to 2^16.

Field elements are plain ints in [0, q). The base-p digits of an index are
the coefficients of the representative polynomial, constant term first, so
index 0 is the additive zero, index 1 the multiplicative one, and index p
the polynomial x (when m > 1). Multiplication, inversion, and powers run on
log/antilog tables built once at construction. Addition is plain mod-p ints
when m = 1, a single xor when p = 2, and otherwise goes through a Zech
logarithm table, zech[k] = log(1 + g^k), so g^i + g^j = g^(i + zech[j-i])
costs a few table lookups in every odd-characteristic extension.

The field kind is decided here and nowhere else: the vector primitives
submul (ys - a*xs) and scale (a*xs) that row reduction and encoding run on
are specialised once, when the Field is built.

A field is named by (p, m) alone. Its reducing modulus is the first monic
irreducible polynomial of degree m in index order (non-leading coefficients
read as a base-p integer, constant term least significant), and its
generator is the smallest primitive element, so both are re-derived from
(p, m) and a serialized field is checked by comparing it with spec_dict().
For m = 1 the modulus is the placeholder x and arithmetic is plain mod p.
"""

from collections.abc import Sequence

from .errors import NotADivisorError, NotPrimeError, TooLargeError

MAX_ORDER = 1 << 16


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
        submul: submul(ys, a, xs) returns ys - a*xs as a new list. It is
            chosen at construction: ints mod p (m = 1), xor on the log
            tables (p = 2), or Zech addition (odd-characteristic extensions).
    """

    __slots__ = (
        "p", "m", "q", "modulus", "generator", "exp", "log", "submul",
        "_qm1", "_half", "_zech",
    )

    def __init__(self, p: int, m: int = 1):
        # both checks come before trial division of p; min(m, 17) decides
        # the cap for any p >= 2
        if m < 1:
            raise ValueError("extension degree must be at least 1")
        if p >= 2 and p ** min(m, 17) > MAX_ORDER:
            raise TooLargeError(f"field order {p}^{m} exceeds 2^16")
        if p < 2 or _prime_factors(p) != [p]:
            raise NotPrimeError(f"characteristic {p} is not prime")
        q = p**m
        self.p = p
        self.m = m
        self.q = q
        self.modulus = (0, 1) if m == 1 else _smallest_irreducible(p, m)
        self._qm1 = q - 1
        self.generator = self._find_generator()
        self._build_tables()

    # Bootstrap arithmetic on polynomial indices, used only to build tables.
    def _raw_mul(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        if m == 1:
            return (a * b) % p
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

    def _find_generator(self) -> int:
        qm1 = self._qm1
        if qm1 == 1:
            return 1
        checks = [qm1 // f for f in _prime_factors(qm1)]
        for a in range(2, self.q):
            if all(self._raw_pow(a, e) != 1 for e in checks):
                return a
        raise AssertionError("no primitive element found")  # unreachable

    def _build_tables(self) -> None:
        p, qm1 = self.p, self._qm1
        # exp is doubled so mul never reduces the summed logs mod q-1, then
        # padded with zeros for the Zech sentinel to land on
        exp = [1] * (2 * qm1) + [0] * qm1
        log = [0] * self.q
        e = 1
        for i in range(qm1):
            exp[i] = e
            log[e] = i
            e = self._raw_mul(e, self.generator)
        for i in range(qm1, 2 * qm1):
            exp[i] = exp[i - qm1]
        self.exp = exp
        self.log = log
        if self.m == 1:
            self.submul = self._submul_mod
        elif p == 2:
            self.submul = self._submul_xor
        else:
            # zech[k] = log(1 + g^k); 1 + g^k only changes the constant
            # digit of g^k. Where 1 + g^k = 0 the sentinel 2(q-1) makes
            # exp[log + zech[k]] read the zero padding. The table is doubled
            # so differences of two or three logs index it without a mod.
            zech = [2 * qm1] * qm1
            for k in range(qm1):
                e = exp[k]
                one_plus = e + 1 if e % p != p - 1 else e + 1 - p
                if one_plus:
                    zech[k] = log[one_plus]
            self._zech = zech + zech
            self._half = qm1 // 2
            self.submul = self._submul_zech

    def __repr__(self) -> str:
        return f"GF({self.q})"

    def check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element index of {self!r}")
        return a

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if not a:
            return b
        if not b:
            return a
        la = self.log[a]
        return self.exp[la + self._zech[self.log[b] - la]]

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        if self.p == 2 or not a:
            return a
        return self.exp[self.log[a] + self._half]

    def sub(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        if not b:
            return a
        lnb = self.log[b] + self._half  # log of -b
        if not a:
            return self.exp[lnb]
        la = self.log[a]
        return self.exp[la + self._zech[lnb - la]]

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
        if self.m == 1:
            return sum(map(int.__mul__, xs, ys)) % self.p
        if self.p == 2:
            exp = self.exp
            log = self.log
            acc = 0
            for x, y in zip(xs, ys):
                if x and y:
                    acc ^= exp[log[x] + log[y]]
            return acc
        acc = 0
        add, mul = self.add, self.mul
        for x, y in zip(xs, ys):
            acc = add(acc, mul(x, y))
        return acc

    def _submul_mod(self, ys: Sequence[int], a: int, xs: Sequence[int]) -> list[int]:
        p = self.p
        return [(y - a * x) % p for y, x in zip(ys, xs)]

    def _submul_xor(self, ys: Sequence[int], a: int, xs: Sequence[int]) -> list[int]:
        if not a:
            return list(ys)
        exp, log = self.exp, self.log
        la = log[a]
        return [y ^ exp[la + log[x]] if x else y for y, x in zip(ys, xs)]

    def _submul_zech(self, ys: Sequence[int], a: int, xs: Sequence[int]) -> list[int]:
        if not a:
            return list(ys)
        exp, log, zech = self.exp, self.log, self._zech
        ln = (log[a] + self._half) % self._qm1  # log of -a
        return [
            (exp[(ly := log[y]) + zech[ln + log[x] - ly]] if y else exp[ln + log[x]])
            if x
            else y
            for y, x in zip(ys, xs)
        ]

    def scale(self, a: int, xs: Sequence[int]) -> list[int]:
        """a*xs as a new list; one log-table pass in every field kind."""
        if not a:
            return [0] * len(xs)
        exp, log = self.exp, self.log
        la = log[a]
        return [exp[la + log[x]] if x else 0 for x in xs]

    def spec_dict(self) -> dict:
        return {"p": self.p, "m": self.m, "modulus": list(self.modulus), "q": self.q}


def subgroup_of_order(field: Field, t: int) -> list[int]:
    """The unique multiplicative subgroup of order t, listed as successive
    powers of g^((q-1)/t) starting at 1."""
    qm1 = field.q - 1
    if t < 1 or qm1 % t:
        raise NotADivisorError(f"{t} does not divide the group order {qm1}")
    h = field.pow(field.generator, qm1 // t)
    out = [1]
    cur = 1
    for _ in range(t - 1):
        cur = field.mul(cur, h)
        out.append(cur)
    return out
