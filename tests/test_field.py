import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrc5.construct import validate_params
from lrc5.errors import NotADivisorError, NotPrimeError, TooLargeError, ValidationError
from lrc5.field import Field, field_of_order, subgroup_of_order
from lrc5.rng import SplitMix64

from .oracles import PolyField, is_prime, mult_order, smallest_generator


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13])
def test_prime_field_tables_match_plain_modular_arithmetic(q):
    f = Field(q)
    for a in range(q):
        for b in range(q):
            assert f.add(a, b) == (a + b) % q
            assert f.mul(a, b) == (a * b) % q
            assert f.sub(a, b) == (a - b) % q
        assert f.neg(a) == (-a) % q
        if a:
            assert f.inv(a) == pow(a, q - 2, q)
    assert f.p == q and f.m == 1 and f.q == q


@pytest.mark.parametrize(
    "p,m,modulus,gen",
    [
        (2, 3, (1, 1, 0, 1), 2),
        (3, 2, (1, 0, 1), 4),
        (7, 2, (1, 0, 1), 9),
    ],
)
def test_extension_field_modulus_and_generator(p, m, modulus, gen):
    f = Field(p, m)
    assert tuple(f.modulus) == modulus
    assert f.generator == gen
    oracle = PolyField(p, m)
    assert oracle.modulus == modulus
    assert oracle.smallest_generator() == gen


@pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (2, 4), (3, 3), (5, 2), (7, 2)])
def test_extension_field_arithmetic_matches_polynomial_model(p, m):
    f = Field(p, m)
    oracle = PolyField(p, m)
    assert tuple(f.modulus) == oracle.modulus
    q = p**m
    for a in range(q):
        for b in range(q):
            assert f.add(a, b) == oracle.add_idx(a, b)
            assert f.sub(a, b) == oracle.sub_idx(a, b)
            assert f.mul(a, b) == oracle.mul_idx(a, b)
        assert f.neg(a) == oracle.neg_idx(a)
        if a:
            assert f.inv(a) == oracle.inv_idx(a)


@pytest.mark.parametrize("p,m", [(2, 1), (13, 1), (2, 4), (3, 2), (3, 3)])
def test_submul_and_scale_match_scalar_ops(p, m):
    f = Field(p, m)
    q = f.q
    # every (y, x) pair, so the vectors hold zeros on both sides and, for
    # each a, entries with y = a*x where ys - a*xs cancels to 0
    ys = [y for y in range(q) for _ in range(q)]
    xs = [x for _ in range(q) for x in range(q)]
    for a in range(q):
        got = f.submul(ys, a, xs)
        assert got == [f.sub(y, f.mul(a, x)) for y, x in zip(ys, xs)]
        cancel = [i for i, (y, x) in enumerate(zip(ys, xs)) if y and y == f.mul(a, x)]
        assert len(cancel) == (q - 1 if a else 0)
        assert all(got[i] == 0 for i in cancel)
        assert f.scale(a, xs) == [f.mul(a, x) for x in xs]
        assert f.scale(a, []) == [] and f.submul([], a, []) == []


def test_gf49_spot_checks_against_polynomial_model():
    f = Field(7, 2)
    oracle = PolyField(7, 2)
    # x = index 7; x*x = -1 = 6 under modulus x^2 + 1
    assert f.mul(7, 7) == 6 == oracle.mul_idx(7, 7)
    for a in (1, 6, 7, 13, 25, 48):
        assert f.mul(a, f.inv(a)) == 1
        assert f.inv(a) == oracle.inv_idx(a)
    for a, b in ((3, 44), (7, 8), (20, 31), (48, 48)):
        assert f.mul(a, b) == oracle.mul_idx(a, b)
        assert f.add(a, b) == oracle.add_idx(a, b)


@pytest.mark.parametrize("q", [5, 7, 11, 13])
def test_generator_is_smallest_primitive_index(q):
    f = Field(q)
    assert f.generator == smallest_generator(q)
    for x in range(2, f.generator):
        assert mult_order(x, q) < q - 1


def test_generator_order_spans_units(f8):
    seen = set()
    x = 1
    for _ in range(7):
        seen.add(x)
        x = f8.mul(x, f8.generator)
    assert x == 1
    assert seen == set(range(1, 8))


def test_exp_log_roundtrip(f7, f8):
    for f in (f7, f8):
        g = f.generator
        acc = 1
        for e in range(f.q - 1):
            assert f.pow(g, e) == acc
            acc = f.mul(acc, g)


def test_subgroup_of_order_frozen_values(f7, f5):
    assert subgroup_of_order(f7, 3) == [1, 2, 4]
    assert subgroup_of_order(f7, 6) == [1, 3, 2, 6, 4, 5]
    assert subgroup_of_order(f5, 4) == [1, 2, 4, 3]
    assert subgroup_of_order(f7, 1) == [1]


def test_subgroup_elements_have_dividing_order(f13):
    for t in (2, 3, 4, 6, 12):
        sub = subgroup_of_order(f13, t)
        assert len(sub) == t
        assert sub[0] == 1
        for x in sub:
            assert pow(x, t, 13) == 1


def test_subgroup_requires_divisor(f7, f8):
    with pytest.raises(NotADivisorError):
        subgroup_of_order(f7, 4)
    with pytest.raises(NotADivisorError):
        subgroup_of_order(f8, 3)


def test_field_rejects_non_prime_characteristic():
    with pytest.raises(NotPrimeError):
        Field(6)
    with pytest.raises(NotPrimeError):
        Field(1)
    with pytest.raises(NotPrimeError):
        Field(4, 2)
    with pytest.raises(NotPrimeError):  # (-300)^2 is above the order cap
        Field(-300, 2)


@pytest.mark.parametrize("p,m", [(65521, 1), (2, 12), (3, 7)])
def test_a_field_builds_its_tables_on_first_use(p, m):
    """Up to 2^16, construction, mul, inv and pow hold log/antilog and no
    q x q table."""
    f = Field(p, m)
    g = f.generator
    assert f.mul(g, f.inv(g)) == 1 == f.pow(g, f.q - 1)
    assert not {"_add", "_mul", "_neg"} & set(vars(f))


def test_naming_a_field_and_its_code_builds_no_table():
    """params at q = 65536 needs only (p, m), the modulus and r: the
    generator, exp and log are left for the first multiplication."""
    f = field_of_order(65536)
    assert validate_params(f, 2).n == 65535**2
    assert not {"generator", "exp", "log", "_add", "_mul", "_neg"} & set(vars(f))


def test_the_first_add_builds_the_addition_table_alone():
    f = Field(13)
    assert f.add(0, 2) == 2
    assert {"_add", "_mul", "_neg"} & set(vars(f)) == {"_add"}


@pytest.mark.parametrize(
    "p,m", [(2, 1), (13, 1), (2, 2), (3, 2), (2, 12), (3, 7), (5, 4), (7, 3), (17, 2), (2, 9), (3, 5)]
)
def test_exp_and_log_equal_the_generator_chain(p, m):
    """exp is the chain of the generator's powers that the polynomial model
    gives under the field's modulus, listed twice, and log inverts it. The
    chain reaches every unit, so the generator is primitive, and every
    smaller index a has a^((q-1)/f) = 1 for some prime f of q-1."""
    f = Field(p, m)
    oracle, g = PolyField(p, m, f.modulus), f.generator
    chain = [1]
    for _ in range(f.q - 2):
        chain.append(oracle.mul_idx(chain[-1], g))
    assert f.exp == chain + chain
    assert sorted(chain) == list(range(1, f.q))
    assert [f.log[e] for e in chain] == list(range(f.q - 1))
    factors = [d for d in range(2, f.q) if (f.q - 1) % d == 0 and is_prime(d)]
    for a in range(1, g):
        assert any(oracle.pow_idx(a, (f.q - 1) // d) == 1 for d in factors)


@pytest.mark.parametrize("p,m", [(65521, 1), (2, 13), (3, 8)])
def test_tables_above_the_table_order_are_refused_at_once(p, m):
    f = Field(p, m)
    for call in (lambda: f.add(0, 1), lambda: f.sub(1, 0), lambda: f.neg(1),
                 lambda: f.dot([1], [1]), lambda: f.submul([1], 1, [1]), lambda: f.scale(1, [1])):
        with pytest.raises(TooLargeError, match="4096"):
            call()
    assert not {"_add", "_mul", "_neg"} & set(vars(f))
    assert f.mul(2, f.inv(2)) == 1


def test_field_rejects_orders_beyond_cap():
    with pytest.raises(TooLargeError):
        Field(65537)
    with pytest.raises(TooLargeError):
        Field(2, 17)


@pytest.mark.parametrize("p", [2**61 - 1, 7])
@pytest.mark.parametrize("m", [0, -1])
def test_extension_degree_checked_before_factoring(monkeypatch, p, m):
    # trial division of the prime 2^61 - 1 would run for hours
    def no_factoring(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr("lrc5.field._prime_factors", no_factoring)
    with pytest.raises(ValueError, match="extension degree"):
        Field(p, m)


def test_field_of_order_names_gf_q_and_refuses_the_rest(monkeypatch):
    f = field_of_order(49)
    assert (f.p, f.m, f.q) == (7, 2, 49)
    assert f.spec_dict() == Field(7, 2).spec_dict()
    for q in (6, 1):
        with pytest.raises(ValidationError, match=f"q = {q} is not a prime power"):
            field_of_order(q)

    def no_factoring(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr("lrc5.field._prime_factors", no_factoring)
    with pytest.raises(TooLargeError, match="65537 exceeds 2"):
        field_of_order(65537)


def test_division_by_zero(f7):
    with pytest.raises(ZeroDivisionError):
        f7.inv(0)
    with pytest.raises(ZeroDivisionError):
        f7.div(3, 0)


def test_powers_of_zero(f7, f8):
    for f in (f7, f8):
        assert (f.pow(0, 0), f.pow(0, 3)) == (1, 0)
        with pytest.raises(ZeroDivisionError, match="zero has no negative powers"):
            f.pow(0, -1)


def test_dot_product(f7):
    assert f7.dot([1, 2, 3], [4, 5, 6]) == (4 + 10 + 18) % 7
    assert f7.dot([], []) == 0


@pytest.mark.parametrize(
    "p,m", [(2, 1), (3, 1), (13, 1), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)]
)
def test_odd_extension_dot_matches_scalar_fold(p, m):
    """dot is one table loop in every field kind, so it is checked in each:
    prime, characteristic 2 and odd-characteristic extensions."""
    f = Field(p, m)
    q = f.q

    def fold(xs, ys):
        acc = 0
        for x, y in zip(xs, ys):
            acc = f.add(acc, f.mul(x, y))
        return acc

    # every (x, y) pair, so both sides hold zeros
    xs = [x for x in range(q) for _ in range(q)]
    ys = [y for _ in range(q) for y in range(q)]
    assert f.dot(xs, ys) == fold(xs, ys)
    assert f.dot([], []) == 0
    for a in range(q):
        for b in range(q):
            # a + b, which cancels to 0 at b = -a, then a term after it
            assert f.dot([a, b], [1, 1]) == f.add(a, b)
            assert f.dot([a, f.neg(a), b], [1, 1, 1]) == b
            assert f.dot([a, b, a], [b, f.neg(a), 1]) == a
    rng = SplitMix64(q)
    for _ in range(200):
        xs = [rng.randbelow(q) for _ in range(64)]
        ys = [rng.randbelow(q) for _ in range(64)]
        assert f.dot(xs, ys) == fold(xs, ys)


def test_units_range(f8):
    assert list(f8.units()) == list(range(1, 8))


@pytest.mark.parametrize("spec", [(5, 1), (7, 1), (2, 3), (3, 2)])
@given(st.data())
def test_field_axioms_hold_on_sampled_triples(spec, data):
    p, m = spec
    f = Field(p, m)
    q = p**m
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == 0
    if a:
        assert f.mul(a, f.inv(a)) == 1
    assert f.sub(a, b) == f.add(a, f.neg(b))
    if b:
        assert f.mul(f.div(a, b), b) == a
