import pytest
from hypothesis import given
from hypothesis import strategies as st

from lrc5.errors import NotADivisorError, NotPrimeError, TooLargeError
from lrc5.field import Field, subgroup_of_order

from .oracles import PolyField, mult_order, smallest_generator


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


@pytest.mark.parametrize("p,m", [(13, 1), (2, 4), (3, 2), (3, 3)])
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


def test_division_by_zero(f7):
    with pytest.raises(ZeroDivisionError):
        f7.inv(0)
    with pytest.raises(ZeroDivisionError):
        f7.div(3, 0)


def test_check_validates_range(f7):
    assert f7.check(6) == 6
    with pytest.raises(ValueError):
        f7.check(7)
    with pytest.raises(ValueError):
        f7.check(-1)


def test_dot_product(f7):
    assert f7.dot([1, 2, 3], [4, 5, 6]) == (4 + 10 + 18) % 7
    assert f7.dot([], []) == 0


def test_elements_and_units_ranges(f8):
    assert list(f8.elements()) == list(range(8))
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
