import pytest

from lrc5 import Code, Field
from lrc5.rng import SplitMix64

from .oracles import evaluate_on_domain, evaluate_table, interpolate, interpolation_poly

# prime fields, characteristic 2 and odd-characteristic extensions
LOCALITY = {5: 3, 7: 5, 8: 6, 9: 3, 13: 5, 16: 4, 27: 12}


def code_for(q):
    p, m = {8: (2, 3), 9: (3, 2), 16: (2, 4), 27: (3, 3)}.get(q, (q, 1))
    return Code.build(Field(p, m), LOCALITY[q])


def random_table(rng, q):
    return [[rng.randbelow(q) for _ in range(q - 1)] for _ in range(q - 1)]


def plain_eval(table, point, q):
    """Sum of c_ij x^i y^j with integer pow, prime q only."""
    x, y = point
    return sum(
        c * pow(x, i, q) * pow(y, j, q)
        for i, row in enumerate(table)
        for j, c in enumerate(row)
    ) % q


@pytest.mark.parametrize("q", [5, 7])
def test_evaluate_table_matches_plain_sum(q, f5, f7):
    field = {5: f5, 7: f7}[q]
    rng = SplitMix64(q)
    for _ in range(20):
        table = random_table(rng, q)
        x = 1 + rng.randbelow(q - 1)
        y = 1 + rng.randbelow(q - 1)
        assert evaluate_table(field, table, (x, y)) == plain_eval(table, (x, y), q)


def test_indicator_table_of_unit_point_is_all_ones(f5):
    table = interpolation_poly(f5, (1, 1))
    assert table == [[1] * 4 for _ in range(4)]


def test_indicator_property_exhaustive(f5, f7, f8, code53, code75, code86):
    for field, code in ((f5, code53), (f7, code75), (f8, code86)):
        pts = code.domain.points
        for p in pts:
            table = interpolation_poly(field, p)
            for t, other in enumerate(pts):
                expected = 1 if other == p else 0
                assert evaluate_table(field, table, other) == expected


def test_interpolation_poly_rejects_zero_coordinates(f5):
    with pytest.raises(ValueError):
        interpolation_poly(f5, (0, 1))
    with pytest.raises(ValueError):
        interpolation_poly(f5, (2, 0))


@pytest.mark.parametrize("q", [5, 7, 8, 9, 13, 16, 27])
def test_interpolate_inverts_evaluation(q):
    code = code_for(q)
    field = code.field
    rng = SplitMix64(100 + q)
    for _ in range(30):
        table = random_table(rng, field.q)
        values = evaluate_on_domain(code.domain, table)
        assert interpolate(code.domain, values) == table


def test_evaluate_interpolate_other_direction(code75):
    rng = SplitMix64(9)
    for _ in range(20):
        values = [rng.randbelow(7) for _ in range(36)]
        table = interpolate(code75.domain, values)
        assert evaluate_on_domain(code75.domain, table) == values


def test_interpolate_requires_full_value_vector(code75):
    with pytest.raises(ValueError):
        interpolate(code75.domain, [0] * 35)


def test_evaluation_is_linear(f7, code75):
    rng = SplitMix64(3)
    a = random_table(rng, 7)
    b = random_table(rng, 7)
    c = 1 + rng.randbelow(6)
    combo = [
        [f7.add(f7.mul(c, x), y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)
    ]
    ea = evaluate_on_domain(code75.domain, a)
    eb = evaluate_on_domain(code75.domain, b)
    ec = evaluate_on_domain(code75.domain, combo)
    assert ec == [f7.add(f7.mul(c, x), y) for x, y in zip(ea, eb)]


def test_codeword_interpolates_inside_basis(code75):
    """Evaluation vectors of basis monomials interpolate back to that
    monomial alone; this pins the generator rows to their claimed support."""
    for code in (code75, code_for(9), code_for(16)):
        qm1 = code.field.q - 1
        for m, row in zip(code.basis, code.generator_matrix):
            table = interpolate(code.domain, row)
            for i in range(qm1):
                for j in range(qm1):
                    expected = 1 if (i, j) == (m.i, m.j) else 0
                    assert table[i][j] == expected


@pytest.mark.parametrize("q", [9, 13, 16, 27])
def test_evaluate_on_domain_matches_horner(q):
    """The grid transform equals per-point Horner on tables of every shape:
    exponents at or past q-1 wrap, since x^(q-1) = 1 on the grid."""
    code = code_for(q)
    field, points = code.field, code.domain.points
    rng = SplitMix64(200 + q)
    shapes = [(q - 1, q - 1), (q, q + 2), (2, 3), (q + 1, 1), (0, 0)]
    for rows, cols in shapes:
        table = [[rng.randbelow(q) for _ in range(cols)] for _ in range(rows)]
        values = evaluate_on_domain(code.domain, table)
        assert values == [evaluate_table(field, table, pt) for pt in points]
