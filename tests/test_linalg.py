import pytest

from lrc5.field import Field
from lrc5.linalg import (
    InconsistentSystemError,
    nullspace,
    rank,
    rref,
    solve,
    transpose,
)
from lrc5.rng import SplitMix64

from .oracles import mat_vec, mat_vec_gf, mat_vec_mod, matmul, rank_gf, rank_mod


def random_matrix(rng, rows, cols, q):
    return [[rng.randbelow(q) for _ in range(cols)] for _ in range(rows)]


def test_transpose():
    assert transpose([[1, 2, 3], [4, 5, 6]]) == [[1, 4], [2, 5], [3, 6]]
    assert transpose([]) == []


def test_matmul_and_mat_vec_match_plain_arithmetic(f7):
    rng = SplitMix64(1)
    a = random_matrix(rng, 3, 4, 7)
    b = random_matrix(rng, 4, 2, 7)
    x = [rng.randbelow(7) for _ in range(4)]
    prod = matmul(f7, a, b)
    for i in range(3):
        for j in range(2):
            assert prod[i][j] == sum(a[i][t] * b[t][j] for t in range(4)) % 7
    assert mat_vec(f7, a, x) == mat_vec_mod(a, x, 7)


@pytest.mark.parametrize("shape", [(3, 5), (5, 3), (4, 4), (6, 6), (1, 7), (7, 1)])
def test_rank_matches_independent_elimination(f7, f13, shape):
    rows, cols = shape
    for field, q in ((f7, 7), (f13, 13)):
        rng = SplitMix64(rows * 100 + cols)
        for _ in range(20):
            m = random_matrix(rng, rows, cols, q)
            assert rank(field, m) == rank_mod(m, q)


def test_rank_edge_cases(f7):
    assert rank(f7, [[0, 0], [0, 0]]) == 0
    assert rank(f7, [[1, 0], [0, 1]]) == 2
    assert rank(f7, [[1, 2], [2, 4]]) == 1


def test_rref_shape_and_pivots(f7):
    rng = SplitMix64(7)
    for _ in range(25):
        m = random_matrix(rng, 4, 6, 7)
        red, pivots = rref(f7, m)
        assert sorted(pivots) == pivots
        assert len(pivots) == rank_mod(m, 7)
        for i, pc in enumerate(pivots):
            assert red[i][pc] == 1
            for other in range(len(red)):
                if other != i:
                    assert red[other][pc] == 0
        red2, pivots2 = rref(f7, red)
        assert red2 == red and pivots2 == pivots


def test_rref_preserves_row_space(f7):
    rng = SplitMix64(11)
    m = random_matrix(rng, 3, 5, 7)
    red, _ = rref(f7, m)
    stacked = m + [row for row in red if any(row)]
    assert rank_mod(stacked, 7) == rank_mod(m, 7)


@pytest.mark.parametrize("shape", [(3, 6), (5, 8), (6, 6), (2, 9)])
def test_nullspace_spans_the_kernel(f7, shape):
    rows, cols = shape
    rng = SplitMix64(rows * 31 + cols)
    for _ in range(10):
        a = random_matrix(rng, rows, cols, 7)
        basis = nullspace(f7, a)
        assert len(basis) == cols - rank_mod(a, 7)
        for v in basis:
            assert mat_vec_mod(a, v, 7) == [0] * rows
        if basis:
            assert rank_mod(basis, 7) == len(basis)


def test_nullspace_of_full_rank_square_is_empty(f7):
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert nullspace(f7, ident) == []


def test_solve_recovers_planted_solution_when_unique(f7):
    rng = SplitMix64(23)
    for _ in range(25):
        # tall system with independent columns has a unique solution
        a = random_matrix(rng, 6, 3, 7)
        if rank_mod(a, 7) < 3:
            continue
        x0 = [rng.randbelow(7) for _ in range(3)]
        b = mat_vec_mod(a, x0, 7)
        assert solve(f7, a, b) == x0


def test_solve_returns_none_when_underdetermined(f7):
    a = [[1, 2, 3], [2, 4, 6]]
    b = [0, 0]
    assert solve(f7, a, b) is None


def test_solve_raises_on_inconsistent_system(f7):
    a = [[1, 2], [2, 4]]
    b = [1, 3]
    with pytest.raises(InconsistentSystemError):
        solve(f7, a, b)


def test_solve_on_extension_field(f8):
    a = [[1, 2], [3, 1]]
    x0 = [5, 6]
    b = mat_vec(f8, a, x0)
    assert solve(f8, a, b) == x0


# --- every field kind: prime, characteristic 2, odd-characteristic extension

FIELD_KINDS = [(7, 1), (2, 3), (3, 2), (2, 4)]
# wide, tall, square, one row, one column
SHAPES = [(3, 7), (7, 3), (5, 5), (1, 6), (6, 1)]


@pytest.fixture(scope="module", params=FIELD_KINDS, ids=lambda pm: f"GF{pm[0] ** pm[1]}")
def field(request):
    return Field(*request.param)


def degenerate_matrix(rng, rows, cols, q):
    """Sparse random rows, then zero rows and exact repeats mixed in, so
    rank deficits are common."""
    m = [[rng.randbelow(q) if rng.randbelow(2) else 0 for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        pick = rng.randbelow(4)
        if pick == 0:
            m[i] = [0] * cols
        elif pick == 1:
            m[i] = list(m[rng.randbelow(i)])
    return m


def matrices(field, shape, count=15):
    rows, cols = shape
    rng = SplitMix64(field.q * 1000 + rows * 10 + cols)
    return [degenerate_matrix(rng, rows, cols, field.q) for _ in range(count)]


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_rank_on_every_field_kind(field, shape):
    for m in matrices(field, shape):
        assert rank(field, m) == rank_gf(m, field.q)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_rref_shape_pivots_and_zero_rows_last(field, shape):
    rows, cols = shape
    for m in matrices(field, shape):
        snapshot = [list(row) for row in m]
        red, pivots = rref(field, m)
        assert m == snapshot
        assert len(red) == rows and all(len(row) == cols for row in red)
        assert all(a is not b for a, b in zip(red, m))
        assert sorted(set(pivots)) == pivots
        assert len(pivots) == rank_gf(m, field.q)
        for i, pc in enumerate(pivots):
            assert red[i][:pc] == [0] * pc and red[i][pc] == 1
            assert all(red[other][pc] == 0 for other in range(rows) if other != i)
        assert all(not any(row) for row in red[len(pivots):])
        assert rref(field, red) == (red, pivots)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_rref_preserves_row_space_on_every_field_kind(field, shape):
    for m in matrices(field, shape):
        red, _ = rref(field, m)
        r = rank_gf(m, field.q)
        assert rank_gf(red, field.q) == r
        assert rank_gf(m + red, field.q) == r


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_nullspace_on_every_field_kind(field, shape):
    rows, cols = shape
    for m in matrices(field, shape):
        basis = nullspace(field, m)
        assert len(basis) == cols - rank_gf(m, field.q)
        for v in basis:
            assert mat_vec_gf(m, v, field.q) == [0] * rows
        if basis:
            assert rank_gf(basis, field.q) == len(basis)


def test_solve_on_every_field_kind(field):
    q = field.q
    rng = SplitMix64(q)
    solved = 0
    for m in matrices(field, (7, 3), count=30):
        x0 = [rng.randbelow(q) for _ in range(3)]
        b = mat_vec_gf(m, x0, q)
        if rank_gf(m, q) == 3:
            assert solve(field, m, b) == x0
            solved += 1
        else:
            assert solve(field, m, b) is None
    assert solved > 0
    # a repeated row with a different right-hand side has no solution
    a = [[1, 2, 0], [1, 2, 0], [0, 0, 1]]
    with pytest.raises(InconsistentSystemError):
        solve(field, a, [1, 0, 1])
    # so does a zero row with a nonzero right-hand side
    with pytest.raises(InconsistentSystemError):
        solve(field, [[0, 0], [1, 1]], [1, 1])
    # wide and consistent: underdetermined
    assert solve(field, [[1, 1, 0]], [1]) is None


def test_solve_with_no_unknowns_checks_the_right_hand_side(field):
    """The erasure decoder's check of a word without erasures: rows of
    width 0 have the empty solution exactly when every right-hand side is 0."""
    assert solve(field, [[], [], []], [0, 0, 0]) == []
    for b in ([1, 0, 0], [0, 0, field.q - 1], [2, 1, 1]):
        with pytest.raises(InconsistentSystemError):
            solve(field, [[], [], []], b)


def test_empty_and_zero_width_inputs(f7):
    assert rref(f7, []) == ([], [])
    assert rref(f7, [[], []]) == ([[], []], [])
    assert rank(f7, []) == 0 and rank(f7, [[]]) == 0
    assert nullspace(f7, []) == []
    with pytest.raises(ValueError, match="empty system"):
        solve(f7, [], [])
    assert rref(f7, [[0, 0, 0], [0, 0, 0]]) == ([[0, 0, 0], [0, 0, 0]], [])
