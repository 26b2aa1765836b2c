import pytest

from lrc5.construct import (
    Code,
    EvaluationDomain,
    Monomial,
    build_domain,
    build_generator_matrix,
    build_monomial_basis,
    build_parity_check,
    extra_dual_rows,
    local_parity_vector,
    validate_params,
)
from lrc5.errors import DegenerateCodeError, DivisibilityViolationError
from lrc5.field import Field
from lrc5.linalg import mat_vec, matmul, nullspace, rank, rref
from lrc5.rng import SplitMix64

from .oracles import (
    oracle_generator_matrix,
    mat_vec_gf,
    oracle_monomials,
    oracle_parity_check,
    oracle_points,
    rank_mod,
)

INSTANCES = [(5, 3), (7, 5), (8, 6), (11, 4), (13, 5), (13, 11)]
EXPECTED_NK = {
    (5, 3): (16, 9),
    (7, 5): (36, 27),
    (8, 6): (49, 39),
    (11, 4): (100, 77),
    (13, 5): (144, 117),
    (13, 11): (144, 129),
}

BASIS_5_3 = [
    (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2),
]
POINTS_5_3 = [
    (1, 1), (2, 1), (4, 1), (3, 1),
    (1, 2), (2, 2), (4, 2), (3, 2),
    (1, 4), (2, 4), (4, 4), (3, 4),
    (1, 3), (2, 3), (4, 3), (3, 3),
]


def field_for(q):
    return Field(*{8: (2, 3), 9: (3, 2), 16: (2, 4), 27: (3, 3)}.get(q, (q, 1)))


@pytest.mark.parametrize("q,r", INSTANCES)
def test_parameter_formulas(q, r):
    params = validate_params(field_for(q), r)
    n, k = EXPECTED_NK[(q, r)]
    assert params.n == n == (q - 1) ** 2
    assert params.k == k == n - n // (r + 1) - 3
    assert params.d_target == 5


@pytest.mark.parametrize("q,r", INSTANCES)
def test_optimality_flags(q, r):
    params = validate_params(field_for(q), r)
    assert params.optimal_regime is (r > 3)
    assert params.equiv_applicable is ((5 - 2) % (r + 1) != r)


def test_divisibility_is_enforced():
    with pytest.raises(DivisibilityViolationError):
        validate_params(Field(7), 4)
    with pytest.raises(DivisibilityViolationError):
        validate_params(Field(5), 2)


def test_locality_one_is_degenerate():
    # r = 1 makes two of the three removed monomials collide
    with pytest.raises(DegenerateCodeError):
        validate_params(Field(5), 1)


def test_tiny_fields_yield_no_message_space():
    # (q=3, r=1) also has k = 4 - 2 - 3 < 0, caught by the same gate
    with pytest.raises(DegenerateCodeError):
        validate_params(Field(3), 1)


def test_monomial_basis_frozen_and_oracle_checked():
    params = validate_params(Field(5), 3)
    basis = build_monomial_basis(params)
    assert [(m.i, m.j) for m in basis] == BASIS_5_3
    assert all(isinstance(m, Monomial) for m in basis)


@pytest.mark.parametrize("q,r", INSTANCES)
def test_monomial_basis_matches_independent_rule(q, r):
    params = validate_params(field_for(q), r)
    basis = [(m.i, m.j) for m in build_monomial_basis(params)]
    assert sorted(basis) == sorted(oracle_monomials(q, r))
    assert len(basis) == params.k


def test_domain_frozen_points():
    code = Code.build(Field(5), 3)
    assert code.domain.points == POINTS_5_3
    code75 = Code.build(Field(7), 5)
    assert code75.domain.points[:8] == [
        (1, 1), (3, 1), (2, 1), (6, 1), (4, 1), (5, 1), (1, 3), (3, 3),
    ]


@pytest.mark.parametrize("q,r", [(5, 3), (7, 5), (11, 4), (13, 5)])
def test_domain_matches_contract_ordering(q, r):
    field = Field(q)
    params = validate_params(field, r)
    dom = build_domain(field, params)
    assert dom.points == oracle_points(q, r)


@pytest.mark.parametrize("q,r", INSTANCES)
def test_cells_partition_the_grid(q, r):
    field = field_for(q)
    code = Code.build(field, r)
    dom = code.domain
    n = (q - 1) ** 2
    assert dom.cell_size == r + 1
    flat = [p for cell in dom.cells for p in cell]
    assert flat == list(range(n))
    for ci, cell in enumerate(dom.cells):
        assert cell == list(range(ci * (r + 1), (ci + 1) * (r + 1)))
        ys = {dom.points[p][1] for p in cell}
        assert len(ys) == 1
        xs = [dom.points[p][0] for p in cell]
        # x-coordinates form a coset: the pairwise ratios form the subgroup
        ratios = {field.div(x, xs[0]) for x in xs}
        assert len(ratios) == r + 1
        base = sorted(ratios)
        for a in base:
            for b in base:
                assert field.mul(a, b) in ratios
        for p in cell:
            assert dom.cell_index_of(p) == ci
            assert dom.cell_of(p) == cell


def test_domain_is_a_plain_dataclass_snapshot(code53):
    assert isinstance(code53.domain, EvaluationDomain)
    assert code53.domain.g == 2
    assert code53.domain.h == 2


@pytest.mark.parametrize("q,r", [(5, 3), (7, 5), (11, 4)])
def test_generator_matrix_matches_plain_evaluation(q, r):
    code = Code.build(Field(q), r)
    assert code.generator_matrix == oracle_generator_matrix(q, r)


@pytest.mark.parametrize("q,r", INSTANCES)
def test_generator_matrix_has_full_rank(q, r):
    code = Code.build(field_for(q), r)
    g = code.generator_matrix
    assert len(g) == code.k and len(g[0]) == code.n
    if q != 8:
        assert rank_mod(g, q) == code.k
    else:
        assert rank(code.field, g) == code.k


@pytest.mark.parametrize("q,r", INSTANCES)
def test_parity_check_annihilates_generator(q, r):
    code = Code.build(field_for(q), r)
    g, h = code.generator_matrix, code.parity_check_matrix
    assert len(h) == code.n - code.k and len(h[0]) == code.n
    prod = matmul(code.field, h, [list(col) for col in zip(*g)])
    assert all(all(v == 0 for v in row) for row in prod)
    if q != 8:
        assert rank_mod(h, q) == code.n - code.k
    else:
        assert rank(code.field, h) == code.n - code.k


def test_local_parity_frozen_vectors(code53, code75):
    for ci in range(4):
        assert code53.local_parity(ci) == [1, 2, 4, 3]
    assert code75.local_parity(0) == [1, 3, 2, 6, 4, 5]


@pytest.mark.parametrize("q,r", INSTANCES)
def test_local_parity_annihilates_restricted_codewords(q, r):
    field = field_for(q)
    code = Code.build(field, r)
    rng = SplitMix64(5)
    g = code.generator_matrix
    words = []
    for _ in range(5):
        msg = [rng.randbelow(field.q) for _ in range(code.k)]
        acc = [0] * code.n
        for mu, row in zip(msg, g):
            acc = [field.add(a, field.mul(mu, b)) for a, b in zip(acc, row)]
        words.append(acc)
    for ci, cell in enumerate(code.domain.cells):
        v = code.local_parity(ci)
        assert v[0] == 1
        assert all(x != 0 for x in v)
        for w in words:
            assert field.dot(v, [w[p] for p in cell]) == 0


def test_local_parity_vector_is_normalized_and_unique(code75):
    v = local_parity_vector(code75.domain)
    assert v == code75.local_parity(2)
    assert v[0] == 1


# prime fields, characteristic 2 and odd-characteristic extensions
CLOSED_FORM_INSTANCES = INSTANCES + [(9, 3), (9, 7), (16, 4), (17, 7)]


@pytest.mark.parametrize("q,r", CLOSED_FORM_INSTANCES)
def test_parity_check_equals_rref_of_generic_nullspace(q, r):
    code = Code.build(field_for(q), r)
    reference, _ = rref(code.field, nullspace(code.field, code.generator_matrix))
    assert build_parity_check(code.basis, code.domain) == reference


@pytest.mark.parametrize("q,r", [(9, 3), (13, 5), (16, 4), (27, 12), (29, 6)])
def test_parity_check_equals_rref_of_dense_dual_rows(q, r):
    """H from the local and extra rows is the RREF of all n-k dense rows."""
    assert Code.build(field_for(q), r).parity_check_matrix == oracle_parity_check(q, r)


@pytest.mark.parametrize("q,r", CLOSED_FORM_INSTANCES)
def test_extra_dual_rows_annihilate_generator(q, r):
    code = Code.build(field_for(q), r)
    rows = extra_dual_rows(code.domain)
    assert len(rows) == 3 and rows[0] == [1] * code.n
    for row in rows:
        assert mat_vec_gf(code.generator_matrix, row, q) == [0] * code.k


@pytest.mark.parametrize("q,r", CLOSED_FORM_INSTANCES)
def test_local_parity_equals_powers_of_h_and_restricted_nullspace(q, r):
    code = Code.build(field_for(q), r)
    field, g = code.field, code.generator_matrix
    powers = [field.pow(code.domain.h, s) for s in range(r + 1)]
    for ci, cell in enumerate(code.domain.cells):
        assert code.local_parity(ci) == powers
        ns = nullspace(field, [[row[p] for p in cell] for row in g])
        assert len(ns) == 1
        assert field.scale(field.inv(ns[0][0]), ns[0]) == powers


@pytest.mark.parametrize("p,m,r", [(3, 3, 12), (29, 1, 6)])
def test_parity_check_at_larger_fields_annihilates_codewords(p, m, r):
    code = Code.build(Field(p, m), r)
    field, h = code.field, code.parity_check_matrix
    assert len(h) == code.n - code.k and len(h[0]) == code.n
    assert rank(field, h) == code.n - code.k
    rng = SplitMix64(11)
    for _ in range(3):
        msg = [rng.randbelow(field.q) for _ in range(code.k)]
        word = [field.dot(msg, col) for col in zip(*code.generator_matrix)]
        assert any(word)
        assert mat_vec(field, h, word) == [0] * len(h)


def test_code_build_and_caching(code75):
    assert code75.n == 36 and code75.k == 27 and code75.r == 5
    assert code75.generator_matrix is code75.generator_matrix
    assert code75.parity_check_matrix is code75.parity_check_matrix
    fresh = Code.build(Field(7), 5)
    assert fresh.generator_matrix == code75.generator_matrix


def test_build_matrices_standalone(f5):
    params = validate_params(f5, 3)
    dom = build_domain(f5, params)
    basis = build_monomial_basis(params)
    g = build_generator_matrix(basis, dom)
    h = build_parity_check(basis, dom)
    assert len(g) == 9 and len(h) == 7
    prod = matmul(f5, h, [list(col) for col in zip(*g)])
    assert all(all(v == 0 for v in row) for row in prod)
