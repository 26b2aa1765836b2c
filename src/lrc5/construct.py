"""Construction of locally repairable evaluation codes with design distance 5.

The codes live on the grid V = (F_q*)^2 with n = (q-1)^2 positions. Message
coordinates are indexed by bivariate monomials x^i y^j with exponents in
[0, q-2], keeping only i not congruent to r mod r+1 and dropping the three
monomials 1, x^(q-3) y^(q-2), x^(q-4) y^(q-2). Codewords are the evaluations
of the spanned polynomials over V, which gives k = n - n/(r+1) - 3 whenever
r+1 divides q-1. The removals target minimum distance 5, which would meet
the Singleton-like locality bound for r > 3; the verify module measures the
distance actually achieved (see its subset scans) rather than assuming it.

The grid is ordered "row-coset-power": position t*(q-1) + c*(r+1) + s holds
the point (g^c * h^s, g^t) where g is the canonical primitive element and
h = g^((q-1)/(r+1)) generates the subgroup R of order r+1. Every recovery
set, a coset (g^c R) x {g^t}, therefore occupies a contiguous block of r+1
positions, and each such cell satisfies one local parity equation.

The parity-check matrix and the local parity (1, h, ..., h^r) are closed
forms from character-sum duality on V; no nullspace of G is computed.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import DegenerateCodeError, DivisibilityViolationError
from .field import Field, subgroup_of_order
# nullspace is unused here but stays bound: the benchmark's tracing rebinds it
from .linalg import nullspace, rref


class Monomial(NamedTuple):
    i: int
    j: int


@dataclass(frozen=True)
class CodeParams:
    """Validated parameters of one code instance.

    equiv_applicable records whether the reshaped optimality identity
    (n - k) = n/(r+1) + (d-2) - floor((d-2)/(r+1)) is equivalent to meeting
    the Singleton-like bound; the side condition fails when d-2 is congruent
    to r mod r+1, which for d = 5 happens exactly at r in {1, 3}.
    """

    field: Field
    r: int
    n: int
    k: int
    d_target: int
    optimal_regime: bool
    equiv_applicable: bool


def validate_params(field: Field, r: int) -> CodeParams:
    q = field.q
    if r < 1:
        raise ValueError("locality must be at least 1")
    if (q - 1) % (r + 1):
        raise DivisibilityViolationError(
            f"r+1 = {r + 1} must divide q-1 = {q - 1}"
        )
    n = (q - 1) ** 2
    k = n - n // (r + 1) - 3
    if k <= 0:
        raise DegenerateCodeError(f"dimension n - n/(r+1) - 3 = {k} is not positive")
    if r == 1:
        # x^(q-4) y^(q-2) is already outside the i-filter when r+1 = 2, so
        # the three-monomial removal collapses and the dimension formula
        # breaks; the construction needs r >= 2.
        raise DegenerateCodeError("locality 1 collapses the removed-monomial set")
    return CodeParams(
        field=field,
        r=r,
        n=n,
        k=k,
        d_target=5,
        optimal_regime=r > 3,
        equiv_applicable=(5 - 2) % (r + 1) != r,
    )


def removed_monomials(q: int) -> list[Monomial]:
    """The three filtered monomials the construction drops."""
    return [Monomial(0, 0), Monomial(q - 3, q - 2), Monomial(q - 4, q - 2)]


def build_monomial_basis(params: CodeParams) -> list[Monomial]:
    """Monomials spanning the message space, ascending by (i, j)."""
    q, r = params.field.q, params.r
    removed = set(removed_monomials(q))
    basis = [
        Monomial(i, j)
        for i in range(q - 1)
        for j in range(q - 1)
        if i % (r + 1) != r and (i, j) not in removed
    ]
    # the removals are distinct members of the filtered set for q >= 4, r >= 2
    assert len(basis) == params.k
    return basis


@dataclass
class EvaluationDomain:
    """Ordered grid points plus the recovery-set partition."""

    field: Field
    g: int
    h: int
    cell_size: int
    points: list[tuple[int, int]]
    cells: list[list[int]]

    def cell_index_of(self, position: int) -> int:
        return position // self.cell_size

    def cell_of(self, position: int) -> list[int]:
        return self.cells[self.cell_index_of(position)]

    @cached_property
    def local_parity(self) -> list[int]:
        """The local parity every cell shares, built once per domain."""
        return local_parity_vector(self)


def build_domain(field: Field, params: CodeParams) -> EvaluationDomain:
    q, r = field.q, params.r
    g = field.generator
    subgroup = subgroup_of_order(field, r + 1)
    h = subgroup[1]
    ncosets = (q - 1) // (r + 1)
    points = []
    for t in range(q - 1):
        y = field.pow(g, t)
        for c in range(ncosets):
            rep = field.pow(g, c)
            for s in range(r + 1):
                points.append((field.mul(rep, subgroup[s]), y))
    cells = [list(range(b, b + r + 1)) for b in range(0, params.n, r + 1)]
    return EvaluationDomain(
        field=field, g=g, h=h, cell_size=r + 1, points=points, cells=cells
    )


def build_generator_matrix(
    basis: list[Monomial], domain: EvaluationDomain
) -> list[list[int]]:
    """k x n matrix of monomial evaluations; row u is basis[u] over the grid."""
    field = domain.field
    qm1 = field.q - 1
    exp, log = field.exp, field.log
    plogs = [(log[a], log[b]) for a, b in domain.points]
    return [
        [exp[(i * la + j * lb) % qm1] for la, lb in plogs] for i, j in basis
    ]


def extra_dual_rows(domain: EvaluationDomain) -> list[list[int]]:
    """The dual's three dense rows: the evaluations of x^(-i) y^(-j) for the
    removed monomials x^i y^j, which are 1, x^2 y and x^3 y."""
    field = domain.field
    qm1 = field.q - 1
    exp, log = field.exp, field.log
    return [
        [exp[(-i * log[a] - j * log[b]) % qm1] for a, b in domain.points]
        for i, j in removed_monomials(field.q)
    ]


def build_parity_check(
    basis: list[Monomial], domain: EvaluationDomain
) -> list[list[int]]:
    """Canonical parity-check matrix: the RREF of the dual's sparse generators.

    On V the sum of x^a y^b is 0 unless a = b = 0 mod q-1, so the
    evaluations of x^(-i) y^(-j), for the n-k pairs (i, j) in [0, q-2]^2
    outside the basis, are independent and span the dual. Those with
    i = r mod r+1 restrict to each cell as multiples of the local parity, so
    together they span the local rows: the local parity on one cell and
    zero elsewhere. The three others are extra_dual_rows. The RREF of a row
    space is unique, so this equals the RREF of any other dual basis.
    """
    n, local = len(domain.points), domain.local_parity
    rows = [
        [0] * start + local + [0] * (n - start - len(local))
        for start in range(0, n, len(local))
    ] + extra_dual_rows(domain)
    reduced, pivots = rref(domain.field, rows)
    assert len(pivots) == n - len(basis)
    return reduced


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


def evaluate_on_domain(
    field: Field, domain: EvaluationDomain, table: list[list[int]]
) -> list[int]:
    return [evaluate_table(field, table, pt) for pt in domain.points]


def interpolate(
    field: Field, domain: EvaluationDomain, values: list[int]
) -> list[list[int]]:
    """The unique coefficient table whose grid evaluations equal values.

    Inverts evaluation by summing value-weighted indicator polynomials.
    """
    qm1 = field.q - 1
    if len(values) != len(domain.points):
        raise ValueError("one value per domain point required")
    coeffs = [[0] * qm1 for _ in range(qm1)]
    exp, log = field.exp, field.log
    add = field.add
    for v, (alpha, beta) in zip(values, domain.points):
        if v == 0:
            continue
        la, lb = log[alpha], log[beta]
        lv = log[v]
        for i in range(qm1):
            base = lv - i * la
            row = coeffs[i]
            for j in range(qm1):
                row[j] = add(row[j], exp[(base - j * lb) % qm1])
    return coeffs


def local_parity_vector(domain: EvaluationDomain) -> list[int]:
    """The local parity (1, h, ..., h^r) shared by every recovery set.

    A cell is {(c * h^s, y) : s = 0..r}. Restricted to it, a basis monomial
    x^i y^j is c^i y^j times the character s -> h^(s*i), and i mod r+1 runs
    over 0..r-1 only, so the restricted code is spanned by the characters
    h^(s*e) for e = 0..r-1. Their one-dimensional dual is (h^s)_s, because
    sum_s h^(s*(e+1)) = 0 for e+1 in 1..r. The first entry is 1 and no entry
    is 0.
    """
    return [domain.field.pow(domain.h, s) for s in range(domain.cell_size)]


class Code:
    """One constructed code: parameters, domain, and its matrices.

    The generator and parity-check matrices are built on first access and
    kept, so every consumer of a Code reads the same G and H.
    """

    def __init__(
        self,
        field: Field,
        params: CodeParams,
        basis: list[Monomial],
        domain: EvaluationDomain,
    ):
        self.field = field
        self.params = params
        self.basis = basis
        self.domain = domain

    @classmethod
    def build(cls, field: Field, r: int) -> "Code":
        params = validate_params(field, r)
        basis = build_monomial_basis(params)
        domain = build_domain(field, params)
        return cls(field, params, basis, domain)

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def k(self) -> int:
        return self.params.k

    @property
    def r(self) -> int:
        return self.params.r

    @cached_property
    def generator_matrix(self) -> list[list[int]]:
        return build_generator_matrix(self.basis, self.domain)

    @cached_property
    def parity_check_matrix(self) -> list[list[int]]:
        return build_parity_check(self.basis, self.domain)

    def local_parity(self, cell_index: int) -> list[int]:
        """Local parity of one cell; every cell shares the same vector."""
        return self.domain.local_parity
