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

The local parity (1, h, ..., h^r) and the dual are closed forms from
character-sum duality on V; no nullspace of G is computed. dual_rows holds
one local row per cell and dense_dual, the three extra_dual_rows reduced at
every cell start: verify scans their columns. H is their RREF in closed
form, and parity_check_pivot_rows its at most six rows that are not plain
local rows, which build_parity_check and formats' parity.csv both read.

Every monomial evaluation on the grid is one transform on EvaluationDomain.
Position t*(q-1) + u holds (x_u, g^t), so grid row t of x^i y^j is the
block g^(j*t) * (x_u^i)_u, whose entry u is g^(j*t + i*log x_u). x_blocks
builds the q-1 blocks of one i, once; monomial_row joins q-1 of them into
a row of G or one of the three dense extra_dual_rows. formats reads x_logs
for the texts of generator.csv instead. evaluate is a (q-1) x (q-1)
two-dimensional transform on the rows (x_u^i)_u alone, about k + (q-1)*|I|
vector operations of length q-1 for |I| distinct exponents i, against k of
length n for m*G; Code.encode runs it.
"""

from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import (
    DegenerateCodeError,
    DivisibilityViolationError,
    LengthMismatchError,
    TooLargeError,
)
from .field import Field, subgroup_of_order
# nullspace is unused here but stays bound: the benchmark's tracing rebinds it
from .linalg import nullspace, rref


class Monomial(NamedTuple):
    i: int
    j: int


@dataclass(frozen=True)
class CodeParams:
    """Validated parameters of one code instance."""

    field: Field
    r: int
    n: int
    k: int
    d_target: int
    optimal_regime: bool


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

    @cached_property
    def extra_dual(self) -> list[list[int]]:
        """The three dense dual rows, built once per domain."""
        return extra_dual_rows(self)

    @cached_property
    def dense_dual(self) -> list[list[int]]:
        """extra_dual reduced by the local rows to zero at every cell start."""
        field, local = self.field, self.local_parity
        starts = range(0, len(self.points), len(local))
        return [
            field.submul(row, 1, [x for s in starts for x in field.scale(row[s], local)])
            for row in self.extra_dual
        ]

    @cached_property
    def dual_rows(self) -> list[list[int]]:
        """A basis of the dual, built once per domain: the local parity on
        each cell and zero elsewhere, in cell order, then dense_dual.

        On V the sum of x^a y^b is 0 unless a = b = 0 mod q-1, so the
        evaluations of x^(-i) y^(-j), for the n-k pairs (i, j) in [0, q-2]^2
        outside the basis, are independent and span the dual. Those with
        i = r mod r+1 span the local rows; the other three are extra_dual.
        """
        n, local = len(self.points), self.local_parity
        starts = range(0, n, len(local))
        return [[0] * s + local + [0] * (n - s - len(local)) for s in starts] + self.dense_dual

    @cached_property
    def y_powers(self) -> list[list[int]]:
        """Row j is y_t^j over the grid rows' y-values y_t = g^t, j in [0, q-2]."""
        qm1, exp = self.field.q - 1, self.field.exp
        return [[exp[j * t % qm1] for t in range(qm1)] for j in range(qm1)]

    @cached_property
    def x_logs(self) -> list[int]:
        """log x_u over one grid row's x-values x_u, which every row shares."""
        return [self.field.log[x] for x, _ in self.points[:self.field.q - 1]]

    @cached_property
    def x_powers(self) -> list[list[int]]:
        """Row i is x_u^i over one grid row's x-values x_u, i in [0, q-2]."""
        qm1, exp = self.field.q - 1, self.field.exp
        return [[exp[i * lx % qm1] for lx in self.x_logs] for i in range(qm1)]

    @cached_property
    def _x_blocks(self) -> dict[int, list[tuple[int, ...]]]:
        """x_blocks by exponent, each entry built on first use."""
        return {}

    def x_blocks(self, i: int) -> list[tuple[int, ...]]:
        """The q-1 blocks g^e * (x_u^i)_u, e in [0, q-2], exponent i taken
        mod q-1: grid row t of x^i y^j is block j*t mod q-1. Built once per
        exponent and kept. Blocks are tuples: shared, so immutable, and of
        ints only, so the garbage collector stops scanning them once they
        survive a collection."""
        qm1 = self.field.q - 1
        i %= qm1
        if (blocks := self._x_blocks.get(i)) is None:
            scale, xi = self.field.scale, self.x_powers[i]
            blocks = self._x_blocks[i] = [tuple(scale(ge, xi)) for ge in self.field.exp[:qm1]]
        return blocks

    def monomial_row(self, i: int, j: int) -> list[int]:
        """The evaluations of x^i y^j over the grid, exponents taken mod q-1.

        Grid row t is the block g^(j*t) * (x_u^i)_u, so the row joins q-1
        shared blocks rather than computing n products.
        """
        qm1, blocks = self.field.q - 1, self.x_blocks(i)
        row: list[int] = []
        for t in range(qm1):
            row += blocks[j * t % qm1]
        return row

    def evaluate(self, terms: Iterable[tuple[tuple[int, int], int]]) -> list[int]:
        """Grid evaluations of sum c * x^i y^j over ((i, j), c) terms, exponents
        taken mod q-1: with N_i(t) = -sum_j c_ij y_t^j (negated, as submul
        subtracts), grid row t is sum_i -N_i(t) (x_u^i)_u."""
        submul, qm1 = self.field.submul, self.field.q - 1
        yp = self.y_powers
        zero = [0] * qm1
        neg_poly: dict[int, list[int]] = {}
        for (i, j), c in terms:
            if c:
                neg_poly[i] = submul(neg_poly.get(i, zero), c, yp[j % qm1])
        parts = [(npi, self.x_powers[i % qm1]) for i, npi in neg_poly.items()]
        out: list[int] = []
        for t in range(qm1):
            row = zero
            for npi, xi in parts:
                if npi[t]:
                    row = submul(row, npi[t], xi)
            out += row
        return out


def build_domain(field: Field, params: CodeParams) -> EvaluationDomain:
    q, r = field.q, params.r
    g = field.generator
    subgroup = subgroup_of_order(field, r + 1)
    h = subgroup[1]
    ncosets = (q - 1) // (r + 1)
    # every grid row has the same x-values, coset by coset
    xs = [field.mul(field.pow(g, c), s) for c in range(ncosets) for s in subgroup]
    ys = [field.pow(g, t) for t in range(q - 1)]
    points = [(x, y) for y in ys for x in xs]
    cells = [list(range(b, b + r + 1)) for b in range(0, params.n, r + 1)]
    return EvaluationDomain(
        field=field, g=g, h=h, cell_size=r + 1, points=points, cells=cells
    )


def build_generator_matrix(
    basis: list[Monomial], domain: EvaluationDomain
) -> list[list[int]]:
    """k x n matrix of monomial evaluations; row u is basis[u] over the grid."""
    return [domain.monomial_row(i, j) for i, j in basis]


def extra_dual_rows(domain: EvaluationDomain) -> list[list[int]]:
    """The dual's three dense rows: the evaluations of x^(-i) y^(-j) for the
    removed monomials x^i y^j, which are 1, x^2 y and x^3 y."""
    return [domain.monomial_row(-i, -j) for i, j in removed_monomials(domain.field.q)]


def parity_check_pivot_rows(domain: EvaluationDomain) -> dict[int, list[int]]:
    """The at most six rows of H that are not plain local rows, by pivot.
    H is the RREF of dual_rows, so of any basis of the dual. Its local rows
    have pivot 1 at their cell start, where dense_dual is zero, so only
    dense_dual goes through rref; each of its pivots is then cleared from
    the local row of its cell."""
    field, size, local = domain.field, domain.cell_size, domain.local_parity
    n = len(domain.points)
    rows: dict[int, list[int]] = {}
    dense, pivots = rref(field, domain.dense_dual)
    for piv, row in zip(pivots, dense):
        start = piv - piv % size
        cell = rows.get(start) or [0] * start + local + [0] * (n - start - size)
        rows[start] = field.submul(cell, cell[piv], row)
        rows[piv] = row
    return rows


def build_parity_check(
    basis: list[Monomial], domain: EvaluationDomain
) -> list[list[int]]:
    """Canonical parity-check matrix: parity_check_pivot_rows with the
    plain local rows around them, which stay shared with dual_rows."""
    size, dual = domain.cell_size, domain.dual_rows
    rows = dict(zip(range(0, len(domain.points), size), dual[:len(domain.cells)]))
    rows |= parity_check_pivot_rows(domain)
    assert len(rows) == len(domain.points) - len(basis)
    return [rows[piv] for piv in sorted(rows)]


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

    def encode(self, message: list[int]) -> list[int]:
        """Codeword of a message of k element indices, one per basis monomial.

        Equal to message * G, computed as the domain's 2D transform.
        """
        if len(message) != self.k:
            raise LengthMismatchError(f"message length {len(message)} != k = {self.k}")
        return self.domain.evaluate(zip(self.basis, message))


#: most entries k*n of G that gen or a load may render as generator.csv:
#: GF(64) r=6 has 13,490,631, GF(81) r=3 has 30,700,800
MAX_GENERATOR_ENTRIES = 1 << 24


def build_within_budget(field: Field, r: int) -> Code:
    """Code.build(field, r), refused with TooLargeError before anything is
    built when G would have more than MAX_GENERATOR_ENTRIES entries."""
    params = validate_params(field, r)
    if params.k * params.n > MAX_GENERATOR_ENTRIES:
        raise TooLargeError(
            f"G of q = {field.q}, r = {r} has k*n = {params.k * params.n:,} entries, "
            f"above the budget of {MAX_GENERATOR_ENTRIES:,}"
        )
    return Code.build(field, r)
