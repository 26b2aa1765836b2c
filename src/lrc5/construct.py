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
character-sum duality on V; no nullspace of G and no list of the n
positions is made. As the sum of x^a y^b over V is 0 unless a = b = 0
mod q-1, the evaluations of x^(-i) y^(-j), (i, j) outside the basis, span
the dual: one local_row per cell (i = r mod r+1) and the three rows of
dense_dual, reduced at every cell start. verify's distance suite scans
their columns and the codec's syndromes read them. H is their RREF in
closed form, and parity_check_pivot_rows its at most six rows that are
not plain local rows, which build_parity_check and parity.csv both read.

Position t*(q-1) + u holds (x_u, g^t), so grid row t of x^i y^j is the
block g^(j*t) * (x_u^i)_u, whose entry u is g^(j*t + i*log x_u). x_blocks
takes the q-1 blocks of one i off a table of symbols by exponent, and
basis_rows assembles each basis row from q-1 of them: G reads the
elements, formats' generator.csv their texts. evaluate is a (q-1) x (q-1)
two-dimensional transform on the rows (x_u^i)_u alone, about k + (q-1)*|I|
vector operations of length q-1 for |I| distinct exponents i, against k of
length n for m*G; Code.encode runs it.
"""

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .errors import (
    DegenerateCodeError,
    DivisibilityViolationError,
    LengthMismatchError,
    TooLargeError,
)
from .field import Field
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
    """The grid in closed form, position t*(q-1) + c*(r+1) + s holding
    (g^c h^s, g^t), and its recovery sets of cell_size positions each."""

    field: Field
    g: int
    h: int
    cell_size: int

    @cached_property
    def cells(self) -> list[range]:
        """Cell i as the range of its positions, built on first use."""
        size = self.cell_size
        return [range(b, b + size) for b in range(0, (self.field.q - 1) ** 2, size)]

    def cell_of(self, position: int) -> range:
        return self.cells[position // self.cell_size]

    def local_row(self, start: int) -> list[int]:
        """The dual row of the local parity on the cell starting at position
        start, zero elsewhere."""
        tail = (self.field.q - 1) ** 2 - start - self.cell_size
        return [0] * start + self.local_parity + [0] * tail

    @cached_property
    def local_parity(self) -> list[int]:
        """The local parity every cell shares, built once per domain."""
        return local_parity_vector(self)

    @cached_property
    def dense_dual(self) -> list[list[int]]:
        """The dual's three dense rows x^a y^b, for the removed monomials
        x^(-a) y^(-b), reduced by the local rows to zero at every cell start.
        On the cell of (g^c h^s, g^t) that is x^a y^b less g^(ac+bt) h^s, so
        g^(ac+bt) * (h^(as) - h^s): one pattern per row, scaled per cell.
        Row 0, of the removed monomial 1, is 1 - h^s."""
        field, local, size = self.field, self.local_parity, self.cell_size
        qm1, exp = field.q - 1, field.exp
        rows = []
        for i, j in removed_monomials(field.q):
            a, b = -i % qm1, -j % qm1
            pattern = field.submul([local[a * s % size] for s in range(size)], 1, local)
            row: list[int] = []
            for t in range(qm1):
                for c in range(qm1 // size):
                    row += field.scale(exp[(a * c + b * t) % qm1], pattern)
            rows.append(row)
        return rows

    @cached_property
    def y_powers(self) -> list[list[int]]:
        """Row j is y_t^j over the grid rows' y-values y_t = g^t, j in [0, q-2]."""
        qm1, exp = self.field.q - 1, self.field.exp
        return [[exp[j * t % qm1] for t in range(qm1)] for j in range(qm1)]

    @cached_property
    def x_logs(self) -> list[int]:
        """log x_u over one grid row's x-values x_u = g^c h^s, which every
        row shares: c + s*(q-1)/(r+1), coset by coset, as h = g^((q-1)/(r+1))."""
        step = (self.field.q - 1) // self.cell_size
        return [c + s * step for c in range(step) for s in range(self.cell_size)]

    @cached_property
    def x_powers(self) -> list[list[int]]:
        """Row i is x_u^i over one grid row's x-values x_u, i in [0, q-2]."""
        qm1, exp = self.field.q - 1, self.field.exp
        return [[exp[i * lx % qm1] for lx in self.x_logs] for i in range(qm1)]

    def x_blocks(self, i: int, symbols: Sequence) -> list[tuple]:
        """The q-1 blocks g^e * (x_u^i)_u, e in [0, q-2], exponent i taken
        mod q-1, in symbols: a table by exponent, doubled like Field.exp,
        whose entry e + (i*log x_u mod q-1) is entry u of block e. Kept nowhere."""
        qm1 = self.field.q - 1
        block = itemgetter(*[i * lx % qm1 for lx in self.x_logs])
        return [block(symbols[e:e + qm1]) for e in range(qm1)]

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
    size = params.r + 1
    return EvaluationDomain(field, field.generator, field.exp[(field.q - 1) // size], size)


def basis_rows(
    basis: list[Monomial], domain: EvaluationDomain, symbols: Sequence, convert=tuple
) -> Iterator[tuple]:
    """Row by row, the q-1 blocks of each basis monomial x^i y^j over the
    grid, in grid-row order: grid row t is block j*t mod q-1 of
    domain.x_blocks(i, symbols). Each block goes through convert once."""
    qm1 = domain.field.q - 1
    orders = [itemgetter(*[j * t % qm1 for t in range(qm1)]) for j in range(qm1)]
    blocks = {i: list(map(convert, domain.x_blocks(i, symbols))) for i in {i for i, _ in basis}}
    return (orders[j](blocks[i]) for i, j in basis)


def build_generator_matrix(
    basis: list[Monomial], domain: EvaluationDomain
) -> list[list[int]]:
    """k x n matrix of monomial evaluations; row u is basis[u] over the grid."""
    rows = []
    for blocks in basis_rows(basis, domain, domain.field.exp):
        row: list[int] = []
        for block in blocks:
            row += block
        rows.append(row)
    return rows


def parity_check_pivot_rows(domain: EvaluationDomain) -> dict[int, list[int]]:
    """The at most six rows of H that are not plain local rows, by pivot.
    H is the RREF of any basis of the dual, so of the local rows and
    dense_dual. The local rows have pivot 1 at their cell start, where
    dense_dual is zero, so only dense_dual goes through rref; each of its
    pivots is then cleared from the local row of its cell."""
    field, size = domain.field, domain.cell_size
    rows: dict[int, list[int]] = {}
    dense, pivots = rref(field, domain.dense_dual)
    for piv, row in zip(pivots, dense):
        start = piv - piv % size
        cell = rows.get(start) or domain.local_row(start)
        rows[start] = field.submul(cell, cell[piv], row)
        rows[piv] = row
    return rows


def build_parity_check(
    basis: list[Monomial], domain: EvaluationDomain
) -> list[list[int]]:
    """Canonical parity-check matrix: parity_check_pivot_rows with the
    plain local rows around them."""
    size, n = domain.cell_size, (domain.field.q - 1) ** 2
    rows = parity_check_pivot_rows(domain)
    rows |= {s: domain.local_row(s) for s in range(0, n, size) if s not in rows}
    assert len(rows) == n - len(basis)
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
        """The code of locality r over field, refused with Field's table
        TooLargeError above MAX_TABLE_ORDER before anything is built."""
        params = validate_params(field, r)
        field.table_order()
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
