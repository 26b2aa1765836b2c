"""Dense exact linear algebra over a Field.

Matrices are row-major lists of int lists; nothing here ever touches a
float. Row operations go through the Field's submul and scale primitives.
Every elimination runs on reduce_row, which inserts one row into an echelon
basis: rank counts the rows that insert, rref also clears each new pivot
from the rows before it, and verify's subset scans carry their own bases.
"""

from .field import Field


class InconsistentSystemError(ValueError):
    """A x = b has no solution."""


def transpose(rows: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*rows)]


def reduce_row(field: Field, basis: list, row) -> tuple | None:
    """Reduce row against an echelon basis of (pivot, row) pairs, each row
    with pivot entry 1 and zero at the pivots of the rows before it.

    Returns None when row lies in the basis span, else (pivot, residual):
    the residual is zero at every basis pivot and 1 at its first nonzero
    entry, the pivot. It may be row itself when no step changes it.
    """
    v = row
    submul = field.submul
    for piv, b in basis:
        f = v[piv]
        if f:
            v = submul(v, f, b)
    for pi, x in enumerate(v):
        if x:
            break
    else:
        return None
    if x != 1:
        v = field.scale(field.inv(x), v)
    return pi, v


def rref(field: Field, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form (fresh rows, one per input row, zero rows
    last) and the pivot column list."""
    submul = field.submul
    basis: list = []
    for row in rows:
        if (ext := reduce_row(field, basis, row)) is None:
            continue
        piv, v = ext
        for i, (p, b) in enumerate(basis):
            if f := b[piv]:
                basis[i] = p, submul(b, f, v)
        basis.append(ext)
    basis.sort(key=lambda pb: pb[0])
    width = len(rows[0]) if rows else 0
    reduced = [list(b) for _, b in basis] + [[0] * width for _ in rows[len(basis):]]
    return reduced, [p for p, _ in basis]


def rank(field: Field, rows: list[list[int]]) -> int:
    basis: list = []
    for row in rows:
        if (ext := reduce_row(field, basis, row)) is not None:
            basis.append(ext)
    return len(basis)


def nullspace(field: Field, rows: list[list[int]]) -> list[list[int]]:
    """Canonical basis of {x : A x = 0}, one vector per free column."""
    if not rows:
        return []
    reduced, pivots = rref(field, rows)
    ncols = len(rows[0])
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = [0] * ncols
        v[f] = 1
        for row, pc in zip(reduced, pivots):
            v[pc] = field.neg(row[f])
        basis.append(v)
    return basis


def solve(field: Field, a_rows: list[list[int]], b: list[int]) -> list[int] | None:
    """Solve A x = b exactly.

    Returns the unique solution, or None when the system is consistent but
    underdetermined. Raises InconsistentSystemError when no solution exists.
    """
    if not a_rows:
        raise ValueError("empty system")
    ncols = len(a_rows[0])
    aug = [list(row) + [bv] for row, bv in zip(a_rows, b)]
    reduced, pivots = rref(field, aug)
    if pivots and pivots[-1] == ncols:
        raise InconsistentSystemError("system has no solution")
    if len(pivots) < ncols:
        return None
    # the pivots are exactly 0..ncols-1
    return [row[ncols] for row in reduced[:ncols]]
