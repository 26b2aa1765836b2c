"""Dense exact linear algebra over a Field.

Matrices are row-major lists of int lists; nothing here ever touches a
float. Row operations go through the Field's submul and scale primitives.
"""

from .field import Field


class InconsistentSystemError(ValueError):
    """A x = b has no solution."""


def transpose(rows: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*rows)]


def matmul(field: Field, a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bcols = list(zip(*b))
    return [[field.dot(row, col) for col in bcols] for row in a]


def mat_vec(field: Field, a: list[list[int]], x: list[int]) -> list[int]:
    return [field.dot(row, x) for row in a]


def rref(field: Field, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form (copy) and the pivot column list."""
    mat = [list(r) for r in rows]
    if not mat or not mat[0]:
        return mat, []
    nrows = len(mat)
    ncols = len(mat[0])
    submul = field.submul
    pivots: list[int] = []
    rpos = 0
    for c in range(ncols):
        if rpos == nrows:
            break
        pr = -1
        for i in range(rpos, nrows):
            if mat[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        mat[rpos], mat[pr] = mat[pr], mat[rpos]
        row = mat[rpos]
        if row[c] != 1:
            row = mat[rpos] = field.scale(field.inv(row[c]), row)
        for i in range(nrows):
            if i == rpos:
                continue
            f = mat[i][c]
            if f:
                mat[i] = submul(mat[i], f, row)
        pivots.append(c)
        rpos += 1
    return mat, pivots


def rank(field: Field, rows: list[list[int]]) -> int:
    return len(rref(field, rows)[1])


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
        for t, pc in enumerate(pivots):
            coef = reduced[t][f]
            if coef:
                v[pc] = field.neg(coef)
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
    x = [0] * ncols
    for t, pc in enumerate(pivots):
        x[pc] = reduced[t][ncols]
    return x
