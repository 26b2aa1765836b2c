"""Encoding, local repair, and erasure/error decoding.

Received words are plain lists whose entries are either element indices or
None for an erased symbol (written "?" in files). Positions are 0-based
throughout the library; the CLI presents them 1-based.
"""

from dataclasses import dataclass

from .construct import Code
from .errors import (
    AmbiguousErasuresError,
    LengthMismatchError,
    LocalRepairImpossibleError,
    NotErasedError,
    TooLargeError,
    TooManyErasuresError,
    UndecodableError,
)
from .field import Field
from .linalg import InconsistentSystemError, solve, transpose

ERASED = None

BD_MAX_LENGTH = 256


def erasure_positions(received: list[int | None]) -> list[int]:
    return [i for i, s in enumerate(received) if s is None]


def encode(field: Field, g_rows: list[list[int]], message: list[int]) -> list[int]:
    """Codeword m G for a message of k element indices: the generic m*G
    product, kept as the reference that Code.encode must equal."""
    k = len(g_rows)
    n = len(g_rows[0]) if g_rows else 0
    if len(message) != k:
        raise LengthMismatchError(f"message length {len(message)} != k = {k}")
    out = [0] * n
    submul, neg = field.submul, field.neg
    for mu, row in zip(message, g_rows):
        if mu:
            out = submul(out, neg(mu), row)
    return out


def local_repair(code: Code, received: list[int | None], position: int) -> int:
    """Recover one erased symbol from the r survivors in its recovery set.

    Reads exactly the r other symbols of the cell, once each.
    """
    if not 0 <= position < code.n:
        raise ValueError(f"position {position} out of range")
    if received[position] is not None:
        raise NotErasedError(f"position {position} is not erased")
    field = code.field
    ci = code.domain.cell_index_of(position)
    cell = code.domain.cells[ci]
    v = code.local_parity(ci)
    off = position - cell[0]
    acc = 0
    add, mul = field.add, field.mul
    for s, pos in enumerate(cell):
        if pos == position:
            continue
        sym = received[pos]
        if sym is None:
            raise LocalRepairImpossibleError(
                f"positions {position} and {pos} are erased in the same recovery set"
            )
        acc = add(acc, mul(v[s], sym))
    return field.mul(field.neg(acc), field.inv(v[off]))


def _check_length(code: Code, received: list[int | None]) -> None:
    if len(received) != code.n:
        raise LengthMismatchError(f"word length {len(received)} != n = {code.n}")


_INCONSISTENT = "kept symbols are not consistent with any codeword"


def erasure_decode(code: Code, received: list[int | None]) -> list[int]:
    """Complete a codeword by solving the dual's equations on the erasures.

    The dual is spanned by one local row per cell and the three dense
    extra_dual rows. A cell without erasures only checks its kept symbols,
    so the system is the erased columns of the other cells' local rows and
    of the dense rows: the same solutions as all of H, from far fewer rows.
    A word without erasures is returned only when it is a codeword: every
    local check passes and the dense rows give a system of no unknowns whose
    right-hand side must be 0.
    """
    _check_length(code, received)
    erased = erasure_positions(received)
    redundancy = code.n - code.k
    if len(erased) > redundancy:
        raise TooManyErasuresError(
            f"{len(erased)} erasures exceed the redundancy n-k = {redundancy}"
        )
    field, domain = code.field, code.domain
    dot, neg = field.dot, field.neg
    local, size = domain.local_parity, domain.cell_size
    y0 = [0 if s is None else s for s in received]
    in_cell: dict[int, list[int]] = {}
    for col, pos in enumerate(erased):
        in_cell.setdefault(pos // size, []).append(col)
    syndromes = [dot(local, y0[start:start + size]) for start in range(0, code.n, size)]
    stray = any(syn for ci, syn in enumerate(syndromes) if ci not in in_cell)
    rows: list[list[int]] = []
    rhs: list[int] = []
    for ci, cols in in_cell.items():
        row = [0] * len(erased)
        for col in cols:
            row[col] = local[erased[col] - ci * size]
        rows.append(row)
        rhs.append(neg(syndromes[ci]))
    for dense in domain.extra_dual:
        rows.append([dense[e] for e in erased])
        rhs.append(neg(dot(dense, y0)))
    try:
        if stray:
            raise InconsistentSystemError("a cell without erasures fails its local parity")
        x = solve(field, rows, rhs)
    except InconsistentSystemError:
        raise UndecodableError(_INCONSISTENT) from None
    if x is None:
        raise AmbiguousErasuresError(
            "erasure pattern does not determine a unique codeword"
        )
    out = list(received)
    for pos, val in zip(erased, x):
        out[pos] = val
    return out


def _local_pass(code: Code, work: list[int | None]) -> tuple[list[int], int]:
    """Repair every cell holding exactly one erasure, in place.

    Cells are disjoint, so one sweep reaches the fixed point.
    """
    repaired: list[int] = []
    reads = 0
    for cell in code.domain.cells:
        gaps = [pos for pos in cell if work[pos] is None]
        if len(gaps) == 1:
            pos = gaps[0]
            work[pos] = local_repair(code, work, pos)
            repaired.append(pos)
            reads += code.r
    return repaired, reads


@dataclass
class HybridResult:
    codeword: list[int]
    locally_repaired: list[int]
    globally_repaired: list[int]
    symbols_read: int


def _check_codeword(code: Code, word: list[int]) -> None:
    """Refuse a complete word that a local or dense dual row does not annihilate."""
    domain = code.domain
    dot, local, size = code.field.dot, domain.local_parity, domain.cell_size
    if any(dot(local, word[s:s + size]) for s in range(0, code.n, size)) or any(
        dot(dense, word) for dense in domain.extra_dual
    ):
        raise UndecodableError(_INCONSISTENT)


def hybrid_decode(code: Code, received: list[int | None]) -> HybridResult:
    """Local repair to a fixed point, then one global erasure solve.

    When local repair leaves nothing to solve, the repaired word is checked
    against the whole dual instead, so a corrupt kept symbol is refused
    rather than returned. symbols_read does not count that check.
    """
    _check_length(code, received)
    work: list[int | None] = list(received)
    local_fixed, reads = _local_pass(code, work)
    remaining = erasure_positions(work)
    if remaining:
        reads += code.n - len(remaining)
        work = erasure_decode(code, work)
    else:
        _check_codeword(code, work)
    return HybridResult(
        codeword=work,
        locally_repaired=local_fixed,
        globally_repaired=remaining,
        symbols_read=reads,
    )


def error_correct_bd(
    field: Field, h_rows: list[list[int]], received: list[int], t_max: int = 1
) -> list[int]:
    """Bounded-distance correction of up to t_max symbol errors.

    Exhaustive syndrome search, deterministic lowest-pattern-first order.
    The match is unique only when 2 * t_max is below the code's minimum
    distance; otherwise the lowest matching pattern wins and may differ from
    the transmitted word. The default t_max = 1 is the largest unique radius
    at distance 4; t_max = 2 must be asked for. Any returned word has a zero
    syndrome.
    """
    if any(s is None for s in received):
        raise ValueError("erasures are not allowed here; use erasure_decode")
    n = len(h_rows[0])
    if len(received) != n:
        raise LengthMismatchError(f"word length {len(received)} != n = {n}")
    if n > BD_MAX_LENGTH:
        raise TooLargeError(f"syndrome search is limited to n <= {BD_MAX_LENGTH}")
    if not 0 <= t_max <= 2:
        raise ValueError("t_max must be 0, 1, or 2")
    syn = [field.dot(row, received) for row in h_rows]
    if not any(syn):
        return list(received)
    if t_max == 0:
        raise UndecodableError("nonzero syndrome with t_max = 0")
    m = len(h_rows)
    cols = transpose(h_rows)
    mul, sub, div = field.mul, field.sub, field.div
    # weight 1: e * col_i = syndrome
    for i, col in enumerate(cols):
        jnz = next((j for j in range(m) if col[j]), None)
        if jnz is None or syn[jnz] == 0:
            continue
        e = div(syn[jnz], col[jnz])
        if all(mul(e, col[j]) == syn[j] for j in range(m)):
            out = list(received)
            out[i] = sub(out[i], e)
            return out
    if t_max == 1:
        raise UndecodableError("no error pattern of weight <= 1 matches the syndrome")
    # weight 2 by meet-in-the-middle over single-column syndromes
    singles: dict[tuple[int, ...], tuple[int, int]] = {}
    for i, col in enumerate(cols):
        if not any(col):
            continue
        for e in range(1, field.q):
            singles.setdefault(tuple(mul(e, c) for c in col), (i, e))
    for i, col in enumerate(cols):
        for e in range(1, field.q):
            resid = tuple(sub(s, mul(e, c)) for s, c in zip(syn, col))
            hit = singles.get(resid)
            if hit is not None and hit[0] != i:
                j, f = hit
                out = list(received)
                out[i] = sub(out[i], e)
                out[j] = sub(out[j], f)
                return out
    raise UndecodableError("no error pattern of weight <= 2 matches the syndrome")
