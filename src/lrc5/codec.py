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
    """Codeword m G for a message of k element indices."""
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


def erasure_decode(
    field: Field, h_rows: list[list[int]], received: list[int | None]
) -> list[int]:
    """Complete a codeword by solving the parity equations on the erasures."""
    n = len(h_rows[0])
    if len(received) != n:
        raise LengthMismatchError(f"word length {len(received)} != n = {n}")
    erased = erasure_positions(received)
    if not erased:
        return list(received)
    if len(erased) > len(h_rows):
        raise TooManyErasuresError(
            f"{len(erased)} erasures exceed the redundancy n-k = {len(h_rows)}"
        )
    y0 = [0 if s is None else s for s in received]
    rhs = [field.neg(field.dot(row, y0)) for row in h_rows]
    cols = [[row[e] for e in erased] for row in h_rows]
    try:
        x = solve(field, cols, rhs)
    except InconsistentSystemError:
        raise UndecodableError(
            "kept symbols are not consistent with any codeword"
        ) from None
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


def hybrid_decode(code: Code, received: list[int | None]) -> HybridResult:
    """Local repair to a fixed point, then one global erasure solve if needed."""
    work: list[int | None] = list(received)
    local_fixed, reads = _local_pass(code, work)
    remaining = erasure_positions(work)
    if remaining:
        reads += code.n - len(remaining)
        work = erasure_decode(code.field, code.parity_check_matrix, work)
    return HybridResult(
        codeword=work,
        locally_repaired=local_fixed,
        globally_repaired=remaining,
        symbols_read=reads,
    )


def error_correct_bd(
    field: Field, h_rows: list[list[int]], received: list[int], t_max: int = 2
) -> list[int]:
    """Bounded-distance correction of up to t_max symbol errors.

    Exhaustive syndrome search, deterministic lowest-pattern-first order.
    The match is unique only when 2 * t_max is below the code's minimum
    distance; otherwise the lowest matching pattern wins and may differ from
    the transmitted word. Any returned word has a zero syndrome.
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
