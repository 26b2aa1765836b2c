"""Encoding, local repair, and erasure/error decoding.

Received words are plain lists whose entries are either element indices or
None for an erased symbol (written "?" in files). Positions are 0-based
throughout the library; the CLI presents them 1-based. Every decoder applies
the dual to a word through one routine, syndromes, and groups erasures by
cell through one, _erasures_by_cell, which the simulator reads too.
"""

from dataclasses import dataclass

from .construct import Code
from .errors import (
    AmbiguousErasuresError,
    LengthMismatchError,
    LocalRepairImpossibleError,
    NotErasedError,
    TooManyErasuresError,
    UndecodableError,
)
from .field import Field
from .linalg import InconsistentSystemError, solve

ERASED = None


def erasure_positions(received: list[int | None]) -> list[int]:
    return [i for i, s in enumerate(received) if s is None]


def _erasures_by_cell(code: Code, erased: list[int]) -> dict[int, list[int]]:
    """Each cell index holding erasures, mapped to its erased positions; for
    ascending erased, the cells and the positions in each come in order."""
    by_cell: dict[int, list[int]] = {}
    for pos in erased:
        by_cell.setdefault(pos // code.domain.cell_size, []).append(pos)
    return by_cell


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


def syndromes(code: Code, word: list[int]) -> tuple[list[int], list[int]]:
    """The dual applied to a complete word: the local syndrome of each cell,
    in cell order, and the syndromes of the three dense extra_dual rows."""
    domain = code.domain
    dot, local, size = code.field.dot, domain.local_parity, domain.cell_size
    return (
        [dot(local, word[start:start + size]) for start in range(0, code.n, size)],
        [dot(dense, word) for dense in domain.extra_dual],
    )


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
    neg, local, size = field.neg, domain.local_parity, domain.cell_size
    local_syn, dense_syn = syndromes(code, [0 if s is None else s for s in received])
    by_cell = _erasures_by_cell(code, erased)
    if any(syn for ci, syn in enumerate(local_syn) if ci not in by_cell):
        raise UndecodableError(_INCONSISTENT)  # a cell without erasures fails its check
    rows = [[local[p % size] if p in gaps else 0 for p in erased] for gaps in by_cell.values()]
    rows += [[dense[e] for e in erased] for dense in domain.extra_dual]
    rhs = [neg(local_syn[ci]) for ci in by_cell] + [neg(syn) for syn in dense_syn]
    try:
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


def _local_pass(code: Code, work: list[int | None], by_cell: dict[int, list[int]]):
    """Repair, in place, each cell of by_cell with one erasure: cells are
    disjoint, so one pass reaches the fixed point. Returns the repaired
    positions, the ascending ones left for a global solve and the reads."""
    repaired: list[int] = []
    remaining: list[int] = []
    for gaps in by_cell.values():
        if len(gaps) == 1:
            work[gaps[0]] = local_repair(code, work, gaps[0])
            repaired += gaps
        else:
            remaining += gaps
    return repaired, remaining, code.r * len(repaired)


@dataclass
class HybridResult:
    codeword: list[int]
    locally_repaired: list[int]
    globally_repaired: list[int]
    symbols_read: int


def hybrid_decode(code: Code, received: list[int | None]) -> HybridResult:
    """Local repair to a fixed point, then one global erasure solve.

    When local repair leaves nothing to solve, the repaired word is checked
    against the whole dual instead, so a corrupt kept symbol is refused
    rather than returned. symbols_read does not count that check.
    """
    _check_length(code, received)
    work: list[int | None] = list(received)
    by_cell = _erasures_by_cell(code, erasure_positions(work))
    local_fixed, remaining, reads = _local_pass(code, work, by_cell)
    if remaining:
        reads += code.n - len(remaining)
        work = erasure_decode(code, work)
    else:
        local_syn, dense_syn = syndromes(code, work)
        if any(local_syn) or any(dense_syn):
            raise UndecodableError(_INCONSISTENT)
    return HybridResult(
        codeword=work,
        locally_repaired=local_fixed,
        globally_repaired=remaining,
        symbols_read=reads,
    )


def correct_error(code: Code, received: list[int]) -> list[int]:
    """Correct at most one symbol error, read off the structure of the dual.

    The dense row of the removed monomial 1 is all ones, so an error of value
    e is dense syndrome 0. Its cell is the one cell with a nonzero local
    syndrome s, and s/e is the local parity's entry h^o at the error's offset
    o; the entries (1, h, ..., h^r) are distinct because h has order r+1. The
    other dense syndromes must equal e times their row's entry there. At
    distance 4 the radius-1 balls are disjoint, so a returned word is the one
    codeword within distance 1 of the received word; any other word is
    refused.
    """
    if any(s is None for s in received):
        raise ValueError("erasures are not allowed here; use erasure_decode")
    _check_length(code, received)
    local_syn, dense_syn = syndromes(code, received)
    if not any(local_syn) and not any(dense_syn):
        return list(received)
    field, domain = code.field, code.domain
    local, e = domain.local_parity, dense_syn[0]
    cells = [ci for ci, syn in enumerate(local_syn) if syn]
    ratio = field.div(local_syn[cells[0]], e) if e and len(cells) == 1 else None
    if ratio in local:
        pos = cells[0] * domain.cell_size + local.index(ratio)
        if all(
            syn == field.mul(e, dense[pos])
            for syn, dense in zip(dense_syn, domain.extra_dual)
        ):
            out = list(received)
            out[pos] = field.sub(out[pos], e)
            return out
    raise UndecodableError("no error pattern of weight <= 1 matches the syndrome")
