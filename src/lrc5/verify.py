"""Machine verification of the claimed code properties on built instances.

Distance and constraint-matrix checks share one subset-scanning engine that
walks w-subsets of a column family in lexicographic order, carrying a
partial echelon basis so shared prefixes are reduced once. Exhaustive scans
can optionally split the leading index range across worker processes; the
merged result is identical to a sequential scan.

Every check returns a VerificationReport. A failing report always carries a
witness concrete enough to replay by hand (a column subset, a point subset,
or a repaired-vs-expected symbol).
"""

import os
import time
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field
from math import comb

from .codec import encode, local_repair
from .construct import Code, CodeParams
from .errors import BudgetExceededError, ConditionViolatedError, NotDistinctError
from .field import Field
from .linalg import nullspace, rank, transpose
from .rng import SplitMix64

SUBSET_BUDGET = 10_000_000

#: exhaustive scans above this many subsets fall back to sampling in auto mode
AUTO_EXHAUSTIVE_LIMIT = 250_000


@dataclass
class VerificationReport:
    """Outcome of one machine check.

    millis is wall time and therefore volatile; serializers zero it out when
    writing artifacts that must be byte-identical across runs.
    """

    claim: str
    mode: str
    trials: int
    result: bool
    witness: dict | None
    seed: int | None
    millis: float
    details: dict = dc_field(default_factory=dict)

    def to_json_dict(self, include_timing: bool = False) -> dict:
        out = {
            "claim": self.claim,
            "mode": self.mode,
            "trials": self.trials,
            "result": self.result,
            "witness": self.witness,
            "seed": self.seed,
            "millis": round(self.millis, 3) if include_timing else None,
        }
        if self.details:
            out["details"] = self.details
        return out

    def text_line(self) -> str:
        status = "pass" if self.result else "FAIL"
        out = f"{status}  {self.claim}  mode={self.mode} trials={self.trials}"
        if self.seed is not None:
            out += f" seed={self.seed}"
        if self.witness is not None:
            out += f" witness={self.witness}"
        return out


def _reduce(field: Field, basis: list, col) -> tuple[int, Sequence[int]] | None:
    """Reduce col against a normalized echelon basis.

    Returns None when col is dependent on the basis, else (pivot, vector)
    with the pivot entry scaled to 1.
    """
    v = col
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


def _scan_exhaustive(field, columns, size, lo=0, hi=None, on_leaf=None):
    """Check every size-subset (leading index in [lo, hi)) for independence.

    Returns (checked, failure): failure is the lexicographically first
    dependent subset, completed with the smallest available indices when the
    dependency appears before the subset is full. checked counts subsets
    confirmed independent, plus one for the failure. on_leaf receives each
    subset confirmed independent.
    """
    n = len(columns)
    if hi is None:
        hi = n
    checked = 0

    def rec(start, stop, basis, chosen):
        nonlocal checked
        depth = len(chosen)
        for idx in range(start, stop):
            ext = _reduce(field, basis, columns[idx])
            if ext is None:
                checked += 1
                need = size - depth - 1
                return tuple(chosen) + (idx,) + tuple(range(idx + 1, idx + 1 + need))
            if depth + 1 == size:
                checked += 1
                if on_leaf is not None:
                    on_leaf(chosen + [idx])
            else:
                deeper_stop = n - (size - depth - 2)
                found = rec(idx + 1, deeper_stop, basis + [ext], chosen + [idx])
                if found is not None:
                    return found
        return None

    stop0 = min(hi, n - size + 1)
    failure = rec(lo, stop0, [], [])
    return checked, failure


def _beta_pattern(betas: list[int], indices: list[int]) -> str:
    counts = sorted(Counter(betas[i] for i in indices).values())
    if counts == [4]:
        return "all-equal"
    if counts == [1, 3]:
        return "three-equal"
    if counts == [2, 2]:
        return "two-pairs"
    if counts == [1, 1, 2]:
        return "one-pair"
    return "all-distinct"


def _pattern_bins(betas):
    """(bins, on_leaf): on_leaf counts a subset's y-pattern into bins.

    Both are None without betas, so unbinned scans pay for no callback.
    """
    if betas is None:
        return None, None
    bins: Counter = Counter()

    def on_leaf(subset):
        bins[_beta_pattern(betas, subset)] += 1

    return bins, on_leaf


def _scan_worker(args):
    p, m, modulus, columns, size, lo, hi, betas = args
    bins, on_leaf = _pattern_bins(betas)
    checked, failure = _scan_exhaustive(
        Field(p, m, modulus), columns, size, lo, hi, on_leaf
    )
    return checked, failure, bins


def _scan_parallel(field, columns, size, threads, betas=None):
    """Deterministic multi-process scan; equivalent to the sequential one.

    Never asks for more worker processes than the machine has CPUs. The
    process pool is imported here, not at module load: it pulls in
    multiprocessing, about 2 MB of resident memory that runs without
    worker processes never use.
    """
    from concurrent.futures import ProcessPoolExecutor

    threads = min(threads, os.cpu_count() or 1)
    n = len(columns)
    top = n - size + 1
    chunk = max(1, top // (threads * 8))
    tasks = [
        (field.p, field.m, field.modulus, columns, size, lo, min(lo + chunk, top), betas)
        for lo in range(0, top, chunk)
    ]
    checked = 0
    failure = None
    bins: Counter = Counter()
    with ProcessPoolExecutor(max_workers=threads) as pool:
        for c, f, b in pool.map(_scan_worker, tasks):
            checked += c
            if f is not None and failure is None:
                failure = f
            if b:
                bins.update(b)
    return checked, failure, bins if betas is not None else None


def _scan_sampled(field, columns, size, trials, seed, on_subset=None):
    """Check `trials` seeded uniform size-subsets; first failure wins."""
    rng = SplitMix64(seed)
    n = len(columns)
    for t in range(trials):
        subset = rng.sample_sorted(n, size)
        basis = []
        for idx in subset:
            ext = _reduce(field, basis, columns[idx])
            if ext is None:
                return t + 1, tuple(subset)
            basis.append(ext)
        if on_subset is not None:
            on_subset(subset)
    return trials, None


def _scan(field, columns, size, mode, trials, seed, threads, betas=None):
    """Scan size-subsets of columns for independence in one mode.

    Exhaustive mode walks every subset in lexicographic order, split across
    worker processes when threads > 1; sampled mode checks `trials` seeded
    subsets. Returns (checked, failure, bins): with betas, bins counts the
    y-pattern of every subset confirmed independent; otherwise it is None.
    """
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if size == 0:
        return 0, None, None
    if mode == "exhaustive" and threads > 1:
        return _scan_parallel(field, columns, size, threads, betas)
    bins, on_leaf = _pattern_bins(betas)
    if mode == "exhaustive":
        checked, failure = _scan_exhaustive(field, columns, size, on_leaf=on_leaf)
    else:
        checked, failure = _scan_sampled(field, columns, size, trials, seed, on_leaf)
    return checked, failure, bins


def verify_distance_at_least(
    field: Field,
    h_rows: list[list[int]],
    w: int,
    mode: str = "exhaustive",
    trials: int = 100_000,
    seed: int = 0,
    threads: int = 1,
) -> VerificationReport:
    """Certify d >= w by checking (w-1)-subsets of parity columns for
    independence: exhaustively in lexicographic order, or on seeded samples.

    The scan stops at the first dependent subset, so on a failing report
    trials counts only the subsets checked up to and including the witness,
    not every subset there is.
    """
    t0 = time.perf_counter()
    n = len(h_rows[0])
    if not 1 <= w <= len(h_rows) + 1:
        raise ValueError(f"w must lie in [1, n-k+1] = [1, {len(h_rows) + 1}]")
    size = w - 1
    claim = f"distance>={w}"
    checked, failure, _ = _scan(
        field, transpose(h_rows), size, mode, trials, seed, threads
    )
    if size == 0:  # every code has d >= 1
        return VerificationReport(
            claim, mode, 0, True, None, None, (time.perf_counter() - t0) * 1000
        )
    witness = None
    if failure is not None:
        witness = {"columns": [c + 1 for c in failure]}
    return VerificationReport(
        claim=claim,
        mode=mode,
        trials=checked,
        result=failure is None,
        witness=witness,
        seed=seed if mode == "sampled" else None,
        millis=(time.perf_counter() - t0) * 1000,
        details={"subset_size": size, "columns": n},
    )


def find_min_weight_codeword(
    field: Field,
    h_rows: list[list[int]],
    w_cap: int,
    budget: int = SUBSET_BUDGET,
) -> VerificationReport:
    """Exhaustive search for a minimum-weight codeword of weight <= w_cap.

    Scans w-subsets of parity columns for w = 1..w_cap; the first dependent
    subset found (smallest w, then lexicographic) supports a codeword of
    exactly that weight, recovered from the one-dimensional nullspace of the
    subset columns. A report with witness None certifies d > w_cap.
    """
    t0 = time.perf_counter()
    n = len(h_rows[0])
    total = sum(comb(n, w) for w in range(1, w_cap + 1))
    if total > budget:
        raise BudgetExceededError(
            f"{total} subsets exceed the {budget} rank-check budget"
        )
    columns = transpose(h_rows)
    checked_total = 0
    for w in range(1, w_cap + 1):
        checked, failure = _scan_exhaustive(field, columns, w)
        checked_total += checked
        if failure is not None:
            sub_rows = [[row[c] for c in failure] for row in h_rows]
            ns = nullspace(field, sub_rows)
            assert len(ns) == 1 and all(ns[0])
            codeword = [0] * n
            for pos, val in zip(failure, ns[0]):
                codeword[pos] = val
            witness = {
                "weight": w,
                "support": [c + 1 for c in failure],
                "codeword": codeword,
            }
            return VerificationReport(
                claim="min-weight-search",
                mode="exhaustive",
                trials=checked_total,
                result=True,
                witness=witness,
                seed=None,
                millis=(time.perf_counter() - t0) * 1000,
                details={"weight_cap": w_cap},
            )
    return VerificationReport(
        claim="min-weight-search",
        mode="exhaustive",
        trials=checked_total,
        result=True,
        witness=None,
        seed=None,
        millis=(time.perf_counter() - t0) * 1000,
        details={"weight_cap": w_cap, "conclusion": f"no codeword of weight <= {w_cap}"},
    )


def _moment_column(field: Field, a: int, b: int) -> tuple[int, ...]:
    """(1, ab, a^2 b, a^3 b, a b^2, a b^3, a b^4) at one point of the grid."""
    qm1 = field.q - 1
    exp, la, lb = field.exp, field.log[a], field.log[b]
    return (
        1,
        exp[(la + lb) % qm1],
        exp[(2 * la + lb) % qm1],
        exp[(3 * la + lb) % qm1],
        exp[(la + 2 * lb) % qm1],
        exp[(la + 3 * lb) % qm1],
        exp[(la + 4 * lb) % qm1],
    )


def constraint_matrix(field: Field, points: list[tuple[int, int]]) -> list[list[int]]:
    """7x4 matrix of the excluded-monomial constraints at four grid points.

    Column for (alpha, beta) is (1, ab, a^2 b, a^3 b, a b^2, a b^3, a b^4).
    Rank 4 at every choice of distinct points would rule out codewords of
    weight 4 or less; verify_constraint_matrix measures whether that holds.
    """
    if len(points) != 4 or len(set(points)) != 4:
        raise NotDistinctError("four distinct grid points are required")
    if any(a == 0 or b == 0 for a, b in points):
        raise ValueError("grid points have nonzero coordinates")
    cols = [_moment_column(field, a, b) for a, b in points]
    return [list(row) for row in zip(*cols)]


def constraint_matrix_rank(field: Field, points: list[tuple[int, int]]) -> int:
    return rank(field, constraint_matrix(field, points))


def _moment_columns(field: Field) -> tuple[list[tuple[int, int]], list, list[int]]:
    points = [(a, b) for a in field.units() for b in field.units()]
    columns = [_moment_column(field, a, b) for a, b in points]
    betas = [b for _, b in points]
    return points, columns, betas


def verify_constraint_matrix(
    field: Field,
    mode: str = "exhaustive",
    trials: int = 100_000,
    seed: int = 0,
    threads: int = 1,
) -> VerificationReport:
    """Check rank 4 of the constraint matrix over 4-subsets of the grid.

    Subsets are binned by the multiplicity pattern of their y-coordinates
    (all-equal, three-equal, two-pairs, one-pair, all-distinct), matching
    the five case splits of the rank argument; per-bin counts land in the
    report details. The scan stops at the first rank-deficient subset, so
    on a failing report trials counts only the subsets checked up to and
    including the witness (390 of 1,820 at q=5) and case_counts bins the
    ones before it, not every 4-subset of the grid.
    """
    t0 = time.perf_counter()
    points, columns, betas = _moment_columns(field)
    total = comb(len(columns), 4)
    if mode == "exhaustive" and total > SUBSET_BUDGET:
        raise BudgetExceededError(
            f"{total} subsets exceed the {SUBSET_BUDGET} rank-check budget"
        )
    checked, failure, bins = _scan(
        field, columns, 4, mode, trials, seed, threads, betas
    )
    witness = None
    if failure is not None:
        witness = {"points": [list(points[i]) for i in failure]}
    return VerificationReport(
        claim="constraint-matrix-rank",
        mode=mode,
        trials=checked,
        result=failure is None,
        witness=witness,
        seed=seed if mode == "sampled" else None,
        millis=(time.perf_counter() - t0) * 1000,
        details={"case_counts": {k: bins[k] for k in sorted(bins)}},
    )


def verify_locality(code: Code, trials: int = 25, seed: int = 0) -> VerificationReport:
    """Check that every position is locally repairable from its cell.

    Algebraic part: each cell's local parity, the closed form (1, h, ...,
    h^r), has no zero entry (a zero at a position would leave it
    unprotected). Behavioral part, which certifies that closed form against
    real codewords: seeded random codewords, erase each position in turn,
    repair it from the cell survivors, and compare.
    """
    t0 = time.perf_counter()
    field = code.field
    witness = None
    v = code.local_parity(0)  # one vector serves every cell
    if any(x == 0 for x in v):
        witness = {"cell": 1, "vector": v, "reason": "zero dual entry"}
    if witness is None:
        rng = SplitMix64(seed)
        g_rows = code.generator_matrix
        for _ in range(trials):
            msg = [rng.randbelow(field.q) for _ in range(code.k)]
            cw = encode(field, g_rows, msg)
            for pos in range(code.n):
                received: list[int | None] = list(cw)
                received[pos] = None
                got = local_repair(code, received, pos)
                if got != cw[pos]:
                    witness = {
                        "position": pos + 1,
                        "expected": cw[pos],
                        "repaired": got,
                    }
                    break
            if witness is not None:
                break
    return VerificationReport(
        claim="locality",
        mode="sampled",
        trials=trials,
        result=witness is None,
        witness=witness,
        seed=seed,
        millis=(time.perf_counter() - t0) * 1000,
        details={
            "positions": code.n,
            "cells": len(code.domain.cells),
            "reads_per_repair": code.r,
        },
    )


def singleton_like_bound(n: int, k: int, r: int) -> int:
    """Largest minimum distance a code of locality r can have:
    n - k - ceil(k/r) + 2."""
    if n < 1 or k < 1 or r < 1:
        raise ValueError("n, k, r must be positive")
    return n - k - (-(-k // r)) + 2


def optimality_equivalence_holds(params: CodeParams, d: int = 5) -> bool:
    """Whether n - k equals n/(r+1) + (d-2) - floor((d-2)/(r+1)).

    Meeting the Singleton-like bound is equivalent to this identity only
    when d-2 is not congruent to r mod r+1; outside that regime the check
    refuses to answer rather than guess.
    """
    r = params.r
    if (d - 2) % (r + 1) == r:
        raise ConditionViolatedError(
            f"d-2 = {d - 2} is congruent to r = {r} mod r+1; "
            "the reshaped identity is not equivalent to the bound here"
        )
    lhs = params.n - params.k
    rhs = params.n // (r + 1) + (d - 2) - (d - 2) // (r + 1)
    return lhs == rhs


def length_regime_report(params: CodeParams) -> VerificationReport:
    """Evaluate the two length-regime conditions and report them verbatim.

    Both are sufficient-direction hypotheses about when length-optimal codes
    of this shape can exist; the instances built here may fail them while
    still being distance-optimal, so the report records the arithmetic and
    draws no further inference.
    """
    t0 = time.perf_counter()
    q, r, n = params.field.q, params.r, params.n
    blocks = n // (r + 1)
    floor3 = 3 // (r + 1)
    rhs = (3 - floor3) * (3 * r + 2) + floor3 + 1
    cosets = -(-(q - 1) // (r + 1))
    details = {
        "block_count_inequality": {"lhs": blocks, "rhs": rhs, "holds": blocks >= rhs},
        "coset_count_condition": {
            "value": cosets,
            "threshold": 3,
            "holds": cosets > 3,
        },
    }
    return VerificationReport(
        claim="length-regime",
        mode="exhaustive",
        trials=0,
        result=True,
        witness=None,
        seed=None,
        millis=(time.perf_counter() - t0) * 1000,
        details=details,
    )
