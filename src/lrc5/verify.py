"""Machine verification of the claimed code properties on built instances.

Distance and constraint-matrix checks share one subset-scanning engine that
walks w-subsets of a column family in lexicographic order, carrying a
partial echelon basis so shared prefixes are reduced once. Each column is
reduced by linalg.reduce_row, the routine rank and rref also run on. The
last level is decided by hashing: against the basis of a (w-2)-prefix,
columns j and l complete a dependent subset exactly when l's normalized
residual is zero or equals j's, because the residual map is linear with the
prefix span as its kernel. Each prefix thus costs one reduction per later
column, not one per leaf. Every scan is bounded by SUBSET_BUDGET, counted
in column reductions plus, when a scan bins, leaf callbacks: exhaustive
scans stop with BudgetExceededError once they would pass it, and sampled
scans refuse more trials than that. exhaustive_cost is the exact count of a
complete exhaustive scan; mode "auto" runs exhaustive exactly when it fits.

Every check returns a VerificationReport. A failing report always carries a
witness concrete enough to replay by hand (a column subset, a point subset,
or a repaired-vs-expected symbol).
"""

import time
from collections import Counter
from dataclasses import dataclass, field as dc_field
from math import comb

from .codec import encode, local_repair
from .construct import Code, CodeParams
from .errors import BudgetExceededError, ConditionViolatedError, NotDistinctError
from .field import Field
from .linalg import nullspace, rank, reduce_row, transpose
from .rng import SplitMix64

#: most rank checks one verify call may make: reductions in an exhaustive
#: scan, trials in a sampled one
SUBSET_BUDGET = 10_000_000


def exhaustive_cost(n: int, size: int) -> int:
    """Column reductions a complete exhaustive scan of size-subsets of n
    columns makes: one per prefix at each level above the last two, and one
    per later column at each (size-2)-prefix."""
    if size < 2:
        return 0
    above = sum(comb(n - size + d + 1, d + 1) for d in range(size - 2))
    return above + comb(n, size - 1) - (comb(n - 2, size - 3) if size > 2 else 0)


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


def _scan_exhaustive(field, columns, size, on_leaf=None):
    """Check every size-subset of columns for independence.

    Returns (checked, failure): failure is the lexicographically first
    dependent subset, completed with the smallest available indices when the
    dependency appears before the subset is full. checked counts subsets
    confirmed independent, plus one for the failure. on_leaf receives each
    subset confirmed independent, in lexicographic order.

    The last two levels are not walked leaf by leaf: each later column is
    reduced once against the prefix basis and keyed by its normalized
    residual. That is exact because two columns extend the prefix to a
    dependent set iff their residuals are parallel or one is zero.

    Raises BudgetExceededError before the reductions and on_leaf calls made
    pass SUBSET_BUDGET, so a scan that ends within it is never cut short.
    """
    n = len(columns)
    checked = reductions = 0
    if size == 1:
        for idx in range(n):
            checked += 1
            if not any(columns[idx]):
                return checked, (idx,)
            if on_leaf is not None:
                on_leaf([idx])
        return checked, None

    def spend(count):
        nonlocal reductions
        reductions += count
        if reductions > SUBSET_BUDGET:
            raise BudgetExceededError(
                f"exhaustive scan passed the {SUBSET_BUDGET} reduction budget "
                f"after {checked} subsets"
            )

    def last_two(start, stop, basis, chosen):
        # partner: the first l > j whose residual is zero or equal to j's
        # (reduce_row scales pivots to 1, so parallel residuals are equal
        # tuples); a zero residual at j fails at once, completed as (j, j+1).
        nonlocal checked
        spend(n - start)
        next_zero, seen, first = n, {}, None
        for i in range(n - 1, start - 1, -1):
            ext = reduce_row(field, basis, columns[i])
            if ext is None:
                partner, next_zero = i + 1, i
            else:
                key = tuple(ext[1])
                partner = min(next_zero, seen.get(key, n))
                seen[key] = i
            if i < stop and partner < n:
                first = i, partner
        j_end = stop if first is None else first[0]
        # leaves (j, l) for j in [start, j_end), l in (j, n) all pass
        passed = comb(n - start, 2) - comb(n - j_end, 2)
        checked += passed
        if on_leaf is not None:
            spend(passed)
            for j in range(start, j_end):
                for l in range(j + 1, n):
                    on_leaf(chosen + [j, l])
        if first is None:
            return None
        j, partner = first
        checked += partner - j
        if on_leaf is not None:
            spend(partner - j - 1)
            for l in range(j + 1, partner):
                on_leaf(chosen + [j, l])
        return (*chosen, j, partner)

    def rec(start, stop, basis, chosen):
        nonlocal checked
        depth = len(chosen)
        if depth == size - 2:
            return last_two(start, stop, basis, chosen)
        for idx in range(start, stop):
            spend(1)
            ext = reduce_row(field, basis, columns[idx])
            if ext is None:
                checked += 1
                need = size - depth - 1
                return tuple(chosen) + (idx,) + tuple(range(idx + 1, idx + 1 + need))
            found = rec(idx + 1, n - (size - depth - 2), basis + [ext], chosen + [idx])
            if found is not None:
                return found
        return None

    failure = rec(0, n - size + 1, [], [])
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


def _scan_sampled(field, columns, size, trials, seed, on_subset=None):
    """Check `trials` seeded uniform size-subsets; first failure wins."""
    rng = SplitMix64(seed)
    n = len(columns)
    for t in range(trials):
        subset = rng.sample_sorted(n, size)
        basis = []
        for idx in subset:
            ext = reduce_row(field, basis, columns[idx])
            if ext is None:
                return t + 1, tuple(subset)
            basis.append(ext)
        if on_subset is not None:
            on_subset(subset)
    return trials, None


def _scan(field, columns, size, mode, trials, seed, betas=None):
    """Scan size-subsets of columns for independence in one mode.

    Exhaustive mode walks every subset in lexicographic order; sampled mode
    checks `trials` seeded subsets, at most SUBSET_BUDGET of them; auto mode
    is exhaustive when a complete scan fits SUBSET_BUDGET. Returns (mode,
    checked, failure, bins): the mode that ran, and with betas, bins counts
    the y-pattern of every subset confirmed independent, otherwise None.
    """
    if mode == "auto":
        cost = exhaustive_cost(len(columns), size)
        if betas is not None:  # one on_leaf call per subset
            cost += comb(len(columns), size)
        mode = "exhaustive" if cost <= SUBSET_BUDGET else "sampled"
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and trials > SUBSET_BUDGET:
        raise BudgetExceededError(
            f"{trials} sampled subsets exceed the {SUBSET_BUDGET} rank-check budget"
        )
    if size == 0:
        return mode, 0, None, None
    bins, on_leaf = _pattern_bins(betas)
    if mode == "exhaustive":
        checked, failure = _scan_exhaustive(field, columns, size, on_leaf=on_leaf)
    else:
        checked, failure = _scan_sampled(field, columns, size, trials, seed, on_leaf)
    return mode, checked, failure, bins


def verify_distance_at_least(
    field: Field,
    h_rows: list[list[int]],
    w: int,
    mode: str = "exhaustive",
    trials: int = 100_000,
    seed: int = 0,
) -> VerificationReport:
    """Certify d >= w by checking (w-1)-subsets of parity columns for
    independence: exhaustively in lexicographic order, or on seeded samples.

    The scan stops at the first dependent subset, so on a failing report
    trials counts only the subsets checked up to and including the witness,
    not every subset there is. A scan that would pass SUBSET_BUDGET raises
    BudgetExceededError instead of reporting.
    """
    t0 = time.perf_counter()
    n = len(h_rows[0])
    if not 1 <= w <= len(h_rows) + 1:
        raise ValueError(f"w must lie in [1, n-k+1] = [1, {len(h_rows) + 1}]")
    size = w - 1
    claim = f"distance>={w}"
    mode, checked, failure, _ = _scan(field, transpose(h_rows), size, mode, trials, seed)
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
) -> VerificationReport:
    """Exhaustive search for a minimum-weight codeword of weight <= w_cap.

    Scans w-subsets of parity columns for w = 1..w_cap; the first dependent
    subset found (smallest w, then lexicographic) supports a codeword of
    exactly that weight, recovered from the one-dimensional nullspace of the
    subset columns. A report with witness None certifies d > w_cap. Each
    weight's scan is bounded by SUBSET_BUDGET like any exhaustive scan.
    """
    t0 = time.perf_counter()
    n = len(h_rows[0])
    columns = transpose(h_rows)
    checked_total = 0
    witness = None
    details = {"weight_cap": w_cap}
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
            break
    else:
        details["conclusion"] = f"no codeword of weight <= {w_cap}"
    return VerificationReport(
        claim="min-weight-search",
        mode="exhaustive",
        trials=checked_total,
        result=True,
        witness=witness,
        seed=None,
        millis=(time.perf_counter() - t0) * 1000,
        details=details,
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
    mode, checked, failure, bins = _scan(field, columns, 4, mode, trials, seed, betas)
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
