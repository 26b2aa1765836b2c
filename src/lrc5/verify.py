"""Machine verification of the claimed code properties on built instances.

Distance and constraint-matrix checks share one subset-scanning engine that
walks w-subsets of a column family in lexicographic order, carrying a
partial echelon basis so shared prefixes are reduced once. Each column is
reduced by linalg.reduce_row, the routine rank and rref also run on. The
last level is decided by hashing: against the basis of a (w-2)-prefix,
columns j and l complete a dependent subset exactly when l's normalized
residual is zero or equals j's, because the residual map is linear with the
prefix span as its kernel, wherever the basis pivots sit. Each prefix
column pivots on its sparsest coordinate, so a later column that is zero
at every pivot keeps one residual, its own normalized form, for the whole
scan. A prefix thus costs at most one reduction per later column, not one
per leaf, and on a sparse family such as H one per column it touches: the
GF(13) r=5 d>=4 certificate makes 1,272 of the 10,437 it is charged.
Every mode and budget rule is decided in _mode, against SUBSET_BUDGET,
before the work it bounds, columns included, and a subset larger than the
column family is refused with ValueError. An exhaustive scan whose charge,
the reductions a complete run makes at most (exhaustive_cost), passes the
budget raises BudgetExceededError before its first one; sampled scans
refuse more trials than the budget, and fewer than 1 with ValueError. A
binned (lemma) scan bins the lexicographic prefix its scan confirmed, one
count per subset, and is refused before binning any when those counts and
the charge together pass. Mode "auto" runs exhaustive
exactly when a complete scan fits with every subset binned. Both modes bin
alike: seven integer counts indexed by a 4-subset's pair code, its number
of index pairs with equal labels (y-coordinates in the lemma), which
_PAIR_PATTERNS names.

A sampled scan is one loop that draws, decides and bins. Both suites
label their indices, by grid row in the lemma and by cell in the distance
suite, and decide each subset without rank: only a two-pairs subset can
be dependent, and it is exactly when its two pairs' keys (x1 + x2,
x1*x2*y) agree (README, "The distance claim, measured", has the proof).
So their sampled subsets, trials, witnesses and bins are those of column
reductions, yet no column is built unless a scan is exhaustive.
verify_distance_at_least, which takes any dual, samples by rank.

Every check returns a VerificationReport, and _report is the one place one
is made, so every check follows the same rules: millis is the wall time
from the start of the check, a seed is kept only on a sampled run, and a
claim passes exactly when it has no witness, except min-weight-search,
which passes with the codeword it found. A failing report always carries a
witness concrete enough to replay by hand (a column subset, a point subset,
or a repaired-vs-expected symbol). distance_reports is the whole distance
suite of the CLI: the d>=5 scan of the sparse dual and, when that ran
exhaustively and weights 1 to 5 fit SUBSET_BUDGET, the minimum-weight
search with the distance it found.
"""

import time
from dataclasses import asdict, dataclass, field as dc_field
from itertools import combinations, compress, islice
from math import comb
from operator import itemgetter

from .codec import local_repair
# encode is unused here but stays bound: the benchmark's tracing rebinds it
from .codec import encode
from .construct import Code, CodeParams, EvaluationDomain
from .errors import BudgetExceededError, ConditionViolatedError, NotDistinctError
from .field import Field
from .linalg import nullspace, reduce_row, transpose
from .rng import LANES, SplitMix64

#: most rank checks one verify call may make: reductions in an exhaustive
#: scan, trials in a sampled one
SUBSET_BUDGET = 10_000_000


def exhaustive_cost(n: int, size: int) -> int:
    """The charge of a complete exhaustive scan of size-subsets of n
    columns, in column reductions: one per prefix at each level above the
    last two, and one per later column at each (size-2)-prefix. It is an
    upper bound, which a family with no zero entry reaches exactly; on a
    sparse family _scan_exhaustive reduces only the columns a prefix
    touches."""
    if size < 2:
        return 0
    above = sum(comb(n - size + d + 1, d + 1) for d in range(size - 2))
    return above + comb(n, size - 1) - (comb(n - 2, size - 3) if size > 2 else 0)


@dataclass
class VerificationReport:
    """Outcome of one machine check.

    millis is wall time and therefore volatile; to_json_dict writes it as
    null, so artifacts are byte-identical across runs.
    """

    claim: str
    mode: str
    trials: int
    result: bool
    witness: dict | None
    seed: int | None
    millis: float
    details: dict = dc_field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return asdict(self) | {"millis": None}

    def text_line(self) -> str:
        status = "pass" if self.result else "FAIL"
        out = f"{status}  {self.claim}  mode={self.mode} trials={self.trials}"
        if self.seed is not None:
            out += f" seed={self.seed}"
        if self.witness is not None:
            out += f" witness={self.witness}"
        return out


def _report(t0, claim, mode, trials, witness=None, seed=None, **details):
    """The report of a check started at t0, under the rules of the module
    docstring."""
    return VerificationReport(
        claim=claim,
        mode=mode,
        trials=trials,
        result=witness is None or claim == "min-weight-search",
        witness=witness,
        seed=seed if mode == "sampled" else None,
        millis=(time.perf_counter() - t0) * 1000,
        details=details,
    )


def _scan_exhaustive(field, columns, size):
    """Check every size-subset of columns for independence.

    Returns (checked, failure): failure is the lexicographically first
    dependent subset, completed with the smallest available indices when the
    dependency appears before the subset is full. checked counts subsets
    confirmed independent, plus one for the failure; those confirmed are
    the first ones in lexicographic order.

    The last two levels are not walked leaf by leaf. Against the basis of
    a (size-2)-prefix each later column is keyed by its normalized
    residual, and two columns extend the prefix to a dependent set iff
    their residuals are parallel (equal keys) or one is zero. Each prefix
    column pivots on its sparsest nonzero coordinate, the one the fewest
    columns of the family are nonzero at. A later column that is zero at
    every pivot is reduced by no step, so its key is the one it has against
    no basis, reduced once per scan; only the columns a prefix touches,
    nonzero at some pivot, are reduced against it. Those keys are indexed,
    with the zero columns and the keys two columns share, so the first
    dependent pair comes from the touched columns and the keys they meet,
    with no walk over the rest.

    exhaustive_cost(n, size) is the charge: each prefix reduces each later
    column at most once, and a complete scan of a family with no zero entry
    makes exactly that many reductions. _scan sets the budget on it
    beforehand.
    """
    n = len(columns)
    if size == 1:
        for idx in range(n):
            if not any(columns[idx]):
                return idx + 1, (idx,)
        return n, None
    checked = 0
    supports = {}  # coordinate: the columns nonzero at it, built on first use
    unkeyed = set(range(size - 2, n))  # the columns a last level meets, not yet keyed
    keys = {}  # column: its normalized residual against no basis
    index = {}  # key: its columns (None: the zero columns)
    shared = set()  # the keys of two or more columns

    def weight(c):
        if c not in supports:
            supports[c] = set(compress(range(n), map(itemgetter(c), columns)))
        return len(supports[c])

    def join(basis, ext):
        # rescale the residual to pivot on its sparsest coordinate: it is
        # zero at the basis pivots, so the basis stays echelon
        v = ext[1]
        piv = min((c for c, x in enumerate(v) if x), key=weight)
        if v[piv] != 1:
            v = field.scale(field.inv(v[piv]), v)
        return basis + [(piv, v)]

    def key_of(ext):
        return None if ext is None else tuple(ext[1])

    def last_two(start, stop, basis, chosen):
        # j fails with partner l, the first l > j whose residual is zero or
        # equal to j's (reduce_row scales pivots to 1, so parallel residuals
        # are equal tuples); a zero residual at j fails at once, completed as
        # (j, j+1). The first j < stop that fails is the result.
        nonlocal checked
        touched = set().union(*(supports[piv] for piv, _ in basis))
        for i in [i for i in unkeyed if i >= start and i not in touched]:
            unkeyed.remove(i)
            keys[i] = key = key_of(reduce_row(field, [], columns[i]))
            index.setdefault(key, []).append(i)
            if key is not None and len(index[key]) == 2:
                shared.add(key)
        reduced = {i: key_of(reduce_row(field, basis, columns[i])) for i in touched if i >= start}

        def untouched(key):  # the columns from start on that keep this key
            return [i for i in index.get(key, ()) if i >= start and i not in reduced]

        zeros = untouched(None)
        groups = {}  # key: the columns from start on with that residual
        for i, key in reduced.items():
            if key is None:
                zeros.append(i)
            else:
                groups.setdefault(key, []).append(i)
        for key, members in groups.items():
            members += untouched(key)
        for key in shared:
            if key not in groups:
                groups[key] = untouched(key)
        # start fails if a zero residual lies at or after it; else the first
        # j to fail is the first of two columns with equal keys
        j = min([start] * bool(zeros) + [min(m) for m in groups.values() if len(m) > 1], default=n)
        j_end = min(j, stop)
        # leaves (j, l) for j in [start, j_end), l in (j, n) all pass
        checked += comb(n - start, 2) - comb(n - j_end, 2)
        if j >= stop:
            return None
        key = reduced[j] if j in reduced else keys[j]
        partner = j + 1 if key is None else min(i for i in zeros + groups.get(key, []) if i > j)
        checked += partner - j
        return (*chosen, j, partner)

    def rec(start, stop, basis, chosen):
        nonlocal checked
        depth = len(chosen)
        if depth == size - 2:
            return last_two(start, stop, basis, chosen)
        for idx in range(start, stop):
            ext = reduce_row(field, basis, columns[idx])
            if ext is None:
                checked += 1
                need = size - depth - 1
                return tuple(chosen) + (idx,) + tuple(range(idx + 1, idx + 1 + need))
            found = rec(idx + 1, n - (size - depth - 2), join(basis, ext), chosen + [idx])
            if found is not None:
                return found
        return None

    failure = rec(0, n - size + 1, [], [])
    # rec refers to itself, so the scan's indexes would otherwise outlive it
    # until a cyclic collection
    del rec
    return checked, failure


#: y-pattern of a 4-subset by its pair code, the number of equal
#: y-coordinate pairs; the scans count into a list indexed by that code
_PAIR_PATTERNS = {
    0: "all-distinct", 1: "one-pair", 2: "two-pairs", 3: "three-equal", 6: "all-equal",
}


def _bin_pairs(counts, betas, subsets):
    """Count each 4-subset of subsets into counts at its pair code."""
    for i, j, k, l in subsets:
        a, b, c, d = betas[i], betas[j], betas[k], betas[l]
        counts[(a == b) + (a == c) + (a == d) + (b == c) + (b == d) + (c == d)] += 1


def _scan_sampled(n, size, trials, seed, dependent, labels=None):
    """Check `trials` seeded uniform size-subsets of n columns; first
    failure wins. Returns (checked, failure, counts): with labels, counts
    holds the pair codes of the subsets confirmed independent.

    It reads indices from a buffer of SplitMix64(seed).below(n, LANES)
    blocks, the accepted draws in stream order, and takes the next size of
    them; on a repeat it adds one index at a time until size are distinct.
    Each word sample_sorted takes adds at most one index, so the subsets
    are those successive sample_sorted(n, size) calls return, unsorted.
    With labels (the row or cell of each column), a subset whose pair code
    is not 2 (two-pairs) is confirmed by that code alone; without them
    every subset is treated as two-pairs. dependent(subset) decides every
    other subset and sorts it in place, so a witness is ascending. size
    must not exceed n, or the draw would never find size distinct indices.

    With labels, the loop walks the buffer four draws at a time and reads
    each group's pair code first. Code 0 means four distinct labels, so
    four distinct indices: only a group with a nonzero code is checked for
    a repeat, and only a group that repeats an index, or that the buffer's
    end splits, is drawn one subset at a time as above.
    """
    draw = SplitMix64(seed).below
    counts = [0] * 7
    buf, pos, t = [], 0, 0
    while t < trials:
        if labels is not None:
            t0 = t
            it = iter(buf[pos:pos + 4 * min(trials - t, (len(buf) - pos) // 4)])
            for i, j, k, l in zip(it, it, it, it):
                a, b, c, d = labels[i], labels[j], labels[k], labels[l]
                code = (a == b) + (a == c) + (a == d) + (b == c) + (b == d) + (c == d)
                if code and (i == j or i == k or i == l or j == k or j == l or k == l):
                    break
                if code == 2:
                    subset = [i, j, k, l]
                    if dependent(subset):
                        return t + 1, tuple(subset), counts
                counts[code] += 1
                t += 1
            pos += 4 * (t - t0)
            if t == trials:
                break
        while len(buf) - pos < size:
            buf, pos = buf[pos:] + draw(n, LANES), 0
        subset = buf[pos:pos + size]
        pos += size
        if len(set(subset)) < size:
            subset = list(dict.fromkeys(subset))
            while len(subset) < size:
                if pos == len(buf):
                    buf, pos = draw(n, LANES), 0
                if buf[pos] not in subset:
                    subset.append(buf[pos])
                pos += 1
        code = 2  # without labels no pair code confirms a subset
        if labels is not None:  # as _bin_pairs bins, without a call per subset
            i, j, k, l = subset
            a, b, c, d = labels[i], labels[j], labels[k], labels[l]
            code = (a == b) + (a == c) + (a == d) + (b == c) + (b == d) + (c == d)
        if code == 2 and dependent(subset):
            return t + 1, tuple(subset), counts
        counts[code] += 1
        t += 1
    return trials, None, counts


def _rank_test(field, columns):
    """dependent(subset) by column reduction: the subset sorted in place,
    and whether its columns are dependent."""

    def dependent(subset):
        subset.sort()
        basis = []
        for idx in subset:
            ext = reduce_row(field, basis, columns[idx])
            if ext is None:
                return True
            basis.append(ext)
        return False

    return dependent


def _key_test(field, points, labels):
    """dependent(subset) for a two-pairs 4-subset of the grid points
    (x, y), the points of a pair sharing a label: sorted in place, each
    index paired with the one that shares its label, whether the pairs'
    keys (x1 + x2, x1*x2*y) agree. It keeps x and log(x*y) per index."""
    add, log, qm1 = field.add, field.log, field.q - 1
    xs = [x for x, _ in points]
    logs = [(log[x] + log[y]) % qm1 for x, y in points]

    def key(i, j):
        return add(xs[i], xs[j]), (log[xs[i]] + logs[j]) % qm1

    def dependent(subset):
        subset.sort()
        i, j, k, l = subset
        if labels[i] == labels[j]:
            return key(i, j) == key(k, l)
        if labels[i] == labels[k]:
            return key(i, k) == key(j, l)
        return key(i, l) == key(j, k)

    return dependent


def _mode(n, size, mode, trials, binned=False):
    """The mode a scan of size-subsets of n columns runs in: auto resolved,
    and every refusal of the module docstring raised before any work.
    binned counts one bin per subset into what auto admits."""
    if size > n:
        raise ValueError(f"a scan of {size}-subsets needs at least {size} columns, got {n}")
    cost = exhaustive_cost(n, size)
    if mode == "auto":
        most = cost + (comb(n, size) if binned else 0)
        mode = "exhaustive" if most <= SUBSET_BUDGET else "sampled"
    elif mode == "exhaustive" and cost > SUBSET_BUDGET:
        raise BudgetExceededError(
            f"a complete exhaustive scan makes {cost} reductions, "
            f"past the {SUBSET_BUDGET} reduction budget"
        )
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and trials > SUBSET_BUDGET:
        raise BudgetExceededError(
            f"{trials} sampled subsets exceed the {SUBSET_BUDGET} rank-check budget"
        )
    if mode == "sampled" and trials < 1:
        raise ValueError(f"a sampled scan needs at least 1 trial, got {trials}")
    return mode


def _columns(h_rows: list[list[int]]) -> list[list[int]]:
    """The columns of the dual h_rows, which must have a row to have any."""
    if not h_rows:
        raise ValueError("the dual h_rows is empty: it has no columns to scan")
    return transpose(h_rows)


def verify_distance_at_least(
    field: Field,
    h_rows: list[list[int]],
    w: int,
    mode: str = "exhaustive",
    trials: int = 100_000,
    seed: int = 0,
) -> VerificationReport:
    """Certify d >= w by checking (w-1)-subsets of the columns of h_rows for
    independence: exhaustively in lexicographic order, or on seeded samples.
    h_rows may be any basis of the dual, such as H: row operations keep
    every linear dependence among columns.

    The scan stops at the first dependent subset, so on a failing report
    trials counts only the subsets checked up to and including the witness,
    not every subset there is. An exhaustive scan whose complete run would
    pass SUBSET_BUDGET raises BudgetExceededError before it starts, even
    where a witness would come early; so does a sampled one of more trials.
    """
    return _distance_at_least(field, _columns(h_rows), w, mode, trials, seed)


def _distance_at_least(field, columns, w, mode, trials, seed) -> VerificationReport:
    t0 = time.perf_counter()
    n = len(columns)
    cap = (min(len(columns[0]), n) if columns else 0) + 1
    if not 1 <= w <= cap:
        raise ValueError(f"w must lie in [1, min(n-k, n)+1] = [1, {cap}]")
    size = w - 1
    mode = _mode(n, size, mode, trials)
    if size == 0:
        checked, failure = 0, None
    elif mode == "sampled":
        checked, failure, _ = _scan_sampled(n, size, trials, seed, _rank_test(field, columns))
    else:
        checked, failure = _scan_exhaustive(field, columns, size)
    return _distance_report(t0, w, mode, checked, failure, seed, n)


def _distance_report(t0, w, mode, checked, failure, seed, n) -> VerificationReport:
    witness = None if failure is None else {"columns": [c + 1 for c in failure]}
    return _report(t0, f"distance>={w}", mode, checked, witness, seed,
                   subset_size=w - 1, columns=n)


def find_min_weight_codeword(
    field: Field,
    h_rows: list[list[int]],
    w_cap: int,
) -> VerificationReport:
    """Exhaustive search for a minimum-weight codeword of weight <= w_cap.

    Scans w-subsets of the columns of h_rows, any basis of the dual, for
    w = 1..w_cap; the first dependent subset found (smallest w, then
    lexicographic) supports a codeword of exactly that weight, recovered
    from the one-dimensional nullspace of the subset columns, which every
    basis of the dual gives alike. A report with witness None certifies
    d > w_cap; a w_cap below 1 would certify nothing and raises ValueError.
    Like any exhaustive scan, a weight whose complete scan would pass
    SUBSET_BUDGET is refused before it starts, even if its witness is early.
    """
    return _min_weight(field, _columns(h_rows), w_cap)


def _min_weight(field, columns, w_cap) -> VerificationReport:
    if w_cap < 1:
        raise ValueError(f"a minimum-weight search needs a weight cap of at least 1, got {w_cap}")
    t0 = time.perf_counter()
    n = len(columns)
    checked_total = 0
    witness = None
    details = {"weight_cap": w_cap}
    for w in range(1, min(w_cap, n) + 1):  # no subset is larger than n
        _mode(n, w, "exhaustive", 0)  # refuses a weight past the budget
        checked, failure = _scan_exhaustive(field, columns, w)
        checked_total += checked
        if failure is not None:
            ns = nullspace(field, transpose([columns[c] for c in failure]))
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
    return _report(t0, "min-weight-search", "exhaustive", checked_total, witness, **details)


def _dual_columns(domain: EvaluationDomain) -> list[list[int]]:
    """The columns of the local rows, in cell order, and dense_dual: column
    p is the local parity's entry at its cell index, zero at the other
    cells, then the three dense_dual entries at p."""
    local, size, zeros = domain.local_parity, domain.cell_size, [0] * len(domain.cells)
    columns = [zeros + list(dense) for dense in zip(*domain.dense_dual)]
    for p, column in enumerate(columns):
        column[p // size] = local[p % size]
    return columns


def _cell_keys(domain: EvaluationDomain) -> tuple:
    """The key test of the dual's columns and their labels, the cells:
    position t*(q-1) + u is the point (g^x_logs[u], g^t)."""
    field = domain.field
    qm1, exp = field.q - 1, field.exp
    points = [(exp[lx], exp[t]) for t in range(qm1) for lx in domain.x_logs]
    labels = [p // domain.cell_size for p in range(len(points))]
    return _key_test(field, points, labels), labels


def distance_reports(code: Code, mode: str, trials: int, seed: int) -> list[VerificationReport]:
    """The distance suite: the d>=5 scan over the sparse dual, then, when
    that scan ran exhaustively and a complete search of weights 1..5 fits
    SUBSET_BUDGET, the minimum-weight search, whose report also names the
    distance it found and whether that meets the Singleton-like bound. A
    sampled scan builds no column, deciding by cells and keys (_cell_keys)."""
    field, p = code.field, code.params
    if _mode(p.n, 4, mode, trials) == "sampled":
        t0 = time.perf_counter()
        checked, failure, _ = _scan_sampled(p.n, 4, trials, seed, *_cell_keys(code.domain))
        return [_distance_report(t0, 5, "sampled", checked, failure, seed, p.n)]
    columns = _dual_columns(code.domain)
    d5 = _distance_at_least(field, columns, 5, "exhaustive", trials, seed)
    if sum(exhaustive_cost(p.n, w) for w in range(1, 6)) > SUBSET_BUDGET:
        return [d5]
    mw = _min_weight(field, columns, 5)
    if mw.witness is not None:
        weight = mw.details["distance"] = mw.witness["weight"]
        mw.details["meets_singleton_like_bound"] = weight == singleton_like_bound(p.n, p.k, p.r)
    return [d5, mw]


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
    if not all(0 < a < field.q and 0 < b < field.q for a, b in points):
        raise ValueError(f"grid coordinates are field elements, in [1, {field.q - 1}]")
    cols = [_moment_column(field, a, b) for a, b in points]
    return [list(row) for row in zip(*cols)]


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
    ones before it, not every 4-subset of the grid. An exhaustive scan
    reduces the moment columns; a sampled one builds none and decides each
    two-pairs subset by its pair keys.
    """
    t0 = time.perf_counter()
    units = field.units()
    points = [(a, b) for a in units for b in units]
    n = len(points)
    mode = _mode(n, 4, mode, trials, binned=True)
    betas = [b for _, b in points]
    if mode == "sampled":
        checked, failure, counts = _scan_sampled(n, 4, trials, seed, _key_test(field, points, betas), betas)
    else:
        columns = [_moment_column(field, a, b) for a, b in points]
        checked, failure = _scan_exhaustive(field, columns, 4)
        confirmed, cost = checked - (failure is not None), exhaustive_cost(n, 4)
        if cost + confirmed > SUBSET_BUDGET:  # bins the confirmed prefix, one count each
            raise BudgetExceededError(
                f"an exhaustive scan of {cost} reductions that bins {confirmed} "
                f"subsets passes the {SUBSET_BUDGET} budget"
            )
        counts = [0] * 7
        _bin_pairs(counts, betas, islice(combinations(range(n), 4), confirmed))
    bins = dict(sorted((_PAIR_PATTERNS[code], c) for code, c in enumerate(counts) if c))
    witness = None if failure is None else {"points": [list(points[i]) for i in failure]}
    return _report(t0, "constraint-matrix-rank", mode, checked, witness, seed,
                   case_counts=bins)


def verify_locality(code: Code, trials: int = 25, seed: int = 0) -> VerificationReport:
    """Check that every position is locally repairable from its cell.

    Algebraic part: each cell's local parity, the closed form (1, h, ...,
    h^r), has no zero entry (a zero at a position would leave it
    unprotected). Behavioral part, which certifies that closed form against
    real codewords: seeded random codewords, erase each position in turn,
    repair it from the cell survivors, and compare. Fewer than 1 trial is
    refused with ValueError, as a sampled scan refuses it.
    """
    if trials < 1:
        raise ValueError(f"locality needs at least 1 trial, got {trials}")
    t0 = time.perf_counter()
    field = code.field
    witness = None
    v = code.local_parity(0)  # one vector serves every cell
    if any(x == 0 for x in v):
        witness = {"cell": 1, "vector": v, "reason": "zero dual entry"}
    if witness is None:
        rng = SplitMix64(seed)
        for _ in range(trials):
            msg = rng.below(field.q, code.k)
            cw = code.encode(msg)
            received: list[int | None] = list(cw)  # one working word: erase, repair, restore
            for pos in range(code.n):
                received[pos] = None
                got = local_repair(code, received, pos)
                received[pos] = cw[pos]
                if got != cw[pos]:
                    witness = {
                        "position": pos + 1,
                        "expected": cw[pos],
                        "repaired": got,
                    }
                    break
            if witness is not None:
                break
    return _report(t0, "locality", "sampled", trials, witness, seed,
                   positions=code.n, cells=code.n // code.domain.cell_size, reads_per_repair=code.r)


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


def bounds_reports(params: CodeParams) -> list[VerificationReport]:
    """The singleton-like-bound, optimality-equivalence and length-regime
    reports, computed from the parameters alone."""
    t0 = time.perf_counter()
    bound = singleton_like_bound(params.n, params.k, params.r)
    singleton = _report(t0, "singleton-like-bound", "exhaustive", 0, value=bound,
                        d_target=params.d_target, meets_bound=bound == params.d_target)
    t0 = time.perf_counter()
    try:
        holds = optimality_equivalence_holds(params, params.d_target)
        witness = None if holds else {"n_minus_k": params.n - params.k}
        details = {"status": "holds" if holds else "fails"}
    except ConditionViolatedError as e:
        witness, details = None, {"status": "inapplicable", "reason": str(e)}
    equivalence = _report(t0, "optimality-equivalence", "exhaustive", 0, witness, **details)
    return [singleton, equivalence, length_regime_report(params)]


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
    return _report(
        t0, "length-regime", "exhaustive", 0,
        block_count_inequality={"lhs": blocks, "rhs": rhs, "holds": blocks >= rhs},
        coset_count_condition={"value": cosets, "threshold": 3, "holds": cosets > 3},
    )
