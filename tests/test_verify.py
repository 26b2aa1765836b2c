"""Verification-layer tests.

The frozen dictionaries below are previously captured runs, cross-checked
against from-scratch reimplementations (see oracles.py): plain modular rank
confirms every witness, and the full-scan failure counts for these fields
are 4 (q=5), 54 (q=7), and 147 (q=8), all with the two-pairs y-pattern.
The construction targets distance 5 but tops out at 4, so the distance and
rank claims verify False here, with witnesses; that is the honest output.
"""

import gc
import random
import tracemalloc
from collections import Counter
from itertools import combinations, islice
from math import comb

import pytest

from lrc5.codec import local_repair
from lrc5.construct import Code
from lrc5.errors import (
    BudgetExceededError,
    ConditionViolatedError,
    NotDistinctError,
)
from lrc5.field import Field, field_of_order
from lrc5.linalg import rank, reduce_row, transpose
from lrc5.rng import LANES, SplitMix64
from lrc5.verify import (
    SUBSET_BUDGET,
    VerificationReport,
    _bin_pairs,
    _cell_keys,
    _distance_at_least,
    _dual_columns,
    _key_test,
    _moment_column,
    _rank_test,
    _scan_exhaustive,
    _scan_sampled,
    constraint_matrix,
    distance_reports,
    exhaustive_cost,
    find_min_weight_codeword,
    length_regime_report,
    optimality_equivalence_holds,
    singleton_like_bound,
    verify_constraint_matrix,
    verify_distance_at_least,
    verify_locality,
)

from .oracles import (
    constraint_matrix_rank,
    oracle_dual_rows,
    oracle_lemma_family,
    oracle_lemma_matrix,
    oracle_weight4_supports,
    prime_power,
    rank_mod,
    reference_scan_exhaustive,
    reference_scan_sampled,
)
from .test_construct import ADMISSIBLE_UP_TO_32


def plain(report: VerificationReport) -> dict:
    d = report.to_json_dict()
    d.pop("millis", None)
    return d


FROZEN_DIST5 = {
    (5, 3): {
        "claim": "distance>=5",
        "details": {"columns": 16, "subset_size": 4},
        "mode": "exhaustive",
        "result": False,
        "seed": None,
        "trials": 150,
        "witness": {"columns": [1, 3, 10, 12]},
    },
    (7, 5): {
        "claim": "distance>=5",
        "details": {"columns": 36, "subset_size": 4},
        "mode": "exhaustive",
        "result": False,
        "seed": None,
        "trials": 560,
        "witness": {"columns": [1, 2, 34, 36]},
    },
    (8, 6): {
        "claim": "distance>=5",
        "details": {"columns": 49, "subset_size": 4},
        "mode": "exhaustive",
        "result": False,
        "seed": None,
        "trials": 304,
        "witness": {"columns": [1, 2, 10, 13]},
    },
}

FROZEN_DIST4_TRIALS = {(5, 3): 560, (7, 5): 7140, (8, 6): 18424}

FROZEN_MINW = {
    (5, 3): {
        "support": [1, 3, 10, 12],
        "codeword": [4, 0, 4, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0],
        "trials": 846,
    },
    (7, 5): {
        "support": [1, 2, 34, 36],
        "codeword": [5, 3] + [0] * 31 + [5, 0, 1],
        "trials": 8366,
    },
    (8, 6): {
        "support": [1, 2, 10, 13],
        "codeword": [5, 7] + [0] * 7 + [3, 0, 0, 1] + [0] * 36,
        "trials": 19953,
    },
}

FROZEN_LEMMA = {
    (5, 3): {
        "trials": 390,
        "witness": {"points": [[1, 1], [2, 4], [3, 4], [4, 1]]},
        "case_counts": {
            "all-distinct": 55,
            "all-equal": 1,
            "one-pair": 246,
            "three-equal": 41,
            "two-pairs": 46,
        },
    },
    (7, 5): {
        "trials": 2783,
        "witness": {"points": [[1, 1], [2, 1], [4, 3], [6, 3]]},
        "case_counts": {
            "all-distinct": 910,
            "all-equal": 5,
            "one-pair": 1530,
            "three-equal": 174,
            "two-pairs": 163,
        },
    },
    (8, 6): {
        "trials": 6306,
        "witness": {"points": [[1, 1], [2, 1], [4, 2], [7, 2]]},
        "case_counts": {
            "all-distinct": 2540,
            "all-equal": 7,
            "one-pair": 3195,
            "three-equal": 291,
            "two-pairs": 272,
        },
    },
}

FROZEN_SAMPLED = {
    (11, 4, 0): {"trials": 31890, "columns": [27, 29, 41, 45]},
    (11, 4, 1): {"trials": 36527, "columns": [3, 4, 87, 90]},
    (13, 5, 0): {"trials": 70058, "columns": [19, 21, 64, 65]},
    (13, 5, 1): {"trials": 67043, "columns": [39, 42, 115, 118]},
}


def code_for(request, q, r):
    return request.getfixturevalue({5: "code53", 7: "code75", 8: "code86"}[q])


@pytest.mark.parametrize("q,r", [(5, 3), (7, 5), (8, 6)])
def test_distance_five_claim_fails_with_frozen_witness(q, r, request):
    code = code_for(request, q, r)
    rep = verify_distance_at_least(code.field, code.parity_check_matrix, 5)
    assert plain(rep) == FROZEN_DIST5[(q, r)]


@pytest.mark.parametrize("q,r", [(5, 3), (7, 5), (8, 6)])
def test_distance_four_holds_exhaustively(q, r, request):
    code = code_for(request, q, r)
    rep = verify_distance_at_least(code.field, code.parity_check_matrix, 4)
    assert rep.result is True
    assert rep.witness is None
    assert rep.trials == FROZEN_DIST4_TRIALS[(q, r)]


def test_distance_witness_is_a_real_dependency(code75):
    """Cross-check the frozen witness with plain modular arithmetic."""
    cols0 = [c - 1 for c in FROZEN_DIST5[(7, 5)]["witness"]["columns"]]
    h = code75.parity_check_matrix
    sub = [[row[c] for c in cols0] for row in h]
    assert rank_mod(sub, 7) == 3 < 4


@pytest.mark.parametrize("q,r", [(5, 3), (7, 5), (8, 6)])
def test_min_weight_search_finds_weight_four(q, r, request):
    code = code_for(request, q, r)
    rep = find_min_weight_codeword(code.field, code.parity_check_matrix, 5)
    frozen = FROZEN_MINW[(q, r)]
    assert rep.result is True
    assert rep.witness["weight"] == 4
    assert rep.witness["support"] == frozen["support"]
    assert rep.witness["codeword"] == frozen["codeword"]
    assert rep.trials == frozen["trials"]
    # the witness really is a codeword: zero syndrome
    cw = rep.witness["codeword"]
    for row in code.parity_check_matrix:
        assert code.field.dot(row, cw) == 0


def test_min_weight_search_none_found_on_toy_mds(f7):
    # Vandermonde parity check: any 3 columns independent, so d >= 4
    h = [[pow(x, e, 7) for x in range(1, 8)] for e in range(3)]
    rep = find_min_weight_codeword(f7, h, 3)
    assert rep.result is True
    assert rep.witness is None
    assert rep.trials == 7 + 21 + 35
    assert "no codeword" in rep.details["conclusion"]
    # a cap past n scans weights up to n only: no larger subset exists
    rep = find_min_weight_codeword(f7, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], 5)
    assert (rep.witness, rep.trials) == (None, 3 + 3 + 1)
    assert rep.details["conclusion"] == "no codeword of weight <= 5"


def test_min_weight_search_over_gf13_stops_at_its_witness(code135, monkeypatch):
    """Weights 1-3 are scanned in full and weight 4 stops at its witness,
    well within the budget. Each weight's scan is decided up front: on a
    budget one below the cost of a complete weight-3 scan, weights 1 and 2
    run in full and weight 3 is refused before its first reduction."""
    f, h = code135.field, code135.parity_check_matrix
    rep = find_min_weight_codeword(f, h, 5)
    assert rep.witness["weight"] == 4
    assert rep.witness["support"] == [1, 2, 106, 108]
    assert rep.trials == 507_056
    assert all(f.dot(row, rep.witness["codeword"]) == 0 for row in h)
    assert SUBSET_BUDGET == 10_000_000
    monkeypatch.setattr("lrc5.verify.SUBSET_BUDGET", exhaustive_cost(144, 3) - 1)
    calls = count_reductions(monkeypatch)
    with pytest.raises(BudgetExceededError, match="makes 10437 reductions, past the 10436 reduction budget"):
        find_min_weight_codeword(f, h, 5)
    assert len(calls) == exhaustive_cost(144, 1) + exhaustive_cost(144, 2) == 144


@pytest.mark.parametrize("w_cap", [0, -1])
def test_min_weight_search_refuses_a_cap_below_one(f7, w_cap):
    """A search of no weights would certify nothing, yet passed with
    trials 0."""
    h = [[pow(x, e, 7) for x in range(1, 8)] for e in range(3)]
    with pytest.raises(ValueError, match=f"at least 1, got {w_cap}"):
        find_min_weight_codeword(f7, h, w_cap)


def test_scans_stop_at_the_budget(monkeypatch):
    """GF(7) r=2 passes d>=5 after all 58,905 subsets and 7,700 reductions:
    a budget of 7,700 keeps the full report, one less stops the scan.
    Sampled scans count trials against the same budget."""
    code = Code.build(Field(7), 2)
    f, h = code.field, code.parity_check_matrix
    monkeypatch.setattr("lrc5.verify.SUBSET_BUDGET", 7_700)
    rep = verify_distance_at_least(f, h, 5)
    assert rep.result is True and rep.trials == 58_905
    assert verify_distance_at_least(f, h, 5, mode="sampled", trials=7_700).result
    monkeypatch.setattr("lrc5.verify.SUBSET_BUDGET", 7_699)
    with pytest.raises(BudgetExceededError, match="7699 reduction budget"):
        verify_distance_at_least(f, h, 5)
    with pytest.raises(BudgetExceededError, match="7700 sampled subsets"):
        verify_distance_at_least(f, h, 5, mode="sampled", trials=7_700)
    with pytest.raises(BudgetExceededError, match="7700 sampled subsets"):
        verify_constraint_matrix(f, mode="sampled", trials=7_700)


def test_distance_input_validation(code53):
    f, h = code53.field, code53.parity_check_matrix
    with pytest.raises(ValueError):
        verify_distance_at_least(f, h, 0)
    with pytest.raises(ValueError):
        verify_distance_at_least(f, h, 9)  # n-k+1 = 8 is the cap
    with pytest.raises(ValueError):
        verify_distance_at_least(f, h, 5, mode="guess")


def test_distance_w_is_capped_by_the_columns_too():
    """A dual with more rows than columns caps w at n+1: w - 1 > n columns
    leave no subset to scan, so the claim is refused rather than passed
    vacuously or left to math.comb."""
    f = Field(7)
    h = [[1, 1], [0, 0], [0, 0]]  # columns 1 and 2 are equal, so d = 2
    for rows, w in ((h, 4), (h + [[0, 0]], 5)):
        with pytest.raises(ValueError, match=r"w must lie in \[1, min\(n-k, n\)\+1\] = \[1, 3\]"):
            verify_distance_at_least(f, rows, w)
    rep = verify_distance_at_least(f, h, 3)
    assert rep.result is False and rep.witness == {"columns": [1, 2]}


def test_scans_refuse_an_empty_dual(f7):
    """A dual without rows has no columns to scan: both scans refuse it by
    name rather than fail on its missing first row."""
    with pytest.raises(ValueError, match="the dual h_rows is empty"):
        verify_distance_at_least(f7, [], 1)
    with pytest.raises(ValueError, match="the dual h_rows is empty"):
        find_min_weight_codeword(f7, [], 1)


def test_distance_w1_is_vacuous(code53):
    rep = verify_distance_at_least(code53.field, code53.parity_check_matrix, 1)
    assert rep.result is True and rep.trials == 0


def test_distance_w2_no_zero_columns(code53):
    rep = verify_distance_at_least(code53.field, code53.parity_check_matrix, 2)
    assert rep.result is True and rep.trials == 16


@pytest.mark.parametrize("q,r,seed", [(11, 4, 0), (11, 4, 1), (13, 5, 0), (13, 5, 1)])
def test_sampled_distance_scan_frozen_failures(q, r, seed, request):
    code = request.getfixturevalue({11: "code114", 13: "code135"}[q])
    rep = verify_distance_at_least(
        code.field, code.parity_check_matrix, 5, mode="sampled", trials=100_000, seed=seed
    )
    frozen = FROZEN_SAMPLED[(q, r, seed)]
    assert rep.result is False
    assert rep.mode == "sampled" and rep.seed == seed
    assert rep.trials == frozen["trials"]
    assert rep.witness == {"columns": frozen["columns"]}


def test_sampled_scan_is_reproducible(code114):
    f, h = code114.field, code114.parity_check_matrix
    a = verify_distance_at_least(f, h, 5, mode="sampled", trials=50_000, seed=9)
    b = verify_distance_at_least(f, h, 5, mode="sampled", trials=50_000, seed=9)
    assert plain(a) == plain(b)


@pytest.mark.parametrize("q,r", [(5, 3), (7, 5), (8, 6)])
def test_constraint_matrix_scan_frozen(q, r, request):
    code = code_for(request, q, r)
    rep = verify_constraint_matrix(code.field)
    frozen = FROZEN_LEMMA[(q, r)]
    assert rep.result is False
    assert rep.trials == frozen["trials"]
    assert rep.witness == frozen["witness"]
    assert rep.details["case_counts"] == frozen["case_counts"]


def test_constraint_matrix_witness_rank_cross_checked(f7):
    pts = [(1, 1), (2, 1), (4, 3), (6, 3)]
    assert constraint_matrix_rank(f7, pts) == 3
    assert rank_mod(oracle_lemma_matrix(pts, 7), 7) == 3
    # and the matrices agree entry by entry
    assert constraint_matrix(f7, pts) == oracle_lemma_matrix(pts, 7)


def test_constraint_matrix_generic_subset_has_rank_four(f7):
    pts = [(1, 1), (3, 2), (2, 6), (5, 4)]
    assert constraint_matrix_rank(f7, pts) == 4
    assert rank_mod(oracle_lemma_matrix(pts, 7), 7) == 4


def test_constraint_matrix_requires_four_distinct_points(f7):
    with pytest.raises(NotDistinctError):
        constraint_matrix(f7, [(1, 1), (1, 1), (2, 3), (4, 5)])
    with pytest.raises(NotDistinctError):
        constraint_matrix(f7, [(1, 1), (2, 3), (4, 5)])
    with pytest.raises(ValueError, match="nonzero coordinates"):
        constraint_matrix(f7, [(0, 1), (1, 1), (2, 3), (4, 5)])


@pytest.mark.parametrize("bad", [(-1, 1), (7, 1), (1, 9), (2, -6)])
def test_constraint_matrix_refuses_coordinates_outside_the_field(f7, bad):
    """-1 wrapped to 6 in the log table, so (-1, 1) passed the
    distinct-points check as a second spelling of (6, 1); 7 raised
    IndexError."""
    with pytest.raises(ValueError, match=r"field elements, in \[1, 6\]"):
        constraint_matrix(f7, [bad, (1, 1), (2, 1), (3, 1)])


def test_constraint_matrix_sampled_frozen(f13):
    rep = verify_constraint_matrix(f13, mode="sampled", trials=10_000, seed=0)
    assert rep.result is False
    assert rep.trials == 3318
    assert rep.witness == {"points": [[4, 2], [5, 8], [10, 8], [11, 2]]}
    assert rep.details["case_counts"] == {
        "all-distinct": 1978,
        "all-equal": 1,
        "one-pair": 1204,
        "three-equal": 80,
        "two-pairs": 54,
    }


FIELDS = {5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2), 13: (13, 1),
          16: (2, 4), 17: (17, 1), 19: (19, 1), 27: (3, 3)}


def moment_columns(f):
    """The lemma scan's grid points (a, b), a major, their moment columns
    and their y-coordinates."""
    units = f.units()
    points = [(a, b) for a in units for b in units]
    return points, [_moment_column(f, a, b) for a, b in points], [b for _, b in points]


def _pair_code(betas, quad):
    counts = [0] * 7
    _bin_pairs(counts, betas, [quad])
    return counts.index(1)


@pytest.mark.parametrize("q", [4, 5, 7, 8])
def test_every_quadruple_outside_two_pairs_has_rank_4(q):
    """The pattern rule the sampled lemma scan confirms by, on every
    4-subset of the grid, C(q-1, 2)^3 of which are two-pairs; on those the
    pair key it decides them by drops rank exactly when the rank does."""
    f = field_of_order(q)
    points, columns, betas = moment_columns(f)
    dependent = _key_test(f, points, betas)
    two_pairs = 0
    for quad in combinations(range(len(columns)), 4):
        full = rank(f, [columns[i] for i in quad]) == 4
        if _pair_code(betas, quad) != 2:
            assert full, quad
        else:
            assert dependent(list(quad)) != full, quad
            two_pairs += 1
    assert two_pairs == comb(q - 1, 2) ** 3


def key_decides(dependent, labels, quad):
    """Whether a sampled scan finds quad dependent: its labels make it
    two-pairs and its pair keys agree."""
    return _pair_code(labels, quad) == 2 and dependent(list(quad))


@pytest.mark.parametrize("q", [9, 13, 16, 27])
def test_the_lemma_key_test_is_the_rank_test_on_seeded_two_pairs(q):
    """2,000 seeded two-pairs quadruples, two points on each of two rows,
    and about 1,000 members of the oracle's rank-3 family, evenly spaced,
    which the key must find."""
    f = Field(*FIELDS[q])
    points, _, betas = moment_columns(f)
    dependent = _key_test(f, points, betas)
    index = {pt: i for i, pt in enumerate(points)}
    units = list(f.units())
    rng = random.Random(q)
    family = oracle_lemma_family(q)
    family = family[::len(family) // 1_000 + 1]
    quads = [tuple((x, y) for y in rng.sample(units, 2) for x in rng.sample(units, 2))
             for _ in range(2_000)]
    found = 0
    for pts in family + quads:
        got = dependent([index[pt] for pt in pts])
        assert got == (rank(f, constraint_matrix(f, list(pts))) < 4), pts
        found += got
    assert found >= len(family) > 0


@pytest.mark.parametrize("q,r", [(q, r) for q, r in ADMISSIBLE_UP_TO_32 if q <= 8])
def test_the_distance_key_test_is_the_rank_test_on_every_quadruple(q, r):
    """On every 4-subset of the sparse dual's columns, the cells and pair
    keys find exactly the subsets reduce_row finds dependent, which are
    the oracle's weight-4 supports."""
    code = Code.build(Field(*prime_power(q)), r)
    dependent, labels = _cell_keys(code.domain)
    by_rank = _rank_test(code.field, _dual_columns(code.domain))
    quads = list(combinations(range(code.n), 4))
    found = [quad for quad in quads if key_decides(dependent, labels, quad)]
    assert found == [quad for quad in quads if by_rank(list(quad))]
    assert found == oracle_weight4_supports(q, r)


@pytest.mark.parametrize("q", [8, 9, 13, 16, 27])
@pytest.mark.parametrize("groups", [(1, 1, 1, 1), (2, 1, 1), (3, 1), (4,)])
def test_seeded_quadruples_of_each_pattern_outside_two_pairs_have_rank_4(q, groups):
    """5,000 seeded quadruples with len(groups) distinct y-coordinates, a
    group of points sharing each, drawn directly so that rare patterns
    (all-equal is 1 in 22,000 uniform quadruples at GF(27)) are covered."""
    f = Field(*FIELDS[q])
    units = list(f.units())
    rng = random.Random(q)
    codes = Counter()
    for _ in range(5_000):
        ys = rng.sample(units, len(groups))
        pts = [(x, y) for y, size in zip(ys, groups) for x in rng.sample(units, size)]
        assert rank(f, constraint_matrix(f, pts)) == 4, pts
        codes[_pair_code([y for _, y in pts], (0, 1, 2, 3))] += 1
    assert list(codes) == [{4: 0, 3: 1, 2: 3, 1: 6}[len(groups)]]


def reduce_only_lemma_scan(f, trials, seed):
    """The sampled lemma scan without the pair key: every subset's rank by
    reduction, y-patterns binned by their multiplicities."""
    points, columns, betas = moment_columns(f)
    rng = SplitMix64(seed)
    names = {(4,): "all-equal", (1, 3): "three-equal", (2, 2): "two-pairs", (1, 1, 2): "one-pair"}
    bins: Counter = Counter()
    for t in range(trials):
        subset = rng.sample_sorted(len(columns), 4)
        if rank(f, [columns[i] for i in subset]) < 4:
            return t + 1, {"points": [list(points[i]) for i in subset]}, bins
        counts = tuple(sorted(Counter(betas[i] for i in subset).values()))
        bins[names.get(counts, "all-distinct")] += 1
    return trials, None, bins


@pytest.mark.parametrize("q", [5, 7, 8, 9, 13, 16, 27])
def test_sampled_lemma_scan_equals_the_reduce_only_reference(q):
    f = Field(*FIELDS[q])
    for seed in range(6):
        rep = verify_constraint_matrix(f, mode="sampled", trials=1_500, seed=seed)
        trials, witness, bins = reduce_only_lemma_scan(f, 1_500, seed)
        assert (rep.trials, rep.witness, rep.result) == (trials, witness, witness is None)
        assert rep.details["case_counts"] == {k: bins[k] for k in sorted(bins)}


@pytest.mark.parametrize("n,size", [(n, size) for n in (4, 5, 6, 64, 144, 961)
                                    for size in sorted({1, 2, 4} | ({n} if n <= 6 else set()))])
def test_sampled_scan_draws_the_subsets_sample_sorted_draws(n, size):
    """The scan's block buffer yields, subset by subset, what successive
    sample_sorted calls on the seed return, across at least 3 refills of
    LANES words, repeats included."""
    trials = 3 * LANES // size + 2 if size < n else 3 * LANES
    for seed in (0, 7):
        drawn = []

        def recording(subset):
            drawn.append(sorted(subset))
            return False

        checked, failure, _ = _scan_sampled(n, size, trials, seed, recording)
        assert (checked, failure) == (trials, None)
        rng = SplitMix64(seed)
        assert drawn == [rng.sample_sorted(n, size) for _ in range(trials)]


#: the sampled d>=5 scan of the sparse dual with 2,000 trials, before its
#: loop drew from a block buffer: (q, r, seed) -> (trials, witness columns)
FROZEN_SAMPLED_2000 = {
    (7, 5, 0): (254, [25, 29, 32, 33]), (7, 5, 1): (2000, None), (7, 5, 2): (7, [1, 3, 10, 11]),
    (9, 3, 0): (2000, None), (9, 3, 1): (2000, None), (9, 3, 2): (2000, None),
    (13, 5, 0): (2000, None), (13, 5, 1): (2000, None), (13, 5, 2): (2000, None),
}


@pytest.mark.parametrize("q,r,seed", sorted(FROZEN_SAMPLED_2000))
def test_sampled_distance_scan_keeps_its_trials_and_witnesses(q, r, seed):
    code = Code.build(Field(*FIELDS[q]), r)
    rep = verify_distance_at_least(code.field, oracle_dual_rows(q, r), 5, "sampled", 2_000, seed)
    trials, columns = FROZEN_SAMPLED_2000[(q, r, seed)]
    assert (rep.trials, rep.witness) == (trials, columns and {"columns": columns})


@pytest.mark.parametrize("q,r", ADMISSIBLE_UP_TO_32)
def test_the_suite_scans_the_columns_of_the_oracle_dual(q, r):
    """The distance suite's columns, built from the local parity and
    dense_dual, are those of the independent dual rows."""
    domain = Code.build(Field(*prime_power(q)), r).domain
    assert _dual_columns(domain) == transpose(oracle_dual_rows(q, r))


def test_the_sampled_distance_suite_holds_the_dual_once():
    """At GF(64) r=6 the suite's columns are about 18 MB; with the dual's
    rows held beside them it peaked at about 37 MB."""
    code = Code.build(Field(2, 6), 6)
    tracemalloc.start()
    try:
        reports = distance_reports(code, "sampled", 100, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25_000_000
    assert [(rep.claim, rep.result, rep.trials) for rep in reports] == [("distance>=5", True, 100)]


@pytest.mark.parametrize("mode", ["exhaustive", "sampled", "auto"])
def test_lemma_scan_refuses_a_grid_of_fewer_than_four_points(mode):
    """GF(2) has one grid point, too few for a 4-subset; GF(3) has four,
    exactly one subset, which passes in every mode."""
    with pytest.raises(ValueError, match="4-subsets needs at least 4 columns, got 1"):
        verify_constraint_matrix(Field(2), mode, 50, 0)
    rep = verify_constraint_matrix(Field(3), mode, 50, 0)
    assert (rep.result, rep.witness) == (True, None)
    assert rep.details["case_counts"] == {"two-pairs": rep.trials}
    assert rep.trials == (50 if mode == "sampled" else 1)


@pytest.mark.parametrize(
    "q,trials,witness,counts",
    [
        (8, 1_056, [[1, 4], [2, 6], [4, 6], [7, 4]], (452, 2, 509, 45, 47)),
        (9, 1_205, [[3, 5], [4, 3], [7, 3], [8, 5]], (521, 2, 567, 59, 55)),
        (16, 20_000, None, (13_266, 4, 6_270, 261, 199)),
        (17, 40, [[3, 5], [5, 1], [14, 1], [16, 5]], (29, 0, 9, 1, 0)),
    ],
)
def test_constraint_matrix_sampled_frozen_on_every_field_kind(q, trials, witness, counts):
    rep = verify_constraint_matrix(Field(*FIELDS[q]), mode="sampled", trials=20_000, seed=1)
    assert (rep.trials, rep.result) == (trials, witness is None)
    assert rep.witness == (None if witness is None else {"points": witness})
    names = ("all-distinct", "all-equal", "one-pair", "three-equal", "two-pairs")
    assert rep.details["case_counts"] == {k: c for k, c in zip(names, counts) if c}


def test_locality_verifies_clean(code53, code75):
    for code, cells in ((code53, 4), (code75, 6)):
        rep = verify_locality(code, trials=25, seed=0)
        assert rep.result is True
        assert rep.witness is None
        assert rep.details == {
            "positions": code.n,
            "cells": cells,
            "reads_per_repair": code.r,
        }


def test_locality_catches_injected_zero_dual_entry(f5):
    from lrc5.construct import Code

    broken = Code.build(f5, 3)
    broken.local_parity = lambda ci: [0, 2, 4, 3]
    rep = verify_locality(broken, trials=5, seed=0)
    assert rep.result is False
    assert rep.witness["reason"] == "zero dual entry"


def test_locality_reports_a_wrong_repair_with_its_witness(code75, monkeypatch):
    """The behavioural check fails at the first position whose repair
    differs from the codeword symbol."""
    repair = local_repair
    monkeypatch.setattr("lrc5.verify.local_repair",
                        lambda code, word, pos: (repair(code, word, pos) + 1) % 7)
    rep = verify_locality(code75, trials=3, seed=0)
    assert rep.result is False
    assert set(rep.witness) == {"position", "expected", "repaired"}
    assert rep.witness["position"] == 1
    assert rep.witness["repaired"] == (rep.witness["expected"] + 1) % 7


def test_locality_restores_each_erased_symbol_before_the_next_repair(code75, monkeypatch):
    """One working word per codeword: every repair sees exactly one erasure,
    and a wrong repair past the first position is the one reported."""
    def repair(code, word, pos):
        assert [i for i, s in enumerate(word) if s is None] == [pos]
        return (local_repair(code, word, pos) + (pos == 10)) % 7

    monkeypatch.setattr("lrc5.verify.local_repair", repair)
    rep = verify_locality(code75, trials=3, seed=0)
    assert rep.result is False
    assert rep.witness["position"] == 11
    assert rep.witness["repaired"] == (rep.witness["expected"] + 1) % 7


@pytest.mark.parametrize("trials", [0, -3])
def test_sampled_checks_refuse_fewer_than_one_trial(code75, trials):
    """A sampled check of no subsets or codewords would pass having checked
    nothing, so it is refused; an exhaustive scan still ignores trials."""
    f, dual = code75.field, oracle_dual_rows(7, 5)
    with pytest.raises(ValueError, match="at least 1 trial"):
        verify_distance_at_least(f, dual, 5, "sampled", trials, 0)
    with pytest.raises(ValueError, match="at least 1 trial"):
        verify_constraint_matrix(f, "sampled", trials, 0)
    with pytest.raises(ValueError, match="at least 1 trial"):
        verify_locality(code75, trials, 0)
    rep = verify_distance_at_least(f, dual, 4, "exhaustive", trials, 0)
    assert rep.result is True and rep.trials > 0


def test_singleton_like_bound_values():
    assert singleton_like_bound(16, 9, 3) == 6
    assert singleton_like_bound(36, 27, 5) == 5
    assert singleton_like_bound(49, 39, 6) == 5
    assert singleton_like_bound(100, 77, 4) == 5
    assert singleton_like_bound(144, 117, 5) == 5
    assert singleton_like_bound(144, 129, 11) == 5
    with pytest.raises(ValueError):
        singleton_like_bound(0, 1, 1)


@pytest.mark.parametrize("q,r", [(7, 5), (8, 6), (11, 4), (13, 5), (13, 11)])
def test_optimality_equivalence_holds_above_r3(q, r):
    field = Field(2, 3) if q == 8 else Field(q)
    from lrc5.construct import validate_params

    params = validate_params(field, r)
    assert optimality_equivalence_holds(params) is True


def test_optimality_equivalence_refuses_r3():
    from lrc5.construct import validate_params

    params = validate_params(Field(5), 3)
    with pytest.raises(ConditionViolatedError):
        optimality_equivalence_holds(params)


def test_optimality_equivalence_other_distance():
    from lrc5.construct import validate_params

    params = validate_params(Field(7), 5)
    # d = 6: applicable (4 mod 6 != 5) but the identity fails: 9 != 10
    assert optimality_equivalence_holds(params, d=6) is False


def test_length_regime_frozen_values():
    from lrc5.construct import validate_params

    rep75 = length_regime_report(validate_params(Field(7), 5))
    assert rep75.result is True  # informational: reporting never fails
    assert rep75.details["block_count_inequality"] == {
        "lhs": 6,
        "rhs": 52,
        "holds": False,
    }
    assert rep75.details["coset_count_condition"] == {
        "value": 1,
        "threshold": 3,
        "holds": False,
    }

    rep133 = length_regime_report(validate_params(Field(13), 3))
    assert rep133.details["block_count_inequality"] == {
        "lhs": 36,
        "rhs": 34,
        "holds": True,
    }

    rep293 = length_regime_report(validate_params(Field(29), 3))
    assert rep293.details["coset_count_condition"] == {
        "value": 7,
        "threshold": 3,
        "holds": True,
    }


def test_report_text_line_format(code75):
    rep = verify_distance_at_least(code75.field, code75.parity_check_matrix, 5)
    assert rep.text_line() == (
        "FAIL  distance>=5  mode=exhaustive trials=560 "
        "witness={'columns': [1, 2, 34, 36]}"
    )
    ok = verify_distance_at_least(code75.field, code75.parity_check_matrix, 4)
    assert ok.text_line() == "pass  distance>=4  mode=exhaustive trials=7140"


def test_report_json_holds_no_timing(code53):
    """millis is measured but written as null, so reports are byte-identical."""
    rep = verify_distance_at_least(code53.field, code53.parity_check_matrix, 4)
    assert isinstance(rep.millis, float)
    assert rep.to_json_dict()["millis"] is None


def vandermonde_columns(n):
    """n columns (1, x, ..., x^4) over GF(31): any 5 of them are independent."""
    return [[pow(x, e, 31) for e in range(5)] for x in range(1, n + 1)]


def test_exhaustive_cost_closed_form():
    assert [exhaustive_cost(10, s) for s in range(5)] == [0, 0, 10, 52, 147]
    assert exhaustive_cost(36, 4) == 7_700  # GF(7) r=2, d>=5
    assert exhaustive_cost(225, 4) == 1_897_952  # GF(16) r=4, d>=5
    assert exhaustive_cost(576, 4) == 31_849_250  # GF(25) r=2, d>=5


def count_reductions(monkeypatch, module="lrc5.verify"):
    """A list that grows by one at each reduce_row call module makes."""
    calls = []

    def counting(*args):
        calls.append(None)
        return reduce_row(*args)

    monkeypatch.setattr(f"{module}.reduce_row", counting)
    return calls


@pytest.mark.parametrize("n", [5, 9, 17, 30])
@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_exhaustive_cost_is_the_budget_edge_of_a_complete_scan(n, size, monkeypatch):
    """A complete scan makes exactly exhaustive_cost reductions and one that
    stops at a witness makes no more, so _mode can decide the budget before
    the first reduction: it runs the scan on a budget of exactly its cost
    and refuses it on one less without reducing anything."""
    f = Field(31)
    columns = vandermonde_columns(n)
    cost = exhaustive_cost(n, size)
    calls = count_reductions(monkeypatch)
    assert _scan_exhaustive(f, columns, size) == (comb(n, size), None)
    assert len(calls) == cost
    calls.clear()
    repeated = columns[:n - 1] + [columns[n // 2]]
    assert _scan_exhaustive(f, repeated, size)[1] is not None
    assert len(calls) <= cost
    calls.clear()
    monkeypatch.setattr("lrc5.verify.SUBSET_BUDGET", cost)
    rep = verify_distance_at_least(f, transpose(columns), size + 1)
    assert (rep.mode, rep.trials, rep.witness) == ("exhaustive", comb(n, size), None)
    calls.clear()
    monkeypatch.setattr("lrc5.verify.SUBSET_BUDGET", cost - 1)
    with pytest.raises(BudgetExceededError, match=f"makes {cost} reductions"):
        verify_distance_at_least(f, transpose(columns), size + 1)
    assert calls == []


def test_binned_scan_budget_counts_leaf_callbacks(f5, monkeypatch):
    """The exhaustive GF(5) lemma scan confirms the 389 subsets before its
    witness; binning them costs one count per subset on top of the
    reductions, and a scan whose bins would pass the budget is refused
    before it bins any."""
    binned = []

    def recording(counts, betas, subsets):
        subsets = list(subsets)
        binned.extend(subsets)
        _bin_pairs(counts, betas, subsets)

    monkeypatch.setattr("lrc5.verify._bin_pairs", recording)
    cost = exhaustive_cost(16, 4) + 389
    monkeypatch.setattr("lrc5.verify.SUBSET_BUDGET", cost)
    rep = verify_constraint_matrix(f5, "exhaustive")
    assert (rep.mode, rep.trials, rep.result) == ("exhaustive", 390, False)
    assert sum(rep.details["case_counts"].values()) == len(binned) == 389
    binned.clear()
    monkeypatch.setattr("lrc5.verify.SUBSET_BUDGET", cost - 1)
    with pytest.raises(BudgetExceededError, match="bins 389 subsets"):
        verify_constraint_matrix(f5, "exhaustive")
    assert binned == []


def test_auto_mode_is_exhaustive_exactly_when_a_complete_scan_fits(f5, monkeypatch):
    code = Code.build(Field(7), 2)
    f, h = code.field, code.parity_check_matrix
    monkeypatch.setattr("lrc5.verify.SUBSET_BUDGET", 7_700)
    rep = verify_distance_at_least(f, h, 5, mode="auto", trials=1_000)
    assert (rep.mode, rep.trials, rep.seed, rep.result) == ("exhaustive", 58_905, None, True)
    monkeypatch.setattr("lrc5.verify.SUBSET_BUDGET", 7_699)
    rep = verify_distance_at_least(f, h, 5, mode="auto", trials=1_000, seed=3)
    assert (rep.mode, rep.trials, rep.seed) == ("sampled", 1_000, 3)

    lemma_cost = exhaustive_cost(16, 4) + 1_820  # plus one bin count per subset
    monkeypatch.setattr("lrc5.verify.SUBSET_BUDGET", lemma_cost)
    rep = verify_constraint_matrix(f5, mode="auto", trials=100)
    assert rep.mode == "exhaustive" and rep.trials == FROZEN_LEMMA[(5, 3)]["trials"]
    monkeypatch.setattr("lrc5.verify.SUBSET_BUDGET", lemma_cost - 1)
    assert verify_constraint_matrix(f5, mode="auto", trials=100).mode == "sampled"


@pytest.mark.parametrize(
    "p,m,r,trials,columns",
    [(3, 2, 3, 2_820, [1, 3, 22, 24]), (11, 1, 4, 4_677, [1, 2, 88, 90]),
     (13, 1, 5, 9_272, [1, 2, 106, 108]), (2, 4, 4, 22_340, [1, 2, 156, 158])],
)
def test_auto_mode_refutes_distance_five_exhaustively(p, m, r, trials, columns):
    code = Code.build(Field(p, m), r)
    rep = verify_distance_at_least(code.field, code.parity_check_matrix, 5, mode="auto")
    assert rep.mode == "exhaustive" and rep.seed is None
    assert rep.trials == trials and rep.witness == {"columns": columns}


def test_constraint_matrix_exhaustive_over_gf13_stops_at_its_witness(f13):
    """17,178,876 subsets in all, but the scan needs only 105,889."""
    rep = verify_constraint_matrix(f13, mode="exhaustive")
    assert rep.result is False and rep.trials == 105_889
    assert rep.witness == {"points": [[1, 1], [2, 1], [4, 6], [12, 6]]}
    assert sum(rep.details["case_counts"].values()) == 105_888
    pts = [tuple(pt) for pt in rep.witness["points"]]
    assert rank_mod(oracle_lemma_matrix(pts, 13), 13) == 3


@pytest.mark.parametrize(
    "q,trials,witness,counts",
    [
        (16, 332_732, [[1, 1], [2, 1], [4, 3], [7, 3]], (229_684, 23, 96_655, 3_262, 3_107)),
        (17, 464_388, [[1, 1], [2, 1], [4, 8], [16, 8]], (328_055, 25, 128_400, 4_044, 3_863)),
        (19, 848_022, [[1, 1], [2, 1], [4, 9], [18, 9]], (624_920, 29, 211_731, 5_790, 5_551)),
    ],
)
def test_constraint_matrix_exhaustive_frozen_up_to_the_largest_admitted_scan(
    q, trials, witness, counts
):
    """Explicit exhaustive lemma scans up to GF(19), whose charge of
    5,668,004 reductions plus 848,021 binned subsets is the largest the
    budget admits (GF(23) is charged 18.8M and is refused up front); auto mode
    samples at these orders. The bins hold every subset before the witness."""
    rep = verify_constraint_matrix(Field(*FIELDS[q]), mode="exhaustive")
    assert (rep.mode, rep.trials, rep.result) == ("exhaustive", trials, False)
    assert rep.witness == {"points": witness}
    names = ("all-distinct", "all-equal", "one-pair", "three-equal", "two-pairs")
    assert rep.details["case_counts"] == dict(zip(names, counts))
    assert sum(counts) == trials - 1


def _reference_reduce(field, basis, col):
    v = list(col)
    for piv, b in basis:
        if v[piv]:
            v = field.submul(v, v[piv], b)
    for pi, x in enumerate(v):
        if x:
            return pi, field.scale(field.inv(x), v)
    return None


def reference_scan(field, columns, size):
    """Per-leaf depth-first scan: every leaf subset is reduced on its own.

    Returns (checked, failure, leaves) with the same meaning as
    _scan_exhaustive plus every subset confirmed independent, in the order
    it was confirmed.
    """
    n = len(columns)
    checked = 0
    leaves = []

    def rec(start, stop, basis, chosen):
        nonlocal checked
        depth = len(chosen)
        for idx in range(start, stop):
            ext = _reference_reduce(field, basis, columns[idx])
            if ext is None:
                checked += 1
                need = size - depth - 1
                return tuple(chosen) + (idx,) + tuple(range(idx + 1, idx + 1 + need))
            if depth + 1 == size:
                checked += 1
                leaves.append(chosen + [idx])
            else:
                found = rec(idx + 1, n - (size - depth - 2), basis + [ext], chosen + [idx])
                if found is not None:
                    return found
        return None

    failure = rec(0, n - size + 1, [], [])
    return checked, failure, leaves


def assert_scan_matches_reference(field, columns, size):
    """The engine's (checked, failure) equals the reference's, and the
    reference confirms exactly the first subsets in lexicographic order,
    the identity that binning the confirmed prefix rests on."""
    checked, failure, leaves = reference_scan(field, columns, size)
    assert _scan_exhaustive(field, columns, size) == (checked, failure)
    prefix = islice(combinations(range(len(columns)), size), checked - (failure is not None))
    assert leaves == [list(subset) for subset in prefix]


@pytest.mark.parametrize("p,m,r", [(5, 1, 3), (7, 1, 5), (2, 3, 6), (3, 2, 3), (11, 1, 4)])
def test_scan_matches_per_leaf_reference_on_parity_columns(p, m, r):
    field = Field(p, m)
    columns = [list(c) for c in zip(*Code.build(field, r).parity_check_matrix)]
    for size in (1, 2, 3, 4):
        assert_scan_matches_reference(field, columns, size)


@pytest.mark.parametrize("q", [5, 7])
def test_scan_matches_reference_on_lemma_columns(q):
    """The confirmed subsets are the lexicographic prefix, so the bins of
    that prefix are the bins of the reference's leaves."""
    field = Field(q)
    _, columns, _ = moment_columns(field)
    assert_scan_matches_reference(field, columns, 4)


@pytest.mark.parametrize("p,m", [(5, 1), (2, 2), (3, 2), (2, 3)])
def test_scan_matches_reference_on_random_columns(p, m):
    """Seeded column sets salted with zero, repeated and parallel columns,
    so every last-level case (zero residual, equal normalized residual,
    first-level dependency) occurs."""
    field = Field(p, m)
    rng = random.Random(p * 100 + m)
    for _ in range(60):
        dim = rng.randint(2, 5)
        n = rng.randint(4, 14)
        columns = [[rng.randrange(field.q) for _ in range(dim)] for _ in range(n)]
        for _ in range(rng.randint(0, 3)):
            src = columns[rng.randrange(n)]
            kind = rng.randrange(3)
            if kind == 0:
                new = [0] * dim
            elif kind == 1:
                new = list(src)
            else:
                new = field.scale(rng.randrange(1, field.q), src)
            columns.insert(rng.randrange(n + 1), new)
        for size in range(1, min(5, len(columns)) + 1):
            assert_scan_matches_reference(field, columns, size)


#: largest exhaustive_cost at which the scans are compared with the reference
SCAN_COST_CAP = 100_000


@pytest.fixture
def reduction_counts(monkeypatch):
    """The reduce_row calls of verify and of the reference scans, counted
    apart."""
    return count_reductions(monkeypatch), count_reductions(monkeypatch, "tests.oracles")


def assert_scan_matches_the_reference(field, columns, size, counts):
    """_scan_exhaustive returns the reference's (checked, failure) with at
    most its reductions."""
    ours, theirs = counts
    ours.clear()
    theirs.clear()
    assert _scan_exhaustive(field, columns, size) == reference_scan_exhaustive(field, columns, size)
    assert len(ours) <= len(theirs)


@pytest.mark.parametrize("q,r", [(q, r) for q, r in ADMISSIBLE_UP_TO_32 if q <= 16])
def test_scan_matches_the_reference_on_parity_and_dual_columns(q, r, reduction_counts):
    """Sparse pivots and reducing only the columns a prefix touches leave
    every scan of H's columns and of the sparse dual's as it was, sizes 1
    to 4 while a complete scan costs at most SCAN_COST_CAP."""
    code = Code.build(Field(*prime_power(q)), r)
    for columns in (transpose(code.parity_check_matrix), _dual_columns(code.domain)):
        for size in range(1, 5):
            if exhaustive_cost(len(columns), size) <= SCAN_COST_CAP:
                assert_scan_matches_the_reference(code.field, columns, size, reduction_counts)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_scan_matches_the_reference_on_random_sparse_columns(p, reduction_counts):
    """250 seeded sparse column sets per field, salted with zero, repeated
    and parallel columns. The first set has a zero column that no pivot
    touches: it is never reduced against a prefix, yet it is still a zero
    residual that completes the first subset it meets."""
    field = Field(p)
    assert_scan_matches_the_reference(field, [[1, 0, 0], [0, 1, 0], [0, 0, 0]], 3, reduction_counts)
    rng = random.Random(p)
    for _ in range(250):
        dim, n, density = rng.randint(2, 7), rng.randint(4, 16), rng.uniform(0.1, 0.7)
        columns = [[rng.randrange(1, p) if rng.random() < density else 0 for _ in range(dim)]
                   for _ in range(n)]
        for _ in range(rng.randint(0, 3)):
            src = columns[rng.randrange(n)]
            new = [[0] * dim, list(src), field.scale(rng.randrange(1, p), src)][rng.randrange(3)]
            columns.insert(rng.randrange(len(columns) + 1), new)
        for size in range(1, min(5, len(columns)) + 1):
            assert_scan_matches_the_reference(field, columns, size, reduction_counts)


def test_gf13_distance_four_certificate_reduces_only_touched_columns(code135, reduction_counts):
    """The complete d>=4 scan of H's 144 columns at GF(13) r=5: the
    reference reduces every later column at every prefix, the charge
    exhaustive_cost(144, 3) = 10,437; pivoting each prefix on its cell's
    local row leaves only that cell's columns and the cells whose local row
    H fills in to reduce."""
    field, columns = code135.field, transpose(code135.parity_check_matrix)
    ours, theirs = reduction_counts
    assert _scan_exhaustive(field, columns, 3) == (comb(144, 3), None)
    assert len(ours) <= 1_300
    assert reference_scan_exhaustive(field, columns, 3) == (comb(144, 3), None)
    assert len(theirs) == exhaustive_cost(144, 3) == 10_437


def test_exhaustive_scan_leaves_no_reference_cycle(code135):
    """The scan's supports, keys and key index are freed when it returns,
    not at a later cyclic collection: with the collector off, a complete
    d>=4 scan at GF(13) r=5 leaves it nothing to find. Kept in a cycle,
    they held about 120 KB per scan until a collection, and a run of
    certificates grew its peak memory with them."""
    field, columns = code135.field, transpose(code135.parity_check_matrix)
    gc.collect()
    gc.disable()
    try:
        assert _scan_exhaustive(field, columns, 3) == (comb(144, 3), None)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("p,m", [(5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4)])
def test_sampled_lemma_scan_matches_the_reference(p, m):
    """Grouped draws decided by pair key give the reduce-only reference's
    (trials, witness, bins) at 30 seeds and four trial counts, from a
    single subset to past most witnesses."""
    field = Field(p, m)
    points, columns, betas = moment_columns(field)
    dependent = _key_test(field, points, betas)
    for seed in range(30):
        for trials in (1, 7, 100, 5_000):
            assert _scan_sampled(len(points), 4, trials, seed, dependent, betas) == (
                reference_scan_sampled(field, columns, 4, trials, seed, betas))


def test_sampled_distance_scan_matches_the_reference(code135):
    """Without labels every subset goes to the rank test, as the reference
    reduces it."""
    field, columns = code135.field, _dual_columns(code135.domain)
    for seed in range(5):
        for size in (1, 2, 3, 4):
            assert _scan_sampled(len(columns), size, 2_000, seed, _rank_test(field, columns)) == (
                reference_scan_sampled(field, columns, size, 2_000, seed))


@pytest.mark.parametrize("q,r", [(7, 5), (9, 3), (13, 5), (29, 6)])
def test_the_sampled_distance_suite_matches_the_rank_scan_of_its_columns(q, r):
    """The suite's key scan writes the report that reducing the sparse
    dual's columns gives, witnesses and trial counts included."""
    code = Code.build(Field(*prime_power(q)), r)
    columns = _dual_columns(code.domain)
    for seed in range(3):
        [rep] = distance_reports(code, "sampled", 20_000, seed)
        assert plain(rep) == plain(_distance_at_least(code.field, columns, 5, "sampled", 20_000, seed))


def test_sampled_suites_reduce_no_column_and_build_none(code135, monkeypatch):
    """The y-pattern or the cells confirm a subset, and the pair key
    decides the rest: no reduce_row call and no column list."""

    def no_columns(*args):
        raise AssertionError("built a column")

    calls = count_reductions(monkeypatch)
    monkeypatch.setattr("lrc5.verify._dual_columns", no_columns)
    monkeypatch.setattr("lrc5.verify._moment_column", no_columns)
    lemma = [verify_constraint_matrix(code135.field, "sampled", 20_000, seed) for seed in (0, 1)]
    assert [(rep.trials, rep.result) for rep in lemma] == [(3_318, False), (20_000, True)]
    [d5] = distance_reports(code135, "sampled", 20_000, 0)
    assert (d5.trials, d5.result) == (20_000, True)
    assert calls == []


def test_the_sampled_distance_suite_peaks_below_2_mb_at_gf81():
    """Its columns at GF(81) r=4 would be 6,400 lists of 1,283 entries."""
    code = Code.build(Field(3, 4), 4)
    tracemalloc.start()
    try:
        reports = distance_reports(code, "sampled", 100_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert [(rep.mode, rep.trials) for rep in reports] == [("sampled", 100_000)]


@pytest.mark.parametrize("p,m,r,trials", [(3, 2, 3, 41_664), (2, 4, 4, 1_873_200)])
def test_distance_four_certified_exhaustively_on_extension_fields(p, m, r, trials):
    field = Field(p, m)
    code = Code.build(field, r)
    rep = verify_distance_at_least(field, code.parity_check_matrix, 4)
    assert rep.result is True and rep.witness is None
    assert rep.mode == "exhaustive"
    assert rep.trials == trials


def test_distance_five_holds_at_r2_over_gf7():
    """At r = 2 the pigeonhole count allows d = 5: (q-1)^2 = 36 pairs
    against the q^2+q+1 = 57 points of PG(2,7). The code reaches d = 5
    exactly: every 4-subset of columns is independent, and the first
    dependent 5-subset carries a weight-5 codeword. The Singleton-like
    bound is 6, so d = 5 is not optimal here."""
    code = Code.build(Field(7), 2)
    f, h = code.field, code.parity_check_matrix
    assert (code.n, code.k) == (36, 21)
    rep = verify_distance_at_least(f, h, 5)
    assert rep.result is True and rep.witness is None
    assert rep.mode == "exhaustive" and rep.trials == 58_905
    found = find_min_weight_codeword(f, h, 5)
    assert found.trials == 67_135
    assert found.witness["weight"] == 5
    assert found.witness["support"] == [1, 2, 3, 22, 23]
    cw = found.witness["codeword"]
    assert [i + 1 for i, x in enumerate(cw) if x] == [1, 2, 3, 22, 23]
    assert all(f.dot(row, cw) == 0 for row in h)
    assert singleton_like_bound(code.n, code.k, code.r) == 6


def test_distance_five_holds_at_r2_over_gf13():
    """144 pair directions against 183 points: d >= 5 holds exhaustively."""
    field = Field(13)
    code = Code.build(field, 2)
    assert (code.n, code.k) == (144, 93)
    rep = verify_distance_at_least(field, code.parity_check_matrix, 5)
    assert rep.result is True and rep.witness is None
    assert rep.mode == "exhaustive" and rep.trials == 17_178_876


def test_distance_five_holds_at_r2_over_gf16():
    """225 pair directions against the 273 points of PG(2,16): d >= 5 holds
    exhaustively, over every 4-subset of H's columns."""
    field = Field(2, 4)
    code = Code.build(field, 2)
    rep = verify_distance_at_least(field, code.parity_check_matrix, 5)
    assert rep.result is True and rep.witness is None
    assert rep.mode == "exhaustive" and rep.trials == comb(225, 4) == 103_962_600
