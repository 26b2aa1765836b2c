"""Verification-layer tests.

The frozen dictionaries below are previously captured runs, cross-checked
against from-scratch reimplementations (see oracles.py): plain modular rank
confirms every witness, and the full-scan failure counts for these fields
are 4 (q=5), 54 (q=7), and 147 (q=8), all with the two-pairs y-pattern.
The construction targets distance 5 but tops out at 4, so the distance and
rank claims verify False here, with witnesses; that is the honest output.
"""

import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from lrc5.codec import local_repair
from lrc5.construct import Code
from lrc5.errors import (
    BudgetExceededError,
    ConditionViolatedError,
    NotDistinctError,
)
from lrc5.field import Field
from lrc5.linalg import rank
from lrc5.rng import SplitMix64
from lrc5.verify import (
    SUBSET_BUDGET,
    VerificationReport,
    _lemma_certificate,
    _moment_columns,
    _scan,
    _scan_exhaustive,
    constraint_matrix,
    exhaustive_cost,
    find_min_weight_codeword,
    length_regime_report,
    optimality_equivalence_holds,
    singleton_like_bound,
    verify_constraint_matrix,
    verify_distance_at_least,
    verify_locality,
)

from .oracles import constraint_matrix_rank, oracle_lemma_matrix, rank_mod


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


def test_min_weight_search_over_gf13_stops_at_its_witness(code135, monkeypatch):
    """No up-front refusal: weights 1-3 are scanned in full and weight 4
    stops at its witness, well within the budget. Each weight's scan still
    answers to the reduction budget."""
    f, h = code135.field, code135.parity_check_matrix
    rep = find_min_weight_codeword(f, h, 5)
    assert rep.witness["weight"] == 4
    assert rep.witness["support"] == [1, 2, 106, 108]
    assert rep.trials == 507_056
    assert all(f.dot(row, rep.witness["codeword"]) == 0 for row in h)
    assert SUBSET_BUDGET == 10_000_000
    monkeypatch.setattr("lrc5.verify.SUBSET_BUDGET", exhaustive_cost(144, 3) - 1)
    with pytest.raises(BudgetExceededError):
        find_min_weight_codeword(f, h, 5)


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
          16: (2, 4), 17: (17, 1), 27: (3, 3)}


def _minors_agree(f, columns, certify, quad):
    """affine_det vanishes exactly when the rows (0, 1, 2, 4), or the rows
    (0, 4, 5, 6), minor of the quadruple's moment columns has rank below 4,
    and a quadruple the certificate passes has rank 4."""
    cols = [columns[i] for i in quad]
    for rows in ((1, 2, 4), (4, 5, 6)):
        pts = [tuple(c[r] for r in rows) for c in cols]
        if (f.affine_det(*pts) == 0) != (rank(f, [[1, *pt] for pt in pts]) < 4):
            return False
    return not certify(list(quad)) or rank(f, cols) == 4


@pytest.mark.parametrize("q", [5, 7])
def test_lemma_minor_vanishes_exactly_when_it_drops_rank_on_every_quadruple(q):
    f = Field(q)
    _, columns, _ = _moment_columns(f)
    certify = _lemma_certificate(f, columns)
    assert all(_minors_agree(f, columns, certify, quad)
               for quad in combinations(range(len(columns)), 4))


@pytest.mark.parametrize("q", [8, 9, 16, 27])
def test_lemma_minor_vanishes_exactly_when_it_drops_rank_on_seeded_quadruples(q):
    f = Field(*FIELDS[q])
    _, columns, _ = _moment_columns(f)
    certify = _lemma_certificate(f, columns)
    rng = SplitMix64(q)
    assert all(_minors_agree(f, columns, certify, rng.sample_sorted(len(columns), 4))
               for _ in range(5_000))


@pytest.mark.parametrize("q", [5, 7])
def test_the_second_minor_certifies_subsets_the_first_leaves(q):
    f = Field(q)
    _, columns, _ = _moment_columns(f)
    certify = _lemma_certificate(f, columns)
    first = [(c[1], c[2], c[4]) for c in columns]
    left = [quad for quad in combinations(range(len(columns)), 4)
            if f.affine_det(*(first[i] for i in quad)) == 0]
    assert left and any(certify(list(quad)) for quad in left)


def reduce_only_lemma_scan(f, trials, seed):
    """The sampled lemma scan without the minor certificate: every subset's
    rank by reduction, y-patterns binned by their multiplicities."""
    points, columns, betas = _moment_columns(f)
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
    f, dual = code75.field, code75.domain.dual_rows
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


@pytest.mark.parametrize("n", [5, 9, 17, 30])
@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_exhaustive_cost_is_the_budget_edge_of_a_complete_scan(n, size, monkeypatch):
    """A complete scan runs on a budget of exactly its cost, and one less
    stops it: the cost is the number of reductions it makes."""
    f = Field(31)
    columns = vandermonde_columns(n)
    cost = exhaustive_cost(n, size)
    monkeypatch.setattr("lrc5.verify.SUBSET_BUDGET", cost)
    assert _scan_exhaustive(f, columns, size) == (comb(n, size), None)
    monkeypatch.setattr("lrc5.verify.SUBSET_BUDGET", cost - 1)
    with pytest.raises(BudgetExceededError):
        _scan_exhaustive(f, columns, size)


def test_binned_scan_budget_counts_leaf_callbacks(monkeypatch):
    """Every 4-subset of 16 Vandermonde columns is independent; binning
    them costs one on_leaf call per subset on top of the reductions."""
    f, columns, betas = Field(31), vandermonde_columns(16), [i % 3 for i in range(16)]
    cost = exhaustive_cost(16, 4) + 1_820
    monkeypatch.setattr("lrc5.verify.SUBSET_BUDGET", cost)
    mode, checked, failure, bins = _scan(f, columns, 4, "exhaustive", 1, 0, betas)
    assert (mode, checked, failure) == ("exhaustive", 1_820, None)
    assert sum(bins.values()) == 1_820
    monkeypatch.setattr("lrc5.verify.SUBSET_BUDGET", cost - 1)
    with pytest.raises(BudgetExceededError):
        _scan(f, columns, 4, "exhaustive", 1, 0, betas)


def test_auto_mode_is_exhaustive_exactly_when_a_complete_scan_fits(f5, monkeypatch):
    code = Code.build(Field(7), 2)
    f, h = code.field, code.parity_check_matrix
    monkeypatch.setattr("lrc5.verify.SUBSET_BUDGET", 7_700)
    rep = verify_distance_at_least(f, h, 5, mode="auto", trials=1_000)
    assert (rep.mode, rep.trials, rep.seed, rep.result) == ("exhaustive", 58_905, None, True)
    monkeypatch.setattr("lrc5.verify.SUBSET_BUDGET", 7_699)
    rep = verify_distance_at_least(f, h, 5, mode="auto", trials=1_000, seed=3)
    assert (rep.mode, rep.trials, rep.seed) == ("sampled", 1_000, 3)

    lemma_cost = exhaustive_cost(16, 4) + 1_820  # plus one on_leaf per subset
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
    _scan_exhaustive plus the on_leaf call sequence.
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


def engine_scan(field, columns, size):
    leaves = []
    checked, failure = _scan_exhaustive(field, columns, size, leaves.append)
    return checked, failure, leaves


@pytest.mark.parametrize("p,m,r", [(5, 1, 3), (7, 1, 5), (2, 3, 6), (3, 2, 3), (11, 1, 4)])
def test_scan_matches_per_leaf_reference_on_parity_columns(p, m, r):
    field = Field(p, m)
    columns = [list(c) for c in zip(*Code.build(field, r).parity_check_matrix)]
    for size in (1, 2, 3, 4):
        assert engine_scan(field, columns, size) == reference_scan(field, columns, size)


@pytest.mark.parametrize("q", [5, 7])
def test_scan_matches_reference_on_lemma_columns(q):
    """Equal on_leaf sequences give equal y-pattern bins."""
    field = Field(q)
    _, columns, _ = _moment_columns(field)
    assert engine_scan(field, columns, 4) == reference_scan(field, columns, 4)


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
            assert engine_scan(field, columns, size) == reference_scan(field, columns, size)


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
