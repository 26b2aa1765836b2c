"""Acceptance gate: the eight delivery criteria, checked at full strength.

Each test evaluates one criterion, records a single PASS/FAIL line (echoed
again in the terminal summary), and then asserts. The construction targets
distance 5 but has distance exactly 4 (see the README for the counting
argument). Criteria 2, 3 and 6 certify what the codes do have: d = 4, the
rank lemma with its exact rank-3 exceptions, and recovery from every three
erasures. Each pins the weight-4 words against the closed-form two-pairs
family of tests/oracles.py, so moving a single weight-4 support fails them.
"""

import time
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from lrc5.cli import main as cli_main
from lrc5.codec import encode, erasure_decode, local_repair
from lrc5.construct import Code, validate_params
from lrc5.errors import (
    AmbiguousErasuresError,
    ConditionViolatedError,
    LocalRepairImpossibleError,
    LrcError,
)
from lrc5.field import Field
from lrc5.rng import SplitMix64
from lrc5.verify import (
    find_min_weight_codeword,
    length_regime_report,
    optimality_equivalence_holds,
    singleton_like_bound,
    verify_constraint_matrix,
    verify_distance_at_least,
)

from .oracles import (
    constraint_matrix_rank,
    evaluate_on_domain,
    evaluate_table,
    interpolate,
    interpolation_poly,
    mat_vec_mod,
    oracle_erasure_decode,
    oracle_generator_matrix,
    oracle_lemma_family,
    oracle_lemma_matrix,
    oracle_points,
    oracle_supports_codeword,
    oracle_weight4_supports,
    rank_mod,
)

RESULTS = []

INSTANCES = [(5, 3), (7, 5), (8, 6), (11, 4), (13, 5), (13, 11)]
EXPECTED_NK = {
    (5, 3): (16, 9),
    (7, 5): (36, 27),
    (8, 6): (49, 39),
    (11, 4): (100, 77),
    (13, 5): (144, 117),
    (13, 11): (144, 129),
}


def record(num, name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num} ({name}): {detail}"
    RESULTS.append(line)
    print(line)
    return line


def field_for(q):
    return Field(2, 3) if q == 8 else Field(q)


def test_criterion_1_parameter_reproduction():
    failures = []
    worst = 0.0
    for q, r in INSTANCES:
        t0 = time.perf_counter()
        code = Code.build(field_for(q), r)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        n, k = EXPECTED_NK[(q, r)]
        if code.n != n or code.k != k or code.n != (q - 1) ** 2:
            failures.append(f"({q},{r}) -> n={code.n} k={code.k}")
        if code.k != code.n - code.n // (r + 1) - 3:
            failures.append(f"({q},{r}) dimension formula")
        if elapsed >= 1.0:
            failures.append(f"({q},{r}) took {elapsed:.2f}s")
    ok = not failures
    detail = (
        f"all 6 instances match n=(q-1)^2, k=n-n/(r+1)-3; "
        f"slowest build {worst * 1000:.0f} ms"
        if ok
        else "; ".join(failures)
    )
    line = record(1, "parameter reproduction", ok, detail)
    assert ok, line


def test_criterion_2_distance_certification():
    t0 = time.perf_counter()
    problems = []
    codes = {
        (q, r): Code.build(field_for(q), r)
        for q, r in ((5, 3), (7, 5), (8, 6), (11, 4), (13, 5))
    }
    d4_subsets = 0
    for (q, r), code in codes.items():
        rep = verify_distance_at_least(code.field, code.parity_check_matrix, 4)
        d4_subsets += rep.trials
        if not rep.result:
            problems.append(f"({q},{r}) d>=4 refuted: columns {rep.witness['columns']}")

    # exhaustive d>=5 scans stop at the lexicographically first weight-4 support
    for q, r in ((5, 3), (7, 5), (8, 6)):
        code = codes[(q, r)]
        family = oracle_weight4_supports(q, r)
        first = [p + 1 for p in family[0]]
        rep = verify_distance_at_least(code.field, code.parity_check_matrix, 5)
        got = rep.witness["columns"] if rep.witness else None
        if got != first:
            problems.append(
                f"({q},{r}) d>=5 witness {got}, expected {first}, the first of "
                f"{len(family)} closed-form weight-4 supports"
            )

    # the whole (5,3) family, not only its first member; criterion 6 sweeps (7,5)
    code53 = codes[(5, 3)]
    swept = _all_dependent_4subsets(code53.field, code53.parity_check_matrix)
    if {tuple(b) for b in swept} != set(oracle_weight4_supports(5, 3)):
        problems.append(f"(5,3) dependent 4-subsets {swept} are not the closed form")

    f7 = Field(7)
    h75 = codes[(7, 5)].parity_check_matrix
    g75 = oracle_generator_matrix(7, 5)
    first75 = [p + 1 for p in oracle_weight4_supports(7, 5)[0]]
    mw = find_min_weight_codeword(f7, h75, 5).witness
    if mw is None or mw["weight"] != 4 or mw["support"] != first75:
        problems.append(
            f"(7,5) minimum-weight search gave {mw}, expected weight 4 on {first75}"
        )
    else:
        if any(mat_vec_mod(h75, mw["codeword"], 7)):
            problems.append(f"(7,5) word {mw['codeword']} has a nonzero syndrome")
        if not oracle_supports_codeword(g75, 7, [p - 1 for p in mw["support"]]):
            problems.append(f"(7,5) oracle finds no codeword on {mw['support']}")
    if singleton_like_bound(36, 27, 5) != 5:
        problems.append("singleton_like_bound(36,27,5) != 5")

    # sampled d>=5 scans must stop on a member of the closed-form family
    for q, r in ((11, 4), (13, 5)):
        code = codes[(q, r)]
        family = set(oracle_weight4_supports(q, r))
        g_rows = oracle_generator_matrix(q, r)
        for seed in (0, 1):
            rep = verify_distance_at_least(
                code.field, code.parity_check_matrix, 5,
                mode="sampled", trials=100_000, seed=seed,
            )
            if rep.witness is None:
                problems.append(
                    f"({q},{r}) sampled seed={seed} met none of the "
                    f"{len(family)} weight-4 supports in {rep.trials} trials"
                )
                continue
            support = tuple(c - 1 for c in rep.witness["columns"])
            if support not in family:
                problems.append(
                    f"({q},{r}) sampled seed={seed} witness {rep.witness['columns']} "
                    f"is not a closed-form weight-4 support"
                )
            elif not oracle_supports_codeword(g_rows, q, list(support)):
                problems.append(
                    f"({q},{r}) oracle finds no codeword on {rep.witness['columns']}"
                )

    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 60s")
    ok = not problems
    detail = (
        f"d = 4 exactly: d>=4 exhaustive on 5 instances ({d4_subsets} subsets); "
        f"d>=5 refuted by the first closed-form weight-4 support at (5,3), (7,5), "
        f"(8,6) and by family members in 4 sampled runs at (11,4), (13,5); "
        f"(5,3) dependent 4-subsets are the whole family; (7,5) minimum weight 4; "
        f"{elapsed:.1f}s"
        if ok
        else "; ".join(problems)
    )
    line = record(2, "distance certification", ok, detail)
    assert ok, line


def _y_pattern(points):
    counts = tuple(sorted(Counter(b for _, b in points).values()))
    return {
        (4,): "all-equal",
        (1, 3): "three-equal",
        (2, 2): "two-pairs",
        (1, 1, 2): "one-pair",
    }.get(counts, "all-distinct")


def test_criterion_3_lemma_suite():
    t0 = time.perf_counter()
    problems = []
    sizes = []
    for q in (5, 7):
        field = Field(q)
        family = oracle_lemma_family(q)
        family_set = set(family)
        sizes.append(f"{len(family)} of {comb((q - 1) ** 2, 4)}")
        grid = [(a, b) for a in range(1, q) for b in range(1, q)]
        cases = Counter()
        before_first = first_at = None
        wrong = []
        for at, subset in enumerate(combinations(grid, 4), 1):
            if subset == family[0]:
                before_first, first_at = dict(cases), at
            cases[_y_pattern(subset)] += 1
            want = 3 if subset in family_set else 4
            got = constraint_matrix_rank(field, list(subset))
            if got != want:
                wrong.append(f"{subset} has rank {got}, expected {want}")
        if wrong:
            problems.append(f"q={q} rank wrong on {len(wrong)} subsets: {wrong[0]}")
        for subset in family:
            got = rank_mod(oracle_lemma_matrix(list(subset), q), q)
            if got != 3:
                problems.append(f"q={q} oracle rank {got} at family member {subset}")
                break
        missing = {
            "all-equal", "three-equal", "two-pairs", "one-pair", "all-distinct",
        } - set(cases)
        if missing:
            problems.append(f"q={q} proof cases never exercised: {sorted(missing)}")

        # the scan stops at the family's first member, having binned the
        # independent subsets before it
        rep = verify_constraint_matrix(field, mode="exhaustive")
        first = [list(p) for p in family[0]]
        if rep.result or rep.witness["points"] != first:
            problems.append(f"q={q} rank-4 scan gave {rep.witness}, expected {first}")
        elif rep.trials != first_at or rep.details["case_counts"] != before_first:
            problems.append(
                f"q={q} rank-4 scan stopped at subset {rep.trials} with cases "
                f"{rep.details['case_counts']}, expected {first_at} with {before_first}"
            )
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 120s")
    ok = not problems
    detail = (
        f"rank 4 on every 4-subset except the closed-form two-pairs family "
        f"({' and '.join(sizes)} at q=5, 7), where both rank routines give 3; "
        f"all five cases exercised; the rank-4 scan stops at the family's first "
        f"member; {elapsed:.1f}s"
        if ok
        else "; ".join(problems)
    )
    line = record(3, "lemma suite", ok, detail)
    assert ok, line


def test_criterion_4_interpolation_identity():
    problems = []
    for q in (5, 7, 8):
        field = field_for(q)
        code = Code.build(field, {5: 3, 7: 5, 8: 6}[q])
        dom = code.domain
        rng = SplitMix64(q)
        for trial in range(100):
            table = [
                [rng.randbelow(field.q) for _ in range(field.q - 1)]
                for _ in range(field.q - 1)
            ]
            values = evaluate_on_domain(dom, table)
            if interpolate(dom, values) != table:
                problems.append(f"q={q} roundtrip broke at table {trial}")
                break
        points = oracle_points(q, code.r)
        for p in points:
            g_table = interpolation_poly(field, p)
            for other in points:
                want = 1 if other == p else 0
                if evaluate_table(field, g_table, other) != want:
                    problems.append(f"q={q} indicator failed at {p} vs {other}")
                    break
    ok = not problems
    detail = (
        "100 random tables per field roundtrip exactly; indicator property "
        "exhaustive over every grid"
        if ok
        else "; ".join(problems)
    )
    line = record(4, "interpolation identity", ok, detail)
    assert ok, line


def test_criterion_5_locality():
    f7 = Field(7)
    code = Code.build(f7, 5)
    g = code.generator_matrix
    rng = SplitMix64(0)
    problems = []
    repairs = 0
    for pos in range(36):
        if len(code.domain.cell_of(pos)) - 1 != 5:
            problems.append(f"position {pos + 1} does not have r=5 helpers")
    for _ in range(1000):
        msg = [rng.randbelow(7) for _ in range(27)]
        word = encode(f7, g, msg)
        for pos in range(36):
            received = list(word)
            received[pos] = None
            if local_repair(code, received, pos) != word[pos]:
                problems.append(f"repair failed at position {pos + 1}")
                break
            repairs += 1
        if problems:
            break
    try:
        received = [None if p in (0, 1) else 0 for p in range(36)]
        local_repair(code, received, 0)
        problems.append("double erasure in one cell did not raise")
    except LocalRepairImpossibleError:
        pass
    ok = not problems
    detail = (
        f"{repairs} repairs across 1000 codewords, every position, exactly "
        f"5 reads each, 100% success; double hole raises LocalRepairImpossible"
        if ok
        else "; ".join(problems)
    )
    line = record(5, "locality", ok, detail)
    assert ok, line


def _all_dependent_4subsets(field, h_rows):
    """Every 4-column dependent subset, by a shared-prefix echelon sweep."""
    n = len(h_rows[0])
    cols = [tuple(row[c] for row in h_rows) for c in range(n)]
    sub, mul, div = field.sub, field.mul, field.div
    bad = []

    def reduce(basis, col):
        vec = list(col)
        for piv, bvec in basis:
            f = vec[piv]
            if f:
                vec = [sub(a, mul(f, b)) for a, b in zip(vec, bvec)]
        piv = next((i for i, a in enumerate(vec) if a), None)
        if piv is None:
            return None
        inv = div(1, vec[piv])
        return piv, [mul(inv, a) for a in vec]

    def rec(start, basis, chosen):
        depth = len(chosen)
        for idx in range(start, n - (3 - depth)):
            red = reduce(basis, cols[idx])
            if red is None:
                if depth == 3:
                    bad.append(chosen + [idx])
                else:
                    # a dependent subset this small taints every completion
                    for rest in combinations(range(idx + 1, n), 3 - depth):
                        bad.append(chosen + [idx] + list(rest))
                continue
            if depth < 3:
                rec(idx + 1, basis + [red], chosen + [idx])

    rec(0, [], [])
    return bad


def _erase(word, positions):
    received = list(word)
    for p in positions:
        received[p] = None
    return received


def _erasure_verdicts(code, h, received):
    """(library decoder, dense oracle on all of H): each the decoded word or
    the class of the error it raised."""
    out = []
    for decode, args in ((erasure_decode, (code, received)),
                         (oracle_erasure_decode, (code.field, h, received))):
        try:
            out.append(decode(*args))
        except LrcError as exc:
            out.append(type(exc))
    return out


def test_criterion_6_erasure_tolerance():
    t0 = time.perf_counter()
    problems = []
    f7 = Field(7)
    code = Code.build(f7, 5)
    h = code.parity_check_matrix
    rng = SplitMix64(0)
    word = encode(f7, code.generator_matrix, [rng.randbelow(7) for _ in range(27)])

    threes = 0
    for subset in combinations(range(36), 3):
        ours, dense = _erasure_verdicts(code, h, _erase(word, subset))
        if ours != word:
            problems.append(f"three-erasure pattern {list(subset)} decoded incorrectly")
            break
        if dense != ours:
            problems.append(f"three-erasure pattern {list(subset)}: the dense oracle disagrees")
            break
        threes += 1

    # a 4-erasure pattern recovers the original iff its parity columns are
    # independent; the sweep finds every exception, the closed form names them
    # all, and the codec must refuse each one
    family = oracle_weight4_supports(7, 5)
    family_set = set(family)
    swept = {tuple(b) for b in _all_dependent_4subsets(f7, h)}
    if swept != family_set:
        problems.append(
            f"dependent four-erasure patterns: {len(swept - family_set)} outside "
            f"and {len(family_set - swept)} missing from the {len(family)}-member "
            f"closed-form family"
        )
    for support in family:
        ours, dense = _erasure_verdicts(code, h, _erase(word, support))
        if ours is not AmbiguousErasuresError:
            problems.append(f"pattern {list(support)} decoded despite dependency")
        if dense != ours:
            problems.append(f"pattern {list(support)}: the dense oracle disagrees")
    total = 58905
    sample = 0
    for subset in combinations(range(36), 4):
        if subset in family_set:
            continue
        # spot-check a spread of independent patterns
        if sample % 97 == 0:
            ours, dense = _erasure_verdicts(code, h, _erase(word, subset))
            if ours != word:
                problems.append(f"pattern {list(subset)} decoded incorrectly")
            if dense != ours:
                problems.append(f"pattern {list(subset)}: the dense oracle disagrees")
        sample += 1

    # five-erasure clause: the minimum-weight support plus any fifth position
    mw = find_min_weight_codeword(f7, h, 5)
    support5 = sorted({p - 1 for p in mw.witness["support"]} | {2})
    ours, dense = _erasure_verdicts(code, h, _erase(word, support5))
    if ours is not AmbiguousErasuresError:
        problems.append("five-erasure pattern over the minimum support decoded")
    if dense != ours:
        problems.append("five-erasure pattern over the minimum support: the dense oracle disagrees")

    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds 120s")
    ok = not problems
    detail = (
        f"all {threes} three-erasure patterns decode; the {len(family)} ambiguous "
        f"of {total} four-erasure patterns are exactly the closed-form weight-4 "
        f"supports and each is refused, every 97th of the other "
        f"{total - len(family)} decodes; minimum-support five-erasure pattern "
        f"reported ambiguous; {elapsed:.1f}s"
        if ok
        else "; ".join(problems)
    )
    line = record(6, "erasure tolerance", ok, detail)
    assert ok, line


def test_criterion_7_bound_checks():
    problems = []
    for q, r in INSTANCES:
        params = validate_params(field_for(q), r)
        if r > 3:
            if optimality_equivalence_holds(params) is not True:
                problems.append(f"({q},{r}) equivalence does not hold")
        elif r == 3:
            try:
                optimality_equivalence_holds(params)
                problems.append(f"({q},{r}) side condition not reported")
            except ConditionViolatedError:
                pass

    rep = length_regime_report(validate_params(Field(7), 5))
    if rep.details["block_count_inequality"] != {"lhs": 6, "rhs": 52, "holds": False}:
        problems.append("(7,5) block-count arithmetic off")
    if rep.details["coset_count_condition"] != {
        "value": 1, "threshold": 3, "holds": False,
    }:
        problems.append("(7,5) coset-count arithmetic off")
    rep = length_regime_report(validate_params(Field(13), 3))
    if rep.details["block_count_inequality"] != {"lhs": 36, "rhs": 34, "holds": True}:
        problems.append("(13,3) block-count arithmetic off")
    rep = length_regime_report(validate_params(Field(29), 3))
    if rep.details["coset_count_condition"] != {
        "value": 7, "threshold": 3, "holds": True,
    }:
        problems.append("(29,3) coset-count arithmetic off")

    ok = not problems
    detail = (
        "equivalence holds for every r > 3 instance, r = 3 reports the "
        "side-condition violation, length-regime arithmetic matches"
        if ok
        else "; ".join(problems)
    )
    line = record(7, "bound checks", ok, detail)
    assert ok, line


def test_criterion_8_determinism(tmp_path):
    problems = []

    def cli(*argv):
        rc = cli_main(list(argv))
        return rc

    for i in ("a", "b"):
        cli("gen", "--q", "7", "--r", "5", "--out", str(tmp_path / f"gen{i}"))
        rc = cli(
            "verify", "--q", "5", "--r", "3", "--seed", "3",
            "--out", str(tmp_path / f"ver{i}"),
        )
        if rc not in (0, 3):
            problems.append(f"verify run {i} exited {rc}")
        cli(
            "simulate", "--q", "7", "--r", "5", "--model", "bernoulli",
            "--rho", "0.1", "--trials", "60", "--seed", "4",
            "--out", str(tmp_path / f"sim{i}"),
        )

    pairs = [
        ("gena", "genb", ["manifest.json", "generator.csv", "parity.csv", "basis.txt"]),
        ("vera", "verb", ["report.json", "report.txt"]),
        ("sima", "simb", ["simulation.json"]),
    ]
    for da, db, names in pairs:
        for name in names:
            ba = (tmp_path / da / name).read_bytes()
            bb = (tmp_path / db / name).read_bytes()
            if ba != bb:
                problems.append(f"{name} differs between identical runs")

    ok = not problems
    detail = (
        "gen, verify, simulate each byte-identical across repeated seeded runs"
        if ok
        else "; ".join(problems)
    )
    line = record(8, "determinism", ok, detail)
    assert ok, line
