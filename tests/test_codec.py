from functools import lru_cache
from itertools import combinations

import pytest

from lrc5.codec import (
    ERASED,
    HybridResult,
    correct_error,
    encode,
    erasure_decode,
    erasure_positions,
    hybrid_decode,
    local_repair,
)
from lrc5.construct import Code
from lrc5.errors import (
    AmbiguousErasuresError,
    LengthMismatchError,
    LrcError,
    LocalRepairImpossibleError,
    NotErasedError,
    TooManyErasuresError,
    UndecodableError,
)
from lrc5.field import Field
from lrc5.rng import SplitMix64

from .oracles import (
    mat_vec_mod,
    oracle_erasure_decode,
    oracle_error_correct,
    oracle_weight4_supports,
)

# first dependent 4-column subset of the (7,5) parity check, 0-based
BAD_SUPPORT_7_5 = [0, 1, 33, 35]


def random_codeword(code, rng):
    msg = [rng.randbelow(code.field.q) for _ in range(code.k)]
    return encode(code.field, code.generator_matrix, msg)


def syndrome(field, h_rows, word):
    return [field.dot(row, word) for row in h_rows]


def test_erased_is_none():
    assert ERASED is None
    assert erasure_positions([1, None, 0, None]) == [1, 3]


def test_encode_matches_plain_matrix_product(code75):
    rng = SplitMix64(2)
    g = code75.generator_matrix
    gt = [list(col) for col in zip(*g)]
    for _ in range(10):
        msg = [rng.randbelow(7) for _ in range(27)]
        assert encode(code75.field, g, msg) == mat_vec_mod(gt, msg, 7)


def test_encode_zero_and_length_checks(code75):
    assert encode(code75.field, code75.generator_matrix, [0] * 27) == [0] * 36
    with pytest.raises(LengthMismatchError):
        encode(code75.field, code75.generator_matrix, [0] * 26)


def test_encode_on_extension_field(code86):
    rng = SplitMix64(4)
    f = code86.field
    g = code86.generator_matrix
    msg = [rng.randbelow(8) for _ in range(39)]
    word = encode(f, g, msg)
    assert syndrome(f, code86.parity_check_matrix, word) == [0] * 10


def test_codewords_satisfy_parity(code53, code75):
    rng = SplitMix64(8)
    for code in (code53, code75):
        for _ in range(10):
            w = random_codeword(code, rng)
            assert syndrome(code.field, code.parity_check_matrix, w) == [0] * (
                code.n - code.k
            )


@pytest.mark.parametrize("codename", ["code53", "code75", "code114"])
def test_local_repair_every_position(codename, request):
    code = request.getfixturevalue(codename)
    rng = SplitMix64(13)
    for _ in range(5):
        w = random_codeword(code, rng)
        for pos in range(code.n):
            received = list(w)
            received[pos] = None
            assert local_repair(code, received, pos) == w[pos]


def test_local_repair_reads_only_the_cell(code75):
    """Symbols outside the repaired cell may be garbage or missing."""
    rng = SplitMix64(21)
    w = random_codeword(code75, rng)
    pos = 14
    cell = code75.domain.cell_of(pos)
    received: list = [None] * 36
    for p in cell:
        received[p] = w[p]
    received[pos] = None
    assert local_repair(code75, received, pos) == w[pos]
    assert len(cell) - 1 == code75.r


def test_local_repair_rejects_non_erased_and_bad_positions(code75):
    rng = SplitMix64(34)
    w = random_codeword(code75, rng)
    with pytest.raises(NotErasedError):
        local_repair(code75, list(w), 3)
    with pytest.raises(ValueError):
        local_repair(code75, list(w), 36)
    with pytest.raises(ValueError):
        local_repair(code75, list(w), -1)


def test_local_repair_refuses_a_word_of_the_wrong_length(code75):
    """A short word is refused, not read past its end, and a long one is
    refused though the cell it repairs lies within it."""
    for received, pos in (([None] + [1] * 10, 20), ([None] + [1] * 60, 0)):
        with pytest.raises(LengthMismatchError, match=f"word length {len(received)} != n = 36"):
            local_repair(code75, received, pos)


def test_local_repair_impossible_with_two_holes_in_a_cell(code75):
    rng = SplitMix64(55)
    w = random_codeword(code75, rng)
    received = list(w)
    received[0] = None
    received[3] = None  # same recovery cell as 0
    with pytest.raises(LocalRepairImpossibleError):
        local_repair(code75, received, 0)


def test_erasure_decode_small_patterns_exactly(code75):
    rng = SplitMix64(77)
    for t in (1, 2, 3):
        for _ in range(60):
            w = random_codeword(code75, rng)
            holes = rng.sample_sorted(36, t)
            received: list = list(w)
            for p in holes:
                received[p] = None
            assert erasure_decode(code75, received) == w


def test_erasure_decode_no_erasures_is_identity(code75):
    rng = SplitMix64(6)
    w = random_codeword(code75, rng)
    assert erasure_decode(code75, list(w)) == w


def test_erasure_decode_ambiguous_on_dependent_support(code75):
    rng = SplitMix64(15)
    w = random_codeword(code75, rng)
    received: list = list(w)
    for p in BAD_SUPPORT_7_5:
        received[p] = None
    with pytest.raises(AmbiguousErasuresError):
        erasure_decode(code75, received)


def test_erasure_decode_generic_four_pattern_succeeds(code75):
    rng = SplitMix64(16)
    w = random_codeword(code75, rng)
    received: list = list(w)
    for p in (0, 7, 19, 30):
        received[p] = None
    assert erasure_decode(code75, received) == w


def test_erasure_decode_too_many_erasures(code75):
    received: list = [0] * 36
    for p in range(10):  # n - k = 9
        received[p] = None
    with pytest.raises(TooManyErasuresError):
        erasure_decode(code75, received)


def test_erasure_decode_undecodable_on_corrupt_survivors(code75):
    # One erasure plus one corrupted kept symbol cannot be consistent:
    # that would put two codewords at Hamming distance <= 2 < d.
    rng = SplitMix64(29)
    w = random_codeword(code75, rng)
    received: list = list(w)
    received[0] = None
    received[5] = code75.field.add(received[5], 1)
    with pytest.raises(UndecodableError):
        erasure_decode(code75, received)


def test_erasure_decode_length_check(code75):
    with pytest.raises(LengthMismatchError):
        erasure_decode(code75, [0] * 35)


def test_bd_zero_syndrome_returns_word(code75):
    rng = SplitMix64(41)
    w = random_codeword(code75, rng)
    assert correct_error(code75, w) == w


def test_bd_corrects_any_single_error(code75):
    # radius-1 balls are disjoint because the minimum distance is 4 > 2
    f = code75.field
    rng = SplitMix64(52)
    for _ in range(100):
        w = random_codeword(code75, rng)
        pos = rng.randbelow(36)
        err = 1 + rng.randbelow(6)
        received = list(w)
        received[pos] = f.add(received[pos], err)
        assert correct_error(code75, received) == w


def test_bd_two_error_census_frozen(code75):
    """With minimum distance 4, two errors sit on the decoding boundary: the
    oracle's weight-2 search still always lands on a zero-syndrome word, but
    36 of 1000 seeded trials return a codeword other than the transmitted
    one."""
    f, h = code75.field, code75.parity_check_matrix
    rng = SplitMix64(77)
    ok = wrong = undecodable = 0
    for _ in range(1000):
        msg = [rng.randbelow(7) for _ in range(27)]
        w = encode(f, code75.generator_matrix, msg)
        p1 = rng.randbelow(36)
        p2 = rng.randbelow(36)
        while p2 == p1:
            p2 = rng.randbelow(36)
        e1 = 1 + rng.randbelow(6)
        e2 = 1 + rng.randbelow(6)
        received = list(w)
        received[p1] = f.add(received[p1], e1)
        received[p2] = f.add(received[p2], e2)
        try:
            decoded = oracle_error_correct(f, h, received, t_max=2)
        except UndecodableError:
            undecodable += 1
            continue
        assert syndrome(f, h, decoded) == [0] * 9
        if decoded == w:
            ok += 1
        else:
            wrong += 1
    assert (ok, wrong, undecodable) == (964, 36, 0)


def test_bd_default_refuses_a_miscorrected_two_error_word(code75):
    """The census's first wrong decode (t_max=2) is refused by the oracle's
    default t_max=1, and by correct_error, since 2 errors lie outside the
    unique radius at d = 4."""
    f, h = code75.field, code75.parity_check_matrix
    rng = SplitMix64(77)
    while True:
        msg = [rng.randbelow(7) for _ in range(27)]
        w = encode(f, code75.generator_matrix, msg)
        p1 = rng.randbelow(36)
        p2 = rng.randbelow(36)
        while p2 == p1:
            p2 = rng.randbelow(36)
        received = list(w)
        received[p1] = f.add(received[p1], 1 + rng.randbelow(6))
        received[p2] = f.add(received[p2], 1 + rng.randbelow(6))
        if oracle_error_correct(f, h, received, t_max=2) != w:
            break
    with pytest.raises(UndecodableError):
        oracle_error_correct(f, h, received)
    with pytest.raises(UndecodableError):
        correct_error(code75, received)


def test_bd_input_validation(code75):
    with pytest.raises(ValueError):
        correct_error(code75, [None] + [0] * 35)
    with pytest.raises(LengthMismatchError) as exc:
        correct_error(code75, [0] * 35)
    assert str(exc.value) == "word length 35 != n = 36"


def test_correct_error_has_no_length_cap():
    """The dense search was capped at n <= 256; (29,6) has n = 784."""
    code = Code.build(Field(29), 6)
    rng = SplitMix64(29)
    w = code.encode(rng.below(29, code.k))
    for pos in (0, 391, 783):
        received = list(w)
        received[pos] = code.field.add(received[pos], 1 + rng.randbelow(28))
        assert correct_error(code, received) == w


def test_hybrid_frozen_mixed_case(code75):
    w = encode(code75.field, code75.generator_matrix, [i % 7 for i in range(1, 28)])
    received: list = list(w)
    for p in (0, 1, 8):
        received[p] = None
    res = hybrid_decode(code75, received)
    assert isinstance(res, HybridResult)
    assert res.codeword == w
    assert res.locally_repaired == [8]
    assert res.globally_repaired == [0, 1]
    assert res.symbols_read == 39


def test_hybrid_all_local_when_holes_are_spread(code75):
    rng = SplitMix64(61)
    w = random_codeword(code75, rng)
    received: list = list(w)
    for p in (2, 9, 20):  # three different cells
        received[p] = None
    res = hybrid_decode(code75, received)
    assert res.codeword == w
    assert sorted(res.locally_repaired) == [2, 9, 20]
    assert res.globally_repaired == []
    assert res.symbols_read == 15


def test_hybrid_recovers_every_pattern_up_to_three_erasures(code75):
    """Structural sweep: any 1, 2, or 3 erasures always decode, because
    every 3-column subset of the parity check is independent."""
    rng = SplitMix64(70)
    w = random_codeword(code75, rng)
    for t in (1, 2, 3):
        for holes in combinations(range(36), t):
            received: list = list(w)
            for p in holes:
                received[p] = None
            assert hybrid_decode(code75, received).codeword == w


def test_hybrid_ambiguous_on_bad_four_pattern(code75):
    rng = SplitMix64(80)
    w = random_codeword(code75, rng)
    received: list = list(w)
    for p in BAD_SUPPORT_7_5:
        received[p] = None
    with pytest.raises(AmbiguousErasuresError):
        hybrid_decode(code75, received)


def test_hybrid_refuses_a_word_of_the_wrong_length(code75):
    """Checked before the local pass: a short word used to raise IndexError
    there, and a long one came back as a 37-symbol "codeword"."""
    w = random_codeword(code75, SplitMix64(90))
    for word in (w[:-1], w + [0]):
        word[3] = None
        with pytest.raises(LengthMismatchError) as exc:
            hybrid_decode(code75, word)
        assert str(exc.value) == f"word length {len(word)} != n = 36"


# --- the grid paths against their references, on every field kind ---------

# prime (7,5), (13,5), (17,7); characteristic 2 (8,6), (16,4); odd
# extensions (9,3), (27,12)
GRID_INSTANCES = [(7, 5), (13, 5), (17, 7), (8, 6), (16, 4), (9, 3), (27, 12)]


@lru_cache(maxsize=None)
def built(q, r):
    return Code.build(Field(*{8: (2, 3), 9: (3, 2), 16: (2, 4), 27: (3, 3)}.get(q, (q, 1))), r)


def verdict(decode, *args):
    """The decoded word, or the error's class and message."""
    try:
        return decode(*args)
    except LrcError as exc:
        return type(exc), str(exc)


def assert_decoders_agree(code, received):
    """erasure_decode on the sparse dual against the dense oracle on all of
    H; returns the shared verdict."""
    ours = verdict(erasure_decode, code, received)
    assert ours == verdict(oracle_erasure_decode, code.field, code.parity_check_matrix, received)
    return ours


def erased(word, positions):
    out = list(word)
    for p in positions:
        out[p] = None
    return out


@pytest.mark.parametrize("q,r", GRID_INSTANCES)
def test_code_encode_equals_generic_product(q, r):
    code = built(q, r)
    f, g = code.field, code.generator_matrix
    rng = SplitMix64(q * 100 + r)
    messages = [[rng.randbelow(q) for _ in range(code.k)] for _ in range(5)]
    messages.append([0] * code.k)
    for u in range(code.k):
        one_hot = [0] * code.k
        one_hot[u] = 1 + u % (q - 1)
        messages.append(one_hot)
    for m in messages:
        assert code.encode(m) == encode(f, g, m)
    with pytest.raises(LengthMismatchError) as exc:
        code.encode([0] * (code.k - 1))
    assert str(exc.value) == f"message length {code.k - 1} != k = {code.k}"


@pytest.mark.parametrize("q,r", [(7, 5), (9, 3)])
def test_erasure_decode_agrees_with_dense_oracle_on_every_small_pattern(q, r):
    code = built(q, r)
    w = random_codeword(code, SplitMix64(q))
    for t in (1, 2, 3):
        for holes in combinations(range(code.n), t):
            assert assert_decoders_agree(code, erased(w, holes)) == w


def test_erasure_decode_agrees_with_dense_oracle_on_weight4_supports(code75):
    w = random_codeword(code75, SplitMix64(3))
    family = oracle_weight4_supports(7, 5)
    assert len(family) == 54
    for support in family:
        kind, _ = assert_decoders_agree(code75, erased(w, support))
        assert kind is AmbiguousErasuresError


@pytest.mark.parametrize("q,r", [(13, 5), (16, 4), (27, 12)])
def test_erasure_decode_agrees_with_dense_oracle_on_four_and_five_erasures(q, r):
    """Uniform patterns, and patterns that put two erasures in each of two
    cells (plus one more for five), which only the global solve can fill."""
    code = built(q, r)
    rng = SplitMix64(q * 10 + r)
    size = r + 1
    w = random_codeword(code, rng)
    outcomes = set()
    for t in (4, 5):
        for _ in range(12):
            outcomes.add(assert_decoders_agree(code, erased(w, rng.sample_sorted(code.n, t))) == w)
            c1, c2 = rng.sample_sorted(code.n // size, 2)
            holes = {c * size + s for c in (c1, c2) for s in rng.sample_sorted(size, 2)}
            while len(holes) < t:
                holes.add(rng.randbelow(code.n))
            got = assert_decoders_agree(code, erased(w, sorted(holes)))
            outcomes.add(got == w or got[0])
    assert True in outcomes


def test_erasure_decode_agrees_with_dense_oracle_on_corrupt_survivors(code75):
    """A corrupt kept symbol in an erased cell, then in a cell without
    erasures. Five erasures, three in one cell and two in another, use up
    all three dense rows, so only the local parity of the corrupt symbol's
    own cell can refuse that word."""
    f = code75.field
    w = random_codeword(code75, SplitMix64(29))
    assert assert_decoders_agree(code75, erased(w, [0, 1, 2, 6, 7])) == w
    for holes, corrupt in (([0, 1], 4), ([0, 1], 20), ([0, 1, 2, 6, 7], 20)):
        received = erased(w, holes)
        received[corrupt] = f.add(received[corrupt], 1)
        kind, _ = assert_decoders_agree(code75, received)
        assert kind is UndecodableError


def test_a_corrupt_survivor_is_refused_when_nothing_is_left_to_solve(code75):
    """One erasure, repaired locally, beside a corrupt kept symbol in its own
    cell or in another, and a corrupt word without erasures. hybrid_decode
    used to return each as a non-codeword, and erasure_decode the last."""
    f = code75.field
    w = random_codeword(code75, SplitMix64(29))
    refusal = (UndecodableError, "kept symbols are not consistent with any codeword")
    for holes, corrupt in (([0], 4), ([0], 20), ([], 20)):
        received = erased(w, holes)
        received[corrupt] = f.add(received[corrupt], 1)
        assert verdict(hybrid_decode, code75, received) == refusal
        assert assert_decoders_agree(code75, received) == refusal


def test_erasure_decode_agrees_with_dense_oracle_on_edge_counts(code75):
    w = random_codeword(code75, SplitMix64(31))
    assert assert_decoders_agree(code75, list(w)) == w
    kind, message = assert_decoders_agree(code75, erased(w, range(10)))
    assert kind is TooManyErasuresError
    assert message == "10 erasures exceed the redundancy n-k = 9"
    kind, _ = assert_decoders_agree(code75, list(w)[:-1])
    assert kind is LengthMismatchError


def test_a_word_that_passes_every_local_check_is_refused_by_the_dense_rows(
    code75, monkeypatch
):
    """Nothing left to solve: hybrid_decode checks the local and dense
    syndromes itself, without erasure_decode. A weight-2 error inside one
    cell that its local parity cannot see is below the distance, so a dense
    row refuses it, with erasure_decode's error and message."""
    f = code75.field
    w = random_codeword(code75, SplitMix64(37))
    local = code75.domain.local_parity
    received = erased(w, [8])
    received[0] = f.add(received[0], local[1])
    received[1] = f.sub(received[1], local[0])
    assert verdict(erasure_decode, code75, received)[0] is UndecodableError

    def no_solve(code, word):
        raise AssertionError("erasure_decode called with nothing left to solve")

    monkeypatch.setattr("lrc5.codec.erasure_decode", no_solve)
    refusal = (UndecodableError, "kept symbols are not consistent with any codeword")
    assert verdict(hybrid_decode, code75, received) == refusal
    assert hybrid_decode(code75, erased(w, [8])).codeword == w


# --- correct_error against the dense syndrome search ------------------------


def errored(word, field, errors):
    out = list(word)
    for pos, e in errors:
        out[pos] = field.add(out[pos], e)
    return out


def assert_correctors_agree(code, received):
    """correct_error against the dense syndrome search of the oracle at
    t_max=1; returns the shared verdict."""
    ours = verdict(correct_error, code, received)
    h = code.parity_check_matrix
    assert ours == verdict(oracle_error_correct, code.field, h, received, 1)
    return ours


def test_correct_error_agrees_with_the_oracle_on_every_one_and_two_error_word(code75):
    f = code75.field
    w = random_codeword(code75, SplitMix64(45))
    values = range(1, 7)
    for pos in range(36):
        for e in values:
            assert assert_correctors_agree(code75, errored(w, f, [(pos, e)])) == w
    refusal = (UndecodableError, "no error pattern of weight <= 1 matches the syndrome")
    for p1, p2 in combinations(range(36), 2):
        for e1 in values:
            for e2 in values:
                received = errored(w, f, [(p1, e1), (p2, e2)])
                assert assert_correctors_agree(code75, received) == refusal


@pytest.mark.parametrize("q,r", [(5, 3), (8, 6), (9, 3), (13, 5), (16, 4)])
def test_correct_error_agrees_with_the_oracle_on_seeded_words(q, r):
    code = built(q, r)
    rng = SplitMix64(q * 1000 + r)
    outcomes = set()
    for t in (0, 1, 1, 2, 2, 3) * 10:
        w = random_codeword(code, rng)
        errors = [(pos, 1 + rng.randbelow(q - 1)) for pos in rng.sample_sorted(code.n, t)]
        got = assert_correctors_agree(code, errored(w, code.field, errors))
        outcomes.add((t, got == w or got[0]))
    assert {(0, True), (1, True), (2, UndecodableError)} <= outcomes
