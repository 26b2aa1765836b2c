import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrc5.rng import LANES, RNG_NAME, SplitMix64

MASK = (1 << 64) - 1


def reference_stream(seed, count):
    """The published splitmix64 recurrence, restated independently."""
    s = seed & MASK
    out = []
    for _ in range(count):
        s = (s + 0x9E3779B97F4A7C15) & MASK
        z = s
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append((z ^ (z >> 31)) & MASK)
    return out


@pytest.mark.parametrize("seed", [0, 1, 77, 1234567, 2**64 - 1])
def test_stream_matches_published_recurrence(seed):
    rng = SplitMix64(seed)
    assert [rng.randbelow(2**64) for _ in range(8)] == reference_stream(seed, 8)


def test_rng_name_tag():
    assert RNG_NAME == "splitmix64"


def test_seed_wraps_to_64_bits():
    assert SplitMix64(2**64 + 5).below(2**64, 3) == SplitMix64(5).below(2**64, 3)


def test_randbelow_range_and_determinism():
    a = SplitMix64(42)
    b = SplitMix64(42)
    draws = [a.randbelow(7) for _ in range(500)]
    assert draws == [b.randbelow(7) for _ in range(500)]
    assert set(draws) == set(range(7))


def test_randbelow_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(0).randbelow(0)


def test_sample_sorted_properties():
    rng = SplitMix64(9)
    for _ in range(50):
        s = rng.sample_sorted(36, 4)
        assert s == sorted(set(s))
        assert len(s) == 4
        assert all(0 <= x < 36 for x in s)
    assert SplitMix64(3).sample_sorted(10, 0) == []
    assert SplitMix64(3).sample_sorted(5, 5) == [0, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        SplitMix64(3).sample_sorted(4, 5)


class ScalarSplitMix64:
    """The published recurrence one word at a time, with the rejection
    sampling the generator's methods are specified by."""

    def __init__(self, seed):
        self.s = seed & MASK

    def next_u64(self):
        u = reference_stream(self.s, 1)[0]
        self.s = (self.s + 0x9E3779B97F4A7C15) & MASK
        return u

    def randbelow(self, n):
        limit = (1 << 64) - (1 << 64) % n
        while (u := self.next_u64()) >= limit:
            pass
        return u % n

    def below(self, n, count):
        return [self.randbelow(n) for _ in range(count)]

    def sample_sorted(self, n, k):
        chosen = set()
        while len(chosen) < k:
            chosen.add(self.randbelow(n))
        return sorted(chosen)


BOUNDS = [1, 2, 7, 144, 2**32 + 15, 2**63 + 1, 2**64 - 1, 2**64]
CALLS = st.one_of(
    st.tuples(st.just("randbelow"), st.sampled_from(BOUNDS)),
    st.tuples(st.just("below"), st.sampled_from(BOUNDS), st.integers(0, 3 * LANES + 10)),
    st.tuples(st.just("sample_sorted"), st.sampled_from([4, 36, 144, 2**63 + 1]), st.integers(0, 4)),
    st.tuples(st.just("sample_sorted"), st.just(64), st.integers(0, 64)),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 1, 2**64 - 1, 2**64 + 5]), st.lists(CALLS, max_size=12))
def test_interleaved_calls_follow_the_scalar_stream(seed, calls):
    """Draws that cross block boundaries, reject about half their words
    (2^63 + 1) or run past 3 * LANES words consume the scalar stream in
    the same order."""
    rng, ref = SplitMix64(seed), ScalarSplitMix64(seed)
    for name, *args in calls:
        assert getattr(rng, name)(*args) == getattr(ref, name)(*args)
    assert rng.randbelow(2**64) == ref.next_u64()


@pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**64 + 5])
def test_long_runs_cross_block_boundaries(seed):
    rng, ref = SplitMix64(seed), ScalarSplitMix64(seed)
    assert [rng.randbelow(2**64) for _ in range(5)] == ref.below(2**64, 5)
    assert rng.below(2**63 + 1, 3 * LANES + 1) == ref.below(2**63 + 1, 3 * LANES + 1)
    assert rng.below(2**64, 3 * LANES) == ref.below(2**64, 3 * LANES)
    assert [rng.sample_sorted(144, 4) for _ in range(LANES)] == [
        ref.sample_sorted(144, 4) for _ in range(LANES)
    ]


def test_bounds_above_two_to_the_64_are_refused():
    rng = SplitMix64(1)
    for call in (lambda: rng.randbelow(2**64 + 1), lambda: rng.below(2**64 + 1, 3),
                 lambda: rng.sample_sorted(2**64 + 1, 2), lambda: rng.sample_sorted(2**70, 0),
                 lambda: rng.randbelow(0), lambda: rng.below(0, 1), lambda: rng.below(-3, 0)):
        with pytest.raises(ValueError):
            call()
    assert rng.sample_sorted(0, 0) == [] == rng.below(5, 0)
    assert rng.randbelow(2**64) == reference_stream(1, 1)[0]
