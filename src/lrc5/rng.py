"""splitmix64: a tiny, widely documented 64-bit generator for seeded runs.

Chosen over the stdlib Mersenne Twister so that sampled verification and
simulation reproduce bit for bit from the recorded seed on any platform and
interpreter version. Reports record the generator name next to the seed.

The k-th output after seed s is mix(s + k*gamma mod 2^64), so outputs are
computed LANES at a time: one Python int holds LANES lanes of 128 bits, lane
k holding state k of the block in its low half, and each step of mix runs
once on the whole int. Lanes cannot interfere. A lane's state and every
masked intermediate are below 2^64, so adding a step below 2^64 or
multiplying by a 64-bit constant stays below 2^128, inside the lane; a
right shift moves bits of the next lane only into this lane's upper half;
and the lane mask clears that upper half before the next multiplication.
The block is read back as the low little-endian 64-bit word of each lane,
skipping its upper half. The stream is the scalar recurrence's, bit for bit;
the methods only decide how many of its words they consume.
"""

import struct

RNG_NAME = "splitmix64"

#: outputs computed per block
LANES = 256

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_ONES = sum(1 << (128 * k) for k in range(LANES))
_LOW = _ONES * _MASK
#: lane k (from 0) steps its block's start state by (k+1)*gamma
_STEPS = sum((((k + 1) * _GAMMA) & _MASK) << (128 * k) for k in range(LANES))
_WORDS = struct.Struct("<" + "Q8x" * LANES)


def _limit(n: int) -> int:
    """Draws at or above the limit are rejected, so u % n stays unbiased."""
    if not 0 < n <= 1 << 64:
        raise ValueError("bound must lie in [1, 2^64]")
    return (1 << 64) - ((1 << 64) % n)


class SplitMix64:
    __slots__ = ("_s", "_buf", "_pos")

    def __init__(self, seed: int):
        self._s = seed & _MASK
        self._buf: list[int] = []
        self._pos = 0

    def _take(self, count: int) -> list[int]:
        """The next min(count, rest of the block) words of the stream."""
        pos = self._pos
        if pos == len(self._buf):
            z = (self._s * _ONES + _STEPS) & _LOW
            self._s = (self._s + LANES * _GAMMA) & _MASK
            z = (((z ^ (z >> 30)) & _LOW) * 0xBF58476D1CE4E5B9) & _LOW
            z = (((z ^ (z >> 27)) & _LOW) * 0x94D049BB133111EB) & _LOW
            z ^= z >> 31
            self._buf = _WORDS.unpack(z.to_bytes(16 * LANES, "little"))
            pos = 0
        chunk = self._buf[pos:pos + count]
        self._pos = pos + len(chunk)
        return chunk

    def below(self, n: int, count: int) -> list[int]:
        """count uniform draws from [0, n), as count randbelow(n) calls
        would make them; below(2^64, count) returns raw words."""
        limit = _limit(n)
        out: list[int] = []
        while len(out) < count:
            # every word taken is consumed: at most count - len(out) accept
            chunk = self._take(count - len(out))
            if max(chunk) < limit:
                out += [u % n for u in chunk]
            else:
                out += [u % n for u in chunk if u < limit]
        return out

    def randbelow(self, n: int) -> int:
        """Uniform draw from [0, n); rejection keeps it unbiased."""
        return self.below(n, 1)[0]

    def sample_sorted(self, n: int, k: int) -> list[int]:
        """k distinct indices from [0, n), ascending."""
        if not 0 <= k <= n:
            raise ValueError("sample size out of range")
        limit = _limit(n) if n else 0  # n = 0 leaves only k = 0
        # each word adds at most one index, so none is drawn past the k-th
        chosen = {u % n for u in self._take(k) if u < limit}
        while len(chosen) < k:
            chosen.update([u % n for u in self._take(k - len(chosen)) if u < limit])
        return sorted(chosen)
