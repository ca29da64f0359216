"""Deterministic pseudo-random streams for reproducible trials.

The generator is SplitMix64 (Steele, Lea & Flood: fixed-increment 64-bit
state with a finalizing mixer).  It is tiny, well documented, and produces
the same stream on every platform and Python version, which is the whole
point: trial draws must be byte-stable across runs, machines, and worker
counts.  Bounded draws use bitmask rejection sampling, so they are unbiased
and consume a deterministic-given-the-stream number of raw outputs.

SplitMix64 is counter-based: raw output i is mix(seed + (i+1)·γ mod 2**64).
So raw outputs are computed in blocks rather than one at a time: a block is
one Python int of 128-bit lanes, lane i holding the state of output i, and
the mixer's few big-int operations run on every lane at once.  The lane
mask is applied after each xor-shift and each multiply, so no bit crosses
into the next lane (a 64-bit by 64-bit product fits in 128), and the lanes
are read back as little-endian bytes, so a big-endian host gets the same
stream.  Every draw takes its raw outputs from one buffer, in stream
order: values and positions are those of the one-at-a-time generator, and
blocks only change when the work is done.

Per-trial streams are derived, not split: seed = first 8 bytes (big endian)
of SHA-256 over the UTF-8 encoding of "forestscope/rng", the master seed,
a scope label, and the trial index, joined by 0x1f separators.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from functools import lru_cache

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Lanes per block, by measurement (2-vCPU x86-64 VM, CPython 3.11): a block
# costs a few microseconds plus about 0.1 us per lane, against 0.5 us per
# output one at a time.  Drawing 20 of 32 or of 256 rows without
# replacement, and 1,031 rows with it, was fastest with blocks of 16; 8
# was up to 20% slower, 32 up to 5% and 64 up to 40%.  A request for more
# outputs than one block fills whole blocks in one int, up to _MAX_LANES at
# once, where the cost per lane is lowest.
_BLOCK = 16
_MAX_LANES = 128 * _BLOCK


@lru_cache(maxsize=16)
def _lane_constants(lanes: int) -> tuple[int, int, int]:
    """Per-lane 1, (i+1)·γ mod 2**64 and 2**64 - 1, for lanes i < `lanes`."""
    pad = bytes(8)
    ones = int.from_bytes((b"\x01" + bytes(15)) * lanes, "little")
    low = int.from_bytes((b"\xff" * 8 + pad) * lanes, "little")
    steps = b"".join(
        ((i * _GAMMA) & _MASK64).to_bytes(8, "little") + pad for i in range(1, lanes + 1)
    )
    return ones, int.from_bytes(steps, "little"), low


# _BYTE_MASKS[j] maps a byte to its low j bits, for bytes.translate
_BYTE_MASKS = [bytes(range(1 << j)) * (256 >> j) for j in range(9)]


def _words(lanes: bytes) -> list[int]:
    """The raw outputs held in 16-byte little-endian lanes."""
    raw = array("Q", lanes)
    if sys.byteorder == "big":
        raw.byteswap()
    return raw[::2].tolist()


class SplitMix64:
    """64-bit SplitMix generator; seed is any int (taken mod 2**64)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64  # the state of the last computed output
        self._buf = b""  # the last block's lanes; those from byte _pos on are unread
        self._pos = 0

    def __reduce__(self):
        # pickles as the one-at-a-time generator at the same stream position
        unread = (len(self._buf) - self._pos) // 16
        return (SplitMix64, ((self._state - unread * _GAMMA) & _MASK64,))

    def _block(self, lanes: int) -> bytes:
        """The next `lanes` raw outputs, computed at once; advances the state."""
        ones, steps, low = _lane_constants(lanes)
        z = (self._state * ones + steps) & low
        self._state = (self._state + lanes * _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
        z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
        z ^= z >> 31  # what the next lane shifts in lands above bit 63, unread
        return z.to_bytes(16 * lanes, "little")

    def _take(self, k: int) -> bytes:
        """The next k raw outputs as 16-byte little-endian lanes, each output
        in a lane's low 8 bytes; every draw reads the stream here."""
        pos = self._pos
        out = self._buf[pos : pos + 16 * k]
        self._pos = pos + len(out)
        while len(out) < 16 * k:
            need = k - len(out) // 16
            lanes = min(-(-need // _BLOCK) * _BLOCK, _MAX_LANES)
            self._buf = self._block(lanes)
            self._pos = 16 * min(need, lanes)
            out += self._buf[: self._pos]
        return out

    def _low_bits(self, k: int, mask: int) -> list[int]:
        """The next k raw outputs, each cut to `mask` (a power of two less one)."""
        if mask < 256:  # the low byte of each lane is all that is read
            return list(self._take(k)[::16].translate(_BYTE_MASKS[mask.bit_length()]))
        return [r & mask for r in _words(self._take(k))]

    def next_u64(self) -> int:
        return _words(self._take(1))[0]

    def below(self, n: int) -> int:
        """Uniform int in [0, n) via bitmask rejection (unbiased)."""
        return self.below_many(n, 1)[0]

    def below_many(self, n: int, k: int) -> list[int]:
        """k draws of `below(n)`, in order, from the same raw outputs."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        mask = (1 << (n - 1).bit_length()) - 1
        out = self._low_bits(k, mask)
        if mask >= n:  # n is not a power of two: reject, then draw for the rejects
            out = [v for v in out if v < n]
            while len(out) < k:
                out += [v for v in self._low_bits(k - len(out), mask) if v < n]
        return out

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), uniform over subsets.

        Partial Fisher-Yates; the result is in selection order.  Step i
        draws below(n - i); each raw output read settles at most one step,
        so reading as many as there are steps left never reads ahead.
        """
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n}")
        idx = list(range(n))
        i = 0
        while i < k:
            lanes = self._take(k - i)
            # no bound exceeds n, and a bound up to 256 reads only the low byte
            for r in lanes[::16] if n <= 256 else _words(lanes):
                bound = n - i
                v = r & ((1 << (bound - 1).bit_length()) - 1)
                if v < bound:
                    j = i + v
                    idx[i], idx[j] = idx[j], idx[i]
                    i += 1
        return idx[:k]


def derive_seed(master_seed: int, scope: str, index: int) -> int:
    """Collision-resistant 64-bit seed for one trial stream."""
    payload = "\x1f".join(["forestscope/rng", str(master_seed), scope, str(index)])
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def stream(master_seed: int, scope: str, index: int) -> SplitMix64:
    return SplitMix64(derive_seed(master_seed, scope, index))
