"""Deterministic pseudo-random streams for reproducible trials.

The generator is SplitMix64 (Steele, Lea & Flood: fixed-increment 64-bit
state with a finalizing mixer).  It is tiny, well documented, and produces
the same stream on every platform and Python version, which is the whole
point: trial draws must be byte-stable across runs, machines, and worker
counts.  Bounded draws use bitmask rejection sampling, so they are unbiased
and consume a deterministic-given-the-stream number of raw outputs.

Per-trial streams are derived, not split: seed = first 8 bytes (big endian)
of SHA-256 over the UTF-8 encoding of "forestscope/rng", the master seed,
a scope label, and the trial index, joined by 0x1f separators.
"""

from __future__ import annotations

import hashlib

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """64-bit SplitMix generator; seed is any int (taken mod 2**64)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform int in [0, n) via bitmask rejection (unbiased)."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        mask = (1 << (n - 1).bit_length()) - 1 if n > 1 else 0
        while True:
            v = self.next_u64() & mask
            if v < n:
                return v

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), uniform over subsets.

        Partial Fisher-Yates; the result is in selection order.
        """
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n}")
        idx = list(range(n))
        for i in range(k):
            j = i + self.below(n - i)
            idx[i], idx[j] = idx[j], idx[i]
        return idx[:k]


def derive_seed(master_seed: int, scope: str, index: int) -> int:
    """Collision-resistant 64-bit seed for one trial stream."""
    payload = "\x1f".join(["forestscope/rng", str(master_seed), scope, str(index)])
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def stream(master_seed: int, scope: str, index: int) -> SplitMix64:
    return SplitMix64(derive_seed(master_seed, scope, index))
