"""Generator portability: fixed reference vectors and bound/derivation laws."""

import pickle
import sys
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestscope.rng import SplitMix64, _words, derive_seed, stream

_MASK64 = (1 << 64) - 1


class ScalarSplitMix64:
    """The reference: SplitMix64 one output at a time, with the draws on top."""

    def __init__(self, seed):
        self.state = seed & _MASK64

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n):
        mask = (1 << (n - 1).bit_length()) - 1 if n > 1 else 0
        while True:
            v = self.next_u64() & mask
            if v < n:
                return v

    def below_many(self, n, k):
        return [self.below(n) for _ in range(k)]

    def sample_indices(self, n, k):
        idx = list(range(n))
        for i in range(k):
            j = i + self.below(n - i)
            idx[i], idx[j] = idx[j], idx[i]
        return idx[:k]


# seeds anywhere, and near the 2**64 wrap of the state
seeds = st.one_of(
    st.integers(0, _MASK64),
    st.integers(0, 5000).map(lambda d: _MASK64 - d),
    st.integers(0, 5000),
)
# bounds 1, 2**k, 2**k + 1, and large (past 2**64 every raw output is kept)
bounds = st.one_of(
    st.just(1),
    st.integers(0, 70).map(lambda k: 1 << k),
    st.integers(0, 70).map(lambda k: (1 << k) + 1),
    st.integers(1, 2**80),
)
# counts within a few blocks, and up to past the widest fill of 2,048 outputs
counts = st.one_of(st.integers(0, 40), st.integers(0, 3000))


def test_reference_vector():
    # published splitmix64 outputs for seed 1234567
    s = SplitMix64(1234567)
    assert [s.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_zero_seed_vector():
    s = SplitMix64(0)
    first = s.next_u64()
    assert first == 16294208416658607535
    assert 0 <= first < 2**64


def test_derive_seed_is_stable():
    # frozen: changing any of (master, scope, index) changes the stream
    assert derive_seed(9, "x", 0) == 12439602892119463875
    seen = {derive_seed(m, s, i) for m in (0, 1) for s in ("a", "b") for i in (0, 1)}
    assert len(seen) == 8


def test_stream_equals_seeded_generator():
    a = stream(7, "scope", 3)
    b = SplitMix64(derive_seed(7, "scope", 3))
    assert [a.next_u64() for _ in range(4)] == [b.next_u64() for _ in range(4)]


@pytest.mark.property_based
@given(st.integers(0, 2**64 - 1), st.integers(1, 10_000))
@settings(max_examples=100)
def test_below_in_range(seed, n):
    r = SplitMix64(seed)
    for _ in range(8):
        assert 0 <= r.below(n) < n


@pytest.mark.property_based
@given(st.integers(0, 2**64 - 1), st.integers(2, 50), st.integers(0, 50))
@settings(max_examples=100)
def test_sample_indices_distinct_sorted_draw(seed, pool, k):
    k = min(k, pool)
    r = SplitMix64(seed)
    got = r.sample_indices(pool, k)
    assert len(got) == k
    assert len(set(got)) == k
    assert all(0 <= i < pool for i in got)


def test_below_rejects_bad_bounds():
    r = SplitMix64(1)
    with pytest.raises(ValueError):
        r.below(0)


@pytest.mark.property_based
@given(seeds, st.lists(st.integers(1, 3000), max_size=4))
@settings(max_examples=100, deadline=None)
def test_raw_outputs_match_the_scalar_mixer(seed, chunks):
    r, ref = SplitMix64(seed), ScalarSplitMix64(seed)
    for k in chunks:
        got = [r.next_u64() for _ in range(k)] if k < 50 else r.below_many(1 << 64, k)
        assert got == [ref.next_u64() for _ in range(k)]


@pytest.mark.property_based
@given(seeds, bounds, counts)
@settings(max_examples=150, deadline=None)
def test_below_many_matches_scalar_draws(seed, n, k):
    r, ref = SplitMix64(seed), ScalarSplitMix64(seed)
    assert r.below_many(n, k) == ref.below_many(n, k)
    # the same position afterwards: the next output agrees too
    assert r.next_u64() == ref.next_u64()


@pytest.mark.property_based
@given(
    seeds,
    st.lists(
        st.one_of(
            st.tuples(st.just("next_u64")),
            st.tuples(st.just("below"), bounds),
            st.tuples(st.just("below_many"), bounds, counts),
            st.integers(0, 300).flatmap(
                lambda n: st.tuples(st.just("sample_indices"), st.just(n), st.integers(0, n))
            ),
            st.tuples(st.just("pickle")),
        ),
        max_size=12,
    ),
)
@settings(max_examples=150, deadline=None)
def test_interleaved_draws_match_the_scalar_interleaving(seed, calls):
    r, ref = SplitMix64(seed), ScalarSplitMix64(seed)
    for name, *args in calls:
        if name == "pickle":  # a generator pickled mid-stream continues it
            r = pickle.loads(pickle.dumps(r))
            continue
        assert getattr(r, name)(*args) == getattr(ref, name)(*args)
    assert r.next_u64() == ref.next_u64()


def test_pickled_generator_continues_the_stream():
    r = SplitMix64(2**64 - 3)
    r.below_many(7, 40)  # part way into a block
    copy = pickle.loads(pickle.dumps(r))
    assert copy.below_many(1000, 100) == r.below_many(1000, 100)
    assert copy.sample_indices(50, 20) == r.sample_indices(50, 20)


@pytest.mark.property_based
@given(seeds, counts)
@settings(max_examples=100, deadline=None)
def test_big_endian_lanes_read_back_the_scalar_stream(seed, k):
    # a big-endian host reads each little-endian 8-byte word of a lane
    # byte-reversed; reversing every word here and claiming a big-endian
    # host drives `_words`' byte swap back to the stream's values
    lanes = SplitMix64(seed)._take(k)
    swapped = array("Q", lanes)
    swapped.byteswap()
    ref = ScalarSplitMix64(seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "byteorder", "big")
        got = _words(swapped.tobytes())
    assert got == [ref.next_u64() for _ in range(k)]
