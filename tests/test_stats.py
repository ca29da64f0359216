"""Summary statistics over trial records: aggregation, pairing, policy."""

import itertools
import math
import operator
import statistics
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestscope import (
    CardinalityBucket,
    ForestSummary,
    TrialRecord,
    aggregate_by_cardinality,
    best_cardinality,
    bin_by_path_length,
    derive_policy,
    group_by_min_size,
    pairwise,
    stats,
)
from forestscope.stats import pairwise_tables


def rec(trial_id, buckets, test_weight, path_bins=None, path_bin_width=None):
    """TrialRecord from {cardinality: (count, correct, misc_total, hist)}."""
    built = {
        c: CardinalityBucket(
            tree_count=n,
            correct_count=corr,
            misclassified_total=misc,
            error_hist=dict(hist) if hist is not None else None,
        )
        for c, (n, corr, misc, hist) in buckets.items()
    }
    summary = ForestSummary(
        buckets=built,
        test_weight=test_weight,
        path_bin_width=path_bin_width,
        path_bins=path_bins,
    )
    return TrialRecord(
        trial_id=trial_id,
        seed=trial_id,
        n_train=4,
        n_test=test_weight,
        min_size=min(built) if built else None,
        summary=summary,
    )


def test_aggregate_macro_averages_over_present_trials():
    # c=2 present in both trials, c=3 only in the first
    t1 = rec(0, {2: (2, 1, 4, {0: 1, 4: 1}), 3: (1, 0, 2, {2: 1})}, 4)
    t2 = rec(1, {2: (1, 0, 2, {2: 1})}, 4)
    rows = {r.node_cardinality: r for r in aggregate_by_cardinality([t1, t2])}
    # per-trial means at c=2: 4/(2*4)=0.5 and 2/(1*4)=0.5
    assert rows[2].trials_present == 2
    assert rows[2].mean_error == pytest.approx(0.5)
    assert rows[2].mean_tree_count == pytest.approx(1.5)
    assert rows[2].mean_correct_count == pytest.approx(0.5)
    # c=3 averages over the single trial where it occurs
    assert rows[3].trials_present == 1
    assert rows[3].mean_error == pytest.approx(0.5)
    assert rows[3].ci_half_width == 0.0


def test_aggregate_ci_uses_sample_stdev():
    trials = [
        rec(0, {2: (1, 0, 0, {0: 1})}, 4),   # error 0.0
        rec(1, {2: (1, 0, 2, {2: 1})}, 4),   # error 0.5
        rec(2, {2: (1, 0, 4, {4: 1})}, 4),   # error 1.0
    ]
    row = aggregate_by_cardinality(trials)[0]
    want = 1.96 * (0.5 / math.sqrt(3))  # stdev of {0, .5, 1} is 0.5 with ddof=1
    assert row.ci_half_width == pytest.approx(want)


def test_aggregate_is_order_invariant():
    trials = [
        rec(i, {2 + (i % 3): (1 + i, i % 2, i, {i: 1 + i})}, 10) for i in range(9)
    ]
    a = aggregate_by_cardinality(trials)
    b = aggregate_by_cardinality(list(reversed(trials)))
    assert a == b


def test_group_by_min_size_partitions_trials():
    t1 = rec(0, {2: (1, 1, 0, {0: 1}), 4: (1, 0, 1, {1: 1})}, 4)
    t2 = rec(1, {3: (1, 0, 2, {2: 1})}, 4)
    t3 = rec(2, {2: (2, 0, 3, {1: 1, 2: 1})}, 4)
    empty = rec(3, {}, 4)
    groups = group_by_min_size([t1, t2, t3, empty])
    assert sorted(groups) == [2, 3]
    assert groups[2].trial_count == 2
    assert groups[3].trial_count == 1
    rows = {r.node_cardinality: r for r in groups[2].rows}
    assert rows[4].trials_present == 1


def test_group_by_min_size_keeps_a_pure_training_set():
    # a one-class train set fits the single-leaf tree: min_size 0
    pure = rec(0, {0: (1, 1, 0, {0: 1})}, 4)
    groups = group_by_min_size([pure])
    assert sorted(groups) == [0]
    assert groups[0].trial_count == 1


def test_pairwise_probabilities_from_known_histograms():
    # c=2: errors {0,1}; c=3: errors {0,0,2} -> over 6 pairs:
    # smaller-better pairs: (0 vs 2)x? compare each 2-tree err with each 3-tree err
    t = rec(0, {2: (2, 1, 1, {0: 1, 1: 1}), 3: (3, 2, 2, {0: 2, 2: 1})}, 4)
    rows = {r.diff: r for r in pairwise([t], baseline="all")}
    r = rows[1]
    assert r.pair_count == 6
    # pairs (small_err, large_err): (0,0)x2 eq, (0,2) small, (1,0)x2 large, (1,2) small
    assert (r.smaller_count, r.equal_count, r.larger_count) == (2, 2, 2)
    assert r.p_smaller_exact == Fraction(1, 3)
    assert r.p_equal_exact == Fraction(1, 3)
    assert r.p_larger_exact == Fraction(1, 3)
    assert r.p_smaller_exact + r.p_equal_exact + r.p_larger_exact == 1


def test_pairwise_probabilities_sum_to_one_exactly():
    trials = [
        rec(0, {2: (2, 1, 1, {0: 1, 1: 1}), 3: (3, 2, 2, {0: 2, 2: 1}), 5: (1, 0, 3, {3: 1})}, 4),
        rec(1, {2: (1, 1, 0, {0: 1}), 4: (2, 0, 5, {2: 1, 3: 1})}, 4),
    ]
    for row in pairwise(trials, baseline="all"):
        assert row.p_smaller_exact + row.p_equal_exact + row.p_larger_exact == 1
        assert row.p_smaller_better >= 0 and row.p_equal >= 0 and row.p_larger_better >= 0


def test_pairwise_min_baseline_restricts_to_min_size():
    t1 = rec(0, {2: (1, 0, 0, {0: 1}), 3: (1, 0, 4, {4: 1})}, 4)   # min 2
    t2 = rec(1, {3: (1, 0, 0, {0: 1}), 4: (1, 0, 4, {4: 1})}, 4)   # min 3
    rows = {r.diff: r for r in pairwise([t1, t2], baseline="min", min_size_in=(2,))}
    assert rows[1].trials_present == 1   # only the min-2 trial
    assert rows[1].smaller_count == 1 and rows[1].larger_count == 0


def test_pairwise_mixed_denominators_rejected():
    t1 = rec(0, {2: (1, 0, 0, {0: 1}), 3: (1, 0, 1, {1: 1})}, 4)
    t2 = rec(1, {2: (1, 0, 0, {0: 1}), 3: (1, 0, 1, {1: 1})}, 5)
    with pytest.raises(ValueError):
        pairwise([t1, t2], baseline="all")
    with pytest.raises(ValueError):
        bin_by_path_length(
            [
                rec(0, {2: (1, 0, 0, {0: 1})}, 4, path_bins={4: [1, 0]}, path_bin_width=0.5),
                rec(1, {2: (1, 0, 0, {0: 1})}, 5, path_bins={4: [1, 0]}, path_bin_width=0.5),
            ],
            0.5,
        )


def test_pairwise_requires_histograms():
    t = rec(0, {2: (1, 0, 0, None), 3: (1, 0, 1, None)}, 4)
    with pytest.raises(ValueError):
        pairwise([t], baseline="all")


@pytest.mark.property_based
@given(st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_pairwise_matches_brute_force_pair_enumeration(seed):
    from forestscope.rng import SplitMix64

    r = SplitMix64(seed)
    test_weight = 4
    trials = []
    for tid in range(1 + r.below(3)):
        buckets = {}
        for c in range(2, 2 + 1 + r.below(3)):
            hist = {}
            for _ in range(1 + r.below(4)):   # <= 200 trees by construction
                e = r.below(test_weight + 1)
                hist[e] = hist.get(e, 0) + 1
            n = sum(hist.values())
            misc = sum(k * v for k, v in hist.items())
            corr = hist.get(0, 0)
            buckets[c] = (n, corr, misc, hist)
        trials.append(rec(tid, buckets, test_weight))

    got = {r_.diff: r_ for r_ in pairwise(trials, baseline="all")}

    expect: dict[int, list[int]] = {}
    for t in trials:
        cs = sorted(t.summary.buckets)
        for i, j in itertools.combinations(range(len(cs)), 2):
            d = cs[j] - cs[i]
            small = [k for k, v in t.summary.buckets[cs[i]].error_hist.items() for _ in range(v)]
            large = [k for k, v in t.summary.buckets[cs[j]].error_hist.items() for _ in range(v)]
            slot = expect.setdefault(d, [0, 0, 0])
            for a, b in itertools.product(small, large):
                if a < b:
                    slot[0] += 1
                elif a == b:
                    slot[1] += 1
                else:
                    slot[2] += 1
    for d, (s, e, l) in expect.items():
        row = got[d]
        assert (row.smaller_count, row.equal_count, row.larger_count) == (s, e, l)
    assert set(got) == set(expect)


def brute_force_pairwise(trials, baseline, min_size_in):
    """Every tree pair of every chosen trial, tallied one pair at a time."""
    counts, present = {}, {}
    for t in trials:
        if t.min_size is None or (min_size_in is not None and t.min_size not in min_size_in):
            continue
        trees = {
            c: [k for k, v in b.error_hist.items() for _ in range(v)]
            for c, b in t.summary.buckets.items()
            if b.tree_count
        }
        per_diff = {}
        for c1, c2 in itertools.combinations(sorted(trees), 2):
            if baseline == "min" and c1 != t.min_size:
                continue
            slot = per_diff.setdefault(c2 - c1, [0, 0, 0])
            for a, b in itertools.product(trees[c1], trees[c2]):
                slot[0 if a < b else 1 if a == b else 2] += 1
        for diff, tally in per_diff.items():
            counts[diff] = [x + y for x, y in zip(counts.get(diff, [0, 0, 0]), tally)]
            present[diff] = present.get(diff, 0) + 1
    out = {}
    for diff, tally in counts.items():
        probs = [Fraction(x, sum(tally)) for x in tally]
        out[diff] = (*tally, present[diff], *probs)
    return out


@st.composite
def gapped_trials(draw, max_count=3):
    """Trials whose sizes skip values, with errors anywhere in 0..n_test."""
    n_test = draw(st.integers(1, 4))
    trials = []
    for tid in range(draw(st.integers(1, 4))):
        sizes = draw(st.sets(st.integers(1, 9), max_size=4))
        buckets = {}
        for c in sizes:
            hist = draw(
                st.dictionaries(
                    st.integers(0, n_test), st.integers(1, max_count), min_size=1, max_size=3
                )
            )
            n = sum(hist.values())
            buckets[c] = (n, hist.get(0, 0), sum(k * v for k, v in hist.items()), hist)
        trials.append(rec(tid, buckets, n_test))
    return trials


@pytest.mark.property_based
@given(
    trials=gapped_trials(),
    baseline=st.sampled_from(["all", "min"]),
    min_size_in=st.none() | st.sets(st.integers(1, 9), min_size=1, max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_pairwise_matches_brute_force_on_gapped_sizes(trials, baseline, min_size_in):
    got = pairwise(trials, baseline=baseline, min_size_in=min_size_in)
    assert [r.diff for r in got] == sorted(r.diff for r in got)
    assert {
        r.diff: (
            r.smaller_count, r.equal_count, r.larger_count, r.trials_present,
            r.p_smaller_exact, r.p_equal_exact, r.p_larger_exact,
        )
        for r in got
    } == brute_force_pairwise(trials, baseline, min_size_in)


@pytest.mark.property_based
@given(
    trials=gapped_trials(),
    conditions=st.lists(st.sets(st.integers(1, 9), min_size=1, max_size=3), max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_pairwise_tables_match_one_pairwise_call_per_request(trials, conditions):
    requests = [("all", None), ("min", None)] + [("min", c) for c in conditions]
    assert pairwise_tables(trials, requests) == [pairwise(trials, b, k) for b, k in requests]


def test_pairwise_tables_pack_each_chosen_trial_once(monkeypatch):
    packs = Counter()
    columns = stats._columns

    def counted(t):
        packs[t.trial_id] += 1
        return columns(t)

    monkeypatch.setattr(stats, "_columns", counted)
    trials = [
        rec(tid, {m: (1, 1, 0, {0: 1}), m + 1: (1, 0, 1, {1: 1})}, 4)
        for tid, m in enumerate((2, 3, 4))
    ] + [rec(3, {}, 4)]  # an empty forest, chosen by no request
    pairwise_tables(trials, [("min", (2,)), ("min", (2, 3)), ("min", (3,))])
    assert packs == {0: 1, 1: 1}
    packs.clear()
    pairwise_tables(trials, [("all", None), ("min", None), ("min", (4,))])
    assert packs == {0: 1, 1: 1, 2: 1}


@pytest.mark.parametrize("key", [-1, 5])
def test_pairwise_rejects_errors_outside_the_test_set(key):
    t = rec(7, {2: (2, 1, 0, {0: 1, key: 1}), 3: (1, 0, 1, {1: 1})}, 4)
    with pytest.raises(ValueError, match="trial 7"):
        pairwise([t], baseline="all")


def test_pairwise_refuses_negative_counts():
    # packed as is, the -3 would borrow from the next slot and every tally
    # read above it would be wrong
    t = rec(7, {2: (1, 0, 3, {0: 4, 1: -3}), 3: (1, 0, 1, {1: 1})}, 4)
    with pytest.raises(ValueError, match="trial 7 has -3 trees"):
        pairwise([t], baseline="all")


def dot_product_tallies(trials, baseline, min_size_in=None):
    """{diff: (smaller, equal, larger, trials_present)} from per-gap dot products.

    Each trial's error counts are dense rows over every size, n_test + 1
    ints each; size gap g takes three dot products over rows g apart, one
    of them with the smaller side's lower tails.  Exact at any count, and
    independent of `pairwise`'s packing.
    """
    out = {}
    for t in trials:
        if t.min_size is None or (min_size_in is not None and t.min_size not in min_size_in):
            continue
        w = t.n_test + 1
        hists = {c: b.error_hist for c, b in t.summary.buckets.items() if b.tree_count}
        d, n = [], []
        for c in range(min(hists), max(hists) + 1):
            row = [hists.get(c, {}).get(k, 0) for k in range(w)]
            d += row
            n.append(sum(row))
        lead, lead_n = (d, n) if baseline == "all" else (d[:w], n[:1])
        below = []
        for r in range(0, len(lead), w):
            below += itertools.accumulate(lead[r : r + w - 1], initial=0)
        for diff in range(1, len(n)):
            pairs = sum(map(operator.mul, lead_n, n[diff:]))
            if not pairs:
                continue
            larger = d[diff * w : diff * w + len(lead)]
            s = sum(map(operator.mul, below, larger))
            e = sum(map(operator.mul, lead, larger))
            old = out.get(diff, (0, 0, 0, 0))
            out[diff] = (old[0] + s, old[1] + e, old[2] + pairs - s - e, old[3] + 1)
    return out


def _tallies(rows):
    for r in rows:
        n = r.smaller_count + r.equal_count + r.larger_count
        assert (r.pair_count, r.p_smaller_exact, r.p_equal_exact) == (
            n, Fraction(r.smaller_count, n), Fraction(r.equal_count, n)
        )
    return {r.diff: (r.smaller_count, r.equal_count, r.larger_count, r.trials_present) for r in rows}


@pytest.mark.property_based
@given(
    trials=gapped_trials(max_count=2**80),
    baseline=st.sampled_from(["all", "min"]),
    min_size_in=st.none() | st.sets(st.integers(1, 9), min_size=1, max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_pairwise_matches_dot_products_at_big_counts(trials, baseline, min_size_in):
    got = pairwise(trials, baseline=baseline, min_size_in=min_size_in)
    assert _tallies(got) == dot_product_tallies(trials, baseline, min_size_in)


@pytest.mark.parametrize("baseline", ["all", "min"])
def test_pairwise_reads_exactly_when_a_tally_fills_its_slot(baseline):
    # T = 2**40 - 1 trees make slots of (T*T).bit_length() = 80 bits; under
    # either baseline the pairs within the minimum size fill theirs, the
    # slot just under gap 1's, so one bit less would carry into gap 1
    from forestscope.stats import _columns

    big = 2**40 - 2
    t = rec(0, {3: (big, big, 0, {0: big}), 5: (1, 0, 2, {2: 1})}, 2)
    packed = _columns(t)
    top = (packed.sizes - 1) * packed.width
    lead = sum(packed.revs) if baseline == "all" else sum(packed.revs) >> top << top
    same_size = lead * sum(packed.cols) >> top & (1 << packed.width) - 1
    assert packed.width == same_size.bit_length() == 80
    got = pairwise([t], baseline=baseline)
    assert _tallies(got) == dot_product_tallies([t], baseline) == {2: (big, 0, 0, 1)}


def test_best_cardinality_breaks_ties_low():
    # c=2 and c=4 both have mean error 1/4
    t = rec(0, {2: (1, 0, 1, {1: 1}), 4: (2, 1, 2, {0: 1, 2: 1})}, 4)
    assert best_cardinality(t) == 2
    assert best_cardinality(rec(1, {}, 4)) is None


def test_derive_policy_mode_per_group():
    trials = [
        rec(0, {2: (1, 0, 3, {3: 1}), 3: (1, 0, 0, {0: 1})}, 4),   # min 2, best 3
        rec(1, {2: (1, 0, 2, {2: 1}), 3: (1, 0, 3, {3: 1})}, 4),   # min 2, best 2
        rec(2, {2: (1, 0, 1, {1: 1}), 3: (1, 0, 2, {2: 1})}, 4),   # min 2, best 2
        rec(3, {3: (1, 0, 1, {1: 1}), 5: (1, 0, 0, {0: 1})}, 4),   # min 3, best 5
    ]
    rows = {r.min_size: r for r in derive_policy(trials)}
    assert rows[2].preferred_cardinality == 2 and rows[2].trial_count == 3
    assert rows[3].preferred_cardinality == 5 and rows[3].trial_count == 1


def test_derive_policy_group_mode_ties_break_low():
    trials = [
        rec(0, {2: (1, 0, 1, {1: 1}), 4: (1, 0, 2, {2: 1})}, 4),   # best 2
        rec(1, {2: (1, 0, 2, {2: 1}), 4: (1, 0, 1, {1: 1})}, 4),   # best 4
    ]
    rows = derive_policy(trials)
    assert rows[0].preferred_cardinality == 2


@pytest.mark.property_based
@given(st.integers(0, 2**32), st.integers(2, 7))
@settings(max_examples=100, deadline=None)
def test_derive_policy_invariant_under_histogram_scaling(seed, k):
    from forestscope.rng import SplitMix64

    r = SplitMix64(seed)
    trials = []
    for tid in range(3):
        buckets = {}
        for c in (2, 3, 4):
            hist = {e: 1 + r.below(5) for e in range(r.below(3) + 1)}
            n = sum(hist.values())
            buckets[c] = (n, hist.get(0, 0), sum(e * v for e, v in hist.items()), hist)
        trials.append(rec(tid, buckets, 6))
    scaled = []
    for t in trials:
        buckets = {
            c: (
                b.tree_count * k,
                b.correct_count * k,
                b.misclassified_total * k,
                {e: v * k for e, v in b.error_hist.items()},
            )
            for c, b in t.summary.buckets.items()
        }
        scaled.append(rec(t.trial_id, buckets, 6))
    assert derive_policy(trials) == derive_policy(scaled)


def test_bin_by_path_length_pools_and_centers():
    t1 = rec(
        0, {2: (3, 0, 3, {1: 3})}, 4,
        path_bins={4: [2, 2], 6: [1, 1]}, path_bin_width=0.5,
    )
    t2 = rec(
        1, {2: (2, 0, 2, {1: 2})}, 4,
        path_bins={4: [2, 3]}, path_bin_width=0.5,
    )
    rows = bin_by_path_length([t1, t2], 0.5)
    assert [r.bin_center for r in rows] == [2.25, 3.25]
    first = rows[0]
    assert first.tree_count == 4
    assert first.mean_error == pytest.approx(5 / (4 * 4))


def test_bin_by_path_length_requires_matching_width():
    t = rec(0, {2: (1, 0, 0, {0: 1})}, 4, path_bins={4: [1, 0]}, path_bin_width=0.5)
    with pytest.raises(ValueError):
        bin_by_path_length([t], 0.25)
    with pytest.raises(ValueError):
        bin_by_path_length([rec(1, {2: (1, 0, 0, {0: 1})}, 4)], 0.5)


def _exact_sample_variance(xs):
    xs = [Fraction(x) for x in xs]
    mean = sum(xs) / len(xs)
    return sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)


@pytest.mark.property_based
@given(
    st.lists(
        st.one_of(
            st.floats(0, 1),
            st.builds(lambda a, b: a / b, st.integers(0, 10**6), st.integers(1, 10**6)),
            st.floats(-1e12, 1e12),
        ),
        min_size=2,
        max_size=60,
    )
)
@settings(max_examples=300, deadline=None)
def test_stdev_is_the_correctly_rounded_root_of_the_sample_variance(xs):
    from forestscope.stats import _stdev

    got = _stdev(xs)
    var = _exact_sample_variance(xs)
    # the exact root lies within half a unit in the last place of `got`:
    # between the midpoints to its neighbouring floats
    lo = (Fraction(got) + Fraction(math.nextafter(got, -math.inf))) / 2 if got else 0
    hi = (Fraction(got) + Fraction(math.nextafter(got, math.inf))) / 2
    assert lo * lo <= var <= hi * hi
    if sys.version_info >= (3, 11):  # correctly rounded there too
        assert got == statistics.stdev(xs)
