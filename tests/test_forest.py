"""Enumeration routes agree: search enumerator, naive oracle, algebraic sums."""

import copy
import gc
import hashlib
import itertools
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestscope import (
    Dataset,
    EnumerationLimits,
    EnumerationTruncated,
    LabeledExample,
    Leaf,
    Split,
    TrackOptions,
    apply_concept,
    binary_schema,
    bundled_dataset,
    classify,
    enumerate_naive,
    forest_summary,
    format_tree,
    get_concept,
    instance_space,
    is_consistent,
    iter_consistent,
    metrics,
    min_consistent_size,
    node_count,
    sample_with_replacement,
    split_disjoint,
)
from forestscope import FeatureSchema, SchemaError, check_structure
from forestscope.experiments import preset, run_trials
from forestscope.forest import _MinSizeAlgebra, _Router, _solve
from forestscope.rng import SplitMix64

from conftest import subset_dataset, table_dataset


def canon(trees, schema):
    return sorted(format_tree(t, schema) for t in trees)


def test_xor_forest_is_exactly_two_trees(schema2, xor2):
    got = list(iter_consistent(xor2))
    assert len(got) == 2
    assert all(node_count(t) == 3 for t in got)
    assert canon(got, schema2) == canon(enumerate_naive(xor2), schema2)


def test_single_feature_concept_has_one_minimal_tree():
    data = apply_concept(get_concept("a"))
    lim = EnumerationLimits(max_nodes=1)
    got = list(iter_consistent(data, lim))
    assert len(got) == 1
    assert got[0] == Split(0, (Leaf(0), Leaf(1)))
    assert min_consistent_size(data) == 1


def test_enumeration_order_is_sizes_then_feature(xor2):
    sizes = [node_count(t) for t in iter_consistent(xor2)]
    assert sizes == sorted(sizes)
    data = apply_concept(get_concept("ab"))
    feats = [t.feature for t in iter_consistent(data, EnumerationLimits(max_nodes=2))]
    assert feats == sorted(feats)


def _full(name):
    return apply_concept(get_concept(name))


def _draw20(name, seed):
    return split_disjoint(_full(name), 20, SplitMix64(seed))[0]


# (data, max_nodes, trees, SHA-256 of the walk's formatted trees, one per
# line), taken under a looser lower bound: pruning may drop only branches
# that yield nothing, so the trees and their order stay these
_PINNED_WALKS = {
    "xyz-or-ab": (lambda: _full("xyz-or-ab"), 10, 648,
                  "be36b3d82a1cfd2909c7e9eb961633a62f45017274b5c57602169ec2402c8187"),
    "lenses": (lambda: bundled_dataset("lenses"), 9, 35,
               "2bceb661cfab81b4cd576e80874334a6e43f27a4ddfc006ed1934f8111f5bfa3"),
    "xyz-or-ab-20-1": (lambda: _draw20("xyz-or-ab", 1), 8, 543,
                       "3b393255f33b00385406afa7d684d3309b9158618f96a8b6430fb2253eaf6589"),
    "xyz-or-ab-20-2": (lambda: _draw20("xyz-or-ab", 2), 8, 476,
                       "23d52ccc673251cc61dd50fd1a23fef9a98a9c270a05ee1aa772e7e640d4beef"),
    "xyz-or-ab-20-3": (lambda: _draw20("xyz-or-ab", 3), 8, 345,
                       "98c592dba0660655684dc4eb720ef0f084cac508a6b92ce0aaeb472121f419b8"),
    "mux6-20-1": (lambda: _draw20("mux6", 1), 7, 1815,
                  "2cce5b3e1210a643b648f4936ee23e554579b11fcc33b1e73f4b4e034b72b67b"),
    "mux6-20-2": (lambda: _draw20("mux6", 2), 7, 2598,
                  "32e7468ea1724f96b9f0d49c50997e44983c111e97183a499ba97789c06e7257"),
}


@pytest.mark.parametrize("case", sorted(_PINNED_WALKS))
def test_walk_order_keeps_its_bytes(case):
    make, cap, n_trees, digest = _PINNED_WALKS[case]
    data = make()
    lines = [format_tree(t, data.schema) for t in iter_consistent(data, EnumerationLimits(cap))]
    assert len(lines) == n_trees
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


def _parity_count(n):
    # on the full space every consistent tree is complete: T(n) = n T(n-1)^2
    return 1 if n == 1 else n * _parity_count(n - 1) ** 2


def _parity(n):
    schema = binary_schema([f"p{i}" for i in range(n)])
    return table_dataset(schema, [sum(x) % 2 for x in instance_space(schema)])


def _mixed_arity_parity():
    # the full space over arities (2, 3, 4, 2, 3), labelled by the sum of
    # its values mod 2
    schema = FeatureSchema(
        tuple((f"m{f}", tuple(f"v{v}" for v in range(a))) for f, a in enumerate((2, 3, 4, 2, 3))),
        ("even", "odd"),
    )
    return table_dataset(schema, [sum(x) % 2 for x in instance_space(schema)])


def test_parity_forest_matches_its_closed_form():
    summary = forest_summary(_full("parity5"), track=TrackOptions(error_hist=False))
    assert {c: b.tree_count for c, b in summary.buckets.items()} == {31: _parity_count(5)}
    assert _parity_count(5) == 1_658_880


@pytest.mark.parametrize("n, size, trees", [(7, 127, "1.908e+27"), (8, 255, "2.913e+55")])
def test_parity_closed_form_holds_past_64_bits_on_both_algebras(monkeypatch, n, size, trees):
    # the counting algebra without a test set, and the totals algebra with
    # the full space as its own test set, where every tree errs nowhere
    import forestscope.forest as forest

    seen = []
    solve = forest._solve
    monkeypatch.setattr(forest, "_solve", lambda alg, *a: seen.append(type(alg)) or solve(alg, *a))
    data = _parity(n)
    want = _parity_count(n)
    assert f"{want:.3e}" == trees and want >= 2**64
    for test in (None, data):
        summary = forest_summary(data, test, track=TrackOptions(error_hist=False))
        (c, b), = summary.buckets.items()
        assert (c, b.tree_count, b.correct_count, b.misclassified_total) == (size, want, want, 0)
    assert seen == [forest._CountAlgebra, forest._TotalsAlgebra]


def test_mixed_arity_parity_forest_matches_its_closed_form(monkeypatch):
    # a subproblem with a feature left is impure and no branch is empty, so
    # every consistent tree is complete, and its size profile is
    # G_S(x) = sum over f in S of x G_{S-f}(x)^(arity f)
    import forestscope.forest as forest

    data = _mixed_arity_parity()
    arities = data.schema.arities
    assert len(data) == 144

    def times(p, q):
        out = {}
        for i, a in p.items():
            for j, b in q.items():
                out[i + j] = out.get(i + j, 0) + a * b
        return out

    profiles = {(): {0: 1}}
    for n in range(1, len(arities) + 1):
        for features in itertools.combinations(range(len(arities)), n):
            g = {}
            for f in features:
                power = {0: 1}
                for _ in range(arities[f]):
                    power = times(power, profiles[tuple(h for h in features if h != f)])
                for size, c in power.items():
                    g[size + 1] = g.get(size + 1, 0) + c
            profiles[features] = g
    want = profiles[tuple(range(len(arities)))]

    summary = forest_summary(data, track=TrackOptions(error_hist=False))
    assert {c: b.tree_count for c, b in summary.buckets.items()} == want
    assert summary.total_trees == 7_597_837_243_219_968
    assert (len(want), summary.min_size, summary.max_size) == (71, 55, 125)

    # capped: the depth cut keeps G_S's coefficients up to degree cap, on the
    # counting algebra without a test set and on the totals algebra with the
    # full space as its own test set, where every tree errs nowhere
    seen = []
    solve = forest._solve
    monkeypatch.setattr(forest, "_solve", lambda alg, *a: seen.append(type(alg)) or solve(alg, *a))
    totals = []
    for cap in (54, 55, 56, 90, 124):
        cut = {c: n for c, n in want.items() if c <= cap}
        for test in (None, data):
            capped = forest_summary(data, test, EnumerationLimits(cap), track=TrackOptions(False))
            assert {c: b.tree_count for c, b in capped.buckets.items()} == cut
            for b in capped.buckets.values():
                assert (b.correct_count, b.misclassified_total) == (b.tree_count, 0)
        assert seen == [forest._CountAlgebra, forest._TotalsAlgebra]
        seen.clear()
        totals.append(sum(cut.values()))
    assert totals == [0, 32, 448, 1_427_630_577_392, 7_596_737_731_592_192]


@pytest.mark.parametrize(
    "make, trees",
    [
        (lambda: _parity(7), _parity_count(7)),
        (lambda: _parity(8), _parity_count(8)),
        (_mixed_arity_parity, 7_597_837_243_219_968),
    ],
    ids=["parity7", "parity8", "mixed-arity"],
)
def test_totals_slots_are_wider_than_every_tree_times_the_test_weight(make, trees):
    # each space as its own test set: a slot of the root profile may hold
    # every tree, and their misclassified sum up to trees x test weight
    from forestscope.forest import _TotalsAlgebra

    data = make()
    alg = _TotalsAlgebra(data.schema.arities, len(data) - 1, len(data))
    assert alg.width > (trees * len(data)).bit_length()


def _walk_closed_early(train, limits):
    walk = iter_consistent(train, limits)
    for _ in range(5):
        next(walk)
    walk.close()


def _walk_truncated(train, limits):
    try:
        list(iter_consistent(train, replace(limits, max_trees=10)))
    except EnumerationTruncated:
        return
    raise AssertionError("the walk passed its tree cap")


class _InterruptedAlgebra(_MinSizeAlgebra):
    """Min-plus that raises deep in the recursion, at its 100th split."""

    left = 100

    def attach(self, out, a, b, base, misc, room):
        self.left -= 1
        if not self.left:
            raise RecursionError
        return super().attach(out, a, b, base, misc, room)


def _solve_interrupted(train):
    try:
        _solve(_InterruptedAlgebra(), _Router(train), _Router(Dataset(train.schema, ())), None)
    except RecursionError:
        return
    raise AssertionError("the solve finished before its 100th split")


_ROUTES = {
    "summary-counts": lambda tr, te, lim: forest_summary(tr, te, lim),
    "summary-totals": lambda tr, te, lim: forest_summary(
        tr, te, lim, track=TrackOptions(error_hist=False)
    ),
    "summary-stream": lambda tr, te, lim: forest_summary(tr, te, lim, mode="stream"),
    "min-size": lambda tr, te, lim: min_consistent_size(tr, lim.max_nodes),
    "solve-raises": lambda tr, te, lim: _solve_interrupted(tr),
    "walk-exhausted": lambda tr, te, lim: list(iter_consistent(tr, lim)),
    "walk-closed": lambda tr, te, lim: _walk_closed_early(tr, lim),
    "walk-truncated": lambda tr, te, lim: _walk_truncated(tr, lim),
    "run-trials": lambda tr, te, lim: run_trials(preset("fig1"), threads=1),
}


@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_routes_leave_no_cyclic_garbage(route):
    # what a trial or a walk builds is freed by reference counting when it
    # is dropped; a reference cycle would keep it until the cyclic collector
    train, test = split_disjoint(_full("mux6"), 20, SplitMix64(1))
    gc.collect()
    gc.disable()
    try:
        _ROUTES[route](train, test, EnumerationLimits(7))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_parity_walk_reaches_its_trees_without_searching_smaller_sizes():
    data = _full("parity5")
    trees = list(itertools.islice(iter_consistent(data), 200))
    assert len(trees) == 200
    for t in trees:
        assert node_count(t) == 31
        assert is_consistent(t, data)
        assert check_structure(t, data) is None


def test_every_enumerated_tree_passes_the_public_predicates():
    data = apply_concept(get_concept("parity5"))
    train, _ = split_disjoint(data, 12, SplitMix64(5))
    for t in iter_consistent(train, EnumerationLimits(max_nodes=6)):
        assert is_consistent(t, train)
        assert check_structure(t, train) is None


def test_conflicting_training_set_has_empty_forest():
    s = binary_schema(["p"])
    bad = Dataset(
        s,
        (
            LabeledExample((0,), 0),
            LabeledExample((0,), 1),
            LabeledExample((1,), 0),
        ),
    )
    assert list(iter_consistent(bad)) == []
    assert forest_summary(bad).buckets == {}
    assert min_consistent_size(bad) is None


@pytest.mark.parametrize("side", [0, 1], ids=["first-child", "second-child"])
def test_an_open_child_without_trees_leaves_the_forest_empty_everywhere(side, monkeypatch):
    # a conflicting pair below the root: a split on either feature leaves it
    # an open child that no tree fits, beside a pure child, so no tree fits
    # at all; every algebra must tell that child's empty profile from the
    # marker of a closed child.  `side` flips the values, which puts the
    # pair in the split's first child or in its second
    import forestscope.forest as forest

    seen = []
    solve = forest._solve
    monkeypatch.setattr(forest, "_solve", lambda alg, *a: seen.append(type(alg)) or solve(alg, *a))
    s = binary_schema(["p", "q"])
    rows = [((0, 0), 0), ((0, 0), 1), ((1, 0), 0), ((1, 1), 0)]
    train = Dataset(s, tuple(LabeledExample((p ^ side, q ^ side), c) for (p, q), c in rows))
    space = list(instance_space(s))
    test = Dataset(s, tuple(LabeledExample(x, c) for x in space for c in (0, 1)))
    lim = EnumerationLimits()
    bins, no_hist = TrackOptions(path_bins=0.5), TrackOptions(error_hist=False)
    routes = {
        "counts, histograms": forest_summary(train, test),
        "counts, no test set": forest_summary(train),
        "counts, path bins": forest_summary(train, test, lim, space, replace(bins, error_hist=False)),
        "totals": forest_summary(train, test, track=no_hist),
        "stream": forest_summary(train, test, lim, space, bins, mode="stream"),
    }
    for route, summary in routes.items():
        assert (summary.buckets, summary.path_bins or {}) == ({}, {}), route
    assert min_consistent_size(train) is None
    assert list(iter_consistent(train)) == []
    assert seen == [forest._CountAlgebra] * 3 + [forest._TotalsAlgebra] + [_MinSizeAlgebra] * 3


def test_empty_branch_takes_parent_majority():
    schema = FeatureSchema(
        features=(("size", ("s", "m", "l")), ("hot", ("n", "y"))),
        classes=("a", "b"),
    )
    # size=l never occurs; majority over the four rows is class 0
    data = Dataset(
        schema,
        (
            LabeledExample((0, 0), 0),
            LabeledExample((0, 1), 0),
            LabeledExample((1, 0), 1),
            LabeledExample((1, 1), 0),
        ),
    )
    rooted_on_size = [t for t in iter_consistent(data) if isinstance(t, Split) and t.feature == 0]
    assert rooted_on_size
    for t in rooted_on_size:
        assert t.children[2] == Leaf(0)
    assert canon(iter_consistent(data), schema) == canon(enumerate_naive(data), schema)


def test_truncation_raises_on_both_routes():
    # the cap bounds tree walks only; the algebraic route walks no trees
    data = apply_concept(get_concept("xyz-or-ab"))
    train, test = split_disjoint(data, 20, SplitMix64(3))
    lim = EnumerationLimits(max_trees=10)
    with pytest.raises(EnumerationTruncated):
        list(iter_consistent(train, lim))
    with pytest.raises(EnumerationTruncated):
        forest_summary(train, test, lim, mode="stream")
    uncapped = forest_summary(train, test, EnumerationLimits(max_trees=0), mode="stream")
    assert uncapped.total_trees > 10
    assert forest_summary(train, test, lim, mode="algebraic") == uncapped


def test_max_nodes_cap_is_respected():
    data = apply_concept(get_concept("xyz-or-ab"))
    train, test = split_disjoint(data, 20, SplitMix64(3))
    lim = EnumerationLimits(max_nodes=8)
    assert all(node_count(t) <= 8 for t in iter_consistent(train, lim))
    summary = forest_summary(train, test, lim)
    assert summary.buckets and max(summary.buckets) <= 8


def test_leaf_histograms_are_not_tracked():
    # the option stays for the benchmark harness, which passes it False
    with pytest.raises(ValueError, match="^leaf histograms are not tracked$"):
        TrackOptions(leaf_hist=True)
    assert TrackOptions(leaf_hist=False) == TrackOptions()


def test_min_consistent_size_honors_cap(xor2):
    assert min_consistent_size(xor2) == 3
    assert min_consistent_size(xor2, max_nodes=2) is None


def test_summary_helpers_match_direct_measurement():
    data = apply_concept(get_concept("xyz-or-ab"))
    train, test = split_disjoint(data, 20, SplitMix64(11))
    lim = EnumerationLimits(max_nodes=9)
    pop = list(instance_space(data.schema))
    summary = forest_summary(
        train, test, lim, population=pop,
        track=TrackOptions(error_hist=True, path_bins=0.25),
    )
    trees = list(iter_consistent(train, lim))
    assert summary.total_trees == len(trees)
    assert summary.min_size == min(node_count(t) for t in trees)
    assert summary.max_size == max(node_count(t) for t in trees)
    by_c = {}
    for t in trees:
        by_c.setdefault(node_count(t), []).append(t)
    for c, bucket in summary.buckets.items():
        group = by_c[c]
        ms = [metrics(t, pop, test) for t in group]
        assert bucket.tree_count == len(group)
        assert bucket.misclassified_total == sum(
            round(m.error_rate * len(test.examples)) for m in ms
        )
        assert bucket.correct_count == sum(1 for m in ms if m.error_rate == 0.0)


@pytest.mark.property_based
@given(st.integers(0, 2**32), st.integers(0, 4))
@settings(max_examples=100, deadline=None)
def test_oracle_equivalence_random_labelings(seed, cap):
    schema = binary_schema(["a", "b", "c"])
    r = SplitMix64(seed)
    data = table_dataset(schema, [r.below(2) for _ in range(8)])
    lim = EnumerationLimits(max_nodes=cap)
    assert canon(iter_consistent(data, lim), schema) == canon(
        enumerate_naive(data, lim), schema
    )


@pytest.mark.property_based
@given(st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_stream_and_algebraic_buckets_agree(seed):
    data = apply_concept(get_concept("xyz-or-ab"))
    r = SplitMix64(seed)
    train, test = split_disjoint(data, 14 + r.below(8), r)
    lim = EnumerationLimits(max_nodes=8)
    track = TrackOptions(error_hist=True)
    a = forest_summary(train, test, lim, mode="stream", track=track)
    b = forest_summary(train, test, lim, mode="algebraic", track=track)
    assert a == b


@pytest.mark.property_based
@given(st.integers(0, 2**32), st.sampled_from([0.25, 0.1, 0.3, 1 / 3]), st.booleans())
@settings(max_examples=40, deadline=None)
def test_stream_and_algebraic_path_bins_agree(seed, width, duplicated):
    data = apply_concept(get_concept("xyz-or-ab"))
    r = SplitMix64(seed)
    train, test = split_disjoint(data, 14 + r.below(8), r)
    pop = list(instance_space(data.schema))
    if duplicated:
        # repeated instances weigh into path totals and the bin denominator
        pop += [pop[r.below(len(pop))] for _ in range(1 + r.below(8))]
    lim = EnumerationLimits(max_nodes=7)
    track = TrackOptions(error_hist=True, path_bins=width)
    a = forest_summary(train, test, lim, pop, track, mode="stream")
    b = forest_summary(train, test, lim, pop, track, mode="algebraic")
    assert a == b


def test_empty_test_set_gives_the_same_summary_on_both_routes():
    data = apply_concept(get_concept("xyz-or-ab"))
    train, _ = split_disjoint(data, 20, SplitMix64(3))
    empty = Dataset(data.schema, ())
    lim = EnumerationLimits(max_nodes=8)
    sums = TrackOptions(error_hist=False)
    assert forest_summary(train, empty, lim, track=sums, mode="stream") == forest_summary(
        train, empty, lim, track=sums, mode="algebraic"
    )
    a = forest_summary(train, empty, lim, mode="stream")
    b = forest_summary(train, empty, lim, mode="algebraic")
    assert a == b
    assert b.buckets and b.test_weight == 0
    for bucket in b.buckets.values():
        assert bucket.correct_count == bucket.tree_count
        assert bucket.error_hist == {0: bucket.tree_count}


@pytest.mark.property_based
@pytest.mark.parametrize("paths", [False, True])
@given(st.integers(0, 2**32), st.booleans())
@settings(max_examples=50, deadline=None)
def test_error_totals_equal_the_histogram_summary_without_its_histograms(paths, seed, mux):
    # fig8-shaped draws (31 train and 1000 test rows drawn with replacement,
    # here capped) and mux6 draws; error_hist off runs the totals algebra
    # when paths are off too, and otherwise the counting algebra without a
    # histogram, held here to the counting algebra with one
    r = SplitMix64(seed)
    if mux:
        data = apply_concept(get_concept("mux6"))
        train, test = split_disjoint(data, 8 + r.below(13), r)
        cap = 3 + r.below(6)
    else:
        data = apply_concept(get_concept("xyz-or-ab"))
        train = sample_with_replacement(data, 31, r)
        test = sample_with_replacement(data, 1000, r)
        cap = 4 + r.below(9)
    space = list(instance_space(data.schema))
    pop = [space[r.below(len(space))] for _ in range(40)] if paths else None
    lim = EnumerationLimits(max_nodes=cap)
    width = 0.25 if paths else None
    sums = forest_summary(train, test, lim, pop, TrackOptions(False, path_bins=width))
    hist = forest_summary(train, test, lim, pop, TrackOptions(True, path_bins=width))
    assert sums == replace(
        hist, buckets={c: replace(b, error_hist=None) for c, b in hist.buckets.items()}
    )


@pytest.mark.property_based
@given(st.integers(0, 2**32), st.integers(2, 4), st.sampled_from([None, 2, 4, 6]))
@settings(max_examples=40, deadline=None)
def test_error_totals_match_the_counts_on_small_mixed_arity_schemas(seed, n_features, cap):
    # random schemas (arities 2 to 4, 2 or 3 classes), labels that follow
    # one feature with a quarter of them shifted, and draws with replacement,
    # so duplicate rows weigh: the totals algebra's buckets are the counting
    # algebra's with the histograms dropped
    r = SplitMix64(seed)
    arities = [2 + r.below(3) for _ in range(n_features)]
    classes = ("c0", "c1", "c2")[: 2 + r.below(2)]
    schema = FeatureSchema(
        tuple((f"f{f}", tuple(f"v{v}" for v in range(a))) for f, a in enumerate(arities)), classes
    )
    key = r.below(n_features)
    labels = [(x[key] + r.below(2) * r.below(2)) % len(classes) for x in instance_space(schema)]
    data = table_dataset(schema, labels)
    train = sample_with_replacement(data, 4 + r.below(17), r)
    test = sample_with_replacement(data, 1 + r.below(60), r)
    lim = EnumerationLimits(max_nodes=cap)
    sums = forest_summary(train, test, lim, track=TrackOptions(error_hist=False))
    hist = forest_summary(train, test, lim)
    assert sums == replace(
        hist, buckets={c: replace(b, error_hist=None) for c, b in hist.buckets.items()}
    )


def test_error_totals_keep_one_key_per_tree_size(monkeypatch):
    # a fig8-shaped draw, uncapped: the totals algebra keys its profile on
    # splits alone here, so the root window spans at most cap + 1 slots where
    # the histogram's profile holds more keys; a fallback to the counting
    # algebra fails
    import forestscope.forest as forest

    def span(alg, profile):
        if isinstance(alg, forest._CountAlgebra):
            return len(profile)
        return -(-profile[1].bit_length() // alg.width)  # C's slots, lo up

    seen = []
    for cls in (forest._CountAlgebra, forest._TotalsAlgebra):
        monkeypatch.setattr(
            cls,
            "tables",
            lambda self, profile, tables=cls.tables: seen.append((type(self), span(self, profile)))
            or tables(self, profile),
        )
    data = apply_concept(get_concept("xyz-or-ab"))
    r = SplitMix64(9)
    train, test = sample_with_replacement(data, 31, r), sample_with_replacement(data, 1000, r)
    cap = len({ex.instance for ex in train.examples}) - 1
    sums = forest_summary(train, test, track=TrackOptions(error_hist=False))
    hist = forest_summary(train, test)
    (totals, n_totals), (counts, n_counts) = seen
    assert (totals, counts) == (forest._TotalsAlgebra, forest._CountAlgebra)
    assert len(sums.buckets) <= n_totals <= cap + 1 < n_counts
    assert sums.buckets.keys() == hist.buckets.keys()


def test_each_request_runs_the_algebra_built_for_it(monkeypatch):
    # the totals algebra serves a test set with no histogram at all; every
    # other request, and every request without a test set, counts keys
    import forestscope.forest as forest

    seen = []
    solve = forest._solve
    monkeypatch.setattr(forest, "_solve", lambda alg, *a: seen.append(type(alg)) or solve(alg, *a))
    data = apply_concept(get_concept("xyz-or-ab"))
    train, test = split_disjoint(data, 20, SplitMix64(3))
    pop = list(instance_space(data.schema))
    lim = EnumerationLimits(max_nodes=6)
    for with_test, errors, paths in itertools.product((True, False), repeat=3):
        track = TrackOptions(errors, path_bins=0.25 if paths else None)
        forest_summary(train, test if with_test else None, lim, pop, track)
        totals = with_test and not (errors or paths)
        assert seen.pop() is (forest._TotalsAlgebra if totals else forest._CountAlgebra)
    assert not seen


_MODES = ("stream", "algebraic")


@pytest.mark.parametrize("mode", _MODES)
def test_both_modes_refuse_an_empty_population_for_path_bins(mode):
    train, test = split_disjoint(_full("xyz-or-ab"), 20, SplitMix64(3))
    with pytest.raises(ValueError, match="population is empty"):
        forest_summary(train, test, EnumerationLimits(5), [], TrackOptions(path_bins=0.25), mode)


@pytest.mark.parametrize("mode", _MODES)
@pytest.mark.parametrize("paths", [None, 0.25])
@pytest.mark.parametrize("bad", [(0, 1, -1, 0, 1), (0, 1, 0, 1)])
def test_both_modes_validate_the_population_first(mode, paths, bad):
    # a value out of range or an instance of the wrong width, behind valid ones
    data = _full("xyz-or-ab")
    train, test = split_disjoint(data, 20, SplitMix64(3))
    pop = list(instance_space(data.schema)) + [bad]
    with pytest.raises(SchemaError):
        forest_summary(train, test, EnumerationLimits(5), pop, TrackOptions(path_bins=paths), mode)


@pytest.mark.parametrize("mode", _MODES)
def test_both_modes_refuse_a_test_set_over_another_schema(mode):
    train, _ = split_disjoint(_full("ab"), 20, SplitMix64(3))
    other_features = _full("mux6")
    three_classes = FeatureSchema(train.schema.features, ("lo", "mid", "hi"))
    other_classes = Dataset(three_classes, tuple(replace(ex, label=2) for ex in train.examples))
    renamed = Dataset(binary_schema("VWXYZ"), train.examples)
    for test in (other_features, other_classes):
        with pytest.raises(ValueError, match="features and classes"):
            forest_summary(train, test, EnumerationLimits(4), mode=mode)
    # names may differ: arities and class count are what the routes read
    assert forest_summary(train, renamed, EnumerationLimits(4), mode=mode).total_trees


def test_misclassified_totals_add_over_test_rows():
    # a tree's error on a test set is the sum of its errors on each row, so
    # each bucket's misclassified total is the sum of one-row totals, and a
    # one-row test's total is its tree count less its correct count
    data = apply_concept(get_concept("mux6"))
    r = SplitMix64(17)
    train, rest = split_disjoint(data, 20, r)
    rows = [rest.examples[i] for i in r.sample_indices(len(rest.examples), 24)]
    sums = TrackOptions(error_hist=False)
    whole = forest_summary(train, Dataset(data.schema, tuple(rows)), track=sums)
    want = {c: 0 for c in whole.buckets}
    for row in rows:
        one = forest_summary(train, Dataset(data.schema, (row,)), track=sums)
        for c, b in one.buckets.items():
            assert b.tree_count == whole.buckets[c].tree_count
            want[c] += b.tree_count - b.correct_count
    assert {c: b.misclassified_total for c, b in whole.buckets.items()} == want
    assert sum(want.values()) > 0


def test_path_bins_do_not_walk_trees(monkeypatch):
    import forestscope.forest as forest

    def refuse(*args, **kwargs):
        raise AssertionError("path bins walked the trees")

    monkeypatch.setattr(forest, "iter_consistent", refuse)
    data = apply_concept(get_concept("xyz-or-ab"))
    train, test = split_disjoint(data, 20, SplitMix64(3))
    summary = forest_summary(
        train, test, EnumerationLimits(max_nodes=8), list(instance_space(data.schema)),
        track=TrackOptions(path_bins=0.25),
    )
    assert summary.path_bins
    assert sum(n for n, _ in summary.path_bins.values()) == summary.total_trees


@pytest.mark.property_based
@given(st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_feature_permutation_leaves_counts_alone(seed):
    schema = binary_schema(["a", "b", "c", "d"])
    r = SplitMix64(seed)
    labels = [r.below(2) for _ in range(16)]
    data = table_dataset(schema, labels)
    perm = r.sample_indices(4, 4)
    permuted = Dataset(
        schema,
        tuple(
            LabeledExample(tuple(ex.instance[p] for p in perm), ex.label)
            for ex in data.examples
        ),
    )
    lim = EnumerationLimits(max_nodes=5)
    base = forest_summary(data, limits=lim)
    moved = forest_summary(permuted, limits=lim)
    assert {c: b.tree_count for c, b in base.buckets.items()} == {
        c: b.tree_count for c, b in moved.buckets.items()
    }


@pytest.mark.property_based
@given(st.integers(0, 2**32), st.booleans(), st.sampled_from([None, 3, 5]))
@settings(max_examples=100, deadline=None)
def test_relabeling_the_values_of_a_three_valued_feature_leaves_buckets_alone(
    seed, with_replacement, cap
):
    # the values of lenses' `age` permuted in the train set, the test set
    # and the population: each tree maps to one with its children reordered,
    # of the same size, errors and path tests
    data = bundled_dataset("lenses")
    age = data.schema.feature_index("age")
    r = SplitMix64(seed)
    perm = r.sample_indices(3, 3)
    if with_replacement:
        train = sample_with_replacement(data, 4 + r.below(12), r)
        test = sample_with_replacement(data, 1 + r.below(24), r)
    else:
        train, test = split_disjoint(data, 4 + r.below(12), r)

    def moved(x):
        return x[:age] + (perm[x[age]],) + x[age + 1 :]

    def relabel(d):
        rows = (LabeledExample(moved(ex.instance), ex.label) for ex in d.examples)
        return Dataset(d.schema, tuple(rows))

    pop = list(instance_space(data.schema))
    lim = EnumerationLimits(max_nodes=cap)
    track = TrackOptions(path_bins=0.25)
    base = forest_summary(train, test, lim, pop, track)
    moved_pop = [moved(x) for x in pop]
    assert base == forest_summary(relabel(train), relabel(test), lim, moved_pop, track)
    sums = TrackOptions(error_hist=False)
    assert forest_summary(train, test, lim, track=sums) == forest_summary(
        relabel(train), relabel(test), lim, track=sums
    )


@pytest.mark.property_based
@given(st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_class_relabeling_leaves_counts_alone(seed):
    schema = binary_schema(["a", "b", "c"])
    r = SplitMix64(seed)
    labels = [r.below(2) for _ in range(8)]
    data = table_dataset(schema, labels)
    flipped = table_dataset(schema, [1 - l for l in labels])
    base = forest_summary(data)
    moved = forest_summary(flipped)
    assert {c: b.tree_count for c, b in base.buckets.items()} == {
        c: b.tree_count for c, b in moved.buckets.items()
    }


@pytest.mark.property_based
@given(st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_cardinality_bounded_by_distinct_instances(seed):
    data = apply_concept(get_concept("xyz-or-ab"))
    r = SplitMix64(seed)
    train = sample_with_replacement(data, 12, r)
    distinct = len({ex.instance for ex in train.examples})
    summary = forest_summary(train, limits=EnumerationLimits(max_nodes=6))
    if summary.buckets:
        assert max(summary.buckets) <= distinct - 1


def test_no_duplicate_canonical_forms_and_classification_match():
    data = apply_concept(get_concept("xyz-or-ab"))
    train, _ = split_disjoint(data, 20, SplitMix64(3))
    seen = set()
    lim = EnumerationLimits(max_nodes=9)
    for t in iter_consistent(train, lim):
        key = format_tree(t, data.schema)
        assert key not in seen
        seen.add(key)
        for ex in train.examples:
            assert classify(t, ex.instance) == ex.label
    assert len(seen) > 1000


def test_population_without_path_tracking_gives_the_same_summary_on_both_routes():
    data = apply_concept(get_concept("xyz-or-ab"))
    train, test = split_disjoint(data, 20, SplitMix64(3))
    pop = list(instance_space(data.schema))
    lim = EnumerationLimits(max_nodes=6)
    a = forest_summary(train, test, lim, pop, mode="stream")
    b = forest_summary(train, test, lim, pop, mode="algebraic")
    assert b.population_size == len(pop)
    assert a == b


def test_int64_profiles_stay_exact_past_two_to_the_62():
    # 56 distinct rows of an 8-feature space: counts pass 2^62 by far; the
    # histogram summaries run the counting algebra and `sums` the totals
    # algebra, so two algebras must agree on every total at that magnitude
    schema = binary_schema([f"f{i}" for i in range(8)])
    space = list(instance_space(schema))
    r = SplitMix64(0)
    rows = [space[i] for i in r.sample_indices(len(space), 56)]
    train = Dataset(schema, tuple(LabeledExample(x, r.below(2)) for x in rows))
    test = Dataset(schema, tuple(LabeledExample(x, r.below(2)) for x in space[:16]))
    lim = EnumerationLimits(max_trees=0)
    hist = forest_summary(train, test, lim)
    sums = forest_summary(train, test, lim, track=TrackOptions(error_hist=False))
    assert max(b.tree_count for b in hist.buckets.values()) > 2**62
    assert hist.buckets.keys() == sums.buckets.keys()
    for c, h in hist.buckets.items():
        want = (h.tree_count, h.correct_count, h.misclassified_total)
        # the histogram's own totals, then the totals algebra's
        assert want == (
            sum(h.error_hist.values()),
            h.error_hist.get(0, 0),
            sum(e * n for e, n in h.error_hist.items()),
        )
        s = sums.buckets[c]
        assert (s.tree_count, s.correct_count, s.misclassified_total) == want


@pytest.mark.property_based
@given(st.integers(0, 2**32), st.sampled_from([None, 0, 1, 2, 3]))
@settings(max_examples=200, deadline=None)
def test_min_consistent_size_matches_the_naive_oracle(seed, cap):
    r = SplitMix64(seed)
    schema = binary_schema(["a", "b", "c"][: 2 + r.below(2)])
    pairs = []
    for x in instance_space(schema):
        label = r.below(2)
        for _ in range(r.below(3)):  # dropped, kept or duplicated
            pairs.append((x, label))
    if not pairs:
        pairs.append((next(instance_space(schema)), 0))
    if r.below(4) == 0:
        x, label = pairs[r.below(len(pairs))]
        pairs.append((x, 1 - label))
    data = subset_dataset(schema, pairs)
    trees = enumerate_naive(data, EnumerationLimits(max_nodes=cap))
    want = min(node_count(t) for t in trees) if trees else None
    assert min_consistent_size(data, cap) == want


_LENSES_TRACKS = {
    "hist": TrackOptions(),
    "sums": TrackOptions(error_hist=False),
    "paths": TrackOptions(path_bins=0.25),
    "sums-paths": TrackOptions(error_hist=False, path_bins=0.25),
}


@pytest.mark.property_based
@given(
    st.integers(0, 2**32),
    st.booleans(),
    st.sampled_from([None, 2, 4, 6]),
    st.sampled_from(sorted(_LENSES_TRACKS)),
)
@settings(max_examples=400, deadline=None)
def test_stream_and_algebraic_agree_on_lenses(seed, with_replacement, cap, tracking):
    # a 3-valued feature (empty branches), 3 classes, and
    # with-replacement draws whose duplicate rows weigh on every count
    data = bundled_dataset("lenses")
    r = SplitMix64(seed)
    if with_replacement:
        train = sample_with_replacement(data, 4 + r.below(12), r)
        test = sample_with_replacement(data, 1 + r.below(24), r)
    else:
        train, test = split_disjoint(data, 4 + r.below(12), r)
    track = _LENSES_TRACKS[tracking]
    pop = list(instance_space(data.schema)) if track.path_bins is not None else None
    lim = EnumerationLimits(max_nodes=cap)
    a = forest_summary(train, test, lim, pop, track, mode="stream")
    b = forest_summary(train, test, lim, pop, track, mode="algebraic")
    assert a == b


def _repeat(rows, k):
    return [row for row in rows for _ in range(k)]


@pytest.mark.property_based
@given(st.integers(0, 2**32), st.integers(2, 3), st.sampled_from([None, 3, 5]))
@settings(max_examples=100, deadline=None)
def test_repeated_rows_weigh_exactly_on_the_algebraic_route(seed, k, cap):
    # k copies of every training row keep their relative weights, so the
    # forest and its empty-branch majorities stay; k copies of every test
    # row or population instance multiply what they weigh by k
    data = bundled_dataset("lenses")
    r = SplitMix64(seed)
    train = sample_with_replacement(data, 4 + r.below(10), r)
    test = sample_with_replacement(data, 1 + r.below(24), r)
    pop = list(instance_space(data.schema))
    lim = EnumerationLimits(max_nodes=cap)
    track = TrackOptions(path_bins=0.25)
    base = forest_summary(train, test, lim, pop, track)

    train_k = Dataset(data.schema, tuple(_repeat(train.examples, k)))
    assert list(iter_consistent(train_k, lim)) == list(iter_consistent(train, lim))
    assert forest_summary(train_k, test, lim, pop, track) == base
    assert min_consistent_size(train_k, cap) == min_consistent_size(train, cap)

    test_k = Dataset(data.schema, tuple(_repeat(test.examples, k)))
    scaled = forest_summary(train, test_k, lim, pop, track)
    assert scaled.test_weight == k * base.test_weight
    assert scaled.buckets == {
        c: replace(
            b,
            misclassified_total=k * b.misclassified_total,
            error_hist={k * e: n for e, n in b.error_hist.items()},
        )
        for c, b in base.buckets.items()
    }
    assert scaled.path_bins == {i: [n, k * m] for i, (n, m) in base.path_bins.items()}

    wide = forest_summary(train, test, lim, _repeat(pop, k), track)
    assert wide.population_size == k * base.population_size
    assert wide.path_bins == base.path_bins
    assert wide.buckets == {
        c: replace(b, path_tests_total=k * b.path_tests_total) for c, b in base.buckets.items()
    }


@pytest.mark.property_based
@given(st.integers(0, 2**32), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_mixed_arity_forest_matches_the_naive_oracle(seed, cap):
    schema = FeatureSchema(
        features=(("a", ("0", "1", "2")), ("b", ("0", "1")), ("c", ("0", "1"))),
        classes=("x", "y", "z"),
    )
    r = SplitMix64(seed)
    pairs = []
    for x in instance_space(schema):
        label = r.below(3)
        for _ in range(r.below(3)):  # dropped, kept or duplicated
            pairs.append((x, label))
    if not pairs:
        pairs.append((next(instance_space(schema)), r.below(3)))
    data = subset_dataset(schema, pairs)
    lim = EnumerationLimits(max_nodes=cap)
    naive = enumerate_naive(data, lim)
    assert canon(iter_consistent(data, lim), schema) == canon(naive, schema)
    summary = forest_summary(data, None, lim)
    assert summary.total_trees == len(naive)
    sizes = Counter(node_count(t) for t in naive)
    assert {c: b.tree_count for c, b in summary.buckets.items()} == sizes


@pytest.mark.property_based
@given(st.integers(0, 2**32), st.integers(1, 8), st.booleans())
@settings(max_examples=60, deadline=None)
def test_depth_cut_keeps_every_tree_on_mux6(seed, cap, path_bins):
    # mux6 has 8 features, so caps up to 8 cut subproblems at every depth
    # (a subproblem at depth d keeps at most cap - d splits); small train
    # draws and a short test set keep the stream walk small
    data = apply_concept(get_concept("mux6"))
    r = SplitMix64(seed)
    train, test = split_disjoint(data, 4 + r.below(4), r)
    test = Dataset(data.schema, test.examples[:16])
    space = list(instance_space(data.schema))
    pop = [space[r.below(len(space))] for _ in range(24)] if path_bins else None
    track = TrackOptions(error_hist=True, path_bins=0.5 if path_bins else None)
    lim = EnumerationLimits(max_nodes=cap)
    a = forest_summary(train, test, lim, pop, track, mode="stream")
    b = forest_summary(train, test, lim, pop, track, mode="algebraic")
    assert a == b


def _trees(cap, r):
    # 0..7 trees (splits, misc) within the cap, each 1..3 times; misc <= 1,
    # so sums of three parts and the attached split's misc 1 fit the test
    # weight 4 without carrying
    out = []
    for _ in range(r.below(8)):
        out += [(r.below(cap + 1), r.below(2))] * (1 + r.below(3))
    return out


def _as_profile(alg, trees):
    # the profile, in `alg`, of these (splits, misc) trees
    from forestscope.forest import _TotalsAlgebra

    if isinstance(alg, _TotalsAlgebra):  # slot by slot, from the fewest splits
        if not trees:
            return alg.zero()
        lo = min(splits for splits, _ in trees)
        c = z = m = 0
        for splits, misc in trees:
            at = (splits - lo) * alg.width
            c, z, m = c + (1 << at), z + ((misc == 0) << at), m + (misc << at)
        return (lo, c, z, m)
    out = {}
    for splits, misc in trees:
        k = alg.key(splits, misc, 0)
        out[k] = out.get(k, 0) + 1
    return out


def _totals(trees):
    # splits -> (trees, correct, misclassified) of these (splits, misc) trees
    out = {}
    for splits, misc in trees:
        c, z, m = out.get(splits, (0, 0, 0))
        out[splits] = (c + 1, z + (misc == 0), m + misc)
    return out


def _decoded(alg, profile):
    # a totals profile as `_totals` gives it, read through `tables`; no
    # profile's lowest slot is empty
    assert not profile or profile[1] & ((1 << alg.width) - 1)
    buckets, _ = alg.tables(profile)
    return {c: (b.tree_count, b.correct_count, b.misclassified_total) for c, b in buckets.items()}


def _product(parts, budget, base):
    # brute force: one tree from each part, kept when their splits stay
    # below `budget`, joined under the split `base`
    return [
        tuple(map(sum, zip(base, *combo)))
        for combo in itertools.product(*parts)
        if sum(t[0] for t in combo) < budget
    ]


@pytest.mark.property_based
@given(st.integers(0, 2**32), st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_count_algebra_keeps_keys_within_the_room(seed, cap):
    # both counting algebras, held to a tree-by-tree product: keys, counts,
    # error-free counts and error sums, the split's closed-leaf misc included;
    # the totals algebra's profiles are read through `tables`.  Its test
    # weight of 2**16 widens each slot past the largest tally here (21**3
    # trees erring at most 4 each), which these made-up parts, unlike any
    # real forest's, would otherwise overflow
    from forestscope.forest import _CountAlgebra, _TotalsAlgebra

    r = SplitMix64(seed)
    trees = [_trees(cap, r) for _ in range(3)]
    split = (1, r.below(2))
    old = [split] * 7 + [(cap, 0)] * 3
    count = _CountAlgebra(cap, 4, True, None, None)
    totals = _TotalsAlgebra((2, 3), cap, 2**16)
    for alg in (count, totals):
        parts = [_as_profile(alg, t) for t in trees]
        before = copy.deepcopy(parts)
        # the totals algebra takes the split's misc beside its key
        split_unit, misc_unit, _ = alg.units
        base = split_unit + split[1] * misc_unit
        for depth in range(cap + 3):
            room = alg.room(depth)
            assert room == (cap - depth) * split_unit

            pair = _product(trees[:2], cap - depth, (0, 0))
            got = alg.mul(parts[0], parts[1], room)
            if alg is count:  # only the counting algebra multiplies into a profile
                assert got == _as_profile(alg, pair)
                into = _as_profile(alg, old)
                got = alg.mul(parts[0], parts[1], room, into, base)
                assert got is into
                assert got == _as_profile(alg, old + _product(trees[:2], cap - depth, split))
            else:
                assert _decoded(alg, got) == _totals(pair)

            for n in range(4):
                # the open children as `_solve` hands them over: None for
                # none, a third folded into the first by `mul`
                a, b = (
                    (None, None), (parts[0], None), parts[:2],
                    (alg.mul(parts[0], parts[1], room), parts[2]),
                )[n]
                added = _product(trees[:n], cap - depth, split)
                got = alg.attach(_as_profile(alg, old), a, b, base, split[1], room)
                if alg is count:
                    assert got == _as_profile(alg, old + added)
                else:
                    assert _decoded(alg, got) == _totals(old + added)
                assert all(t[0] <= cap - depth for t in added)
                if room <= 0:
                    assert not added
        assert parts == before


@pytest.mark.property_based
# the ids are the ones these cases had while leaf-tracking cases filled
# track1 and track3
@pytest.mark.parametrize(
    "track", [TrackOptions(), TrackOptions(path_bins=0.5)], ids=["track0", "track2"]
)
@given(st.integers(0, 2**32))
@settings(max_examples=100, deadline=None)
def test_field_units_build_the_keys_that_key_defines(track, seed):
    from forestscope.forest import _CountAlgebra, _MinSizeAlgebra, _TotalsAlgebra

    r = SplitMix64(seed)
    cap, test_weight, npop = r.below(9), r.below(40), 1 + r.below(50)
    count = _CountAlgebra(cap, test_weight, True, track.path_bins, npop)
    totals = _TotalsAlgebra((2, 2, 3), cap, test_weight)
    for _ in range(20):
        splits = r.below(cap + 2)
        misc = r.below(test_weight + 1)
        path = r.below((cap + 1) * npop + 1)
        # the totals algebra's key is the split count alone
        for alg, key in ((count, count.key(splits, misc, path)), (totals, splits)):
            split_unit, misc_unit, path_unit = alg.units
            assert splits * split_unit + misc * misc_unit + path * path_unit == key
        # a split of closed leaves only: the misc summed into its key is
        # the tree's error, kept in the key or folded into the totals
        key = count.key(splits, misc, path)
        assert count.attach({}, None, None, key, misc, 1) == {key: 1}
        closed = totals.attach(totals.zero(), None, None, splits, misc, 1)
        assert _decoded(totals, closed) == {splits: (1, int(not misc), misc)}
    assert _MinSizeAlgebra().units == (0, 0, 0)


def test_population_routers_are_kept_apart_by_population_and_schema():
    # path-tracked summaries over two populations and two schemas, run in
    # turn in one process; the population {0, 1}^3 is valid in both
    # schemas, so a router keyed on the population alone would serve the
    # ternary schema, whose trees split on value 2, a binary router
    binary = binary_schema(["x0", "x1", "x2"])
    ternary = FeatureSchema(
        features=tuple((f"x{i}", ("0", "1", "2")) for i in range(3)), classes=("neg", "pos")
    )
    r = SplitMix64(11)
    cases = []
    for schema, top in ((binary, 1), (ternary, 2)):
        space = list(instance_space(schema))
        train = Dataset(
            schema, tuple(LabeledExample(i, int(i[0] == top) ^ int(i[1] == top)) for i in space)
        )
        test = Dataset(schema, tuple(LabeledExample(i, i[2] % 2) for i in space))
        shared = [i for i in space if max(i) < 2]
        own = [space[r.below(len(space))] for _ in range(9)]
        cases += [(train, test, shared), (train, test, own)]
    lim = EnumerationLimits(max_nodes=5)
    track = TrackOptions(path_bins=0.25)
    want = [forest_summary(*case[:2], lim, case[2], track, mode="stream") for case in cases]
    assert all(w.total_trees for w in want) and want[0] != want[1] and want[2] != want[3]
    for _ in range(2):
        for case, expected in zip(cases, want):
            assert forest_summary(*case[:2], lim, case[2], track) == expected


def _three_way_rows(schema, r, base):
    # `base` plus a random draw of the space, each row up to twice, with
    # the label (x0 + x1) % 2
    rows = list(base)
    for inst in instance_space(schema):
        for _ in range(r.below(3) if r.below(2) else 0):
            rows.append(inst)
    return Dataset(schema, tuple(LabeledExample(i, (i[0] + i[1]) % 2) for i in rows))


@pytest.mark.property_based
@given(st.integers(0, 2**32), st.integers(4, 6))
@settings(max_examples=30, deadline=None)
def test_splits_with_three_open_children_agree_across_routes(seed, cap):
    # three ternary features: (v, 0, 0) and (v, 1, 0) differ in label, so
    # the root split on x0 has three impure children, all three open
    schema = FeatureSchema(
        features=tuple((f"x{i}", ("0", "1", "2")) for i in range(3)), classes=("a", "b")
    )
    r = SplitMix64(seed)
    train = _three_way_rows(schema, r, [(v, w, 0) for v in range(3) for w in range(2)])
    test = _three_way_rows(schema, r, [])
    limits = EnumerationLimits(max_nodes=cap)
    track = TrackOptions(error_hist=True)
    stream = forest_summary(train, test, limits, track=track, mode="stream")
    assert stream == forest_summary(train, test, limits, track=track, mode="algebraic")
    assert stream.min_size is not None
    assert min_consistent_size(train, cap) == stream.min_size


@pytest.mark.property_based
@given(st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_router_one_probe_checks_match_their_definitions(seed):
    from forestscope.forest import _Router

    # lenses rows with duplicates and a conflicting label, over 3 classes and
    # over the first 2; the mask-first purity rule reads a set's lowest row
    # only when it holds no class-0 row, so such sets are drawn on purpose
    lenses = bundled_dataset("lenses").schema
    space = list(instance_space(lenses))
    r = SplitMix64(seed)
    for n_classes in (2, 3):
        schema = FeatureSchema(lenses.features, lenses.classes[:n_classes])
        rows = []
        for _ in range(1 + r.below(20)):
            inst = space[r.below(len(space))]
            rows += [LabeledExample(inst, r.below(n_classes))] * (1 + r.below(3))
        rows.append(LabeledExample(rows[0].instance, (rows[0].label + 1) % n_classes))
        _check_router(_Router(Dataset(schema, tuple(rows))), rows, r)


def _check_router(router, rows, r):
    n_rows, n_classes = router.full.bit_length(), router.n_classes
    assert n_rows == len(rows)

    def label_of(i):
        (c,) = [c for c in range(n_classes) if router.class_mask[c] >> i & 1]
        return c

    def check(bits, labels):
        # labels: the class of each row in `bits`, counted directly
        weights = [labels.count(c) for c in range(n_classes)]
        present = [c for c in range(n_classes) if weights[c]]
        assert router.sole_class(bits) == (present[0] if len(present) == 1 else None)
        for c in range(n_classes):
            assert router.wrong_weight(bits, c) == len(labels) - weights[c]
        if labels:
            assert router.majority(bits) == weights.index(max(weights))

    def check_rows(bits):
        check(bits, [label_of(i) for i in range(n_rows) if bits >> i & 1])

    check(0, [])
    check(router.full, [ex.label for ex in rows])
    for i in range(n_rows):
        check(1 << i, [label_of(i)])
    no_class0 = router.full & ~router.class_mask[0]
    for mask in [no_class0] + router.class_mask:
        check_rows(mask)
    for _ in range(20):
        bits = r.below(1 << n_rows)
        check_rows(bits)
        check_rows(bits & no_class0)
        check_rows(bits & router.class_mask[label_of(r.below(n_rows))])
    for _ in range(20):
        # the rows one partial path admits, counted over the examples
        bits = router.full
        fixed = {f: r.below(a) for f, a in enumerate(router.arities) if r.below(2)}
        for f, v in fixed.items():
            bits &= router.value_mask[f][v]
        check(bits, [ex.label for ex in rows if all(ex.instance[f] == v for f, v in fixed.items())])


@pytest.mark.property_based
@given(st.integers(0, 2**32))
@settings(max_examples=200, deadline=None)
def test_router_from_dataset_runs_equals_a_row_by_row_build(seed):
    from forestscope.forest import _Router

    # lenses rows drawn with replacement, so duplicates and conflicting
    # labels appear, shuffled so a pair's rows are not adjacent
    schema = bundled_dataset("lenses").schema
    space = list(instance_space(schema))
    r = SplitMix64(seed)
    pairs = [(space[r.below(len(space))], r.below(3)) for _ in range(1 + r.below(8))]
    rows = [LabeledExample(*pairs[i]) for i in r.below_many(len(pairs), 1 + r.below(40))]
    data = Dataset(schema, tuple(rows))
    router = _Router(data)

    # row by row: each pair's rows take the next bits, pairs in first-row order
    order = []
    for ex in rows:
        if (ex.instance, ex.label) not in order:
            order.append((ex.instance, ex.label))
    assert list(data.runs.items()) == [(p, rows.count(LabeledExample(*p))) for p in order]
    value_mask = [[0] * a for a in schema.arities]
    class_mask = [0] * 3
    row_class, first_row = [], {}
    for inst, label in order:
        for ex in rows:
            if (ex.instance, ex.label) == (inst, label):
                bit = 1 << len(row_class)
                first_row.setdefault(inst, bit)
                row_class.append(label)
                class_mask[label] |= bit
                for f, v in enumerate(inst):
                    value_mask[f][v] |= bit
    full = (1 << len(rows)) - 1
    assert router.full == full
    assert router.value_mask == value_mask
    assert router.class_mask == class_mask
    assert router.other_mask == [full & ~m for m in class_mask]
    assert router.row_class == row_class
    assert router.inst_mask == sum(first_row.values())
    assert router.inst_mask.bit_count() == len({ex.instance for ex in rows})
