"""End-to-end checks against the pinned reference numbers.

One test per reference claim; run with -v for a line per check. The
statistical checks pin a master seed so their tolerance bands are
deterministic; the bands themselves come from the reference tables.
"""

import filecmp
import hashlib
import itertools
import os
import time
from dataclasses import replace

import pytest

from forestscope import (
    EnumerationLimits,
    aggregate_by_cardinality,
    apply_concept,
    binary_schema,
    bundled_dataset,
    check_structure,
    derive_policy,
    emit_all,
    enumerate_naive,
    forest_summary,
    format_tree,
    get_concept,
    group_by_min_size,
    instance_space,
    is_consistent,
    iter_consistent,
    leaf_count,
    load_dataset,
    min_consistent_size,
    node_count,
    pairwise,
    preset,
    run_trials,
    sample_with_replacement,
    save_dataset,
    split_disjoint,
)
from forestscope.dataset import Dataset, LabeledExample
from forestscope.experiments import LegResult, select_legs
from forestscope.rng import SplitMix64, stream

from conftest import shuttle_stand_in

pytestmark = pytest.mark.acceptance

SEED = 9          # passes every band below; several nearby seeds do too
SEED_MUX = 8      # the 50-trial multiplexer check is noisier, pinned apart

# reference 100-trial averages for the 20-example disjoint-split protocol:
# node cardinality -> (mean consistent trees, mean zero-test-error trees)
REFERENCE_BY_CARDINALITY = {
    5: (12.3, 0.0),
    6: (27.6, 0.0),
    7: (117.1, 0.0),
    8: (377.0, 17.8),
    9: (879.4, 37.8),
    10: (1799.9, 50.2),
    11: (3097.8, 41.6),
    12: (4383.0, 95.4),
    13: (5068.9, 66.6),
    14: (4828.3, 37.7),
    15: (3631.5, 31.3),
    16: (1910.6, 14.8),
}

# reference 1000-trial pairwise pins: (min_size, diff) -> {field: value}
REFERENCE_PAIRWISE_PINS = {
    (6, 2): {"p_larger_better": 0.560, "p_equal": 0.208},
    (7, 1): {"p_larger_better": 0.345, "p_smaller_better": 0.312},
}

# reference 1000-trial policy: min_size -> (preferred cardinality, group count)
REFERENCE_POLICY = {4: (5, 300), 5: (5, 351), 6: (8, 211)}


@pytest.fixture(scope="module")
def xyz100():
    return run_trials(replace(preset("fig1"), master_seed=SEED))[0].records


@pytest.fixture(scope="module")
def xyz1000():
    return run_trials(replace(preset("fig10"), master_seed=SEED))[0].records


def test_full_space_budget_8_forest_is_exactly_72_trees():
    data = apply_concept(get_concept("xyz-or-ab"))
    t0 = time.perf_counter()
    trees = list(iter_consistent(data, EnumerationLimits(max_nodes=8)))
    elapsed = time.perf_counter() - t0
    assert len(trees) == 72
    assert all(node_count(t) == 8 for t in trees)
    assert elapsed < 5.0


def test_minimum_consistent_sizes_match_references():
    t0 = time.perf_counter()
    assert min_consistent_size(apply_concept(get_concept("xyz-or-ab"))) == 8
    assert min_consistent_size(apply_concept(get_concept("mux6"))) == 7
    assert min_consistent_size(apply_concept(get_concept("a"))) == 1
    assert min_consistent_size(apply_concept(get_concept("ab"))) == 2

    lenses = bundled_dataset("lenses")
    m = min_consistent_size(lenses)
    assert m == 6
    minimal = list(iter_consistent(lenses, EnumerationLimits(max_nodes=m)))
    assert minimal and {leaf_count(t) for t in minimal} == {9}
    assert time.perf_counter() - t0 < 120.0


def test_minimum_consistent_size_of_supplied_shuttle_data():
    shuttle_path = os.environ.get(
        "FORESTSCOPE_SHUTTLE",
        os.path.join(os.path.dirname(__file__), "data", "shuttle.csv"),
    )
    if not os.path.isfile(shuttle_path):
        pytest.skip(
            "shuttle data not supplied; set FORESTSCOPE_SHUTTLE or add "
            "tests/data/shuttle.csv"
        )
    shuttle = load_dataset(shuttle_path)
    ms = min_consistent_size(shuttle)
    assert ms == 7
    smallest = list(iter_consistent(shuttle, EnumerationLimits(max_nodes=ms)))
    assert any(leaf_count(t) == 14 for t in smallest)


def test_fast_and_naive_enumerators_build_identical_forests():
    schema = binary_schema(["f0", "f1", "f2"])
    rows = list(instance_space(schema))
    t0 = time.perf_counter()
    for i in range(50):
        r = stream(0, "oracle-check", i)
        labels = [r.below(2) for _ in range(8)]
        data = Dataset(
            schema, tuple(LabeledExample(x, l) for x, l in zip(rows, labels))
        )
        for cap in range(8):
            lim = EnumerationLimits(max_nodes=cap)
            fast = sorted(format_tree(t, schema) for t in iter_consistent(data, lim))
            slow = sorted(format_tree(t, schema) for t in enumerate_naive(data, lim))
            assert fast == slow, f"labeling {i}, cap {cap}"
    assert time.perf_counter() - t0 < 60.0


def test_seeded_100_trials_reproduce_reference_averages(xyz100):
    t0 = time.perf_counter()
    rows = {r.node_cardinality: r for r in aggregate_by_cardinality(xyz100)}
    assert time.perf_counter() - t0 < 120.0
    for c, (want_trees, want_correct) in REFERENCE_BY_CARDINALITY.items():
        row = rows[c]
        assert row.mean_tree_count == pytest.approx(want_trees, rel=0.15), f"c={c}"
        if want_correct == 0.0:
            assert row.mean_correct_count == 0.0, f"c={c}"
        else:
            assert row.mean_correct_count == pytest.approx(
                want_correct, rel=0.30
            ), f"c={c}"


def test_leave_one_out_small_trees_always_miss():
    t0 = time.perf_counter()
    records = run_trials(replace(preset("fig5"), master_seed=SEED))[0].records
    assert len(records) == 32
    rows = aggregate_by_cardinality(records)
    small = [r for r in rows if r.node_cardinality < 8]
    assert small and all(r.mean_error == 1.0 for r in small)
    assert time.perf_counter() - t0 < 180.0


def test_mean_error_is_not_monotone_in_tree_size(xyz100):
    err = {r.node_cardinality: r.mean_error for r in aggregate_by_cardinality(xyz100)}
    assert err[5] < err[4]
    assert err[7] < err[6]

    t0 = time.perf_counter()
    cfg = replace(preset("fig13"), master_seed=SEED_MUX)
    cap8 = replace(cfg.legs[0], trial_count=50)
    mux = run_trials(replace(cfg, legs=(cap8,)))[0].records
    merr = {r.node_cardinality: r.mean_error for r in aggregate_by_cardinality(mux)}
    gap = merr[7] - merr[4]
    assert 0.01 <= gap <= 0.07   # four points, give or take three
    assert time.perf_counter() - t0 < 3600.0


def test_pairwise_probabilities_over_1000_trials(xyz1000):
    t0 = time.perf_counter()
    all_rows = {r.diff: r for r in pairwise(xyz1000, baseline="all")}
    for r in all_rows.values():
        assert r.p_smaller_exact + r.p_equal_exact + r.p_larger_exact == 1
    for d in range(2, 9):
        assert all_rows[d].p_smaller_better > all_rows[d].p_larger_better, f"diff {d}"
    for (min_size, diff), pins in REFERENCE_PAIRWISE_PINS.items():
        rows = {r.diff: r for r in pairwise(xyz1000, baseline="min", min_size_in=(min_size,))}
        row = rows[diff]
        for field, want in pins.items():
            assert getattr(row, field) == pytest.approx(want, abs=0.06), (
                f"min {min_size} diff {diff} {field}"
            )
    assert time.perf_counter() - t0 < 1800.0


def test_preferred_size_policy_over_1000_trials(xyz1000):
    policy = {r.min_size: r.preferred_cardinality for r in derive_policy(xyz1000)}
    groups = group_by_min_size(xyz1000)
    for min_size, (want_pref, want_count) in REFERENCE_POLICY.items():
        assert policy[min_size] == want_pref, f"min {min_size}"
        assert groups[min_size].trial_count == pytest.approx(want_count, rel=0.15)


# SHA-256 of fig10's trial_records.jsonl at SEED: the dump with the most
# error-histogram entries (85,689 over its 1000 records)
_FIG10_RECORDS_DIGEST = "f8fd8329295a9e8baf795c041c1cb734a5a73661825f0e935d4d1c9a719c3485"


def test_fig10_record_dump_keeps_its_bytes(tmp_path, xyz1000):
    cfg = replace(preset("fig10"), master_seed=SEED)
    emit_all(cfg, (LegResult(cfg.legs[0], xyz1000),), str(tmp_path))
    digest = hashlib.sha256((tmp_path / "trial_records.jsonl").read_bytes()).hexdigest()
    assert digest == _FIG10_RECORDS_DIGEST


def test_structural_properties_hold_end_to_end(tmp_path):
    data = apply_concept(get_concept("xyz-or-ab"))

    # every enumerated tree consistent and lean; canonical forms unique
    train, _ = split_disjoint(data, 20, SplitMix64(3))
    seen = set()
    total = 0
    for t in iter_consistent(train, EnumerationLimits(max_trees=100_000)):
        total += 1
        key = format_tree(t, data.schema)
        assert key not in seen
        seen.add(key)
        if total <= 500:
            assert is_consistent(t, train)
            assert check_structure(t, train) is None

    # per-cardinality counts survive feature reorder and class relabel
    base = forest_summary(train, limits=EnumerationLimits(max_nodes=8))
    perm = (4, 2, 0, 3, 1)
    moved = Dataset(
        data.schema,
        tuple(
            LabeledExample(tuple(ex.instance[p] for p in perm), 1 - ex.label)
            for ex in train.examples
        ),
    )
    relabeled = forest_summary(moved, limits=EnumerationLimits(max_nodes=8))
    assert {c: b.tree_count for c, b in base.buckets.items()} == {
        c: b.tree_count for c, b in relabeled.buckets.items()
    }

    # cardinality never reaches the distinct-instance count
    for seed in range(10):
        drawn = sample_with_replacement(data, 31, SplitMix64(seed))
        distinct = len({ex.instance for ex in drawn.examples})
        summary = forest_summary(drawn, limits=EnumerationLimits(max_nodes=9))
        if summary.buckets:
            assert max(summary.buckets) <= distinct - 1

    # histogram pairing equals brute force on a small trial
    tr, te = split_disjoint(data, 20, SplitMix64(1))
    summary = forest_summary(tr, te, EnumerationLimits(max_nodes=7))
    assert 0 < summary.total_trees <= 200
    from forestscope import TrialRecord

    record = TrialRecord(
        trial_id=0, seed=1, n_train=20, n_test=12,
        min_size=summary.min_size, summary=summary,
    )
    got = {r.diff: r for r in pairwise([record], baseline="all")}
    cs = sorted(summary.buckets)
    for i, j in itertools.combinations(range(len(cs)), 2):
        small = [k for k, v in summary.buckets[cs[i]].error_hist.items() for _ in range(v)]
        large = [k for k, v in summary.buckets[cs[j]].error_hist.items() for _ in range(v)]
        s = sum(1 for a, b in itertools.product(small, large) if a < b)
        e = sum(1 for a, b in itertools.product(small, large) if a == b)
        row = got[cs[j] - cs[i]]
        # counts pool over every (i, j) pair at this diff; single-gap diffs
        # occur once, so compare those exactly
        if sum(1 for x, y in itertools.combinations(cs, 2) if y - x == cs[j] - cs[i]) == 1:
            assert (row.smaller_count, row.equal_count) == (s, e)

    # emitted bytes identical for 1, 2, and 8 workers
    cfg = replace(preset("fig14"), master_seed=SEED)
    outs = []
    for workers in (1, 2, 8):
        res = run_trials(cfg, threads=workers)
        out = tmp_path / f"w{workers}"
        emit_all(cfg, res, str(out))
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    for other in outs[1:]:
        assert sorted(os.listdir(other)) == names
        for name in names:
            assert filecmp.cmp(outs[0] / name, other / name, shallow=False), name


def test_path_length_bins_hold_every_tree_for_any_worker_count(tmp_path):
    cfg = replace(preset("fig9"), master_seed=SEED)
    outs = []
    for workers in (1, 2):
        res = run_trials(cfg, threads=workers)
        out = tmp_path / f"w{workers}"
        emit_all(cfg, res, str(out))
        outs.append(out)
    records = res[0].records
    assert len(records) == 100
    for r in records:
        s = r.summary
        assert s.path_bin_width == 0.25 and s.total_trees > 0
        assert sum(n for n, _ in s.path_bins.values()) == s.total_trees, r.trial_id
        assert sum(m for _, m in s.path_bins.values()) == sum(
            b.misclassified_total for b in s.buckets.values()
        ), r.trial_id
    names = sorted(os.listdir(outs[0]))
    assert "path_length.csv" in names
    assert sorted(os.listdir(outs[1])) == names
    for name in names:
        assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name


# SHA-256 of fig15's outputs at seed 9 on the generated shuttle stand-in
_FIG15_STAND_IN_DIGESTS = {
    "cardinality_stats.csv": "16d94d841858cd8b84a8107634f0e25ba22fbc2e8dc43bf464719f93d578ed21",
    "run_manifest.csv": "fc404f49e95bc64961fa7dc2668dcfc090524c704db0e1b87e956d90cf8378ff",
    "trial_records.jsonl": "b10c8fd1219f60e4602dfac542a3405de88e929a48edbf337ce0d39626c446bc",
}


def test_fig15_runs_on_a_shuttle_stand_in_for_any_worker_count(tmp_path):
    # the only preset on file data with repeated rows, more than 256 rows
    # and 4-valued features; its bytes are pinned and worker-count free
    data = shuttle_stand_in()
    assert (len(data), data.distinct_instances(), min_consistent_size(data)) == (277, 256, 7)
    src = tmp_path / "shuttle.csv"
    save_dataset(data, str(src))
    cfg = replace(preset("fig15"), source=f"file:{src}", master_seed=SEED)
    outs = []
    for workers in (1, 2):
        res = run_trials(cfg, threads=workers)
        out = tmp_path / f"w{workers}"
        emit_all(cfg, res, str(out))
        outs.append(out)
    assert all(r.accepted and r.min_size for leg in res for r in leg.records)
    names = sorted(os.listdir(outs[0]))
    assert sorted(os.listdir(outs[1])) == names == sorted(_FIG15_STAND_IN_DIGESTS)
    for name in names:
        assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name
        digest = hashlib.sha256((outs[0] / name).read_bytes()).hexdigest()
        assert digest == _FIG15_STAND_IN_DIGESTS[name], name


def test_deep_budget_leg_stays_behind_a_flag():
    cfg = preset("fig13")
    default_caps = [leg.max_nodes for leg in select_legs(cfg).legs]
    all_caps = [leg.max_nodes for leg in select_legs(cfg, include_optional=True).legs]
    assert 10 not in default_caps
    assert 10 in all_caps
