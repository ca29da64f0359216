"""Seeded trial runner: determinism, presets, filters, emitted files."""

import hashlib
import importlib
import inspect
import json
import multiprocessing
import os
import pickle
import pkgutil
import re
from xml.sax.saxutils import escape

import pytest
from dataclasses import replace
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import forestscope
from forestscope import (
    CardinalityBucket,
    DatasetError,
    DatasetFormatError,
    EnumerationTruncated,
    ExperimentConfig,
    ForestSummary,
    InconsistentDataError,
    LegResult,
    LegSpec,
    SchemaError,
    TreeFormatError,
    TrialRecord,
    emit_all,
    load_trial_records,
    preset,
    preset_names,
    run_trials,
)
from forestscope import charts, experiments
from forestscope.experiments import ExperimentError, leg_table_label, resolve_source, select_legs
from forestscope.forest import broken_identity


def small_config(**kw):
    base = dict(
        name="unit",
        source="concept:xyz-or-ab",
        legs=(LegSpec(label="", n_train=20, trial_count=6, max_nodes=8),),
        master_seed=5,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def strip_wall(records):
    return [replace(r, wall_ms=0.0) for r in records]


def test_preset_names_cover_the_built_in_set():
    names = preset_names()
    assert "fig1" in names and "table2" in names and "fig15" in names
    for n in names:
        cfg = preset(n)
        assert cfg.legs and cfg.name == n
    with pytest.raises(ExperimentError):
        preset("fig99")


# SHA-256 of (trial_records.jsonl, run_manifest.csv) for presets at seed 9,
# fig13 cut to its first 40 cap8 trials.  Both files hold only ints,
# strings and literal floats such as fig9's bin width, so the digests do
# not depend on the Python version; a change to them is a change of output.
_PINNED_DIGESTS = {
    "fig1": (
        "e7631c393706c3e3017f8f0931f44abff593137f3e34fd0db7a507eeed076ce6",
        "2b23bb99f5dac5440498c04d6c36835a5244917863c49545b7e25a673725c958",
    ),
    # the one preset with unaccepted trials: 16 of its 100 at seed 9
    "fig2": (
        "16a84ea16a71cfbe7d65855fc3a37c0eaa324e53d7b5a8541e3d125fe79081f5",
        "9fca139911c54f1fcf7b820defe2efc1bdb227ced6f4f7469313360e48260189",
    ),
    "fig4": (
        "de4dcf639d9bae837a755d162c16c87a559f9d68468587579daea10abddf395f",
        "e2b4ba4eed13b4b5b6882f4a9d28a7f321c67e8785ed74bc8560b18651c586a9",
    ),
    "fig5": (
        "bdef5441e9f68a2627596e04d079d5030a0818a4ef8c6bfea59b9481744df8a4",
        "2033e8ef1beed62effe8da0f17de49b9ace051757b40dd32ec29b8914fe9ee5e",
    ),
    "fig8": (
        "314016c5da4eb798342c9afb362e4ab3d69c011dd3cdc2155168689153f45bde",
        "3b1d138f92f76c478feb6b6c953a768009bbfaf8c2ed712cf43403550d5037f2",
    ),
    "fig9": (
        "a9d64aa8577d45ac63ebadcbe40c572b4032e4a26a5e0d501995df221de60c7f",
        "77485da0dc8b007ab3e9a3be9c7cb85e8504b2359ae0c9829e3f2730148c3a71",
    ),
    "fig14": (
        "74626da0e8f3b5e7c89787c845eba2d49fff1caab1953ea21b27be04c82a71db",
        "21804b777ad2f9cc9b9425ec8a7eddfbdb00785f761ce1bf3823a9df6036d64c",
    ),
    "fig13": (
        "ce48e8472d4089d5675cda99b06c444c7a99b8f4e28800dc1382eeae048a96b0",
        "de609faf204e2b66550e5a4dfbeac2053c9ea3bca8fd877d86c346044021f6f2",
    ),
}


def _pinned_config(name):
    cfg = replace(select_legs(preset(name)), master_seed=9)
    if name == "fig13":
        cfg = replace(cfg, legs=tuple(replace(l, trial_count=40) for l in cfg.legs))
    return cfg


def _emit_pinned_run(name, out_dir):
    cfg = _pinned_config(name)
    emit_all(cfg, run_trials(cfg, threads=1), str(out_dir))


@pytest.mark.parametrize("name", sorted(_PINNED_DIGESTS))
def test_preset_outputs_keep_their_bytes(tmp_path, name):
    _emit_pinned_run(name, tmp_path)
    got = tuple(
        hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
        for f in ("trial_records.jsonl", "run_manifest.csv")
    )
    assert got == _PINNED_DIGESTS[name]


# SHA-256 of cardinality_stats.csv at seed 9, fig13 cut as above.  Its
# floats are means, rates and confidence half-widths; the half-widths come
# from the package's own correctly rounded standard deviation, so these
# digests do not depend on the Python version's `statistics` either.
_PINNED_CARDINALITY_DIGESTS = {
    "fig1": "4ea60d9be848fbac2bc90e80a689d5b75659f4e8d6bc32dee6ba0d84a8fa5b37",
    "fig2": "43054de2ff3fb11247fd89f7d01e6796fb7c890e6ffd193517f5cea86b7a6737",
    "fig3": "56e67d5ed537529175b9063e3eaae6737d6dd0a155dd2d09077e664a3321b672",  # :minM groups
    "fig8": "910e7dfec8cf1d18f0dc63bd7a47d3f34f42fa851ea4bc582740d789f2153cbd",
    "fig13": "2aa7d5ba50730757762d1680053e1124cd973a569caea4b9d885e7fad90d37ca",
}


@pytest.mark.parametrize("name", sorted(_PINNED_CARDINALITY_DIGESTS))
def test_cardinality_stats_keep_their_bytes(tmp_path, name):
    _emit_pinned_run(name, tmp_path)
    got = hashlib.sha256((tmp_path / "cardinality_stats.csv").read_bytes()).hexdigest()
    assert got == _PINNED_CARDINALITY_DIGESTS[name]


# SHA-256 of each remaining analysis table at seed 9.  fig10, fig11, fig12
# and table2 share one scope, so one run of their draws feeds all four.
_PINNED_TABLE_DIGESTS = {
    "fig9": ("path_length.csv", "8ce10e8cac0b07320a55c12c40e2e9ab240dd183b35700be686891295776df37"),
    "fig10": ("pairwise.csv", "0d9bfa9dfa0be016216c367b2d034d23371c8e427fd0c51c5b6a4bf48a7c6bd0"),
    "fig11": ("pairwise.csv", "9155c9b41098d225a0af53a149d164ea7095fc0e755a818c371ce0ecadcd7494"),
    "fig12": ("pairwise.csv", "7d89c21c6745a54eda023e696fd04b5d2ef513bc89c4d18473d663a0664da6f8"),
    "table2": ("policy.csv", "bf020c3799b6b50ceb9aba09ea74ede9692a5e4a6ed1527a64296f757db4e90e"),
}


@pytest.fixture(scope="module")
def xyz1000_results():
    return run_trials(_pinned_config("fig10"), threads=1)


@pytest.mark.parametrize("name", sorted(_PINNED_TABLE_DIGESTS))
def test_analysis_tables_keep_their_bytes(tmp_path, request, name):
    table, digest = _PINNED_TABLE_DIGESTS[name]
    cfg = _pinned_config(name)
    if cfg.scope == preset("fig10").scope:
        emit_all(cfg, request.getfixturevalue("xyz1000_results"), str(tmp_path))
    else:
        _emit_pinned_run(name, tmp_path)
    assert hashlib.sha256((tmp_path / table).read_bytes()).hexdigest() == digest


def test_config_validation_rejects_bad_combinations():
    with pytest.raises(ExperimentError):
        small_config(legs=(LegSpec(label="", n_train=20, trial_count=0),))
    with pytest.raises(ExperimentError):
        small_config(test_size=10)  # only with-replacement runs use test_size
    with pytest.raises(ExperimentError):
        small_config(split_mode="with_replacement")  # needs test_size
    with pytest.raises(ExperimentError):
        small_config(split_mode="leave_one_out", class_bounds=((1, (5, 8)),))
    with pytest.raises(ExperimentError):
        small_config(leaf_coverage=2, value_bounds=(((0, 1), (7, 13)),))
    with pytest.raises(ExperimentError):
        small_config(analyses=("path_length",))  # needs a bin width
    with pytest.raises(ExperimentError):
        small_config(analyses=("pairwise_all",), error_hist=False)
    with pytest.raises(ExperimentError):
        small_config(analyses=("histograms",))
    with pytest.raises(ExperimentError):
        small_config(split_mode="sideways")
    # caught when the config is built, not inside the trials
    with pytest.raises(ExperimentError):
        small_config(legs=(LegSpec(label="", n_train=20, trial_count=6, max_nodes=-1),))
    for size in (0, -3):
        with pytest.raises(ExperimentError):
            small_config(split_mode="with_replacement", test_size=size)


def test_resolve_source_schemes(tmp_path):
    data = resolve_source("concept:ab")
    assert len(data.examples) == 32
    lenses = resolve_source("bundled:lenses")
    assert len(lenses.examples) == 24
    p = tmp_path / "tiny.csv"
    p.write_text("a=0|1,class=n|y\n0,n\n1,y\n", encoding="utf-8")
    assert len(resolve_source(f"file:{p}").examples) == 2
    with pytest.raises(ExperimentError):
        resolve_source(None)
    with pytest.raises(ExperimentError):
        resolve_source("ftp:whatever")
    with pytest.raises(SchemaError):
        resolve_source("concept:nope")


def test_runs_are_deterministic_and_thread_count_free():
    cfg = small_config()
    a = run_trials(cfg, threads=1)
    b = run_trials(cfg, threads=1)
    c = run_trials(cfg, threads=4)
    assert strip_wall(a[0].records) == strip_wall(b[0].records)
    assert strip_wall(a[0].records) == strip_wall(c[0].records)


@pytest.mark.parametrize(
    "threads, cpus, want",
    [(64, 4, 4), (64, 128, 6), (3, 128, 3), (64, None, 1), (0, 4, 1), (2, 1, 1)],
)
def test_worker_count_is_capped_by_trials_and_cpus(monkeypatch, threads, cpus, want):
    started = []

    class SerialPool:
        """Records the worker count it was asked for and maps in this process."""

        def __init__(self, processes, initializer=None, initargs=()):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cfg = small_config()  # 6 trials
    got = run_trials(cfg, threads=threads)
    assert started == ([want] if want > 1 else [])
    assert strip_wall(got[0].records) == strip_wall(run_trials(cfg, threads=1)[0].records)


def test_a_pooled_run_resolves_its_source_once(monkeypatch):
    class InProcessPool:
        """multiprocessing.Pool's constructor and imap, run in this process,
        which keeps its Ctrl-C handler: the initializer is for a worker."""

        def __init__(self, processes, initializer=None, initargs=()):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    calls = []

    def counted(source):
        calls.append(source)
        return resolve_source(source)

    monkeypatch.setattr(multiprocessing, "Pool", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(experiments, "resolve_source", counted)
    run_trials(small_config(), threads=2)
    assert calls == ["concept:xyz-or-ab"]


def test_fig4_partitions_each_reference_tree_once(monkeypatch):
    # the run finds each minimum tree's leaf rows when it is prepared, and
    # every draw reads them from there
    import forestscope.tree as treemod

    calls, real = [], treemod.leaf_partition

    def counted(node, data):
        calls.append(node)
        return real(node, data)

    monkeypatch.setattr(treemod, "leaf_partition", counted)
    monkeypatch.setattr(experiments, "leaf_partition", counted)
    cfg = preset("fig4")
    cfg = replace(cfg, legs=tuple(replace(leg, trial_count=5) for leg in cfg.legs))
    run_trials(cfg, threads=1)
    assert len(calls) == 72  # the minimum trees of xyz-or-ab


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_two_workers_match_one_under_every_start_method(monkeypatch, method):
    # the pool starts workers the platform's default way; whichever way that
    # is, two workers give the records of one
    monkeypatch.setattr(multiprocessing, "Pool", multiprocessing.get_context(method).Pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    cfg = small_config()  # 6 trials
    got = run_trials(cfg, threads=2)
    assert strip_wall(got[0].records) == strip_wall(run_trials(cfg, threads=1)[0].records)


def test_trial_seeds_depend_on_scope_not_name():
    a = run_trials(small_config(name="one", seed_scope="shared"))[0].records
    b = run_trials(small_config(name="two", seed_scope="shared"))[0].records
    assert [r.seed for r in a] == [r.seed for r in b]
    assert strip_wall(a) == strip_wall(b)
    c = run_trials(small_config(name="one", seed_scope="other"))[0].records
    assert [r.seed for r in a] != [r.seed for r in c]


def test_presets_reanalyzing_one_run_share_their_draws():
    for left, right in (("fig1", "fig3"), ("fig10", "fig11"), ("fig10", "table2")):
        assert preset(left).scope == preset(right).scope


def test_leg_labels_extend_the_scope():
    cfg = small_config(
        legs=(
            LegSpec(label="n10", n_train=10, trial_count=3, max_nodes=6),
            LegSpec(label="n20", n_train=20, trial_count=3, max_nodes=6),
        )
    )
    res = run_trials(cfg)
    assert [r.n_train for r in res[0].records] == [10, 10, 10]
    assert [r.n_train for r in res[1].records] == [20, 20, 20]
    seeds = {r.seed for lr in res for r in lr.records}
    assert len(seeds) == 6
    assert leg_table_label(cfg, res[0].leg) == "unit:n10"


def test_optional_legs_run_only_on_request():
    cfg = preset("fig13")
    default = select_legs(cfg, include_optional=False)
    everything = select_legs(cfg, include_optional=True)
    assert len(everything.legs) > len(default.legs)
    assert all(not leg.optional for leg in default.legs)


def test_leave_one_out_holds_out_each_row():
    cfg = ExperimentConfig(
        name="loo",
        source="concept:parity5",
        legs=(LegSpec(label="", n_train=31, trial_count=32, max_nodes=4),),
        split_mode="leave_one_out",
        master_seed=1,
    )
    recs = run_trials(cfg)[0].records
    assert len(recs) == 32
    assert all(r.n_train == 31 and r.n_test == 1 for r in recs)
    # parity admits no small consistent trees, so the capped forests are empty
    assert all(r.min_size is None for r in recs)
    bad = ExperimentConfig(
        name="loo",
        source="concept:parity5",
        legs=(LegSpec(label="", n_train=31, trial_count=5, max_nodes=4),),
        split_mode="leave_one_out",
    )
    with pytest.raises(ExperimentError):
        run_trials(bad)  # trial count must equal the instance space size


def test_a_leave_one_out_leg_needs_its_train_size_too():
    # the trial count is right; only n_train is one short of the 32-row source
    cfg = ExperimentConfig(
        name="loo",
        source="concept:a",
        legs=(LegSpec(label="", n_train=30, trial_count=32, max_nodes=4),),
        split_mode="leave_one_out",
    )
    with pytest.raises(ExperimentError, match="n_train=31"):
        run_trials(cfg)


@pytest.mark.parametrize("n_train", [15, 16, 17])
def test_fig4_refuses_a_train_size_one_below_its_leaf_coverage(n_train):
    # xyz-or-ab's minimum trees have leaves reaching 1, 1, 2, 2, 2, 4, 4, 8
    # and 8 rows; covering each twice, or each row of a smaller leaf, takes 16
    cfg = preset("fig4")
    cfg = replace(cfg, legs=tuple(replace(l, n_train=n_train, trial_count=3) for l in cfg.legs))
    if n_train < 16:
        with pytest.raises(ExperimentError, match="leaf coverage needs 16 examples"):
            run_trials(cfg, threads=1)
    else:
        records = run_trials(cfg, threads=1)[0].records
        assert [r.n_train for r in records] == [n_train] * 3


def test_post_filter_marks_rather_than_redraws():
    cfg = small_config(
        class_bounds=((1, (5, 8)),),
        legs=(LegSpec(label="", n_train=20, trial_count=20, max_nodes=6),),
    )
    res = run_trials(cfg)[0]
    assert len(res.records) == 20
    kept = res.accepted_records()
    assert 0 < len(kept) < 20
    # same draws as the unfiltered protocol, only flagged
    plain = run_trials(
        small_config(legs=(LegSpec(label="", n_train=20, trial_count=20, max_nodes=6),))
    )[0].records
    assert [r.seed for r in res.records] == [r.seed for r in plain]


def test_emit_all_writes_declared_tables(tmp_path):
    cfg = small_config(
        analyses=("cardinality", "pairwise_all", "policy"),
    )
    res = run_trials(cfg)
    out = tmp_path / "run"
    written = emit_all(cfg, res, str(out))
    names = sorted(os.path.basename(p) for p in written)
    assert names == [
        "cardinality_stats.csv",
        "pairwise.csv",
        "policy.csv",
        "run_manifest.csv",
        "trial_records.jsonl",
    ]
    header = (out / "cardinality_stats.csv").read_text().splitlines()[0]
    assert header == (
        "preset,seed,node_cardinality,trials_present,mean_error,"
        "ci_half_width,mean_tree_count,mean_correct_count"
    )
    manifest = (out / "run_manifest.csv").read_text().splitlines()
    assert manifest[0] == "preset,seed,trial_id,accepted,min_size,total_trees"
    assert len(manifest) == 1 + 6


def test_every_table_header_is_pinned(tmp_path):
    cfg = small_config(
        analyses=(
            "cardinality",
            "min_size_groups",
            "pairwise_all",
            "pairwise_min",
            "policy",
            "path_length",
        ),
        pairwise_conditions=(4, 5),
        path_bin_width=0.5,
    )
    out = tmp_path / "run"
    written = emit_all(cfg, run_trials(cfg), str(out), with_charts=True)
    headers = {
        "cardinality_stats.csv": "preset,seed,node_cardinality,trials_present,mean_error,"
        "ci_half_width,mean_tree_count,mean_correct_count",
        "pairwise.csv": "preset,seed,baseline,min_size_condition,diff,p_smaller_better,"
        "p_equal,p_larger_better,pair_count",
        "policy.csv": "preset,seed,min_size,preferred_cardinality,trial_count",
        "path_length.csv": "preset,seed,bin_center,mean_error,tree_count",
        "run_manifest.csv": "preset,seed,trial_id,accepted,min_size,total_trees",
    }
    # the CLI prints these as its `wrote` lines: the tables in a fixed
    # order, then the manifest and the dump, then the charts
    order = [
        "cardinality_stats.csv",
        "pairwise.csv",
        "policy.csv",
        "path_length.csv",
        "run_manifest.csv",
        "trial_records.jsonl",
        "cardinality_stats.svg",
        "pairwise.svg",
        "path_length.svg",
    ]
    assert written == [os.path.join(str(out), name) for name in order]
    for name, header in headers.items():
        lines = (out / name).read_text().splitlines()
        assert lines[0] == header
        assert len(lines) > 1
    pairwise_lines = (out / "pairwise.csv").read_text().splitlines()[1:]
    runs = {tuple(line.split(",")[2:4]) for line in pairwise_lines}
    assert ("all", "") in runs and ("min", "4") in runs


def test_emit_all_can_render_charts(tmp_path):
    cfg = small_config()
    res = run_trials(cfg)
    written = emit_all(cfg, res, str(tmp_path / "run"), with_charts=True)
    svgs = [p for p in written if p.endswith(".svg")]
    assert svgs
    body = open(svgs[0]).read()
    assert body.startswith("<svg") and "polyline" in body


# SHA-256 of fig9's charts at seed 9.  A chart's coordinates are floats
# formatted to fixed places, so a change to them is a change of output.
_PINNED_CHART_DIGESTS = {
    "cardinality_stats.svg": "f122b6964b5313d089282b61fe1eb2b8b93def1b46d12d599cd01bebb239badc",
    "path_length.svg": "7ea24139c738408c8468e074c9ea581084f6af108253f99a2e589b6964af069d",
}


def test_fig9_charts_keep_their_bytes(tmp_path):
    cfg = _pinned_config("fig9")
    emit_all(cfg, run_trials(cfg, threads=1), str(tmp_path), with_charts=True)
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in _PINNED_CHART_DIGESTS
    }
    assert got == _PINNED_CHART_DIGESTS


def test_chart_labels_escape_markup_characters_only(tmp_path):
    label = """a & b < c > d " e ' f"""
    path = tmp_path / "chart.svg"
    charts.write_chart(path, label, label, label, [(label, [(0, 0), (1, 1)])])
    body = path.read_bytes()
    want = escape(label).encode()
    assert want == b"""a &amp; b &lt; c &gt; d " e ' f"""
    assert body.count(b">" + want + b"</text>") == 4
    assert label.encode() not in body


def _first_trials(name, count):
    cfg = _pinned_config(name)
    return replace(cfg, legs=tuple(replace(l, trial_count=count) for l in cfg.legs))


def test_trial_records_round_trip(tmp_path):
    cfg = small_config(analyses=("cardinality",), path_bin_width=0.5)
    res = run_trials(cfg)
    out = tmp_path / "run"
    emit_all(cfg, res, str(out))
    loaded = load_trial_records(str(out / "trial_records.jsonl"))
    assert [label for label, _ in loaded] == ["unit"] * 6
    assert [r for _, r in loaded] == strip_wall(res[0].records)
    summaries = [r.summary for _, r in loaded]
    assert all(s.path_bins for s in summaries)
    assert all(
        b.path_tests_total is not None for s in summaries for b in s.buckets.values()
    )
    # dump -> load -> dump keeps the bytes: with path bins, for fig8's
    # with-replacement draws without histograms, and for fig2's unaccepted trials
    fig8, fig2 = _first_trials("fig8", 6), _first_trials("fig2", 6)
    for config, results in ((cfg, res), (fig8, run_trials(fig8)), (fig2, run_trials(fig2))):
        first, again = tmp_path / f"{config.name}-1", tmp_path / f"{config.name}-2"
        emit_all(config, results, str(first))
        records = tuple(r for _, r in load_trial_records(str(first / "trial_records.jsonl")))
        emit_all(config, (LegResult(config.legs[0], records),), str(again))
        dumped = (first / "trial_records.jsonl").read_bytes()
        assert (again / "trial_records.jsonl").read_bytes() == dumped, config.name
        if config is fig8:
            assert all(b.error_hist is None for r in records for b in r.summary.buckets.values())
        if config is fig2:
            assert [r.trial_id for r in records if not r.accepted] == [2, 4]
            assert [r.rejections for r in records] == [0, 0, 1, 0, 1, 0]


def test_an_unaccepted_record_needs_no_rejection_count(tmp_path):
    cfg = small_config()
    r = run_trials(cfg)[0].records[0]
    record = TrialRecord(r.trial_id, r.seed, r.n_train, r.n_test, r.min_size, r.summary, accepted=False)
    path = tmp_path / "records.jsonl"
    experiments._write_records(path, cfg, (LegResult(cfg.legs[0], (record,)),))
    assert b'"rejections": 1' in path.read_bytes()
    assert load_trial_records(path) == [("unit", record)]


def _dict_form(label, r):
    """A record as the dict that `json.dumps(row, sort_keys=True)` once wrote
    as its line: the oracle of the line writer."""

    def str_keys(d):
        return None if d is None else {str(k): v for k, v in d.items()}

    s = r.summary
    buckets = {
        str(c): {
            "tree_count": b.tree_count,
            "correct_count": b.correct_count,
            "misclassified_total": b.misclassified_total,
            "error_hist": str_keys(b.error_hist),
            "path_tests_total": b.path_tests_total,
            "leaf_hist": None,
        }
        for c, b in s.buckets.items()
    }
    return {
        "trial_id": r.trial_id,
        "seed": r.seed,
        "accepted": r.accepted,
        "rejections": r.rejections,
        "n_train": r.n_train,
        "n_test": r.n_test,
        "min_size": r.min_size,
        "test_weight": s.test_weight,
        "population_size": s.population_size,
        "path_bin_width": s.path_bin_width,
        "path_bins": str_keys(s.path_bins),
        "preset": label,
        "buckets": buckets,
    }


# int keys across 9, 99 and 999, where "10" sorts before "2"
_KEYS = st.sampled_from((0, 1, 2, 9, 10, 11, 20, 99, 100, 101, 999, 1000, 1001)) | st.integers(0, 1100)
_COUNTS = st.integers(0, 12) | st.integers(2**64 - 2, 2**66)  # and past 2**64
# an error histogram holding at least one tree, or none
_HISTS = st.none() | st.dictionaries(_KEYS, _COUNTS, min_size=1, max_size=4).filter(
    lambda h: any(h.values())
)
# quotes, backslashes, control and non-ASCII characters
_LABELS = st.text(st.sampled_from('a:"\\\n\x00é☃𝄞'), max_size=6)


@st.composite
def _records(draw):
    """Records whose summaries obey `broken_identity`'s identities: the
    counts of a bucket with a histogram are derived from it, and path bins
    regroup the buckets' totals."""
    hists = draw(st.dictionaries(_KEYS, _HISTS, max_size=4))
    test_weight = max((k for h in hists.values() if h for k in h), default=0) + draw(_COUNTS)
    buckets = {}
    for c, hist in hists.items():
        if hist is None:
            trees = draw(_COUNTS.map(lambda n: n + 1))
            counts = (trees, draw(st.integers(0, trees)), draw(st.integers(0, trees * test_weight)))
        else:
            counts = (sum(hist.values()), hist.get(0, 0), sum(k * n for k, n in hist.items()))
        buckets[c] = CardinalityBucket(*counts, hist, draw(st.none() | _COUNTS))
    path_bins = None
    if draw(st.booleans()):
        path_bins = {}
        for b in buckets.values():
            entry = path_bins.setdefault(draw(_KEYS), [0, 0])
            entry[0] += b.tree_count
            entry[1] += b.misclassified_total
    summary = ForestSummary(
        buckets=buckets,
        test_weight=test_weight,
        population_size=draw(st.none() | _COUNTS),
        path_bin_width=draw(st.sampled_from((None, 0.25, 1, 0.1, 2.5))),
        path_bins=path_bins,
    )
    return TrialRecord(
        trial_id=draw(_COUNTS),
        seed=draw(_COUNTS),
        n_train=draw(_COUNTS),
        n_test=summary.test_weight,
        min_size=summary.min_size,
        summary=summary,
        accepted=draw(st.booleans()),
    )


@given(
    name=_LABELS,
    legs=st.lists(st.tuples(_LABELS, st.lists(_records(), min_size=1, max_size=2)), min_size=1, max_size=2),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_record_lines_are_the_sorted_json_of_their_dict_form(tmp_path, name, legs):
    cfg = small_config(name=name)
    results = tuple(LegResult(LegSpec(label, 20, len(rs)), tuple(rs)) for label, rs in legs)
    path = tmp_path / "records.jsonl"
    experiments._write_records(path, cfg, results)
    pairs = [(leg_table_label(cfg, res.leg), r) for res in results for r in res.records]
    want = "".join(json.dumps(_dict_form(*pair), sort_keys=True) + "\n" for pair in pairs)
    assert path.read_bytes() == want.encode("utf-8")
    assert load_trial_records(path) == pairs


@pytest.mark.parametrize(
    "bucket, want",
    [
        # a histogram-free bucket, as in fig8's dumps: only the total can break
        (CardinalityBucket(3, 0, 3 * 12 + 1), "more errors than tree-test pairs"),
        (CardinalityBucket(3, 0, 3 * 12), None),
        # one tree at weight + 1 errors; mass, zero count and sum all agree
        (CardinalityBucket(2, 1, 13, {0: 1, 13: 1}), "error count 13 above test weight 12"),
        (CardinalityBucket(2, 1, 12, {0: 1, 12: 1}), None),
    ],
)
def test_broken_identity_at_the_test_weights_edge(bucket, want):
    broken = broken_identity(ForestSummary({4: bucket}, test_weight=12))
    assert broken == (want and f"cardinality 4: {want}")


def test_trial_records_loader_rejects_garbage(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"nope": 1}\n', encoding="utf-8")
    with pytest.raises(ExperimentError):
        load_trial_records(str(p))


@pytest.fixture(scope="module")
def record_row(tmp_path_factory):
    """One dumped trial record, with path bins, as a parsed JSON object."""
    cfg = small_config(
        analyses=("cardinality",),
        legs=(LegSpec(label="", n_train=20, trial_count=1, max_nodes=8),),
        path_bin_width=0.5,
    )
    out = tmp_path_factory.mktemp("records")
    emit_all(cfg, run_trials(cfg), str(out))
    return json.loads((out / "trial_records.jsonl").read_text().splitlines()[0])


def _without(row, field):
    return {k: v for k, v in row.items() if k != field}


def _with_bucket_field(row, field, value, card=None):
    """`row` with one field of one bucket, by default the first, set to `value`."""
    card = card or next(iter(row["buckets"]))
    return {**row, "buckets": {**row["buckets"], card: {**row["buckets"][card], field: value}}}


def _line(row) -> bytes:
    return json.dumps(row, sort_keys=True).encode() + b"\n"


def _one_tree_at_70_errors(row):
    """`row` with one tree of its last bucket moved to 70 errors, its
    misclassified total moved to match: only the test weight, 12, disagrees."""
    card, bucket = list(row["buckets"].items())[-1]
    hist = dict(bucket["error_hist"])
    worst = max(hist, key=int)
    hist[worst] -= 1
    hist["70"] = 1
    misclassified = bucket["misclassified_total"] + 70 - int(worst)
    row = _with_bucket_field(row, "error_hist", hist, card)
    return _with_bucket_field(row, "misclassified_total", misclassified, card)


# Each edit of a dumped record with the start of the refusal it meets.
# Every line but the edited one is the line the writer wrote.
_MALFORMED = {
    "no-preset": (lambda row: _line(_without(row, "preset")), "line 1: missing field 'preset'"),
    "buckets-list": (
        lambda row: _line({**row, "buckets": list(row["buckets"].values())}),
        "line 1: expected a JSON object, found list",
    ),
    "path-bins-list": (
        lambda row: _line({**row, "path_bins": list(row["path_bins"].values())}),
        "line 1: expected a JSON object, found list",
    ),
    "not-utf8": (lambda row: _line(row) + b"\xff\xfe\n", "line 2: 'utf-8' codec can't decode"),
    "int-preset": (lambda row: _line({**row, "preset": 1}), "line 1: preset is not a string"),
    "str-tree-count": (lambda row: _line(_with_bucket_field(row, "tree_count", "12")), "line 1: %d format"),
    "str-accepted": (lambda row: _line({**row, "accepted": "yes"}), "line 1: not the line the writer"),
    # a count edited while the error histogram keeps the old one
    "tree-count-off-its-histogram": (
        lambda row: _line(_with_bucket_field(row, "tree_count", 5)),
        "line 1: cardinality 5: error histogram mass != tree count",
    ),
    "correct-count-over-trees": (
        lambda row: _line(_with_bucket_field(row, "correct_count", 99_999)),
        "line 1: cardinality 5: more correct trees than trees",
    ),
    "duplicate-key": (
        lambda row: _line(row).replace(b'"accepted": true', b'"accepted": true, "accepted": true'),
        "line 1: not the line the writer",
    ),
    "error-count-over-n-test": (
        lambda row: _line(_one_tree_at_70_errors(row)),
        "line 1: cardinality 8: error count 70 above test weight 12",
    ),
    "extra-key": (lambda row: _line({**row, "note": 1}), "line 1: not the line the writer"),
    "whitespace": (lambda row: _line(row).replace(b", ", b",  ", 1), "line 1: not the line the writer"),
    "five-rejections": (
        lambda row: _line({**row, "rejections": 5}),
        "line 1: 5 rejections in a trial that draws once",
    ),
    "reordered-key": (
        lambda row: json.dumps({"trial_id": row["trial_id"], **_without(row, "trial_id")}).encode() + b"\n",
        "line 1: not the line the writer",
    ),
    "float-tree-count": (
        lambda row: _line(_with_bucket_field(row, "tree_count", 6.0)),
        "line 1: not the line the writer",
    ),
    "infinite-tree-count": (
        lambda row: _line(_with_bucket_field(row, "tree_count", float("inf"))),
        "line 1: cannot convert float infinity to integer",
    ),
    "three-item-path-bin": (
        lambda row: _line({**row, "path_bins": {k: [*v, 0] for k, v in row["path_bins"].items()}}),
        "line 1: not all arguments converted",
    ),
    "trailing-blank-line": (lambda row: _line(row) + b"\n", "line 2: Expecting value"),
}


@pytest.mark.parametrize("make, refusal", _MALFORMED.values(), ids=_MALFORMED)
def test_trial_records_loader_rejects_malformed_rows(tmp_path, record_row, make, refusal):
    p = tmp_path / "bad.jsonl"
    p.write_bytes(make(record_row))
    with pytest.raises(ExperimentError, match=f": {re.escape(refusal)}"):
        load_trial_records(str(p))
    # the unedited record loads
    p.write_bytes(_line(record_row))
    assert len(load_trial_records(str(p))) == 1


@pytest.mark.parametrize(
    "field, value, shown",
    [
        ("tree_count", -5, "-5"),
        ("misclassified_total", -1, "-1"),
        ("error_hist", {"3": -3}, "-3"),
        ("error_hist", {"-2": 1}, "-2"),
    ],
)
def test_trial_records_loader_refuses_negative_counts(tmp_path, record_row, field, value, shown):
    p = tmp_path / "edited.jsonl"
    edited = _with_bucket_field(record_row, field, value)
    p.write_text(json.dumps(record_row) + "\n" + json.dumps(edited) + "\n", encoding="utf-8")
    with pytest.raises(ExperimentError, match=f"line 2: negative count {shown}$"):
        load_trial_records(str(p))


def test_leaf_histograms_are_not_tracked(tmp_path, record_row):
    # no run sets leaf histograms: the benchmark harness reads a False
    # constant; every dumped bucket holds null there, and only null loads
    with pytest.raises(TypeError, match="leaf_hist"):
        small_config(leaf_hist=True)
    assert all(b["leaf_hist"] is None for b in record_row["buckets"].values())
    p = tmp_path / "edited.jsonl"
    edited = _with_bucket_field(record_row, "leaf_hist", {"3": 1})
    p.write_text(json.dumps(record_row) + "\n" + json.dumps(edited) + "\n", encoding="utf-8")
    with pytest.raises(ExperimentError, match="line 2: leaf histograms are not tracked"):
        load_trial_records(str(p))


def test_trial_records_loader_needs_every_field(tmp_path, record_row):
    p = tmp_path / "row.jsonl"
    bucket = next(iter(record_row["buckets"]))
    rows = [_without(record_row, f) for f in record_row]
    rows += [
        {**record_row, "buckets": {bucket: _without(record_row["buckets"][bucket], f)}}
        for f in record_row["buckets"][bucket]
    ]
    for row in rows:
        p.write_text(json.dumps(row) + "\n", encoding="utf-8")
        with pytest.raises(ExperimentError, match="missing field"):
            load_trial_records(str(p))


def _package_exceptions():
    found = set()
    for info in pkgutil.iter_modules(forestscope.__path__):
        module = importlib.import_module(f"forestscope.{info.name}")
        for obj in vars(module).values():
            if (
                inspect.isclass(obj)
                and issubclass(obj, BaseException)
                and obj.__module__.startswith("forestscope.")
            ):
                found.add(obj)
    return sorted(found, key=lambda cls: cls.__name__)


# one instance of every exception class the package defines
_EXCEPTION_SAMPLES = {
    DatasetError: DatasetError("bad data"),
    DatasetFormatError: DatasetFormatError(3, "unknown class token 'x'"),
    EnumerationTruncated: EnumerationTruncated(10),
    ExperimentError: ExperimentError("bad config"),
    InconsistentDataError: InconsistentDataError("two labels"),
    SchemaError: SchemaError("bad schema"),
    TreeFormatError: TreeFormatError("bad tree"),
}


@pytest.mark.parametrize("cls", _package_exceptions(), ids=lambda cls: cls.__name__)
def test_every_exception_survives_pickling(cls):
    # worker errors reach the parent pickled; they must read the same there
    error = _EXCEPTION_SAMPLES[cls]
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is cls
    assert str(back) == str(error)
    assert vars(back) == vars(error)
