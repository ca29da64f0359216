"""Seeded trial runner: determinism, presets, filters, emitted files."""

import hashlib
import importlib
import inspect
import json
import multiprocessing
import os
import pickle
import pkgutil
from xml.sax.saxutils import escape

import pytest
from dataclasses import replace

import forestscope
from forestscope import (
    DatasetError,
    DatasetFormatError,
    EnumerationTruncated,
    ExperimentConfig,
    InconsistentDataError,
    LegSpec,
    SchemaError,
    TreeFormatError,
    emit_all,
    load_trial_records,
    preset,
    preset_names,
    run_trials,
)
from forestscope import charts, experiments
from forestscope.experiments import ExperimentError, leg_table_label, resolve_source, select_legs


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

        def __init__(self, processes, initializer, initargs):
            started.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(experiments, "_WORKER_CTX", None)
    cfg = small_config()  # 6 trials
    got = run_trials(cfg, threads=threads)
    assert started == ([want] if want > 1 else [])
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
    svgs = ["cardinality_stats.svg", "pairwise.svg", "path_length.svg"]
    names = [os.path.basename(p) for p in written]
    assert sorted(names) == sorted([*headers, "trial_records.jsonl", *svgs])
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


def test_chart_labels_escape_markup_characters_only(tmp_path):
    label = """a & b < c > d " e ' f"""
    path = tmp_path / "chart.svg"
    charts.write_chart(path, label, label, label, [(label, [(0, 0), (1, 1)])])
    body = path.read_bytes()
    want = escape(label).encode()
    assert want == b"""a &amp; b &lt; c &gt; d " e ' f"""
    assert body.count(b">" + want + b"</text>") == 4
    assert label.encode() not in body


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


def _with_bucket_field(row, field, value):
    first = next(iter(row["buckets"]))
    return {**row, "buckets": {first: {**row["buckets"][first], field: value}}}


@pytest.mark.parametrize(
    "make",
    [
        lambda row: json.dumps(_without(row, "preset")).encode(),
        lambda row: json.dumps({**row, "buckets": list(row["buckets"].values())}).encode(),
        lambda row: json.dumps({**row, "path_bins": list(row["path_bins"].values())}).encode(),
        lambda row: json.dumps(row).encode() + b"\n\xff\xfe\n",
        lambda row: json.dumps({**row, "preset": 1}).encode(),
        lambda row: json.dumps(_with_bucket_field(row, "tree_count", "12")).encode(),
        lambda row: json.dumps({**row, "accepted": "yes"}).encode(),
    ],
    ids=[
        "no-preset",
        "buckets-list",
        "path-bins-list",
        "not-utf8",
        "int-preset",
        "str-tree-count",
        "str-accepted",
    ],
)
def test_trial_records_loader_rejects_malformed_rows(tmp_path, record_row, make):
    p = tmp_path / "bad.jsonl"
    p.write_bytes(make(record_row))
    with pytest.raises(ExperimentError):
        load_trial_records(str(p))


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
    # the field stays for the benchmark harness, which passes it False;
    # every dumped bucket holds null there, and only null loads
    with pytest.raises(ExperimentError, match="^leaf histograms are not tracked$"):
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
