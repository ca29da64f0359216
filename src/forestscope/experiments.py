"""Seeded experiment runner: named sampling protocols over enumeration.

An ExperimentConfig binds a dataset source, one or more legs (train size,
trial count, node cap), a sampling protocol, and the analyses to emit.
Presets encode the library's named experiments; `run_trials` executes the
trials (optionally on a worker pool) and `emit_all` reduces the records to
CSV tables, a JSONL record dump, and optional SVG charts.

Determinism contract: each trial derives its seed from (master_seed,
seed_scope[:leg], trial index) alone, and per-trial randomness is consumed
in a fixed documented order (reference-tree pick, then the sample draws).
Scheduling therefore cannot change any emitted byte: wall-clock timings go
to progress output only, never into the CSV tables or the record dump.
Presets that reanalyze one underlying run share a seed_scope so their
trials are literally the same draws.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, ClassVar, Sequence

from . import charts, stats
from .dataset import (
    Dataset,
    DatasetError,
    _partition,
    apply_concept,
    bundled_dataset,
    get_concept,
    instance_space,
    leaf_coverage_sample,
    load_dataset,
    representative_filter,
    sample_with_replacement,
    split_disjoint,
)
from .forest import (
    CardinalityBucket,
    EnumerationLimits,
    ForestSummary,
    TrackOptions,
    broken_identity,
    forest_summary,
    iter_consistent,
    min_consistent_size,
)
from .rng import SplitMix64, derive_seed
from .stats import TrialRecord
from .tree import leaf_partition

_SPLIT_MODES = ("disjoint", "with_replacement", "leave_one_out")
_ANALYSES = (
    "cardinality",
    "min_size_groups",
    "pairwise_all",
    "pairwise_min",
    "policy",
    "path_length",
)


class ExperimentError(Exception):
    """Invalid configuration, or a protocol that cannot make progress."""


@dataclass(frozen=True)
class LegSpec:
    """One arm of an experiment: sample size, repetitions, node cap."""

    label: str
    n_train: int
    trial_count: int
    max_nodes: int | None = None
    optional: bool = False  # excluded unless explicitly requested


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    source: str | None  # 'concept:NAME' | 'bundled:NAME' | 'file:PATH'
    legs: tuple[LegSpec, ...]
    split_mode: str = "disjoint"
    test_size: int | None = None  # with_replacement only
    # bounds, when given, mark the disjoint draws that break them unaccepted
    class_bounds: tuple[tuple[int, tuple[int, int]], ...] = ()
    value_bounds: tuple[tuple[tuple[int, int], tuple[int, int]], ...] = ()
    leaf_coverage: int | None = None
    master_seed: int = 0
    seed_scope: str = ""
    error_hist: bool = True
    path_bin_width: float | None = None
    analyses: tuple[str, ...] = ("cardinality",)
    pairwise_conditions: tuple[int, ...] = ()
    # constants, not fields: no run sets them; only perfbench/workloads.py reads them
    max_trees: ClassVar[int] = EnumerationLimits.max_trees
    leaf_hist: ClassVar[bool] = False

    def __post_init__(self):
        if not self.legs:
            raise ExperimentError("an experiment needs at least one leg")
        for leg in self.legs:
            if leg.trial_count < 1:
                raise ExperimentError(f"leg {leg.label!r}: trial_count must be >= 1")
            if leg.n_train < 1:
                raise ExperimentError(f"leg {leg.label!r}: n_train must be >= 1")
            if leg.max_nodes is not None and leg.max_nodes < 0:
                raise ExperimentError(f"leg {leg.label!r}: max_nodes must be >= 0")
        if self.split_mode not in _SPLIT_MODES:
            raise ExperimentError(f"unknown split_mode {self.split_mode!r}")
        if (self.test_size is not None) != (self.split_mode == "with_replacement"):
            raise ExperimentError("test_size is required by (and only by) with_replacement")
        if self.test_size is not None and self.test_size < 1:
            raise ExperimentError("test_size must be >= 1")
        bounded = self.class_bounds or self.value_bounds
        if bounded and self.split_mode != "disjoint":
            raise ExperimentError("representative filtering needs disjoint splits")
        if self.leaf_coverage is not None:
            if self.split_mode != "disjoint" or bounded:
                raise ExperimentError("leaf coverage needs plain disjoint splits")
            if self.leaf_coverage < 1:
                raise ExperimentError("leaf_coverage must be >= 1")
        for a in self.analyses:
            if a not in _ANALYSES:
                raise ExperimentError(f"unknown analysis {a!r}")
        if "path_length" in self.analyses and self.path_bin_width is None:
            raise ExperimentError("path_length analysis needs path_bin_width")
        if self.path_bin_width is not None and self.path_bin_width <= 0:
            raise ExperimentError("path_bin_width must be positive")
        needs_hist = {"pairwise_all", "pairwise_min"} & set(self.analyses)
        if needs_hist and not self.error_hist:
            raise ExperimentError("pairwise analyses need error histograms")

    @property
    def scope(self) -> str:
        return self.seed_scope or self.name


def resolve_source(source: str | None) -> Dataset:
    """The dataset a source names; raises DatasetError if it has no examples."""
    if source is None:
        raise ExperimentError("no dataset source; supply a data file")
    scheme, _, rest = source.partition(":")
    if scheme == "concept":
        data = apply_concept(get_concept(rest))
    elif scheme == "bundled":
        data = bundled_dataset(rest)
    elif scheme == "file":
        data = load_dataset(rest)
    else:
        raise ExperimentError(f"unknown dataset source {source!r}")
    if not data.examples:
        raise DatasetError(f"{source}: no examples")
    return data


@dataclass(frozen=True)
class LegResult:
    leg: LegSpec
    records: tuple[TrialRecord, ...]

    def accepted_records(self) -> tuple[TrialRecord, ...]:
        return tuple(r for r in self.records if r.accepted)


@dataclass(frozen=True)
class _RunContext:
    config: ExperimentConfig
    data: Dataset
    reference_leaf_rows: tuple | None  # each minimum tree's rows per leaf
    population: tuple | None


def _prepare(config: ExperimentConfig) -> _RunContext:
    data = resolve_source(config.source)
    n = len(data.examples)
    leaf_rows, need = None, 0
    if config.leaf_coverage is not None:
        refs = iter_consistent(data, EnumerationLimits(max_nodes=min_consistent_size(data)))
        leaf_rows = tuple(leaf_partition(ref, data) for ref in refs)
        # the rows a draw takes to cover the reference tree that needs the most
        need = max(
            sum(min(config.leaf_coverage, len(rows)) for rows in groups)
            for groups in leaf_rows
        )
    for leg in config.legs:
        if config.split_mode == "leave_one_out":
            if leg.trial_count != n or leg.n_train != n - 1:
                raise ExperimentError(
                    f"leave_one_out needs trial_count={n} and n_train={n - 1}, "
                    f"leg {leg.label!r} has {leg.trial_count}/{leg.n_train}"
                )
        elif config.split_mode == "disjoint" and leg.n_train >= n:
            raise ExperimentError(
                f"leg {leg.label!r}: n_train {leg.n_train} leaves no test rows"
            )
        elif leg.n_train < need:
            raise ExperimentError(
                f"leg {leg.label!r}: leaf coverage needs {need} examples "
                f"but n_train is {leg.n_train}"
            )
    population = None
    if config.path_bin_width is not None:
        population = tuple(instance_space(data.schema))
    return _RunContext(
        config=config, data=data, reference_leaf_rows=leaf_rows, population=population
    )


def _draw(ctx: _RunContext, leg: LegSpec, t: int, rng: SplitMix64):
    """Returns (train, test, accepted).  Draw order is fixed."""
    config = ctx.config
    if config.split_mode == "leave_one_out":
        test, train = _partition(ctx.data, {t})
        return train, test, True
    if config.split_mode == "with_replacement":
        train = sample_with_replacement(ctx.data, leg.n_train, rng)
        test = sample_with_replacement(ctx.data, config.test_size, rng)
        return train, test, True
    if config.leaf_coverage is not None:
        rows = ctx.reference_leaf_rows
        train, test = leaf_coverage_sample(
            ctx.data, rows[rng.below(len(rows))], config.leaf_coverage, leg.n_train, rng
        )
        return train, test, True
    train, test = split_disjoint(ctx.data, leg.n_train, rng)
    if config.class_bounds or config.value_bounds:
        bounds = (dict(config.class_bounds) or None, dict(config.value_bounds) or None)
        return train, test, representative_filter(train, *bounds) is None
    return train, test, True


def _run_one(ctx: _RunContext, job: tuple[int, int]) -> TrialRecord:
    leg_index, t = job
    config = ctx.config
    leg = config.legs[leg_index]
    scope = config.scope + (f":{leg.label}" if leg.label else "")
    seed = derive_seed(config.master_seed, scope, t)
    rng = SplitMix64(seed)
    train, test, accepted = _draw(ctx, leg, t, rng)
    limits = EnumerationLimits(max_nodes=leg.max_nodes)
    track = TrackOptions(error_hist=config.error_hist, path_bins=config.path_bin_width)
    t0 = time.perf_counter()
    summary = forest_summary(train, test, limits, ctx.population, track)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return TrialRecord(
        trial_id=t,
        seed=seed,
        n_train=len(train.examples),
        n_test=len(test.examples),
        min_size=summary.min_size,
        summary=summary,
        accepted=accepted,
        wall_ms=wall_ms,
    )


def select_legs(config: ExperimentConfig, include_optional: bool = False) -> ExperimentConfig:
    legs = tuple(l for l in config.legs if include_optional or not l.optional)
    if not legs:
        raise ExperimentError("no legs left after filtering")
    return replace(config, legs=legs)


def run_trials(
    config: ExperimentConfig,
    threads: int = 1,
    progress: Callable[[str, TrialRecord], None] | None = None,
) -> tuple[LegResult, ...]:
    """Execute every leg's trials; results are identical for any `threads`.

    At most `threads` worker processes start, and never more than there are
    trials or CPUs; one worker runs the trials in this process.
    """
    ctx = _prepare(config)
    jobs = [
        (li, t)
        for li, leg in enumerate(config.legs)
        for t in range(leg.trial_count)
    ]
    run = partial(_run_one, ctx)
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return _collect(config, jobs, map(run, jobs), progress)
    import multiprocessing  # here, so a serial run never loads it
    import signal

    chunk = max(1, len(jobs) // (workers * 8))
    # workers ignore Ctrl-C: only this process raises KeyboardInterrupt, and
    # leaving the `with` terminates them
    with multiprocessing.Pool(
        workers, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN)
    ) as pool:
        return _collect(config, jobs, pool.imap(run, jobs, chunksize=chunk), progress)


def _collect(config, jobs, records, progress) -> tuple[LegResult, ...]:
    per_leg: list[list[TrialRecord]] = [[] for _ in config.legs]
    for (li, _), record in zip(jobs, records):
        per_leg[li].append(record)
        if progress is not None:
            progress(config.legs[li].label, record)
    return tuple(
        LegResult(leg=leg, records=tuple(per_leg[li]))
        for li, leg in enumerate(config.legs)
    )


# ------------------------------------------------------------- emission

def leg_table_label(config: ExperimentConfig, leg: LegSpec) -> str:
    return f"{config.name}:{leg.label}" if leg.label else config.name


def emit_all(
    config: ExperimentConfig,
    results: Sequence[LegResult],
    out_dir: str,
    with_charts: bool = False,
) -> list[str]:
    """Write every requested table that has rows, then the manifest and the
    record dump, then the charts of the charted tables.

    Returns the written paths, in that order.  Accepted trials feed the
    analyses; the manifest and the record dump keep every trial.
    """
    os.makedirs(out_dir, exist_ok=True)
    analyses, seed = config.analyses, config.master_seed
    requests = [("all", None)] if "pairwise_all" in analyses else []
    if "pairwise_min" in analyses:
        conditions = config.pairwise_conditions
        requests += [("min", (k,)) for k in conditions] if conditions else [("min", None)]
    card, pair = stats.CARDINALITY_TABLE, stats.PAIRWISE_TABLE
    policy, lengths = stats.POLICY_TABLE, stats.PATH_LENGTH_TABLE
    sections: dict[stats.Table, list] = {card: [], pair: [], policy: [], lengths: []}  # write order
    for res in results:
        used = res.accepted_records()
        if not used:
            continue
        label = leg_table_label(config, res.leg)
        key = (label, seed)
        if "cardinality" in analyses:
            sections[card].append((key, stats.aggregate_by_cardinality(used)))
        if "min_size_groups" in analyses:
            sections[card] += (
                ((f"{label}:min{m}", seed), group.rows)
                for m, group in stats.group_by_min_size(used).items()
            )
        sections[pair] += (
            (key + (baseline, "" if sizes is None else str(sizes[0])), rows)
            for (baseline, sizes), rows in zip(requests, stats.pairwise_tables(used, requests))
        )
        if "policy" in analyses:
            sections[policy].append((key, stats.derive_policy(used)))
        if "path_length" in analyses:
            sections[lengths].append((key, stats.bin_by_path_length(used, config.path_bin_width)))
    files = [(f"{t.name}.csv", stats.write_table, (t, s)) for t, s in sections.items() if s]
    files += [
        ("run_manifest.csv", _write_manifest, (config, results)),
        ("trial_records.jsonl", _write_records, (config, results)),
    ]
    if with_charts:
        files += [
            (f"{t.name}.svg", _write_chart, (_CHARTS[t], s))
            for t, s in sections.items() if s and t in _CHARTS
        ]
    written = []
    for name, write, args in files:
        written.append(os.path.join(out_dir, name))
        write(written[-1], *args)
    return written


def _write_manifest(path, config, results) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["preset", "seed", "trial_id", "accepted", "min_size", "total_trees"])
        for res in results:
            label = leg_table_label(config, res.leg)
            w.writerows(
                (label, config.master_seed, r.trial_id, int(r.accepted),
                 "" if r.min_size is None else r.min_size, r.summary.total_trees)
                for r in res.records
            )


# Each charted table's title, axis labels, x column and (y column, series
# suffix) pairs.  A chart draws one series per section and y column.
_CHARTS = {
    stats.CARDINALITY_TABLE: (
        "error by tree size", "node cardinality", "mean error",
        "node_cardinality", (("mean_error", ""),),
    ),
    stats.PAIRWISE_TABLE: (
        "pairwise outcome shares", "cardinality difference", "probability",
        "diff",
        (
            ("p_smaller_better", " smaller wins"),
            ("p_equal", " equal"),
            ("p_larger_better", " larger wins"),
        ),
    ),
    stats.PATH_LENGTH_TABLE: (
        "error by path length", "average path length", "mean error",
        "bin_center", (("mean_error", ""),),
    ),
}


def _series_tag(key: tuple) -> str:
    """Legend name of a section: its label, plus a pairwise run's condition and baseline."""
    label, _seed, *run = key
    if not run:
        return label
    baseline, condition = run
    return label + (f" min={condition}" if condition else "") + f" [{baseline}]"


def _write_chart(path, chart, sections) -> None:
    title, x_label, y_label, x, ys = chart
    series = [
        (_series_tag(key) + suffix, [(getattr(r, x), getattr(r, y)) for r in rows])
        for key, rows in sections
        for y, suffix in ys
    ]
    charts.write_chart(path, title, x_label, y_label, series)


# ----------------------------------------------------- record persistence

# `_record_line` is the one definition of a trial_records.jsonl line: a JSON
# object per trial, keys sorted, int keys as strings, and "leaf_hist": null
# (leaf histograms are not tracked).  Every int goes through "%d", so a float,
# a bool or a string there raises or writes other text.
_RECORD_LINE = (
    '{"accepted": %s, "buckets": %s, "min_size": %s, "n_test": %d, "n_train": %d,'
    ' "path_bin_width": %s, "path_bins": %s, "population_size": %s, "preset": %s,'
    ' "rejections": %d, "seed": %d, "test_weight": %d, "trial_id": %d}\n'
)
_BUCKET_ENTRY = (
    '"%d": {"correct_count": %d, "error_hist": %s, "leaf_hist": null,'
    ' "misclassified_total": %d, "path_tests_total": %s, "tree_count": %d}'
)
_HIST_ENTRY = '"%d": %d'.__mod__


def _nullable(n: int | None) -> str:
    return "null" if n is None else "%d" % n


def _int_keyed(entries) -> str:
    """A JSON object keyed by int, from its '"key": value' entries, sorted: the
    quote closing a key sorts below every digit, so keys go in string order."""
    return "{%s}" % ", ".join(sorted(entries))


def _record_line(label_text: str, r: TrialRecord) -> str:
    """`r`'s line of a dump; `label_text` is its table label as JSON text."""
    s = r.summary
    buckets = _int_keyed(
        _BUCKET_ENTRY % (
            c, b.correct_count,
            "null" if b.error_hist is None else _int_keyed(map(_HIST_ENTRY, b.error_hist.items())),
            b.misclassified_total, _nullable(b.path_tests_total), b.tree_count,
        )
        for c, b in s.buckets.items()
    )
    bins = "null" if s.path_bins is None else _int_keyed(
        '"%d": [%d, %d]' % (k, *v) for k, v in s.path_bins.items()
    )
    return _RECORD_LINE % (
        "true" if r.accepted else "false", buckets, _nullable(r.min_size), r.n_test, r.n_train,
        json.dumps(s.path_bin_width), bins, _nullable(s.population_size), label_text,
        r.rejections, r.seed, s.test_weight, r.trial_id,
    )


def _write_records(path, config, results) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for res in results:
            label = json.dumps(leg_table_label(config, res.leg))
            fh.writelines(_record_line(label, r) for r in res.records)


def _count(text: str) -> int:
    """An int, or int key, of a record dump: a count, an id or a seed, never negative."""
    if (value := int(text)) < 0:
        raise ValueError(f"negative count {text}")
    return value


def _int_keys(value, count) -> dict:
    """A loaded JSON object, its keys read by `count`."""
    if type(value) is not dict:
        raise TypeError(f"expected a JSON object, found {type(value).__name__}")
    return {count(k): v for k, v in value.items()}


def _load_line(line: str) -> tuple[str, TrialRecord]:
    # only a line with a "-" can hold a negative int; `_count` names it
    count = _count if "-" in line else int
    row = json.loads(line, parse_int=count)
    buckets = _int_keys(row["buckets"], count)
    for c, b in buckets.items():
        if b["leaf_hist"] is not None:
            raise ValueError("leaf histograms are not tracked; leaf_hist must be null")
        hist = b["error_hist"]
        buckets[c] = CardinalityBucket(
            b["tree_count"], b["correct_count"], b["misclassified_total"],
            None if hist is None else _int_keys(hist, count), b["path_tests_total"],
        )
    if type(row["preset"]) is not str or type(row["path_bin_width"]) not in (float, int, type(None)):
        raise TypeError("preset is not a string, or path_bin_width not a number or null")
    summary = ForestSummary(
        buckets, row["test_weight"], row["population_size"], row["path_bin_width"],
        None if row["path_bins"] is None else _int_keys(row["path_bins"], count),
    )
    record = TrialRecord(
        row["trial_id"], row["seed"], row["n_train"], row["n_test"], row["min_size"],
        summary, row["accepted"],
    )
    if row["rejections"] != record.rejections:
        raise ValueError(f"{row['rejections']} rejections in a trial that draws once")
    if _record_line(json.dumps(row["preset"]), record) != line:
        raise ValueError("not the line the writer writes for the record it holds")
    if (broken := broken_identity(summary)) is not None:
        raise ValueError(broken)
    return row["preset"], record


def load_trial_records(path) -> list[tuple[str, TrialRecord]]:
    """Read back a trial_records.jsonl dump as (table label, record) pairs.
    Raises ExperimentError, naming the line, unless `_record_line` writes each
    line's record back byte for byte and its summary has no `broken_identity`."""
    out: list[tuple[str, TrialRecord]] = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                out.append(_load_line(line.decode("utf-8")))
            except KeyError as e:
                raise ExperimentError(f"{path}: line {line_no}: missing field {e}") from None
            except (ArithmeticError, RecursionError, TypeError, ValueError) as e:
                raise ExperimentError(f"{path}: line {line_no}: {e}") from None
    return out


# ---------------------------------------------------------------- presets

def _xyz(name: str, scope: str, trials: int, analyses: tuple[str, ...], **kw) -> ExperimentConfig:
    return ExperimentConfig(
        name=name,
        source="concept:xyz-or-ab",
        legs=(LegSpec(label="", n_train=20, trial_count=trials),),
        seed_scope=scope,
        analyses=analyses,
        **kw,
    )


def _loo(name: str, concept: str, scope: str) -> ExperimentConfig:
    # every trial holds out exactly one row of the full space
    return ExperimentConfig(
        name=name,
        source=f"concept:{concept}",
        legs=(LegSpec(label="", n_train=31, trial_count=32),),
        split_mode="leave_one_out",
        seed_scope=scope,
        analyses=("cardinality",),
    )


_REPRESENTATIVE_CLASS_BOUNDS = ((1, (5, 8)),)
_REPRESENTATIVE_VALUE_BOUNDS = tuple(((f, 1), (7, 13)) for f in range(5))

_PRESETS: dict[str, Callable[[], ExperimentConfig]] = {
    "fig1": lambda: _xyz("fig1", "xyz20x100", 100, ("cardinality",)),
    "table1": lambda: _xyz("table1", "xyz20x100", 100, ("cardinality",)),
    "fig2": lambda: _xyz(
        "fig2",
        "xyz20x100",
        100,
        ("cardinality",),
        class_bounds=_REPRESENTATIVE_CLASS_BOUNDS,
        value_bounds=_REPRESENTATIVE_VALUE_BOUNDS,
    ),
    "fig3": lambda: _xyz("fig3", "xyz20x100", 100, ("min_size_groups",)),
    "fig4": lambda: _xyz(
        "fig4", "xyz20x100-leafcov", 100, ("cardinality",), leaf_coverage=2
    ),
    "fig5": lambda: _loo("fig5", "xyz-or-ab", "xyz-loo"),
    "fig6": lambda: _loo("fig6", "a", "a-loo"),
    "fig7": lambda: _loo("fig7", "ab", "ab-loo"),
    "fig8": lambda: ExperimentConfig(
        name="fig8",
        source="concept:xyz-or-ab",
        legs=(LegSpec(label="", n_train=31, trial_count=100),),
        split_mode="with_replacement",
        test_size=1000,
        seed_scope="xyz31wr100",
        error_hist=False,
        analyses=("cardinality",),
    ),
    "fig9": lambda: _xyz(
        "fig9",
        "xyz20x100",
        100,
        ("cardinality", "path_length"),
        path_bin_width=0.25,
    ),
    "fig10": lambda: _xyz("fig10", "xyz20x1000", 1000, ("pairwise_all",)),
    "fig11": lambda: _xyz("fig11", "xyz20x1000", 1000, ("pairwise_min",)),
    "fig12": lambda: _xyz(
        "fig12", "xyz20x1000", 1000, ("pairwise_min",), pairwise_conditions=(5, 6, 7)
    ),
    "table2": lambda: _xyz("table2", "xyz20x1000", 1000, ("policy",)),
    "fig13": lambda: ExperimentConfig(
        name="fig13",
        source="concept:mux6",
        legs=(
            LegSpec(label="cap8", n_train=20, trial_count=340, max_nodes=8),
            LegSpec(label="cap10", n_train=20, trial_count=10, max_nodes=10, optional=True),
        ),
        seed_scope="mux20",
        analyses=("cardinality",),
    ),
    "fig14": lambda: ExperimentConfig(
        name="fig14",
        source="bundled:lenses",
        legs=(
            LegSpec(label="n8", n_train=8, trial_count=50),
            LegSpec(label="n12", n_train=12, trial_count=50),
            LegSpec(label="n18", n_train=18, trial_count=50),
        ),
        seed_scope="lenses",
        analyses=("cardinality",),
    ),
    "fig15": lambda: ExperimentConfig(
        name="fig15",
        source=None,  # the shuttle file is not redistributable; pass --data
        legs=(
            LegSpec(label="n20cap7", n_train=20, trial_count=10, max_nodes=7),
            LegSpec(label="n50cap9", n_train=50, trial_count=10, max_nodes=9),
            LegSpec(label="n100cap11", n_train=100, trial_count=10, max_nodes=11),
        ),
        seed_scope="shuttle",
        analyses=("cardinality",),
    ),
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def preset(name: str) -> ExperimentConfig:
    try:
        build = _PRESETS[name]
    except KeyError:
        raise ExperimentError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None
    return build()
