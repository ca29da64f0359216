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

import json
import os
import time
from dataclasses import dataclass, replace
from operator import getitem
from typing import Callable, Sequence

from . import charts, stats
from .dataset import (
    Dataset,
    _subset,
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
    forest_summary,
    iter_consistent,
    min_consistent_size,
)
from .rng import SplitMix64, derive_seed
from .stats import TrialRecord

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
    max_trees: int = 50_000_000  # read only by perfbench/workloads.py; trials ignore it
    error_hist: bool = True
    leaf_hist: bool = False  # read only by perfbench/workloads.py; must be False
    path_bin_width: float | None = None
    analyses: tuple[str, ...] = ("cardinality",)
    pairwise_conditions: tuple[int, ...] = ()

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
        if self.leaf_hist:
            raise ExperimentError("leaf histograms are not tracked")
        needs_hist = {"pairwise_all", "pairwise_min"} & set(self.analyses)
        if needs_hist and not self.error_hist:
            raise ExperimentError("pairwise analyses need error histograms")

    @property
    def scope(self) -> str:
        return self.seed_scope or self.name


def resolve_source(source: str | None) -> Dataset:
    if source is None:
        raise ExperimentError("no dataset source; supply a data file")
    scheme, _, rest = source.partition(":")
    if scheme == "concept":
        return apply_concept(get_concept(rest))
    if scheme == "bundled":
        return bundled_dataset(rest)
    if scheme == "file":
        return load_dataset(rest)
    raise ExperimentError(f"unknown dataset source {source!r}")


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
    reference_pool: tuple | None  # minimum-size trees of the full dataset
    population: tuple | None


def _prepare(config: ExperimentConfig) -> _RunContext:
    data = resolve_source(config.source)
    n = len(data.examples)
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
    pool = None
    if config.leaf_coverage is not None:
        m = min_consistent_size(data)
        pool = tuple(iter_consistent(data, EnumerationLimits(max_nodes=m)))
    population = None
    if config.path_bin_width is not None:
        population = tuple(instance_space(data.schema))
    return _RunContext(
        config=config, data=data, reference_pool=pool, population=population
    )


def _split_leave_one_out(data: Dataset, t: int) -> tuple[Dataset, Dataset]:
    rest = [i for i in range(len(data.examples)) if i != t]
    return _subset(data, rest), _subset(data, (t,))


def _draw(ctx: _RunContext, leg: LegSpec, t: int, rng: SplitMix64):
    """Returns (train, test, accepted).  Draw order is fixed."""
    config = ctx.config
    if config.split_mode == "leave_one_out":
        train, test = _split_leave_one_out(ctx.data, t)
        return train, test, True
    if config.split_mode == "with_replacement":
        train = sample_with_replacement(ctx.data, leg.n_train, rng)
        test = sample_with_replacement(ctx.data, config.test_size, rng)
        return train, test, True
    if config.leaf_coverage is not None:
        reference = ctx.reference_pool[rng.below(len(ctx.reference_pool))]
        train, test = leaf_coverage_sample(
            ctx.data, reference, config.leaf_coverage, leg.n_train, rng
        )
        return train, test, True
    train, test = split_disjoint(ctx.data, leg.n_train, rng)
    if config.class_bounds or config.value_bounds:
        bounds = (dict(config.class_bounds) or None, dict(config.value_bounds) or None)
        return train, test, representative_filter(train, *bounds) is None
    return train, test, True


def _run_one(ctx: _RunContext, leg_index: int, t: int) -> TrialRecord:
    config = ctx.config
    leg = config.legs[leg_index]
    scope = config.scope + (f":{leg.label}" if leg.label else "")
    seed = derive_seed(config.master_seed, scope, t)
    rng = SplitMix64(seed)
    train, test, accepted = _draw(ctx, leg, t, rng)
    limits = EnumerationLimits(max_nodes=leg.max_nodes)
    track = TrackOptions(error_hist=config.error_hist, path_bins=config.path_bin_width)
    population = list(ctx.population) if ctx.population is not None else None
    t0 = time.perf_counter()
    summary = forest_summary(train, test, limits, population, track)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    return TrialRecord(
        trial_id=t,
        seed=seed,
        n_train=len(train.examples),
        n_test=len(test.examples),
        min_size=summary.min_size,
        summary=summary,
        accepted=accepted,
        rejections=0 if accepted else 1,  # each trial draws once
        wall_ms=wall_ms,
    )


_WORKER_CTX: _RunContext | None = None


def _worker_init(config: ExperimentConfig) -> None:
    global _WORKER_CTX
    _WORKER_CTX = _prepare(config)


def _worker_run(job: tuple[int, int]) -> TrialRecord:
    return _run_one(_WORKER_CTX, job[0], job[1])


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
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        records = (_run_one(ctx, li, t) for li, t in jobs)
        collected = _collect(config, jobs, records, progress)
    else:
        import multiprocessing  # here, so a serial run never loads it

        chunk = max(1, len(jobs) // (workers * 8))
        with multiprocessing.Pool(
            processes=workers, initializer=_worker_init, initargs=(config,)
        ) as pool:
            stream = pool.imap(_worker_run, jobs, chunksize=chunk)
            collected = _collect(config, jobs, stream, progress)
    return collected


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
    """Write every requested table (plus manifest and record dump).

    Returns the written paths.  Accepted trials feed the analyses; the
    manifest and the record dump keep every trial.
    """
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []
    seed = config.master_seed

    def out(name: str) -> str:
        path = os.path.join(out_dir, name)
        written.append(path)
        return path

    card, pair, policy, path = [], [], [], []
    for res in results:
        label = leg_table_label(config, res.leg)
        used = res.accepted_records()
        if not used:
            continue
        key = (label, seed)
        if "cardinality" in config.analyses:
            card.append((key, stats.aggregate_by_cardinality(used)))
        if "min_size_groups" in config.analyses:
            for m, group in stats.group_by_min_size(used).items():
                card.append(((f"{label}:min{m}", seed), group.rows))
        pair_runs = []
        if "pairwise_all" in config.analyses:
            pair_runs.append(("all", None))
        if "pairwise_min" in config.analyses:
            pair_runs += [("min", k) for k in config.pairwise_conditions or (None,)]
        if pair_runs:
            # Each trial is packed once per leg, for every pairwise table.
            packed = [stats._columns(t) for t in used]
            for baseline, k in pair_runs:
                chosen = stats._with_min_size_in(packed, None if k is None else (k,))
                rows = stats._pairwise(chosen, baseline)
                pair.append((key + (baseline, "" if k is None else str(k)), rows))
        if "policy" in config.analyses:
            policy.append((key, stats.derive_policy(used)))
        if "path_length" in config.analyses:
            path.append((key, stats.bin_by_path_length(used, config.path_bin_width)))
    tables = [
        (stats.CARDINALITY_TABLE, card),
        (stats.PAIRWISE_TABLE, pair),
        (stats.POLICY_TABLE, policy),
        (stats.PATH_LENGTH_TABLE, path),
    ]
    tables = [(table, sections) for table, sections in tables if sections]
    for table, sections in tables:
        stats.write_table(out(f"{table.name}.csv"), table, sections)
    _write_manifest(out("run_manifest.csv"), config, results)
    _write_records(out("trial_records.jsonl"), config, results)
    if with_charts:
        for table, sections in tables:
            if table.name in _CHARTS:
                _write_chart(out(f"{table.name}.svg"), _CHARTS[table.name], sections)
    return written


def _write_manifest(path, config, results) -> None:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["preset", "seed", "trial_id", "accepted", "min_size", "total_trees"])
        for res in results:
            label = leg_table_label(config, res.leg)
            for r in res.records:
                w.writerow(
                    [
                        label,
                        config.master_seed,
                        r.trial_id,
                        int(r.accepted),
                        "" if r.min_size is None else r.min_size,
                        r.summary.total_trees,
                    ]
                )


# Each charted table's title, axis labels, x column and (y column, series
# suffix) pairs.  A chart draws one series per section and y column.
_CHARTS = {
    "cardinality_stats": (
        "error by tree size", "node cardinality", "mean error",
        "node_cardinality", (("mean_error", ""),),
    ),
    "pairwise": (
        "pairwise outcome shares", "cardinality difference", "probability",
        "diff",
        (
            ("p_smaller_better", " smaller wins"),
            ("p_equal", " equal"),
            ("p_larger_better", " larger wins"),
        ),
    ),
    "path_length": (
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

# The record dump's fields, stored under their attribute names: each
# record's own, its summary's, and under "buckets" each bucket's, keyed by
# cardinality.  Fields in _INT_KEYED are dicts keyed by int; they, like
# "buckets", are stored with str keys (JSON object keys are strings).  Every
# row also carries its table label as "preset", and every bucket
# "leaf_hist": null, the field of leaf histograms, which are not tracked:
# it is written as a constant, and a bucket loads only when it is null.
_RECORD_FIELDS = ("trial_id", "seed", "accepted", "rejections", "n_train", "n_test", "min_size")
_SUMMARY_FIELDS = ("test_weight", "population_size", "path_bin_width", "path_bins")
_BUCKET_FIELDS = (
    "tree_count",
    "correct_count",
    "misclassified_total",
    "error_hist",
    "path_tests_total",
)
# The JSON types a loaded field may take, matched exactly so that a JSON
# true is no int; a field not named here must be an int.
_NONE = type(None)
_LOADED_TYPES = {
    "preset": (str,),
    "accepted": (bool,),
    "min_size": (int, _NONE),
    "population_size": (int, _NONE),
    "path_tests_total": (int, _NONE),
    "path_bin_width": (float, int, _NONE),
    "path_bins": (dict, _NONE),
    "error_hist": (dict, _NONE),
}


def _is_int(value) -> bool:
    return type(value) is int


def _count(text: str) -> int:
    """An int, or int key, of a record dump: a count, an id or a seed, never negative."""
    if (value := int(text)) < 0:
        raise ValueError(f"negative count {text}")
    return value


# The int-keyed dicts, each with the check of an entry's value.
_INT_KEYED = {
    "error_hist": _is_int,
    "path_bins": lambda v: type(v) is list and len(v) == 2 and all(map(_is_int, v)),
}


def _json_object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected a JSON object, found {type(value).__name__}")
    return value


def _pick(get: Callable, source, names: Sequence[str], key: Callable) -> dict:
    """`get(source, name)` for each of `names`, each one required.

    The int-keyed dicts among them get their keys converted by `key`: to
    dump a record, `getattr` and `str`; to load one, `getitem` and `_count`.
    """
    row = {}
    for name in names:
        value = get(source, name)
        if value is not None and name in _INT_KEYED:
            value = {key(k): v for k, v in _json_object(value).items()}
        row[name] = value
    return row


def _load(row: dict, names: Sequence[str]) -> dict:
    """`names` of a loaded JSON object, each checked for its JSON type."""
    picked = _pick(getitem, row, names, _count)
    for name, value in picked.items():
        entry_ok = _INT_KEYED.get(name)
        if type(value) not in _LOADED_TYPES.get(name, (int,)) or (
            value is not None and entry_ok is not None and not all(map(entry_ok, value.values()))
        ):
            raise TypeError(f"field {name!r} has the wrong type")
    return picked


def _load_bucket(row: dict) -> CardinalityBucket:
    if row["leaf_hist"] is not None:
        raise ValueError("leaf histograms are not tracked; leaf_hist must be null")
    return CardinalityBucket(**_load(row, _BUCKET_FIELDS))


# Each row is a fresh tree of plain values, so the encoder skips its check
# for reference cycles.
_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


def _write_records(path, config, results) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for res in results:
            label = leg_table_label(config, res.leg)
            for r in res.records:
                s = r.summary
                row = _pick(getattr, r, _RECORD_FIELDS, str)
                row.update(_pick(getattr, s, _SUMMARY_FIELDS, str), preset=label)
                row["buckets"] = {
                    str(c): {**_pick(getattr, b, _BUCKET_FIELDS, str), "leaf_hist": None}
                    for c, b in s.buckets.items()
                }
                fh.write(_ENCODER.encode(row) + "\n")


def load_trial_records(path) -> list[tuple[str, TrialRecord]]:
    """Read back a trial_records.jsonl dump as (table label, record) pairs.

    Raises ExperimentError, naming the line, on a line that is not UTF-8
    text or not a whole record, or that holds a negative int.
    """
    out: list[tuple[str, TrialRecord]] = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                row = _json_object(json.loads(line, parse_int=_count))
                buckets = {
                    _count(c): _load_bucket(_json_object(b))
                    for c, b in _json_object(row["buckets"]).items()
                }
                summary = ForestSummary(buckets=buckets, **_load(row, _SUMMARY_FIELDS))
                record = TrialRecord(summary=summary, **_load(row, _RECORD_FIELDS))
                out.append((_load(row, ("preset",))["preset"], record))
            except KeyError as e:
                raise ExperimentError(f"{path}: line {line_no}: missing field {e}") from None
            except (TypeError, ValueError) as e:
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
