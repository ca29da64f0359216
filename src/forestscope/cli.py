"""Command line front end.

Subcommands: `datasets` (list built-ins, validate files), `enumerate`
(count or dump the consistent trees of one dataset), `experiment` (run a
preset or an ad-hoc protocol and write its tables), `oracle-check` (fast
enumerator against the naive one on random small problems), and `policy`
(recompute the size-selection policy from a finished run's record dump).

Exit codes: 0 success, 1 runtime failure (including oracle mismatch),
2 usage, 3 unreadable or malformed data file, 4 unknown preset, 5 invalid
flag combination.  Failures print one `error: <category>: <message>` line
to stderr.  Progress lines go to stderr; tables and counts go to stdout.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import experiments, stats
from .dataset import (
    Dataset,
    DatasetError,
    apply_concept,
    binary_schema,
    bundled_dataset,
    get_concept,
    instance_space,
    list_concepts,
    load_dataset,
    LabeledExample,
)
from .forest import (
    EnumerationLimits,
    EnumerationTruncated,
    enumerate_naive,
    forest_summary,
    iter_consistent,
    TrackOptions,
)
from .rng import stream
from .tree import format_tree, node_count

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_PRESET = 4
EXIT_CONFIG = 5

_BUNDLED = ("lenses",)


def _fail(code: int, category: str, message: str) -> int:
    print(f"error: {category}: {message}", file=sys.stderr)
    return code


def _int_at_least(text: str, minimum: int) -> int:
    """argparse type body: an int no smaller than `minimum` (else exit 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


def _non_negative(text: str) -> int:
    return _int_at_least(text, 0)


def _positive(text: str) -> int:
    return _int_at_least(text, 1)


def _load_data_arg(args) -> Dataset:
    if getattr(args, "concept", None):
        return apply_concept(get_concept(args.concept))
    return load_dataset(args.data)


# ---------------------------------------------------------------- datasets

def _cmd_datasets(args) -> int:
    if args.validate:
        try:
            data = load_dataset(args.validate)
        except (OSError, DatasetError) as e:
            return _fail(EXIT_DATA, "data", str(e))
        schema = data.schema
        print(
            f"ok: {len(data.examples)} examples, {data.distinct_instances()} distinct, "
            f"{schema.n_features} features, {schema.n_classes} classes, "
            f"space {schema.space_size()}"
        )
        for i, (name, values) in enumerate(schema.features):
            print(f"feature {i}: {name} ({'|'.join(values)})")
        print(f"classes: {'|'.join(schema.classes)}")
        return EXIT_OK
    for name in list_concepts():
        c = get_concept(name)
        print(
            f"concept {name}: {c.schema.n_features} features, "
            f"space {c.schema.space_size()}, classes {'|'.join(c.schema.classes)}"
        )
    for name in _BUNDLED:
        data = bundled_dataset(name)
        print(
            f"bundled {name}: {len(data.examples)} examples, "
            f"{data.schema.n_features} features, classes {'|'.join(data.schema.classes)}"
        )
    return EXIT_OK


# --------------------------------------------------------------- enumerate

def _cmd_enumerate(args) -> int:
    if bool(args.concept) == bool(args.data):
        return _fail(EXIT_CONFIG, "config", "need exactly one of --concept/--data")
    try:
        data = _load_data_arg(args)
    except (OSError, DatasetError) as e:
        return _fail(EXIT_DATA, "data", str(e))
    if not data.examples:
        return _fail(EXIT_DATA, "data", "the training set has no examples")
    limits = EnumerationLimits(max_nodes=args.max_nodes, max_trees=args.max_trees)
    counts: dict[int, int] = {}
    try:
        if args.emit_trees:
            for t in iter_consistent(data, limits):
                c = node_count(t)
                counts[c] = counts.get(c, 0) + 1
                print(format_tree(t, data.schema))
        else:
            summary = forest_summary(
                data, None, limits, track=TrackOptions(error_hist=False)
            )
            counts = {c: b.tree_count for c, b in summary.buckets.items()}
    except EnumerationTruncated as e:
        return _fail(EXIT_FAILURE, "enumeration", str(e))
    for c in sorted(counts):
        print(f"{c},{counts[c]}")
    return EXIT_OK


# -------------------------------------------------------------- experiment

def _resolve_threads(args) -> int:
    if args.threads is not None:
        return args.threads
    env = os.environ.get("FORESTSCOPE_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise experiments.ExperimentError(
                f"FORESTSCOPE_THREADS must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


def _build_custom(args) -> experiments.ExperimentConfig:
    if bool(args.concept) == bool(args.data):
        raise experiments.ExperimentError(
            "custom experiments need exactly one of --concept/--data"
        )
    source = f"concept:{args.concept}" if args.concept else f"file:{args.data}"
    if args.n_train is None:
        raise experiments.ExperimentError("custom experiments need --n-train")
    return experiments.ExperimentConfig(
        name="custom",
        source=source,
        legs=(
            experiments.LegSpec(
                label="",
                n_train=args.n_train,
                trial_count=args.trials if args.trials is not None else 100,
                max_nodes=args.max_nodes,
            ),
        ),
        split_mode=args.split,
        test_size=args.test_size,
        master_seed=args.seed,
        analyses=("cardinality",),
    )


def _cmd_experiment(args) -> int:
    try:
        if args.preset:
            try:
                config = experiments.preset(args.preset)
            except experiments.ExperimentError as e:
                return _fail(EXIT_PRESET, "preset", str(e))
            config = experiments.select_legs(config, include_optional=args.all_legs)
            config = replace(config, master_seed=args.seed)
            if args.data:
                config = replace(config, source=f"file:{args.data}")
            if args.trials is not None:
                if config.split_mode == "leave_one_out":
                    return _fail(
                        EXIT_CONFIG, "config", "leave-one-out presets fix their trial count"
                    )
                config = replace(
                    config,
                    legs=tuple(replace(l, trial_count=args.trials) for l in config.legs),
                )
        else:
            config = _build_custom(args)
        threads = _resolve_threads(args)
    except experiments.ExperimentError as e:
        return _fail(EXIT_CONFIG, "config", str(e))

    totals = {leg.label: leg.trial_count for leg in config.legs}
    seen = {leg.label: 0 for leg in config.legs}

    def progress(label: str, record) -> None:
        seen[label] += 1
        tag = f"{config.name}:{label}" if label else config.name
        print(
            f"{tag} trial {seen[label]}/{totals[label]} "
            f"min={record.min_size} trees={record.summary.total_trees} "
            f"{record.wall_ms:.1f}ms",
            file=sys.stderr,
        )

    out_dir = args.out or f"runs/{config.name}-seed{config.master_seed}"
    try:
        results = experiments.run_trials(
            config, threads=threads, progress=None if args.quiet else progress
        )
        written = experiments.emit_all(config, results, out_dir, with_charts=args.charts)
    except (OSError, DatasetError) as e:
        return _fail(EXIT_DATA, "data", str(e))
    except experiments.ExperimentError as e:
        return _fail(EXIT_CONFIG, "config", str(e))
    except EnumerationTruncated as e:
        return _fail(EXIT_FAILURE, "enumeration", str(e))
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


# ------------------------------------------------------------ oracle-check

def _cmd_oracle_check(args) -> int:
    if args.features < 1 or args.features > 4:
        return _fail(EXIT_CONFIG, "config", "--features must be 1..4")
    if args.labelings < 1:
        return _fail(EXIT_CONFIG, "config", "--labelings must be >= 1")
    schema = binary_schema(tuple(f"f{i}" for i in range(args.features)))
    space = list(instance_space(schema))
    limits = EnumerationLimits(max_nodes=args.max_nodes)
    mismatches = 0
    for i in range(args.labelings):
        rng = stream(args.seed, "oracle-check", i)
        data = Dataset(
            schema=schema,
            examples=tuple(
                LabeledExample(instance=x, label=rng.below(2)) for x in space
            ),
        )
        fast = sorted(format_tree(t, schema) for t in iter_consistent(data, limits))
        naive = [format_tree(t, schema) for t in enumerate_naive(data, limits)]
        if fast != naive:
            mismatches += 1
            print(
                f"labeling {i}: fast {len(fast)} trees, naive {len(naive)} trees",
                file=sys.stderr,
            )
            only_fast = sorted(set(fast) - set(naive))[:3]
            only_naive = sorted(set(naive) - set(fast))[:3]
            for t in only_fast:
                print(f"  only fast:  {t}", file=sys.stderr)
            for t in only_naive:
                print(f"  only naive: {t}", file=sys.stderr)
    print(f"{args.labelings - mismatches}/{args.labelings} match")
    return EXIT_OK if mismatches == 0 else EXIT_FAILURE


# ----------------------------------------------------------------- policy

def _cmd_policy(args) -> int:
    try:
        pairs = experiments.load_trial_records(args.records)
    except (OSError, experiments.ExperimentError) as e:
        return _fail(EXIT_DATA, "data", str(e))
    by_label: dict[str, list] = {}
    for label, record in pairs:
        if record.accepted:
            by_label.setdefault(label, []).append(record)
    if not by_label:
        return _fail(EXIT_FAILURE, "policy", "no accepted trials in the record dump")
    sections = []
    for label in sorted(by_label):
        rows = stats.derive_policy(by_label[label])
        sections.append(((label, args.seed), rows))
        for r in rows:
            print(f"{label},{r.min_size},{r.preferred_cardinality},{r.trial_count}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"{stats.POLICY_TABLE.name}.csv")
        stats.write_table(path, stats.POLICY_TABLE, sections)
        print(f"wrote {path}")
    return EXIT_OK


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forestscope",
        description="Enumerate and analyze every decision tree consistent with a dataset.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="list built-in datasets or validate a file")
    p.add_argument("--validate", metavar="FILE", help="check a dataset file")
    p.set_defaults(fn=_cmd_datasets)

    p = sub.add_parser("enumerate", help="count (or dump) consistent trees")
    p.add_argument("--concept", help="built-in concept name")
    p.add_argument("--data", help="dataset file")
    p.add_argument("--max-nodes", type=_non_negative, default=None, help="split budget")
    p.add_argument(
        "--max-trees", type=_non_negative, default=50_000_000, help="safety cap, 0 = none"
    )
    p.add_argument("--emit-trees", action="store_true", help="print each tree")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("experiment", help="run a preset or custom experiment")
    p.add_argument("--preset", help="preset name (see docs)")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--trials", type=int, default=None, help="override trials per leg")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--charts", action="store_true", help="also write SVG charts")
    p.add_argument(
        "--threads", type=_non_negative, default=None,
        help="worker processes (capped at the trial and CPU counts)",
    )
    p.add_argument("--data", help="dataset file (required by fig15)")
    p.add_argument("--concept", help="concept for a custom experiment")
    p.add_argument("--n-train", type=int, default=None, help="custom: train size")
    p.add_argument(
        "--test-size", type=_positive, default=None, help="custom: with-replacement test size"
    )
    p.add_argument(
        "--split",
        choices=("disjoint", "with_replacement", "leave_one_out"),
        default="disjoint",
        help="custom: sampling protocol",
    )
    p.add_argument("--max-nodes", type=_non_negative, default=None, help="custom: split budget")
    p.add_argument("--all-legs", action="store_true", help="include optional legs")
    p.add_argument("--quiet", action="store_true", help="no per-trial progress lines")
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("oracle-check", help="compare fast and naive enumerators")
    p.add_argument("--features", type=int, default=3, help="binary features (1..4)")
    p.add_argument("--labelings", type=int, default=50, help="random labelings to try")
    p.add_argument("--seed", type=int, default=0, help="labeling seed")
    p.add_argument("--max-nodes", type=_non_negative, default=None, help="split budget")
    p.set_defaults(fn=_cmd_oracle_check)

    p = sub.add_parser("policy", help="derive the size policy from a record dump")
    p.add_argument("--records", required=True, help="trial_records.jsonl path")
    p.add_argument("--out", default=None, help="directory for policy.csv")
    p.add_argument("--seed", type=int, default=0, help="seed column value")
    p.set_defaults(fn=_cmd_policy)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
