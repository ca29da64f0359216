"""Command line front end.

Subcommands: `datasets` (list built-ins, validate files), `enumerate`
(count or dump the consistent trees of one dataset), `experiment` (run a
preset or an ad-hoc protocol and write its tables), `oracle-check` (fast
enumerator against the naive one on random small problems), and `policy`
(recompute the size-selection policy from a finished run's record dump).

Exit codes: 0 success, 1 runtime failure (including oracle mismatch and a
closed stdout), 2 usage, 3 unreadable or malformed data file, 4 unknown
preset, 5 invalid flag combination, 130 interrupted.  Failures print one
`error: <category>: <message>` line to stderr, except a closed stdout, which
prints nothing.  Progress lines go to stderr; tables and counts go to stdout.
"""

from __future__ import annotations

import argparse
import errno
import os
import shutil
import sys
import tempfile
from dataclasses import replace

from . import experiments, stats
from .dataset import (
    Dataset,
    DatasetError,
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
EXIT_INTERRUPTED = 130

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


def _source(args) -> str:
    """The dataset source of `--concept` or `--data`, exactly one of which is given."""
    if bool(args.concept) == bool(args.data):
        raise experiments.ExperimentError("need exactly one of --concept/--data")
    return f"concept:{args.concept}" if args.concept else f"file:{args.data}"


# ---------------------------------------------------------------- datasets

def _cmd_datasets(args) -> int:
    if args.validate:
        data = load_dataset(args.validate)
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
    data = experiments.resolve_source(_source(args))
    limits = EnumerationLimits(max_nodes=args.max_nodes, max_trees=args.max_trees)
    counts: dict[int, int] = {}
    if args.emit_trees:
        for t in iter_consistent(data, limits):
            c = node_count(t)
            counts[c] = counts.get(c, 0) + 1
            print(format_tree(t, data.schema))
    else:
        summary = forest_summary(data, None, limits, track=TrackOptions(error_hist=False))
        counts = {c: b.tree_count for c, b in summary.buckets.items()}
    for c in sorted(counts):
        print(f"{c},{counts[c]}")
    return EXIT_OK


# -------------------------------------------------------------- experiment

def _build_custom(args) -> experiments.ExperimentConfig:
    source = _source(args)
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
            config = replace(
                config,
                legs=tuple(replace(l, trial_count=args.trials) for l in config.legs),
            )
    else:
        config = _build_custom(args)

    totals = {leg.label: leg.trial_count for leg in config.legs}
    tags = {leg.label: experiments.leg_table_label(config, leg) for leg in config.legs}

    def progress(label: str, record) -> None:
        # one write with its newline: print's separate newline write lets a
        # Ctrl-C leave the line open, and the error line would continue it
        sys.stderr.write(
            f"{tags[label]} trial {record.trial_id + 1}/{totals[label]} "
            f"min={record.min_size} trees={record.summary.total_trees} "
            f"{record.wall_ms:.1f}ms\n"
        )

    out_dir = args.out or f"runs/{config.name}-seed{config.master_seed}"
    # an unusable --out fails before a trial; a refused or interrupted run
    # removes --out if it made it, and nothing above it, where other runs write.
    # The files are staged inside --out, so on its file system and writable
    # wherever --out is, and moved into place only once all are written
    created = not os.path.exists(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".staging-", dir=out_dir)
    try:
        results = experiments.run_trials(
            config, threads=args.threads, progress=None if args.quiet else progress
        )
        staged = experiments.emit_all(config, results, staging, with_charts=args.charts)
        written = [os.path.join(out_dir, os.path.basename(path)) for path in staged]
        for path in written:  # a directory in the way would stop the moves halfway
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for path, dest in zip(staged, written):
            os.replace(path, dest)
    except BaseException:
        if created:
            shutil.rmtree(out_dir, ignore_errors=True)
        raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
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
    except experiments.ExperimentError as e:  # a malformed dump is a data error
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

    p = sub.add_parser(
        "enumerate",
        help="count (or dump) consistent trees",
        description=(
            "Count consistent trees per split count, or print each one with "
            "--emit-trees. --max-trees caps only the --emit-trees walk: "
            "counting walks no trees, so it ignores the cap."
        ),
    )
    p.add_argument("--concept", help="built-in concept name")
    p.add_argument("--data", help="dataset file")
    p.add_argument("--max-nodes", type=_non_negative, default=None, help="split budget")
    p.add_argument(
        "--max-trees", type=_non_negative, default=EnumerationLimits.max_trees,
        help="safety cap on the trees --emit-trees prints, 0 = none; ignored without it",
    )
    p.add_argument("--emit-trees", action="store_true", help="print each tree")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("experiment", help="run a preset or custom experiment")
    p.add_argument("--preset", help="preset name (see docs)")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument(
        "--trials", type=int, default=None,
        help="override trials per leg; a leave-one-out leg runs one trial per source row",
    )
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--charts", action="store_true", help="also write SVG charts")
    p.add_argument(
        "--threads", type=_non_negative, default=os.cpu_count() or 1,
        help="worker processes, at most the trial and CPU counts (default: the CPU count)",
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
    """Run one subcommand; every failure it raises maps to one exit code here."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # an OSError, so caught first; stdout goes to devnull so that the exit
        # flush is silent too, as the SIGPIPE note in the Python docs does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAILURE
    except (OSError, DatasetError) as e:
        return _fail(EXIT_DATA, "data", str(e))
    except experiments.ExperimentError as e:
        return _fail(EXIT_CONFIG, "config", str(e))
    except EnumerationTruncated as e:
        return _fail(EXIT_FAILURE, "enumeration", str(e))
    except KeyboardInterrupt:
        return _fail(EXIT_INTERRUPTED, "interrupted", "stopped before the run finished")


if __name__ == "__main__":
    sys.exit(main())
