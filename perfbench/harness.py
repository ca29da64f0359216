"""One workload at one seed: the timed loop, the traced pass and the checks.

Imported by run.py once ./src is on the import path.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import replace
from pathlib import Path

from forestscope import emit_all, forest_summary, iter_consistent, metrics, run_trials, stats
from forestscope.experiments import LegResult
from forestscope.stats import TrialRecord

from calibrate import QUIET_S, reference_seconds
from checks import (
    cross_route_errors,
    invariant_errors,
    summary_content,
    summary_digest,
    table_digests,
    tree_metrics_content,
)
from workloads import WORKLOADS, TrialInputs, config_for

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_STARTS = 7  # fresh interpreters per run; setup_s is their median
WARMUP_TRIALS = 3
EMIT_REPS = 5  # at least this many in the untraced run; exactly this many traced
EMIT_REFERENCE_RUNS = 3  # reference runs before and after an emit; a trial has one each
CROSS_CHECK_TRIALS = 20
RUNNER_PAIRS = 3

# the reference work needs numpy, so it runs only after the timed part:
# once to warm up, then 9 times; reference_s is their median
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
import forestscope
t1 = time.perf_counter()
from workloads import TrialInputs, config_for
TrialInputs(config_for(sys.argv[1], int(sys.argv[2])))
t2 = time.perf_counter()
from calibrate import reference_seconds
refs = sorted([reference_seconds() for _ in range(10)][1:])
print(json.dumps({"import_s": t1 - t0, "prepare_s": t2 - t1, "reference_s": refs[4]}))
"""


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q[0], "median": q[1], "q3": q[2], "n": len(values)}


class Run:
    """Measurements, checks and deterministic counts of one run."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.workload = WORKLOADS[name]
        self.config = config_for(name, seed)
        self.inputs = TrialInputs(self.config)
        self.n = self.inputs.trial_count
        self.metrics: dict[str, dict] = {}
        self.counts: dict[str, int] = {"trials": self.n}
        self.failures: dict[int, list[str]] = {}  # trial -> reasons
        self.output_errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.records: list[TrialRecord | None] = [None] * self.n
        self.digests: list[str | None] = [None] * self.n
        self.tables: dict | None = None  # digests of the first emit's tables
        self.peak_rss_mb = 0.0
        self.slowdowns: list[float] = []  # reference work's time / QUIET_S, per scaled call
        self.before: list[float] = []  # reference times from right before the next call
        path = BENCH_DIR / "reference" / f"{name}-seed{seed}.json"
        self.reference = None
        if path.exists():
            with open(path, encoding="utf-8") as fh:
                self.reference = json.load(fh)

    def metric(self, name: str, value: float, unit: str, samples=None) -> None:
        entry = {"value": value, "unit": unit}
        if samples is not None:
            entry.update(quartiles(samples))
        self.metrics[name] = entry

    def scale(self, seconds: float, runs: int = 1) -> float:
        """`seconds` of the call that just ended, at the reference speed.

        The slowdown is the median time of `runs` runs of the reference work
        right after the call and as many right before it (a trial's run
        before is the previous trial's run after), over QUIET_S.
        """
        after = [reference_seconds() for _ in range(runs)]
        slowdown = statistics.median(self.before[-runs:] + after) / QUIET_S
        self.before = after
        self.slowdowns.append(slowdown)
        return seconds / slowdown

    def timed_emit(self) -> tuple[float, float]:
        """One emit_all; returns its seconds and its seconds at the reference speed."""
        self.before = [reference_seconds() for _ in range(EMIT_REFERENCE_RUNS)]
        seconds = self.emit_once()
        return seconds, self.scale(seconds, EMIT_REFERENCE_RUNS)

    def outcome(self, t: int, reasons: list[str]) -> None:
        """Count one attempt at trial t, failed when any reason is given."""
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.failures.setdefault(t, []).extend(reasons)

    # ------------------------------------------------------------ setup

    def measure_setup(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
        starts = []
        for _ in range(SETUP_STARTS):
            out = subprocess.run(
                [sys.executable, "-c", SETUP_CHILD, self.name, str(self.seed)],
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
                check=True,
            )
            start = json.loads(out.stdout.strip().splitlines()[-1])
            slowdown = start["reference_s"] / QUIET_S
            starts.append({k: start[k] / slowdown for k in ("import_s", "prepare_s")})
        totals = [s["import_s"] + s["prepare_s"] for s in starts]
        imports = [s["import_s"] * 1e3 for s in starts]
        prepares = [s["prepare_s"] * 1e3 for s in starts]
        self.metric("setup_s", statistics.median(totals), "s", totals)
        self.metric("setup.import_ms", statistics.median(imports), "ms", imports)
        self.metric("setup.prepare_ms", statistics.median(prepares), "ms", prepares)

    # ------------------------------------------------------------ trials

    def _trial(self, t: int, tracer=None) -> float | None:
        """Draw, summarise and check trial t; returns its seconds, or None."""
        limits, population, track = self.inputs.summary_args()
        try:
            if tracer is None:
                start = time.perf_counter()
                train, test = self.inputs.draw(t)
                summary = forest_summary(train, test, limits, population, track)
                elapsed = time.perf_counter() - start
            else:
                with tracer.span("trial") as span:
                    with tracer.span("dataset.draw"):
                        train, test = self.inputs.draw(t)
                    with tracer.span("forest.summary"):
                        summary = forest_summary(train, test, limits, population, track)
                elapsed = span[2] - span[1]
        except Exception:
            self.outcome(t, ["raised:\n" + traceback.format_exc()])
            return None
        self.outcome(t, self._check(t, train, test, summary))
        return elapsed

    def _check(self, t: int, train, test, summary) -> list[str]:
        digest = summary_digest(summary)
        first = self.digests[t]
        if first is not None:
            return [] if digest == first else ["summary differs from this run's first pass"]
        self.digests[t] = digest
        self.records[t] = TrialRecord(
            trial_id=t,
            seed=self.inputs.seed(t),
            n_train=len(train.examples),
            n_test=len(test.examples),
            min_size=summary.min_size,
            summary=summary,
        )
        reasons = invariant_errors(summary)
        if self.reference is not None and digest != self.reference["trial_digests"][t]:
            reasons.append("summary digest differs from the reference")
        return reasons

    def loop(self, tracer=None, emits=None) -> list[float]:
        """Closed loop over the trial list; returns seconds per execution.

        Every time the loop returns, and every emit time, is scaled to the
        reference speed (calibrate.py).

        The loop makes at least one full pass, runs for at least --seconds,
        and goes on for at least a quarter of --seconds after the first pass.
        With `emits` given, it also repeats emit_all once the first pass is
        done, alternating it with trials so that each gets about half of the
        remaining time and both sample the same stretch of machine load.
        A trial that raised has no time.
        """
        times: list[float] = []
        self.before = []
        start = time.perf_counter()
        first_pass_end = None
        due = 0.0  # trial seconds to run before the next emit
        i = 0
        while True:
            now = time.perf_counter()
            if i == self.n:
                first_pass_end = now
            if i >= self.n and now - start >= self.seconds and (
                now - first_pass_end >= self.seconds / 4
            ):
                break
            if emits is not None and i >= self.n and due <= 0.0:
                due, scaled = self.timed_emit()
                emits.append(scaled)
            elapsed = self._trial(i % self.n, tracer)
            if elapsed is not None:
                times.append(self.scale(elapsed))
                due -= elapsed
            i += 1
        return times

    def end_to_end(self) -> None:
        """The untraced run: trial metrics, emit_s and the output checks."""
        for t in range(WARMUP_TRIALS):
            forest_summary(*self.inputs.draw(t), *self.inputs.summary_args())
            reference_seconds()
        emits: list[float] = []
        ms = [x * 1e3 for x in self.loop(emits=emits)]
        while len(emits) < EMIT_REPS:
            emits.append(self.timed_emit()[1])
        self.metric("trials_per_s", len(ms) / sum(ms) * 1e3, "1/s")
        self.metric("trial_ms_p50", statistics.median(ms), "ms", ms)
        self.metric("trial_ms_p90", statistics.quantiles(ms, n=10)[8], "ms", ms)
        self.metric("emit_s", statistics.median(emits), "s", emits)
        self.metric("machine.slowdown", statistics.median(self.slowdowns), "x", self.slowdowns)
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.cross_check()
        if self.reference is not None and self.tables != self.reference["tables"]:
            self.output_errors.append("emitted tables differ from the reference")
        self.finish_counts()

    def cross_check(self) -> None:
        limits, _, track = self.inputs.summary_args()
        for t in range(min(CROSS_CHECK_TRIALS, self.n)):
            record = self.records[t]
            if record is not None:
                train, test = self.inputs.draw(t)
                self.outcome(t, cross_route_errors(train, test, limits, track, record.summary))

    def finish_counts(self) -> None:
        done = [r for r in self.records if r is not None]
        self.counts["trees_counted"] = sum(r.summary.total_trees for r in done)
        if len(done) != self.n:
            self.output_errors.append(f"only {len(done)} of {self.n} trials completed")
        elif self.reference is not None and self.reference["trees_counted"] != self.counts["trees_counted"]:
            self.output_errors.append("trees counted differ from the reference")

    # ------------------------------------------------------------- emit

    def result(self) -> list[LegResult]:
        records = tuple(r for r in self.records if r is not None)
        return [LegResult(leg=self.config.legs[0], records=records)]

    def emit_once(self, tracer=None) -> float:
        """emit_all over the first pass's records into a scratch directory.

        Returns its seconds; checks that every repeat writes the same tables.
        """
        OUT.mkdir(exist_ok=True)
        results = self.result()
        out_dir = tempfile.mkdtemp(prefix="emit-", dir=OUT)
        try:
            start = time.perf_counter()
            if tracer is None:
                written = emit_all(self.config, results, out_dir)
            else:
                with tracer.span("experiments.emit_all"):
                    written = emit_all(self.config, results, out_dir)
            elapsed = time.perf_counter() - start
            tables = table_digests(out_dir)
            self.counts["records_bytes"] = sum(os.path.getsize(p) for p in written)
        finally:
            shutil.rmtree(out_dir)
        if self.tables is None:
            self.tables = tables
        elif tables != self.tables:
            self.output_errors.append("emit_all wrote different tables on a repeat")
        return elapsed

    # ----------------------------------------------------------- traced

    def traced(self, tracer) -> None:
        """A traced pass over the list, then each layer measured from outside."""
        times = self.loop(tracer)
        traced_tps = len(times) / sum(times)
        untraced_tps = self.metrics["trials_per_s"]["value"]
        self.metric("trace.traced_trials_per_s", traced_tps, "1/s")
        self.metric("trace.overhead_pct", (untraced_tps / traced_tps - 1.0) * 100.0, "%")
        draws = [x * 1e3 for x in tracer.durations("dataset.draw")]
        summaries = [x * 1e3 for x in tracer.durations("forest.summary")]
        self.metric("dataset.draw_ms_p50", statistics.median(draws), "ms", draws)
        self.metric("forest.summary_ms_p50", statistics.median(summaries), "ms", summaries)
        self.metric("forest.trees_counted", self.counts["trees_counted"], "count")
        self.metric("memory.peak_rss_mb", self.peak_rss_mb, "MB")
        self.reductions(tracer)
        self.runner(tracer)
        self.stream(tracer)

    def reductions(self, tracer) -> None:
        """The stats reductions emit_all runs, called directly on the records.

        What emit_all spends beyond them is writing.
        """
        used = self.result()[0].accepted_records()
        analyses = self.config.analyses
        calls_by_metric = {
            "stats.aggregate_ms": [("cardinality", stats.aggregate_by_cardinality, ())],
            "stats.pairwise_ms": [
                ("pairwise_all", stats.pairwise, ("all",)),
                ("pairwise_min", stats.pairwise, ("min",)),
            ],
            "stats.policy_ms": [("policy", stats.derive_policy, ())],
            "stats.pathbin_ms": [
                ("path_length", stats.bin_by_path_length, (self.config.path_bin_width,))
            ],
        }
        emits = [self.emit_once(tracer) * 1e3 for _ in range(EMIT_REPS)]
        reduce_total = 0.0
        for metric, calls in calls_by_metric.items():
            calls = [(fn, args) for analysis, fn, args in calls if analysis in analyses]
            if not calls:
                self.metric(metric, 0.0, "ms")  # not among this workload's analyses
                continue
            reps = []
            for _ in emits:
                with tracer.span(metric.removesuffix("_ms")) as span:
                    for fn, args in calls:
                        fn(used, *args)
                reps.append((span[2] - span[1]) * 1e3)
            reduce_total += statistics.median(reps)
            self.metric(metric, statistics.median(reps), "ms", reps)
        self.metric("experiments.write_ms", statistics.median(emits) - reduce_total, "ms")
        self.metric("experiments.records_bytes", self.counts["records_bytes"], "bytes")

    def runner(self, tracer) -> None:
        """run_trials on a prefix of the list: runner overhead and a pool of two."""
        k = min(self.workload.runner_prefix, self.n)
        config = replace(self.config, legs=(replace(self.config.legs[0], trial_count=k),))

        def run(label: str, threads: int) -> float:
            with tracer.span(label) as span:
                (leg_result,) = run_trials(config, threads=threads)
            for r in leg_result.records:
                same = summary_digest(r.summary) == self.digests[r.trial_id]
                self.outcome(r.trial_id, [] if same else [f"{label} disagrees with the harness"])
            return span[2] - span[1]

        # alternate the harness's own untraced loop with run_trials on the
        # same trials, so that both see the same machine load
        overheads = []
        for _ in range(RUNNER_PAIRS):
            direct = sum(filter(None, (self._trial(t) for t in range(k))))
            overheads.append((run("experiments.run_trials", 1) - direct) / k * 1e3)
        self.metric(
            "experiments.runner_overhead_ms", statistics.median(overheads), "ms", overheads
        )
        self.metric(
            "experiments.pool2_trials_per_s", k / run("experiments.run_trials.pool2", 2), "1/s"
        )

    def stream(self, tracer) -> None:
        """Walk a prefix's forests with iter_consistent and tree.metrics.

        The summary rebuilt tree by tree must match the stream summary.
        """
        k = min(self.workload.stream_prefix, self.n)
        limits, population, track = self.inputs.summary_args()
        trees_total = 0
        walk_s = 0.0
        measure_s = 0.0
        for t in range(k):
            train, test = self.inputs.draw(t)
            with tracer.span("forest.iter_consistent") as walk:
                trees = list(iter_consistent(train, limits))
            with tracer.span("tree.metrics") as measure:
                measured = [metrics(tree, population, test) for tree in trees]
            walk_s += walk[2] - walk[1]
            measure_s += measure[2] - measure[1]
            trees_total += len(trees)
            rebuilt = tree_metrics_content(measured, len(test.examples), track.path_bins)
            record = self.records[t]
            same = record is not None and rebuilt == summary_content(record.summary)
            self.outcome(t, [] if same else ["tree.metrics disagrees with the stream summary"])
        self.counts["stream_trees"] = trees_total
        self.metric("forest.stream_trees", trees_total, "count")
        self.metric("forest.stream_trees_per_s", trees_total / walk_s if walk_s else 0.0, "1/s")
        self.metric(
            "tree.metrics_us_per_tree", measure_s / trees_total * 1e6 if trees_total else 0.0, "us"
        )
