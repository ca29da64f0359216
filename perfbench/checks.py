"""Correctness checks on the program's outputs: digests, invariants, oracles.

A trial's digest covers the summary content the tables are built from:
per-cardinality tree, correct and misclassified counts, error histograms,
path bins, minimum size and test weight.  It deliberately ignores the raw
`trial_records.jsonl` line, so that deterministic counters added to the
record dump do not read as failures.  Emitted analysis tables are digested
byte for byte; the manifest and the record dump are not, for the same
reason.
"""

from __future__ import annotations

import hashlib
import json
import os

from forestscope import TrackOptions, forest_summary

ANALYSIS_TABLES = ("cardinality_stats.csv", "pairwise.csv", "policy.csv", "path_length.csv")


def summary_content(summary) -> dict:
    buckets = {}
    for c, b in sorted(summary.buckets.items()):
        if not b.tree_count:
            continue
        hist = None
        if b.error_hist is not None:
            hist = [[k, v] for k, v in sorted(b.error_hist.items()) if v]
        buckets[str(c)] = [b.tree_count, b.correct_count, b.misclassified_total, hist]
    bins = None
    if summary.path_bins is not None:
        bins = [[k, list(v)] for k, v in sorted(summary.path_bins.items()) if v[0]]
    return {
        "buckets": buckets,
        "path_bins": bins,
        "min_size": summary.min_size,
        "test_weight": summary.test_weight,
    }


def summary_digest(summary) -> str:
    blob = json.dumps(summary_content(summary), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def table_digests(out_dir: str) -> dict[str, str]:
    out = {}
    for name in ANALYSIS_TABLES:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def invariant_errors(summary) -> list[str]:
    """Identities every summary satisfies, whichever backend produced it."""
    errors = []
    total = 0
    misc_total = 0
    for c, b in summary.buckets.items():
        total += b.tree_count
        misc_total += b.misclassified_total
        if b.tree_count < 0 or not 0 <= b.correct_count <= b.tree_count:
            errors.append(f"cardinality {c}: counts out of range")
        if b.misclassified_total > b.tree_count * summary.test_weight:
            errors.append(f"cardinality {c}: more errors than tree-test pairs")
        if b.error_hist is not None:
            if sum(b.error_hist.values()) != b.tree_count:
                errors.append(f"cardinality {c}: error histogram mass != tree count")
            if sum(k * v for k, v in b.error_hist.items()) != b.misclassified_total:
                errors.append(f"cardinality {c}: error histogram sum != misclassified")
            if b.error_hist.get(0, 0) != b.correct_count:
                errors.append(f"cardinality {c}: error histogram at 0 != correct count")
    if total == 0:
        errors.append("no consistent tree")
    if summary.path_bins is not None:
        if sum(v[0] for v in summary.path_bins.values()) != total:
            errors.append("path bins do not hold every tree")
        if sum(v[1] for v in summary.path_bins.values()) != misc_total:
            errors.append("path bins do not hold every error")
    return errors


def _totals(summary) -> dict:
    return {
        c: (b.tree_count, b.correct_count, b.misclassified_total)
        for c, b in summary.buckets.items()
        if b.tree_count
    }


def cross_route_errors(train, test, limits, track, summary) -> list[str]:
    """Recompute a trial's totals on another route and compare.

    Histogram trials are recounted by the sums backend, sums trials by the
    histogram backend, and stream trials by the algebraic route.
    """
    if track.path_bins is not None:
        other = forest_summary(train, test, limits, track=TrackOptions(), mode="algebraic")
    else:
        other = forest_summary(
            train, test, limits, track=TrackOptions(error_hist=not track.error_hist)
        )
    if _totals(other) != _totals(summary):
        return ["per-cardinality totals differ between summary routes"]
    return []


def tree_metrics_content(tree_metrics, n_test: int, bin_width: float) -> dict:
    """Summary content rebuilt from per-tree `tree.metrics` results."""
    buckets: dict[int, list] = {}
    bins: dict[int, list[int]] = {}
    for m in tree_metrics:
        misc = round(m.error_rate * n_test)
        b = buckets.setdefault(m.node_cardinality, [0, 0, 0, {}])
        b[0] += 1
        b[1] += misc == 0
        b[2] += misc
        b[3][misc] = b[3].get(misc, 0) + 1
        slot = bins.setdefault(int(m.avg_path_length / bin_width), [0, 0])
        slot[0] += 1
        slot[1] += misc
    return {
        "buckets": {
            str(c): [n, ok, mt, [[k, v] for k, v in sorted(h.items())]]
            for c, (n, ok, mt, h) in sorted(buckets.items())
        },
        "path_bins": [[k, v] for k, v in sorted(bins.items())],
        "min_size": min(buckets) if buckets else None,
        "test_weight": n_test,
    }
