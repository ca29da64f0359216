"""Cross-trial statistics over enumerated forests.

Reduces per-trial summaries to aggregate tables: error by node cardinality
with confidence intervals, groupings by minimum tree size, pairwise
accuracy comparisons between cardinalities, size-selection policies, and
path-length curves.  Comparisons and probabilities are computed in exact
integer or rational arithmetic; floats appear only in the emitted rows.

Every trial carries its own test denominator.  Aggregation of error rates
works across mixed denominators (rates are per-trial means), but pairwise
comparison and path-length pooling need one shared denominator and refuse
mixtures explicitly.

Pairwise tallies come from dense per-trial vectors of error counts and
error tails over every size (see `pairwise`): each size gap is a few dot
products, not one histogram sweep per pair of sizes.  `emit_all` builds
the vectors once per call and shares them among its pairwise tables.

Each emitted CSV table is laid out once, as a `Table`: its key columns
(preset and seed, plus baseline and condition for pairwise), then row
columns read by attribute name off `AggregateRow`, `PairwiseRow`,
`PolicyRow` or `PathBinRow` rows.  `write_table` writes any of them.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import mul
from statistics import fmean, stdev
from typing import Iterable, NamedTuple, Sequence

from .forest import CardinalityBucket, ForestSummary

Z_95 = 1.96


@dataclass(frozen=True)
class TrialRecord:
    """One enumeration trial: the sample sizes, the summary, bookkeeping."""

    trial_id: int
    seed: int
    n_train: int
    n_test: int
    min_size: int | None
    summary: ForestSummary
    accepted: bool = True
    rejections: int = 0
    wall_ms: float = 0.0

    def __post_init__(self):
        if self.min_size != self.summary.min_size:
            raise ValueError(
                f"min_size {self.min_size} disagrees with summary "
                f"{self.summary.min_size}"
            )
        if self.n_test != self.summary.test_weight:
            raise ValueError(
                f"n_test {self.n_test} disagrees with summary test weight "
                f"{self.summary.test_weight}"
            )

    def present_cardinalities(self) -> list[int]:
        return sorted(c for c, b in self.summary.buckets.items() if b.tree_count)


@dataclass(frozen=True)
class AggregateRow:
    node_cardinality: int
    trials_present: int
    mean_error: float
    ci_half_width: float
    mean_tree_count: float
    mean_correct_count: float


@dataclass(frozen=True)
class MinSizeGroup:
    min_size: int
    trial_count: int
    rows: tuple[AggregateRow, ...]


@dataclass(frozen=True)
class PairwiseRow:
    """Outcome shares for tree pairs whose cardinalities differ by `diff`.

    smaller/equal/larger counts are raw pair tallies summed over trials.
    The exact probabilities are Fractions (they sum to 1 exactly); the
    float fields are their lossy views for table output.
    """

    diff: int
    p_smaller_better: float
    p_equal: float
    p_larger_better: float
    pair_count: int
    trials_present: int
    smaller_count: int
    equal_count: int
    larger_count: int
    p_smaller_exact: Fraction
    p_equal_exact: Fraction
    p_larger_exact: Fraction


@dataclass(frozen=True)
class PolicyRow:
    min_size: int
    preferred_cardinality: int
    trial_count: int


@dataclass(frozen=True)
class PathBinRow:
    bin_center: float
    mean_error: float
    tree_count: int


def _trial_mean_error(bucket: CardinalityBucket, n_test: int) -> float:
    return bucket.misclassified_total / (bucket.tree_count * n_test)


def aggregate_by_cardinality(trials: Sequence[TrialRecord]) -> list[AggregateRow]:
    """Average per-trial mean error (and tree counts) at each cardinality.

    A trial contributes to a row only when it has trees of that size; the
    confidence half-width is 1.96 * s / sqrt(n) over the contributing
    trials' mean errors (0 when fewer than two contribute).
    """
    if not trials:
        raise ValueError("need at least one trial")
    per_c: dict[int, list[tuple[float, int, int]]] = {}
    for t in trials:
        if t.n_test <= 0:
            raise ValueError(f"trial {t.trial_id} has no test examples")
        for c, b in t.summary.buckets.items():
            if b.tree_count:
                per_c.setdefault(c, []).append(
                    (_trial_mean_error(b, t.n_test), b.tree_count, b.correct_count)
                )
    rows = []
    for c in sorted(per_c):
        errs = [e for e, _, _ in per_c[c]]
        n = len(errs)
        ci = Z_95 * stdev(errs) / n**0.5 if n >= 2 else 0.0
        rows.append(
            AggregateRow(
                node_cardinality=c,
                trials_present=n,
                mean_error=fmean(errs),
                ci_half_width=ci,
                mean_tree_count=fmean([k for _, k, _ in per_c[c]]),
                mean_correct_count=fmean([z for _, _, z in per_c[c]]),
            )
        )
    return rows


def group_by_min_size(trials: Sequence[TrialRecord]) -> dict[int, MinSizeGroup]:
    """Partition trials by minimum consistent size and aggregate each part.

    Trials whose forest is empty (min_size None) are left out.
    """
    if not trials:
        raise ValueError("need at least one trial")
    parts: dict[int, list[TrialRecord]] = {}
    for t in trials:
        if t.min_size is not None:
            parts.setdefault(t.min_size, []).append(t)
    return {
        m: MinSizeGroup(
            min_size=m,
            trial_count=len(group),
            rows=tuple(aggregate_by_cardinality(group)),
        )
        for m, group in sorted(parts.items())
    }


class _TailVectors(NamedTuple):
    """One trial's error-count rows, dense over every size min..max.

    Row r (size min_size + r) holds n_test + 1 ints at offset
    r * (n_test + 1): `counts` are its trees per error k, `above` its trees
    with error greater than k.  `totals[r]` is the row's tree count; a size with
    no trees is a zero row.
    """

    min_size: int | None
    n_test: int
    counts: list[int]
    above: list[int]
    totals: list[int]


def _tail_vectors(t: TrialRecord) -> _TailVectors:
    hists = _trial_histograms(t)
    width = t.n_test + 1
    counts: list[int] = []
    above: list[int] = []
    totals: list[int] = []
    for c in range(min(hists, default=0), max(hists, default=-1) + 1):
        row = [0] * width
        for k, v in hists.get(c, {}).items():
            if not 0 <= k < width:
                raise ValueError(
                    f"trial {t.trial_id} has error {k} at size {c}, outside "
                    f"0..{t.n_test}"
                )
            row[k] = v
        total = sum(row)
        counts += row
        above += [total - below for below in accumulate(row)]
        totals.append(total)
    return _TailVectors(t.min_size, t.n_test, counts, above, totals)


def _trial_histograms(t: TrialRecord) -> dict[int, dict[int, int]]:
    out = {}
    for c, b in t.summary.buckets.items():
        if not b.tree_count:
            continue
        if b.error_hist is None:
            raise ValueError(
                f"trial {t.trial_id} summary lacks error histograms; rerun "
                "with error_hist tracking to compare tree pairs"
            )
        out[c] = b.error_hist
    return out


def pairwise(
    trials: Sequence[TrialRecord],
    baseline: str = "all",
    min_size_in: Sequence[int] | None = None,
    pooling: str = "pair",
) -> list[PairwiseRow]:
    """Compare accuracy across tree pairs of different cardinalities.

    baseline 'all' pairs every smaller cardinality with every larger one;
    'min' fixes the smaller side to each trial's minimum size.  min_size_in
    restricts to trials whose minimum size is in the given set.  pooling
    'pair' divides summed pair counts (every pair weighs the same); 'trial'
    averages per-trial probabilities (every trial weighs the same).

    Each trial's histograms become dense vectors over every size from its
    minimum to its maximum: error counts d_c[k], the strict tail
    above_c[k] (trees of size c with error > k) and totals n_c.  Size
    gap g then takes three dot products over offset rows: pairs where the
    smaller tree errs less are sum_c,k d_c[k] * above_{c+g}[k], ties are
    sum_c,k d_c[k] * d_{c+g}[k], all pairs are sum_c n_c * n_{c+g}, and the
    rest are pairs where the larger tree errs less.  Under 'min' the sums
    over c keep only the minimum-size row.  A trial counts toward gap g
    when it has at least one pair there.
    """
    chosen = _with_min_size_in(trials, min_size_in)
    return _pairwise([_tail_vectors(t) for t in chosen], baseline, min_size_in, pooling)


def _with_min_size_in(trials, min_size_in):
    allowed = set(min_size_in) if min_size_in is not None else None
    return [
        t
        for t in trials
        if t.min_size is not None and (allowed is None or t.min_size in allowed)
    ]


def _pairwise(
    trials: Sequence[_TailVectors],
    baseline: str,
    min_size_in: Sequence[int] | None,
    pooling: str,
) -> list[PairwiseRow]:
    """`pairwise` over trials already turned into `_tail_vectors`."""
    if baseline not in ("all", "min"):
        raise ValueError(f"unknown baseline {baseline!r}")
    if pooling not in ("pair", "trial"):
        raise ValueError(f"unknown pooling {pooling!r}")
    chosen = _with_min_size_in(trials, min_size_in)
    denoms = {t.n_test for t in chosen}
    if len(denoms) > 1:
        raise ValueError(f"mixed test denominators {sorted(denoms)}")
    counts: dict[int, list[int]] = {}
    present: Counter[int] = Counter()
    shares: dict[int, list[Fraction]] = {}
    for t in chosen:
        d, above, n, w = t.counts, t.above, t.totals, t.n_test + 1
        lead, lead_n = (d, n) if baseline == "all" else (d[:w], n[:1])
        for diff in range(1, len(n)):
            pairs = sum(map(mul, lead_n, n[diff:]))
            if not pairs:
                continue
            lo, hi = diff * w, diff * w + len(lead)
            s = sum(map(mul, lead, above[lo:hi]))
            e = sum(map(mul, lead, d[lo:hi]))
            l = pairs - s - e
            slot = counts.setdefault(diff, [0, 0, 0])
            slot[0] += s
            slot[1] += e
            slot[2] += l
            present[diff] += 1
            if pooling == "trial":
                tri = shares.setdefault(diff, [Fraction(0)] * 3)
                tri[0] += Fraction(s, pairs)
                tri[1] += Fraction(e, pairs)
                tri[2] += Fraction(l, pairs)
    rows = []
    for diff in sorted(counts):
        s, e, l = counts[diff]
        n = s + e + l
        if pooling == "pair":
            ps, pe, pl = Fraction(s, n), Fraction(e, n), Fraction(l, n)
        else:
            k = present[diff]
            ps, pe, pl = (x / k for x in shares[diff])
        rows.append(
            PairwiseRow(
                diff=diff,
                p_smaller_better=float(ps),
                p_equal=float(pe),
                p_larger_better=float(pl),
                pair_count=n,
                trials_present=present[diff],
                smaller_count=s,
                equal_count=e,
                larger_count=l,
                p_smaller_exact=ps,
                p_equal_exact=pe,
                p_larger_exact=pl,
            )
        )
    return rows


def best_cardinality(record: TrialRecord) -> int | None:
    """Cardinality with the lowest mean error in one trial, ties small.

    Mean errors are compared by cross-multiplying misclassification sums
    with tree counts, so the result is independent of the denominator.
    """
    best_c = None
    best: tuple[int, int] | None = None  # (misclassified_total, tree_count)
    for c in record.present_cardinalities():
        b = record.summary.buckets[c]
        if best is None or b.misclassified_total * best[1] < best[0] * b.tree_count:
            best = (b.misclassified_total, b.tree_count)
            best_c = c
    return best_c


def derive_policy(trials: Sequence[TrialRecord]) -> list[PolicyRow]:
    """Per minimum size, the cardinality most often most accurate.

    Each trial votes for its best cardinality; within a minimum-size group
    the preferred cardinality is the most common vote, ties to the
    smallest.
    """
    if not trials:
        raise ValueError("need at least one trial")
    votes: dict[int, Counter[int]] = {}
    for t in trials:
        if t.min_size is None:
            continue
        c = best_cardinality(t)
        votes.setdefault(t.min_size, Counter())[c] += 1
    rows = []
    for m in sorted(votes):
        tally = votes[m]
        top = max(tally.values())
        preferred = min(c for c, k in tally.items() if k == top)
        rows.append(
            PolicyRow(
                min_size=m,
                preferred_cardinality=preferred,
                trial_count=sum(tally.values()),
            )
        )
    return rows


def bin_by_path_length(trials: Sequence[TrialRecord], bin_width: float) -> list[PathBinRow]:
    """Pool per-bin tree counts and errors over trials.

    Bins are [k*w, (k+1)*w) over per-tree average path length, fixed at
    enumeration time; every summary must carry bins of the same width, and
    trials must share a test denominator.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if not trials:
        raise ValueError("need at least one trial")
    denoms = set()
    pooled: dict[int, list[int]] = {}
    for t in trials:
        s = t.summary
        if s.path_bins is None or s.path_bin_width != bin_width:
            raise ValueError(
                f"trial {t.trial_id} has no path bins of width {bin_width}"
            )
        denoms.add(t.n_test)
        for k, (count, misc) in s.path_bins.items():
            slot = pooled.setdefault(k, [0, 0])
            slot[0] += count
            slot[1] += misc
    if len(denoms) > 1:
        raise ValueError(f"mixed test denominators {sorted(denoms)}")
    denom = denoms.pop()
    return [
        PathBinRow(
            bin_center=(k + 0.5) * bin_width,
            mean_error=misc / (count * denom),
            tree_count=count,
        )
        for k, (count, misc) in sorted(pooled.items())
        if count
    ]


# ------------------------------------------------------------ CSV output

class Table(NamedTuple):
    """One CSV table's layout: its file stem, key columns and row columns.

    A table is written from sections of (key values, rows).  Each row is one
    line: its section's key values, then the row's `columns`, each read off
    the row by attribute name.
    """

    name: str
    keys: tuple[str, ...]
    columns: tuple[str, ...]


_LEG_KEYS = ("preset", "seed")

CARDINALITY_TABLE = Table(
    "cardinality_stats",
    _LEG_KEYS,
    (
        "node_cardinality",
        "trials_present",
        "mean_error",
        "ci_half_width",
        "mean_tree_count",
        "mean_correct_count",
    ),
)
PAIRWISE_TABLE = Table(
    "pairwise",
    _LEG_KEYS + ("baseline", "min_size_condition"),
    ("diff", "p_smaller_better", "p_equal", "p_larger_better", "pair_count"),
)
POLICY_TABLE = Table("policy", _LEG_KEYS, ("min_size", "preferred_cardinality", "trial_count"))
PATH_LENGTH_TABLE = Table("path_length", _LEG_KEYS, ("bin_center", "mean_error", "tree_count"))


def write_table(path, table: Table, sections: Iterable[tuple[Sequence, Sequence]]) -> None:
    """Write `table` as CSV from its (key values, rows) sections, in order."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(table.keys + table.columns)
        for key, rows in sections:
            w.writerows([*key, *(getattr(r, c) for c in table.columns)] for r in rows)
