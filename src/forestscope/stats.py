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

Pairwise tallies come from exact big-int products (see `pairwise`): each
trial packs its trees into one int per error count, slot r holding the
trees r sizes above its minimum, and a handful of multiplications tally
every size gap at once.  `pairwise_tables` packs each trial once and
shares the ints among several tables.

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
from math import isqrt
from statistics import fmean
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

    @property
    def rejections(self) -> int:
        """Refused draws: a trial draws once, so 1 if it is not accepted."""
        return int(not self.accepted)

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


def _stdev(xs: Sequence[float]) -> float:
    """Sample standard deviation of two or more finite floats, correctly rounded.

    Each float is an integer over a power of two, so over the largest
    denominator d the data are integers a_i and the variance is exactly
    (n * sum(a_i**2) - sum(a_i)**2) / (n * (n - 1) * d**2).  Its root is
    r / 2**e with r = isqrt of the variance times 4**e, e chosen so that r
    has at least 55 bits, and r's last bit set when the root is inexact (a
    sticky bit).  Rounding that r once, in the division, rounds the exact
    root correctly; so does `statistics.stdev` from Python 3.11, and the
    two agree there, but this one needs no Fractions.
    """
    ratios = [x.as_integer_ratio() for x in xs]
    d = max(q for _, q in ratios)
    a = [p * (d // q) for p, q in ratios]
    n = len(a)
    num = n * sum(v * v for v in a) - sum(a) ** 2
    den = n * (n - 1) * d * d
    e = max(0, (112 - num.bit_length() + den.bit_length()) // 2)
    num <<= 2 * e
    r = isqrt(num // den)
    r |= r * r * den != num
    return r / (1 << e)


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
        ci = Z_95 * _stdev(errs) / n**0.5 if n >= 2 else 0.0
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


class _Columns(NamedTuple):
    """One trial's trees per error k: `cols[k]` holds size min_size + r in
    slot r of `width` bits, `revs[k]` the same slots reversed (see `pairwise`)."""

    min_size: int | None
    n_test: int
    sizes: int
    width: int
    cols: list[int]
    revs: list[int]


def _columns(t: TrialRecord) -> _Columns:
    hists = _trial_histograms(t)
    w = t.n_test + 1
    lo, hi = min(hists, default=0), max(hists, default=-1)
    total = sum(sum(h.values()) for h in hists.values())
    width = (total * total).bit_length()
    cols, revs = [0] * w, [0] * w
    for c, hist in hists.items():
        up, down = (c - lo) * width, (hi - c) * width
        for k, v in hist.items():
            if not 0 <= k < w or v < 0:
                raise ValueError(
                    f"trial {t.trial_id} has {v} trees with error {k} at size {c}; "
                    f"errors lie in 0..{t.n_test} and counts are never negative"
                )
            cols[k] += v << up
            revs[k] += v << down
    return _Columns(t.min_size, t.n_test, hi - lo + 1, width, cols, revs)


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
) -> list[PairwiseRow]:
    """Compare accuracy across tree pairs of different cardinalities.

    baseline 'all' pairs every smaller cardinality with every larger one;
    'min' fixes the smaller side to each trial's minimum size.  min_size_in
    restricts to trials whose minimum size is in the given set.  Each
    probability divides summed pair counts, so every pair weighs the same.

    Each trial's trees become polynomials in x = 2**w, one per error
    count k: col_k holds d_c[k], the trees of size c with error k, at
    x**(c - min), and rev_k holds the same slots in reverse order.  A
    product rev_j * col_k then holds at x**(S - 1 + g), S the number of
    sizes, the pairs of a size-c tree with error j and a size-(c + g) tree
    with error k, summed over c.  So, with lead_k = rev_k (under 'min',
    only its top slot, the minimum size, as a scalar, which moves the
    products' slots down by S - 1), size gap g reads
    sum_k (sum_{j<k} lead_j) * col_k for pairs where the smaller tree errs
    less, sum_k lead_k * col_k for ties and (sum lead) * (sum col) for all
    pairs; the rest are pairs where the larger tree errs less.  Every
    tally of a slot is at most T**2, T the trial's tree count, so slots of
    w = (T*T).bit_length() bits never carry into each other and every
    read is exact; a negative count would borrow across slots, and is
    refused.  A trial counts toward gap g when it has a pair there.
    """
    return pairwise_tables(trials, [(baseline, min_size_in)])[0]


def pairwise_tables(
    trials: Sequence[TrialRecord],
    requests: Sequence[tuple[str, Sequence[int] | None]],
) -> list[list[PairwiseRow]]:
    """`pairwise(trials, baseline, min_size_in)` for each (baseline,
    min_size_in) request, in order.  Each trial is packed at most once, and
    only when some request chooses it."""
    packed: list[_Columns | None] = [None] * len(trials)
    tables = []
    for baseline, min_size_in in requests:
        allowed = set(min_size_in) if min_size_in is not None else None
        chosen = []
        for i, t in enumerate(trials):
            if t.min_size is not None and (allowed is None or t.min_size in allowed):
                if packed[i] is None:
                    packed[i] = _columns(t)
                chosen.append(packed[i])
        tables.append(_pairwise(chosen, baseline))
    return tables


def _pairwise(chosen: Sequence[_Columns], baseline: str) -> list[PairwiseRow]:
    """`pairwise` over trials already chosen and packed by `pairwise_tables`."""
    if baseline not in ("all", "min"):
        raise ValueError(f"unknown baseline {baseline!r}")
    denoms = {t.n_test for t in chosen}
    if len(denoms) > 1:
        raise ValueError(f"mixed test denominators {sorted(denoms)}")
    counts: dict[int, list[int]] = {}
    present: Counter[int] = Counter()
    for t in chosen:
        width, top = t.width, (t.sizes - 1) * t.width
        if baseline == "min":  # scalar leads: the products' slots start at x**0
            leads, top = [v >> top for v in t.revs], 0
        else:
            leads = t.revs
        # ties sit above the smaller-errs-less tally's slots (2 * sizes - 1,
        # or sizes under 'min'), so one product per error count yields both
        span = top + width * t.sizes
        below = tally = 0
        for lead, col in zip(leads, t.cols):
            tally += ((lead << span) + below) * col
            below += lead
        pairs = below * sum(t.cols)
        mask = (1 << width) - 1
        for diff in range(1, t.sizes):
            at = top + diff * width
            n = pairs >> at & mask
            if not n:
                continue
            s = tally >> at & mask
            e = tally >> (span + at) & mask
            slot = counts.setdefault(diff, [0, 0, 0])
            slot[0] += s
            slot[1] += e
            slot[2] += n - s - e
            present[diff] += 1
    rows = []
    for diff in sorted(counts):
        s, e, l = counts[diff]
        n = s + e + l
        ps, pe, pl = Fraction(s, n), Fraction(e, n), Fraction(l, n)
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
