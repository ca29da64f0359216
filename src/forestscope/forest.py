"""Exhaustive enumeration of every decision tree consistent with a dataset.

A tree is admitted when it has zero error on the training multiset, every
split routes its incoming examples into at least two children, and no split
sits on a pure or empty multiset.  Splits never repeat a feature along a
path: re-testing one would send every example down a single child, which
the routing rule already forbids, so nothing is lost by construction.

Three routes to the same forest live here, on purpose:

* `iter_consistent`: the search enumerator.  Depth-first; yields trees in
  a documented order (subtree sizes ascending, then feature index, then
  child budget compositions lexicographically, the rightmost child
  varying fastest).  Each subproblem's budget is bounded below by its
  exact fewest splits, from the memo of one min-plus `_solve` pass (DL8's
  lower-bound pruning, exact): pruning drops only branches that yield
  nothing, so the trees and their order are those of the unpruned search.
* `enumerate_naive`: the definitional oracle.  Generates every syntactic
  tree (path-distinct features, full fan-out, all leaf labelings, the
  empty-branch rule applied) and filters through the public predicates in
  `tree`.  Kept deliberately independent of the search enumerator; bounded
  to small schemas.
* `forest_summary`: per-cardinality accumulation without storing trees.
  The algebraic mode is one memoized recursion, `_solve`, over (train
  rows, usable features) subproblems, which fix the test and population
  rows.  Each split hands its open children to an algebra's `attach` as a
  pair; every weight is a popcount over `_Router`'s per-row bits.
  `_CountAlgebra` keeps exact Python-int tree counts keyed on one packed
  int per (splits, misclassified weight, path tests), so no count can
  wrap; `_TotalsAlgebra`, for test errors with no histogram at all, packs
  trees, error-free trees and error sums per split count into three big
  ints; `_MinSizeAlgebra` is min-plus, giving `min_consistent_size`.
  Path-length bins walk no trees: a tree's path-test total is additive
  over its splits, so the key carries it.  The streaming mode, the oracle,
  measures through `tree` each tree the search enumerator yields; tests
  hold the two modes to bucket-for-bucket agreement.

Budgets count splits.  `max_nodes=None` means no explicit cap, which is
effectively (distinct training instances - 1): no consistent tree can use
more, since every split strictly partitions a set of at least two distinct
instances.  The algebraic route cuts each subproblem at the budget its
depth leaves: a subproblem whose path uses d features sits under d splits,
so its trees keep at most cap - d, the depth bound DL8 (Nijssen & Fromont,
KDD 2007) puts on memoized itemsets.  The memo key's usable features fix
d, so the cut profile is the same wherever the subproblem recurs.  Empty
branches (arity >= 3 only) become leaves labeled with the majority class
of the parent's examples, ties to the smallest class index.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import mul
from typing import Iterator, Sequence

from . import tree as treemod
from .dataset import Dataset, FeatureSchema, LabeledExample
from .tree import Leaf, Node, Split


class EnumerationTruncated(Exception):
    """A tree walk passed the safety cap; `args` is (cap,), so it pickles."""

    def __init__(self, cap: int):
        super().__init__(cap)
        self.cap = cap

    def __str__(self) -> str:
        return f"enumeration exceeded the safety cap of {self.cap} trees"


@dataclass(frozen=True)
class EnumerationLimits:
    """max_nodes: split budget (None = no explicit cap).
    max_trees: safety cap on the trees a walk yields (`iter_consistent`,
    `enumerate_naive`, mode 'stream'), 0 = unlimited; the algebraic
    summary walks no trees and ignores it.  The cap counts trees, not work:
    a walk never searches a size below its smallest tree."""

    max_nodes: int | None = None
    max_trees: int = 50_000_000

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes < 0:
            raise ValueError("max_nodes must be >= 0")
        if self.max_trees < 0:
            raise ValueError("max_trees must be >= 0")


class _Router:
    """Bitset routing tables over the rows of a multiset.

    Every row has its own bit, and the rows of one (instance, label) pair
    sit on adjacent bits, so every weight is a popcount: duplicate rows
    (and even conflicting labels) count exactly, and majority and
    misclassification compare bit counts.  `other_mask[c]` holds the rows
    not of class c.  Purity is mask-first (`sole_class`): a set missing
    `other_mask[0]` is pure in class 0, one meeting it and class 0 is
    impure, and only a set with no class-0 row reads `row_class` (the class
    of each row) at its lowest row, never with two classes.  `row_class`
    and `inst_mask` (the first row of each distinct instance, for the
    walk's bounds) are built on first use, from the dataset's `runs`.
    """

    def __init__(self, data: Dataset):
        schema = data.schema
        self.arities = schema.arities
        self.n_classes = schema.n_classes
        self.value_mask = [[0] * a for a in self.arities]
        self.class_mask = [0] * self.n_classes
        pos = 0
        self._runs = data.runs
        for (inst, label), w in self._runs.items():
            run = ((1 << w) - 1) << pos
            for f, v in enumerate(inst):
                self.value_mask[f][v] |= run
            self.class_mask[label] |= run
            pos += w
        self.full = (1 << pos) - 1
        self.other_mask = [self.full & ~m for m in self.class_mask]

    @cached_property
    def row_class(self) -> list[int]:
        out: list[int] = []
        for (_, label), w in self._runs.items():
            out += [label] * w
        return out

    @cached_property
    def inst_mask(self) -> int:
        starts = itertools.accumulate(self._runs.values(), initial=0)
        first: dict[tuple, int] = {}
        for (inst, _), pos in zip(self._runs, starts):
            first.setdefault(inst, 1 << pos)
        return sum(first.values())

    def sole_class(self, bits: int) -> int | None:
        """The single class with weight in `bits`, or None if impure or empty."""
        if not bits & self.other_mask[0]:
            return 0 if bits else None
        if bits & self.class_mask[0]:
            return None
        c = 1 if self.n_classes == 2 else self.row_class[(bits & -bits).bit_length() - 1]
        return None if bits & self.other_mask[c] else c

    def wrong_weight(self, bits: int, label: int) -> int:
        return (bits & self.other_mask[label]).bit_count()

    def majority(self, bits: int) -> int:
        """Heaviest class in `bits`, ties to the smallest class index."""
        return max(range(self.n_classes), key=lambda c: (bits & self.class_mask[c]).bit_count())


def _effective_cap(max_nodes: int | None, distinct: int) -> int:
    hard = distinct - 1
    return hard if max_nodes is None else min(max_nodes, hard)


# ------------------------------------------------------- search enumerator

def iter_consistent(train: Dataset, limits: EnumerationLimits = EnumerationLimits()) -> Iterator[Node]:
    """Every consistent tree within the budget, in canonical order.  The
    generators are module functions, not closures calling themselves by
    name, so a walk however it ends leaves no cycle for the collector."""
    r, root_min, fewest = _fewest_splits(train)
    cap = _effective_cap(limits.max_nodes, train.distinct_instances())
    all_features = (1 << len(r.arities)) - 1
    count = 0
    for size in range(min(root_min, cap + 1), cap + 1):
        for t in _subtrees(r, fewest, r.full, all_features, size):
            count += 1
            if limits.max_trees and count > limits.max_trees:
                raise EnumerationTruncated(limits.max_trees)
            yield t


def _compositions(total: int, bounds: list[tuple[int, int]]) -> Iterator[tuple[int, ...]]:
    """Lexicographic allocations of `total` across children within bounds."""
    if not bounds:
        if total == 0:
            yield ()
        return
    lo, hi = bounds[0]
    rest = bounds[1:]
    rest_lo = sum(b[0] for b in rest)
    rest_hi = sum(b[1] for b in rest)
    for b0 in range(max(lo, total - rest_hi), min(hi, total - rest_lo) + 1):
        for tail in _compositions(total - b0, rest):
            yield (b0,) + tail


def _subtrees(r: _Router, fewest, bits: int, usable: int, size: int) -> Iterator[Node]:
    # `size` is never below the fewest splits of (bits, usable), so impure
    # rows are always asked for at least one split
    sole = r.sole_class(bits)
    if sole is not None:
        if size == 0:
            yield Leaf(sole)
        return
    for f in (f for f in range(len(r.arities)) if usable >> f & 1):
        kid_bits = [bits & m for m in r.value_mask[f]]
        if len(kid_bits) - kid_bits.count(0) < 2:
            continue
        child_usable = usable & ~(1 << f)
        table = fewest[child_usable]
        forced: dict[int, Leaf] = {}
        open_bits = []
        open_bounds = []
        for v, kb in enumerate(kid_bits):
            if not kb:
                forced[v] = Leaf(r.majority(bits))
                continue
            sc = r.sole_class(kb)
            if sc is not None:
                forced[v] = Leaf(sc)
                continue
            # impure rows are in the memo; the fewest splits is their bound
            open_bits.append(kb)
            open_bounds.append((table[kb], min(size - 1, (kb & r.inst_mask).bit_count() - 1)))
        if sum(lo for lo, _ in open_bounds) > size - 1:  # inf: a child has no tree
            continue
        for comp in _compositions(size - 1, open_bounds):
            for combo in _assemble(r, fewest, open_bits, child_usable, comp, 0):
                children = []
                it = iter(combo)
                for v in range(len(kid_bits)):
                    children.append(forced[v] if v in forced else next(it))
                yield Split(f, tuple(children))


def _assemble(r, fewest, open_bits, usable, comp, i) -> Iterator[tuple[Node, ...]]:
    """The open children's subtrees at sizes `comp`, from child i on, the
    rightmost varying fastest."""
    if i == len(open_bits):
        yield ()
        return
    for sub in _subtrees(r, fewest, open_bits[i], usable, comp[i]):
        for tail in _assemble(r, fewest, open_bits, usable, comp, i + 1):
            yield (sub,) + tail


# ----------------------------------------------------------- naive oracle

_NAIVE_MAX_FEATURES = 4
_NAIVE_MAX_SPACE = 64


def enumerate_naive(train: Dataset, limits: EnumerationLimits = EnumerationLimits()) -> list[Node]:
    """Generate-and-filter oracle; returns trees sorted by canonical form.

    Every syntactic tree up to the budget is produced (distinct features
    per path, full fan-out, every leaf labeling), the empty-branch rule is
    applied against the training routing, and the survivors are exactly
    those passing `tree.check_structure` and `tree.is_consistent`.
    Refuses schemas beyond 4 features or 64 instances: this path exists to
    check the real enumerator, not to scale.
    """
    schema = train.schema
    if schema.n_features > _NAIVE_MAX_FEATURES or schema.space_size() > _NAIVE_MAX_SPACE:
        raise ValueError("naive enumeration is bounded to small schemas")
    if not train.examples:
        raise ValueError("training set is empty")
    cap = _effective_cap(limits.max_nodes, train.distinct_instances())
    candidates = _syntactic_trees(schema.arities, schema.n_classes, cap)
    if limits.max_trees and len(candidates) > limits.max_trees:
        raise EnumerationTruncated(limits.max_trees)
    n_classes = schema.n_classes

    def relabel_empty(node: Node, examples: list[LabeledExample]) -> Node:
        # empty-branch rule: an unreached leaf takes the majority class of
        # the examples entering its parent split
        if isinstance(node, Leaf):
            return node
        buckets: list[list[LabeledExample]] = [[] for _ in node.children]
        for ex in examples:
            buckets[ex.instance[node.feature]].append(ex)
        maj = treemod.majority_label(examples, n_classes) if examples else None
        children = []
        for child, bucket in zip(node.children, buckets):
            if isinstance(child, Leaf) and not bucket and maj is not None:
                children.append(Leaf(maj))
            else:
                children.append(relabel_empty(child, bucket))
        return Split(node.feature, tuple(children))

    # consistency never reads leaves no example reaches, and the structure
    # check never reads labels at all, so both may run before the
    # empty-branch relabeling; relabeling then collapses candidates that
    # differed only on unreached leaves, and the dict deduplicates them
    found: dict[str, Node] = {}
    all_examples = list(train.examples)
    for candidate in candidates:
        if not treemod.is_consistent(candidate, train):
            continue
        if treemod.check_structure(candidate, train) is not None:
            continue
        t = relabel_empty(candidate, all_examples)
        found[treemod.format_tree(t, schema)] = t
    return [found[k] for k in sorted(found)]


@lru_cache(maxsize=8)
def _syntactic_trees(arities: tuple[int, ...], n_classes: int, cap: int) -> tuple[Node, ...]:
    """All labeled trees up to `cap` splits, features distinct per path."""

    def gen(usable: tuple[int, ...], size: int) -> Iterator[Node]:
        if size == 0:
            for c in range(n_classes):
                yield Leaf(c)
            return
        for f in usable:
            rest = tuple(g for g in usable if g != f)
            for comp in _allocations(size - 1, arities[f]):
                for combo in itertools.product(*(list(gen(rest, s)) for s in comp)):
                    yield Split(f, tuple(combo))

    out: list[Node] = []
    for size in range(cap + 1):
        out.extend(gen(tuple(range(len(arities))), size))
    return tuple(out)


def _allocations(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _allocations(total - first, parts - 1):
            yield (first,) + rest


# -------------------------------------------------------------- summaries

@dataclass(frozen=True)
class TrackOptions:
    """What per-cardinality detail a summary carries.

    error_hist: histogram of misclassified test weight per tree (needed by
        pairwise statistics).  Off, the buckets carry only the exact tree,
        correct and misclassified totals (`_TotalsAlgebra`, if no path bins).
    leaf_hist: read only by the benchmark harness; leaf histograms are not
        tracked, so True raises ValueError.
    path_bins: histogram bin width for per-tree average path length over
        the population; computed from the exact algebraic profile.  Set,
        it also sums each bucket's split-traversals over the population
        (`path_tests_total`).
    """

    error_hist: bool = True
    leaf_hist: bool = False
    path_bins: float | None = None

    def __post_init__(self):
        if self.leaf_hist:
            raise ValueError("leaf histograms are not tracked")


@dataclass
class CardinalityBucket:
    tree_count: int = 0
    correct_count: int = 0
    misclassified_total: int = 0
    error_hist: dict[int, int] | None = None
    path_tests_total: int | None = None


@dataclass
class ForestSummary:
    """Per-cardinality accumulators for one enumeration run."""

    buckets: dict[int, CardinalityBucket]
    test_weight: int
    population_size: int | None = None
    path_bin_width: float | None = None
    path_bins: dict[int, list[int]] | None = None  # bin -> [tree_count, misc_total]

    @property
    def total_trees(self) -> int:
        return sum(b.tree_count for b in self.buckets.values())

    @property
    def min_size(self) -> int | None:
        return min((c for c, b in self.buckets.items() if b.tree_count), default=None)

    @property
    def max_size(self) -> int | None:
        return max((c for c, b in self.buckets.items() if b.tree_count), default=None)


def broken_identity(summary: ForestSummary) -> str | None:
    """The first summary identity that `summary` breaks, or None; an empty forest breaks none."""
    weight, bins = summary.test_weight, summary.path_bins
    for c, b in summary.buckets.items():
        trees, hist = b.tree_count, b.error_hist
        if trees < 1:
            return f"cardinality {c}: a bucket without trees"
        if b.correct_count > trees:
            return f"cardinality {c}: more correct trees than trees"
        if b.misclassified_total > trees * weight:
            return f"cardinality {c}: more errors than tree-test pairs"
        if hist is None:
            continue
        if sum(hist.values()) != trees:
            return f"cardinality {c}: error histogram mass != tree count"
        if hist.get(0, 0) != b.correct_count:
            return f"cardinality {c}: error histogram at 0 != correct count"
        if sum(map(mul, hist, hist.values())) != b.misclassified_total:
            return f"cardinality {c}: error histogram sum != misclassified total"
        if max(hist) > weight:
            return f"cardinality {c}: error count {max(hist)} above test weight {weight}"
    if bins is not None and [sum(v[i] for v in bins.values()) for i in (0, 1)] != [
        summary.total_trees, sum(b.misclassified_total for b in summary.buckets.values())
    ]:
        return "path bins do not hold every tree and error"
    return None


def forest_summary(
    train: Dataset,
    test: Dataset | None = None,
    limits: EnumerationLimits = EnumerationLimits(),
    population: Sequence[tuple] | None = None,
    track: TrackOptions = TrackOptions(),
    mode: str = "algebraic",
) -> ForestSummary:
    """Accumulate the consistent forest without storing trees.

    mode: 'algebraic' runs the algebraic route, which serves every tracking
    option; 'stream' walks every tree with the search enumerator and
    measures it directly, the oracle the tests compare the algebraic route
    against.  Only mode 'stream' raises EnumerationTruncated past
    limits.max_trees.  Both modes check their inputs first, alike: the test
    set's arities and class count (ValueError), and each population
    instance against the training schema (SchemaError).
    """
    if mode not in ("stream", "algebraic"):
        raise ValueError(f"unknown mode {mode!r}")
    schema = train.schema
    if test is not None and (test.schema.arities, test.schema.n_classes) != (
        schema.arities, schema.n_classes
    ):
        raise ValueError("test set does not share the training set's features and classes")
    pop = _population_router(schema, tuple(population)) if population is not None else None
    if track.path_bins is not None:
        if track.path_bins <= 0:
            raise ValueError("path_bins width must be positive")
        if population is None:
            raise ValueError("path-length tracking needs a population")
        if not population:
            raise ValueError("path population is empty")
    if mode == "stream":
        buckets, bins = _summary_stream(train, test, limits, population, track)
    else:
        buckets, bins = _summary_algebraic(train, test, limits, pop, track)
    return ForestSummary(
        buckets=buckets,
        test_weight=len(test.examples) if test is not None else 0,
        population_size=len(population) if population is not None else None,
        path_bin_width=track.path_bins,
        path_bins=bins,
    )


def _path_bin(total_tests: int, npop: int, width: float) -> int:
    """Bin of a tree whose splits were traversed total_tests times by npop instances."""
    return int((total_tests / npop) / width)


def _summary_stream(train, test, limits, population, track):
    """(buckets, path bins) of every tree the search enumerator yields,
    each tree measured by `tree`."""
    buckets: dict[int, CardinalityBucket] = {}
    bins: dict[int, list[int]] | None = {} if track.path_bins is not None else None
    for t in iter_consistent(train, limits):
        c = treemod.node_count(t)
        b = buckets.get(c)
        if b is None:
            b = buckets[c] = CardinalityBucket(
                error_hist={} if (track.error_hist and test is not None) else None,
                path_tests_total=0 if bins is not None else None,
            )
        b.tree_count += 1
        misc = treemod.misclassified(t, test.examples) if test is not None else 0
        b.misclassified_total += misc
        if not misc:
            b.correct_count += 1
        if b.error_hist is not None:
            b.error_hist[misc] = b.error_hist.get(misc, 0) + 1
        if bins is not None:
            total_tests = treemod.path_tests(t, population)
            b.path_tests_total += total_tests
            k = _path_bin(total_tests, len(population), track.path_bins)
            slot = bins.setdefault(k, [0, 0])
            slot[0] += 1
            slot[1] += misc
    return buckets, bins


def _summary_algebraic(train, test, limits, pop, track):
    """(buckets, path bins) of the forest, by one `_solve` pass."""
    if not train.examples:
        raise ValueError("training set is empty")
    tr = _Router(train)
    te = _Router(test if test is not None else Dataset(train.schema, ()))
    cap = _effective_cap(limits.max_nodes, train.distinct_instances())
    use_path = track.path_bins is not None
    if test is not None and not (track.error_hist or use_path):
        alg = _TotalsAlgebra(train.schema.arities, cap, te.full.bit_count())
    else:
        error_hist = track.error_hist and test is not None
        npop = pop.full.bit_count() if pop is not None else None
        alg = _CountAlgebra(cap, te.full.bit_count(), error_hist, track.path_bins, npop)
    return alg.tables(_solve(alg, tr, te, pop if use_path else None)[0])


@lru_cache(maxsize=8)
def _population_router(schema: FeatureSchema, population: tuple) -> _Router:
    """The population as a label-0 multiset; one router serves every trial."""
    return _Router(Dataset(schema, tuple(LabeledExample(inst, 0) for inst in population)))


def _solve(alg, tr: _Router, te: _Router, pop: _Router | None):
    """Profile, in algebra `alg`, of every consistent tree, and the memo.

    One memoized recursion over subproblems (train rows, usable features),
    one memo table `memo[usable][tr_bits]` per usable set, holding every
    impure subproblem reached below the root.  A split on a two-valued
    feature runs straight through its two children, with `sole_class`'s
    mask-first purity rule inline; a split of more values folds its open
    children past the second with `alg.mul`, cut at the room.  Either way
    one `attach` takes the open children as (a, b), None for a closed one.
    `solve` calls itself through its closure cell, a cycle that would hold
    the memo for the cyclic collector; unbinding it on any exit lets the
    caller's last reference free the memo.
    """
    memo: defaultdict[int, dict[int, object]] = defaultdict(dict)
    sole = tr.sole_class(tr.full)
    if sole is not None:
        return alg.leaf(te.wrong_weight(te.full, sole)), memo
    n_features = len(tr.arities)
    rooms = [alg.room(depth) for depth in range(n_features + 1)]
    tr_value, te_value = tr.value_mask, te.value_mask
    pop_value = pop.value_mask if pop is not None else tr_value  # pop_bits is 0 without one
    two = tr.n_classes == 2
    row_class = None if two else tr.row_class  # two classes never read it
    tr_other, te_other, sole_class = tr.other_mask, te.other_mask, tr.sole_class
    class0, other0, te_other0 = tr.class_mask[0], tr_other[0], te_other[0]
    zero, attach, mul = alg.zero, alg.attach, alg.mul
    split_unit, misc_unit, path_unit = alg.units
    # The train rows (never empty) share their values on the used features,
    # those not in `usable`, which fixes the path, its depth and the test
    # and population rows it admits: (tr_bits, usable) is the memo key.

    def solve(tr_bits: int, te_bits: int, pop_bits: int, usable: int):
        out = zero()
        sub_base = split_unit + pop_bits.bit_count() * path_unit
        room = rooms[n_features - usable.bit_count()]
        rest = usable
        while rest:
            low = rest & -rest
            rest ^= low
            f = low.bit_length() - 1
            masks = tr_value[f]
            if len(masks) == 2:
                k0 = tr_bits & masks[0]
                if not k0 or k0 == tr_bits:
                    continue
                k1 = tr_bits ^ k0
                child_usable = usable ^ low
                table = memo[child_usable]
                te0 = te_bits & te_value[f][0]
                a = b = None
                misc = 0
                if not k0 & other0:  # every row is of class 0
                    misc = (te0 & te_other0).bit_count()
                elif k0 & class0 or (  # a class-0 row and another, or the lowest row's class
                    k0 & tr_other[c := 1 if two else row_class[(k0 & -k0).bit_length() - 1]]
                ):
                    a = table.get(k0)
                    if a is None:
                        a = table[k0] = solve(k0, te0, pop_bits & pop_value[f][0], child_usable)
                else:
                    misc = (te0 & te_other[c]).bit_count()
                te1 = te_bits ^ te0
                if not k1 & other0:
                    misc += (te1 & te_other0).bit_count()
                elif k1 & class0 or (
                    k1 & tr_other[c := 1 if two else row_class[(k1 & -k1).bit_length() - 1]]
                ):
                    b = table.get(k1)
                    if b is None:
                        b = table[k1] = solve(k1, te1, pop_bits & pop_value[f][1], child_usable)
                    if a is None:
                        a, b = b, a
                else:
                    misc += (te1 & te_other[c]).bit_count()
            else:
                tr_kids = [tr_bits & m for m in masks]
                if len(tr_kids) - tr_kids.count(0) < 2:
                    continue
                child_usable = usable ^ low
                table = memo[child_usable]
                te_masks = te_value[f]
                misc = 0
                parts = []
                for v, kb in enumerate(tr_kids):
                    te_kid = te_bits & te_masks[v]
                    c = sole_class(kb) if kb else tr.majority(tr_bits)  # a leaf's class
                    if c is not None:
                        misc += (te_kid & te_other[c]).bit_count()
                        continue
                    part = table.get(kb)
                    if part is None:
                        pop_kid = pop_bits & pop_value[f][v]
                        part = table[kb] = solve(kb, te_kid, pop_kid, child_usable)
                    parts.append(part)
                while len(parts) > 2:
                    parts[:2] = [mul(parts[0], parts[1], room)]
                a, b = (parts + [None, None])[:2]
            out = attach(out, a, b, sub_base + misc * misc_unit, misc, room)
        return out

    all_features = (1 << n_features) - 1
    try:
        return solve(tr.full, te.full, pop.full if pop is not None else 0, all_features), memo
    finally:
        del solve  # it calls itself through its own closure cell: unbind that cycle


# Algebras.  zero() is the profile of no trees (never None) and leaf(misc)
# that of the lone leaf; room(depth) is what a split at `depth` leaves its
# children (the module docstring's depth cut); units is what one (split,
# misclassified test row, path test) adds to a key, 0 for a field not in
# it, so the caller sums a split's key `base`.  attach(out, a, b, base,
# misc, room) returns `out` plus the trees of one split with key `base`,
# closed leaves misclassifying `misc` test rows and open children a and b,
# None for no open child (b is None when a is); mul(a, b, room), their
# product cut at the room, folds a third child into a.  Neither mutates a
# or b; tables(profile) gives the summary's buckets and path bins.


class _CountAlgebra:
    """Exact tree counts keyed on a packed int: a dict key -> tree count.

    A key packs disjoint bit fields, from the top down: splits,
    misclassified test weight, then the path-test total only when tracked.
    Below the splits every field is wide enough for any tree within the
    cap: misc <= test weight, path tests <= (cap+1) * population size.  So
    adding the keys of parts of a tree within the cap never carries from
    one field into the next, and a key of more splits than the cap stays
    at or above (cap+1) << split_shift whatever carries below; "within
    budget b" is just `key < (b+1) << split_shift`.
    """

    def __init__(
        self, cap: int, test_weight: int, error_hist: bool, path_bins: float | None, npop: int | None
    ):
        self.error_hist = error_hist
        self.use_path = path_bins is not None
        self.width = path_bins
        self.npop = npop
        self.misc_shift = ((cap + 1) * npop).bit_length() if self.use_path else 0
        self.split_shift = self.misc_shift + test_weight.bit_length()
        self.path_mask = (1 << self.misc_shift) - 1  # the path field is all below misc
        self.misc_mask = (1 << test_weight.bit_length()) - 1
        self.cap = cap
        self.units = (1 << self.split_shift, 1 << self.misc_shift, int(self.use_path))

    def key(self, splits: int, misc: int, path: int) -> int:
        return (splits << self.split_shift) + (misc << self.misc_shift) + path * self.units[2]

    def zero(self) -> dict[int, int]:
        return {}

    def leaf(self, misc: int) -> dict[int, int]:
        return {self.key(0, misc, 0): 1}

    def room(self, depth: int) -> int:
        return (self.cap - depth) << self.split_shift  # below cap - depth splits

    def mul(self, a, b, room, out=None, base=0) -> dict[int, int]:
        """Adds a * b, keys raised by `base`, to `out` (a new dict when None); returns it."""
        if out is None:
            out = {}
        get = out.get
        items = sorted(b.items())
        for k1, c1 in a.items():
            left = room - k1
            k1 += base
            for k2, c2 in items:
                if k2 >= left:
                    break
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return out

    def attach(self, out, a, b, base, misc, room) -> dict[int, int]:
        if b is not None:
            return self.mul(a, b, room, out, base)
        if a is None:
            if room > 0:  # the budget admits this one split
                out[base] = out.get(base, 0) + 1
            return out
        get = out.get
        for k, c in a.items():
            if k < room:
                k += base
                out[k] = get(k, 0) + c
        return out

    def tables(self, profile: dict[int, int]):
        """Buckets (and path bins) of a profile, in one pass over its sorted
        keys; a bucket's totals are summed in locals and stored at its end."""
        split_shift, misc_shift, misc_mask = self.split_shift, self.misc_shift, self.misc_mask
        use_path, path_mask, npop, width = self.use_path, self.path_mask, self.npop, self.width
        buckets: dict[int, CardinalityBucket] = {}
        bins: dict[int, list[int]] | None = {} if use_path else None
        b = None
        end = 0  # the first key past the current bucket
        for k in sorted(profile):  # ints sort much faster than (key, count) pairs
            cnt = profile[k]
            if k >= end:
                if b is not None:
                    b.tree_count, b.correct_count, b.misclassified_total = trees, correct, wrong
                c = k >> split_shift
                end = (c + 1) << split_shift
                b = buckets[c] = CardinalityBucket(
                    error_hist={} if self.error_hist else None,
                    path_tests_total=0 if use_path else None,
                )
                hist = b.error_hist
                trees = correct = wrong = 0
            misc = (k >> misc_shift) & misc_mask
            trees += cnt
            if misc:
                wrong += misc * cnt
            else:
                correct += cnt
            if hist is not None:
                hist[misc] = hist.get(misc, 0) + cnt
            if use_path:
                path = k & path_mask
                b.path_tests_total += path * cnt
                slot = bins.setdefault(_path_bin(path, npop, width), [0, 0])
                slot[0] += cnt
                slot[1] += misc * cnt
        if b is not None:
            b.tree_count, b.correct_count, b.misclassified_total = trees, correct, wrong
        return buckets, bins


class _TotalsAlgebra:
    """The expectation semiring (Li & Eisner, EMNLP 2009) with the error-free
    count alongside, for a test set with no error histogram or path bins.
    A profile is () for no trees, else (lo, C, Z, M): slot i (`width` bits
    from bit i * width) of C, Z and M holds the trees, error-free trees and
    misclassified sum at lo + i splits; C's slot 0 is never empty.  Children
    multiply as (C1 C2, Z1 Z2, M1 C2 + C1 M2), cut to the slots below the
    room; nonzero `misc` zeroes Z and adds misc C to M.  No kept slot
    reaches 2**width, and higher ones carry only into slots the cut drops."""

    units = (1, 0, 0)

    def __init__(self, arities: tuple[int, ...], cap: int, test_weight: int):
        self.cap = cap
        self.width = _slot_width(arities, cap, test_weight)

    def zero(self) -> tuple:
        return ()

    def leaf(self, misc: int) -> tuple[int, int, int, int]:
        return (0, 1, int(not misc), misc)

    def room(self, depth: int) -> int:
        return self.cap - depth

    def mul(self, a, b, room):
        return self.attach((), a, b, 0, 0, room)

    def attach(self, out, a, b, base, misc, room):
        if a == () or b == ():  # an open child without trees
            return out
        lo, c, z, m = a or (0, 1, 1, 0)
        if b:
            lo2, c2, z2, m2 = b
            lo += lo2
            c, z, m = c * c2, z * z2, m * c2 + c * m2
        if lo >= room:
            return out
        keep = self.width * (room - lo)  # the bits of the slots below the room
        if c >> keep:
            mask = (1 << keep) - 1
            c, z, m = c & mask, z & mask, m & mask
        if misc:
            z, m = 0, m + misc * c
        lo += base
        if not out:
            return (lo, c, z, m)
        lo0, c0, z0, m0 = out
        if lo < lo0:
            lo0, c0, z0, m0, lo, c, z, m = lo, c, z, m, lo0, c0, z0, m0
        s = self.width * (lo - lo0)
        return (lo0, c0 + (c << s), z0 + (z << s), m0 + (m << s))

    def tables(self, profile):
        buckets: dict[int, CardinalityBucket] = {}
        lo, c, z, m = profile or (0, 0, 0, 0)
        w, mask = self.width, (1 << self.width) - 1
        while c:
            if c & mask:
                buckets[lo] = CardinalityBucket(c & mask, z & mask, m & mask)
            lo, c, z, m = lo + 1, c >> w, z >> w, m >> w
        return buckets, None


@lru_cache(maxsize=64)
def _slot_width(arities: tuple[int, ...], cap: int, test_weight: int) -> int:
    """Bits per `_TotalsAlgebra` slot: those of B * max(1, test weight), B
    bounding the trees of one size within the cap of a subproblem or open
    children's product: the lesser of T(F), T(k) = 1 + k T(k-1)^A over k
    features (A the largest arity), and the A-ary shapes of up to cap splits
    with a feature on each, sum F^s binom(A s, s) / ((A-1) s + 1).  So every
    kept slot (trees, error-free trees, error sum <= trees * test weight)
    fits in that value's `bit_length()`, after any product or merge."""
    a, f = max(arities), len(arities)
    capped_bits = cap * (3 * f * a).bit_length() + (cap + 1).bit_length()  # terms < (3FA)^s
    depth = k = 1
    while k <= f and depth.bit_length() <= capped_bits:  # only until past the sum
        depth, k = 1 + k * depth**a, k + 1
    capped = s = 0
    while s <= cap and capped < depth:  # only until past T(F)
        capped += f**s * math.comb(a * s, s) // ((a - 1) * s + 1)
        s += 1
    return (min(depth, capped) * max(1, test_weight)).bit_length()


class _MinSizeAlgebra:
    """Min-plus: the fewest splits of any consistent tree, inf when none.

    It needs no cap: some tree fits a cap exactly when the fewest splits
    over all trees do, so the caller compares the one result with its cap.
    """

    units = (0, 0, 0)

    def zero(self):
        return math.inf

    def leaf(self, misc: int) -> int:
        return 0

    def room(self, depth: int) -> None:
        return None

    def mul(self, a, b, room):
        return a + b

    def attach(self, out, a, b, base, misc, room):
        return min(out, 1 + (a or 0) + (b or 0))


# ------------------------------------------------------------- min size

def _fewest_splits(train: Dataset):
    """One min-plus pass: the router, the fewest splits of any consistent
    tree (inf when none), and the memo `fewest[usable][rows]` holding that
    fewest for every impure subproblem reachable below the root."""
    if not train.examples:
        raise ValueError("training set is empty")
    r = _Router(train)
    return (r, *_solve(_MinSizeAlgebra(), r, _Router(Dataset(train.schema, ())), None))


def min_consistent_size(train: Dataset, max_nodes: int | None = None) -> int | None:
    """Smallest split budget admitting a consistent tree.

    Returns None when no consistent tree exists within the cap (including
    the infeasible-data case, where none exists at any size).
    """
    _, size, _ = _fewest_splits(train)
    return size if size <= _effective_cap(max_nodes, train.distinct_instances()) else None
