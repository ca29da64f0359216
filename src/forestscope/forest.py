"""Exhaustive enumeration of every decision tree consistent with a dataset.

A tree is admitted when it has zero error on the training multiset, every
split routes its incoming examples into at least two children, and no split
sits on a pure or empty multiset.  Splits never repeat a feature along a
path: re-testing one would send every example down a single child, which
the routing rule already forbids, so nothing is lost by construction.

Three routes to the same forest live here, on purpose:

* `iter_consistent`: the search enumerator.
  Depth-first over choice points; yields actual trees in a documented
  deterministic order (subtree sizes ascending, then feature index, then
  child budget compositions lexicographically with the rightmost child
  varying fastest).  Each subproblem's budget is bounded below by its
  exact fewest splits, read from the memo of one min-plus `_solve` pass,
  the lower-bound pruning of DL8 with an exact bound: no size below a
  subproblem's minimum is searched, and pruning drops only branches that
  yield nothing, so the trees and their order are those of the unpruned
  search.
* `enumerate_naive`: the definitional oracle.  Generates every syntactic
  tree (path-distinct features, full fan-out, all leaf labelings, the
  empty-branch rule applied) and filters through the public predicates in
  `tree`.  Kept deliberately independent of the search enumerator; bounded
  to small schemas.
* `forest_summary`: per-cardinality accumulation without storing trees.
  The algebraic mode is one recursion, three algebras: `_solve` memoizes
  over (train rows, usable features) subproblems, which fix the test and
  population rows, in one table per usable-feature set; it multiplies the
  profiles of each split's open children and attaches the split under a
  key summed from the algebra's field units; what a profile holds is the
  algebra's business.  Every row of the train, test and population
  multisets has its own bit in `_Router`'s masks, so each weight is a
  popcount.  `_CountAlgebra`
  keeps exact Python-int tree counts keyed on one packed int per (splits,
  misclassified weight, path tests), the last only when tracked, so no
  count is fixed-width and none can wrap; `_TotalsAlgebra`, for test errors
  with no histogram at all, keys on splits alone and sums the errors in the
  values instead; `_MinSizeAlgebra` is min-plus, giving
  `min_consistent_size` in one pass.
  This is what makes thousand-trial runs affordable.  It serves every request,
  path-length bins included: a tree's path-test total is additive over its
  splits (each adds the population weight reaching it), so the key carries
  it and each distinct total is binned once.  The streaming mode drives
  the search enumerator and measures each tree directly; it runs only when
  asked for, as the oracle.  Tests hold the two modes and the oracle to
  bucket-for-bucket agreement.

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
from typing import Iterator

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
    summary walks no trees and ignores it.  `iter_consistent` never searches
    a subproblem below its fewest splits, so a walk spends nothing on the
    sizes below its smallest tree; the cap still counts trees, not work."""

    max_nodes: int | None = None
    max_trees: int = 50_000_000

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes < 0:
            raise ValueError("max_nodes must be >= 0")
        if self.max_trees < 0:
            raise ValueError("max_trees must be >= 0")


def _iter_bits(x: int) -> Iterator[int]:
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class _Router:
    """Bitset routing tables over the rows of a multiset.

    Every row has its own bit, and the rows of one (instance, label) pair
    sit on adjacent bits, so every weight is a popcount: duplicate rows
    (and even conflicting labels) count exactly, and majority and
    misclassification compare bit counts.  `row_class[i]` is the class of
    row i and `other_mask[c]` holds every row not of class c, so purity
    takes one probe: the lowest row of a set names the only class it can
    be pure in, and the set is pure exactly when it misses that class's
    `other_mask`.  The runs are the dataset's own `runs`, counted once when
    it was built, so the rows are not hashed a second time here.
    `row_class` is built on first use, from the same runs as the masks: only
    training rows are ever tested for purity.  The methods
    below are the definitions; `_solve`'s split loop evaluates the same
    one-probe expressions inline, saving a call per child.  `inst_mask`
    (one bit per distinct instance, its first row, for the bounds that
    count instances) and `n` (their number) are built on first use too.
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

    @property
    def n(self) -> int:
        return self.inst_mask.bit_count()

    def sole_class(self, bits: int) -> int | None:
        """The single class with weight in `bits`, or None if impure or empty."""
        if not bits:
            return None
        c = self.row_class[(bits & -bits).bit_length() - 1]
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
    cap = _effective_cap(limits.max_nodes, r.n)
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
    for f in _iter_bits(usable):
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
        pairwise statistics).  Off = the buckets carry only the exact
        tree, correct and misclassified totals; without path bins either,
        `_TotalsAlgebra` sums them without keying trees on their error.
    leaf_hist: read only by the benchmark harness; leaf histograms are not
        tracked, so it must be False, and True raises ValueError.
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
        present = [c for c, b in self.buckets.items() if b.tree_count]
        return min(present) if present else None

    @property
    def max_size(self) -> int | None:
        present = [c for c, b in self.buckets.items() if b.tree_count]
        return max(present) if present else None

    def mean_error(self, c: int) -> float:
        b = self.buckets[c]
        if not b.tree_count or not self.test_weight:
            raise ValueError(f"no error data at cardinality {c}")
        return b.misclassified_total / (b.tree_count * self.test_weight)


def forest_summary(
    train: Dataset,
    test: Dataset | None = None,
    limits: EnumerationLimits = EnumerationLimits(),
    population: list[tuple] | None = None,
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
        return _summary_stream(train, test, limits, population, track)
    return _summary_algebraic(train, test, limits, pop, track)


def _path_bin(total_tests: int, npop: int, width: float) -> int:
    """Bin of a tree whose splits were traversed total_tests times by npop instances."""
    return int((total_tests / npop) / width)


def _summary_stream(train, test, limits, population, track) -> ForestSummary:
    schema = train.schema
    test_weight = len(test.examples) if test is not None else 0
    buckets: dict[int, CardinalityBucket] = {}
    bins: dict[int, list[int]] | None = (
        {} if track.path_bins is not None else None
    )
    npop = len(population) if population is not None else None
    for t in iter_consistent(train, limits):
        c = treemod.node_count(t)
        b = buckets.get(c)
        if b is None:
            b = buckets[c] = CardinalityBucket(
                error_hist={} if (track.error_hist and test is not None) else None,
                path_tests_total=0 if bins is not None else None,
            )
        b.tree_count += 1
        misc = 0
        if test is not None:
            misc = sum(
                1 for ex in test.examples if treemod.classify(t, ex.instance) != ex.label
            )
            b.misclassified_total += misc
            if misc == 0:
                b.correct_count += 1
            if b.error_hist is not None:
                b.error_hist[misc] = b.error_hist.get(misc, 0) + 1
        else:
            b.correct_count += 1
        if b.path_tests_total is not None:
            total_tests = 0
            for inst in population:
                n = t
                while isinstance(n, Split):
                    total_tests += 1
                    n = n.children[inst[n.feature]]
            b.path_tests_total += total_tests
            if bins is not None:
                slot = bins.setdefault(_path_bin(total_tests, npop, track.path_bins), [0, 0])
                slot[0] += 1
                slot[1] += misc
    return ForestSummary(
        buckets=buckets,
        test_weight=test_weight,
        population_size=npop,
        path_bin_width=track.path_bins,
        path_bins=bins,
    )


def _summary_algebraic(train, test, limits, pop, track) -> ForestSummary:
    tr = _Router(train)
    if tr.n == 0:
        raise ValueError("training set is empty")
    te = _Router(test if test is not None else Dataset(train.schema, ()))
    cap = _effective_cap(limits.max_nodes, tr.n)
    test_weight = te.full.bit_count()
    npop = pop.full.bit_count() if pop is not None else None
    use_path = track.path_bins is not None
    if test is not None and not (track.error_hist or use_path):
        alg = _TotalsAlgebra(cap)
    else:
        error_hist = track.error_hist and test is not None
        alg = _CountAlgebra(cap, test_weight, error_hist, track.path_bins, npop)
    buckets, bins = alg.tables(_solve(alg, tr, te, pop if use_path else None)[0])
    return ForestSummary(
        buckets=buckets,
        test_weight=test_weight,
        population_size=npop,
        path_bin_width=track.path_bins,
        path_bins=bins,
    )


@lru_cache(maxsize=8)
def _population_router(schema: FeatureSchema, population: tuple) -> _Router:
    """The population as a label-0 multiset; one router serves every trial."""
    return _Router(Dataset(schema, tuple(LabeledExample(inst, 0) for inst in population)))


def _solve(alg, tr: _Router, te: _Router, pop: _Router | None):
    """Profile, in algebra `alg`, of every consistent tree, and the memo.

    One memoized recursion over subproblems (train rows, usable features),
    one memo table per usable set; `pop` is None when no population is
    tracked, which keeps its masks out of the per-split loop.  Each split
    is attached (`alg.attach`) with its open children's profiles, its key,
    summed from `alg.units` (split and path tests per subproblem, closed
    leaves' misclassified weight per split), that misclassified weight
    itself, and the room `alg.room(depth)` that a split at `depth` leaves
    its children.  A two-valued feature splits without a list; purity and
    weights are `_Router`'s one-probe expressions inline, and a child's
    test and population rows are routed only where they are read.  The memo,
    `memo[usable][tr_bits]`, holds the profile of every impure subproblem
    the recursion reaches below the root.  `solve` calls itself through its
    closure cell, a cycle that would hold the memo for the cyclic collector;
    unbinding it on any exit lets the caller's last reference free the memo.
    """
    memo: defaultdict[int, dict[int, object]] = defaultdict(dict)
    sole = tr.sole_class(tr.full)
    if sole is not None:
        return alg.leaf(te.wrong_weight(te.full, sole)), memo
    n_features = len(tr.arities)
    rooms = [alg.room(depth) for depth in range(n_features + 1)]
    tr_value, te_value = tr.value_mask, te.value_mask
    pop_value = pop.value_mask if pop is not None else None
    row_class, tr_other, te_other = tr.row_class, tr.other_mask, te.other_mask
    zero, attach = alg.zero, alg.attach
    split_unit, misc_unit, path_unit = alg.units
    # The used features are those not in `usable`, and the train rows
    # (never empty) all share their values on them, which fixes the path
    # and its depth; the test and population rows are those the path
    # admits, so (tr_bits, usable) determines te_bits, pop_bits and the
    # room.  Callers probe memo[usable][tr_bits] before recursing.

    def solve(tr_bits: int, te_bits: int, pop_bits: int, usable: int):
        out = zero()
        sub_base = split_unit + pop_bits.bit_count() * path_unit
        room = rooms[n_features - usable.bit_count()]
        maj = None
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
                tr_kids = (k0, tr_bits ^ k0)
            else:
                tr_kids = [tr_bits & m for m in masks]
                if len(tr_kids) - tr_kids.count(0) < 2:
                    continue
            te_masks = te_value[f]
            child_usable = usable ^ low
            table = memo[child_usable]
            misc = 0
            parts = []
            for v, kb in enumerate(tr_kids):
                if not kb:
                    te_kid = te_bits & te_masks[v]
                    if te_kid:
                        if maj is None:
                            maj = tr.majority(tr_bits)
                        misc += (te_kid & te_other[maj]).bit_count()
                    continue
                c = row_class[(kb & -kb).bit_length() - 1]
                if not kb & tr_other[c]:
                    misc += (te_bits & te_masks[v] & te_other[c]).bit_count()
                    continue
                part = table.get(kb)
                if part is None:
                    part = table[kb] = solve(
                        kb,
                        te_bits & te_masks[v],
                        pop_bits & pop_value[f][v] if pop is not None else 0,
                        child_usable,
                    )
                parts.append(part)
            out = attach(out, parts, sub_base + misc * misc_unit, misc, room)
        return out

    all_features = (1 << n_features) - 1
    try:
        return solve(tr.full, te.full, pop.full if pop is not None else 0, all_features), memo
    finally:
        del solve  # it calls itself through its own closure cell: unbind that cycle


# Algebras.  zero() is the profile of no trees and leaf(misc) that of the
# lone leaf; room(depth) is what a split at `depth` leaves its children;
# units is what one (split, misclassified test row, path test) adds to a
# key, 0 for a field not in the key, so the caller sums a split's key `base`
# itself; attach(out, parts, base, misc, room) adds to `out` the trees of
# one split with key `base` and closed leaves misclassifying `misc` test
# rows, whose open children have the profiles `parts` (empty when every
# child is a closed leaf), never mutating a part; tables(profile) gives the
# summary's buckets and path bins.  Three algebras: `_CountAlgebra` counts
# trees exactly in Python ints within its split cap, keeping `misc` in the
# key, and its mul(a, b, room, out=None, base=0) adds the product of
# independent children, keys raised by `base`, into `out` (a new dict when
# None) and returns it, never mutating `a` or `b`; `_TotalsAlgebra` serves
# only a test set with no histogram at all, so its key is the split count
# alone, it sums `misc` into (trees, correct, misclassified) values, and its
# mul(a, b, room) returns a new dict; `_MinSizeAlgebra` is min-plus, ignores
# the room and needs no mul.  A profile is cut by depth: a subproblem at depth d (d features used on its
# path) sits under d splits, so its trees keep at most cap - d splits and
# the children of its split at most cap - d - 1 together.  The memo key
# fixes d, the number of features not in `usable`, so the cut profile it
# stores is the same wherever the subproblem recurs.  No other bound is
# needed: every split parts its rows into at least two nonempty children, so
# a tree over n distinct training instances has at most n - 1 splits.


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
        """Keys below this fit the children of a split at `depth`: they may
        hold cap - depth - 1 splits."""
        return (self.cap - depth) << self.split_shift

    def mul(
        self,
        a: dict[int, int],
        b: dict[int, int],
        room: int,
        out: dict[int, int] | None = None,
        base: int = 0,
    ) -> dict[int, int]:
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

    def attach(self, out, parts, base, misc, room) -> dict[int, int]:
        if not parts:
            if room > 0:  # the budget admits this one split
                out[base] = out.get(base, 0) + 1
            return out
        if len(parts) == 1:
            get = out.get
            for k, c in parts[0].items():
                if k < room:
                    k += base
                    out[k] = get(k, 0) + c
            return out
        acc = parts[0]
        for part in parts[1:-1]:
            acc = self.mul(acc, part, room)
        return self.mul(acc, parts[-1], room, out, base)

    def tables(self, profile: dict[int, int]):
        """Buckets (and path bins) of a profile, in one pass over its sorted
        keys; a bucket's totals are summed in locals and stored at its end."""
        buckets: dict[int, CardinalityBucket] = {}
        bins: dict[int, list[int]] | None = {} if self.width is not None else None
        split_shift, misc_shift, misc_mask = self.split_shift, self.misc_shift, self.misc_mask
        use_path, path_mask, npop, width = self.use_path, self.path_mask, self.npop, self.width
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
                if bins is not None:
                    slot = bins.setdefault(_path_bin(path, npop, width), [0, 0])
                    slot[0] += cnt
                    slot[1] += misc * cnt
        if b is not None:
            b.tree_count, b.correct_count, b.misclassified_total = trees, correct, wrong
        return buckets, bins


class _TotalsAlgebra:
    """A dict splits -> (trees, correct, misclassified): the expectation
    semiring (Li & Eisner, EMNLP 2009) with the error-free count alongside.

    Only a test set with no error histogram and no path bins runs it, so
    its key is the split count alone.  Children multiply as (c1 c2, z1 z2,
    m1 c2 + c1 m2); `attach` multiplies a split's open children first, then
    adds the closed leaves' misclassified weight `misc` as it is: nonzero,
    it zeroes `correct` and adds `misc` times `trees`.
    """

    units = (1, 0, 0)

    def __init__(self, cap: int):
        self.cap = cap

    def zero(self) -> dict[int, tuple[int, int, int]]:
        return {}

    def leaf(self, misc: int) -> dict[int, tuple[int, int, int]]:
        return {0: (1, int(not misc), misc)}

    def room(self, depth: int) -> int:
        return self.cap - depth

    def mul(self, a, b, room):
        out = {}
        get = out.get
        items = sorted(b.items())
        for k1, (c1, z1, m1) in a.items():
            left = room - k1
            for k2, (c2, z2, m2) in items:
                if k2 >= left:
                    break
                k = k1 + k2
                c, z, m = get(k, (0, 0, 0))
                out[k] = (c + c1 * c2, z + z1 * z2, m + m1 * c2 + c1 * m2)
        return out

    def attach(self, out, parts, base, misc, room):
        acc = parts[0] if parts else {0: (1, 1, 0)}
        for part in parts[1:]:
            acc = self.mul(acc, part, room)
        get = out.get
        for k, (c, z, m) in acc.items():
            if k < room:
                k += base
                o = get(k, (0, 0, 0))
                out[k] = (o[0] + c, o[1] + (0 if misc else z), o[2] + m + misc * c)
        return out

    def tables(self, profile):
        return {k: CardinalityBucket(*profile[k]) for k in sorted(profile)}, None


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

    def attach(self, out, parts, base, misc, room):
        return min(out, 1 + sum(parts))


# ------------------------------------------------------------- min size

def _fewest_splits(train: Dataset):
    """One min-plus pass: the router, the fewest splits of any consistent
    tree (inf when none), and the memo `fewest[usable][rows]` holding that
    fewest for every impure subproblem reachable below the root."""
    r = _Router(train)
    if r.n == 0:
        raise ValueError("training set is empty")
    return (r, *_solve(_MinSizeAlgebra(), r, _Router(Dataset(train.schema, ())), None))


def min_consistent_size(train: Dataset, max_nodes: int | None = None) -> int | None:
    """Smallest split budget admitting a consistent tree.

    Returns None when no consistent tree exists within the cap (including
    the infeasible-data case, where none exists at any size).
    """
    r, size, _ = _fewest_splits(train)
    return size if size <= _effective_cap(max_nodes, r.n) else None
