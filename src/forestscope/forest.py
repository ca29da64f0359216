"""Exhaustive enumeration of every decision tree consistent with a dataset.

A tree is admitted when it has zero error on the training multiset, every
split routes its incoming examples into at least two children, and no split
sits on a pure or empty multiset.  Splits never repeat a feature along a
path: re-testing one would send every example down a single child, which
the routing rule already forbids, so nothing is lost by construction.

Three routes to the same forest live here, on purpose:

* `iter_consistent` / `enumerate_consistent`: the search enumerator.
  Depth-first over choice points with budget pruning; yields actual trees
  in a documented deterministic order (subtree sizes ascending, then
  feature index, then child budget compositions lexicographically with the
  rightmost child varying fastest).
* `enumerate_naive`: the definitional oracle.  Generates every syntactic
  tree (path-distinct features, full fan-out, all leaf labelings, the
  empty-branch rule applied) and filters through the public predicates in
  `tree`.  Kept deliberately independent of the search enumerator; bounded
  to small schemas.
* `forest_summary`: per-cardinality accumulation without storing trees.
  The algebraic mode is one recursion, two algebras: `_solve` memoizes
  over (train, test, population, usable-feature) subproblems, multiplies
  the profiles of each split's open children and attaches the split with
  its closed leaves' (misclassified weight, leaves, path tests); what a
  profile holds is the algebra's business.  `_CountAlgebra` keeps exact
  Python-int tree counts keyed on one packed int per (splits,
  misclassified weight, leaves, path tests), the last two only when
  tracked, so no count is fixed-width and none can wrap; `_MinSizeAlgebra`
  is min-plus, giving `min_consistent_size` in one pass.  This is what
  makes thousand-trial runs affordable.  It serves every request,
  path-length bins included: a tree's path-test total is additive over its
  splits (each adds the population weight reaching it), so the key carries
  it and each distinct total is binned once.  The streaming mode drives
  the search enumerator and measures each tree directly; it runs only when
  asked for, as the oracle.  Tests hold the two modes and the oracle to
  bucket-for-bucket agreement.

Budgets count splits.  `max_nodes=None` means no explicit cap, which is
effectively (distinct training instances - 1): no consistent tree can use
more, since every split strictly partitions a set of at least two distinct
instances.  Empty branches (arity >= 3 only) become leaves labeled with the
majority class of the parent's examples, ties to the smallest class index.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

from . import tree as treemod
from .dataset import Dataset, LabeledExample
from .tree import Leaf, Node, Split


class EnumerationTruncated(Exception):
    """The safety cap on trees per enumeration was exceeded."""

    def __init__(self, cap: int):
        super().__init__(f"enumeration exceeded the safety cap of {cap} trees")
        self.cap = cap


@dataclass(frozen=True)
class EnumerationLimits:
    """max_nodes: split budget (None = no explicit cap).
    max_trees: safety cap on enumerated trees, 0 = unlimited."""

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
    """Bitset routing tables over the distinct instances of a multiset.

    Bit i of a node's set stands for distinct instance i.  Per-class weights
    keep duplicate rows (and even conflicting labels) exact: purity means
    exactly one class has weight, and majority/misclassification sums are
    taken over weights.
    """

    def __init__(self, data: Dataset):
        schema = data.schema
        self.arities = schema.arities
        self.n_classes = schema.n_classes
        index: dict[tuple, int] = {}
        instances: list[tuple] = []
        class_w: list[list[int]] = []
        for ex in data.examples:
            i = index.get(ex.instance)
            if i is None:
                i = index[ex.instance] = len(instances)
                instances.append(ex.instance)
                class_w.append([0] * self.n_classes)
            class_w[i][ex.label] += 1
        self.instances = instances
        self.n = len(instances)
        self.class_w = class_w
        self.total_w = [sum(w) for w in class_w]
        self.full = (1 << self.n) - 1
        self.value_mask = [
            [0] * a for a in self.arities
        ]
        for i, inst in enumerate(instances):
            for f, v in enumerate(inst):
                self.value_mask[f][v] |= 1 << i
        self.class_mask = [0] * self.n_classes
        for i, w in enumerate(class_w):
            for c in range(self.n_classes):
                if w[c]:
                    self.class_mask[c] |= 1 << i
        self.grand_total = sum(self.total_w)
        self._uniform = all(t == 1 for t in self.total_w)

    def classes_present(self, bits: int) -> list[int]:
        return [c for c in range(self.n_classes) if bits & self.class_mask[c]]

    def sole_class(self, bits: int) -> int | None:
        """The single class with weight in `bits`, or None if impure."""
        found = None
        for c in range(self.n_classes):
            if bits & self.class_mask[c]:
                if found is not None:
                    return None
                found = c
        return found

    def weight(self, bits: int) -> int:
        if self._uniform:
            return bits.bit_count()
        return sum(self.total_w[i] for i in _iter_bits(bits))

    def class_weight(self, bits: int, c: int) -> int:
        masked = bits & self.class_mask[c]
        if self._uniform:
            # one row per distinct instance, so membership is the weight
            return masked.bit_count()
        return sum(self.class_w[i][c] for i in _iter_bits(masked))

    def wrong_weight(self, bits: int, label: int) -> int:
        return self.weight(bits) - self.class_weight(bits, label)

    def majority(self, bits: int) -> int:
        """Heaviest class in `bits`, ties to the smallest class index."""
        best, best_w = 0, -1
        for c in range(self.n_classes):
            w = self.class_weight(bits, c)
            if w > best_w:
                best, best_w = c, w
        return best


def _effective_cap(limits: EnumerationLimits, router: _Router) -> int:
    hard = max(router.n - 1, 0)
    if limits.max_nodes is None:
        return hard
    return min(limits.max_nodes, hard)


def _log_bound(n_classes_present: int, max_arity: int) -> int:
    """Splits needed at minimum to tell k classes apart."""
    need, reach = 0, 1
    while reach < n_classes_present:
        reach *= max_arity
        need += 1
    return need


# ------------------------------------------------------- search enumerator

def iter_consistent(train: Dataset, limits: EnumerationLimits = EnumerationLimits()) -> Iterator[Node]:
    """Every consistent tree within the budget, in canonical order."""
    r = _Router(train)
    if r.n == 0:
        raise ValueError("training set is empty")
    cap = _effective_cap(limits, r)
    max_arity = max(r.arities)
    all_features = (1 << len(r.arities)) - 1
    lb_cache: dict[int, int] = {}

    def lower_bound(bits: int) -> int:
        got = lb_cache.get(bits)
        if got is None:
            k = len(r.classes_present(bits))
            got = 0 if k <= 1 else max(1, _log_bound(k, max_arity))
            lb_cache[bits] = got
        return got

    def compositions(total: int, bounds: list[tuple[int, int]]) -> Iterator[tuple[int, ...]]:
        # lexicographic allocations of `total` across children within bounds
        if not bounds:
            if total == 0:
                yield ()
            return
        lo, hi = bounds[0]
        rest = bounds[1:]
        rest_lo = sum(b[0] for b in rest)
        rest_hi = sum(b[1] for b in rest)
        for b0 in range(max(lo, total - rest_hi), min(hi, total - rest_lo) + 1):
            for tail in compositions(total - b0, rest):
                yield (b0,) + tail

    def subtrees(bits: int, usable: int, size: int) -> Iterator[Node]:
        sole = r.sole_class(bits)
        if sole is not None:
            if size == 0:
                yield Leaf(sole)
            return
        if size == 0:
            return
        for f in _iter_bits(usable):
            kid_bits = [bits & m for m in r.value_mask[f]]
            nonempty = [v for v, kb in enumerate(kid_bits) if kb]
            if len(nonempty) < 2:
                continue
            bounds = []
            feasible = True
            child_usable = usable & ~(1 << f)
            for v in nonempty:
                kb = kid_bits[v]
                lo = lower_bound(kb)
                hi = min(size - 1, kb.bit_count() - 1)
                if lo > hi:
                    feasible = False
                    break
                bounds.append((lo, hi))
            if not feasible:
                continue
            forced: dict[int, Leaf] = {}
            for v, kb in enumerate(kid_bits):
                if not kb:
                    forced[v] = Leaf(r.majority(bits))
                else:
                    sc = r.sole_class(kb)
                    if sc is not None:
                        forced[v] = Leaf(sc)
            open_children = [v for v in nonempty if v not in forced]
            open_bounds = [bounds[nonempty.index(v)] for v in open_children]
            for comp in compositions(size - 1, open_bounds):

                def assemble(i: int) -> Iterator[tuple[Node, ...]]:
                    if i == len(open_children):
                        yield ()
                        return
                    for sub in subtrees(kid_bits[open_children[i]], child_usable, comp[i]):
                        for tail in assemble(i + 1):
                            yield (sub,) + tail

                for combo in assemble(0):
                    children = []
                    it = iter(combo)
                    for v in range(len(kid_bits)):
                        children.append(forced[v] if v in forced else next(it))
                    yield Split(f, tuple(children))

    def generate() -> Iterator[Node]:
        for size in range(cap + 1):
            yield from subtrees(r.full, all_features, size)

    count = 0
    for t in generate():
        count += 1
        if limits.max_trees and count > limits.max_trees:
            raise EnumerationTruncated(limits.max_trees)
        yield t


def enumerate_consistent(
    train: Dataset,
    limits: EnumerationLimits = EnumerationLimits(),
    visitor: Callable[[Node], bool | None] = lambda t: None,
) -> int:
    """Invoke `visitor` once per consistent tree; returns the visit count.

    A visitor returning False stops the enumeration early.
    """
    count = 0
    for t in iter_consistent(train, limits):
        count += 1
        if visitor(t) is False:
            break
    return count


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
    distinct = train.distinct_instances()
    cap = distinct - 1 if limits.max_nodes is None else min(limits.max_nodes, distinct - 1)
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
        tree, correct and misclassified totals; the work is the same.
    leaf_hist: histogram of leaf counts per tree.
    path_length: total split-traversals over the population, summed over
        trees (enables mean path length per cardinality).
    path_bins: histogram bin width for per-tree average path length over
        the population; computed from the exact algebraic profile.
    """

    error_hist: bool = True
    leaf_hist: bool = False
    path_length: bool = False
    path_bins: float | None = None


@dataclass
class CardinalityBucket:
    tree_count: int = 0
    correct_count: int = 0
    misclassified_total: int = 0
    error_hist: dict[int, int] | None = None
    leaf_hist: dict[int, int] | None = None
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
    against.  Raises EnumerationTruncated past limits.max_trees.
    """
    if mode not in ("stream", "algebraic"):
        raise ValueError(f"unknown mode {mode!r}")
    if track.path_bins is not None and track.path_bins <= 0:
        raise ValueError("path_bins width must be positive")
    if (track.path_length or track.path_bins is not None) and population is None:
        raise ValueError("path-length tracking needs a population")
    if mode == "stream":
        return _summary_stream(train, test, limits, population, track)
    return _summary_algebraic(train, test, limits, population, track)


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
                leaf_hist={} if track.leaf_hist else None,
                path_tests_total=0 if track.path_length or bins is not None else None,
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
        if b.leaf_hist is not None:
            leaves = treemod.leaf_count(t)
            b.leaf_hist[leaves] = b.leaf_hist.get(leaves, 0) + 1
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


def _summary_algebraic(train, test, limits, population, track) -> ForestSummary:
    tr = _Router(train)
    if tr.n == 0:
        raise ValueError("training set is empty")
    te = _Router(test if test is not None else Dataset(train.schema, ()))
    cap = _effective_cap(limits, tr)
    npop = len(population) if population is not None else None
    alg = _CountAlgebra(
        cap, te.grand_total, max(tr.arities), track, track.error_hist and test is not None, npop
    )
    # the population is a label-0 multiset, routed like the training set
    pop = (
        _Router(Dataset(train.schema, tuple(LabeledExample(inst, 0) for inst in population)))
        if alg.use_path
        else None
    )
    buckets, bins = alg.tables(_solve(alg, tr, te, pop, cap))
    summary = ForestSummary(
        buckets=buckets,
        test_weight=te.grand_total,
        population_size=npop,
        path_bin_width=track.path_bins,
        path_bins=bins,
    )
    if limits.max_trees and summary.total_trees > limits.max_trees:
        raise EnumerationTruncated(limits.max_trees)
    return summary


def _solve(alg, tr: _Router, te: _Router, pop: _Router | None, cap: int):
    """Profile, in algebra `alg`, of every consistent tree within `cap` splits.

    One memoized recursion over (train, test, population, usable-feature)
    bitsets; `pop` is None when no population is tracked, which keeps its
    masks out of the per-split loop.  Each split multiplies its open
    children's profiles (`alg.mul`) and is attached with its closed leaves'
    misclassified test weight, leaf count and path tests (`alg.attach`).
    """
    sole = tr.sole_class(tr.full)
    if sole is not None:
        return alg.leaf(te.wrong_weight(te.full, sole))
    memo: dict[tuple[int, int, int, int], object] = {}

    def solve(tr_bits: int, te_bits: int, pop_bits: int, usable: int):
        key = (tr_bits, te_bits, pop_bits, usable)
        got = memo.get(key)
        if got is not None:
            return got
        out = alg.zero()
        max_b = min(cap, tr_bits.bit_count() - 1)
        path = pop.weight(pop_bits) if pop is not None else 0
        for f in _iter_bits(usable):
            tr_kids = [tr_bits & m for m in tr.value_mask[f]]
            nonempty = [v for v, kb in enumerate(tr_kids) if kb]
            if len(nonempty) < 2:
                continue
            te_kids = [te_bits & m for m in te.value_mask[f]]
            pop_kids = [pop_bits & m for m in pop.value_mask[f]] if pop is not None else None
            child_usable = usable & ~(1 << f)
            misc = leaves = 0
            maj = None
            acc = None
            for v, kb in enumerate(tr_kids):
                if not kb:
                    if te_kids[v]:
                        if maj is None:
                            maj = tr.majority(tr_bits)
                        misc += te.wrong_weight(te_kids[v], maj)
                    leaves += 1
                    continue
                sole = tr.sole_class(kb)
                if sole is not None:
                    misc += te.wrong_weight(te_kids[v], sole)
                    leaves += 1
                    continue
                part = solve(kb, te_kids[v], pop_kids[v] if pop is not None else 0, child_usable)
                acc = part if acc is None else alg.mul(acc, part)
            out = alg.attach(out, acc, max_b, misc, leaves, path)
        memo[key] = out
        return out

    all_features = (1 << len(tr.arities)) - 1
    return solve(tr.full, te.full, pop.full if pop is not None else 0, all_features)


# Algebras.  zero() is the profile of no trees and leaf(misc) that of the
# lone leaf; mul(a, b) combines independent children (never mutating
# either); attach(out, acc, max_b, misc, leaves, path) adds to `out` the
# trees of one split whose open children multiplied to `acc` (None when
# every child is a closed leaf), one split deeper, within `max_b` splits;
# tables(profile) gives the summary's buckets and path bins.  Two algebras:
# `_CountAlgebra` counts trees exactly in Python ints, `_MinSizeAlgebra`
# is min-plus.


class _CountAlgebra:
    """Exact tree counts keyed on a packed int: a dict key -> tree count.

    A key packs disjoint bit fields, from the top down: splits,
    misclassified test weight, then leaf count and path-test total, each of
    the last two only when tracked.  Below the splits every field is wide
    enough for any tree within the cap: misc <= test weight, leaves <=
    (cap+1) * max arity, path tests <= (cap+1) * population size.  So
    adding the keys of parts of a tree within the cap never carries from
    one field into the next, and a key of more splits than the cap stays
    at or above (cap+1) << split_shift whatever carries below; "within
    budget b" is just `key < (b+1) << split_shift`.
    """

    def __init__(
        self,
        cap: int,
        test_weight: int,
        max_arity: int,
        track: TrackOptions,
        error_hist: bool,
        npop: int | None,
    ):
        self.error_hist = error_hist
        self.use_leaves = track.leaf_hist
        self.use_path = track.path_length or track.path_bins is not None
        self.width = track.path_bins
        self.npop = npop
        path_bits = ((cap + 1) * npop).bit_length() if self.use_path else 0
        leaf_bits = ((cap + 1) * max_arity).bit_length() if self.use_leaves else 0
        self.leaf_shift = path_bits
        self.misc_shift = path_bits + leaf_bits
        self.split_shift = self.misc_shift + test_weight.bit_length()
        self.path_mask = (1 << path_bits) - 1
        self.leaf_mask = (1 << leaf_bits) - 1
        self.misc_mask = (1 << test_weight.bit_length()) - 1
        # a split's open children together hold at most cap - 1 splits
        self.child_limit = cap << self.split_shift

    def key(self, splits: int, misc: int, leaves: int, path: int) -> int:
        key = (splits << self.split_shift) + (misc << self.misc_shift)
        if self.use_leaves:
            key += leaves << self.leaf_shift
        if self.use_path:
            key += path
        return key

    def zero(self) -> dict[int, int]:
        return {}

    def leaf(self, misc: int) -> dict[int, int]:
        return {self.key(0, misc, 1, 0): 1}

    def mul(self, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
        limit = self.child_limit
        out: dict[int, int] = {}
        get = out.get
        items = b.items()
        for k1, c1 in a.items():
            room = limit - k1
            for k2, c2 in items:
                if k2 < room:
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
        return out

    def attach(self, out, acc, max_b, misc, leaves, path) -> dict[int, int]:
        base = self.key(1, misc, leaves, path)
        if acc is None:
            if max_b >= 1:
                out[base] = out.get(base, 0) + 1
            return out
        limit = max_b << self.split_shift
        get = out.get
        for k, c in acc.items():
            if k < limit:
                k += base
                out[k] = get(k, 0) + c
        return out

    def tables(self, profile: dict[int, int]):
        buckets: dict[int, CardinalityBucket] = {}
        bins: dict[int, list[int]] | None = {} if self.width is not None else None
        for k, cnt in sorted(profile.items()):
            c = k >> self.split_shift
            b = buckets.get(c)
            if b is None:
                b = buckets[c] = CardinalityBucket(
                    error_hist={} if self.error_hist else None,
                    leaf_hist={} if self.use_leaves else None,
                    path_tests_total=0 if self.use_path else None,
                )
            misc = (k >> self.misc_shift) & self.misc_mask
            b.tree_count += cnt
            b.misclassified_total += misc * cnt
            if misc == 0:
                b.correct_count += cnt
            if b.error_hist is not None:
                b.error_hist[misc] = b.error_hist.get(misc, 0) + cnt
            if self.use_leaves:
                leaves = (k >> self.leaf_shift) & self.leaf_mask
                b.leaf_hist[leaves] = b.leaf_hist.get(leaves, 0) + cnt
            if self.use_path:
                path = k & self.path_mask
                b.path_tests_total += path * cnt
                if bins is not None:
                    slot = bins.setdefault(_path_bin(path, self.npop, self.width), [0, 0])
                    slot[0] += cnt
                    slot[1] += misc * cnt
        return buckets, bins


class _MinSizeAlgebra:
    """Min-plus: the fewest splits of any consistent tree, inf when none."""

    def zero(self):
        return math.inf

    def leaf(self, misc: int) -> int:
        return 0

    def mul(self, a, b):
        return a + b

    def attach(self, out, acc, max_b, misc, leaves, path):
        size = 1 if acc is None else 1 + acc
        return min(out, size) if size <= max_b else out


# ------------------------------------------------------------- min size

def min_consistent_size(train: Dataset, max_nodes: int | None = None) -> int | None:
    """Smallest split budget admitting a consistent tree, in one min-plus pass.

    Returns None when no consistent tree exists within the cap (including
    the infeasible-data case, where none exists at any size).
    """
    r = _Router(train)
    if r.n == 0:
        raise ValueError("training set is empty")
    hard = r.n - 1
    cap = hard if max_nodes is None else min(max_nodes, hard)
    size = _solve(_MinSizeAlgebra(), r, _Router(Dataset(train.schema, ())), None, cap)
    return size if size <= cap else None
