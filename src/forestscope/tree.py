"""Decision trees over discrete features.

A tree is either a Leaf carrying a class index or a Split carrying a feature
index and one child per feature value.  Trees are immutable; identity is
structural.  Node cardinality counts Split nodes only.

Two structural rules tie a tree to the training multiset that grew it:
every split must route its incoming examples into at least two children,
and no split may sit on a pure or empty example multiset (it would decide
nothing).  `check_structure` reports the first violation in depth-first
order.  Consistency means zero errors on the training multiset.

The text form is `(feature v1:child v2:child ...)` for splits, `[label]`
for leaves.  Reading ignores whitespace between tokens; writing produces
the canonical single-space form, which is also the sort key used whenever
trees need a deterministic order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .dataset import Dataset, FeatureSchema, Instance, LabeledExample, SchemaError


@dataclass(frozen=True)
class Leaf:
    label: int


@dataclass(frozen=True)
class Split:
    feature: int
    children: tuple["Node", ...]


Node = Leaf | Split


class TreeFormatError(Exception):
    pass


def classify(node: Node, instance: Instance) -> int:
    while isinstance(node, Split):
        node = node.children[instance[node.feature]]
    return node.label


def node_count(node: Node) -> int:
    if isinstance(node, Leaf):
        return 0
    return 1 + sum(node_count(c) for c in node.children)


def leaf_count(node: Node) -> int:
    if isinstance(node, Leaf):
        return 1
    return sum(leaf_count(c) for c in node.children)


def depth(node: Node) -> int:
    if isinstance(node, Leaf):
        return 0
    return 1 + max(depth(c) for c in node.children)


def majority_label(examples: Sequence[LabeledExample], n_classes: int) -> int:
    """Most frequent label, ties broken by smallest class index."""
    if not examples:
        raise ValueError("majority of an empty multiset is undefined")
    counts = [0] * n_classes
    for ex in examples:
        counts[ex.label] += 1
    best = 0
    for c in range(1, n_classes):
        if counts[c] > counts[best]:
            best = c
    return best


def leaf_partition(node: Node, data: Dataset) -> list[list[int]]:
    """Example indices reaching each leaf, leaves in depth-first order."""
    groups: list[list[int]] = []

    def walk(n: Node, idx: list[int]) -> None:
        if isinstance(n, Leaf):
            groups.append(idx)
            return
        buckets: list[list[int]] = [[] for _ in n.children]
        for i in idx:
            buckets[data.examples[i].instance[n.feature]].append(i)
        for child, bucket in zip(n.children, buckets):
            walk(child, bucket)

    walk(node, list(range(len(data.examples))))
    return groups


@dataclass(frozen=True)
class TreeMetrics:
    node_cardinality: int
    leaf_cardinality: int
    avg_path_length: float
    error_rate: float


def metrics(node: Node, path_population: Sequence[Instance], test_set: Dataset) -> TreeMetrics:
    """Size, average tests-per-instance over a population, and test error.

    The population and the test multiset must both be nonempty; duplicates
    in either count individually.
    """
    if not path_population:
        raise ValueError("path population is empty")
    if not test_set.examples:
        raise ValueError("test set is empty")
    total_tests = 0
    for inst in path_population:
        n = node
        while isinstance(n, Split):
            total_tests += 1
            n = n.children[inst[n.feature]]
    wrong = sum(1 for ex in test_set.examples if classify(node, ex.instance) != ex.label)
    return TreeMetrics(
        node_cardinality=node_count(node),
        leaf_cardinality=leaf_count(node),
        avg_path_length=total_tests / len(path_population),
        error_rate=wrong / len(test_set.examples),
    )


def is_consistent(node: Node, train: Dataset) -> bool:
    return all(classify(node, ex.instance) == ex.label for ex in train.examples)


@dataclass(frozen=True)
class StructureViolation:
    kind: str  # 'single_branch' | 'needless_split'
    path: tuple[int, ...]  # child value indices from the root to the split


def check_structure(node: Node, train: Dataset) -> StructureViolation | None:
    """First structural violation in depth-first order, or None.

    single_branch: a split routed every incoming example into one child.
    needless_split: a split placed on a pure or empty example multiset.
    """

    def walk(n: Node, examples: list[LabeledExample], path: tuple[int, ...]):
        if isinstance(n, Leaf):
            return None
        labels = {ex.label for ex in examples}
        if len(labels) <= 1:
            return StructureViolation("needless_split", path)
        buckets: list[list[LabeledExample]] = [[] for _ in n.children]
        for ex in examples:
            buckets[ex.instance[n.feature]].append(ex)
        if sum(1 for b in buckets if b) < 2:
            return StructureViolation("single_branch", path)
        for v, (child, bucket) in enumerate(zip(n.children, buckets)):
            found = walk(child, bucket, path + (v,))
            if found is not None:
                return found
        return None

    return walk(node, list(train.examples), ())


# ------------------------------------------------------------- text form

def format_tree(node: Node, schema: FeatureSchema) -> str:
    if isinstance(node, Leaf):
        return f"[{schema.classes[node.label]}]"
    name = schema.feature_name(node.feature)
    parts = [
        f"{schema.values(node.feature)[v]}:{format_tree(child, schema)}"
        for v, child in enumerate(node.children)
    ]
    return f"({name} {' '.join(parts)})"


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    atom: list[str] = []
    for ch in text:
        if ch in "()[]:" or ch.isspace():
            if atom:
                tokens.append("".join(atom))
                atom = []
            if not ch.isspace():
                tokens.append(ch)
        else:
            atom.append(ch)
    if atom:
        tokens.append("".join(atom))
    return tokens


def parse_tree(text: str, schema: FeatureSchema) -> Node:
    """Inverse of format_tree; whitespace between tokens is ignored.

    Children must appear once per value, in the schema's declared order.
    """
    tokens = _tokenize(text)
    pos = 0

    def expect(tok: str) -> None:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != tok:
            found = tokens[pos] if pos < len(tokens) else "end of input"
            raise TreeFormatError(f"expected {tok!r}, found {found!r}")
        pos += 1

    def take_atom(what: str) -> str:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] in "()[]:":
            found = tokens[pos] if pos < len(tokens) else "end of input"
            raise TreeFormatError(f"expected {what}, found {found!r}")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_node() -> Node:
        nonlocal pos
        if pos >= len(tokens):
            raise TreeFormatError("unexpected end of input")
        if tokens[pos] == "[":
            expect("[")
            tok = take_atom("class token")
            expect("]")
            try:
                return Leaf(label=schema.classes.index(tok))
            except ValueError:
                raise TreeFormatError(f"unknown class token {tok!r}") from None
        expect("(")
        name = take_atom("feature name")
        try:
            feature = schema.feature_index(name)
        except SchemaError:
            raise TreeFormatError(f"unknown feature {name!r}") from None
        children = []
        for v, value_token in enumerate(schema.values(feature)):
            tok = take_atom("value token")
            if tok != value_token:
                raise TreeFormatError(
                    f"expected value {value_token!r} of {name!r} in declared order, "
                    f"found {tok!r}"
                )
            expect(":")
            children.append(parse_node())
        expect(")")
        return Split(feature=feature, children=tuple(children))

    node = parse_node()
    if pos != len(tokens):
        raise TreeFormatError(f"trailing input starting at {tokens[pos]!r}")
    return node
