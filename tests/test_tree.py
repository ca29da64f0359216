"""Tree representation: classification, structure rules, text form, metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestscope import (
    Dataset,
    FeatureSchema,
    LabeledExample,
    Leaf,
    Split,
    TreeFormatError,
    binary_schema,
    check_structure,
    classify,
    depth,
    format_tree,
    instance_space,
    is_consistent,
    leaf_count,
    leaf_partition,
    majority_label,
    metrics,
    node_count,
    parse_tree,
)
from forestscope.tree import misclassified, path_tests

from conftest import table_dataset


SCHEMA3 = FeatureSchema(
    features=(("size", ("s", "m", "l")), ("hot", ("n", "y"))), classes=("a", "b")
)


def test_classify_routes_by_value_index():
    t = Split(0, (Leaf(0), Leaf(1), Split(1, (Leaf(1), Leaf(0)))))
    assert classify(t, (0, 0)) == 0
    assert classify(t, (1, 1)) == 1
    assert classify(t, (2, 0)) == 1
    assert classify(t, (2, 1)) == 0


def test_counts_and_depth():
    t = Split(0, (Leaf(0), Leaf(1), Split(1, (Leaf(1), Leaf(0)))))
    assert node_count(t) == 2
    assert leaf_count(t) == 4
    assert depth(t) == 2
    assert node_count(Leaf(1)) == 0
    assert leaf_count(Leaf(1)) == 1
    assert depth(Leaf(1)) == 0


def test_split_arity_must_match_schema_on_parse():
    with pytest.raises(TreeFormatError):
        parse_tree("(size 0:[a] 1:[b])", SCHEMA3)  # size has three values


def test_majority_label_breaks_ties_low():
    exs = [LabeledExample((0,), 1), LabeledExample((0,), 0)]
    assert majority_label(exs, 2) == 0
    assert majority_label([LabeledExample((0,), 1)] * 2 + [LabeledExample((0,), 0)], 2) == 1
    with pytest.raises(ValueError):
        majority_label([], 3)


def test_check_structure_accepts_lean_tree(xor2):
    t = Split(0, (Split(1, (Leaf(0), Leaf(1))), Split(1, (Leaf(1), Leaf(0)))))
    assert check_structure(t, xor2) is None
    assert is_consistent(t, xor2)


def test_check_structure_flags_single_branch():
    schema = binary_schema(["p", "q"])
    data = Dataset(
        schema,
        (LabeledExample((0, 0), 0), LabeledExample((0, 1), 1)),
    )
    # every example has p=0, so testing p sends all of them one way
    t = Split(0, (Split(1, (Leaf(0), Leaf(1))), Leaf(0)))
    v = check_structure(t, data)
    assert v is not None and v.kind == "single_branch" and v.path == ()


def test_check_structure_flags_split_below_pure_set(and3):
    # left branch of f0 is all-zero already; further testing is flagged
    t = Split(0, (Split(1, (Leaf(0), Leaf(0))), Split(1, (Leaf(0), Leaf(1)))))
    v = check_structure(t, and3)
    assert v is not None and v.kind == "needless_split" and v.path == (0,)


def test_check_structure_flags_repeated_feature_on_path():
    schema = binary_schema(["p", "q"])
    data = table_dataset(schema, [0, 1, 1, 0])
    t = Split(0, (Split(0, (Leaf(0), Leaf(1))), Leaf(0)))
    assert check_structure(t, data) is not None


def test_is_consistent_checks_training_rows_only(xor2):
    wrong = Split(0, (Leaf(0), Leaf(1)))
    assert not is_consistent(wrong, xor2)
    exact = Split(0, (Split(1, (Leaf(0), Leaf(1))), Split(1, (Leaf(1), Leaf(0)))))
    assert is_consistent(exact, xor2)


def test_leaf_partition_covers_examples(xor2):
    t = Split(0, (Split(1, (Leaf(0), Leaf(1))), Split(1, (Leaf(1), Leaf(0)))))
    parts = leaf_partition(t, xor2)
    assert len(parts) == 4
    assert sorted(i for p in parts for i in p) == [0, 1, 2, 3]


def test_format_is_parseable_and_stable():
    t = Split(0, (Leaf(0), Leaf(1), Split(1, (Leaf(1), Leaf(0)))))
    txt = format_tree(t, SCHEMA3)
    assert txt == "(size s:[a] m:[b] l:(hot n:[b] y:[a]))"
    assert parse_tree(txt, SCHEMA3) == t


def test_parse_rejects_malformed_text():
    for bad in ("", "(size", "(size 0:[a] 1:[b] 2:[zzz])", "(nope 0:[a] 1:[b])", "[a] extra"):
        with pytest.raises(TreeFormatError):
            parse_tree(bad, SCHEMA3)


def test_metrics_path_length_and_error():
    schema = binary_schema(["p", "q"])
    t = Split(0, (Leaf(0), Split(1, (Leaf(0), Leaf(1)))))
    test_set = Dataset(
        schema, (LabeledExample((1, 1), 1), LabeledExample((0, 0), 1))
    )
    m = metrics(t, list(instance_space(schema)), test_set)
    assert m.node_cardinality == 2
    assert m.leaf_cardinality == 3
    assert m.avg_path_length == pytest.approx(1.5)
    assert m.error_rate == pytest.approx(0.5)


def test_path_tests_and_misclassified_count_every_row():
    t = Split(0, (Leaf(0), Split(1, (Leaf(0), Leaf(1)))))
    # (1, 1) passes both splits, (0, 1) only the root; a duplicate counts again
    assert path_tests(t, [(1, 1), (0, 1), (1, 1)]) == 5
    wrong = LabeledExample((1, 1), 0)
    assert misclassified(t, [wrong, LabeledExample((0, 0), 0), wrong]) == 2
    assert path_tests(Leaf(1), [(1, 1), (0, 1)]) == 0
    assert misclassified(Leaf(1), [wrong, wrong]) == 2
    assert path_tests(t, []) == misclassified(t, []) == 0


def _random_tree(rng_draw, schema, features_left, size_left):
    if not features_left or size_left <= 0 or rng_draw(3) == 0:
        return Leaf(rng_draw(len(schema.classes)))
    f = features_left[rng_draw(len(features_left))]
    rest = tuple(x for x in features_left if x != f)
    arity = len(schema.values(f))
    kids = tuple(
        _random_tree(rng_draw, schema, rest, size_left - 1) for _ in range(arity)
    )
    return Split(f, kids)


@pytest.mark.property_based
@given(st.integers(0, 2**32))
@settings(max_examples=100)
def test_format_parse_round_trip(seed):
    from forestscope.rng import SplitMix64

    r = SplitMix64(seed)
    t = _random_tree(r.below, SCHEMA3, (0, 1), 3)
    assert parse_tree(format_tree(t, SCHEMA3), SCHEMA3) == t


def _text_tokens(node, schema):
    """The tokens of a tree's text form, built from the tree itself."""
    if isinstance(node, Leaf):
        return ["[", schema.classes[node.label], "]"]
    tokens = ["(", schema.feature_name(node.feature)]
    for value, child in zip(schema.values(node.feature), node.children):
        tokens += [value, ":", *_text_tokens(child, schema)]
    return tokens + [")"]


# ASCII and Unicode whitespace, the separators included
_SPACE = st.sampled_from(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000")


@pytest.mark.property_based
@given(st.integers(0, 2**32), st.data())
@settings(max_examples=100)
def test_parse_ignores_whitespace_between_tokens(seed, data):
    from forestscope.rng import SplitMix64

    r = SplitMix64(seed)
    t = _random_tree(r.below, SCHEMA3, (0, 1), 3)
    tokens = _text_tokens(t, SCHEMA3)
    text = ""
    for before, tok in zip([None, *tokens], tokens):
        # two atoms in a row need whitespace between them
        atoms = before is not None and {before, tok}.isdisjoint("()[]:")
        text += data.draw(st.text(_SPACE, min_size=int(atoms), max_size=3)) + tok
    text += data.draw(st.text(_SPACE, max_size=3))
    assert parse_tree(text, SCHEMA3) == t


@pytest.mark.property_based
@given(st.integers(0, 2**32))
@settings(max_examples=100)
def test_classify_agrees_with_leaf_partition(seed):
    from forestscope.rng import SplitMix64

    r = SplitMix64(seed)
    t = _random_tree(r.below, SCHEMA3, (0, 1), 3)
    rows = list(instance_space(SCHEMA3))
    data = Dataset(
        SCHEMA3, tuple(LabeledExample(x, classify(t, x)) for x in rows)
    )
    parts = leaf_partition(t, data)
    assert sorted(i for p in parts for i in p) == list(range(len(rows)))
    assert is_consistent(t, data)
