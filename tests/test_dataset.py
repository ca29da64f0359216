"""Schema, parsing, concepts, and the three sampling protocols."""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forestscope import (
    Dataset,
    DatasetFormatError,
    FeatureSchema,
    InconsistentDataError,
    LabeledExample,
    SchemaError,
    apply_concept,
    binary_schema,
    bundled_dataset,
    format_dataset,
    get_concept,
    instance_space,
    leaf_coverage_sample,
    list_concepts,
    parse_dataset,
    representative_filter,
    sample_with_replacement,
    split_disjoint,
)
from forestscope.dataset import DatasetError, _subset
from forestscope.rng import SplitMix64

from conftest import table_dataset


SAMPLE = """\
color=red|green|blue,size=small|big,class=no|yes
red,small,no
green,big,yes
blue,small,yes
"""


def test_parse_and_format_round_trip():
    data = parse_dataset(SAMPLE)
    assert len(data.examples) == 3
    assert data.schema.features[0] == ("color", ("red", "green", "blue"))
    assert data.schema.classes == ("no", "yes")
    assert data.examples[1] == LabeledExample((1, 1), 1)
    assert format_dataset(data) == SAMPLE


def test_parse_skips_blanks_and_comments():
    text = "a=0|1,class=n|y\n\n# comment\n0,y\n1,n\n"
    data = parse_dataset(text)
    assert [ex.label for ex in data.examples] == [1, 0]


def test_parse_errors_carry_line_numbers():
    with pytest.raises(DatasetFormatError) as e:
        parse_dataset("a=0|1,class=n|y\n0,maybe\n")
    assert e.value.line_no == 2
    with pytest.raises(DatasetFormatError):
        parse_dataset("a=0|1\n")  # class cell missing
    with pytest.raises(DatasetFormatError):
        parse_dataset("")


def test_duplicate_instance_same_label_allowed_conflict_rejected():
    ok = "a=0|1,class=n|y\n0,y\n0,y\n"
    assert len(parse_dataset(ok).examples) == 2
    with pytest.raises(InconsistentDataError):
        parse_dataset("a=0|1,class=n|y\n0,y\n0,n\n")


def test_schema_validation():
    with pytest.raises(SchemaError):
        FeatureSchema(features=(), classes=("a", "b"))
    with pytest.raises(SchemaError):
        FeatureSchema(features=(("f", ("x",)),), classes=("a", "b"))
    with pytest.raises(SchemaError):
        FeatureSchema(features=(("f", ("x", "y")),), classes=("a",))
    with pytest.raises(SchemaError):
        FeatureSchema(features=(("f", ("x", "y")), ("f", ("x", "y"))), classes=("a", "b"))


def test_dataset_validates_rows():
    schema = binary_schema(["p", "q"])
    with pytest.raises(SchemaError):
        Dataset(schema, (LabeledExample((0,), 0),))
    with pytest.raises(SchemaError):
        Dataset(schema, (LabeledExample((0, 2), 0),))
    with pytest.raises(SchemaError):
        Dataset(schema, (LabeledExample((0, 0), 5),))


def test_out_of_range_rows_raise_their_schema_error():
    schema = binary_schema(["p", "q"])
    with pytest.raises(SchemaError, match=r"^instance \(0,\) has wrong width$"):
        Dataset(schema, (LabeledExample((0, 1), 0), LabeledExample((0,), 0)))
    with pytest.raises(SchemaError, match="^value index 2 out of range for feature 1$"):
        Dataset(schema, (LabeledExample((0, 1), 0), LabeledExample((0, 2), 0)))
    with pytest.raises(SchemaError, match="^label 5 out of range$"):
        Dataset(schema, (LabeledExample((0, 0), 5),))


def _subset_sources():
    mux = apply_concept(get_concept("mux6"))
    rows = mux.examples
    flipped = tuple(LabeledExample(ex.instance, 1 - ex.label) for ex in rows[3:40:9])
    return {
        "distinct": mux,
        # each of 40 rows two or three times, never adjacent
        "duplicates": Dataset(mux.schema, tuple(rows[(i * 7) % 40] for i in range(100))),
        "conflict": Dataset(mux.schema, rows[:50] + flipped + rows[50:]),
    }


_SUBSET_SOURCES = _subset_sources()


@pytest.mark.property_based
@given(st.sampled_from(sorted(_SUBSET_SOURCES)), st.lists(st.integers(0, 2**20), max_size=80))
@settings(max_examples=300)
def test_subset_equals_the_dataset_built_from_its_rows(kind, picks):
    source = _SUBSET_SOURCES[kind]
    idx = [i % len(source) for i in picks]
    got = _subset(source, idx)
    want = Dataset(source.schema, tuple(source.examples[i] for i in idx))
    assert got == want
    assert type(got.runs) is type(want.runs)
    assert list(got.runs.items()) == list(want.runs.items())
    assert pickle.dumps(got) == pickle.dumps(want)


def _bad_row(schema, r):
    inst = [r.below(a) for a in schema.arities]
    label = r.below(schema.n_classes)
    kind = r.below(3)
    if kind == 0:  # one value too many or too few
        inst = inst + [0] if r.below(2) else inst[:-1]
    elif kind == 1:
        f = r.below(len(inst))
        inst[f] = -1 if r.below(2) else schema.arities[f] + r.below(2)
    else:
        label = -1 if r.below(2) else schema.n_classes + r.below(2)
    return LabeledExample(tuple(inst), label)


@pytest.mark.property_based
@given(st.integers(0, 2**32))
@settings(max_examples=200)
def test_dataset_raises_the_error_of_the_first_bad_row(seed):
    # validation checks each distinct row once; the error must still be the
    # one a row-by-row pass raises first
    schema = bundled_dataset("lenses").schema
    space = list(instance_space(schema))
    r = SplitMix64(seed)
    rows = []
    for _ in range(r.below(12)):
        rows += [LabeledExample(space[r.below(len(space))], r.below(3))] * (1 + r.below(3))
    first, second = _bad_row(schema, r), _bad_row(schema, r)
    at = r.below(len(rows) + 1)
    rows.insert(at, first)
    for _ in range(r.below(3)):
        rows.insert(at + 1 + r.below(len(rows) - at), first)
    rows.insert(at + 1 + r.below(len(rows) - at), second)

    def first_error():
        for ex in rows:
            if len(ex.instance) != len(schema.arities):
                return f"instance {ex.instance} has wrong width"
            for f, v in enumerate(ex.instance):
                if not 0 <= v < schema.arities[f]:
                    return f"value index {v} out of range for feature {f}"
            if not 0 <= ex.label < schema.n_classes:
                return f"label {ex.label} out of range"

    want = first_error()
    assert want is not None
    with pytest.raises(SchemaError) as got:
        Dataset(schema, tuple(rows))
    assert str(got.value) == want


def test_instance_space_order_and_size():
    schema = FeatureSchema(
        features=(("f", ("a", "b", "c")), ("g", ("x", "y"))), classes=("n", "p")
    )
    rows = list(instance_space(schema))
    assert rows == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]


def test_concepts_label_their_space():
    assert list_concepts() == ["a", "ab", "mux6", "parity5", "xyz-or-ab"]
    data = apply_concept(get_concept("xyz-or-ab"))
    assert len(data.examples) == 32
    want = {x: int((x[0] and x[1] and x[2]) or (x[3] and x[4])) for x in instance_space(data.schema)}
    assert all(want[ex.instance] == ex.label for ex in data.examples)
    mux = apply_concept(get_concept("mux6"))
    # address bits pick the addressed data line
    for ex in mux.examples:
        k = 2 * ex.instance[0] + ex.instance[1]
        assert ex.label == ex.instance[2 + (3 - k)]
    with pytest.raises(SchemaError):
        get_concept("nope")


def test_bundled_lenses():
    data = bundled_dataset("lenses")
    assert len(data.examples) == 24
    assert len(data.schema.features) == 4
    assert data.schema.classes == ("hard", "soft", "none")
    with pytest.raises(DatasetError):
        bundled_dataset("missing")


def test_split_disjoint_partitions():
    data = apply_concept(get_concept("a"))
    train, test = split_disjoint(data, 20, SplitMix64(42))
    assert len(train.examples) == 20 and len(test.examples) == 12
    seen = sorted(ex.instance for ex in train.examples + test.examples)
    assert seen == sorted(ex.instance for ex in data.examples)
    with pytest.raises(ValueError):
        split_disjoint(data, 32, SplitMix64(0))


def test_leaf_coverage_sample_refuses_one_row_short():
    # leaves reaching 2, 1 and 3 rows, covered twice each, demand 2 + 1 + 2 rows
    data = apply_concept(get_concept("a"))
    leaves = ((0, 1), (2,), (3, 4, 5))
    with pytest.raises(ValueError, match="needs 5 examples but n_train is 4"):
        leaf_coverage_sample(data, leaves, 2, 4, SplitMix64(3))
    train, test = leaf_coverage_sample(data, leaves, 2, 5, SplitMix64(3))
    assert len(train.examples) == 5 and len(test.examples) == 27


@pytest.mark.property_based
@given(st.integers(0, 2**32), st.integers(1, 31))
@settings(max_examples=100)
def test_split_disjoint_is_a_partition(seed, n_train):
    data = apply_concept(get_concept("parity5"))
    train, test = split_disjoint(data, n_train, SplitMix64(seed))
    assert len(train.examples) == n_train
    assert len(test.examples) == 32 - n_train
    both = sorted((ex.instance, ex.label) for ex in train.examples + test.examples)
    assert both == sorted((ex.instance, ex.label) for ex in data.examples)


def test_sample_with_replacement_shape_and_membership():
    data = apply_concept(get_concept("ab"))
    got = sample_with_replacement(data, 50, SplitMix64(7))
    assert len(got.examples) == 50
    pool = set(data.examples)
    assert all(ex in pool for ex in got.examples)


def test_representative_filter_bounds():
    schema = binary_schema(["u", "v"])
    data = table_dataset(schema, [0, 1, 1, 1])
    # class 1 appears 3 times: inside [1,3], outside [1,2]
    assert representative_filter(data, class_bounds={1: (1, 3)}) is None
    v = representative_filter(data, class_bounds={1: (1, 2)})
    assert v is not None and v.kind == "class" and v.count == 3
    # feature u takes value 1 twice
    assert representative_filter(data, value_bounds={(0, 1): (2, 2)}) is None
    v = representative_filter(data, value_bounds={(0, 1): (0, 1)})
    assert v is not None and v.kind == "value" and v.key == (0, 1)


@pytest.mark.property_based
@given(st.integers(0, 2**32))
@settings(max_examples=100)
def test_representative_filter_order_invariant(seed):
    data = apply_concept(get_concept("xyz-or-ab"))
    train, _ = split_disjoint(data, 20, SplitMix64(seed))
    bounds = dict(class_bounds={1: (5, 8)}, value_bounds={(0, 1): (7, 13)})
    verdict = representative_filter(train, **bounds)
    flipped = Dataset(train.schema, tuple(reversed(train.examples)))
    flipped_verdict = representative_filter(flipped, **bounds)
    assert (verdict is None) == (flipped_verdict is None)
