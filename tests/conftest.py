"""Shared fixtures and builders for the test suite."""

import pytest

from forestscope import (
    Dataset,
    FeatureSchema,
    LabeledExample,
    binary_schema,
    instance_space,
)
from forestscope.rng import SplitMix64


def table_dataset(schema: FeatureSchema, labels) -> Dataset:
    """Dataset labeling the schema's full instance space, in space order."""
    rows = list(instance_space(schema))
    assert len(labels) == len(rows)
    return Dataset(schema, tuple(LabeledExample(r, l) for r, l in zip(rows, labels)))


def subset_dataset(schema: FeatureSchema, pairs) -> Dataset:
    """Dataset from explicit (instance, label) pairs."""
    return Dataset(schema, tuple(LabeledExample(tuple(i), l) for i, l in pairs))


@pytest.fixture
def schema2():
    return binary_schema(["f0", "f1"])


@pytest.fixture
def schema3():
    return binary_schema(["f0", "f1", "f2"])


@pytest.fixture
def xor2(schema2):
    # 2-feature parity: no 1-node tree fits, exactly solvable at 3 nodes
    return table_dataset(schema2, [0, 1, 1, 0])


@pytest.fixture
def and3(schema3):
    return table_dataset(schema3, [int(a and b) for a in (0, 1) for b in (0, 1) for _ in (0, 1)])


def shuttle_stand_in() -> Dataset:
    """A seeded stand-in for the shuttle data that fig15 reads from a file.

    Its shape is that of the real file: 277 rows over 4 binary and 2
    four-valued features, so each of the 256 instances once plus 21
    repeated rows, shuffled; 2 classes, labelled by a concept whose
    smallest consistent tree has 7 splits.
    """
    schema = FeatureSchema(
        features=(
            ("stability", ("stab", "xstab")),
            ("error", ("xl", "lx")),
            ("sign", ("pp", "nn")),
            ("wind", ("head", "tail")),
            ("magnitude", ("low", "medium", "strong", "outofrange")),
            ("visibility", ("no", "yes", "poor", "good")),
        ),
        classes=("noauto", "auto"),
    )

    def label(x):
        stability, error, _sign, wind, magnitude, visibility = x
        if stability == 0:
            return int(visibility >= 2 and magnitude != 3)
        return int(error == 0 and visibility != 0 and wind == 0)

    space = list(instance_space(schema))
    r = SplitMix64(1994)
    rows = space + [space[i] for i in r.sample_indices(len(space), 21)]
    rows = [rows[i] for i in r.sample_indices(len(rows), len(rows))]
    return Dataset(schema, tuple(LabeledExample(x, label(x)) for x in rows))
