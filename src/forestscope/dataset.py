"""Discrete-feature datasets: schemas, synthetic concepts, files, sampling.

Instances are tuples of value indices (one int per feature).  A Dataset is a
schema plus a multiset of labeled examples; duplicates are allowed and count
individually everywhere.  Two examples with the same instance but different
labels make the dataset infeasible for consistent trees; that state is
detectable (`Dataset.conflict()`) but only the file loader treats it as an
error, because sampling with replacement must be able to hand back whatever
it drew.

The dataset text format is line-based UTF-8 with LF newlines and
comma-separated cells, no quoting.  Lines starting with `#` are comments.
The first data line is a header of `name=v1|v2|...` cells whose final cell
declares the classes: `class=c1|c2|...`.  Every following line is one
example: one value token per feature, then the class token, matched
byte-exactly against the header.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Sequence

from .rng import SplitMix64

MAX_SPACE = 2**63 - 1

# characters with structural meaning in the file format / tree serialization
_FORBIDDEN_IN_TOKEN = set(" \t\r\n,|=:()[]#")


class DatasetError(Exception):
    """Base for schema/data problems."""


class SchemaError(DatasetError):
    pass


class DatasetFormatError(DatasetError):
    """Malformed dataset file; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(line_no, message)  # args rebuild it when unpickled
        self.line_no = line_no
        self.message = message

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.message}"


class InconsistentDataError(DatasetError):
    """Same instance appears with two different labels."""


def _check_token(token: str, what: str) -> None:
    if not token:
        raise SchemaError(f"empty {what}")
    bad = set(token) & _FORBIDDEN_IN_TOKEN
    if bad:
        raise SchemaError(f"{what} {token!r} contains reserved character {sorted(bad)[0]!r}")


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered features with named values, plus the class tokens."""

    features: tuple[tuple[str, tuple[str, ...]], ...]
    classes: tuple[str, ...]

    def __post_init__(self):
        if not self.features:
            raise SchemaError("schema needs at least one feature")
        if len(self.classes) < 2:
            raise SchemaError("schema needs at least two classes")
        seen = set()
        for name, values in self.features:
            _check_token(name, "feature name")
            if name in seen:
                raise SchemaError(f"duplicate feature name {name!r}")
            seen.add(name)
            if len(values) < 2:
                raise SchemaError(f"feature {name!r} needs at least two values")
            if len(set(values)) != len(values):
                raise SchemaError(f"feature {name!r} has duplicate value tokens")
            for v in values:
                _check_token(v, f"value of {name!r}")
        if len(set(self.classes)) != len(self.classes):
            raise SchemaError("duplicate class tokens")
        for c in self.classes:
            _check_token(c, "class token")

    @property
    def n_features(self) -> int:
        return len(self.features)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def feature_name(self, i: int) -> str:
        return self.features[i][0]

    def values(self, i: int) -> tuple[str, ...]:
        return self.features[i][1]

    @cached_property
    def arities(self) -> tuple[int, ...]:
        return tuple(len(v) for _, v in self.features)

    def space_size(self) -> int:
        size = 1
        for a in self.arities:
            size *= a
        return size

    def feature_index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.features):
            if n == name:
                return i
        raise SchemaError(f"unknown feature {name!r}")


def binary_schema(feature_names: Sequence[str], classes: tuple[str, str] = ("neg", "pos")) -> FeatureSchema:
    return FeatureSchema(
        features=tuple((n, ("0", "1")) for n in feature_names),
        classes=tuple(classes),
    )


Instance = tuple[int, ...]


@dataclass(frozen=True)
class LabeledExample:
    instance: Instance
    label: int


@dataclass(frozen=True)
class Dataset:
    """A schema plus a multiset of labeled examples.

    Construction counts the rows once: `runs` maps each distinct
    (instance, label) pair, in first-occurrence order, to its number of
    rows.  Validation checks each pair of `runs` in that order, so the first
    error raised is the one a row-by-row pass would raise, and the bitset
    router reads its runs from the same count.  A drawn subset (`_subset`)
    gets its `runs` from its source's row keys instead of hashing its rows,
    and is not checked again.
    """

    schema: FeatureSchema
    examples: tuple[LabeledExample, ...]
    runs: dict[tuple[Instance, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "runs", Counter((ex.instance, ex.label) for ex in self.examples))
        arities = self.schema.arities
        n_classes = self.schema.n_classes
        for instance, label in self.runs:
            if len(instance) != len(arities):
                raise SchemaError(f"instance {instance} has wrong width")
            for f, v in enumerate(instance):
                if not 0 <= v < arities[f]:
                    raise SchemaError(f"value index {v} out of range for feature {f}")
            if not 0 <= label < n_classes:
                raise SchemaError(f"label {label} out of range")

    def __len__(self) -> int:
        return len(self.examples)

    @cached_property
    def _keys(self) -> list[tuple[Instance, int]]:
        """Each row's (instance, label) pair, for the subsets drawn from it."""
        return [(ex.instance, ex.label) for ex in self.examples]

    def conflict(self) -> tuple[int, int] | None:
        """Indices of the first pair of same-instance, different-label rows."""
        seen: dict[Instance, int] = {}
        for i, ex in enumerate(self.examples):
            j = seen.get(ex.instance)
            if j is None:
                seen[ex.instance] = i
            elif self.examples[j].label != ex.label:
                return (j, i)
        return None

    def distinct_instances(self) -> int:
        return len({inst for inst, _ in self.runs})

    def class_counts(self) -> list[int]:
        counts = [0] * self.schema.n_classes
        for (_, label), w in self.runs.items():
            counts[label] += w
        return counts


def instance_space(schema: FeatureSchema) -> Iterator[Instance]:
    """All instances in lexicographic order, feature 0 most significant."""
    if schema.space_size() > MAX_SPACE:
        raise SchemaError("instance space too large to enumerate")
    return itertools.product(*(range(a) for a in schema.arities))


# ---------------------------------------------------------------- concepts

@dataclass(frozen=True)
class Concept:
    """A named labeling function over a fixed schema."""

    name: str
    schema: FeatureSchema
    fn: Callable[[Instance], int]


def _xyz_or_ab(x: Instance) -> int:
    return int((x[0] and x[1] and x[2]) or (x[3] and x[4]))


def _single_a(x: Instance) -> int:
    return x[0]


def _conj_ab(x: Instance) -> int:
    return int(x[0] and x[1])


def _mux6(x: Instance) -> int:
    # a1,a0 pick one of d3..d0; u0,u1 carry no signal
    k = 2 * x[0] + x[1]
    return x[2 + (3 - k)]


def _parity5(x: Instance) -> int:
    return sum(x) % 2


_CONCEPTS: dict[str, Concept] = {}


def _register(name: str, feature_names: Sequence[str], fn: Callable[[Instance], int]) -> None:
    _CONCEPTS[name] = Concept(name=name, schema=binary_schema(feature_names), fn=fn)


_register("xyz-or-ab", ("X", "Y", "Z", "A", "B"), _xyz_or_ab)
_register("a", ("A", "B", "C", "D", "E"), _single_a)
_register("ab", ("A", "B", "C", "D", "E"), _conj_ab)
_register("mux6", ("a1", "a0", "d3", "d2", "d1", "d0", "u0", "u1"), _mux6)
_register("parity5", ("P1", "P2", "P3", "P4", "P5"), _parity5)


def list_concepts() -> list[str]:
    return sorted(_CONCEPTS)


def get_concept(name: str) -> Concept:
    try:
        return _CONCEPTS[name]
    except KeyError:
        raise SchemaError(f"unknown concept {name!r}") from None


def apply_concept(concept: Concept, schema: FeatureSchema | None = None) -> Dataset:
    """Label the full instance space of `schema` with the concept.

    The schema defaults to the concept's own; a different one must agree on
    feature count and arities (names may differ).
    """
    if schema is None:
        schema = concept.schema
    elif schema.arities != concept.schema.arities:
        raise SchemaError(
            f"schema arities {schema.arities} do not match concept {concept.name!r}"
        )
    examples = tuple(
        LabeledExample(instance=x, label=concept.fn(x)) for x in instance_space(schema)
    )
    bad = [ex for ex in examples if not 0 <= ex.label < schema.n_classes]
    if bad:
        raise SchemaError(f"concept {concept.name!r} produced out-of-range label")
    return Dataset(schema=schema, examples=examples)


# ---------------------------------------------------------------- files

def _parse_header(line: str, line_no: int) -> FeatureSchema:
    cells = line.split(",")
    if len(cells) < 2:
        raise DatasetFormatError(line_no, "header needs at least one feature and a class cell")
    parsed = []
    for cell in cells:
        if "=" not in cell:
            raise DatasetFormatError(line_no, f"header cell {cell!r} lacks '='")
        name, _, values = cell.partition("=")
        parsed.append((name, tuple(values.split("|"))))
    last_name, class_tokens = parsed[-1]
    if last_name != "class":
        raise DatasetFormatError(line_no, "final header cell must be class=...")
    try:
        return FeatureSchema(features=tuple(parsed[:-1]), classes=class_tokens)
    except SchemaError as e:
        raise DatasetFormatError(line_no, str(e)) from None


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line_no = raw.count(b"\n", 0, e.start) + 1
        raise DatasetFormatError(line_no, f"not UTF-8 text: {e.reason}") from None
    return parse_dataset(text)


def parse_dataset(text: str) -> Dataset:
    schema: FeatureSchema | None = None
    value_index: list[dict[str, int]] = []
    class_index: dict[str, int] = {}
    examples: list[LabeledExample] = []
    row_lines: list[int] = []
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r")
        if not line or line.startswith("#"):
            continue
        if schema is None:
            schema = _parse_header(line, line_no)
            value_index = [
                {tok: i for i, tok in enumerate(vals)} for _, vals in schema.features
            ]
            class_index = {tok: i for i, tok in enumerate(schema.classes)}
            continue
        cells = line.split(",")
        if len(cells) != schema.n_features + 1:
            raise DatasetFormatError(
                line_no, f"expected {schema.n_features + 1} cells, found {len(cells)}"
            )
        values = []
        for f, tok in enumerate(cells[:-1]):
            try:
                values.append(value_index[f][tok])
            except KeyError:
                raise DatasetFormatError(
                    line_no,
                    f"unknown value {tok!r} for feature {schema.feature_name(f)!r}",
                ) from None
        try:
            label = class_index[cells[-1]]
        except KeyError:
            raise DatasetFormatError(line_no, f"unknown class token {cells[-1]!r}") from None
        examples.append(LabeledExample(instance=tuple(values), label=label))
        row_lines.append(line_no)
    if schema is None:
        raise DatasetFormatError(1, "no header line found")
    data = Dataset(schema=schema, examples=tuple(examples))
    pair = data.conflict()
    if pair is not None:
        raise InconsistentDataError(
            f"lines {row_lines[pair[0]]} and {row_lines[pair[1]]} give the same "
            f"instance different labels"
        )
    return data


def format_dataset(data: Dataset) -> str:
    schema = data.schema
    header = ",".join(
        [f"{name}={'|'.join(values)}" for name, values in schema.features]
        + [f"class={'|'.join(schema.classes)}"]
    )
    lines = [header]
    for ex in data.examples:
        cells = [schema.values(f)[v] for f, v in enumerate(ex.instance)]
        cells.append(schema.classes[ex.label])
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def save_dataset(data: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_dataset(data))


def bundled_dataset(name: str) -> Dataset:
    """Load a dataset file shipped with the package (e.g. 'lenses')."""
    from importlib import resources  # here, so `import forestscope` never loads it

    ref = resources.files("forestscope").joinpath("data").joinpath(f"{name}.csv")
    if not ref.is_file():
        raise DatasetError(f"no bundled dataset named {name!r}")
    return parse_dataset(ref.read_text(encoding="utf-8"))


# ---------------------------------------------------------------- sampling

def _subset(data: Dataset, indices: Sequence[int]) -> Dataset:
    """Rows `indices` (each in range(len(data))) of `data`: equal to
    `Dataset(data.schema, rows)`, `runs` included, but the runs are counted by
    index (ints, in C) and mapped to the source's row keys, so no drawn row is
    hashed again; only a source with duplicate rows folds counts in Python.
    The rows are not validated again: every key of the subset's `runs` is a
    key of `data.runs`, which `data`'s constructor checked."""
    counts = Counter(indices)
    keys = data._keys
    if len(data.runs) == len(keys):  # one row per key
        runs = Counter(dict(zip(map(keys.__getitem__, counts), counts.values())))
    else:
        runs = Counter()
        for i, w in counts.items():
            runs[keys[i]] += w
    out = object.__new__(Dataset)  # the fields, in __init__'s order, without recounting
    examples = tuple(map(data.examples.__getitem__, indices))
    out.__dict__.update(schema=data.schema, examples=examples, runs=runs)
    return out


def split_disjoint(data: Dataset, n_train: int, rng: SplitMix64) -> tuple[Dataset, Dataset]:
    """Uniform train/test partition; both sides keep source row order."""
    n = len(data.examples)
    if not 0 < n_train < n:
        raise ValueError(f"n_train must be in (0, {n}), got {n_train}")
    chosen = set(rng.sample_indices(n, n_train))
    train = [i for i in range(n) if i in chosen]
    test = [i for i in range(n) if i not in chosen]
    return _subset(data, train), _subset(data, test)


def sample_with_replacement(data: Dataset, n: int, rng: SplitMix64) -> Dataset:
    if n <= 0:
        raise ValueError("sample size must be positive")
    if not data.examples:
        raise ValueError("cannot sample from an empty dataset")
    m = len(data.examples)
    return _subset(data, rng.below_many(m, n))


@dataclass(frozen=True)
class BoundViolation:
    """First bound a training sample failed, in declared check order."""

    kind: str  # 'class' or 'value'
    key: tuple  # (class_index,) or (feature_index, value_index)
    count: int
    low: int
    high: int


def representative_filter(
    train: Dataset,
    class_bounds: dict[int, tuple[int, int]] | None = None,
    value_bounds: dict[tuple[int, int], tuple[int, int]] | None = None,
) -> BoundViolation | None:
    """None if every bound holds, else the first violated bound.

    Class bounds are checked in class-index order, then value bounds in
    (feature, value) schema order.  Bounds are inclusive on both ends.
    """
    class_counts = train.class_counts()
    for c in sorted(class_bounds or {}):
        low, high = class_bounds[c]
        if not low <= class_counts[c] <= high:
            return BoundViolation("class", (c,), class_counts[c], low, high)
    if value_bounds:
        value_counts: dict[tuple[int, int], int] = {}
        for ex in train.examples:
            for f, v in enumerate(ex.instance):
                value_counts[(f, v)] = value_counts.get((f, v), 0) + 1
        for key in sorted(value_bounds):
            low, high = value_bounds[key]
            count = value_counts.get(key, 0)
            if not low <= count <= high:
                return BoundViolation("value", key, count, low, high)
    return None


def leaf_coverage_sample(
    data: Dataset,
    reference_tree,
    per_leaf: int,
    n_train: int,
    rng: SplitMix64,
) -> tuple[Dataset, Dataset]:
    """Train set forced to cover every leaf of a reference tree.

    For each leaf in depth-first order, min(per_leaf, reached) examples are
    drawn without replacement from the examples the leaf receives; the train
    set is then filled to n_train uniformly from the rest.  Test is the
    remainder.  Draw order (leaves in tree order, then the fill) is part of
    the determinism contract.
    """
    from . import tree as _tree

    n = len(data.examples)
    if not 0 < n_train < n:
        raise ValueError(f"n_train must be in (0, {n}), got {n_train}")
    if per_leaf < 1:
        raise ValueError("per_leaf must be at least 1")
    groups = _tree.leaf_partition(reference_tree, data)
    chosen: set[int] = set()
    for reached in groups:
        take = min(per_leaf, len(reached))
        for pick in rng.sample_indices(len(reached), take):
            chosen.add(reached[pick])
    if len(chosen) > n_train:
        raise ValueError(
            f"leaf coverage needs {len(chosen)} examples but n_train is {n_train}"
        )
    rest = [i for i in range(n) if i not in chosen]
    fill = n_train - len(chosen)
    for pick in rng.sample_indices(len(rest), fill):
        chosen.add(rest[pick])
    train = [i for i in range(n) if i in chosen]
    test = [i for i in range(n) if i not in chosen]
    return _subset(data, train), _subset(data, test)
