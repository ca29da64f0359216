"""forestscope: exhaustive enumeration and analysis of consistent decision trees.

Given a training set over discrete features, this package enumerates every
decision tree that classifies the training set perfectly, measures each
tree (or the whole space at once, algebraically), and aggregates seeded
experiment trials into accuracy tables.
"""

from .dataset import (
    BoundViolation,
    Concept,
    Dataset,
    DatasetError,
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
    load_dataset,
    parse_dataset,
    representative_filter,
    sample_with_replacement,
    save_dataset,
    split_disjoint,
)
from .experiments import (
    ExperimentConfig,
    ExperimentError,
    LegResult,
    LegSpec,
    emit_all,
    load_trial_records,
    preset,
    preset_names,
    run_trials,
)
from .forest import (
    CardinalityBucket,
    EnumerationLimits,
    EnumerationTruncated,
    ForestSummary,
    TrackOptions,
    enumerate_naive,
    forest_summary,
    iter_consistent,
    min_consistent_size,
)
from .rng import SplitMix64, derive_seed, stream
from .stats import (
    AggregateRow,
    MinSizeGroup,
    PairwiseRow,
    PathBinRow,
    PolicyRow,
    TrialRecord,
    aggregate_by_cardinality,
    best_cardinality,
    bin_by_path_length,
    derive_policy,
    group_by_min_size,
    pairwise,
)
from .tree import (
    Leaf,
    Node,
    Split,
    StructureViolation,
    TreeFormatError,
    TreeMetrics,
    check_structure,
    classify,
    depth,
    format_tree,
    is_consistent,
    leaf_count,
    leaf_partition,
    majority_label,
    metrics,
    node_count,
    parse_tree,
)

__version__ = "0.1.0"
