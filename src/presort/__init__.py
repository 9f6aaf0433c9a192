"""Comparison-metered sorting algorithms that adapt to existing order.

The package measures how far an input is from sorted (block decomposition,
inversions, displacement, runs), sorts with algorithms whose comparison
counts track those measures, and checks the counts against entropy and
counting bounds.  Every comparison goes through a Meter, so the reported
counts are exact, not estimates.
"""

from .census import (
    MAX_CENSUS_N,
    CensusRow,
    census_worst_cases,
    enumerate_census,
    type_count_lower_bound,
)
from .core import (
    KEY_MAX,
    KEY_MIN,
    Meter,
    Sequence,
    SequenceFormatError,
    dump_sequence,
    load_sequence,
    sorted_check,
    verify_sorted_stable_permutation,
)
from .generators import FAMILIES, GenSpec, generate, realize_sorted_type
from .measures import (
    Decomposition,
    Profile,
    count_runs,
    decompose_maximal,
    entropy,
    entropy_bound,
    inversions,
    max_displacement,
    profile,
)
from .sorters import (
    PIVOT_KINDS,
    PivotStrategy,
    SortOutcome,
    blocked_sort,
    exact_median,
    floyd_rivest,
    insertion_sort,
    natural_merge_sort,
    partition_sort,
    random_middle,
    select_exact_median,
    select_floyd_rivest,
    select_random_middle,
    stable_three_way_partition,
)

__version__ = "0.1.0"
