"""Comparison-metered sorting algorithms that adapt to existing order.

The package measures how far an input is from sorted (block decomposition,
inversions, displacement, runs), sorts with algorithms whose comparison
counts track those measures, and checks the counts against entropy and
counting bounds.  Every comparison goes through a Meter, so the reported
counts are exact, not estimates.

`import presort` loads no submodule: each exported name is imported from
the module _EXPORTS names on first access (PEP 562), so a program pays
only for the modules it uses.  The result and profile types are named
tuples; only generators, for GenSpec, loads dataclasses.
"""

from importlib import import_module

# Each exported name, by the module that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("census", "MAX_CENSUS_N CensusRow census_worst_cases enumerate_census type_count_lower_bound"),
        (
            "core",
            "FAMILIES KEY_MAX KEY_MIN Meter Sequence SequenceFormatError dump_sequence load_sequence"
            " verify_sorted_stable_permutation",
        ),
        ("generators", "GenSpec generate realize_sorted_type"),
        (
            "measures",
            "Decomposition Profile count_runs decompose_maximal entropy entropy_bound inversions"
            " max_displacement profile",
        ),
        (
            "sorters",
            "PIVOT_KINDS PivotStrategy SortOutcome blocked_sort exact_median floyd_rivest insertion_sort"
            " natural_merge_sort partition_sort random_middle select_exact_median select_floyd_rivest"
            " select_random_middle sorted_check stable_three_way_partition",
        ),
    )
    for name in names.split()
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
