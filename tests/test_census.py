import hashlib
import math
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from presort.census import (
    MAX_CENSUS_N,
    MAX_WORST_CASE_N,
    _by_insertion,
    census_worst_cases,
    enumerate_census,
    type_count_lower_bound,
)
from presort.core import Meter, Sequence
from presort.measures import decompose_maximal
from presort.sorters import PIVOT_KINDS, PivotStrategy, partition_sort


def census_dict(n):
    return {row.sizes: row.nu for row in enumerate_census(n)}


def test_census_n3_exact():
    assert census_dict(3) == {(3,): 1, (2, 1): 4, (1, 1, 1): 1}


def test_census_n1():
    assert census_dict(1) == {(1,): 1}


@pytest.mark.parametrize("n", range(1, MAX_CENSUS_N + 1))
def test_census_counts_sum_to_factorial(n):
    assert sum(census_dict(n).values()) == math.factorial(n)


@pytest.mark.parametrize("n", range(1, MAX_CENSUS_N + 1))
def test_census_extreme_types(n):
    d = census_dict(n)
    assert d[(n,)] == 1  # identity only
    assert d[(1,) * n] == 1  # reverse only


def insertion_walk(n):
    """(permutation, type) for each permutation _by_insertion visits, in order."""
    seen = []

    def visit(perm, slots, sizes):
        assert sorted(perm) == list(range(1, n))
        seen.extend((tuple(perm[:j]) + (n,) + tuple(perm[j:]), sizes) for j in slots)

    _by_insertion(n, visit)
    return seen


@pytest.mark.parametrize("n", range(1, 8))
def test_by_insertion_visits_every_permutation_once(n):
    assert sorted(perm for perm, _ in insertion_walk(n)) == list(permutations(range(1, n + 1)))


@pytest.mark.parametrize("n", range(1, 9))
def test_census_matches_permutation_walk(n):
    """The counted nu per type equals a walk over every permutation."""
    walk = Counter(sizes for _, sizes in insertion_walk(n))
    assert census_dict(n) == dict(walk)


# sha256 of repr([(sizes, nu), ...]) in row order for n = 9 and 10, where a
# walk over n! permutations is too slow for the suite; taken from the
# 3^(n-1)-term inclusion-exclusion count, which the walk held up to n = 8.
CENSUS_ROWS_SHA256 = {
    9: (30, "cfe29c7b5d30fbb36a1f0cc30083eb2d817c8a3270691e14db2348fa3bd5565f"),
    10: (42, "46d7f3977dc9e5668b0c41a5653e8f41b1315ad0f67b05c3225761ff8186fddc"),
}


@pytest.mark.parametrize("n", sorted(CENSUS_ROWS_SHA256))
def test_census_rows_pinned_above_the_walk(n):
    rows = [(row.sizes, row.nu) for row in enumerate_census(n)]
    assert (len(rows), hashlib.sha256(repr(rows).encode()).hexdigest()) == CENSUS_ROWS_SHA256[n]


def eulerian(n):
    """A(n, m), permutations of n with m descents, from its recurrence."""
    row = [1]
    for size in range(2, n + 1):
        padded = [0] + row + [0]
        row = [(m + 1) * padded[m + 1] + (size - m) * padded[m] for m in range(size)]
    return row


@pytest.mark.parametrize("n", range(1, MAX_CENSUS_N + 1))
def test_census_block_counts_are_eulerian(n):
    """Types with k blocks are inverses with k - 1 descents."""
    by_blocks = [0] * n
    for sizes, nu in census_dict(n).items():
        by_blocks[len(sizes) - 1] += nu
    assert by_blocks == eulerian(n)


def test_census_rows_canonical_and_ordered():
    rows = enumerate_census(5)
    for row in rows:
        assert row.sizes == tuple(sorted(row.sizes, reverse=True))
        assert row.info_bits == max(row.nu - 1, 0).bit_length()
    keys = [(len(r.sizes), r.sizes) for r in rows]
    assert keys == sorted(keys)


def test_census_n_range():
    for bad in (0, -2, MAX_CENSUS_N + 1):
        with pytest.raises(ValueError):
            enumerate_census(bad)


def test_type_of_permutation_matches_decompose():
    """The type read off each permutation's insertion slots is the block-size
    multiset of its maximal decomposition."""
    for n in range(1, 8):
        for perm, sizes in insertion_walk(n):
            assert sizes == decompose_maximal(Sequence.from_keys(perm)).size_multiset(), perm


def test_count_bound_worked_value():
    # 5!/(3! 2!) = 10 over 2! = 5
    assert type_count_lower_bound(5, (3, 2)) == 5.0


def test_count_bound_single_block():
    # k=1 collapses the formula to n!/n! = 1, the identity's class size;
    # the all-singleton type reaches n!/n! = 1 too, the reverse's.
    for n in (1, 2, 4, 5, 8):
        assert type_count_lower_bound(n, (n,)) == 1.0
        assert type_count_lower_bound(n, (1,) * n) == 1.0


def test_count_bound_domain():
    with pytest.raises(ValueError):
        type_count_lower_bound(4, (2, 1))  # sizes sum mismatch
    with pytest.raises(ValueError):
        type_count_lower_bound(4, ())


def test_count_bound_matches_census_column():
    for row in enumerate_census(5):
        assert row.count_bound == type_count_lower_bound(5, row.sizes)


def test_worst_case_identity_class_costs_n_minus_1():
    assert census_worst_cases(3, PivotStrategy("median"))[(3,)] == 2
    assert census_worst_cases(5, PivotStrategy("median"))[(5,)] == 4


def test_worst_case_meets_information_bound():
    strat = PivotStrategy("median")
    for n in (3, 4, 5):
        worst = census_worst_cases(n, strat)
        for row in enumerate_census(n):
            wc = worst[row.sizes]
            assert wc >= row.info_bits, (n, row.sizes, wc, row.nu)


# rho(n): the largest ratio, over the classes at n, of the class's worst
# case to its lower bound max(info_bits, n - 1), pinned as a bound.  From
# n = 2 each is n/2, set by the reverse class's n(n-1)/2 insertion tests
# against n - 1.
RHO_BOUND = {1: 1, 2: 1, 3: 1.5, 4: 2, 5: 2.5, 6: 3, 7: 3.5, 8: 4}
# The n = 8 class worst cases summed over the classes.
WORST_SUM_8 = 515


@pytest.mark.parametrize("kind", PIVOT_KINDS)
def test_worst_case_ratio_to_class_bound_is_bounded(kind):
    """rho(n) <= RHO_BOUND[n] for every swept n, and the n = 8 worst cases
    sum to at most WORST_SUM_8.  The n = 1 class costs 0 against a bound of
    0, which reads as ratio 1."""
    strat = PivotStrategy(kind, seed=5)
    for n in range(1, MAX_WORST_CASE_N + 1):
        worst = census_worst_cases(n, strat)
        ratios = []
        for row in enumerate_census(n):
            wc, bound = worst[row.sizes], max(row.info_bits, n - 1)
            assert wc >= bound and (bound or wc == 0), (n, row.sizes, wc)
            ratios.append(Fraction(wc, bound) if bound else Fraction(1))
        assert max(ratios) <= RHO_BOUND[n], (n, max(ratios))
    assert sum(worst.values()) <= WORST_SUM_8


def test_worst_case_n_capped():
    with pytest.raises(ValueError):
        census_worst_cases(MAX_WORST_CASE_N + 1, PivotStrategy("median"))


@pytest.mark.parametrize("kind", PIVOT_KINDS)
@pytest.mark.parametrize("n", range(1, 8))
def test_census_worst_cases_single_sweep_matches_per_class(n, kind):
    """Each type's worst case equals a brute-force max of partition_sort's
    reported comparisons over its members."""
    strat = PivotStrategy(kind, seed=5)
    sweep = census_worst_cases(n, strat)
    assert set(sweep) == set(census_dict(n))
    brute: dict[tuple[int, ...], int] = {}
    for perm in permutations(range(1, n + 1)):
        seq = Sequence.from_keys(perm)
        sizes = decompose_maximal(seq).size_multiset()
        cost = partition_sort(seq, strat, Meter()).comparisons
        brute[sizes] = max(brute.get(sizes, -1), cost)
    assert sweep == brute
