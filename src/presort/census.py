"""Exhaustive census of sorted types over all permutations of small n.

For every permutation of {1..n} we record the block-size multiset of its
maximal decomposition (its "type"), count how many permutations share
each type, and compare that against two yardsticks: an exact counting
lower bound on the class size from the swap-repair construction, and the
information bound ceil(log2 nu) that any deterministic comparison sorter
must pay in the worst case over the class.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from typing import Optional

from .core import Meter, Sequence
from .sorters import PivotStrategy, partition_sort

# Full enumeration cost is n! * O(n); past n = 10 it stops being a census
# and starts being a space heater.
MAX_CENSUS_N = 10

# Worst-case sweeps additionally sort every permutation, so they cut off
# earlier than plain enumeration.
MAX_WORST_CASE_N = 8


@dataclass(frozen=True)
class CensusRow:
    """One sorted type: its class size and the bounds attached to it.

    count_bound is the exact counting lower bound on nu, or None where the
    formula's domain (2k <= n) excludes the type.  info_bits is
    ceil(log2 nu).  worst_case is filled in by census runs that actually
    sort every class member; otherwise None.
    """

    sizes: tuple[int, ...]
    nu: int
    count_bound: Optional[float]
    info_bits: int
    worst_case: Optional[int] = None


def type_count_lower_bound(n: int, sizes) -> float:
    """Exact lower bound on how many permutations share a block-size type.

    With k blocks of the given sizes, the interleavings number the
    multinomial n!/(prod sizes!), each fixable into a valid maximal layout
    by local boundary swaps; dividing the overcount by choose(n, 2k)/k!
    leaves  multinomial * k! / C(n, 2k).  Exact integer arithmetic, float
    result.  Defined only when 2k <= n.
    """
    sizes = list(sizes)
    if not sizes or any(b <= 0 for b in sizes):
        raise ValueError(f"block sizes must be positive and non-empty: {sizes}")
    if sum(sizes) != n:
        raise ValueError(f"block sizes sum to {sum(sizes)}, expected n={n}")
    k = len(sizes)
    if 2 * k > n:
        raise ValueError(f"bound undefined for 2k > n (k={k}, n={n})")
    multinomial = math.factorial(n)
    for b in sizes:
        multinomial //= math.factorial(b)
    return multinomial * math.factorial(k) / math.comb(n, 2 * k)


def _type_of_permutation(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Block-size multiset of one permutation of 0..n-1, non-increasing.

    Inlined inverse-and-chain walk so full censuses stay affordable; the
    tests hold it equal to decompose_maximal on every permutation of
    small n.
    """
    n = len(perm)
    pos = [0] * n
    for i, v in enumerate(perm):
        pos[v] = i
    sizes = []
    size = 1
    last = pos[0]
    for v in range(1, n):
        p = pos[v]
        if p > last:
            size += 1
        else:
            sizes.append(size)
            size = 1
        last = p
    sizes.append(size)
    return tuple(sorted(sizes, reverse=True))


def _check_census_n(n: int) -> None:
    if not 1 <= n <= MAX_CENSUS_N:
        raise ValueError(f"census supports 1 <= n <= {MAX_CENSUS_N}, got {n}")


def _check_worst_case_n(n: int) -> None:
    if not 1 <= n <= MAX_WORST_CASE_N:
        raise ValueError(f"worst-case sweeps support 1 <= n <= {MAX_WORST_CASE_N}, got {n}")


def enumerate_census(n: int) -> list[CensusRow]:
    """Census every permutation of {1..n}; one row per realized type.

    Rows come back ordered by block count, then lexicographically by the
    size tuple.  The nu column always sums to n! over the whole list.
    """
    _check_census_n(n)
    counts: Counter[tuple[int, ...]] = Counter()
    for perm in permutations(range(n)):
        counts[_type_of_permutation(perm)] += 1
    rows = []
    for sizes in sorted(counts, key=lambda t: (len(t), t)):
        nu = counts[sizes]
        try:
            bound = type_count_lower_bound(n, sizes)
        except ValueError:
            bound = None
        rows.append(CensusRow(sizes=sizes, nu=nu, count_bound=bound, info_bits=(nu - 1).bit_length()))
    return rows


def census_worst_cases(n: int, strategy: PivotStrategy) -> dict[tuple[int, ...], int]:
    """Max partition_sort comparisons over each realizable type, in one sweep.

    Every permutation of 1..n is sorted once and charged to its type.  The
    strategy's seed is reused for each member, so randomized pivots act as
    one fixed deterministic procedure across every class and the
    information bound ceil(log2 nu) applies to each result.
    """
    _check_worst_case_n(n)
    worst: dict[tuple[int, ...], int] = {}
    for perm in permutations(range(n)):
        t = _type_of_permutation(perm)
        seq = Sequence.from_keys(v + 1 for v in perm)
        outcome = partition_sort(seq, strategy, Meter())
        if outcome.comparisons > worst.get(t, -1):
            worst[t] = outcome.comparisons
    return worst
