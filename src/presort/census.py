"""Census of sorted types over all permutations of small n.

The type of a permutation of {1..n} is the block-size multiset of its
maximal decomposition.  For each type the census gives its class size nu,
counted exactly rather than enumerated, and compares it against two
yardsticks: a counting lower bound on nu from the swap-repair argument,
and the information bound ceil(log2 nu) that any deterministic
comparison sorter must pay in the worst case over the class.  Worst-case
sweeps charge partition_sort's key recursion on all n! inputs, no items.

The block sizes of a permutation are the ascending-run lengths of its
inverse, and inversion is a bijection, so nu(type) is the sum, over the
compositions of n whose parts form that multiset, of beta_n(S): the
number of permutations whose descent set is exactly the composition's
cut set S.  With the prefix sums 0 = s_0 < ... < s_k = n of the parts,
beta_0 = 1 and beta_j = sum over i < j of (-1)^(j-i-1) * C(s_j, s_i) *
beta_i, and beta_n(S) = beta_k (the determinant formula of Stanley,
Enumerative Combinatorics I, section 2.2).

A CensusRow is a named tuple: immutable, and compared as a tuple.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from itertools import permutations

from .core import Meter, _check_sizes
from .sorters import PivotStrategy, _charge_psort

# Counting a census runs one O(k^2) recursion for each of the 2^(n-1) cut
# sets (512 at n = 10), where a walk would visit all n! permutations.
MAX_CENSUS_N = 10

# Worst-case sweeps charge all n! permutations, so they cut off earlier than
# the counted census: n = 9 would sweep 362,880 sorts, nine times n = 8's.
MAX_WORST_CASE_N = 8


class CensusRow(namedtuple("CensusRow", "sizes nu count_bound info_bits")):
    """One sorted type: its class size and the bounds attached to it.

    count_bound is the counting lower bound multinomial/k! on nu, and
    info_bits is ceil(log2 nu).
    """

    __slots__ = ()


def type_count_lower_bound(n: int, sizes) -> float:
    """Lower bound on how many permutations share a block-size type.

    multinomial / k! for k blocks, multinomial = n!/(prod sizes!), on
    every valid type.  Swap-repair: nu counts the permutations whose
    ascending runs have these sizes in some order.  The all-singleton type
    has nu = 1 = n!/n!.  Otherwise put the s runs of size 1 last, after at
    least one run of size >= 2; the multinomial counts the fillings of
    that layout with every run increasing.  Sorting each window that spans
    a run boundary into decreasing order gives a permutation of exactly
    this type, and with k - s - 1 windows of 2 and one of s + 1, at most
    2^(k-s-1) * (s+1)! <= k! fillings give the same one.  So
    nu >= multinomial / k!.  Exact integer arithmetic, float result.
    """
    sizes = _check_sizes(sizes, n)
    multinomial = math.factorial(n)
    for b in sizes:
        multinomial //= math.factorial(b)
    return multinomial / math.factorial(len(sizes))


def _type_of_permutation(perm: tuple[int, ...]) -> tuple[int, ...]:
    """Block-size multiset of one permutation of 1..n, non-increasing.

    Inlined inverse-and-chain walk so worst-case sweeps stay affordable;
    the tests hold it equal to decompose_maximal on every permutation of
    small n.
    """
    pos = [0] * (len(perm) + 1)
    for i, v in enumerate(perm):
        pos[v] = i
    sizes = []
    size = 1
    last = pos[1]
    for p in pos[2:]:
        if p > last:
            size += 1
        else:
            sizes.append(size)
            size = 1
        last = p
    sizes.append(size)
    return tuple(sorted(sizes, reverse=True))


def enumerate_census(n: int) -> list[CensusRow]:
    """Census every permutation of {1..n}; one row per realized type.

    nu is counted, not enumerated: beta_n(S) of the module docstring, one
    recursion for each of the 2^(n-1) cut sets S.  Rows come back ordered
    by block count, then lexicographically by the size tuple.  The nu
    column always sums to n! over the whole list.
    """
    if not 1 <= n <= MAX_CENSUS_N:
        raise ValueError(f"census supports 1 <= n <= {MAX_CENSUS_N}, got {n}")
    counts: Counter[tuple[int, ...]] = Counter()
    for cuts in range(1 << (n - 1)):
        # Bit i of cuts ends a part after position i + 1; s holds the prefix sums.
        s = [0] + [i + 1 for i in range(n - 1) if cuts >> i & 1] + [n]
        beta = [1]
        for j in range(1, len(s)):
            beta.append(sum((-1) ** (j - i - 1) * math.comb(s[j], s[i]) * beta[i] for i in range(j)))
        counts[tuple(sorted((b - a for a, b in zip(s, s[1:])), reverse=True))] += beta[-1]
    rows = []
    for sizes in sorted(counts, key=lambda t: (len(t), t)):
        nu = counts[sizes]
        rows.append(CensusRow(sizes, nu, type_count_lower_bound(n, sizes), (nu - 1).bit_length()))
    return rows


def census_worst_cases(n: int, strategy: PivotStrategy) -> dict[tuple[int, ...], int]:
    """Max partition_sort comparisons over each realizable type, in one sweep.

    partition_sort's key recursion (all it charges) runs on every
    permutation of 1..n, with no items built.  No segment of at most
    sorters.MERGE_SEGMENT = 512 keys selects a pivot or builds a Random, so
    every pivot kind is one fixed deterministic procedure across every class
    and the information bound ceil(log2 nu) applies to each.
    """
    if not 1 <= n <= MAX_WORST_CASE_N:
        raise ValueError(f"worst-case sweeps support 1 <= n <= {MAX_WORST_CASE_N}, got {n}")
    worst: dict[tuple[int, ...], int] = {}
    m = Meter()
    for perm in permutations(range(1, n + 1)):
        c = m.comparisons
        _charge_psort(list(perm), strategy, m)
        t = _type_of_permutation(perm)
        if m.comparisons - c > worst.get(t, -1):
            worst[t] = m.comparisons - c
    return worst
