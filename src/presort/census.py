"""Census of sorted types over all permutations of small n.

The type of a permutation of {1..n} is the block-size multiset of its
maximal decomposition.  For each type the census gives its class size nu,
counted exactly rather than enumerated, and compares it against two
yardsticks: a counting lower bound on nu from the swap-repair argument,
and the information bound ceil(log2 nu) that any deterministic
comparison sorter must pay in the worst case over the class.  Worst-case
sweeps charge partition_sort's key recursion on all n! inputs, no items,
and read each input's type off the slots its values were inserted at.

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
from typing import TYPE_CHECKING

from .core import Meter, _check_sizes

if TYPE_CHECKING:
    from .sorters import PivotStrategy

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


def _by_insertion(n: int, visit) -> None:
    """Call visit(perm, slots, sizes) for each permutation perm of 1..n-1
    and each type that inserting n into it gives: n at any slot in slots
    makes a permutation of 1..n of type sizes.

    Inserting v = 1, ..., n in turn, each into one of the v slots of the
    permutation of 1..v-1, builds each permutation of 1..n from exactly one
    slot sequence.  v joins v-1's block exactly when v's slot is right of
    v-1's: v-1 sits at the slot it was inserted at, and larger values never
    reorder the two.  So n has two types to choose from, "split" and
    "joined", and no type needs a walk.  perm is one list, changed in
    place; visit must leave it as it found it.
    """
    perm: list[int] = []

    def grow(v: int, closed: list[int], run: int, last: int) -> None:
        # perm holds 1..v-1, v-1 at slot last in a block of run values; closed
        # holds the sizes of the blocks below it.
        if v == n:
            for slots, sizes in ((range(last + 1), [*closed, run, 1]), (range(last + 1, n), [*closed, run + 1])):
                if slots:  # n = 1 has no n-1 to split from
                    visit(perm, slots, tuple(sorted(sizes, reverse=True)))
            return
        for j in range(v):
            perm.insert(j, v)
            if j > last:
                grow(v + 1, closed, run + 1, j)
            else:
                grow(v + 1, [*closed, run], 1, j)
            del perm[j]

    grow(1, [], 0, -1)


def census_worst_cases(n: int, strategy: PivotStrategy) -> dict[tuple[int, ...], int]:
    """Max partition_sort comparisons over each realizable type, in one sweep.

    partition_sort's key recursion (all it charges) runs on every
    permutation of 1..n, with no items built.  _by_insertion yields them:
    slot sequences and permutations are in bijection, so each is charged
    exactly once, under the type its insertion slots give.  No segment of
    at most sorters.MERGE_SEGMENT = 512 keys selects a pivot or builds a
    Random, so every pivot kind is one fixed deterministic procedure across
    every class and the information bound ceil(log2 nu) applies to each.
    """
    if not 1 <= n <= MAX_WORST_CASE_N:
        raise ValueError(f"worst-case sweeps support 1 <= n <= {MAX_WORST_CASE_N}, got {n}")
    from .sorters import _charge_psort

    worst: dict[tuple[int, ...], int] = {}
    m = Meter()

    def visit(perm: list[int], slots: range, sizes: tuple[int, ...]) -> None:
        top = worst.get(sizes, -1)
        for j in slots:
            perm.insert(j, n)
            c = m.comparisons
            _charge_psort(perm, strategy, m)
            if m.comparisons - c > top:
                top = m.comparisons - c
            del perm[j]
        worst[sizes] = top

    _by_insertion(n, visit)
    return worst
