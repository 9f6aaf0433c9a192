"""Measures of existing order in a sequence.

The central one is the decomposition of the input into maximal sorted
subsequences whose keys are contiguous in sorted order.  Its block-size
multiset is the canonical "sorted type" of the input; the entropy of that
multiset gives a per-input comparison budget that the adaptive sorters are
tested against.  Classical measures (inversions, max displacement, run
count) ride along for cross-checks.  Decomposition and Profile are named
tuples: immutable, and equal to any tuple with the same fields in order.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import compress, count, islice
from operator import gt, ne, sub
from typing import Optional

from .core import Sequence, _check_sizes


class Decomposition(namedtuple("Decomposition", "blocks sizes")):
    """Maximal sorted-subsequence decomposition of a sequence.

    blocks holds input positions, one tuple per block, in increasing rank
    order (block i covers the i-th slice of the sorted key order); sizes
    are the matching block lengths.  Positions within a block strictly
    increase, and at every block boundary the next block starts at a
    smaller input position than the previous block ends on, which is what
    makes each block maximal.
    """

    __slots__ = ()

    def size_multiset(self) -> tuple[int, ...]:
        """Canonical form: block sizes as a non-increasing tuple."""
        return tuple(sorted(self.sizes, reverse=True))


class Profile(
    namedtuple(
        "Profile",
        "n sizes block_count entropy bound inversions displacement runs distinct_keys",
    )
):
    """Everything the measures module knows about one input.

    sizes is the canonical non-increasing block-size multiset, entropy is
    in bits, and bound is the adaptive comparison budget for that type.
    """

    __slots__ = ()


def _rank_order(s: Sequence) -> list[int]:
    """Input positions by (key, tag) rank: a stable sort by key, by tag first if tags fall."""
    keys, tags = s.columns()
    order = range(len(keys)) if s.tags_rise() else sorted(range(len(keys)), key=tags.__getitem__)
    return sorted(order, key=keys.__getitem__)


def decompose_maximal(s: Sequence, order: Optional[list[int]] = None) -> Decomposition:
    """Split s into its maximal sorted blocks, greedily along rank order.

    Items are ranked by (key, tag); ties inherit input order.  Walking the
    ranks, a block keeps growing while input positions increase and a new
    block starts the moment they step backwards.  The result is the unique
    maximal decomposition: no block can absorb an adjacent rank without
    breaking position order.  order, when given, must be the positions
    sorted by (key, tag), as profile passes it.
    """
    n = s.n
    if n == 0:
        return Decomposition(blocks=(), sizes=())
    if order is None:
        order = _rank_order(s)
    starts = [0, *compress(count(1), map(gt, order, islice(order, 1, None))), n]
    blocks = tuple(tuple(order[a:b]) for a, b in zip(starts, islice(starts, 1, None)))
    return Decomposition(blocks=blocks, sizes=tuple(map(len, blocks)))


def inversions(s: Sequence) -> int:
    """Number of pairs i < j with key_i > key_j (ties are not inversions).

    Merge-counting, O(n log n); tests hold it against the quadratic
    all-pairs definition.  A sorted input costs one scan, and a pair of
    runs already in order (last key of the left <= first of the right) is
    copied through without merging.
    """
    keys = s.columns()[0]
    if not any(map(gt, keys, islice(keys, 1, None))):
        return 0
    total = 0
    width = 1
    n = len(keys)
    while width < n:
        merged = []
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            if mid == hi or keys[mid - 1] <= keys[mid]:
                merged.extend(keys[lo:hi])
                continue
            i, j = lo, mid
            while i < mid and j < hi:
                if keys[i] <= keys[j]:
                    merged.append(keys[i])
                    i += 1
                else:
                    total += mid - i
                    merged.append(keys[j])
                    j += 1
            merged.extend(keys[i:mid])
            merged.extend(keys[j:hi])
        keys = merged
        width *= 2
    return total


def max_displacement(s: Sequence, order: Optional[list[int]] = None) -> int:
    """Largest |position - stable sorted position| over all items.

    The sorted position of an item is its rank by (key, tag), so duplicate
    keys settle in input order and contribute no artificial displacement.
    order is as for decompose_maximal.
    """
    if order is None:
        order = _rank_order(s)
    return max(map(abs, map(sub, order, count())), default=0)


def count_runs(s: Sequence) -> int:
    """Number of maximal non-decreasing contiguous runs (0 for empty)."""
    keys = s.columns()[0]
    if not keys:
        return 0
    return 1 + sum(map(gt, keys, islice(keys, 1, None)))


def entropy(sizes, n: int) -> float:
    """Entropy in bits of the block-size distribution: -sum (b/n) log2 (b/n)."""
    sizes = _check_sizes(sizes, n)
    # + 0.0 keeps the one-block case at 0.0 rather than -0.0
    return -sum(b / n * math.log2(b / n) for b in sizes) + 0.0


def entropy_bound(sizes, n: int) -> float:
    """Adaptive comparison budget for a block-size multiset.

    B = sum_i b_i * log2(n / b_i + 1) + n.  Sits within n of n*H + n:
    n*H <= B - n <= n*H + n for every valid multiset, which the property
    tests pin down.  A single sorted block gives B = 2n; n singleton
    blocks give n*log2(n+1) + n.
    """
    sizes = _check_sizes(sizes, n)
    return sum(b * math.log2(n / b + 1) for b in sizes) + n


def profile(s: Sequence) -> Profile:
    """Compute the full order profile of a sequence."""
    n = s.n
    if n == 0:
        return Profile(0, (), 0, 0.0, 0.0, 0, 0, 0, 0)
    keys = s.columns()[0]
    # Sorted keys with rising tags rank as they stand: one block, no displacement.
    if s.tags_rise() and not any(map(gt, keys, islice(keys, 1, None))):
        sizes, displacement, runs = (n,), 0, 1
    else:
        order = _rank_order(s)
        sizes = decompose_maximal(s, order).size_multiset()
        displacement = max_displacement(s, order)
        del order  # inversions builds its own merge arrays; keep the peak down
        runs = count_runs(s)
    # One run has no inversions (no second scan), and its equal keys are adjacent.
    return Profile(
        n=n,
        sizes=sizes,
        block_count=len(sizes),
        entropy=entropy(sizes, n),
        bound=entropy_bound(sizes, n),
        inversions=inversions(s) if runs > 1 else 0,
        displacement=displacement,
        runs=runs,
        distinct_keys=1 + sum(map(ne, keys, islice(keys, 1, None))) if runs == 1 else len(set(keys)),
    )
