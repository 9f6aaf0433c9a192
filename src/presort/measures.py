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
from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import combinations, compress, count, islice, repeat
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


# inversions counts the pairs inside chunks of this many keys column by column.
_CHUNK = 8


def _rank_order(s: Sequence) -> list[int]:
    """Input positions by (key, tag) rank: a stable sort by key, by tag first if tags fall."""
    keys, tags = s.columns()
    order = range(len(keys)) if s.tags_rise() else sorted(range(len(keys)), key=tags.__getitem__)
    return sorted(order, key=keys.__getitem__)


def _block_starts(order: list[int]) -> list[int]:
    """0, each rank where the input position steps backwards, and n."""
    return [0, *compress(count(1), map(gt, order, islice(order, 1, None))), len(order)]


def decompose_maximal(s: Sequence) -> Decomposition:
    """Split s into its maximal sorted blocks, greedily along rank order.

    Items are ranked by (key, tag); ties inherit input order.  Walking the
    ranks, a block keeps growing while input positions increase and a new
    block starts the moment they step backwards.  The result is the unique
    maximal decomposition: no block can absorb an adjacent rank without
    breaking position order.
    """
    if s.n == 0:
        return Decomposition(blocks=(), sizes=())
    order = _rank_order(s)
    starts = _block_starts(order)
    blocks = tuple(tuple(order[a:b]) for a, b in zip(starts, islice(starts, 1, None)))
    return Decomposition(blocks=blocks, sizes=tuple(map(len, blocks)))


def block_sizes(s: Sequence, order: Optional[list[int]] = None) -> tuple[int, ...]:
    """decompose_maximal(s).size_multiset(), without building the blocks; order as for max_displacement."""
    if s.n == 0:
        return ()
    starts = _block_starts(_rank_order(s) if order is None else order)
    return tuple(sorted(map(sub, islice(starts, 1, None), starts), reverse=True))


def _crossings(window: list[int], left: int) -> int:
    """Pairs a > b with a in window[:left] and b in window[left:], both sorted.
    Every right key lies below window[left - 1], so the walk stays on the left side."""
    if window[0] > window[-1]:
        return left * (len(window) - left)
    total = p = 0
    for key in islice(window, left, None):
        while window[p] <= key:
            p += 1
        total += left - p
    return total


def inversions(s: Sequence) -> int:
    """Number of pairs i < j with key_i > key_j (ties are not inversions).

    A sorted input costs one scan.  Otherwise pairs inside each chunk of
    _CHUNK keys are counted column against column, and the sorted chunks
    are merged bottom-up by the built-in sort.  Of two adjacent runs only
    a window crosses: the left keys above the right run's first key and
    the right keys below the left run's last.  Only it is counted and
    sorted, so the cost is O(n log n) at worst and the Python walk only
    visits keys that interleave.  Tests hold it to the all-pairs count.
    """
    keys = s.columns()[0]
    if not any(map(gt, keys, islice(keys, 1, None))):
        return 0
    n = len(keys)
    whole = n - n % _CHUNK
    total = sum(sum(map(gt, a, b)) for a, b in combinations([keys[c:whole:_CHUNK] for c in range(_CHUNK)], 2))
    total += sum(sum(map(gt, repeat(keys[a]), keys[a + 1 :])) for a in range(whole, n))
    work = keys[:]
    for lo in range(0, n, _CHUNK):
        work[lo : lo + _CHUNK] = sorted(work[lo : lo + _CHUNK])
    width = _CHUNK
    while width < n:
        for mid in range(width, n, 2 * width):
            if work[mid - 1] > work[mid]:
                i = bisect_right(work, work[mid], mid - width, mid - 1)
                j = bisect_left(work, work[mid - 1], mid + 1, min(mid + width, n))
                window = work[i:j]
                total += _crossings(window, mid - i)
                if 2 * width < n:  # nothing reads the last round's merge
                    window.sort()
                    work[i:j] = window
                del window  # one window alive at a time keeps the traced peak near 2n
        width *= 2
    return total


def max_displacement(s: Sequence, order: Optional[list[int]] = None) -> int:
    """Largest |position - stable sorted position| over all items.

    The sorted position of an item is its rank by (key, tag), so duplicate
    keys settle in input order and contribute no artificial displacement.
    order, when given, must be the positions sorted by (key, tag), as
    profile passes it.
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
        sizes = block_sizes(s, order)
        displacement = max_displacement(s, order)
        del order  # inversions builds its own working copy; keep the peak down
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
