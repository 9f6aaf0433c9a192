"""Stable comparison-metered sorters and pivot selectors.

The flagship is partition_sort: a stable quicksort variant that first runs
a cheap is-it-sorted scan at every level, so inputs (and sub-segments)
that are already in order cost a linear scan and nothing else.  Its total
comparison count tracks the entropy budget of the input's block
decomposition; the acceptance suite calibrates and enforces that.

blocked_sort is the complementary specialist: two passes of mergesorting
overlapping 2k-wide windows, which sorts any input whose items all sit
within k slots of their final position.

Every key test inside any routine here is charged to the caller's Meter.
Hot loops carry a fast path and a one-call-per-test path used when the
meter is tracing.  A fast path may execute different operations (a binary
search, an unrolled group sort, a built-in sort of two runs) but charges
exactly the comparisons of the per-test schedule, so both paths report
identical counts.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .core import Item, Meter, Sequence

# Segments at or below this length are finished with insertion sort
# instead of partitioning further.
SMALL_SEGMENT = 8

# Empirical ceiling for select_exact_median: comparisons <= factor * n
# (plus a small additive term for tiny inputs).  Worst observed across
# sorted/reverse/random/organ-pipe/duplicate-heavy inputs up to n = 2**16
# is 10.7 comparisons per element (reverse order); 16 leaves headroom.
MEDIAN_SELECT_FACTOR = 16

# Sampling attempts select_random_middle makes before giving up and
# falling back to the deterministic selector.
RANDOM_MIDDLE_ATTEMPT_CAP = 64

PIVOT_KINDS = ("median", "randmid", "fr")


@dataclass(frozen=True)
class PivotStrategy:
    """How partition_sort picks pivots.

    kind "median" finds the exact rank-ceil(n/2) key deterministically;
    "randmid" samples random elements until one lands in the middle half;
    "fr" uses sampling-based selection with high-probability brackets.
    Randomized kinds are reproducible from seed.
    """

    kind: str
    seed: int = 0

    def __post_init__(self):
        if self.kind not in PIVOT_KINDS:
            raise ValueError(f"unknown pivot kind {self.kind!r}, expected one of {PIVOT_KINDS}")

    @property
    def randomized(self) -> bool:
        return self.kind != "median"


def exact_median() -> PivotStrategy:
    return PivotStrategy("median")


def random_middle(seed: int = 0) -> PivotStrategy:
    return PivotStrategy("randmid", seed)


def floyd_rivest(seed: int = 0) -> PivotStrategy:
    return PivotStrategy("fr", seed)


@dataclass(frozen=True)
class SortOutcome:
    """Result of one sorter run: the output plus its metered costs."""

    output: Sequence
    comparisons: int
    moves: int
    pivot_retries: int = 0
    max_recursion_depth: int = 0
    is_sorted: bool = True


class _RunStats:
    __slots__ = ("retries", "max_depth")

    def __init__(self):
        self.retries = 0
        self.max_depth = 0


# ---------------------------------------------------------------------------
# counted building blocks


def _partition3_items(items: list[Item], pivot_key: int, m: Meter):
    """Stable three-way split around pivot_key.

    Each item is tested against the pivot at most twice: one test settles
    "below", a second separates "above" from "equal".  Relative order is
    preserved in all three outputs; one move is charged per item routed.
    """
    lo: list[Item] = []
    eq: list[Item] = []
    hi: list[Item] = []
    if m.trace is not None:
        for it in items:
            c = m.cmp3(it[0], pivot_key)
            (lo if c < 0 else hi if c > 0 else eq).append(it)
    else:
        c = 0
        push_lo, push_eq, push_hi = lo.append, eq.append, hi.append
        for it in items:
            k = it[0]
            if k < pivot_key:
                c += 1
                push_lo(it)
            elif k > pivot_key:
                c += 2
                push_hi(it)
            else:
                c += 2
                push_eq(it)
        m.comparisons += c
    m.moves += len(items)
    return lo, eq, hi


def stable_three_way_partition(s: Sequence, pivot_key: int, m: Meter):
    """Split s into (below, equal, above) pivot_key, preserving input order."""
    lo, eq, hi = _partition3_items(list(s.items), pivot_key, m)
    return Sequence(lo), Sequence(eq), Sequence(hi)


def _split3_keys(keys: list[int], pivot: int, m: Meter):
    """Key-only three-way split; returns (below, equal_count, above)."""
    lo: list[int] = []
    hi: list[int] = []
    eq = 0
    if m.trace is not None:
        for k in keys:
            c = m.cmp3(k, pivot)
            if c < 0:
                lo.append(k)
            elif c > 0:
                hi.append(k)
            else:
                eq += 1
    else:
        c = 0
        push_lo, push_hi = lo.append, hi.append
        for k in keys:
            if k < pivot:
                c += 1
                push_lo(k)
            elif k > pivot:
                c += 2
                push_hi(k)
            else:
                c += 2
                eq += 1
        m.comparisons += c
    return lo, eq, hi


def _insertion_sort_keys(keys: list[int], m: Meter) -> None:
    # In-place counted insertion sort for the tiny groups inside selection.
    # Its one-call-per-test schedule is the charge _group_medians must
    # reproduce exactly, whatever operations that kernel executes.
    for i in range(1, len(keys)):
        x = keys[i]
        j = i
        while j > 0 and m.greater(keys[j - 1], x):
            keys[j] = keys[j - 1]
            j -= 1
        keys[j] = x


def _group_medians(keys: list[int], m: Meter) -> list[int]:
    """Medians of the groups of 5 in keys, charged as _insertion_sort_keys.

    Each full group is insertion-sorted unrolled on five locals: every `>`
    below is the next test the per-test loop would make, in the same order,
    so the charge is identical; it is tallied locally and added once.  The
    first test of each insertion always runs, hence the flat 4 per group.
    """
    medians: list[int] = []
    push = medians.append
    extra = 0
    it = iter(keys)
    for a, b, x, y, z in zip(it, it, it, it, it):
        if a > b:
            a, b = b, a
        if b > x:
            extra += 1
            if a > x:
                a, b, x = x, a, b
            else:
                b, x = x, b
        if x > y:
            extra += 1
            if b > y:
                extra += 1
                # The lowest value is never read again: inserting z only
                # charges its test against it, and keeps just rank 3.
                if a > y:
                    b, x, y = a, b, x
                else:
                    b, x, y = y, b, x
            else:
                x, y = y, x
        if y > z:
            extra += 1
            if x > z:
                extra += 1
                if b > z:
                    extra += 1
                    x = b
                else:
                    x = z
        push(x)
    m.comparisons += 4 * len(medians) + extra
    tail = len(keys) % 5
    if tail:
        group = keys[-tail:]
        _insertion_sort_keys(group, m)
        push(group[(tail - 1) // 2])
    return medians


def _merge_items(left: list[Item], right: list[Item], m: Meter) -> list[Item]:
    """Stable counted merge: ties take from the left."""
    la, lb = len(left), len(right)
    out: list[Item] = []
    i = j = 0
    if m.trace is not None:
        while i < la and j < lb:
            if m.less_equal(left[i][0], right[j][0]):
                out.append(left[i])
                i += 1
            else:
                out.append(right[j])
                j += 1
    else:
        c = 0
        push = out.append
        while i < la and j < lb:
            c += 1
            if left[i][0] <= right[j][0]:
                push(left[i])
                i += 1
            else:
                push(right[j])
                j += 1
        m.comparisons += c
    out.extend(left[i:])
    out.extend(right[j:])
    m.moves += la + lb
    return out


def _merge_sort_items(items: list[Item], m: Meter) -> list[Item]:
    """Bottom-up stable mergesort; at most len*ceil(log2 len) comparisons."""
    n = len(items)
    if n <= 1:
        return list(items)
    a = list(items)
    width = 1
    trace = m.trace is not None
    while width < n:
        out: list[Item] = []
        push = out.append
        c = moved = 0
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            if mid == hi:
                out.extend(a[lo:hi])
                continue
            i, j = lo, mid
            if trace:
                while i < mid and j < hi:
                    if m.less_equal(a[i][0], a[j][0]):
                        push(a[i])
                        i += 1
                    else:
                        push(a[j])
                        j += 1
            else:
                while i < mid and j < hi:
                    c += 1
                    if a[i][0] <= a[j][0]:
                        push(a[i])
                        i += 1
                    else:
                        push(a[j])
                        j += 1
            out.extend(a[i:mid])
            out.extend(a[j:hi])
            moved += hi - lo
        if not trace:
            m.comparisons += c
        m.moves += moved
        a = out
        width *= 2
    return a


def _merge_sort_keys(keys: list[int], m: Meter) -> list[int]:
    """Counted bottom-up mergesort on bare keys (selection scratch work).

    The fast path merges each pair of runs A, B with sorted(A + B) and
    charges what the left-biased merge loop (the trace path) tests before
    one run is used up: every key of the run that ends first, plus the keys
    of the other run that the merge outputs before that run's last key.
    """
    n = len(keys)
    if n <= 1:
        return list(keys)
    if m.trace is None:
        it = iter(keys)
        runs = [[x, y] if x <= y else [y, x] for x, y in zip(it, it)]
        if n % 2:
            runs.append([keys[-1]])
        c = n // 2
        while len(runs) > 1:
            merged = []
            for i in range(0, len(runs) - 1, 2):
                a, b = runs[i], runs[i + 1]
                if a[-1] <= b[-1]:
                    c += len(a) + bisect_left(b, a[-1])
                else:
                    c += len(b) + bisect_right(a, b[-1])
                merged.append(sorted(a + b))
            if len(runs) % 2:
                merged.append(runs[-1])
            runs = merged
        m.comparisons += c
        return runs[0]
    a = list(keys)
    width = 1
    while width < n:
        out: list[int] = []
        push = out.append
        for lo in range(0, n, 2 * width):
            mid = min(lo + width, n)
            hi = min(lo + 2 * width, n)
            i, j = lo, mid
            while i < mid and j < hi:
                if m.less_equal(a[i], a[j]):
                    push(a[i])
                    i += 1
                else:
                    push(a[j])
                    j += 1
            out.extend(a[i:mid])
            out.extend(a[j:hi])
        a = out
        width *= 2
    return a


# ---------------------------------------------------------------------------
# pivot selectors


def _select_kth_key(keys: list[int], k: int, m: Meter) -> int:
    """Deterministic k-th smallest key (1-based), median-of-medians.

    Linear worst case; every comparison is charged.  Mutates its argument.
    """
    while True:
        n = len(keys)
        if n <= 5:
            _insertion_sort_keys(keys, m)
            return keys[k - 1]
        if m.trace is None:
            medians = _group_medians(keys, m)
        else:
            medians = []
            for g in range(0, n, 5):
                group = keys[g : g + 5]
                _insertion_sort_keys(group, m)
                medians.append(group[(len(group) - 1) // 2])
        pivot = _select_kth_key(medians, (len(medians) + 1) // 2, m)
        lo, eq, hi = _split3_keys(keys, pivot, m)
        if k <= len(lo):
            keys = lo
        elif k <= len(lo) + eq:
            return pivot
        else:
            k -= len(lo) + eq
            keys = hi


def select_exact_median(s: Sequence, m: Meter) -> int:
    """Key of rank ceil(n/2), found deterministically in linear time.

    Duplicate keys are fine: the returned key is the rank-ceil(n/2) entry
    of the multiset, which no tie-break can change.
    """
    if s.n == 0:
        raise ValueError("median of empty sequence")
    return _select_kth_key(s.keys(), (s.n + 1) // 2, m)


def _count_below_skip(keys: list[int], skip: int, cand: int, m: Meter) -> int:
    # Rank check for one sampled candidate: n-1 charged comparisons.
    if m.trace is not None:
        below = 0
        for i, k in enumerate(keys):
            if i != skip and m.less(k, cand):
                below += 1
        return below
    m.comparisons += len(keys) - 1
    # The candidate compares equal to itself, so scanning the full list
    # with a strict test gives the same count as skipping it.
    return sum(1 for k in keys if k < cand)


def select_random_middle(s: Sequence, rng: random.Random, m: Meter) -> tuple[int, int]:
    """Sample elements until one ranks in the middle half; return (key, rejects).

    Each attempt verifies the candidate's rank with n-1 charged
    comparisons and accepts when the rank falls in [ceil(n/4),
    floor(3n/4)].  About half of all ranks qualify, so two attempts are
    expected.  After RANDOM_MIDDLE_ATTEMPT_CAP rejections the exact
    selector takes over (duplicate-heavy inputs can starve the sampler;
    correctness never depends on luck).  Inputs shorter than 4 skip
    straight to the exact selector.
    """
    n = s.n
    if n == 0:
        raise ValueError("pivot from empty sequence")
    keys = s.keys()
    if n < 4:
        return _select_kth_key(keys, (n + 1) // 2, m), 0
    lo_rank = -(-n // 4)
    hi_rank = (3 * n) // 4
    for rejected in range(RANDOM_MIDDLE_ATTEMPT_CAP):
        idx = rng.randrange(n)
        cand = keys[idx]
        rank = _count_below_skip(keys, idx, cand, m) + 1
        if lo_rank <= rank <= hi_rank:
            return cand, rejected
    return _select_kth_key(keys, (n + 1) // 2, m), RANDOM_MIDDLE_ATTEMPT_CAP


# Below this size, sampling selection just sorts its input.
_FR_SMALL = 64


def _fr_split(keys: list[int], u: int, v: int, m: Meter):
    """Split into (< u, [u..v], > v) charging 1 test below u, else 2."""
    lo: list[int] = []
    mid: list[int] = []
    hi: list[int] = []
    if m.trace is not None:
        for k in keys:
            if m.less(k, u):
                lo.append(k)
            elif m.greater(k, v):
                hi.append(k)
            else:
                mid.append(k)
    else:
        c = 0
        push_lo, push_mid, push_hi = lo.append, mid.append, hi.append
        for k in keys:
            if k < u:
                c += 1
                push_lo(k)
            elif k > v:
                c += 2
                push_hi(k)
            else:
                c += 2
                push_mid(k)
        m.comparisons += c
    return lo, mid, hi


def select_floyd_rivest(s: Sequence, rng: random.Random, m: Meter) -> tuple[int, int]:
    """Key of rank ceil(n/2) by sampling selection; returns (key, bracket_misses).

    Sorts a random n^(2/3)-size sample, picks two sample keys that bracket
    the target rank with high probability, and splits the input against
    them: most elements cost one comparison, the rest two, which is where
    the roughly 1.5n expected total on random input comes from.  A missed
    bracket recurses on the big side (counted in the second return value);
    a degenerate split falls back to the deterministic selector, so the
    result always equals the true rank-ceil(n/2) key.
    """
    if s.n == 0:
        raise ValueError("median of empty sequence")
    keys = s.keys()
    k = (s.n + 1) // 2
    misses = 0
    while True:
        n = len(keys)
        if n <= _FR_SMALL:
            arr = _merge_sort_keys(keys, m)
            return arr[k - 1], misses
        size = min(n - 1, max(_FR_SMALL // 2, round(n ** (2.0 / 3.0))))
        sample = [keys[i] for i in rng.sample(range(n), size)]
        sample = _merge_sort_keys(sample, m)
        t = k * size / n
        margin = int(math.sqrt(size * math.log(n))) + 1
        iu = max(0, int(t) - margin)
        iv = min(size - 1, int(t) + margin)
        u, v = sample[iu], sample[iv]
        lo, mid, hi = _fr_split(keys, u, v, m)
        if k <= len(lo):
            keys = lo
            misses += 1
        elif k <= len(lo) + len(mid):
            k -= len(lo)
            if u == v:
                return u, misses
            if len(mid) == n:
                # Bracket failed to shrink anything (massive duplication).
                return _select_kth_key(mid, k, m), misses
            keys = mid
        else:
            k -= len(lo) + len(mid)
            keys = hi
            misses += 1


# ---------------------------------------------------------------------------
# sorters


def _insertion_items(items: list[Item], m: Meter) -> list[Item]:
    """Counted stable insertion sort.

    Element i pays one comparison per slot it jumps plus the final failed
    test, except when it travels all the way to the front.  Total is at
    most n-1 plus the inversion count.  The fast path finds each insertion
    point by binary search and shifts with C-level list inserts while
    charging exactly the linear-scan schedule.
    """
    if m.trace is not None:
        a = list(items)
        for i in range(1, len(a)):
            x = a[i]
            j = i
            while j > 0 and m.greater(a[j - 1][0], x[0]):
                a[j] = a[j - 1]
                m.moves += 1
                j -= 1
            a[j] = x
            if j != i:
                m.moves += 1
        return a
    out: list[Item] = []
    keys: list[int] = []
    c = moves = 0
    for i, it in enumerate(items):
        key = it[0]
        p = bisect_right(keys, key)
        shifts = i - p
        c += shifts + (1 if p > 0 else 0)
        if shifts:
            moves += shifts + 1
        keys.insert(p, key)
        out.insert(p, it)
    m.comparisons += c
    m.moves += moves
    return out


def insertion_sort(s: Sequence, m: Optional[Meter] = None) -> SortOutcome:
    """Stable insertion sort; cheap when nothing has far to travel."""
    m = m if m is not None else Meter()
    c0, v0 = m.comparisons, m.moves
    out = _insertion_items(list(s.items), m)
    return SortOutcome(Sequence(out), m.comparisons - c0, m.moves - v0)


def natural_merge_sort(s: Sequence, m: Optional[Meter] = None) -> SortOutcome:
    """Detect the existing non-decreasing runs, then merge them pairwise.

    Run detection costs n-1 comparisons; each merge round costs at most n,
    and there are ceil(log2 R) rounds for R initial runs.
    """
    m = m if m is not None else Meter()
    c0, v0 = m.comparisons, m.moves
    items = list(s.items)
    n = len(items)
    if n > 1:
        runs: list[list[Item]] = []
        start = 0
        if m.trace is not None:
            for i in range(n - 1):
                if m.greater(items[i][0], items[i + 1][0]):
                    runs.append(items[start : i + 1])
                    start = i + 1
        else:
            prev = items[0][0]
            for i in range(1, n):
                k = items[i][0]
                if prev > k:
                    runs.append(items[start:i])
                    start = i
                prev = k
            m.comparisons += n - 1
        runs.append(items[start:])
        while len(runs) > 1:
            runs = [
                _merge_items(runs[i], runs[i + 1], m) if i + 1 < len(runs) else runs[i]
                for i in range(0, len(runs), 2)
            ]
        items = runs[0]
    return SortOutcome(Sequence(items), m.comparisons - c0, m.moves - v0)


def _choose_pivot(seq: Sequence, strategy: PivotStrategy, rng, m: Meter, stats: _RunStats) -> int:
    if strategy.kind == "median":
        return select_exact_median(seq, m)
    if strategy.kind == "randmid":
        key, rejected = select_random_middle(seq, rng, m)
    else:
        key, rejected = select_floyd_rivest(seq, rng, m)
    stats.retries += rejected
    return key


def _psort(items: list[Item], strategy: PivotStrategy, rng, m: Meter, depth: int, stats: _RunStats) -> list[Item]:
    if depth > stats.max_depth:
        stats.max_depth = depth
    if m.first_descent(list(map(itemgetter(0), items))) < 0:
        return items
    if len(items) <= SMALL_SEGMENT:
        return _insertion_items(items, m)
    seq = Sequence(items)
    pivot = _choose_pivot(seq, strategy, rng, m, stats)
    lo, eq, hi = _partition3_items(items, pivot, m)
    out = _psort(lo, strategy, rng, m, depth + 1, stats)
    out.extend(eq)
    out.extend(_psort(hi, strategy, rng, m, depth + 1, stats))
    return out


def partition_sort(s: Sequence, strategy: PivotStrategy, m: Optional[Meter] = None) -> SortOutcome:
    """Stable adaptive partition sort.

    Every level, top call included, starts with the is-sorted scan and
    returns immediately when the segment is already in order, so a sorted
    input of length n costs exactly n-1 comparisons.  Unsorted segments
    longer than SMALL_SEGMENT pick a pivot per the strategy, split stably
    three ways, and recurse on the outer parts; duplicates of the pivot
    are done the moment they land in the middle.  Comparisons spent
    finding and verifying pivots are charged like any others.
    """
    m = m if m is not None else Meter()
    c0, v0 = m.comparisons, m.moves
    rng = random.Random(strategy.seed) if strategy.randomized else None
    stats = _RunStats()
    out = _psort(list(s.items), strategy, rng, m, 1, stats)
    return SortOutcome(
        Sequence(out),
        comparisons=m.comparisons - c0,
        moves=m.moves - v0,
        pivot_retries=stats.retries,
        max_recursion_depth=stats.max_depth,
    )


def blocked_sort(s: Sequence, k: int, m: Optional[Meter] = None) -> SortOutcome:
    """Two passes of window sorts for displacement-bounded inputs.

    Pass one mergesorts the windows [0, 2k), [2k, 4k), ...; pass two the
    shifted windows [k, 3k), [3k, 5k), ....  If every item starts within k
    slots of its sorted position the result is fully (and stably) sorted;
    total comparisons stay under 2n(log2(2k) + 1).  The output is scanned
    afterwards (uncharged) and the outcome reports is_sorted rather than
    guessing from the precondition.
    """
    m = m if m is not None else Meter()
    n = s.n
    if k < 1 or (n > 0 and k > n):
        raise ValueError(f"window parameter k={k} out of range for n={n}")
    c0, v0 = m.comparisons, m.moves
    items = list(s.items)
    for lo in range(0, n, 2 * k):
        items[lo : lo + 2 * k] = _merge_sort_items(items[lo : lo + 2 * k], m)
    for lo in range(k, n, 2 * k):
        items[lo : lo + 2 * k] = _merge_sort_items(items[lo : lo + 2 * k], m)
    keys = list(map(itemgetter(0), items))
    is_sorted = all(keys[i] <= keys[i + 1] for i in range(n - 1))
    return SortOutcome(
        Sequence(items),
        comparisons=m.comparisons - c0,
        moves=m.moves - v0,
        is_sorted=is_sorted,
    )
