"""Stable comparison-metered sorters and pivot selectors.

The flagship is partition_sort: a stable quicksort variant that first runs
a cheap run-counting scan at every level, so inputs (and sub-segments)
that are already in order cost a linear scan and nothing else, and that
finishes every segment made of at most MERGE_SEGMENT runs by merging its
natural runs instead of picking pivots.  Its total
comparison count tracks the entropy budget of the input's block
decomposition; the acceptance suite calibrates and enforces that.

blocked_sort is the complementary specialist: two passes of mergesorting
overlapping 2k-wide windows, which sorts any input whose items all sit
within k slots of their final position.

Every key test inside any routine here is charged to the caller's Meter.
Each kernel exists once, insertion sort's for every size and caller, and
charges its tests in bulk.  Most charge exactly the tests they execute.  A
few run something faster (a binary search, an unrolled group sort, built-in
sorts, the full second pass of a split) but charge exactly the schedule of
the plain per-test loop they stand for; the tests hold them to what that
loop executes.  No function here writes to a list it is passed.

The sorters meter their keys alone, then route the items once with one
stable sort of positions by key (blocked_sort routes window by window).
PivotStrategy and SortOutcome are named tuples: immutable, and equal to
any tuple with the same fields in the same order.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import compress, count, islice
from operator import gt

from .core import PIVOT_KINDS, Meter, Sequence

# Segments at or below SMALL_SEGMENT are finished with insertion sort, with
# no scan first.  A longer one is scanned for its first MERGE_SEGMENT
# descents, and merged from the run starts found if it has at most
# MERGE_SEGMENT natural runs, instead of split around a pivot.  Of the caps
# 16, 256, 512 and 1024 runs, 512 is the only one that keeps the acceptance
# envelope (calibration within C2, log-k residual within 15%), and it lowers
# psort's largest comparisons / B over the bench families at 2^16 keys.
SMALL_SEGMENT = 8
MERGE_SEGMENT = 512

# Sampling attempts select_random_middle makes before giving up and
# falling back to the deterministic selector.
RANDOM_MIDDLE_ATTEMPT_CAP = 64


class PivotStrategy(namedtuple("PivotStrategy", "kind seed")):
    """How partition_sort picks pivots.

    kind "median" finds the exact rank-ceil(n/2) key by rank-adaptive selection;
    "randmid" samples random elements until one lands in the middle half;
    "fr" uses sampling-based selection with high-probability brackets.
    Randomized kinds are reproducible from seed.
    """

    __slots__ = ()

    def __new__(cls, kind: str, seed: int = 0):
        if kind not in PIVOT_KINDS:
            raise ValueError(f"unknown pivot kind {kind!r}, expected one of {PIVOT_KINDS}")
        return super().__new__(cls, kind, seed)

    @classmethod
    def _make(cls, iterable):  # so that _replace checks too
        return cls(*iterable)


def exact_median() -> PivotStrategy:
    return PivotStrategy("median")


def random_middle(seed: int = 0) -> PivotStrategy:
    return PivotStrategy("randmid", seed)


def floyd_rivest(seed: int = 0) -> PivotStrategy:
    return PivotStrategy("fr", seed)


class SortOutcome(
    namedtuple(
        "SortOutcome",
        "output comparisons moves pivot_retries max_recursion_depth is_sorted",
        defaults=(0, 0, True),
    )
):
    """Result of one sorter run: the output plus its metered costs."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# counted building blocks


def stable_three_way_partition(s: Sequence, pivot_key: int, m: Meter):
    """Split s into (below, equal, above) pivot_key, preserving input order.

    Charged as the per-item loop that tests each item against the pivot:
    one test settles "below", a second separates "above" from "equal", so
    2n - |below| tests in all, and one move per item routed.
    """
    keys = s.columns()[0]
    lo = [i for i, k in enumerate(keys) if k < pivot_key]
    eq = [i for i, k in enumerate(keys) if k == pivot_key]
    hi = [i for i, k in enumerate(keys) if k > pivot_key]
    m.comparisons += 2 * len(keys) - len(lo)
    m.moves += len(keys)
    return s.take(lo), s.take(eq), s.take(hi)


def _group_medians(keys: list[int], m: Meter) -> list[int]:
    """Medians of the groups of 5 in keys, charged as insertion sort's
    linear-scan schedule on each group.

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
        push(_insertion_keys(keys[-tail:], m)[0][(tail - 1) // 2])
    return medians


def _merge_keys(runs: list[list[int]], m: Meter) -> tuple[list[int], int]:
    """Merge consecutive sorted key runs pairwise, round by round.

    Returns the merged keys and the moves, one per merged key.  Each round
    merges runs 0+1, 2+3, ... and carries an odd last run over uncharged.
    A pair A, B is merged by sorting A + B in place, but charged what the
    left-biased per-test merge loop (ties take from the left) tests before
    one run is used up, bisect_left(B, A[-1]) + bisect_right(A, B[-1]).
    One term is the whole run that ends first: all of A is <= B[-1] if
    A[-1] <= B[-1], else all of B is < A[-1].  The other counts the keys
    of the other run output before it.  Needs at least one run.
    """
    c = moves = 0
    while len(runs) > 1:
        merged = []
        push = merged.append
        it = iter(runs)
        for a, b in zip(it, it):
            c += bisect_left(b, a[-1]) + bisect_right(a, b[-1])
            a = a + b
            a.sort()
            push(a)
        moves += sum(map(len, merged))
        if len(runs) % 2:
            push(runs[-1])
        runs = merged
    m.comparisons += c
    return runs[0], moves


def _merge_sort_keys(keys: list[int], m: Meter) -> tuple[list[int], int]:
    """_merge_keys on singleton runs: counted bottom-up mergesort.

    Returns the sorted keys and the moves; at most n*ceil(log2 n) tests.
    The first round's pairs are built directly, one test and two moves each.
    """
    n = len(keys)
    if n <= 1:
        return list(keys), 0
    it = iter(keys)
    runs = [[x, y] if x <= y else [y, x] for x, y in zip(it, it)]
    if n % 2:
        runs.append([keys[-1]])
    m.comparisons += n // 2
    merged, moves = _merge_keys(runs, m)
    return merged, moves + n - n % 2


def _run_starts(keys: list[int], cap: int, m: Meter) -> list[int]:
    """The first cap run starts after 0 in keys: each i with keys[i-1] > keys[i].

    Scans pairs left to right and charges one test per pair examined: the
    cap-th start itself when the scan stops there, else n-1 (none when
    n <= 1).
    """
    starts = list(islice(compress(count(1), map(gt, keys, islice(keys, 1, None))), cap))
    m.comparisons += starts[-1] if len(starts) == cap else max(len(keys) - 1, 0)
    return starts


def sorted_check(s: Sequence, m: Meter) -> bool:
    """Counted test that s is non-decreasing by key: the run scan with cap 1,
    so a sorted input costs n-1 comparisons and one whose first descent is
    at position i costs i."""
    return not _run_starts(s.columns()[0], 1, m)


def _merge_runs_at(keys: list[int], starts: list[int], m: Meter) -> None:
    """Charge _merge_keys on the runs of keys that begin at 0 and at starts,
    moves included."""
    bounds = [0, *starts, len(keys)]
    m.moves += _merge_keys([keys[a:b] for a, b in zip(bounds, islice(bounds, 1, None))], m)[1]


def _insertion_keys(keys: list[int], m: Meter) -> tuple[list[int], int]:
    """Stable insertion sort of keys, charged as the per-test loop that
    scans each key's insertion point from the right.

    Returns the sorted keys and the moves: one per slot jumped plus one for
    the landing.  Element i pays one comparison per slot it jumps plus the
    final failed test, except when it travels all the way to the front.
    Total is at most n-1 plus the inversion count.  Each insertion point
    is found by binary search in the sorted prefix; keys is not changed.
    """
    done: list[int] = []
    c = moves = 0
    for i, key in enumerate(keys):
        p = bisect_right(done, key)
        shifts = i - p
        c += shifts + (1 if p > 0 else 0)
        if shifts:
            moves += shifts + 1
        done.insert(p, key)
    m.comparisons += c
    return done, moves


def _outcome(s: Sequence, m: Meter, c0: int, v0: int, retries: int = 0, depth: int = 0) -> SortOutcome:
    """The outcome of a sort of s charged to m since it read (c0, v0).

    The charged kernels run on keys alone.  A stable sort has only one
    correct output, so one stable sort of positions by key routes the items.
    Only an input already in order moves nothing, and it is its own output.
    """
    moves = m.moves - v0
    keys = s.columns()[0]
    out = s.take(sorted(range(len(keys)), key=keys.__getitem__)) if moves else s
    return SortOutcome(out, m.comparisons - c0, moves, retries, depth)


# ---------------------------------------------------------------------------
# pivot selectors


def _select_kth_key(keys: list[int], k: int, m: Meter) -> int:
    """Deterministic k-th smallest key (1-based); rank-adaptive, linear.

    With r the target's rank from its nearer end and 6r <= n, the pivot is
    the r-th smallest of the minima of the first 2r groups of
    size = n // 2r >= 3 keys (near the high end, mirrored with maxima).
    At least r keys are <= it, so the target is below it or is it, and
    (r+1)*size keys are >= it, so about n/2 at most are below.  Otherwise
    it is the median of the groups-of-5 medians, with at most about 7n/10
    keys on either side.  Both recursions shrink (n/3 + n/2, under 7n/8
    exactly; n/5 + 7n/10), so the work is linear.  Keys above the median
    pivot are taken in a second pass only when those below miss the
    target, charged as testing just the keys not below, as the per-key
    three-way loop would.  keys is never reordered, as _SELECTORS requires.
    """
    while True:
        n = len(keys)
        if n <= 5:
            return _insertion_keys(keys, m)[0][k - 1]
        low = 2 * k <= n + 1
        r = k if low else n + 1 - k
        if 6 * r <= n:
            size = n // (2 * r)
            ends = list(map(min if low else max, islice(zip(*[iter(keys)] * size), 2 * r)))
            m.comparisons += 2 * r * (size - 1) + n
            pivot = _select_kth_key(ends, r if low else r + 1, m)
            keys = [x for x in keys if x < pivot] if low else [x for x in keys if x > pivot]
            if r > len(keys):
                return pivot
            k = r if low else len(keys) + 1 - r
            continue
        medians = _group_medians(keys, m)
        pivot = _select_kth_key(medians, (len(medians) + 1) // 2, m)
        lo = [x for x in keys if x < pivot]
        m.comparisons += n
        if k <= len(lo):
            keys = lo
            continue
        hi = [x for x in keys if x > pivot]
        m.comparisons += n - len(lo)
        if k <= n - len(hi):
            return pivot
        keys, k = hi, k - (n - len(hi))


def _median_pivot(keys: list[int], rng, m: Meter) -> tuple[int, int]:
    """Key of rank ceil(n/2), found by _select_kth_key in linear time.

    Duplicate keys are fine: the returned key is the rank-ceil(n/2) entry
    of the multiset, which no tie-break can change.  Never retries.
    """
    return _select_kth_key(keys, (len(keys) + 1) // 2, m), 0


def _randmid_pivot(keys: list[int], rng: random.Random, m: Meter) -> tuple[int, int]:
    """Sample elements until one ranks in the middle half; return (key, rejects).

    Each attempt verifies the candidate's rank with n-1 charged
    comparisons and accepts when the rank falls in [ceil(n/4),
    floor(3n/4)].  About half of all ranks qualify, so two attempts are
    expected.  After RANDOM_MIDDLE_ATTEMPT_CAP rejections the exact
    selector takes over (duplicate-heavy inputs can starve the sampler;
    correctness never depends on luck).  Inputs shorter than 4 skip
    straight to the exact selector.
    """
    n = len(keys)
    if n < 4:
        return _median_pivot(keys, rng, m)
    lo_rank = -(-n // 4)
    hi_rank = (3 * n) // 4
    for rejected in range(RANDOM_MIDDLE_ATTEMPT_CAP):
        idx = rng.randrange(n)
        cand = keys[idx]
        # The rank check charges n-1 tests, one per other element.  The
        # candidate is not below itself, so one scan of all n keys counts
        # the same.
        m.comparisons += n - 1
        rank = len([k for k in keys if k < cand]) + 1
        if lo_rank <= rank <= hi_rank:
            return cand, rejected
    return _select_kth_key(keys, (n + 1) // 2, m), RANDOM_MIDDLE_ATTEMPT_CAP


def _fr_pivot(keys: list[int], rng: random.Random, m: Meter) -> tuple[int, int]:
    """Key of rank ceil(n/2) by sampling selection; returns (key, bracket_misses).

    Sorts a random sample of n^(2/3), but at least 128, keys, picks two
    sample keys that bracket the target rank with high probability, and
    splits the input against them: most elements cost one comparison, the
    rest two.  Fewer than 256 keys are sorted outright.  One call on a
    random permutation measured 2.36n comparisons in all at n = 65536,
    2.24n at n = 100000 and 5.4n at n = 1000 (median of five seeds).  A
    missed bracket recurses on the big side (counted in the second return
    value); a degenerate split falls back to the deterministic selector, so
    the result always equals the true rank-ceil(n/2) key.
    """
    k = (len(keys) + 1) // 2
    misses = 0
    while True:
        n = len(keys)
        # Literals, not MERGE_SEGMENT: perfbench's census sweep selects on
        # 256 random keys and reports a bracket hit ratio only if it samples.
        if n < 256:
            return _merge_sort_keys(keys, m)[0][k - 1], misses
        size = min(n - 1, max(128, round(n ** (2.0 / 3.0))))
        sample = _merge_sort_keys(rng.sample(keys, size), m)[0]
        t = k * size / n
        margin = int(math.sqrt(size * math.log(n))) + 1
        iu = max(0, int(t) - margin)
        iv = min(size - 1, int(t) + margin)
        u, v = sample[iu], sample[iv]
        # Charged as the per-key loop: one test settles "below u", a second
        # separates "above v" from the bracket.  Later parts are built only
        # when the target is not in the earlier ones.
        lo = [x for x in keys if x < u]
        m.comparisons += 2 * n - len(lo)
        if k <= len(lo):
            keys = lo
            misses += 1
            continue
        k -= len(lo)
        mid = [x for x in keys if u <= x <= v]
        if k > len(mid):
            keys, k = [x for x in keys if x > v], k - len(mid)
            misses += 1
        elif u == v:
            return u, misses
        elif len(mid) == n:
            # Bracket failed to shrink anything (massive duplication).
            return _select_kth_key(mid, k, m), misses
        else:
            keys = mid


# Each pivot kind's selector: (keys, rng, m) -> (pivot key, retries) on a
# list of more than MERGE_SEGMENT keys, which the selector must not reorder:
# partition_sort splits that same list around the pivot.
_SELECTORS = dict(zip(PIVOT_KINDS, (_median_pivot, _randmid_pivot, _fr_pivot)))


def select_exact_median(s: Sequence, m: Meter) -> int:
    """The rank-ceil(n/2) key of s, by rank-adaptive selection; see _median_pivot."""
    if s.n == 0:
        raise ValueError("median of empty sequence")
    return _median_pivot(s.columns()[0], None, m)[0]


def select_random_middle(s: Sequence, rng: random.Random, m: Meter) -> tuple[int, int]:
    """A middle-half key of s and the rejected samples; see _randmid_pivot."""
    if s.n == 0:
        raise ValueError("pivot from empty sequence")
    return _randmid_pivot(s.columns()[0], rng, m)


def select_floyd_rivest(s: Sequence, rng: random.Random, m: Meter) -> tuple[int, int]:
    """The rank-ceil(n/2) key of s and the bracket misses; see _fr_pivot."""
    if s.n == 0:
        raise ValueError("median of empty sequence")
    return _fr_pivot(s.columns()[0], rng, m)


# ---------------------------------------------------------------------------
# sorters


def insertion_sort(s: Sequence, m: Meter) -> SortOutcome:
    """Stable insertion sort; cheap when nothing has far to travel."""
    c0, v0 = m.comparisons, m.moves
    m.moves += _insertion_keys(s.columns()[0], m)[1]
    return _outcome(s, m, c0, v0)


def natural_merge_sort(s: Sequence, m: Meter) -> SortOutcome:
    """Detect the existing non-decreasing runs, then merge them pairwise.

    Run detection costs n-1 comparisons; each merge round costs at most n,
    and there are ceil(log2 R) rounds for R initial runs.
    """
    c0, v0 = m.comparisons, m.moves
    if s.n:
        keys = s.columns()[0]
        _merge_runs_at(keys, _run_starts(keys, len(keys), m), m)
    return _outcome(s, m, c0, v0)


def _psort(keys: list[int], select, rng, m: Meter, depth: int) -> tuple[int, int]:
    """Charge sorting one segment's keys at recursion level depth; returns
    the pivot retries and the deepest level reached."""
    n = len(keys)
    if n <= SMALL_SEGMENT:
        m.moves += _insertion_keys(keys, m)[1]
        return 0, depth
    # Fewer than MERGE_SEGMENT descents: at most MERGE_SEGMENT runs, merged.
    # A segment of at most MERGE_SEGMENT keys always merges.
    starts = _run_starts(keys, MERGE_SEGMENT, m)
    if len(starts) < MERGE_SEGMENT:
        if starts:
            _merge_runs_at(keys, starts, m)
        return 0, depth
    pivot, retries = select(keys, rng, m)
    # Charged as the per-item three-way loop: one test below the pivot, two
    # otherwise, and one move per key.  Keys equal to the pivot are done.
    lo = [k for k in keys if k < pivot]
    hi = [k for k in keys if k > pivot]
    m.comparisons += 2 * n - len(lo)
    m.moves += n
    lo_retries, lo_depth = _psort(lo, select, rng, m, depth + 1)
    hi_retries, hi_depth = _psort(hi, select, rng, m, depth + 1)
    return retries + lo_retries + hi_retries, max(lo_depth, hi_depth)


def _charge_psort(keys: list[int], strategy: PivotStrategy, m: Meter) -> tuple[int, int]:
    """partition_sort's charges on keys, which it only reads: (retries, depth)."""
    select = _SELECTORS[strategy.kind]
    # A Random costs microseconds, and no segment of <= MERGE_SEGMENT selects.
    rng = None if select is _median_pivot or len(keys) <= MERGE_SEGMENT else random.Random(strategy.seed)
    return _psort(keys, select, rng, m, 1)


def partition_sort(s: Sequence, strategy: PivotStrategy, m: Meter) -> SortOutcome:
    """Stable adaptive partition sort.

    A segment of at most SMALL_SEGMENT keys is insertion-sorted with no scan
    first: insertion tests each adjacent pair of a sorted segment once and
    moves nothing.  Every longer one, top call included, starts with a run scan
    that goes on until it has found MERGE_SEGMENT descents, charging every
    pair it examines, and returns at once when it is already in order, so a
    sorted input of length n costs exactly n-1 comparisons.  A segment of at
    most MERGE_SEGMENT runs, so every one of at most MERGE_SEGMENT keys, is
    merged once from the run starts the scan found, each pair tested once,
    charged as natural_merge_sort.  The others pick a pivot per the strategy,
    split stably three ways, and recurse on the outer parts; duplicates of the
    pivot are done the moment they land in the middle.  Comparisons spent
    finding and verifying pivots are charged like any others.  The recursion
    runs on keys (_charge_psort); _outcome routes the items once.

    What the scans and leaves add is O(B), B the budget of
    measures.entropy_bound.  On a segment that splits, the scan costs at
    most n-1, less than the split's n or more tests.  A merged segment of
    R <= MERGE_SEGMENT runs costs its n-1 scan plus at most n*ceil(log2 R)
    merge tests; an insertion leaf of at most SMALL_SEGMENT keys costs fewer
    than 4 tests per key.  Finished segments are disjoint, so together they
    cost at most (ceil(log2 MERGE_SEGMENT) + 1)*n = 10n.  And B >= 2n, since
    each block of b keys adds b*log2(n/b + 1) >= b to the n term, so the
    leaves and merges add at most (ceil(log2 MERGE_SEGMENT) + 1)/2 = 5
    times B.
    """
    c0, v0 = m.comparisons, m.moves
    return _outcome(s, m, c0, v0, *_charge_psort(s.columns()[0], strategy, m))


def _check_window(k: int, n: int) -> None:
    """blocked_sort's window range: 1 <= k <= n, or any k >= 1 when n = 0."""
    if k < 1 or (n > 0 and k > n):
        raise ValueError(f"window parameter k={k} out of range for n={n}")


def blocked_sort(s: Sequence, k: int, m: Meter) -> SortOutcome:
    """Two passes of window sorts for displacement-bounded inputs.

    Pass one mergesorts the windows [0, 2k), [2k, 4k), ...; pass two the
    shifted windows [k, 3k), [3k, 5k), ....  If every item starts within k
    slots of its sorted position the result is fully (and stably) sorted;
    total comparisons stay under 2n(log2(2k) + 1).  The output is scanned
    afterwards (uncharged) and the outcome reports is_sorted rather than
    guessing from the precondition.
    """
    n = s.n
    _check_window(k, n)
    c0, v0 = m.comparisons, m.moves
    keys, order = s.columns()[0], list(range(n))
    for first in (0, k):
        for lo in range(first, n, 2 * k):
            window = order[lo : lo + 2 * k]
            m.moves += _merge_sort_keys(list(map(keys.__getitem__, window)), m)[1]
            window.sort(key=keys.__getitem__)
            order[lo : lo + 2 * k] = window
    out = s.take(order)
    keys = out.columns()[0]
    is_sorted = not any(map(gt, keys, islice(keys, 1, None)))
    return SortOutcome(out, m.comparisons - c0, m.moves - v0, is_sorted=is_sorted)
