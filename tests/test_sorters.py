import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presort.core import Meter, Sequence, verify_sorted_stable_permutation
from presort.generators import GenSpec, generate
from presort.measures import count_runs, inversions, max_displacement
from presort.sorters import (
    MEDIAN_SELECT_FACTOR,
    RANDOM_MIDDLE_ATTEMPT_CAP,
    PivotStrategy,
    _group_medians,
    _insertion_sort_keys,
    _merge_sort_keys,
    blocked_sort,
    exact_median,
    insertion_sort,
    natural_merge_sort,
    partition_sort,
    select_exact_median,
    select_floyd_rivest,
    select_random_middle,
    stable_three_way_partition,
)

from vectors import BLOCKS16, SORTED16, SWAPPED_PAIRS16

STRATEGIES = [PivotStrategy("median"), PivotStrategy("randmid", 3), PivotStrategy("fr", 3)]


def ref_sort(seq):
    """Reference stable sort by key only."""
    return Sequence(sorted(seq.items, key=lambda it: it[0]))


def rank_key(keys, rank):
    """Key of the given 1-based rank."""
    return sorted(keys)[rank - 1]


# -- stable partition ----------------------------------------------------------


def test_partition_routes_and_keeps_order():
    s = Sequence.from_keys([3, 1, 2, 3, 1])
    m = Meter()
    less, equal, greater = stable_three_way_partition(s, 2, m)
    assert less.keys() == [1, 1] and less.tags() == [1, 4]
    assert equal.keys() == [2] and equal.tags() == [2]
    assert greater.keys() == [3, 3] and greater.tags() == [0, 3]
    assert m.comparisons <= 2 * s.n


def test_partition_all_equal():
    s = Sequence.from_keys([7, 7, 7])
    less, equal, greater = stable_three_way_partition(s, 7, Meter())
    assert less.n == 0 and greater.n == 0
    assert equal.keys() == [7, 7, 7]


def test_partition_preserves_relative_order_in_less():
    s = Sequence.from_keys(BLOCKS16)
    less, _, _ = stable_three_way_partition(s, 45, Meter())
    assert less.keys() == [23, 6, 25, 33, 8, 34, 39, 4]


@given(st.lists(st.integers(-9, 9), max_size=50), st.integers(-9, 9))
def test_partition_property(keys, pivot):
    s = Sequence.from_keys(keys)
    m = Meter()
    less, equal, greater = stable_three_way_partition(s, pivot, m)
    assert all(key < pivot for key, _ in less)
    assert all(key == pivot for key, _ in equal)
    assert all(key > pivot for key, _ in greater)
    rebuilt = list(less) + list(equal) + list(greater)
    assert sorted(rebuilt) == sorted(s.items)
    for part in (less, equal, greater):
        assert list(part.tags()) == sorted(part.tags())
    assert m.comparisons <= 2 * len(keys)


# -- selectors -----------------------------------------------------------------


def test_exact_median_examples():
    assert select_exact_median(Sequence.from_keys([3, 1, 2]), Meter()) == 2
    assert select_exact_median(Sequence.from_keys([7]), Meter()) == 7
    assert select_exact_median(Sequence.from_keys([5, 6, 7, 8, 1, 2, 3, 4]), Meter()) == 4


def test_exact_median_empty_rejected():
    with pytest.raises(ValueError):
        select_exact_median(Sequence.from_keys([]), Meter())


@given(st.lists(st.integers(-40, 40), min_size=1, max_size=120))
@settings(max_examples=300)
def test_exact_median_matches_rank_oracle(keys):
    n = len(keys)
    got = select_exact_median(Sequence.from_keys(keys), Meter())
    assert got == rank_key(keys, (n + 1) // 2)


def test_exact_median_linear_comparison_envelope():
    rng = random.Random(99)
    for n in (5, 17, 100, 1000, 4096):
        batteries = {
            "sorted": list(range(n)),
            "reverse": list(range(n, 0, -1)),
            "random": rng.sample(range(n), n),
            "dups": [i % 7 for i in range(n)],
        }
        for name, keys in batteries.items():
            m = Meter()
            select_exact_median(Sequence.from_keys(keys), m)
            assert m.comparisons <= MEDIAN_SELECT_FACTOR * n + 8, (name, n, m.comparisons)


def test_random_middle_stays_in_middle_half():
    keys = list(range(1, 257))
    random.Random(5).shuffle(keys)
    s = Sequence.from_keys(keys)
    for seed in range(40):
        key, rejected = select_random_middle(s, random.Random(seed), Meter())
        assert 64 <= sorted(keys).index(key) + 1 <= 192
        assert 0 <= rejected <= RANDOM_MIDDLE_ATTEMPT_CAP


def test_random_middle_tiny_inputs_fall_back_to_median():
    for keys in ([5], [2, 1], [3, 1, 2]):
        key, rejected = select_random_middle(Sequence.from_keys(keys), random.Random(0), Meter())
        assert key == rank_key(keys, (len(keys) + 1) // 2)
        assert rejected == 0


def test_random_middle_n4_contract():
    s = Sequence.from_keys([10, 30, 20, 40])
    for seed in range(25):
        key, _ = select_random_middle(s, random.Random(seed), Meter())
        assert key in (10, 20, 30)  # ranks 1..3


def test_random_middle_mean_attempts_close_to_two():
    # acceptance rate is about half, so attempts (rejected + 1) should
    # average near 2 over many seeded runs
    keys = random.Random(77).sample(range(10_000), 200)
    s = Sequence.from_keys(keys)
    total = 0
    runs = 1000
    for seed in range(runs):
        _, rejected = select_random_middle(s, random.Random(seed), Meter())
        total += rejected + 1
    assert 1.5 <= total / runs <= 2.5


def test_floyd_rivest_examples():
    assert select_floyd_rivest(Sequence.from_keys([3, 1, 2]), random.Random(0), Meter())[0] == 2
    got, misses = select_floyd_rivest(
        Sequence.from_keys([5, 6, 7, 8, 1, 2, 3, 4]), random.Random(1), Meter()
    )
    assert got == 4
    assert misses >= 0


def test_floyd_rivest_matches_rank_oracle_at_scale():
    keys = random.Random(123).sample(range(1_000_000), 10_000)
    want = rank_key(keys, (len(keys) + 1) // 2)
    s = Sequence.from_keys(keys)
    total_cmp = 0
    for seed in range(100):
        m = Meter()
        got, _ = select_floyd_rivest(s, random.Random(seed), m)
        assert got == want
        total_cmp += m.comparisons
    # expected cost is near 1.5n + o(n); informational, not asserted
    print(f"floyd-rivest mean comparisons/n over 100 seeds: {total_cmp / 100 / len(keys):.3f}")


@given(st.lists(st.integers(-30, 30), min_size=2, max_size=90), st.integers(0, 50))
@settings(max_examples=200)
def test_floyd_rivest_rank_oracle_property(keys, seed):
    got, _ = select_floyd_rivest(Sequence.from_keys(keys), random.Random(seed), Meter())
    assert got == rank_key(keys, (len(keys) + 1) // 2)


@given(st.lists(st.integers(-30, 30), min_size=4, max_size=90), st.integers(0, 50))
@settings(max_examples=200)
def test_random_middle_rank_oracle_property(keys, seed):
    got, _ = select_random_middle(Sequence.from_keys(keys), random.Random(seed), Meter())
    n = len(keys)
    ranks = [i + 1 for i, k in enumerate(sorted(keys)) if k == got]
    lo = -(-n // 4)
    hi = (3 * n) // 4
    assert any(lo <= r <= hi for r in ranks)


# -- partition sort ------------------------------------------------------------


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.kind)
def test_psort_sorted_input_costs_exactly_n_minus_1(strategy):
    s = Sequence.from_keys(range(100))
    out = partition_sort(s, strategy, Meter())
    assert out.comparisons == 99
    assert out.output == s


@pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.kind)
def test_psort_sorts_and_is_stable(strategy):
    rng = random.Random(41)
    for trial in range(60):
        n = rng.randint(0, 70)
        keys = [rng.randint(0, 9) for _ in range(n)]
        s = Sequence.from_keys(keys)
        out = partition_sort(s, strategy, Meter())
        assert verify_sorted_stable_permutation(s, out.output)
        assert out.output.items == ref_sort(s).items
        assert out.is_sorted


def test_psort_blocks_vector_sorts_to_baseline():
    out = partition_sort(Sequence.from_keys(BLOCKS16), PivotStrategy("median"), Meter())
    assert out.output.keys() == SORTED16


def test_psort_half_swap_structure():
    # n=16 keeps both halves above the small-segment cutoff: one partition
    # level, then each half passes its sorted check
    s = Sequence.from_keys([9, 10, 11, 12, 13, 14, 15, 16, 1, 2, 3, 4, 5, 6, 7, 8])
    out = partition_sort(s, PivotStrategy("median"), Meter())
    assert out.max_recursion_depth == 2
    assert out.output.keys() == sorted(s.keys())
    budget = 16 * math.log2(3) + 16
    assert out.comparisons <= 12 * budget


def test_psort_depth_bound():
    rng = random.Random(8)
    for trial in range(30):
        n = rng.randint(1, 300)
        s = Sequence.from_keys(rng.choices(range(60), k=n))
        out = partition_sort(s, PivotStrategy("median"), Meter())
        assert out.max_recursion_depth <= math.ceil(math.log2(n)) + 1 if n > 1 else True


def test_psort_median_never_retries():
    out = partition_sort(Sequence.from_keys(BLOCKS16), PivotStrategy("median"), Meter())
    assert out.pivot_retries == 0


def test_psort_same_seed_same_count():
    s = Sequence.from_keys(random.Random(2).sample(range(500), 300))
    a = partition_sort(s, PivotStrategy("randmid", 9), Meter())
    b = partition_sort(s, PivotStrategy("randmid", 9), Meter())
    assert (a.comparisons, a.moves, a.pivot_retries) == (b.comparisons, b.moves, b.pivot_retries)


def test_pivot_strategy_validation():
    with pytest.raises(ValueError):
        PivotStrategy("bogus")


# -- blocked sort ----------------------------------------------------------------


def test_blocked_adjacent_swaps_k1():
    s = Sequence.from_keys([2, 1, 4, 3, 6, 5, 8, 7])
    assert max_displacement(s) == 1
    out = blocked_sort(s, 1, Meter())
    assert out.is_sorted
    assert out.output.keys() == [1, 2, 3, 4, 5, 6, 7, 8]


def test_blocked_two_pass_example_k2():
    s = Sequence.from_keys([3, 4, 1, 2, 7, 8, 5, 6])
    out = blocked_sort(s, 2, Meter())
    assert out.is_sorted
    assert verify_sorted_stable_permutation(s, out.output)


def test_blocked_sorted_input_any_k():
    s = Sequence.from_keys(range(20))
    for k in (1, 3, 20):
        out = blocked_sort(s, k, Meter())
        assert out.is_sorted
        assert out.output == s


def test_blocked_flags_not_raises_when_k_too_small():
    s = Sequence.from_keys([9, 1, 2, 3, 4, 5, 6, 7, 8, 0])  # displacement 9
    out = blocked_sort(s, 1, Meter())
    assert not out.is_sorted
    assert not verify_sorted_stable_permutation(s, out.output)


def test_blocked_k_range_errors():
    s = Sequence.from_keys([3, 1, 2])
    for k in (0, 4, -1):
        with pytest.raises(ValueError):
            blocked_sort(s, k, Meter())


def test_blocked_comparison_budget_and_correctness():
    rng = random.Random(31)
    for trial in range(40):
        n = rng.randint(2, 400)
        k = rng.randint(1, n - 1)
        s = generate(GenSpec("displacement", n, k=k, seed=trial))
        assert max_displacement(s) <= k
        m = Meter()
        out = blocked_sort(s, k, m)
        assert out.is_sorted
        assert verify_sorted_stable_permutation(s, out.output)
        assert out.comparisons <= 2 * n * (math.log2(2 * k) + 1)


def test_blocked_empty_input_is_sorted():
    out = blocked_sort(Sequence.from_keys([]), 1, Meter())
    assert out.is_sorted and out.output.n == 0
    assert out.comparisons == out.moves == 0


def test_blocked_stable_with_duplicates():
    s = Sequence.from_keys([2, 2, 1, 1, 3, 3, 2, 2])
    k = max_displacement(s)
    out = blocked_sort(s, max(k, 1), Meter())
    assert out.is_sorted
    assert verify_sorted_stable_permutation(s, out.output)


# -- insertion sort ----------------------------------------------------------------


def test_insertion_examples():
    assert insertion_sort(Sequence.from_keys([2, 1]), Meter()).comparisons == 1
    assert insertion_sort(Sequence.from_keys(range(50)), Meter()).comparisons == 49


def test_insertion_swapped_pairs_under_2n():
    s = Sequence.from_keys(SWAPPED_PAIRS16)
    out = insertion_sort(s, Meter())
    assert out.comparisons <= 2 * 16
    assert verify_sorted_stable_permutation(s, out.output)


@given(st.lists(st.integers(-40, 40), max_size=100))
@settings(max_examples=200)
def test_insertion_inversion_budget(keys):
    s = Sequence.from_keys(keys)
    out = insertion_sort(s, Meter())
    n = len(keys)
    assert out.comparisons <= max(n - 1, 0) + inversions(s)
    assert verify_sorted_stable_permutation(s, out.output)
    assert out.output.items == ref_sort(s).items


def test_insertion_displacement_budget():
    rng = random.Random(6)
    for trial in range(30):
        n = rng.randint(1, 300)
        keys = list(range(n))
        k = rng.randint(0, max(0, min(10, n - 1)))
        for i in range(0, n - k, max(k, 1)):
            j = min(i + k, n - 1)
            keys[i], keys[j] = keys[j], keys[i]
        s = Sequence.from_keys(keys)
        dis = max_displacement(s)
        out = insertion_sort(s, Meter())
        assert out.comparisons <= n * (dis + 1)


# -- natural merge sort ----------------------------------------------------------------


def test_natmerge_sorted_single_run():
    out = natural_merge_sort(Sequence.from_keys(range(30)), Meter())
    assert out.comparisons == 29


def test_natmerge_reverse():
    s = Sequence.from_keys([4, 3, 2, 1])
    assert count_runs(s) == 4
    out = natural_merge_sort(s, Meter())
    assert out.output.keys() == [1, 2, 3, 4]


def test_natmerge_two_runs_cheap():
    s = Sequence.from_keys([9, 10, 11, 12, 13, 14, 15, 16, 1, 2, 3, 4, 5, 6, 7, 8])
    out = natural_merge_sort(s, Meter())
    assert out.comparisons <= 2 * 16
    assert verify_sorted_stable_permutation(s, out.output)


@given(st.lists(st.integers(-40, 40), max_size=150))
@settings(max_examples=200)
def test_natmerge_run_budget(keys):
    s = Sequence.from_keys(keys)
    n = len(keys)
    r = count_runs(s)
    out = natural_merge_sort(s, Meter())
    assert verify_sorted_stable_permutation(s, out.output)
    assert out.output.items == ref_sort(s).items
    if n:
        assert out.comparisons <= n * math.ceil(math.log2(max(r, 1))) + n


# -- metering honesty across every algorithm ------------------------------------


def _battery(rng):
    yield Sequence.from_keys([])
    yield Sequence.from_keys([3])
    yield Sequence.from_keys(range(17))
    yield Sequence.from_keys(range(17, 0, -1))
    yield Sequence.from_keys(BLOCKS16)
    yield Sequence.from_keys([5] * 11)
    # 300 and 1000 reach Floyd-Rivest sampling and several levels of
    # median-of-medians recursion.
    for n in (7, 24, 41, 300, 1000):
        yield Sequence.from_keys(rng.choices(range(8), k=n))
        yield Sequence.from_keys(rng.sample(range(1000), n))


def _run_traced_and_fast(fn):
    traced = Meter()
    traced.trace = []
    a = fn(traced)
    fast = Meter()
    b = fn(fast)
    assert traced.comparisons == len(traced.trace) == fast.comparisons
    assert traced.moves == fast.moves
    return a, b


def test_trace_parity_every_algorithm():
    """The bulk fast paths must charge exactly what per-pair metering does.

    Every sorter and selector runs twice per input, once with the trace
    enabled (forcing one Meter call per key test) and once without; the
    counters must agree and the trace length must equal the counter.
    """
    rng = random.Random(1234)
    for s in _battery(rng):
        for strategy in STRATEGIES:
            a, b = _run_traced_and_fast(lambda m: partition_sort(s, strategy, m))
            assert a.comparisons == b.comparisons
            assert a.output == b.output
        _run_traced_and_fast(lambda m: insertion_sort(s, m))
        _run_traced_and_fast(lambda m: natural_merge_sort(s, m))
        if s.n >= 1:
            for k in {1, max(1, s.n // 3), s.n}:
                _run_traced_and_fast(lambda m: blocked_sort(s, k, m))
            _run_traced_and_fast(lambda m: select_exact_median(s, m))
        if s.n >= 2:
            _run_traced_and_fast(lambda m: select_floyd_rivest(s, random.Random(7), m))
        if s.n >= 4:
            _run_traced_and_fast(lambda m: select_random_middle(s, random.Random(7), m))


def test_group_medians_match_per_test_insertion_sort():
    """Every weak order of a group of 5 gives the same median and charge."""
    for group in itertools.product(range(5), repeat=5):
        fast = Meter()
        got = _group_medians(list(group), fast)
        ref = list(group)
        slow = Meter()
        _insertion_sort_keys(ref, slow)
        assert got == [ref[2]], group
        assert fast.comparisons == slow.comparisons, group


def test_group_medians_short_final_group():
    rng = random.Random(8)
    for n in range(1, 23):
        keys = rng.choices(range(6), k=n)
        fast = Meter()
        got = _group_medians(keys, fast)
        slow = Meter()
        ref = []
        for g in range(0, n, 5):
            group = keys[g : g + 5]
            _insertion_sort_keys(group, slow)
            ref.append(group[(len(group) - 1) // 2])
        assert got == ref, keys
        assert fast.comparisons == slow.comparisons, keys


def test_merge_sort_keys_fast_path_matches_traced():
    rng = random.Random(21)
    for alphabet in (2, 5, 1000):
        for n in range(131):
            keys = rng.choices(range(alphabet), k=n)
            fast = Meter()
            traced = Meter()
            traced.trace = []
            got = _merge_sort_keys(keys, fast)
            assert got == _merge_sort_keys(keys, traced) == sorted(keys), (alphabet, n)
            assert fast.comparisons == traced.comparisons == len(traced.trace), (alphabet, n)


def test_readme_example_counts_pinned():
    """The README's `presort sort --algo psort --pivot median` figures."""
    s = generate(GenSpec("displacement", 100000, k=64, seed=7))
    out = partition_sort(s, exact_median(), Meter())
    assert out.comparisons == 9372984
    assert out.moves == 1134665
    assert out.max_recursion_depth == 15
    assert out.output.keys() == sorted(s.keys())
