import math
import random
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presort.core import FAMILIES, KEY_MAX, KEY_MIN, Sequence
from presort.generators import GenSpec, generate
from presort.measures import (
    block_sizes,
    count_runs,
    decompose_maximal,
    entropy,
    entropy_bound,
    inversions,
    max_displacement,
    profile,
)

from counting import items_of, sequence_of
from vectors import (
    BLOCKS16,
    BLOCKS16_BLOCK_KEYS,
    BLOCKS16_MULTISET,
    HALF_SWAP16,
    MERGEABLE16,
    MERGEABLE16_MULTISET,
    REPAIRED16,
    REPAIRED16_MULTISET,
    SWAPPED_PAIRS16,
)


def quad_inversions(keys):
    n = len(keys)
    return sum(1 for i in range(n) for j in range(i + 1, n) if keys[i] > keys[j])


def check_decomposition_properties(seq, d):
    """Assert the four defining properties of the maximal decomposition.

    Blocks must partition the positions, each block must be an increasing
    subsequence holding a consecutive rank range, and no block may be
    mergeable into its rank predecessor (the predecessor's last position
    must come after the block's first position).  These properties pin the
    decomposition uniquely, so they double as an independent oracle.
    """
    n = seq.n
    keys, tags = seq.columns()
    by_rank = sorted(range(n), key=lambda p: (keys[p], tags[p]))
    rank_of = {p: r for r, p in enumerate(by_rank)}
    assert sorted(p for blk in d.blocks for p in blk) == list(range(n))
    next_rank = 0
    prev_last_pos = None
    for blk in d.blocks:
        assert list(blk) == sorted(blk)
        for p in blk:
            assert rank_of[p] == next_rank
            next_rank += 1
        if prev_last_pos is not None:
            assert blk[0] < prev_last_pos, "adjacent rank blocks could merge"
        prev_last_pos = blk[-1]
    assert tuple(sorted(d.sizes, reverse=True)) == d.size_multiset()
    assert sum(d.sizes) == n


def test_decompose_block_vector():
    seq = Sequence.from_keys(BLOCKS16)
    d = decompose_maximal(seq)
    assert d.size_multiset() == BLOCKS16_MULTISET
    assert len(d.sizes) == 8
    assert [[BLOCKS16[p] for p in blk] for blk in d.blocks] == BLOCKS16_BLOCK_KEYS
    check_decomposition_properties(seq, d)


def test_decompose_sorted_is_one_block():
    d = decompose_maximal(Sequence.from_keys([1, 2, 3, 4]))
    assert d.sizes == (4,)
    assert d.blocks == ((0, 1, 2, 3),)


def test_decompose_half_swap_is_two_blocks():
    d = decompose_maximal(Sequence.from_keys([5, 6, 7, 8, 1, 2, 3, 4]))
    assert sorted(d.sizes) == [4, 4]


def test_decompose_mergeable_and_repaired_vectors():
    # one boundary swap per chained pair separates the coarse decomposition
    # into the intended finer one
    assert decompose_maximal(Sequence.from_keys(MERGEABLE16)).size_multiset() == MERGEABLE16_MULTISET
    assert decompose_maximal(Sequence.from_keys(REPAIRED16)).size_multiset() == REPAIRED16_MULTISET


def test_decompose_sorted_with_ties_is_one_block():
    d = decompose_maximal(Sequence.from_keys([1, 1, 1, 2, 2]))
    assert d.sizes == (5,)


def test_decompose_exhaustive_small_n():
    for n in range(7):
        for perm in permutations(range(n)):
            seq = Sequence.from_keys(perm)
            check_decomposition_properties(seq, decompose_maximal(seq))


def test_decompose_tie_battery():
    for keys in permutations([1, 1, 2, 2, 3]):
        seq = Sequence.from_keys(keys)
        check_decomposition_properties(seq, decompose_maximal(seq))


@given(st.lists(st.integers(-8, 8), max_size=80))
@settings(max_examples=300)
def test_decompose_properties_random(keys):
    seq = Sequence.from_keys(keys)
    check_decomposition_properties(seq, decompose_maximal(seq))


def test_inversions_examples():
    assert inversions(Sequence.from_keys([1, 2, 3, 4])) == 0
    assert inversions(Sequence.from_keys([4, 3, 2, 1])) == 6
    assert inversions(Sequence.from_keys(SWAPPED_PAIRS16)) == 7
    assert inversions(Sequence.from_keys(SWAPPED_PAIRS16)) == quad_inversions(SWAPPED_PAIRS16)


def test_inversions_ties_do_not_count():
    assert inversions(Sequence.from_keys([2, 2, 2])) == 0


@given(st.lists(st.integers(-20, 20), max_size=120))
@settings(max_examples=300)
def test_inversions_matches_quadratic_oracle(keys):
    assert inversions(Sequence.from_keys(keys)) == quad_inversions(keys)


@st.composite
def _sorted_blocks(draw):
    """Sorted blocks laid end to end; each one either starts at or above the
    previous block's last key (the pair meets in order) or anywhere."""
    keys: list[int] = []
    for block in draw(st.lists(st.lists(st.integers(0, 12), max_size=9), max_size=8)):
        block = sorted(block)
        if keys and block and draw(st.booleans()):
            block = [k + keys[-1] for k in block]
        keys.extend(block)
    return keys


@given(_sorted_blocks())
@settings(max_examples=300)
def test_inversions_sorted_blocks_match_quadratic_oracle(keys):
    assert inversions(Sequence.from_keys(keys)) == quad_inversions(keys)


def test_inversions_equal_keys_across_a_pair_boundary():
    # keys[mid - 1] == keys[mid] at a merge boundary: ties copy straight through.
    for keys in ([1, 2, 2, 3], [2, 2, 1, 2, 2], [0, 5, 5, 9, 5, 5, 5, 5], [3, 3, 3, 1, 3], [4, 1, 4, 4, 0, 4, 4, 4]):
        assert inversions(Sequence.from_keys(keys)) == quad_inversions(keys), keys


def test_inversions_trivial_shapes():
    for keys in ([], [7], list(range(40)), list(range(40, 0, -1)), [5] * 33):
        assert inversions(Sequence.from_keys(keys)) == quad_inversions(keys), keys


def _check_inversions(keys):
    assert inversions(Sequence.from_keys(keys)) == quad_inversions(keys), keys


def test_inversions_random_lists_up_to_600_keys():
    # n = 600 merges runs of 256 and then 512 keys; every tail length n mod 8 shows up.
    rng = random.Random(24)
    for n in (*range(17), 63, 64, 65, 129, 250, 257, 300, 511, 513, 600):
        for h in (3, n + 1):
            _check_inversions([rng.randrange(h) for _ in range(n)])


def test_inversions_every_chunk_tail_length():
    rng = random.Random(8)
    for n in range(1, 80):
        for keys in (
            [rng.randrange(-4, 5) for _ in range(n)],
            list(range(n, 0, -1)),
            [*range(1, n), 0],
            [n, *range(1, n)],
        ):
            _check_inversions(keys)


def test_inversions_lopsided_windows():
    # Runs of 256 keys meet at the 256-wide merge; the window that crosses
    # is a few keys on one side against most of the other, in either order.
    evens = list(range(0, 512, 2))
    for few in ([1], [301], [101, 201, 301], [-1, 255, 257, 509], [409] * 20):
        # A long left window against a short right one.
        _check_inversions(evens + few + list(range(1000, 1256 - len(few))))
        # A short left window against a long right one.
        _check_inversions(list(range(-256 + len(few), 0)) + few + evens)
    # Both lopsided ways inside one list, at every merge width up to 128.
    rng = random.Random(5)
    for width in (8, 16, 32, 64, 128):
        keys = []
        for _ in range(4):
            keys += sorted(rng.randrange(10**6) for _ in range(width))
            far = [rng.randrange(10**6) if rng.random() < 0.1 else rng.choice([-1, 10**6]) for _ in range(width)]
            keys += sorted(far)
        _check_inversions(keys)


def test_inversions_balanced_and_wholly_above_windows():
    rng = random.Random(9)
    left = sorted(rng.randrange(1000) for _ in range(128))
    right = sorted(rng.randrange(1000) for _ in range(128))
    _check_inversions(left + right)  # interleaving throughout: the walk
    _check_inversions([k + 1000 for k in left] + right)  # every left key above every right key
    _check_inversions([k + 999 for k in left] + right)  # the same but for a few ties at the edge
    _check_inversions(list(range(300, 0, -1)))


def test_inversions_ties_at_the_window_edges():
    # Keys equal to the right run's first key (left side) or to the left
    # run's last key (right side) sit just outside the window: ties never count.
    _check_inversions([0, 3, 3, 3, 3, 3, 3, 7] + [3, 3, 5, 7, 7, 7, 7, 9])
    _check_inversions([3] * 7 + [7] + [3, 7, 7, 7, 7, 7, 7, 7])
    _check_inversions([1, 5, 5, 5, 5, 5, 5, 5] + [5, 5, 5, 5, 5, 5, 5, 6])
    rng = random.Random(11)
    for width in (8, 32, 128):
        for _ in range(20):
            edge_lo, edge_hi = sorted(rng.sample(range(20), 2))
            left = sorted([*(rng.randrange(21) for _ in range(width - 2)), edge_lo, edge_hi])
            right = sorted([*(rng.randrange(21) for _ in range(width - 2)), edge_lo, edge_hi])
            _check_inversions(left + right)
            _check_inversions(left + right[: width // 8])
            _check_inversions(left[: width // 8] + right)


def test_inversions_extreme_keys():
    rng = random.Random(12)
    extremes = [KEY_MIN, KEY_MIN + 1, -1, 0, 1, KEY_MAX - 1, KEY_MAX]
    for n in (2, 7, 8, 9, 40, 257):
        _check_inversions([rng.choice(extremes) for _ in range(n)])
    _check_inversions([KEY_MAX] * 9 + [KEY_MIN] * 9)


def test_inversions_pinned_on_generated_inputs():
    # presort gen --family random --n 65536 --seed 7, and the README's displacement input.
    assert inversions(generate(GenSpec("random", 65536, seed=7))) == 1_077_226_641
    assert inversions(generate(GenSpec("displacement", 100000, k=64, seed=7))) == 543_019


@pytest.mark.parametrize("family", FAMILIES)
def test_block_sizes_match_the_decomposition_on_every_family(family):
    extra = {"displacement": {"k": 9}, "multiset": {"h": 7}, "sorted-type": {"sizes": (300, 200, 100, 100)}}
    for seed in (0, 1):
        s = generate(GenSpec(family, 700, seed=seed, **extra.get(family, {})))
        want = decompose_maximal(s).size_multiset()
        assert profile(s).sizes == want == block_sizes(s)


def test_max_displacement_examples():
    assert max_displacement(Sequence.from_keys([1, 2, 3])) == 0
    assert max_displacement(Sequence.from_keys(SWAPPED_PAIRS16)) == 1
    assert max_displacement(Sequence.from_keys(HALF_SWAP16)) == 8


@given(st.lists(st.integers(-20, 20), max_size=60))
def test_max_displacement_oracle(keys):
    seq = Sequence.from_keys(keys)
    ranked = sorted(items_of(seq))
    want = max((abs(ranked.index(it) - pos) for pos, it in enumerate(items_of(seq))), default=0)
    assert max_displacement(seq) == want


def test_count_runs_examples():
    assert count_runs(Sequence.from_keys([1, 2, 3])) == 1
    assert count_runs(Sequence.from_keys([4, 3, 2, 1])) == 4
    assert count_runs(Sequence.from_keys(SWAPPED_PAIRS16)) == 8
    assert count_runs(Sequence.from_keys([])) == 0


def test_entropy_exact_values():
    assert entropy([8, 8], 16) == 1.0
    assert entropy([16], 16) == 0.0
    assert entropy([4, 4, 4, 4], 16) == 2.0


def test_entropy_rejects_bad_sizes():
    with pytest.raises(ValueError):
        entropy([], 4)
    with pytest.raises(ValueError):
        entropy([3, 2], 4)
    with pytest.raises(ValueError):
        entropy([0, 4], 4)


def test_entropy_bound_exact_values():
    assert entropy_bound([16], 16) == 32.0
    assert entropy_bound([8, 8], 16) == pytest.approx(16 * math.log2(3) + 16)
    for n in (1, 5, 33):
        assert entropy_bound([1] * n, n) == pytest.approx(n * math.log2(n + 1) + n)


@st.composite
def size_vectors(draw):
    sizes = draw(st.lists(st.integers(1, 40), min_size=1, max_size=30))
    return sizes, sum(sizes)


@given(size_vectors())
def test_entropy_bound_sandwich(sv):
    # n*H <= B - n <= n*H + n for every size vector
    sizes, n = sv
    h = entropy(sizes, n)
    b = entropy_bound(sizes, n)
    assert n * h <= b - n + 1e-9
    assert b - n <= n * h + n + 1e-9
    assert 0.0 <= h <= math.log2(len(sizes)) + 1e-12


def test_profile_sorted():
    p = profile(Sequence.from_keys(range(1, 17)))
    assert (p.block_count, p.entropy, p.inversions, p.displacement, p.runs) == (1, 0.0, 0, 0, 1)
    assert p.sizes == (16,)
    assert p.distinct_keys == 16


def test_profile_half_swap():
    p = profile(Sequence.from_keys(HALF_SWAP16))
    assert p.block_count == 2
    assert p.entropy == 1.0
    assert p.displacement == 8
    assert p.inversions == 64
    assert p.runs == 2


def test_profile_blocks_vector():
    p = profile(Sequence.from_keys(BLOCKS16))
    assert p.block_count == 8
    assert p.sizes == BLOCKS16_MULTISET


def test_profile_empty():
    p = profile(Sequence.from_keys([]))
    assert p.n == 0
    assert p.sizes == ()
    assert p.bound == 0.0


@given(st.lists(st.integers(-30, 30), max_size=100))
@settings(max_examples=200)
def test_profile_invariants_random(keys):
    n = len(keys)
    p = profile(Sequence.from_keys(keys))
    assert sum(p.sizes) == n
    assert p.inversions <= n * (n - 1) // 2
    assert 0 <= p.displacement <= max(n - 1, 0)
    if n:
        assert 1 <= p.runs <= n
        assert n * p.entropy <= p.bound - n + 1e-6
        assert p.bound - n <= n * p.entropy + n + 1e-6


def _profile_from_parts(s):
    """The Profile that profile(s) must equal, from each measure called directly."""
    sizes = decompose_maximal(s).size_multiset()
    n = s.n
    h, b = (entropy(sizes, n), entropy_bound(sizes, n)) if n else (0.0, 0.0)
    return (n, sizes, len(sizes), h, b, inversions(s), max_displacement(s), count_runs(s), len(set(s.keys())))


@st.composite
def _profile_input(draw):
    """In-order items with ties, key-sorted items whose equal keys carry
    falling tags, or any keys at all."""
    keys = draw(st.lists(st.integers(-5, 5), max_size=60))
    shape = draw(st.sampled_from(["in order", "falling tags", "any"]))
    if shape == "any":
        return Sequence.from_keys(keys)
    items = sorted(zip(keys, range(len(keys))))
    if shape == "falling tags":
        items.sort(key=lambda item: (item[0], -item[1]))
    return sequence_of(items)


@given(_profile_input())
@settings(max_examples=300)
def test_profile_fields_match_each_measure(s):
    p = profile(s)
    fields = (p.n, p.sizes, p.block_count, p.entropy, p.bound, p.inversions, p.displacement, p.runs, p.distinct_keys)
    assert fields == _profile_from_parts(s)


def test_profile_sorted_keys_with_falling_tags_are_not_in_order():
    p = profile(Sequence([1, 1], [1, 0]))
    assert p.sizes == (1, 1)
    assert p.displacement == 1
    assert (p.inversions, p.runs) == (0, 1)


@given(_profile_input())
@settings(max_examples=200)
def test_block_sizes_match_the_decomposition(s):
    assert block_sizes(s) == decompose_maximal(s).size_multiset()
