import hashlib
import random
from dataclasses import replace
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presort.core import Sequence
from presort.generators import FAMILIES, GenSpec, generate, realize_sorted_type
from presort.measures import decompose_maximal, max_displacement


def is_permutation_sequence(seq):
    return sorted(seq.columns()[1]) == list(range(seq.n))


def test_families_tuple():
    assert set(FAMILIES) == {
        "sorted",
        "reverse",
        "random",
        "displacement",
        "transpose",
        "sorted-type",
        "multiset",
    }


def test_sorted_family():
    assert generate(GenSpec("sorted", 5)).keys() == [1, 2, 3, 4, 5]


def test_reverse_family():
    keys = generate(GenSpec("reverse", 6)).keys()
    assert keys == sorted(keys, reverse=True)
    assert len(set(keys)) == 6


def test_transpose_family_exact():
    assert generate(GenSpec("transpose", 8)).keys() == [5, 6, 7, 8, 1, 2, 3, 4]


def test_transpose_odd_n():
    seq = generate(GenSpec("transpose", 5))
    assert sorted(seq.keys()) == [1, 2, 3, 4, 5]
    assert len(decompose_maximal(seq).sizes) == 2


def test_random_family_is_seeded_permutation():
    a = generate(GenSpec("random", 50, seed=4))
    b = generate(GenSpec("random", 50, seed=4))
    c = generate(GenSpec("random", 50, seed=5))
    assert a == b
    assert a != c
    assert sorted(a.keys()) == list(range(1, 51))


def test_displacement_hits_bound_exactly():
    for k in (1, 2, 5, 15):
        for seed in range(12):
            seq = generate(GenSpec("displacement", 32, k=k, seed=seed))
            assert max_displacement(seq) == k, (k, seed)
            assert sorted(seq.keys()) == list(range(1, 33))


def test_displacement_k_zero_is_sorted():
    assert generate(GenSpec("displacement", 9, k=0)).keys() == list(range(1, 10))


def test_displacement_adjacent_swap_pattern():
    seq = generate(GenSpec("displacement", 16, k=1, seed=3))
    assert max_displacement(seq) == 1


def displacement_cases():
    """Every (n, k) with n <= 39, then a few k for longer n, blocks past a
    power of two and odd tails included."""
    for n in range(40):
        yield from ((n, k) for k in range(max(n, 1)))
    for n in (64, 65, 129, 130, 1000, 4097):
        yield from ((n, k) for k in sorted({0, 1, 2, 7, 63, n // 2, n - 1}))


# sha256 over repr(keys) of every displacement case under seeds 0-3, in
# order, taken from the generator before its block walk was folded.
DISPLACEMENT_SHA256 = (3288, "0ed70a25cd8051213ec83ba9dd782540778c8e4957ff0550b804353330de72c9")


def test_displacement_keys_pinned():
    digest, count = hashlib.sha256(), 0
    for n, k in displacement_cases():
        for seed in range(4):
            digest.update(repr(generate(GenSpec("displacement", n, k=k, seed=seed)).keys()).encode())
            count += 1
    assert (count, digest.hexdigest()) == DISPLACEMENT_SHA256


def test_multiset_family_covers_every_value():
    for h in (1, 2, 7, 16):
        seq = generate(GenSpec("multiset", 16, h=h, seed=2))
        assert set(seq.keys()) == set(range(1, h + 1))
        assert seq.n == 16


def test_multiset_h1_all_equal():
    assert generate(GenSpec("multiset", 7, h=1)).keys() == [1] * 7


def test_sorted_type_single_block_is_identity():
    assert generate(GenSpec("sorted-type", 6, sizes=(6,))).keys() == [1, 2, 3, 4, 5, 6]


def test_sorted_type_all_singletons():
    for n in (1, 2, 5, 24, 40):
        seq = generate(GenSpec("sorted-type", n, sizes=(1,) * n, seed=1))
        assert decompose_maximal(seq).size_multiset() == (1,) * n


def test_reverse_decomposes_to_singletons():
    seq = generate(GenSpec("reverse", 9))
    assert decompose_maximal(seq).size_multiset() == (1,) * 9


def test_realize_sorted_type_round_trip_examples():
    for sizes in [(3, 2), (6, 2, 2, 2, 1, 1, 1, 1), (4, 4), (2, 2, 2), (5, 1)]:
        for seed in range(6):
            seq = realize_sorted_type(sizes, seed=seed)
            got = decompose_maximal(seq).size_multiset()
            assert got == tuple(sorted(sizes, reverse=True)), (sizes, seed)
            assert is_permutation_sequence(seq)


@st.composite
def size_multisets(draw):
    return tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=12)))


@given(size_multisets(), st.integers(0, 10_000))
@settings(max_examples=250, deadline=None)
def test_realize_then_decompose_is_identity(sizes, seed):
    seq = realize_sorted_type(sizes, seed=seed)
    assert decompose_maximal(seq).size_multiset() == tuple(sorted(sizes, reverse=True))


def partitions(n, most=None):
    """Every block-size multiset of n, each as a non-increasing tuple."""
    most = n if most is None else most
    if n == 0:
        yield ()
    for first in range(min(n, most), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def sweep_reference(sizes, seed=0):
    """realize_sorted_type as it was before the chain construction: the
    same shuffle and key walk, then the sweep below until no boundary
    merges.  Quadratic on long chains of single-key blocks, so only the
    small cases use it."""
    sizes = list(sizes)
    n = sum(sizes)
    labels = [b for b, size in enumerate(sizes) for _ in range(size)]
    random.Random(seed).shuffle(labels)
    keys = [0] * n
    positions = [[] for _ in sizes]
    handed = list(accumulate(sizes, initial=0))
    for pos, b in enumerate(labels):
        handed[b] += 1
        keys[pos] = handed[b]
        positions[b].append(pos)
    _repair(keys, positions)
    return Sequence.from_keys(keys)


def _repair(keys: list[int], positions: list[list[int]]) -> None:
    """Sweep rank-block boundaries, unmerging any that chain, until a
    sweep makes no swap.

    Boundary b merges when block b ends before block b+1 begins.  The swap
    moves block b's last item later and block b+1's first item earlier,
    so each block's keys stay increasing along its positions.  When no
    boundary merges, the rank chain breaks at every boundary and nowhere
    inside a block, so every block is maximal and the sizes are exact.
    No label of block b or b+1 lies between the swapped positions, so each
    swap adds exactly one inversion to the block labels read in position
    order; there are at most C(n, 2), so the sweeps end.
    """
    swapped = True
    while swapped:
        swapped = False
        for left, right in zip(positions, positions[1:]):
            p, q = left[-1], right[0]
            if p < q:
                keys[p], keys[q] = keys[q], keys[p]
                left[-1], right[0] = q, p
                swapped = True


def test_realize_every_type_up_to_9():
    """Every type comes out exact, in either block order, and byte for
    byte as the sweep builds it."""
    for n, count in zip(range(1, 10), [1, 2, 3, 5, 7, 11, 15, 22, 30]):
        types = list(partitions(n))
        assert len(types) == count  # every multiset of n is tried
        for sizes in types:
            for order in (sizes, sizes[::-1]):
                for seed in range(4):
                    seq = realize_sorted_type(order, seed=seed)
                    assert decompose_maximal(seq).size_multiset() == sizes, (order, seed)
                    assert sorted(seq.keys()) == list(range(1, n + 1))
                    assert seq == sweep_reference(order, seed), (order, seed)


def test_realize_matches_sweep_on_chains():
    """Seeded differential: chains of single-key blocks around longer
    blocks, and mixes of 1s and 2s, where the sweep moves the most."""
    rng = random.Random(9)
    for trial in range(2000):
        if trial % 2:
            sizes = [rng.choice((1, 2)) for _ in range(rng.randint(1, 40))]
        else:
            sizes = []
            for _ in range(rng.randint(1, 5)):
                sizes += [1] * rng.randint(0, 12) + [rng.randint(2, 30)]
            sizes += [1] * rng.randint(0, 12)
        seed = rng.randrange(10**6)
        assert realize_sorted_type(sizes, seed) == sweep_reference(sizes, seed), (sizes, seed)


@pytest.mark.parametrize("n", [200, 100_000])
def test_realize_all_singletons(n):
    """n single-key blocks form one chain: every boundary must break, which
    took the sweep n passes."""
    seq = realize_sorted_type((1,) * n, seed=0)
    assert decompose_maximal(seq).size_multiset() == (1,) * n
    assert seq.keys() == list(range(n, 0, -1))


def test_realize_larger_vectors():
    rng = random.Random(0)
    for trial in range(25):
        parts = [rng.randint(1, 50) for _ in range(rng.randint(1, 40))]
        seq = realize_sorted_type(tuple(parts), seed=trial)
        assert decompose_maximal(seq).size_multiset() == tuple(sorted(parts, reverse=True))


def test_every_family_emits_valid_tags():
    specs = [
        GenSpec("sorted", 20),
        GenSpec("reverse", 20),
        GenSpec("random", 20, seed=1),
        GenSpec("displacement", 20, k=3, seed=1),
        GenSpec("transpose", 20),
        GenSpec("sorted-type", 20, sizes=(10, 5, 5), seed=1),
        GenSpec("multiset", 20, h=4, seed=1),
    ]
    for spec in specs:
        seq = generate(spec)
        assert seq.n == 20
        assert is_permutation_sequence(seq)
        assert generate(spec) == seq  # deterministic replay


def test_genspec_validation():
    with pytest.raises(ValueError):
        GenSpec("nope", 4)
    with pytest.raises(ValueError):
        generate(GenSpec("displacement", 4, k=4))  # k must be <= n-1
    with pytest.raises(ValueError):
        generate(GenSpec("sorted-type", 4, sizes=(3, 2)))  # sums to 5
    with pytest.raises(ValueError):
        generate(GenSpec("sorted-type", 4, sizes=()))
    with pytest.raises(ValueError):
        generate(GenSpec("multiset", 4, h=5))
    with pytest.raises(ValueError):
        generate(GenSpec("multiset", 4, h=0))
    with pytest.raises(ValueError):
        generate(GenSpec("displacement", 4))  # missing k
    with pytest.raises(ValueError):
        generate(GenSpec("sorted", -1))


# Each invalid spec of test_genspec_validation as its fields, with a valid
# spec that dataclasses.replace turns into it.
BAD_SPECS = [
    (dict(family="nope", n=4), GenSpec("sorted", 4)),
    (dict(family="displacement", n=4, k=4), GenSpec("displacement", 4, k=3)),
    (dict(family="sorted-type", n=4, sizes=(3, 2)), GenSpec("sorted-type", 4, sizes=(2, 2))),
    (dict(family="sorted-type", n=4, sizes=()), GenSpec("sorted-type", 4, sizes=(4,))),
    (dict(family="multiset", n=4, h=5), GenSpec("multiset", 4, h=4)),
    (dict(family="multiset", n=4, h=0), GenSpec("multiset", 4, h=1)),
    (dict(family="displacement", n=4, k=None), GenSpec("displacement", 4, k=0)),
    (dict(family="sorted", n=-1), GenSpec("sorted", 0)),
]


@pytest.mark.parametrize("fields, valid", BAD_SPECS)
def test_genspec_checks_itself_when_built_and_replaced(fields, valid):
    with pytest.raises(ValueError) as built:
        GenSpec(**fields)
    with pytest.raises(ValueError) as replaced:
        replace(valid, **fields)
    assert str(replaced.value) == str(built.value)
