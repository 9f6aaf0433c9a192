"""Deterministic input generators for benchmarks and tests.

Every family is a pure function of its GenSpec, seed included.  Keys are
1..n except for the multiset family, which draws from 1..h with every
value present at least once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional

from .core import FAMILIES, Sequence, _check_sizes


@dataclass(frozen=True)
class GenSpec:
    """One generator request.

    k is the displacement bound (displacement family), sizes the block
    sizes (sorted-type family), h the distinct key count (multiset
    family); the rest ignore them.  Building a spec checks it, so an
    invalid one, from dataclasses.replace too, raises ValueError.
    """

    family: str
    n: int
    k: Optional[int] = None
    sizes: Optional[tuple[int, ...]] = None
    h: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.n < 0:
            raise ValueError(f"n must be non-negative, got {self.n}")
        if self.family == "displacement":
            if self.k is None or not 0 <= self.k <= max(self.n - 1, 0):
                raise ValueError(f"displacement family needs 0 <= k <= n-1, got k={self.k} n={self.n}")
        elif self.family == "sorted-type":
            if not self.sizes:
                raise ValueError("sorted-type family needs a non-empty sizes tuple")
            _check_sizes(self.sizes, self.n)
        elif self.family == "multiset":
            if self.h is None or self.n < 1 or not 1 <= self.h <= self.n:
                raise ValueError(f"multiset family needs 1 <= h <= n, got h={self.h} n={self.n}")


def generate(spec: GenSpec) -> Sequence:
    """Produce the sequence a GenSpec describes.  Same spec, same bytes."""
    n = spec.n
    if spec.family == "sorted":
        return Sequence.from_keys(range(1, n + 1))
    if spec.family == "reverse":
        return Sequence.from_keys(range(n, 0, -1))
    if spec.family == "random":
        keys = list(range(1, n + 1))
        random.Random(spec.seed).shuffle(keys)
        return Sequence.from_keys(keys)
    if spec.family == "displacement":
        return _displacement(n, spec.k, spec.seed)
    if spec.family == "transpose":
        half = n // 2
        return Sequence.from_keys(list(range(half + 1, n + 1)) + list(range(1, half + 1)))
    if spec.family == "sorted-type":
        return realize_sorted_type(spec.sizes, spec.seed)
    return _multiset(n, spec.h, spec.seed)


def _displacement(n: int, k: int, seed: int) -> Sequence:
    """Sorted keys with every other (k+1)-block cyclically shifted.

    A right shift by s moves s items k+1-s slots left and the rest s slots
    right, so any 1 <= s <= k keeps displacement at most k.  The first
    block's shift is forced to 1 or k, both of which displace one element
    by exactly k, so the maximum is hit, not just bounded.  With k = 0
    every block is one key, so nothing shifts and no number is drawn.
    """
    keys = list(range(1, n + 1))
    rng = random.Random(seed)
    width = k + 1
    for lo in range(0, n, 2 * width):
        block = keys[lo : lo + width]
        if len(block) < 2:
            continue
        # Partial tail blocks shift within their own length.
        s = rng.choice((1, k)) if lo == 0 else rng.randint(1, min(k, len(block) - 1))
        keys[lo : lo + width] = block[-s:] + block[:-s]
    return Sequence.from_keys(keys)


def _multiset(n: int, h: int, seed: int) -> Sequence:
    rng = random.Random(seed)
    keys = list(range(1, h + 1)) + [rng.randint(1, h) for _ in range(n - h)]
    rng.shuffle(keys)
    return Sequence.from_keys(keys)


def realize_sorted_type(sizes, seed: int = 0) -> Sequence:
    """Build a sequence whose maximal-block decomposition has these sizes.

    Block i is handed the next run of consecutive keys, the block labels
    are shuffled into a random interleaving, and each block's keys are
    written in increasing order at its label positions.  Boundary b then
    merges if block b ends before block b+1 begins.  To unmerge them, take
    a block's first and last positions as its slots (one for a single
    key).  A chain holds, in block order, the last slot of a block of >= 2
    keys (or the start), each single-key slot after it, and the first slot
    of the next such block (or the end).  Each chain's positions are dealt
    back in decreasing order, slot (c, i) keeping c's (i+1)-th key.  Every
    boundary's two slots are adjacent in one chain, so it breaks; a first
    slot only moves earlier and a last slot only later, so no block breaks
    inside.  Sweeping the merging boundaries and swapping their slots ends
    in this same layout: a swap stays inside one chain and keeps each
    slot's key, and the sweep stops only once positions strictly decrease
    along every chain, which one assignment of the chain's positions does.
    """
    sizes = list(sizes)
    n = sum(sizes)
    _check_sizes(sizes, n)
    labels = [b for b, size in enumerate(sizes) for _ in range(size)]
    random.Random(seed).shuffle(labels)
    keys = [0] * n
    positions: list[list[int]] = [[] for _ in sizes]
    # handed[b] is the last key block b has been given so far.
    handed = list(accumulate(sizes, initial=0))
    for pos, b in enumerate(labels):
        handed[b] += 1
        keys[pos] = handed[b]
        positions[b].append(pos)
    # Each chain's slots in block order, as (key, position) pairs.
    chains: list[list[tuple[int, int]]] = [[]]
    for b, size in enumerate(sizes):
        chains[-1].append((handed[b] - size + 1, positions[b][0]))
        if size > 1:
            chains.append([(handed[b], positions[b][-1])])
    for chain in chains:
        slot_keys, slot_positions = zip(*chain)
        for key, pos in zip(slot_keys, sorted(slot_positions, reverse=True)):
            keys[pos] = key
    return Sequence.from_keys(keys)
