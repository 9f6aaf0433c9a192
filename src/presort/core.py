"""Tagged items, comparison metering, and the shared verification oracle.

Every algorithm in this package works on sequences of Item(key, tag) pairs.
The key is what gets compared; the tag remembers where the item started, so
stability can be checked after the fact instead of trusted.
"""

from __future__ import annotations

import io
import os
from typing import Iterable, Iterator, NamedTuple, Optional, Union

KEY_MIN = -(2**63)
KEY_MAX = 2**63 - 1


class Item(NamedTuple):
    """A sortable record: 64-bit signed key plus its original position."""

    key: int
    tag: int


class Sequence:
    """An immutable run of Items.

    For a freshly loaded or generated input the tags are exactly the
    positions 0..n-1.  Slices produced mid-algorithm (partition pieces and
    the like) keep their original tags, which is the whole point.
    """

    __slots__ = ("items",)

    def __init__(self, items: Iterable[Item]):
        self.items: tuple[Item, ...] = tuple(items)

    @classmethod
    def from_keys(cls, keys: Iterable[int]) -> "Sequence":
        return cls(Item(int(k), i) for i, k in enumerate(keys))

    @property
    def n(self) -> int:
        return len(self.items)

    def keys(self) -> list[int]:
        return [it.key for it in self.items]

    def tags(self) -> list[int]:
        return [it.tag for it in self.items]

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items)

    def __getitem__(self, i):
        return self.items[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and self.items == other.items

    def __hash__(self) -> int:
        return hash(self.items)

    def __repr__(self) -> str:
        if self.n > 12:
            head = ", ".join(str(it.key) for it in self.items[:12])
            return f"Sequence([{head}, ...], n={self.n})"
        return f"Sequence({self.keys()!r})"


class Meter:
    """Counts key comparisons and item moves for one algorithm run.

    Counters only ever go up.  Algorithms route every key-vs-key test
    through a Meter, either one call at a time (`less`, `greater`, `cmp3`)
    or through the bulk helpers their hot loops use.  Setting `trace` to a
    list switches every caller onto the one-call-per-test path and records
    each evaluated key pair, so a test can assert len(trace) equals the
    comparison counter exactly.
    """

    __slots__ = ("comparisons", "moves", "trace")

    def __init__(self) -> None:
        self.comparisons = 0
        self.moves = 0
        self.trace: Optional[list[tuple[int, int]]] = None

    # -- single counted tests ------------------------------------------------

    def less(self, a: int, b: int) -> bool:
        self.comparisons += 1
        if self.trace is not None:
            self.trace.append((a, b))
        return a < b

    def less_equal(self, a: int, b: int) -> bool:
        self.comparisons += 1
        if self.trace is not None:
            self.trace.append((a, b))
        return a <= b

    def greater(self, a: int, b: int) -> bool:
        self.comparisons += 1
        if self.trace is not None:
            self.trace.append((a, b))
        return a > b

    def cmp3(self, a: int, b: int) -> int:
        """Three-way compare: -1, 0, or +1.  Charges 1 test when a < b,
        otherwise a second test decides between equal and greater."""
        if self.less(a, b):
            return -1
        return 1 if self.greater(a, b) else 0

    # -- bulk counted scans (hot paths; trace falls back to single tests) ----

    def count_below(self, keys: Iterable[int], pivot: int) -> int:
        """How many keys compare strictly below pivot; one test per key."""
        if self.trace is not None:
            return sum(1 for k in keys if self.less(k, pivot))
        keys = list(keys)
        self.comparisons += len(keys)
        return sum(1 for k in keys if k < pivot)

    def first_descent(self, keys: list) -> int:
        """Index of the first adjacent descent in keys, or -1 if none.

        Scans pairs left to right and stops at the first keys[i] >
        keys[i+1], charging one comparison per pair examined: i+1 tests
        when the descent is at pair i, len(keys)-1 when already sorted.
        """
        if self.trace is not None:
            for i in range(len(keys) - 1):
                if self.greater(keys[i], keys[i + 1]):
                    return i
            return -1
        prev = None
        for i, k in enumerate(keys):
            if prev is not None and prev > k:
                self.comparisons += i
                return i - 1
            prev = k
        self.comparisons += max(len(keys) - 1, 0)
        return -1


def sorted_check(s: Sequence, m: Meter) -> bool:
    """Counted test that s is non-decreasing by key.

    Stops at the first violation, so a sorted input costs n-1 comparisons
    and an input that breaks at the first pair costs exactly 1.
    """
    return m.first_descent(s.keys()) < 0


def verify_sorted_stable_permutation(inp: Sequence, out: Sequence) -> bool:
    """Uncounted oracle: is out the stable sort of inp?

    True iff out has the same (key, tag) multiset as inp, its keys are
    non-decreasing, and equal keys appear in increasing tag order.  Never
    raises; any mismatch (including length) just returns False.
    """
    if inp.n != out.n:
        return False
    prev_key, prev_tag = KEY_MIN, -1
    for key, tag in out.items:
        if key < prev_key or (key == prev_key and tag <= prev_tag):
            return False
        prev_key, prev_tag = key, tag
    return sorted(inp.items) == list(out.items)


# -- text exchange format ----------------------------------------------------
#
# One decimal integer per line; lines starting with '#' are comments and
# blank lines are ignored.  Tags are assigned by line order on load.


class SequenceFormatError(ValueError):
    """Raised when a sequence file does not parse or a key is out of range."""


def _check_key(value: int, where: str) -> int:
    if not KEY_MIN <= value <= KEY_MAX:
        raise SequenceFormatError(f"{where}: key {value} outside 64-bit signed range")
    return value


def load_sequence(source: Union[str, os.PathLike, io.TextIOBase]) -> Sequence:
    """Read a Sequence from a path or text file object."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="ascii") as fh:
            return load_sequence(fh)
    keys = []
    try:
        for lineno, raw in enumerate(source, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                value = int(line)
            except ValueError:
                raise SequenceFormatError(f"line {lineno}: not an integer: {line!r}") from None
            keys.append(_check_key(value, f"line {lineno}"))
    except UnicodeDecodeError as exc:
        # Raised while reading, so the decoder's offset is not a line number.
        raise SequenceFormatError(f"not ASCII text: byte {exc.object[exc.start]:#04x}") from None
    return Sequence.from_keys(keys)


def dump_sequence(s: Sequence, sink: Union[str, os.PathLike, io.TextIOBase], header: str = "") -> None:
    """Write a Sequence in the one-integer-per-line text format."""
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", encoding="ascii") as fh:
            dump_sequence(s, fh, header=header)
            return
    if header:
        for line in header.splitlines():
            sink.write(f"# {line}\n")
    for it in s.items:
        sink.write(f"{it.key}\n")
