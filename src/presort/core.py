"""Tagged items, comparison metering, and the shared verification oracle.

Every algorithm in this package works on sequences of items, each a plain
(key, tag) tuple of ints.  The key is what gets compared; the tag remembers
where the item started, so stability can be checked after the fact instead
of trusted.
"""

from __future__ import annotations

import io
import os
import re
from itertools import count, islice
from operator import eq, itemgetter
from typing import Iterable, Iterator, Optional, Union

KEY_MIN = -(2**63)
KEY_MAX = 2**63 - 1

# An item: a 64-bit signed key and its original position.
Item = tuple[int, int]


class Sequence:
    """An immutable run of (key, tag) items.

    For a freshly loaded or generated input the tags are exactly the
    positions 0..n-1.  Slices produced mid-algorithm (partition pieces and
    the like) keep their original tags, which is the whole point.
    """

    __slots__ = ("items",)

    def __init__(self, items: Iterable[Item]):
        self.items: tuple[Item, ...] = tuple(items)

    @classmethod
    def from_keys(cls, keys: Iterable[int]) -> "Sequence":
        # keys must be ints; they are paired as given.  A list first, then the
        # tuple, is about twice as fast as a tuple from the zip at n = 10**6.
        return cls(list(zip(keys, count())))

    @property
    def n(self) -> int:
        return len(self.items)

    def keys(self) -> list[int]:
        return list(map(itemgetter(0), self.items))

    def tags(self) -> list[int]:
        return list(map(itemgetter(1), self.items))

    def __iter__(self) -> Iterator[Item]:
        return iter(self.items)

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and self.items == other.items

    def __repr__(self) -> str:
        if self.n > 12:
            head = ", ".join(str(key) for key, _ in self.items[:12])
            return f"Sequence([{head}, ...], n={self.n})"
        return f"Sequence({self.keys()!r})"


class Meter:
    """Counts key comparisons and item moves for one algorithm run.

    Counters only ever go up.  Each kernel tallies the key tests of its
    schedule in a local and adds them here in bulk.  A kernel that executes
    something cheaper than its schedule (a binary search, an unrolled group
    sort, a built-in sort of two runs) still charges the schedule exactly;
    the tests check every charge against keys that count the comparisons
    actually made on them.
    """

    __slots__ = ("comparisons", "moves")

    def __init__(self) -> None:
        self.comparisons = 0
        self.moves = 0

    def first_descent(self, keys: list) -> int:
        """Index of the first adjacent descent in keys, or -1 if none.

        Scans pairs left to right and stops at the first keys[i] >
        keys[i+1], charging one comparison per pair examined: i+1 tests
        when the descent is at pair i, len(keys)-1 when already sorted.
        """
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
    # The same tuple is the same multiset (sorters return an unmoved input).
    return out.items is inp.items or all(map(eq, sorted(inp.items), out.items))


# -- text exchange format ----------------------------------------------------
#
# One key per line: after stripping surrounding whitespace, an optional sign
# followed by ASCII decimal digits (leading zeros allowed, no '_' digit
# separators).  Lines starting with '#' are comments and blank lines are
# ignored.  Tags are assigned by line order on load.

_KEY = re.compile(r"[+-]?[0-9]+")


class SequenceFormatError(ValueError):
    """Raised when a sequence file does not parse or a key is out of range."""


def _check_key(value: int, where: str) -> int:
    if not KEY_MIN <= value <= KEY_MAX:
        raise SequenceFormatError(f"{where}: key {value} outside 64-bit signed range")
    return value


def _parse_lines(lines: Iterable[str]) -> list[int]:
    """The reference parser: one line at a time, raising on the first bad one."""
    keys = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if not _KEY.fullmatch(line):
                raise ValueError(line)
            value = int(line)
        except ValueError:
            raise SequenceFormatError(f"line {lineno}: not an integer: {line!r}") from None
        keys.append(_check_key(value, f"line {lineno}"))
    return keys


def _parse_bulk(data: bytes) -> Optional[list[int]]:
    """Keys of a file's bytes in one C-level pass, or None when in any doubt.

    Handles the common file exactly: '#' header lines, then one in-range key
    per line, split at '\n', '\r' and '\r\n' as text mode splits.  Anything
    else (a blank line, a later comment, a non-ASCII byte or a '_' past the
    header, padding int() rejects, an out-of-range key) returns None so that
    _parse_lines, the only code that raises, decides and words the error.
    """
    lines = data.splitlines()
    start = 0
    while start < len(lines) and lines[start].startswith(b"#"):
        start += 1
    if not data.isascii() or data.count(b"_") != b"".join(lines[:start]).count(b"_"):
        return None
    try:
        keys = list(map(int, islice(lines, start, None)))
    except ValueError:
        return None
    if keys and not (KEY_MIN <= min(keys) and max(keys) <= KEY_MAX):
        return None
    return keys


def load_sequence(source: Union[str, os.PathLike, io.TextIOBase]) -> Sequence:
    """Read a Sequence from a path or text file object.

    A path is read once as bytes and parsed in bulk.  What that declines is
    decoded as an ASCII text-mode read would, and goes line by line through
    _parse_lines, as a text file object does.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as fh:
            data = fh.read()
        keys = _parse_bulk(data)
        if keys is not None:
            del data  # free the file's bytes before the items are built
            return Sequence.from_keys(keys)
        source = io.TextIOWrapper(io.BytesIO(data), encoding="ascii")
    try:
        return Sequence.from_keys(_parse_lines(source))
    except UnicodeDecodeError as exc:
        # The decoder's offset is not a line number.
        raise SequenceFormatError(f"not ASCII text: byte {exc.object[exc.start]:#04x}") from None


def dump_sequence(s: Sequence, sink: Union[str, os.PathLike, io.TextIOBase], header: str = "") -> None:
    """Write a Sequence in the one-integer-per-line text format."""
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", encoding="ascii") as fh:
            dump_sequence(s, fh, header=header)
            return
    if header:
        for line in header.splitlines():
            sink.write(f"# {line}\n")
    for key, _ in s.items:
        sink.write(f"{key}\n")
