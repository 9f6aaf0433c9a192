"""Tagged items, comparison metering, and the shared verification oracle.

Every algorithm in this package works on sequences of items, each a
(key, tag) pair of ints.  The key is what gets compared; the tag remembers
where the item started, so stability can be checked after the fact instead
of trusted.  A Sequence is a key list and a tag column, and this module
alone decides their layout: others read them through its methods only.
"""

from __future__ import annotations

import io
import os
import re
from itertools import compress, islice
from operator import eq, ge, gt
from typing import Iterable, Optional, Union

KEY_MIN = -(2**63)
KEY_MAX = 2**63 - 1

# The generator families and pivot kinds, here so that the CLI can offer them
# without loading generators or sorters.
FAMILIES = ("sorted", "reverse", "random", "displacement", "transpose", "sorted-type", "multiset")
PIVOT_KINDS = ("median", "randmid", "fr")


class Sequence:
    """An immutable run of (key, tag) items, held as a key and a tag column.

    For a freshly loaded or generated input the tags are exactly the
    positions 0..n-1, as range(n).  Slices produced mid-algorithm (partition
    pieces and the like) keep their original tags, which is the whole point.
    Sequence(keys, tags) takes both columns over uncopied; from_keys copies.
    """

    __slots__ = ("_keys", "_tags")

    def __init__(self, keys: list[int], tags: Union[list[int], range]):
        if len(keys) != len(tags):
            raise ValueError(f"{len(keys)} keys but {len(tags)} tags")
        self._keys, self._tags = keys, tags

    @classmethod
    def from_keys(cls, keys: Iterable[int]) -> "Sequence":
        # keys must be ints; they are kept as given, tagged by position.
        return cls(keys := list(keys), range(len(keys)))

    @property
    def n(self) -> int:
        return len(self._keys)

    def keys(self) -> list[int]:
        return list(self._keys)

    def columns(self) -> tuple[list[int], Union[list[int], range]]:
        """The key list and tag column themselves, not copies: read only."""
        return self._keys, self._tags

    def tags_rise(self) -> bool:
        """True when no tag is below the one before it, as on fresh input."""
        return type(self._tags) is range or not any(map(gt, self._tags, islice(self._tags, 1, None)))

    def take(self, order: list[int]) -> "Sequence":
        """The items at the positions in order; fresh tags are the positions, so order becomes the tags."""
        tags = order if type(self._tags) is range else list(map(self._tags.__getitem__, order))
        return Sequence(list(map(self._keys.__getitem__, order)), tags)

    def __eq__(self, other) -> bool:
        # Tags element by element: range(2) == [0, 1] is False.
        return isinstance(other, Sequence) and self._keys == other._keys and all(map(eq, self._tags, other._tags))

    def __repr__(self) -> str:
        if self.n > 12:
            head = ", ".join(map(str, self._keys[:12]))
            return f"Sequence([{head}, ...], n={self.n})"
        return f"Sequence({self._keys!r})"


class Meter:
    """Counts key comparisons and item moves for one algorithm run.

    Counters only ever go up.  Each kernel in sorters tallies the key tests
    of its schedule in a local and adds them here in bulk.  A kernel that
    executes something cheaper than its schedule (a binary search, an
    unrolled group sort, a built-in sort of two runs) still charges the
    schedule exactly; the tests check every charge against keys that count
    the comparisons actually made on them.
    """

    __slots__ = ("comparisons", "moves")

    def __init__(self) -> None:
        self.comparisons = 0
        self.moves = 0


def _check_sizes(sizes, n: int) -> list[int]:
    sizes = list(sizes)
    if not sizes:
        raise ValueError("empty block-size list")
    if any(b <= 0 for b in sizes):
        raise ValueError(f"block sizes must be positive: {sizes}")
    if sum(sizes) != n:
        raise ValueError(f"block sizes sum to {sum(sizes)}, expected n={n}")
    return sizes


def verify_sorted_stable_permutation(inp: Sequence, out: Sequence) -> bool:
    """Uncounted oracle: is out the stable sort of inp?

    True iff out has the same (key, tag) multiset as inp, its keys are
    non-decreasing, and equal keys appear in increasing tag order.  Never
    raises; any mismatch (including length) just returns False.
    """
    keys, tags = out._keys, out._tags
    if inp.n != out.n or any(map(gt, keys, islice(keys, 1, None))):
        return False
    same = () if type(tags) is range else list(map(eq, keys, islice(keys, 1, None)))
    if any(map(ge, compress(tags, same), compress(islice(tags, 1, None), same))):
        return False  # equal keys whose tags do not rise
    if out is inp:  # sorters return an unmoved input as it came
        return True
    if type(inp._tags) is not range:
        return all(map(eq, sorted(zip(inp._keys, inp._tags)), zip(keys, tags)))
    # Tags in 0..n-1 whose keys match the input's there are distinct, hence
    # a permutation: a repeated tag would be two equal keys, whose tags rise.
    try:
        return min(tags, default=0) >= 0 and keys == list(map(inp._keys.__getitem__, tags))
    except (IndexError, TypeError):  # a tag past the end, or not an int
        return False


# -- text exchange format ----------------------------------------------------
#
# One key per line: after stripping surrounding whitespace, an optional sign
# followed by ASCII decimal digits (leading zeros allowed, no '_' digit
# separators).  Lines starting with '#' are comments and blank lines are
# ignored.  Tags are assigned by line order on load.

_KEY = re.compile(r"[+-]?[0-9]+")
# Leading '#' lines of ASCII text, each ended as text mode ends a line.
_HEADER = re.compile(rb"(?:#[^\r\n\x80-\xff]*(?:\r\n?|\n|\Z))*")
_BODY_BYTES = b"0123456789-\n\r\t "
# Keys per write in dump_sequence: a 2^16-key chunk formats to well under 2 MB.
_DUMP_CHUNK = 1 << 16


class SequenceFormatError(ValueError):
    """Raised when a sequence file does not parse or a key is out of range."""


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
        if not KEY_MIN <= value <= KEY_MAX:
            raise SequenceFormatError(f"line {lineno}: key {value} outside 64-bit signed range")
        keys.append(value)
    return keys


def _parse_bulk(data: bytes) -> Optional[list[int]]:
    """Keys of a file's bytes in C-level passes, or None when in any doubt.

    Handles the common file exactly: '#' header lines, then one in-range key
    per line with no leading zero, each line ended by '\n', '\r\n' or the
    end of the file.  The body may hold only digits, '-', '\n', '\r', tab
    and space; its lines become the items of one JSON array, and on that
    alphabet every number JSON accepts is a key of the same value.  Anything
    else (a blank line, a later comment, a '+', a leading zero, a lone '\r'
    between keys, an out-of-range key) returns None so that _parse_lines,
    the only code that raises, decides and words the error.
    """
    import json  # here, not at the top: only a file load pays its start-up cost

    body = data[_HEADER.match(data).end() :].removesuffix(b"\n")
    if body.translate(None, _BODY_BYTES):
        return None
    try:
        keys = json.loads(b"[" + body.replace(b"\n", b",") + b"]")
    except ValueError:  # not JSON, or more digits than int() converts
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
            return Sequence(keys, range(len(keys)))
        source = io.TextIOWrapper(io.BytesIO(data), encoding="ascii")
    try:
        keys = _parse_lines(source)
    except UnicodeDecodeError as exc:
        # The decoder's offset is not a line number.
        raise SequenceFormatError(f"not ASCII text: byte {exc.object[exc.start]:#04x}") from None
    return Sequence(keys, range(len(keys)))


def dump_sequence(s: Sequence, sink: Union[str, os.PathLike, io.TextIOBase], header: str = "") -> None:
    """Write a Sequence in the one-integer-per-line text format.

    Keys go out in chunks of _DUMP_CHUNK, each formatted by one '%' into
    one string and written at once.
    """
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", encoding="ascii") as fh:
            dump_sequence(s, fh, header=header)
            return
    if header:
        for line in header.splitlines():
            sink.write(f"# {line}\n")
    keys = s._keys
    for start in range(0, len(keys), _DUMP_CHUNK):
        chunk = tuple(keys[start : start + _DUMP_CHUNK])
        sink.write("%d\n" * len(chunk) % chunk)
