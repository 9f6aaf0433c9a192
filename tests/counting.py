"""Keys that count the comparisons actually executed on them.

A kernel's Meter charge is checked against CountingKey.tests: the number
of <, <=, > and >= tests the kernel really made.  == is not counted, since
kernels use it only for uncharged checks such as u == v.  The per-item
references work on (key, tag) items, which items_of and sequence_of
convert to and from a Sequence's two columns.
"""

from itertools import count

from presort.core import Sequence


class CountingKey(int):
    """An int whose <, <=, > and >= each add one to CountingKey.tests.

    Against a plain int on either side a test still counts once: Python
    tries the reflected method of the subclass operand first.
    """

    __slots__ = ()
    tests = 0

    def __lt__(self, other):
        CountingKey.tests += 1
        return int.__lt__(self, other)

    def __le__(self, other):
        CountingKey.tests += 1
        return int.__le__(self, other)

    def __gt__(self, other):
        CountingKey.tests += 1
        return int.__gt__(self, other)

    def __ge__(self, other):
        CountingKey.tests += 1
        return int.__ge__(self, other)


def counting_keys(keys) -> list:
    return [CountingKey(k) for k in keys]


def counting_items(keys) -> list:
    """(key, tag) items with counting keys, tagged by position."""
    return list(zip(counting_keys(keys), count()))


def items_of(seq) -> list:
    """The (key, tag) items of seq, in order."""
    return list(zip(*seq.columns()))


def sequence_of(items) -> Sequence:
    """The Sequence of (key, tag) items, with list columns."""
    return Sequence([key for key, _ in items], [tag for _, tag in items])


def executed(fn, *args):
    """(fn(*args), number of key tests it executed)."""
    CountingKey.tests = 0
    result = fn(*args)
    return result, CountingKey.tests
