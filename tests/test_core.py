import io
import os
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presort import core
from presort.cli import main
from presort.core import (
    KEY_MAX,
    KEY_MIN,
    Meter,
    Sequence,
    SequenceFormatError,
    dump_sequence,
    _parse_lines,
    load_sequence,
    verify_sorted_stable_permutation,
)
from presort.generators import GenSpec, generate
from presort.sorters import PivotStrategy, partition_sort, sorted_check

from counting import counting_keys, executed
from vectors import SWAPPED_PAIRS16


def test_sequence_from_keys_assigns_tags_in_order():
    s = Sequence.from_keys([9, 3, 9])
    assert s == Sequence([9, 3, 9], [0, 1, 2])
    assert s.n == 3
    assert s.keys() == [9, 3, 9]
    assert list(s.columns()[1]) == [0, 1, 2]


def test_sorted_check_sorted_input_scans_every_pair():
    m = Meter()
    assert sorted_check(Sequence.from_keys([1, 2, 2, 3]), m) is True
    assert m.comparisons == 3


def test_sorted_check_stops_at_first_violation():
    m = Meter()
    assert sorted_check(Sequence.from_keys([2, 1, 9, 9]), m) is False
    assert m.comparisons == 1


def test_sorted_check_charges_violation_index_plus_one():
    # descent at pair index 2 costs exactly 3 comparisons
    m = Meter()
    assert sorted_check(Sequence.from_keys([1, 3, 7, 2, 8, 0]), m) is False
    assert m.comparisons == 3


def test_sorted_check_detects_swapped_pairs_vector():
    m = Meter()
    assert sorted_check(Sequence.from_keys(SWAPPED_PAIRS16), m) is False
    assert m.comparisons == 1  # 6 > 4 right at the front


@pytest.mark.parametrize("keys", [[], [5]])
def test_sorted_check_trivial_lengths_charge_nothing(keys):
    m = Meter()
    assert sorted_check(Sequence.from_keys(keys), m) is True
    assert m.comparisons == 0


@given(st.lists(st.integers(-50, 50), max_size=60))
def test_sorted_check_agrees_with_python(keys):
    m = Meter()
    assert sorted_check(Sequence.from_keys(keys), m) == (sorted(keys) == keys)
    assert 0 <= m.comparisons <= max(len(keys) - 1, 0)


@given(st.lists(st.integers(-50, 50), max_size=60))
def test_sorted_check_charges_the_tests_it_executes(keys):
    """The charge equals the tests the scan executes on counting keys: i when
    the first descent is at position i, n-1 on sorted input."""
    m = Meter()
    got, tests = executed(sorted_check, Sequence.from_keys(counting_keys(keys)), m)
    first = next((i for i in range(1, len(keys)) if keys[i - 1] > keys[i]), None)
    assert got == (first is None)
    assert m.comparisons == tests == (max(len(keys) - 1, 0) if first is None else first)


def test_verify_accepts_stable_sort():
    inp = Sequence([2, 1, 2], [0, 1, 2])
    out = Sequence([1, 2, 2], [1, 0, 2])
    assert verify_sorted_stable_permutation(inp, out)


def test_verify_rejects_equal_keys_out_of_tag_order():
    inp = Sequence([2, 1, 2], [0, 1, 2])
    out = Sequence([1, 2, 2], [1, 2, 0])
    assert not verify_sorted_stable_permutation(inp, out)


def test_verify_identity_on_sorted_input():
    s = Sequence.from_keys([1, 2, 2, 3])
    assert verify_sorted_stable_permutation(s, s)


def test_verify_rejects_length_and_multiset_mismatch():
    a = Sequence.from_keys([1, 2])
    assert not verify_sorted_stable_permutation(a, Sequence.from_keys([1]))
    # same keys but tags are not the input's tags
    forged = Sequence([1, 2], [1, 0])
    assert not verify_sorted_stable_permutation(a, forged)
    assert not verify_sorted_stable_permutation(a, Sequence.from_keys([1, 3]))


def test_verify_rejects_unsorted_output():
    a = Sequence.from_keys([2, 1])
    assert not verify_sorted_stable_permutation(a, a)
    # Same tuple, so the same multiset, yet equal keys with falling tags.
    a = Sequence([1, 1], [1, 0])
    assert not verify_sorted_stable_permutation(a, a)


def test_verify_accepts_a_sorted_input_returned_as_it_came():
    s = Sequence.from_keys([1, 2, 2, 3, 5, 5])
    outcome = partition_sort(s, PivotStrategy("median"), Meter())
    assert outcome.output is s
    assert verify_sorted_stable_permutation(s, outcome.output)


# Stable sorts of the input keys [2, 1, 2], forged: each must read False.
# Each is a (keys, tags) pair of columns.
FORGED_OUTPUTS = {
    "duplicate tag": ([1, 2, 2], [1, 0, 0]),
    "negative tag": ([1, 2, 2], [1, -3, 2]),  # -3 indexes the key 2 at tag 0
    "tag past the end": ([1, 2, 2], [1, 0, 3]),
    "key not its tag's": ([1, 2, 2], [0, 1, 2]),
    "equal keys, falling tags": ([1, 2, 2], [1, 2, 0]),
    "one item short": ([1, 2], [1, 0]),
    "one item long": ([1, 2, 2, 2], [1, 0, 2, 3]),
}
STABLE_OUTPUT = ([1, 2, 2], [1, 0, 2])


@pytest.mark.parametrize("fresh", [True, False], ids=["range tags", "list tags"])
@pytest.mark.parametrize("name", FORGED_OUTPUTS)
def test_verify_rejects_forged_outputs(name, fresh):
    inp = Sequence.from_keys([2, 1, 2]) if fresh else Sequence([2, 1, 2], [0, 1, 2])
    assert verify_sorted_stable_permutation(inp, Sequence(*STABLE_OUTPUT))
    assert verify_sorted_stable_permutation(inp, Sequence(*FORGED_OUTPUTS[name])) is False


def test_verify_checks_tags_that_are_not_positions():
    inp = Sequence([2, 1, 2], [7, 3, 9])
    assert verify_sorted_stable_permutation(inp, Sequence([1, 2, 2], [3, 7, 9]))
    assert not verify_sorted_stable_permutation(inp, Sequence([1, 2, 2], [3, 7, 8]))
    assert not verify_sorted_stable_permutation(inp, Sequence([1, 2, 2], [3, 7, 7]))
    assert not verify_sorted_stable_permutation(inp, Sequence([1, 2, 2], [1, 0, 2]))


def test_verify_rejects_fresh_tags_on_moved_keys():
    # Sorted keys tagged 0..n-1 afresh are not the input's items.
    inp = Sequence.from_keys([2, 1, 2])
    assert not verify_sorted_stable_permutation(inp, Sequence.from_keys([1, 2, 2]))
    assert verify_sorted_stable_permutation(inp, partition_sort(inp, PivotStrategy("median"), Meter()).output)


def test_sorted_input_allocates_no_pairs():
    """Fresh input is a key list and range(n): building 10^5 sorted keys,
    sorting and verifying them allocates under 16 bytes a key, where
    (key, tag) pairs took about 100."""
    keys = list(range(10**5))
    tracemalloc.start()
    try:
        s = Sequence.from_keys(keys)
        outcome = partition_sort(s, PivotStrategy("median"), Meter())
        ok = verify_sorted_stable_permutation(s, outcome.output)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok and outcome.output is s
    assert peak < 16 * len(keys)


@pytest.mark.parametrize("keys", [[], [7], [3, 1, 3, 2], list(range(20, 0, -1)), [5] * 14])
def test_pair_and_column_sequences_agree(keys):
    """A pair of list columns, from_keys's range(n) tags, and a sorter's
    routed positions read the same wherever their items agree."""
    fresh = Sequence.from_keys(keys)
    listed = Sequence(list(keys), list(range(len(keys))))
    out = partition_sort(fresh, PivotStrategy("median"), Meter()).output
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ref = Sequence([keys[p] for p in order], order)
    for a, b in ((fresh, listed), (listed, fresh), (out, ref), (ref, out)):
        assert a == b
        assert a.keys() == b.keys() and list(a.columns()[1]) == list(b.columns()[1])
        assert repr(a) == repr(b)
    assert list(fresh.columns()[1]) == list(range(len(keys)))


def test_sequence_columns_must_have_one_length():
    with pytest.raises(ValueError, match="2 keys but 3 tags"):
        Sequence([1, 2], [0, 1, 2])
    with pytest.raises(ValueError, match="1 keys but 0 tags"):
        Sequence([1], range(0))


def test_sequence_takes_its_columns_over_uncopied():
    keys, tags = [2, 1], [5, 4]
    got_keys, got_tags = Sequence(keys, tags).columns()
    assert got_keys is keys and got_tags is tags


def test_sequences_differing_only_in_tags_are_unequal():
    assert Sequence.from_keys([1, 1]) != Sequence([1, 1], [1, 0])
    assert Sequence([1, 1], [1, 0]) != Sequence.from_keys([1, 1])
    assert Sequence.from_keys([1, 1]) != Sequence.from_keys([1])


def test_sequence_keeps_its_items_and_hands_out_copies():
    keys = [3, 1, 2]
    s = Sequence.from_keys(keys)
    keys[0] = 99
    s.keys()[1] = 99
    assert s.keys() == [3, 1, 2] and list(s.columns()[1]) == [0, 1, 2]


# -- text format --------------------------------------------------------------


def test_load_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "in.txt"
    p.write_text("# header\n\n5\n-3\n# mid\n7\n\n")
    s = load_sequence(p)
    assert s.keys() == [5, -3, 7]
    assert list(s.columns()[1]) == [0, 1, 2]


def test_dump_load_round_trip(tmp_path):
    p = tmp_path / "out.txt"
    s = Sequence.from_keys([0, -9, KEY_MAX, KEY_MIN, 4])
    dump_sequence(s, p, header="two\nlines")
    text = p.read_text()
    assert text.startswith("# two\n# lines\n")
    assert load_sequence(p) == s


def test_load_rejects_garbage():
    with pytest.raises(SequenceFormatError, match="line 2"):
        load_sequence(io.StringIO("1\npotato\n"))


def test_load_rejects_out_of_range_keys():
    with pytest.raises(SequenceFormatError, match="64-bit"):
        load_sequence(io.StringIO(f"{KEY_MAX + 1}\n"))
    with pytest.raises(SequenceFormatError):
        load_sequence(io.StringIO(f"{KEY_MIN - 1}\n"))


@pytest.mark.parametrize("key", [KEY_MAX + 1, KEY_MIN - 1])
def test_load_path_rejects_out_of_range_keys(tmp_path, key):
    """A path goes through the bulk parser, whose range check declines the
    file so that the line parser words the error."""
    p = tmp_path / "in.txt"
    p.write_text(f"# header\n1\n{key}\n2\n")
    assert core._parse_bulk(p.read_bytes()) is None
    with pytest.raises(SequenceFormatError, match=f"^line 3: key {key} outside 64-bit signed range$"):
        load_sequence(p)


def test_load_rejects_non_ascii_bytes(tmp_path):
    p = tmp_path / "latin.txt"
    p.write_bytes(b"1\n\xc3\xa9\n2\n")
    with pytest.raises(SequenceFormatError, match="not ASCII"):
        load_sequence(p)
    p.write_bytes(b"# caf\xc3\xa9\n1\n2\n")  # in a header line too
    with pytest.raises(SequenceFormatError, match="not ASCII text: byte 0xc3"):
        load_sequence(p)


def test_load_accepts_extreme_keys():
    s = load_sequence(io.StringIO(f"{KEY_MIN}\n{KEY_MAX}\n"))
    assert s.keys() == [KEY_MIN, KEY_MAX]


def test_load_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_sequence(tmp_path / "nope.txt")


def test_load_accepts_sign_leading_zeros_and_padding():
    s = load_sequence(io.StringIO("+5\n -007\t\n0\r\n-0\n"))
    assert s.keys() == [5, -7, 0, 0]


def test_load_rejects_digit_separators():
    with pytest.raises(SequenceFormatError, match=r"^line 2: not an integer: '1_000'$"):
        load_sequence(io.StringIO("# header\n1_000\n"))


def test_load_rejects_non_ascii_digits():
    # int() accepts other scripts' digits; the format does not.
    with pytest.raises(SequenceFormatError, match="line 1: not an integer"):
        load_sequence(io.StringIO("\u0663\n"))


def test_load_reports_bad_line_decoded_before_a_non_ascii_byte(tmp_path):
    # A line read decodes in chunks, so a bad line in an earlier chunk is
    # what gets reported, not the byte after it.
    p = tmp_path / "late.txt"
    p.write_bytes(b"1\npotato\n" + b"2\n" * 20000 + b"\xc3\n")
    with pytest.raises(SequenceFormatError, match="^line 2: not an integer: 'potato'$"):
        load_sequence(p)
    p.write_bytes(b"1\n" * 20000 + b"\xc3\n")
    with pytest.raises(SequenceFormatError, match="not ASCII text: byte 0xc3"):
        load_sequence(p)


def test_load_path_breaks_lines_at_a_lone_cr(tmp_path):
    # Text mode breaks lines at a lone '\r', so a path's '1\r2' is two keys.
    p = tmp_path / "cr.txt"
    p.write_bytes(b"# a\rb\n1\r2\r\n3")
    with pytest.raises(SequenceFormatError, match="^line 2: not an integer: 'b'$"):
        load_sequence(p)
    p.write_bytes(b"# a\r1\r2\r\n3")
    assert load_sequence(p).keys() == [1, 2, 3]


@pytest.mark.parametrize("header", [b"", b"# run_id=7\n"])
def test_load_gen_file_takes_the_bulk_path(tmp_path, capsys, monkeypatch, header):
    p = tmp_path / "gen.txt"
    assert main(["gen", "--family", "random", "--n", "10000", "--seed", "7", "--out", str(p)]) == 0
    capsys.readouterr()
    p.write_bytes(header + p.read_bytes())

    def no_reference(lines):
        raise AssertionError("the line-by-line parser ran on a presort gen file")

    monkeypatch.setattr(core, "_parse_lines", no_reference)
    assert load_sequence(p) == generate(GenSpec("random", 10000, seed=7))


def _no_reference(lines):
    raise AssertionError("the line-by-line parser ran on a plain key file")


@pytest.mark.parametrize(
    "data, keys",
    [
        (b"1\r\n-2\r\n3\r\n", [1, -2, 3]),  # CRLF line ends
        (b"1\n2", [1, 2]),  # no final newline
        (f"-5\n{KEY_MIN}\n{KEY_MAX}\n-0\n".encode(), [-5, KEY_MIN, KEY_MAX, 0]),
        (b" 1\t\n\t-2 \n  3  \r\n", [1, -2, 3]),  # tab and space padding
        (b"# run_id=7 a_b\r\n#\n4\n5\n", [4, 5]),  # a header with '_'
        (b"# family=sorted n=0 seed=7\n", []),  # a header-only file
        (b"", []),
    ],
)
def test_load_plain_key_file_takes_the_bulk_path(tmp_path, monkeypatch, data, keys):
    p = tmp_path / "in.txt"
    p.write_bytes(data)
    monkeypatch.setattr(core, "_parse_lines", _no_reference)
    s = load_sequence(p)
    assert s.keys() == keys and list(s.columns()[1]) == list(range(len(keys)))


@pytest.mark.parametrize(
    "data",
    [
        b"+5\n",
        b"007\n",
        b"1\n\n2\n",  # a blank line
        b"1\r2\n",  # a lone '\r'
        b"1.5\n",
        b"1e3\n",
        b"NaN\n",
        b"Infinity\n",
        b"true\n",
        b"[1]\n",
        b'"5"\n',
        b"1,2\n",
        b"1" * 4301 + b"\n",
        f"{KEY_MAX + 1}\n".encode(),
    ],
)
def test_bulk_parser_declines_what_only_the_line_parser_decides(tmp_path, data):
    assert core._parse_bulk(data) is None
    p = tmp_path / "in.txt"
    p.write_bytes(data)
    with open(p, encoding="ascii") as fh:
        want = _or_error(_reference, fh)
    assert _or_error(load_sequence, p) == want


@pytest.mark.parametrize("n", [0, 1, 2**16 - 1, 2**16, 2**16 + 1])
@pytest.mark.parametrize("header", ["", "family=sorted n=3\nseed=7"])
def test_dump_writes_one_key_per_line_across_chunks(tmp_path, n, header):
    keys = [(KEY_MIN, KEY_MAX)[i % 2] if i % 5000 < 2 else i * 37 % 2001 - 1000 for i in range(n)]
    want = "".join(f"# {line}\n" for line in header.splitlines()) + "".join(f"{k}\n" for k in keys)
    s = Sequence(keys, range(n))
    sink = io.StringIO()
    dump_sequence(s, sink, header=header)
    assert sink.getvalue() == want
    p = tmp_path / "out.txt"
    dump_sequence(s, p, header=header)
    assert p.read_bytes() == want.encode("ascii")


# A sequence file grammar, good lines and bad: keys with signs, leading
# zeros, '_' separators and padding, keys just inside and outside the 64-bit
# range, comments anywhere, blank lines and junk, including tokens that JSON
# reads as values.  Lines end in '\n', '\r\n' or a lone '\r'; padding
# includes the '\x0b', '\x0c' and '\x1c' that str.strip() removes.
_NEAR_EDGES = [KEY_MIN - 1, KEY_MIN, KEY_MAX, KEY_MAX + 1, -(2**64), 2**64]
_OTHER_LINES = ["", " ", "\t", "#", "  # indented", "x", "1.5", "--1", "+", "-", "0x10", "1 2"]
_OTHER_LINES += ["1e3", "1E3", "NaN", "Infinity", "-Infinity", "true", "null", "[1]", '"5"', "1,2"]


@st.composite
def _key_line(draw, valid):
    """One key line; unless valid, it may carry a '_' or leave the range."""
    edges = [KEY_MIN, KEY_MAX] if valid else _NEAR_EDGES
    value = draw(st.one_of(*[st.integers(-1000, 1000)] * 3, st.sampled_from(edges)))
    digits = "0" * draw(st.integers(0, 2)) + str(abs(value))
    if not valid and draw(st.integers(0, 3)) == 0:
        cut = draw(st.integers(0, len(digits)))
        digits = digits[:cut] + "_" + digits[cut:]
    sign = "-" if value < 0 else draw(st.sampled_from(["", "", "+"]))
    pad = st.sampled_from(["", "", "", " ", "\t", " \t ", "\x0b", "\x0c", "\x1c"])
    return draw(pad) + sign + digits + draw(pad)


@st.composite
def _sequence_text(draw):
    """Header comments, then key lines only, or key lines mixed with the rest."""
    header = draw(st.lists(st.sampled_from(["# family=sorted n=3 seed=7", "#", "# run_id=7"]), max_size=2))
    if draw(st.booleans()):
        line = _key_line(valid=True)
    else:
        line = st.one_of(*[_key_line(valid=False)] * 3, st.sampled_from(_OTHER_LINES))
    lines = header + draw(st.lists(line, max_size=10))
    ends = [draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if ends and draw(st.booleans()):
        text = text[: -len(ends[-1])]
    return text


def _or_error(load, source):
    """load(source), or the text of the SequenceFormatError it raises."""
    try:
        return load(source)
    except SequenceFormatError as exc:
        return str(exc)


def _reference(lines):
    return Sequence.from_keys(_parse_lines(lines))


@given(_sequence_text())
@settings(max_examples=400)
def test_load_matches_per_line_reference(text):
    assert _or_error(load_sequence, io.StringIO(text)) == _or_error(_reference, io.StringIO(text))
    # A path is read as bytes; the reference reads it in text mode, whose
    # universal newlines also break lines at a lone '\r'.
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("ascii"))
        with open(path, encoding="ascii") as fh:
            want = _or_error(_reference, fh)
        assert _or_error(load_sequence, path) == want
    finally:
        os.unlink(path)
