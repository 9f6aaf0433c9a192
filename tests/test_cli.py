import contextlib
import hashlib
import io
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from presort import census, cli, generators
from presort.census import MAX_WORST_CASE_N
from presort.cli import BENCH_HEADER, CENSUS_HEADER, main
from presort.core import FAMILIES, Meter, load_sequence
from presort.generators import GenSpec, generate
from presort.measures import count_runs, decompose_maximal
from presort.sorters import MERGE_SEGMENT, PIVOT_KINDS, PivotStrategy, partition_sort

from vectors import BLOCKS16


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_keys(path, keys):
    path.write_text("".join(f"{k}\n" for k in keys))


# -- gen -------------------------------------------------------------------


def test_gen_transpose(tmp_path, capsys):
    out = tmp_path / "t.txt"
    code, stdout, _ = run(capsys, "gen", "--family", "transpose", "--n", "8", "--out", str(out))
    assert code == 0
    assert "family=transpose" in stdout and "n=8" in stdout
    assert load_sequence(out).keys() == [5, 6, 7, 8, 1, 2, 3, 4]


def test_gen_sorted(tmp_path, capsys):
    out = tmp_path / "s.txt"
    assert run(capsys, "gen", "--family", "sorted", "--n", "3", "--out", str(out))[0] == 0
    assert load_sequence(out).keys() == [1, 2, 3]


def test_gen_sorted_type_verifies(tmp_path, capsys):
    out = tmp_path / "st.txt"
    code, _, _ = run(
        capsys, "gen", "--family", "sorted-type", "--n", "5", "--type", "3,2", "--seed", "7",
        "--out", str(out),
    )
    assert code == 0
    assert decompose_maximal(load_sequence(out)).size_multiset() == (3, 2)


def test_gen_bad_family_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, "gen", "--family", "bogus", "--n", "4", "--out", str(tmp_path / "x"))
    assert code == 1


def test_gen_bad_params_are_usage_errors(tmp_path, capsys):
    out = str(tmp_path / "x.txt")
    assert run(capsys, "gen", "--family", "displacement", "--n", "4", "--out", out)[0] == 1
    assert run(capsys, "gen", "--family", "sorted-type", "--n", "4", "--type", "3,2", "--out", out)[0] == 1
    assert run(capsys, "gen", "--family", "multiset", "--n", "4", "--h", "9", "--out", out)[0] == 1
    assert not os.path.exists(out)  # usage errors come before --out is opened


def test_gen_unwritable_out_exits_before_generating(tmp_path, capsys, monkeypatch):
    def no_generate(spec):
        raise AssertionError(f"generated {spec} before opening --out")

    monkeypatch.setattr(generators, "generate", no_generate)
    out = tmp_path / "missing" / "x.txt"
    code, stdout, err = run(capsys, "gen", "--family", "random", "--n", "1000000", "--out", str(out))
    assert code == 2
    assert stdout == "" and err.startswith("presort gen: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["-3", "3,-2", "3,", "2--1"])
def test_type_with_empty_part_is_usage_error(tmp_path, capsys, text):
    out = tmp_path / "x.txt"
    gen = ["gen", "--family", "sorted-type", "--n", "3", "--out", str(out)]
    bench = ["bench", "--families", "sorted-type", "--sizes", "3", "--algos", "insertion"]
    for argv in (gen, bench):
        code, stdout, err = run(capsys, *argv, "--type", text)
        assert code == 1
        assert stdout == ""
        assert err.endswith(f"error: argument --type: bad block sizes {text!r}\n")
    assert not out.exists()


# Each part must follow the key grammar of input files: no empty parts, no
# digit separators, ASCII digits only.
@pytest.mark.parametrize("text", ["", ",", "8,,4", "1_0", "\u0661\u0660", "8,x"])
def test_bad_list_parts_are_usage_errors(tmp_path, capsys, text):
    out = tmp_path / "x.txt"
    gen = ["gen", "--family", "sorted-type", "--n", "10", "--out", str(out), "--type", text]
    bench = ["bench", "--families", "sorted", "--algos", "insertion", "--sizes", text]
    cases = ((gen, f"--type: bad block sizes {text!r}"), (bench, f"--sizes: bad integer list {text!r}"))
    for argv, what in cases:
        code, stdout, err = run(capsys, *argv)
        assert code == 1
        assert stdout == ""
        assert err.endswith(f"error: argument {what}\n")
        assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("text", ["+8", " 8", "08"])
def test_list_parts_take_a_sign_padding_and_leading_zeros(tmp_path, capsys, text):
    out = tmp_path / "x.txt"
    gen = ["gen", "--family", "sorted-type", "--n", "8", "--type", text, "--out", str(out)]
    assert run(capsys, *gen)[0] == 0
    assert load_sequence(out).keys() == list(range(1, 9))
    bench = ["bench", "--families", "sorted", "--sizes", f"{text},4", "--algos", "insertion"]
    code, stdout, _ = run(capsys, *bench)
    assert code == 0
    assert [line.split(",")[1] for line in stdout.splitlines()[1:]] == ["4", "8"]


def test_type_accepts_either_separator(tmp_path, capsys):
    for text in ("3-2", "3,2"):
        out = tmp_path / "t.txt"
        assert run(capsys, "gen", "--family", "sorted-type", "--n", "5", "--type", text, "--out", str(out))[0] == 0
        assert decompose_maximal(load_sequence(out)).size_multiset() == (3, 2)
        code, stdout, _ = run(
            capsys, "bench", "--families", "sorted-type", "--sizes", "5", "--type", text,
            "--algos", "insertion", "--no-time",
        )
        assert code == 0
        assert stdout.splitlines()[1].startswith("sorted-type,5,type=3-2,insertion,")


# -- measure -----------------------------------------------------------------


def test_measure_key_value_lines(tmp_path, capsys):
    f = tmp_path / "b.txt"
    write_keys(f, BLOCKS16)
    code, stdout, _ = run(capsys, "measure", "--in", str(f))
    assert code == 0
    lines = dict(line.split("=", 1) for line in stdout.strip().splitlines())
    assert lines["n"] == "16"
    assert lines["k"] == "8"
    assert lines["sizes"] == "6-2-2-2-1-1-1-1"
    assert lines["displacement"] == "13"
    assert float(lines["H"]) == pytest.approx(2.655639, abs=1e-6)


def test_measure_sorted_file(tmp_path, capsys):
    f = tmp_path / "s.txt"
    write_keys(f, range(10))
    _, stdout, _ = run(capsys, "measure", "--in", str(f))
    lines = dict(line.split("=", 1) for line in stdout.strip().splitlines())
    assert lines["H"] == "0.000000"
    assert lines["inversions"] == "0"
    assert lines["displacement"] == "0"


def test_measure_reverse_inversions(tmp_path, capsys):
    f = tmp_path / "r.txt"
    write_keys(f, [4, 3, 2, 1])
    _, stdout, _ = run(capsys, "measure", "--in", str(f))
    assert "inversions=6" in stdout


def test_measure_csv_row(tmp_path, capsys):
    f = tmp_path / "b.txt"
    write_keys(f, BLOCKS16)
    code, stdout, _ = run(capsys, "measure", "--in", str(f), "--csv")
    lines = stdout.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("n,k,sizes,")
    assert lines[1].startswith("16,8,6-2-2-2-1-1-1-1,")


# presort measure --csv on `gen --n 1000 --seed 3` of each family: the sha-256
# of the two output lines, and the row with its sizes column elided.
MEASURE_1000_GOLDEN = {
    ("sorted",): (
        "e4298e9d59e8fc23703733a451091d47a750f9ae6ab7764beb4cf447dd6e5945",
        "1000,1,...,0.000000,2000.000000,0,0,1,1000",
    ),
    ("reverse",): (
        "46f032d282df079ffac5e87525f2f23e2a00ddfba1af127a067005c44ab62028",
        "1000,1000,...,9.965784,10967.226259,499500,999,1000,1000",
    ),
    ("random",): (
        "13a04cc713bb0a05aa20f0195231c6fbfa8834d8521298e33a0cff0d8f98998d",
        "1000,511,...,8.847870,9851.299080,242841,974,506,1000",
    ),
    ("displacement", "--k", "8"): (
        "b8cb88f3d9b84ea2abe90a5c98b6360fb19466a77bc0ddd5897f50a7f9fa9f36",
        "1000,57,...,5.803623,6829.668242,826,8,57,1000",
    ),
    ("transpose",): (
        "8c3d6841dd3630dbc7f4001e4a12d25da752fa1a5fa2389cb291cadedbefeff5",
        "1000,2,...,1.000000,2584.962501,250000,500,2,1000",
    ),
    ("sorted-type", "--type", "400,300,200,100"): (
        "ad9a9518668a59c8a049207eee4b715538e2224b779657f19fe5931fc72fd8b6",
        "1000,4,...,1.846439,3220.520796,169125,899,348,1000",
    ),
    ("multiset", "--h", "16"): (
        "7d53f90f09ad0c0d1ac3d23ef37c3ba7048f29273119866748df41e9a3fa824a",
        "1000,16,...,3.994164,5082.303192,239741,937,486,16",
    ),
}


@pytest.mark.parametrize("family", MEASURE_1000_GOLDEN, ids=lambda f: f[0])
def test_measure_csv_golden_bytes(tmp_path, capsys, family):
    f = tmp_path / "in.txt"
    assert run(capsys, "gen", "--family", *family, "--n", "1000", "--seed", "3", "--out", str(f))[0] == 0
    code, stdout, _ = run(capsys, "measure", "--in", str(f), "--csv")
    digest, row = MEASURE_1000_GOLDEN[family]
    fields = stdout.splitlines()[1].split(",")
    assert code == 0
    assert ",".join([*fields[:2], "...", *fields[3:]]) == row
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest


def test_measure_missing_file_exit_2(capsys):
    assert run(capsys, "measure", "--in", "/no/such/file")[0] == 2


def test_measure_garbage_file_exit_2(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("hello\n")
    assert run(capsys, "measure", "--in", str(f))[0] == 2


# -- sort -------------------------------------------------------------------


def test_sort_psort_reports_and_writes(tmp_path, capsys):
    f = tmp_path / "b.txt"
    write_keys(f, BLOCKS16)
    out = tmp_path / "sorted.txt"
    code, stdout, _ = run(
        capsys, "sort", "--in", str(f), "--algo", "psort", "--pivot", "median", "--out", str(out)
    )
    assert code == 0
    assert "sorted=true" in stdout
    assert "comparisons=" in stdout and "retries=" in stdout
    assert load_sequence(out).keys() == sorted(BLOCKS16)


def test_sort_sorted_input_charges_n_minus_1(tmp_path, capsys):
    f = tmp_path / "s.txt"
    write_keys(f, range(1000))
    _, stdout, _ = run(capsys, "sort", "--in", str(f), "--algo", "psort")
    assert "comparisons=999" in stdout


def test_sort_blocked_ok(tmp_path, capsys):
    f = tmp_path / "w.txt"
    write_keys(f, [2, 1, 4, 3, 6, 5, 8, 7])
    code, stdout, _ = run(capsys, "sort", "--in", str(f), "--algo", "blocked", "--k", "1")
    assert code == 0
    assert "sorted=true" in stdout


def test_sort_blocked_underpowered_k_exit_3(tmp_path, capsys):
    f = tmp_path / "w.txt"
    write_keys(f, [9, 1, 2, 3, 4, 5, 6, 7, 8, 0])
    code, stdout, _ = run(capsys, "sort", "--in", str(f), "--algo", "blocked", "--k", "1")
    assert code == 3
    assert "sorted=false" in stdout


def test_sort_blocked_empty_file_exit_0(tmp_path, capsys):
    f = tmp_path / "empty.txt"
    f.write_text("")
    code, stdout, _ = run(capsys, "sort", "--in", str(f), "--algo", "blocked", "--k", "1")
    assert code == 0
    assert "comparisons=0" in stdout and "sorted=true" in stdout


def test_non_ascii_input_exit_2_one_line(tmp_path, capsys):
    f = tmp_path / "latin.txt"
    f.write_bytes(b"3\n\xe9\n1\n")
    for cmd in (["sort", "--algo", "psort"], ["measure"]):
        code, stdout, err = run(capsys, cmd[0], "--in", str(f), *cmd[1:])
        assert code == 2
        assert stdout == ""
        assert err.count("\n") == 1 and "not ASCII" in err


def test_digit_separator_key_exit_2(tmp_path, capsys):
    f = tmp_path / "sep.txt"
    f.write_text("# header\n+5\n1_000\n")
    for cmd in (["sort", "--algo", "psort"], ["measure"]):
        code, stdout, err = run(capsys, cmd[0], "--in", str(f), *cmd[1:])
        assert code == 2
        assert stdout == ""
        assert err == f"presort {cmd[0]}: line 3: not an integer: '1_000'\n"


@given(st.one_of(st.binary(max_size=200), st.text("0123456789+-_#x \t\r\n\x0b\x0c\x1c", max_size=200).map(str.encode)))
@settings(max_examples=150, deadline=None)
def test_arbitrary_input_bytes_exit_0_or_2_with_one_line(data):
    # In-process, so an escaping exception fails the test as a traceback would.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        for argv in (["sort", "--in", path, "--algo", "psort"], ["measure", "--in", path]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 2)
            assert err.getvalue().count("\n") <= 1
            assert "Traceback" not in err.getvalue()
            assert (code == 2) == bool(err.getvalue())


def test_sort_blocked_missing_k_exit_1(tmp_path, capsys):
    f = tmp_path / "w.txt"
    write_keys(f, [2, 1])
    assert run(capsys, "sort", "--in", str(f), "--algo", "blocked")[0] == 1


def test_sort_randmid_and_fr(tmp_path, capsys):
    f = tmp_path / "b.txt"
    write_keys(f, BLOCKS16)
    for pivot in ("randmid", "fr"):
        code, stdout, _ = run(
            capsys, "sort", "--in", str(f), "--algo", "psort", "--pivot", pivot, "--seed", "5"
        )
        assert code == 0
        assert "sorted=true" in stdout


# -- bench -------------------------------------------------------------------


def bench_args(out, extra=()):
    return [
        "bench",
        "--families", "sorted,transpose",
        "--sizes", "64,128",
        "--algos", "psort-median,insertion,natmerge",
        "--trials", "2",
        "--seed", "3",
        "--out", str(out),
        "--no-time",
        *extra,
    ]


def test_bench_csv_shape_and_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(bench_args(a)) == 0
    assert main(bench_args(b)) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == BENCH_HEADER
    # 2 families x 2 sizes x 3 algos x 2 trials
    assert len(lines) == 1 + 24
    cols = [line.split(",") for line in lines[1:]]
    assert all(c[-1] == "0" for c in cols)  # --no-time zeroes elapsed_ns
    order = [(c[0], int(c[1]), c[3], int(c[5])) for c in cols]
    assert order == sorted(order)


def test_bench_elapsed_is_the_only_nondeterministic_column(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = bench_args(a)[:-2]  # drop --no-time (and --out pair stays)
    argv = [x for x in bench_args(a) if x != "--no-time"]
    assert main(argv) == 0
    argv_b = [x for x in bench_args(b) if x != "--no-time"]
    assert main(argv_b) == 0
    capsys.readouterr()
    rows_a = [line.rsplit(",", 1) for line in a.read_text().splitlines()]
    rows_b = [line.rsplit(",", 1) for line in b.read_text().splitlines()]
    assert [r[0] for r in rows_a] == [r[0] for r in rows_b]


def test_bench_ratio_column_consistent(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(bench_args(out)) == 0
    capsys.readouterr()
    for line in out.read_text().splitlines()[1:]:
        cols = line.split(",")
        cmp_count, bound, ratio = int(cols[6]), float(cols[8]), float(cols[10])
        assert ratio == pytest.approx(cmp_count / bound, abs=1e-5)


def test_bench_param_column(tmp_path, capsys):
    out = tmp_path / "p.csv"
    code = main([
        "bench", "--families", "displacement,multiset,sorted-type",
        "--sizes", "32", "--algos", "blocked", "--k", "4", "--h", "8", "--blocks", "4",
        "--trials", "1", "--out", str(out), "--no-time",
    ])
    capsys.readouterr()
    assert code == 3  # blocked at k = 4 does not sort the multiset input
    params = {line.split(",")[0]: line.split(",")[2] for line in out.read_text().splitlines()[1:]}
    assert params == {"displacement": "k=4", "multiset": "h=8", "sorted-type": "type=8-8-8-8"}


# `presort bench` output for three families at n = 16 under all six algos,
# pinned byte for byte.
BENCH_16_GOLDEN = """\
family,n,param,algo,pivot,seed,comparisons,moves,bound_B,entropy_H,ratio,elapsed_ns
multiset,16,h=5,blocked,,0,49,80,52.512317,1.936278,0.933114,0
multiset,16,h=5,blocked,,1,47,80,56.308254,2.227217,0.834691,0
multiset,16,h=5,insertion,,0,60,58,52.512317,1.936278,1.142589,0
multiset,16,h=5,insertion,,1,76,73,56.308254,2.227217,1.349713,0
multiset,16,h=5,natmerge,,0,51,45,52.512317,1.936278,0.971201,0
multiset,16,h=5,natmerge,,1,51,46,56.308254,2.227217,0.905729,0
multiset,16,h=5,psort,fr,0,51,45,52.512317,1.936278,0.971201,0
multiset,16,h=5,psort,median,0,51,45,52.512317,1.936278,0.971201,0
multiset,16,h=5,psort,randmid,0,51,45,52.512317,1.936278,0.971201,0
multiset,16,h=5,psort,fr,1,51,46,56.308254,2.227217,0.905729,0
multiset,16,h=5,psort,median,1,51,46,56.308254,2.227217,0.905729,0
multiset,16,h=5,psort,randmid,1,51,46,56.308254,2.227217,0.905729,0
sorted-type,16,type=8-8,blocked,,0,46,80,41.359400,1.000000,1.112202,0
sorted-type,16,type=8-8,blocked,,1,50,80,41.359400,1.000000,1.208915,0
sorted-type,16,type=8-8,insertion,,0,47,41,41.359400,1.000000,1.136380,0
sorted-type,16,type=8-8,insertion,,1,38,30,41.359400,1.000000,0.918775,0
sorted-type,16,type=8-8,natmerge,,0,46,38,41.359400,1.000000,1.112202,0
sorted-type,16,type=8-8,natmerge,,1,46,43,41.359400,1.000000,1.112202,0
sorted-type,16,type=8-8,psort,fr,0,46,38,41.359400,1.000000,1.112202,0
sorted-type,16,type=8-8,psort,median,0,46,38,41.359400,1.000000,1.112202,0
sorted-type,16,type=8-8,psort,randmid,0,46,38,41.359400,1.000000,1.112202,0
sorted-type,16,type=8-8,psort,fr,1,46,43,41.359400,1.000000,1.112202,0
sorted-type,16,type=8-8,psort,median,1,46,43,41.359400,1.000000,1.112202,0
sorted-type,16,type=8-8,psort,randmid,1,46,43,41.359400,1.000000,1.112202,0
transpose,16,,blocked,,0,40,80,41.359400,1.000000,0.967132,0
transpose,16,,blocked,,1,40,80,41.359400,1.000000,0.967132,0
transpose,16,,insertion,,0,78,72,41.359400,1.000000,1.885907,0
transpose,16,,insertion,,1,78,72,41.359400,1.000000,1.885907,0
transpose,16,,natmerge,,0,23,16,41.359400,1.000000,0.556101,0
transpose,16,,natmerge,,1,23,16,41.359400,1.000000,0.556101,0
transpose,16,,psort,fr,0,23,16,41.359400,1.000000,0.556101,0
transpose,16,,psort,median,0,23,16,41.359400,1.000000,0.556101,0
transpose,16,,psort,randmid,0,23,16,41.359400,1.000000,0.556101,0
transpose,16,,psort,fr,1,23,16,41.359400,1.000000,0.556101,0
transpose,16,,psort,median,1,23,16,41.359400,1.000000,0.556101,0
transpose,16,,psort,randmid,1,23,16,41.359400,1.000000,0.556101,0
"""


def test_bench_golden_bytes(capsys):
    code, stdout, _ = run(
        capsys, "bench", "--families", "transpose,sorted-type,multiset", "--sizes", "16",
        "--algos", "psort-median,psort-randmid,psort-fr,blocked,insertion,natmerge",
        "--trials", "2", "--k", "4", "--h", "5", "--blocks", "2", "--no-time",
    )
    assert code == 3  # blocked at k = 4 sorts neither multiset nor transpose at n = 16
    assert stdout == BENCH_16_GOLDEN


def test_bench_exits_0_when_every_blocked_run_verifies(capsys):
    code, stdout, err = run(
        capsys, "bench", "--families", "sorted,displacement", "--sizes", "64,256",
        "--algos", "blocked,psort-median", "--trials", "2", "--k", "8", "--no-time",
    )
    assert (code, err) == (0, "")
    assert len(stdout.splitlines()) == 1 + 2 * 2 * 2 * 2


def test_bench_failed_verification_still_writes_the_csv(tmp_path, capsys):
    out = tmp_path / "b.csv"
    grid = ["--families", "transpose,sorted-type,multiset", "--sizes", "16",
            "--algos", "psort-median,psort-randmid,psort-fr,blocked,insertion,natmerge",
            "--trials", "2", "--k", "4", "--h", "5", "--blocks", "2", "--no-time"]
    code, stdout, err = run(capsys, "bench", *grid, "--out", str(out))
    assert (code, stdout) == (3, "")
    assert out.read_text() == BENCH_16_GOLDEN
    # The first failed row in CSV order; blocked sorts sorted-type 8-8 at k = 4.
    assert err == "presort bench: output failed verification in row multiset,16,h=5,blocked,,0\n"


# At n = 16 every psort segment is a merge leaf, charged as natmerge.  At
# n = 4096 each pivot kind selects on random keys and on displacement k = 2
# (684 runs here, more than MERGE_SEGMENT), so selection's comparisons show
# in those rows; transpose (two runs) is one merge after the run scan under
# every kind.
BENCH_4096_GOLDEN = """\
family,n,param,algo,pivot,seed,comparisons,moves,bound_B,entropy_H,ratio,elapsed_ns
displacement,4096,k=2,psort,fr,0,49387,39576,42633.336449,9.406390,1.158413,0
displacement,4096,k=2,psort,median,0,47132,39576,42633.336449,9.406390,1.105520,0
displacement,4096,k=2,psort,randmid,0,49843,39751,42633.336449,9.406390,1.169109,0
random,4096,,psort,fr,0,95811,45411,48444.871630,10.826482,1.977733,0
random,4096,,psort,median,0,100147,45411,48444.871630,10.826482,2.067236,0
random,4096,,psort,randmid,0,76038,46378,48444.871630,10.826482,1.569578,0
transpose,4096,,psort,fr,0,6143,4096,10588.006403,1.000000,0.580185,0
transpose,4096,,psort,median,0,6143,4096,10588.006403,1.000000,0.580185,0
transpose,4096,,psort,randmid,0,6143,4096,10588.006403,1.000000,0.580185,0
"""


def test_bench_golden_bytes_above_merge_leaf(capsys):
    for family, k in (("random", None), ("displacement", 2)):
        s = generate(GenSpec(family, 4096, k=k, seed=0))
        assert count_runs(s) > MERGE_SEGMENT, family
        for kind in PIVOT_KINDS:
            assert partition_sort(s, PivotStrategy(kind, 0), Meter()).max_recursion_depth > 1, (family, kind)
    code, stdout, _ = run(
        capsys, "bench", "--families", "random,displacement,transpose", "--sizes", "4096",
        "--algos", "psort-median,psort-randmid,psort-fr", "--trials", "1", "--k", "2", "--no-time",
    )
    assert code == 0
    assert stdout == BENCH_4096_GOLDEN


def test_bench_usage_errors(tmp_path, capsys):
    base = ["bench", "--sizes", "8", "--trials", "1"]
    assert main(base + ["--families", "nope", "--algos", "insertion"]) == 1
    assert main(base + ["--families", "sorted", "--algos", "quantum"]) == 1
    assert main(base + ["--families", "multiset", "--algos", "insertion"]) == 1  # missing --h
    assert main(base + ["--families", "sorted", "--algos", "blocked"]) == 1  # missing --k
    assert main(["bench", "--families", "sorted", "--sizes", "8", "--algos", "insertion",
                 "--trials", "0"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "extra",
    [
        ["--families", "sorted,multiset", "--algos", "insertion"],  # no --h
        ["--families", "sorted", "--algos", "insertion,blocked"],  # no --k
        ["--families", "sorted", "--algos", "blocked", "--k", "9"],  # window past n
        ["--families", "sorted", "--sizes", "8,-1", "--algos", "insertion"],
        ["--families", "sorted-type", "--algos", "insertion", "--blocks", "3"],
        ["--families", "displacement", "--algos", "insertion"],  # no --k
        ["--families", "sorted-type", "--algos", "insertion"],  # no --type or --blocks
        ["--families", "nope", "--algos", "insertion"],
    ],
)
def test_bench_usage_error_leaves_out_unchanged(tmp_path, capsys, extra):
    out = tmp_path / "bench.csv"
    out.write_bytes(b"earlier bytes\n")
    code, stdout, err = run(capsys, "bench", "--sizes", "8", *extra, "--out", str(out))
    assert code == 1
    assert stdout == "" and err.startswith("presort bench: ") and err.count("\n") == 1
    assert out.read_bytes() == b"earlier bytes\n"
    message = err.removeprefix("presort bench: ")
    family = extra[1].split(",")[-1]
    if family in ("displacement", "multiset"):
        # gen words a missing parameter of the same family at the same n alike.
        gen_out = tmp_path / "gen.txt"
        gen = run(capsys, "gen", "--family", family, "--n", "8", "--out", str(gen_out))
        assert gen == (1, "", "presort gen: " + message) and not gen_out.exists()
    if family == "nope":
        assert all(repr(name) in message for name in FAMILIES)


def test_bench_unwritable_out_exits_before_generating(tmp_path, capsys, monkeypatch):
    def no_generate(spec):
        raise AssertionError(f"generated {spec} before opening --out")

    monkeypatch.setattr(generators, "generate", no_generate)
    argv = ["bench", "--families", "sorted", "--sizes", "8", "--algos", "insertion"]
    code, stdout, err = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert stdout == "" and err.startswith("presort bench: ") and err.count("\n") == 1


def test_sort_unwritable_out_exits_before_sorting(tmp_path, capsys, monkeypatch):
    def no_sort(*args):
        raise AssertionError("sorted before opening --out")

    monkeypatch.setattr(cli, "_run_sorter", no_sort)
    f = tmp_path / "in.txt"
    write_keys(f, [2, 1, 3])
    out = tmp_path / "missing" / "x.txt"
    code, stdout, err = run(capsys, "sort", "--in", str(f), "--algo", "psort", "--out", str(out))
    assert code == 2
    assert stdout == "" and err.startswith("presort sort: ") and err.count("\n") == 1


def test_sort_out_may_name_the_input(tmp_path, capsys):
    f = tmp_path / "in.txt"
    write_keys(f, [3, 1, 2, 1])
    code, stdout, _ = run(capsys, "sort", "--in", str(f), "--algo", "psort", "--out", str(f))
    assert code == 0 and "sorted=true" in stdout
    assert load_sequence(str(f)).keys() == [1, 1, 2, 3]


def test_sort_usage_error_leaves_out_unchanged(tmp_path, capsys):
    f = tmp_path / "in.txt"
    write_keys(f, [2, 1, 3])
    out = tmp_path / "out.txt"
    out.write_bytes(b"earlier bytes\n")
    code, stdout, err = run(capsys, "sort", "--in", str(f), "--algo", "blocked", "--out", str(out))
    assert code == 1
    assert stdout == "" and err == "presort sort: blocked needs --k\n"
    assert out.read_bytes() == b"earlier bytes\n"


# -- census -------------------------------------------------------------------


def test_census_n3_csv(capsys):
    code, stdout, _ = run(capsys, "census", "--n", "3")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == CENSUS_HEADER
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert set(rows) == {"3", "2-1", "1-1-1"}
    assert sum(int(r[1]) for r in rows.values()) == 6
    # eq1_rhs = multinomial / k! on every type: 3!/3!, 3!/(2! 1! 2!), 3!/3!
    assert [rows[t][2] for t in ("3", "2-1", "1-1-1")] == ["1.000000", "1.500000", "1.000000"]
    assert all(r[4] == "" for r in rows.values())  # no worst-case column content


def test_census_n1(capsys):
    code, stdout, _ = run(capsys, "census", "--n", "1")
    rows = stdout.strip().splitlines()[1:]
    assert code == 0
    assert rows == ["1,1,1.000000,0,"]


def test_census_worstcase_column(capsys):
    code, stdout, _ = run(capsys, "census", "--n", "4", "--worstcase", "psort-median")
    assert code == 0
    for line in stdout.strip().splitlines()[1:]:
        cols = line.split(",")
        wc, info_bits = int(cols[4]), int(cols[3])
        assert wc >= info_bits


# `presort census --n 8 --worstcase psort-median` without its eq1_rhs
# column.  nu and info_bits are as the permutation-walk census printed
# them; the worst cases were re-recorded when the insertion leaf stopped
# scanning before it sorts.
CENSUS_8_MEDIAN = """\
type,nu,info_bits,worst_case_comparisons
8,1,0,7
4-4,69,7,22
5-3,110,7,21
6-2,54,6,18
7-1,14,4,13
3-3-2,1403,11,26
4-2-2,1011,10,25
4-3-1,1150,11,24
5-2-1,646,10,22
6-1-1,83,7,18
2-2-2-2,1385,11,28
3-2-2-1,8660,14,27
3-3-1-1,2226,12,26
4-2-1-1,3080,12,25
5-1-1-1,268,9,22
2-2-2-1-1,7954,13,28
3-2-1-1-1,7164,13,27
4-1-1-1-1,501,9,25
2-2-1-1-1-1,3771,12,28
3-1-1-1-1-1,522,10,27
2-1-1-1-1-1-1,247,8,28
1-1-1-1-1-1-1-1,1,0,28
"""


def test_census_n8_worstcase_golden(capsys):
    code, stdout, _ = run(capsys, "census", "--n", "8", "--worstcase", "psort-median")
    assert code == 0
    rows = [line.split(",") for line in stdout.splitlines()]
    assert "".join(",".join(cols[:2] + cols[3:]) + "\n" for cols in rows) == CENSUS_8_MEDIAN


@pytest.mark.parametrize("algo", ["psort-randmid", "psort-fr"])
def test_census_worstcase_pivot_kinds_coincide(capsys, algo):
    """Worst-case sweeps stop short of MERGE_SEGMENT keys, and partition_sort
    never selects a pivot on a segment that short, so every pivot kind
    prints the median's census."""
    assert MAX_WORST_CASE_N <= MERGE_SEGMENT
    argv = ["census", "--n", str(MAX_WORST_CASE_N), "--worstcase"]
    assert run(capsys, *argv, algo) == run(capsys, *argv, "psort-median")


def test_census_has_no_seed_flag(capsys):
    assert run(capsys, "census", "--n", "3", "--seed", "1")[0] == 1


def test_census_range_errors(capsys):
    assert run(capsys, "census", "--n", "11")[0] == 1
    assert run(capsys, "census", "--n", "0")[0] == 1
    assert run(capsys, "census", "--n", "9", "--worstcase", "psort-median")[0] == 1
    assert run(capsys, "census", "--n", "9")[0] == 0  # enumeration alone still fine


def test_census_checks_before_enumerating_or_sweeping(tmp_path, capsys, monkeypatch):
    def no_work(*args):
        raise AssertionError("census work began before its checks")

    monkeypatch.setattr(census, "enumerate_census", no_work)
    monkeypatch.setattr(census, "census_worst_cases", no_work)
    out = tmp_path / "c.csv"
    out.write_bytes(b"earlier bytes\n")
    n = str(MAX_WORST_CASE_N + 1)
    code, stdout, err = run(capsys, "census", "--n", n, "--worstcase", "psort-median", "--out", str(out))
    assert code == 1
    assert stdout == "" and err.startswith("presort census: ") and err.count("\n") == 1
    assert out.read_bytes() == b"earlier bytes\n"
    missing = tmp_path / "missing" / "c.csv"
    code, stdout, err = run(capsys, "census", "--n", "8", "--worstcase", "psort-median", "--out", str(missing))
    assert code == 2
    assert stdout == "" and err.startswith("presort census: ") and err.count("\n") == 1


def test_census_out_file(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert run(capsys, "census", "--n", "3", "--out", str(out))[0] == 0
    assert out.read_text().splitlines()[0] == CENSUS_HEADER


# -- top level -------------------------------------------------------------------


@pytest.mark.parametrize("cmd", ["gen", "sort", "bench", "census"])
def test_unwritable_out_exit_2_one_line(tmp_path, capsys, cmd):
    f = tmp_path / "in.txt"
    write_keys(f, [2, 1, 3])
    argv = {
        "gen": ["gen", "--family", "sorted", "--n", "3"],
        "sort": ["sort", "--in", str(f), "--algo", "psort"],
        "bench": ["bench", "--families", "sorted", "--sizes", "3", "--algos", "insertion"],
        "census": ["census", "--n", "3"],
    }[cmd]
    code, stdout, err = run(capsys, *argv, "--out", str(tmp_path))
    assert code == 2
    assert err.startswith(f"presort {cmd}: ") and err.count("\n") == 1
    assert stdout == ""


def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    capsys.readouterr()


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
