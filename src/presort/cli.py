"""Command-line front end: gen, measure, sort, bench, census.

All commands are deterministic functions of their flags, input files, and
seeds; rerunning produces identical bytes (the bench elapsed_ns column is
the one timing-dependent exception, and --no-time zeroes it).  Exit codes,
all chosen in main: 0 success; 1 bad flag or parameter; 2 unreadable or
malformed input, or unwritable output; 3 output failed verification.
Only core loads with this module, for parsing; each handler imports the
modules it runs, so a command pays for its own.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import nullcontext
from functools import partial
from importlib import import_module
from operator import itemgetter
from typing import Optional

from .core import (
    _KEY,
    FAMILIES,
    PIVOT_KINDS,
    Meter,
    Sequence,
    SequenceFormatError,
    dump_sequence,
    load_sequence,
    verify_sorted_stable_permutation,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VERIFY = 3

BENCH_HEADER = "family,n,param,algo,pivot,seed,comparisons,moves,bound_B,entropy_H,ratio,elapsed_ns"
CENSUS_HEADER = "type,nu,eq1_rhs,info_bits,worst_case_comparisons"
PROFILE_HEADER = "n,k,sizes,entropy_H,bound_B,inversions,displacement,runs,distinct_keys"

BENCH_ALGOS = tuple(f"psort-{kind}" for kind in PIVOT_KINDS) + ("blocked", "insertion", "natmerge")


class VerificationError(Exception):
    """A sorter's output is not the stable sort of its input; exit 3."""


class _Parser(argparse.ArgumentParser):
    # Flag errors are exit code 1 here, not argparse's default 2.
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_list(text: str, what: str = "integer list", sep: str = ",") -> tuple[int, ...]:
    """Integers split at commas and at sep; each part, stripped, must follow
    the key grammar of the input format."""
    parts = [part.strip() for part in text.replace(sep, ",").split(",")]
    if not all(map(_KEY.fullmatch, parts)):
        raise argparse.ArgumentTypeError(f"bad {what} {text!r}")
    return tuple(map(int, parts))


_sizes_arg = partial(_int_list, what="block sizes", sep="-")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="presort", description="Comparison-metered adaptive sorting toolbox.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an input file")
    p.set_defaults(handler=cmd_gen)
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, help="displacement bound (displacement family)")
    p.add_argument("--h", type=int, help="distinct key count (multiset family)")
    p.add_argument("--type", type=_sizes_arg, dest="sizes", help="block sizes, e.g. 3,2 (sorted-type family)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("measure", help="print the order profile of an input file")
    p.set_defaults(handler=cmd_measure)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--csv", action="store_true", help="emit one CSV row instead of key=value lines")

    p = sub.add_parser("sort", help="sort an input file with a chosen algorithm")
    p.set_defaults(handler=cmd_sort)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--algo", required=True, choices=("psort", "blocked", "insertion", "natmerge"))
    p.add_argument("--pivot", choices=PIVOT_KINDS, default="median")
    p.add_argument("--k", type=int, help="window parameter (blocked)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the sorted sequence here")

    p = sub.add_parser("bench", help="run a benchmark grid, emit CSV")
    p.set_defaults(handler=cmd_bench)
    p.add_argument("--families", type=lambda t: tuple(t.split(",")), required=True)
    p.add_argument("--sizes", type=_int_list, required=True, help="comma list of n values")
    p.add_argument("--algos", type=lambda t: tuple(t.split(",")), required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help="base seed; trial i uses seed+i")
    p.add_argument("--k", type=int, help="displacement bound / blocked window")
    p.add_argument("--h", type=int, help="distinct keys for the multiset family")
    p.add_argument("--type", type=_sizes_arg, dest="blocks_sizes", help="explicit block sizes for sorted-type")
    p.add_argument("--blocks", type=int, help="uniform block count for sorted-type (must divide n)")
    p.add_argument("--out", help="CSV path (default stdout)")
    p.add_argument("--no-time", action="store_true", help="write 0 for elapsed_ns (byte-stable output)")

    p = sub.add_parser("census", help="exhaustive type census for small n")
    p.set_defaults(handler=cmd_census)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--worstcase", choices=BENCH_ALGOS[:3], help="also sort every permutation with this strategy")
    p.add_argument("--out", help="CSV path (default stdout)")

    return parser


# ---------------------------------------------------------------------------


def _fmt_sizes(sizes) -> str:
    return "-".join(str(b) for b in sizes)


def _profile_fields(p) -> list[tuple[str, str]]:
    """The nine profile fields as (key=value name, formatted value), in
    PROFILE_HEADER's column order."""
    return [
        ("n", str(p.n)),
        ("k", str(p.block_count)),
        ("sizes", _fmt_sizes(p.sizes)),
        ("H", f"{p.entropy:.6f}"),
        ("B", f"{p.bound:.6f}"),
        ("inversions", str(p.inversions)),
        ("displacement", str(p.displacement)),
        ("runs", str(p.runs)),
        ("distinct", str(p.distinct_keys)),
    ]


def _bench_spec(family: str, n: int, args, seed: int) -> tuple:
    """The GenSpec of one bench trial and its param column.  GenSpec checks
    the family's parameters exactly as for gen; --blocks stands for sizes."""
    from .generators import GenSpec
    sizes = args.blocks_sizes
    param = {"displacement": f"k={args.k}", "multiset": f"h={args.h}"}.get(family, "")
    if family == "sorted-type":
        if sizes is None:
            if args.blocks is None:
                raise ValueError("sorted-type family needs --type or --blocks")
            if args.blocks < 1 or n % args.blocks:
                raise ValueError(f"--blocks {args.blocks} must divide n={n}")
            sizes = (n // args.blocks,) * args.blocks
        param = f"type={_fmt_sizes(sizes)}"
    return GenSpec(family, n, k=args.k, sizes=sizes, h=args.h, seed=seed), param


def _check_blocked(k: Optional[int], n: int) -> None:
    """The usage errors of blocked on an input of length n."""
    from .sorters import _check_window
    if k is None:
        raise ValueError("blocked needs --k")
    _check_window(k, n)


def _run_sorter(algo: str, pivot: str, seq: Sequence, k: Optional[int], seed: int):
    """Run one sorter on seq with a fresh Meter and return its SortOutcome;
    pivot and seed steer psort."""
    from .sorters import PivotStrategy, blocked_sort, insertion_sort, natural_merge_sort, partition_sort
    if algo == "psort":
        return partition_sort(seq, PivotStrategy(pivot, seed), Meter())
    if algo == "blocked":
        return blocked_sort(seq, k, Meter())
    if algo == "insertion":
        return insertion_sort(seq, Meter())
    return natural_merge_sort(seq, Meter())


def _open_out(path: Optional[str]):
    """A text handle on path, or on stdout when no path is given."""
    return open(path, "w", encoding="ascii") if path else nullcontext(sys.stdout)


def cmd_gen(args) -> None:
    from .generators import GenSpec, generate
    spec = GenSpec(args.family, args.n, k=args.k, sizes=args.sizes, h=args.h, seed=args.seed)
    with open(args.out, "w", encoding="ascii") as fh:
        dump_sequence(generate(spec), fh, header=f"family={spec.family} n={spec.n} seed={spec.seed}")
    print(f"family={spec.family} n={spec.n}")


def cmd_measure(args) -> None:
    from .measures import profile
    fields = _profile_fields(profile(load_sequence(args.infile)))
    if args.csv:
        lines = [PROFILE_HEADER, ",".join(value for _, value in fields)]
    else:
        lines = [f"{name}={value}" for name, value in fields]
    print("\n".join(lines))


def cmd_sort(args) -> None:
    # sorters loads before the input: the garbage collections its import sets
    # off would otherwise walk a large input (about 10 ms at 10^6 keys).
    import_module(".sorters", __package__)
    seq = load_sequence(args.infile)
    if args.algo == "blocked":
        _check_blocked(args.k, seq.n)
    # --out is opened after every usage error but before the sort: it may name the input.
    with open(args.out, "w", encoding="ascii") if args.out else nullcontext() as fh:
        outcome = _run_sorter(args.algo, args.pivot, seq, args.k, args.seed)
        ok = verify_sorted_stable_permutation(seq, outcome.output)
        print(f"comparisons={outcome.comparisons}")
        print(f"moves={outcome.moves}")
        print(f"retries={outcome.pivot_retries}")
        print(f"depth={outcome.max_recursion_depth}")
        print(f"sorted={'true' if ok else 'false'}")
        if fh:
            dump_sequence(outcome.output, fh)
    if not ok:
        raise VerificationError("output failed verification")


def cmd_bench(args) -> None:
    from .generators import generate
    from .measures import block_sizes, entropy, entropy_bound
    for algo in args.algos:
        if algo not in BENCH_ALGOS:
            raise ValueError(f"unknown algo {algo!r}")
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    # Every usage error is raised before --out is opened or an input built.
    trials = []
    for family in args.families:
        for n in args.sizes:
            for seed in range(args.seed, args.seed + args.trials):
                spec, param = _bench_spec(family, n, args, seed)
                if "blocked" in args.algos:
                    _check_blocked(args.k, n)
                trials.append((family, n, seed, spec, param))
    # (sort key, CSV line, label if unverified else ""); the stable sort keeps ties in run order.
    rows: list[tuple[tuple, str, str]] = []
    with _open_out(args.out) as fh:
        for family, n, seed, spec, param in trials:
            seq = generate(spec)
            sizes = block_sizes(seq)
            bound, h = (entropy_bound(sizes, n), entropy(sizes, n)) if n else (0.0, 0.0)
            for token in args.algos:
                algo, _, pivot = token.partition("-")
                t0 = time.perf_counter_ns()
                outcome = _run_sorter(algo, pivot, seq, args.k, seed)
                elapsed = 0 if args.no_time else time.perf_counter_ns() - t0
                ratio = outcome.comparisons / bound if bound else 0.0
                label = f"{family},{n},{param},{algo},{pivot},{seed}"
                line = f"{label},{outcome.comparisons},{outcome.moves},{bound:.6f},{h:.6f},{ratio:.6f},{elapsed}"
                ok = verify_sorted_stable_permutation(seq, outcome.output)
                rows.append(((family, n, algo, seed, param, pivot), line, "" if ok else label))
        rows.sort(key=itemgetter(0))
        fh.write("\n".join([BENCH_HEADER] + [line for _, line, _ in rows]) + "\n")
    failed = [label for _, _, label in rows if label]
    if failed:
        raise VerificationError(f"output failed verification in row {failed[0]}")


def cmd_census(args) -> None:
    from .census import MAX_CENSUS_N, MAX_WORST_CASE_N, census_worst_cases, enumerate_census
    what, top = ("census --worstcase", MAX_WORST_CASE_N) if args.worstcase else ("census", MAX_CENSUS_N)
    if not 1 <= args.n <= top:
        raise ValueError(f"{what} supports 1 <= n <= {top}, got {args.n}")
    with _open_out(args.out) as fh:
        worst = {}
        if args.worstcase:
            from .sorters import PivotStrategy
            worst = census_worst_cases(args.n, PivotStrategy(args.worstcase.split("-")[1]))
        lines = [
            f"{_fmt_sizes(row.sizes)},{row.nu},{row.count_bound:.6f},{row.info_bits},{worst.get(row.sizes, '')}"
            for row in enumerate_census(args.n)
        ]
        fh.write("\n".join([CENSUS_HEADER] + lines) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # SequenceFormatError is a ValueError, so the data errors match first.
    # The except clause unbinds exc when it ends; error keeps it.
    try:
        args.handler(args)
        return EXIT_OK
    except VerificationError as exc:
        error, code = exc, EXIT_VERIFY
    except (OSError, SequenceFormatError) as exc:
        error, code = exc, EXIT_DATA
    except ValueError as exc:
        error, code = exc, EXIT_USAGE
    print(f"presort {args.command}: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
