"""End-to-end acceptance gate.

Each criterion is one test that prints a single `[criterion N] PASS ...`
or `[criterion N] FAIL ...` line on the live terminal (bypassing capture)
and enforces its own wall-clock budget.  Criterion 7 cross-validates the
measures and must stay the last test in this file: it sweeps the PROFILES
registry that the earlier criteria fill in.

Tolerances are pinned here and only here:
  - criterion 2: per-element comparisons at n=2^16 within 1.25x of n=2^10.
  - criteria 3 and 6: envelope constants c1 = 6.320 (exact-median
    comparisons / entropy budget) and c2 = 4.805 (median over 30 seeds of
    random-middle comparisons / budget), pinned as C1 and C2 below.  Each
    is 1.5x the worst calibration ratio at n=2^10 as last pinned (headroom
    for the selection subroutine's growth with n, which is capped by its
    own linear-envelope test), rounded up in the third decimal; the
    calibration is re-measured and printed, and must stay at or below
    them.  Changing a literal is a re-pin and needs a stated reason.
  - criterion 3: slope-fit residuals within 15%.
  - criterion 5: the counting lower bound and the information bound are
    both asserted on every class they apply to.
  - criterion 7: entropy sandwich checked with 1e-6 absolute slack.
"""

import math
import random
import statistics
import time
from contextlib import contextmanager
from itertools import permutations

import pytest

from presort.census import census_worst_cases, enumerate_census
from presort.core import Meter, Sequence, verify_sorted_stable_permutation
from presort.generators import GenSpec, generate
from presort.measures import (
    count_runs,
    decompose_maximal,
    entropy_bound,
    inversions,
    max_displacement,
    profile,
)
from presort.sorters import (
    MERGE_SEGMENT,
    PivotStrategy,
    blocked_sort,
    insertion_sort,
    natural_merge_sort,
    partition_sort,
)

from counting import items_of, sequence_of

# Profiles computed by criteria 1..6; criterion 7 checks the entropy
# sandwich on every one of them.
PROFILES = []

MEDIAN = PivotStrategy("median")

# The pinned envelope constants of criteria 3 and 6 (see the docstring).
C1 = 6.320
C2 = 4.805


@contextmanager
def gate(capsys, num):
    info = {"note": ""}
    start = time.perf_counter()
    try:
        yield info
    except BaseException:
        with capsys.disabled():
            print(f"\n[criterion {num}] FAIL {info['note']}", flush=True)
        raise
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"\n[criterion {num}] PASS {info['note']} ({elapsed:.1f}s)", flush=True)


def ref_sort(seq):
    return sequence_of(sorted(items_of(seq), key=lambda it: it[0]))


@pytest.fixture(scope="session")
def calibration():
    """The calibration reading behind C1 and C2, measured at n=2^10.

    1.5x the worst exact-median comparisons / entropy budget, and 1.5x the
    worst median over 30 pivot seeds of random-middle comparisons / budget.
    The 1.5x headroom absorbs the median-selection constant's drift as n
    grows (its absolute cap is enforced separately in the sorter tests).
    Criterion 3 prints it and holds it to the pinned literals.
    """
    n = 1 << 10
    worst_c1 = 0.0
    worst_c2 = 0.0
    for k in (2, 4, 16, 256):
        seq = generate(GenSpec("sorted-type", n, sizes=(n // k,) * k, seed=1000 + k))
        bound = entropy_bound(decompose_maximal(seq).sizes, n)
        out = partition_sort(seq, MEDIAN, Meter())
        worst_c1 = max(worst_c1, out.comparisons / bound)
        meds = statistics.median(
            partition_sort(seq, PivotStrategy("randmid", s), Meter()).comparisons
            for s in range(30)
        )
        worst_c2 = max(worst_c2, meds / bound)
    return 1.5 * worst_c1, 1.5 * worst_c2


def test_criterion_1_correctness_oracle(capsys):
    with gate(capsys, 1) as g:
        t0 = time.perf_counter()
        rng = random.Random(20260819)
        strategies = [MEDIAN, PivotStrategy("randmid", 11), PivotStrategy("fr", 11)]
        cases = 10_000
        long_merged = selected = 0
        for case in range(cases):
            # One case in ten is longer than MERGE_SEGMENT keys, so it selects
            # pivots and partitions when it has more than MERGE_SEGMENT runs
            # and merges otherwise; the rest always merge.
            long = case % 10 == 9
            n = rng.randint(MERGE_SEGMENT + 1, 4 * MERGE_SEGMENT) if long else rng.randint(0, MERGE_SEGMENT)
            span = rng.choice((2, 8, 1 << 20))
            keys = [rng.randint(0, span) for _ in range(n)]
            seq = Sequence.from_keys(keys)
            reference = ref_sort(seq)
            if case % 10 == 0:
                PROFILES.append(profile(seq))
            selects = count_runs(seq) > MERGE_SEGMENT
            long_merged += long and not selects
            for strategy in strategies:
                out = partition_sort(seq, strategy, Meter())
                assert verify_sorted_stable_permutation(seq, out.output)
                assert out.output == reference  # bit-for-bit
                assert (out.max_recursion_depth > 1) == selects, (n, strategy)
                selected += selects
            for alg in (insertion_sort, natural_merge_sort):
                out = alg(seq, Meter())
                assert verify_sorted_stable_permutation(seq, out.output)
            if n >= 1:
                k = max(1, max_displacement(seq))
                out = blocked_sort(seq, k, Meter())
                assert out.is_sorted
                assert verify_sorted_stable_permutation(seq, out.output)
        elapsed = time.perf_counter() - t0
        assert selected and long_merged, (selected, long_merged)
        g["note"] = (f"{cases} inputs x 6 sorters verified, psort bit-exact vs reference, "
                     f"{selected} psort runs selected pivots, {long_merged} long inputs merged")
        assert elapsed < 30.0, f"budget 30s exceeded: {elapsed:.1f}s"


def test_criterion_2_sorted_input_optimality(capsys):
    with gate(capsys, 2) as g:
        t0 = time.perf_counter()
        n_big = 1_000_000
        out = partition_sort(Sequence.from_keys(range(n_big)), MEDIAN, Meter())
        assert out.comparisons == n_big - 1 == 999_999

        per_elem = {}
        for e in (10, 12, 14, 16):
            n = 1 << e
            seq = generate(GenSpec("transpose", n))
            prof = profile(seq)
            PROFILES.append(prof)
            assert prof.block_count == 2 and prof.entropy == 1.0
            res = partition_sort(seq, MEDIAN, Meter())
            assert verify_sorted_stable_permutation(seq, res.output)
            per_elem[e] = res.comparisons / n
        assert per_elem[16] <= 1.25 * per_elem[10], per_elem
        elapsed = time.perf_counter() - t0
        g["note"] = (
            f"sorted 10^6 = 999999 cmps exactly; half-swap cmp/n "
            f"{per_elem[10]:.2f} -> {per_elem[16]:.2f} (<=1.25x)"
        )
        assert elapsed < 10.0, f"budget 10s exceeded: {elapsed:.1f}s"


def test_criterion_3_entropy_envelope(capsys, calibration):
    with gate(capsys, 3) as g:
        t0 = time.perf_counter()
        c1, c2 = calibration
        assert c1 <= C1 and c2 <= C2, ("calibration above the pinned constants", c1, c2)
        n = 1 << 16
        fit_x, fit_y = [], []
        for k in (2, 4, 16, 256):
            seq = generate(GenSpec("sorted-type", n, sizes=(n // k,) * k, seed=1000 + k))
            prof = profile(seq)
            PROFILES.append(prof)
            bound = prof.bound
            out = partition_sort(seq, MEDIAN, Meter())
            assert out.comparisons <= C1 * bound, (k, out.comparisons / bound, C1)
            median_cmp = statistics.median(
                partition_sort(seq, PivotStrategy("randmid", s), Meter()).comparisons
                for s in range(30)
            )
            assert median_cmp <= C2 * bound, (k, median_cmp / bound, C2)
            fit_x.append(math.log2(k))
            fit_y.append(out.comparisons)
        # comparisons must grow no faster than linearly in log k
        xbar = sum(fit_x) / 4
        ybar = sum(fit_y) / 4
        slope = sum((x - xbar) * (y - ybar) for x, y in zip(fit_x, fit_y)) / sum(
            (x - xbar) ** 2 for x in fit_x
        )
        intercept = ybar - slope * xbar
        max_resid = max(abs(intercept + slope * x - y) / y for x, y in zip(fit_x, fit_y))
        assert max_resid <= 0.15, f"linear fit in log k off by {max_resid:.1%}"
        elapsed = time.perf_counter() - t0
        g["note"] = (
            f"c1={C1} c2={C2} hold at n=2^16 for k in (2,4,16,256) "
            f"(calibration reads {c1:.4f} {c2:.4f}); "
            f"log-k fit residual {max_resid:.1%} <= 15%"
        )
        assert elapsed < 120.0, f"budget 120s exceeded: {elapsed:.1f}s"


def test_criterion_4_displacement_budgets(capsys):
    with gate(capsys, 4) as g:
        t0 = time.perf_counter()
        n = 1 << 16
        seeds = range(20)
        for k in (4, 64, 1024):
            blocked_budget = 2 * n * (math.log2(2 * k) + 1)
            insertion_budget = n * (k + 1)
            for seed in seeds:
                seq = generate(GenSpec("displacement", n, k=k, seed=seed))
                if seed == 0:
                    prof = profile(seq)
                    PROFILES.append(prof)
                    assert prof.displacement == k
                b = blocked_sort(seq, k, Meter())
                assert b.is_sorted
                assert b.comparisons <= blocked_budget, (k, seed)
                ins = insertion_sort(seq, Meter())
                assert ins.comparisons <= insertion_budget, (k, seed)
                if k == 1024:
                    assert ins.comparisons > b.comparisons, (seed, ins.comparisons, b.comparisons)
        elapsed = time.perf_counter() - t0
        g["note"] = "blocked sorted+budgeted, insertion budgeted and costlier at k=1024 (20 seeds x 3 k)"
        assert elapsed < 60.0, f"budget 60s exceeded: {elapsed:.1f}s"


def test_criterion_5_census(capsys):
    with gate(capsys, 5) as g:
        t0 = time.perf_counter()
        bound_rows = 0
        for n in range(1, 11):
            rows = enumerate_census(n)
            assert sum(r.nu for r in rows) == math.factorial(n)
            for r in rows:
                bound_rows += 1
                assert r.nu >= r.count_bound, (n, r.sizes, r.nu, r.count_bound)
        n3 = {r.sizes: r.nu for r in enumerate_census(3)}
        assert n3 == {(3,): 1, (2, 1): 4, (1, 1, 1): 1}

        info_bits = {r.sizes: r.info_bits for r in enumerate_census(8)}
        worst = census_worst_cases(8, MEDIAN)
        assert set(worst) == set(info_bits)
        for sizes, wc in worst.items():
            assert wc >= info_bits[sizes], (sizes, wc, info_bits[sizes])
        assert worst[(8,)] == 7  # identity class costs exactly n-1

        elapsed = time.perf_counter() - t0
        g["note"] = (
            f"sum(nu)=n! and nu >= count_bound on all {bound_rows} rows for n=1..10; "
            f"n=3 exact; worst-case >= ceil(log2 nu) for all {len(worst)} types at n=8"
        )
        assert elapsed < 120.0, f"budget 120s exceeded: {elapsed:.1f}s"


def test_criterion_6_multiset_budget(capsys):
    with gate(capsys, 6) as g:
        t0 = time.perf_counter()
        n = 100_000
        ratios = {}
        for h in (1, 2, 4, 16):
            seq = generate(GenSpec("multiset", n, h=h, seed=60 + h))
            PROFILES.append(profile(seq))
            budget = C1 * (n * math.log2(h + 1) + n)
            out = partition_sort(seq, MEDIAN, Meter())
            assert out.comparisons <= budget, (h, out.comparisons, budget)
            assert verify_sorted_stable_permutation(seq, out.output)
            assert out.output == ref_sort(seq)  # stability, tagged duplicates
            ratios[h] = out.comparisons / (n * math.log2(h + 1) + n)
        elapsed = time.perf_counter() - t0
        g["note"] = (f"exact-median cmp <= {C1}*(n log2(h+1)+n) at n=10^5, ratios " +
                     " ".join(f"h={h}:{r:.2f}" for h, r in ratios.items()))
        assert elapsed < 10.0, f"budget 10s exceeded: {elapsed:.1f}s"


def check_decomposition_maximality(seq, d):
    """Independent oracle: the defining properties pin the decomposition."""
    n = seq.n
    keys, tags = seq.columns()
    by_rank = sorted(range(n), key=lambda p: (keys[p], tags[p]))
    rank_of = {p: r for r, p in enumerate(by_rank)}
    assert sorted(p for blk in d.blocks for p in blk) == list(range(n))
    next_rank = 0
    prev_last = None
    for blk in d.blocks:
        assert list(blk) == sorted(blk)
        for p in blk:
            assert rank_of[p] == next_rank
            next_rank += 1
        if prev_last is not None:
            assert blk[0] < prev_last, "mergeable adjacent blocks: not maximal"
        prev_last = blk[-1]


def test_criterion_7_measure_cross_validation(capsys):
    with gate(capsys, 7) as g:
        rng = random.Random(7)
        cases = 1000
        for case in range(cases):
            n = rng.randint(0, 512)
            span = rng.choice((4, 64, 1 << 30))
            keys = [rng.randint(-span, span) for _ in range(n)]
            fast = inversions(Sequence.from_keys(keys))
            brute = sum(a > b for i, a in enumerate(keys) for b in keys[i + 1 :])
            assert fast == brute, case

        for n in range(9):
            for perm in permutations(range(n)):
                seq = Sequence.from_keys(perm)
                check_decomposition_maximality(seq, decompose_maximal(seq))

        assert len(PROFILES) >= 4, "earlier criteria must register profiles"
        for p in PROFILES:
            lhs = p.n * p.entropy
            mid = p.bound - p.n
            assert lhs <= mid + 1e-6, p
            assert mid <= lhs + p.n + 1e-6, p
        g["note"] = (
            f"inversions == O(n^2) oracle on {cases} arrays; decomposition maximality "
            f"exhaustive n<=8; entropy sandwich on {len(PROFILES)} profiles"
        )
