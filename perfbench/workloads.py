"""The four workloads of the presort benchmark.

CLI workloads run `python -m presort.cli` as a child process, one job at
a time.  Library workloads call presort's public functions in-process.
Every workload offers three steps:

  setup(ctx)            make the inputs and their reference outputs;
                        timed as setup_s
  jobs(ctx, st)         the jobs of one untraced pass, run in order;
                        each checks its own output
  replay(ctx, st, rec)  the same pass's layer calls made in-process by
                        the benchmark, each wrapped in a span, plus
                        probes of single layers on the full input and a
                        sweep of every layer the pass does not call, so
                        that each traced run reports every layer

Inputs depend only on ctx.seed.  Reference outputs come from Python's
own sorted() and from presort.profile, computed once at set-up.
"""

from __future__ import annotations

import math
import os
import random
import resource
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import permutations
from pathlib import Path
from typing import Callable, Optional

from presort import (
    GenSpec,
    Meter,
    Sequence,
    census_worst_cases,
    count_runs,
    decompose_maximal,
    dump_sequence,
    enumerate_census,
    exact_median,
    floyd_rivest,
    generate,
    inversions,
    load_sequence,
    max_displacement,
    partition_sort,
    profile,
    random_middle,
    select_exact_median,
    select_floyd_rivest,
    select_random_middle,
    sorted_check,
    stable_three_way_partition,
    verify_sorted_stable_permutation,
)

from spans import Recorder

COUNT_FIELDS = ("comparisons", "moves", "retries", "depth")


class SetupError(RuntimeError):
    """Set-up could not make the workload's inputs; the run cannot go on."""


@dataclass
class Ctx:
    root: Path
    out: Path
    seed: int
    toy: bool

    def size(self, full, toy):
        return toy if self.toy else full


@dataclass
class Job:
    """One unit of work in a pass and the verdict of its checks."""

    name: str
    wall_s: float = 0.0
    keys: int = 0  # input keys the job handled
    problem: Optional[str] = None  # None when every check passed
    counts: Optional[dict] = None  # exact costs of a sort job
    bound: float = 0.0  # entropy budget B of a sort job's input
    rss_mb: float = 0.0


@dataclass
class Replay:
    jobs: list[Job] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)  # per-layer counts and rates
    # CLI children run during the replay; the in-process twin of job j is
    # the span cli.<j.name>.  Their wall time is not replay time.
    cli_jobs: list[Job] = field(default_factory=list)


# -- child processes -----------------------------------------------------------


@dataclass
class Child:
    rc: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str

    def failure(self) -> Optional[str]:
        if self.rc == 0:
            return None
        last = self.stderr.strip().splitlines()[-1:] or ["no message"]
        return f"exit {self.rc}: {last[0]}"


def run_child(ctx: Ctx, argv: list[str]) -> Child:
    """Run one child to completion; os.wait4 gives its own max-RSS."""
    out, err = ctx.out / "child.stdout", ctx.out / "child.stderr"
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    with open(out, "wb") as fo, open(err, "wb") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=fo, stderr=fe, env=env, cwd=ctx.root)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024, out.read_text(), err.read_text())


def presort_cli(ctx: Ctx, *args) -> Child:
    return run_child(ctx, ["-m", "presort.cli", *map(str, args)])


def startup_seconds(ctx: Ctx) -> float:
    """Wall time of a child that imports the CLI and does no work."""
    child = run_child(ctx, ["-c", "import presort.cli"])
    if child.rc:
        raise SetupError(f"importing presort.cli failed: {child.failure()}")
    return child.wall_s


def self_max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- checks --------------------------------------------------------------------


def read_keys(path: Path) -> list[int]:
    """The benchmark's own reader for the one-integer-per-line format."""
    keys = []
    for line in path.read_text(encoding="ascii").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            keys.append(int(line))
    return keys


def key_bytes(keys) -> bytes:
    return "".join(f"{k}\n" for k in keys).encode("ascii")


def key_values(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def outcome_counts(outcome) -> dict:
    return {
        "comparisons": outcome.comparisons,
        "moves": outcome.moves,
        "retries": outcome.pivot_retries,
        "depth": outcome.max_recursion_depth,
    }


def check_sort_child(child: Child, out: Path, expected: bytes) -> tuple[Optional[str], Optional[dict]]:
    """`presort sort` must exit 0, print sorted=true and write sorted(keys)."""
    if child.failure():
        return child.failure(), None
    fields = key_values(child.stdout)
    try:
        counts = {name: int(fields[name]) for name in COUNT_FIELDS}
    except (KeyError, ValueError):
        return f"unreadable counts in {child.stdout!r}", None
    if fields.get("sorted") != "true":
        return f"sorted={fields.get('sorted')}", counts
    if not out.is_file() or out.read_bytes() != expected:
        return "output file differs from sorted(keys)", counts
    return None, counts


def check_profile_text(text: str, p) -> Optional[str]:
    """`presort measure` output must match presort.profile run in-process."""
    fields = key_values(text)
    expected = {
        "n": p.n,
        "k": p.block_count,
        "sizes": "-".join(map(str, p.sizes)),
        "H": p.entropy,
        "B": p.bound,
        "inversions": p.inversions,
        "displacement": p.displacement,
        "runs": p.runs,
        "distinct": p.distinct_keys,
    }
    for name, want in expected.items():
        got = fields.get(name)
        try:
            same = abs(float(got) - want) <= 1e-6 if isinstance(want, float) else got == str(want)
        except (TypeError, ValueError):
            same = False
        if not same:
            return f"measure {name}={got}, profile gives {want}"
    return None


def check_sort_outcome(outcome, expected: list[int]) -> Optional[str]:
    if not outcome.is_sorted:
        return "outcome reports is_sorted=False"
    if outcome.output.keys() != expected:
        return "output keys differ from sorted(keys)"
    return None


def census_reference(n: int) -> dict[str, int]:
    """Permutations of range(n) per block-size type, by the benchmark's own
    walk: a block grows while the next rank sits further right."""
    counts: Counter[str] = Counter()
    for perm in permutations(range(n)):
        pos = [0] * n
        for i, v in enumerate(perm):
            pos[v] = i
        sizes, size = [], 1
        for v in range(1, n):
            if pos[v] > pos[v - 1]:
                size += 1
            else:
                sizes.append(size)
                size = 1
        sizes.append(size)
        counts["-".join(map(str, sorted(sizes, reverse=True)))] += 1
    return dict(counts)


def check_census_csv(text: str, reference: dict[str, int], worst: bool) -> Optional[str]:
    """nu per type must match the reference (so it sums to n!), info_bits
    must be ceil(log2 nu), and a worst-case census must read
    worst_case_comparisons >= info_bits on every row.  The eq1_rhs column
    is a known-false bound and is neither checked nor hidden."""
    lines = text.splitlines()
    if not lines:
        return "empty census"
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    try:
        nu = {row["type"]: int(row["nu"]) for row in rows}
        if sum(nu.values()) != sum(reference.values()):
            return f"nu sums to {sum(nu.values())}, not n! = {sum(reference.values())}"
        if nu != reference:
            return "nu per type differs from the reference count"
        for row in rows:
            info = int(row["info_bits"])
            if info != (int(row["nu"]) - 1).bit_length():
                return f"type {row['type']}: info_bits {info} is not ceil(log2 nu)"
            if worst and int(row["worst_case_comparisons"]) < info:
                return f"type {row['type']}: worst case {row['worst_case_comparisons']} < info_bits {info}"
    except (KeyError, ValueError) as exc:
        return f"unreadable census row: {exc}"
    return None


# -- layer probes shared by the sorting workloads ------------------------------


class CountingRandom(random.Random):
    """Seeded RNG that counts selector attempts: one randrange call per
    random-middle candidate, one sample call per Floyd-Rivest bracket."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.randranges = 0
        self.samples = 0

    def randrange(self, *args, **kwargs):
        self.randranges += 1
        return super().randrange(*args, **kwargs)

    def sample(self, *args, **kwargs):
        self.samples += 1
        return super().sample(*args, **kwargs)


def record_sort(layer: dict, name: str, counts: dict) -> None:
    layer[f"{name}.comparisons"] = counts["comparisons"]
    layer[f"{name}.moves"] = counts["moves"]
    layer[f"{name}.pivot_retries"] = counts["retries"]
    layer[f"{name}.max_depth"] = counts["depth"]


def measure_layers(rec: Recorder, seq: Sequence) -> None:
    """Each measure profile() is made of, timed on its own."""
    with rec.span("measures.decompose"):
        decompose_maximal(seq)
    with rec.span("measures.inversions"):
        inversions(seq)
    with rec.span("measures.displacement"):
        max_displacement(seq)
    with rec.span("measures.runs"):
        count_runs(seq)


def probe_layers(rec: Recorder, seq: Sequence, seed: int, layer: dict) -> None:
    """Single layers on the full input, timed and counted from outside.

    The selectors and the partition run once at the top level only; the
    split of a whole sort by recursion level needs counters inside the
    program and is not measured here.
    """
    keys = seq.keys()
    with rec.span("core.build"):
        Sequence.from_keys(keys)
    with rec.span("core.sorted_check"):
        sorted_check(seq, Meter())
    m = Meter()
    with rec.span("sorters.select_median"):
        median = select_exact_median(seq, m)
    layer["sorters.select_median.comparisons"] = m.comparisons
    m, rng = Meter(), CountingRandom(seed)
    with rec.span("sorters.select_randmid"):
        _, rejected = select_random_middle(seq, rng, m)
    layer["sorters.select_randmid.comparisons"] = m.comparisons
    if rng.randranges:
        layer["sorters.select_randmid.accept_ratio"] = (rng.randranges - rejected) / rng.randranges
    m, rng = Meter(), CountingRandom(seed)
    with rec.span("sorters.select_fr"):
        _, misses = select_floyd_rivest(seq, rng, m)
    layer["sorters.select_fr.comparisons"] = m.comparisons
    if rng.samples:
        layer["sorters.select_fr.bracket_hit_ratio"] = (rng.samples - misses) / rng.samples
    m = Meter()
    with rec.span("sorters.partition3"):
        stable_three_way_partition(seq, median, m)
    layer["sorters.partition3.comparisons"] = m.comparisons


# -- the sweep: layers a workload's own pass does not call ----------------------

STRATEGY_NAMES = ("psort_median", "psort_randmid", "psort_fr")
# Census size probed on workloads other than census, and the input the
# census workload sweeps the sequence layers with.
SWEEP_CENSUS_N = (7, 5)
SWEEP_SPEC = (GenSpec("random", 4096), GenSpec("random", 256))


def strategies(seed: int, names=STRATEGY_NAMES):
    make = {
        "psort_median": exact_median,
        "psort_randmid": partial(random_middle, seed),
        "psort_fr": partial(floyd_rivest, seed),
    }
    return [(name, make[name]()) for name in names]


def sweep_sorts(rec: Recorder, seq: Sequence, seed: int, bound: float, r: Replay, names) -> None:
    """partition_sort under the named selectors, timed and counted."""
    expected = sorted(seq.keys())
    for name, strategy in strategies(seed, names):
        with rec.span(f"sorters.{name}"):
            outcome = partition_sort(seq, strategy, Meter())
        counts = outcome_counts(outcome)
        r.jobs.append(Job(f"sweep.{name}", keys=seq.n, problem=check_sort_outcome(outcome, expected), counts=counts, bound=bound))
        record_sort(r.layer, f"sorters.{name}", counts)


def sweep_file(rec: Recorder, ctx: Ctx, seq: Sequence, bound: float, r: Replay, child: bool) -> None:
    """core.load, core.verify and core.dump on the input written to a file,
    inside the span cli.sweep_sort: the in-process twin of `presort sort
    --algo psort --pivot median` on that file.  With child, that command
    also runs as a child, which gives cli.self_s."""
    path, out = ctx.out / "sweep-in.txt", ctx.out / "sweep-out.txt"
    dump_sequence(seq, path)
    expected = key_bytes(sorted(seq.keys()))
    if child:
        out.unlink(missing_ok=True)
        c = presort_cli(ctx, "sort", "--in", path, "--algo", "psort", "--pivot", "median", "--out", out)
        problem, counts = check_sort_child(c, out, expected)
        r.cli_jobs.append(Job("sweep_sort", c.wall_s, seq.n, problem, counts, bound, c.rss_mb))
    out.unlink(missing_ok=True)
    with rec.span("cli.sweep_sort"):
        with rec.span("core.load"):
            loaded = load_sequence(path)
        outcome = partition_sort(loaded, exact_median(), Meter())
        with rec.span("core.verify"):
            ok = verify_sorted_stable_permutation(loaded, outcome.output)
        with rec.span("core.dump"):
            dump_sequence(outcome.output, out)
    problem = None if ok and out.read_bytes() == expected else "file round trip output is wrong"
    r.jobs.append(Job("sweep.file", keys=seq.n, problem=problem, counts=outcome_counts(outcome), bound=bound))


def sweep_census(rec: Recorder, ctx: Ctx, r: Replay) -> None:
    """The census layer at a small n, on workloads that run no census."""
    n = ctx.size(*SWEEP_CENSUS_N)
    with rec.span("census.enumerate"):
        rows = enumerate_census(n)
    with rec.span("census.worst_cases") as span:
        worst = census_worst_cases(n, exact_median())
    reference = census_reference(n)
    ok = {"-".join(map(str, row.sizes)): row.nu for row in rows} == reference
    ok = ok and set(worst) == {tuple(map(int, t.split("-"))) for t in reference}
    r.jobs.append(Job("sweep.census", problem=None if ok else "census differs from the reference"))
    if span is not None:
        r.layer["census.sorts_per_s"] = math.factorial(n) / span.seconds


# -- workloads -----------------------------------------------------------------


@dataclass
class FileInput:
    spec: GenSpec
    path: Path
    expected: bytes  # sorted keys in the output file format
    profile: object  # presort.Profile of the input


class FileWorkload:
    """CLI jobs, file to file, on one input made by `presort gen`."""

    cli = True

    def __init__(self, name: str, spec: GenSpec, toy_spec: GenSpec, measure_job: bool):
        self.name = name
        self._specs = (spec, toy_spec)
        self.measure_job = measure_job

    def setup(self, ctx: Ctx) -> FileInput:
        spec = replace(ctx.size(*self._specs), seed=ctx.seed)
        path = ctx.out / f"{self.name}-in.txt"
        args = ["gen", "--family", spec.family, "--n", spec.n, "--seed", spec.seed, "--out", path]
        if spec.k is not None:
            args += ["--k", spec.k]
        child = presort_cli(ctx, *args)
        if child.failure():
            raise SetupError(f"presort gen: {child.failure()}")
        keys = read_keys(path)
        return FileInput(spec, path, key_bytes(sorted(keys)), profile(Sequence.from_keys(keys)))

    def _measure(self, ctx: Ctx, st: FileInput) -> Job:
        child = presort_cli(ctx, "measure", "--in", st.path)
        problem = child.failure() or check_profile_text(child.stdout, st.profile)
        return Job("measure", child.wall_s, st.spec.n, problem, rss_mb=child.rss_mb)

    def _sort(self, ctx: Ctx, st: FileInput) -> Job:
        out = ctx.out / f"{self.name}-out.txt"
        out.unlink(missing_ok=True)
        child = presort_cli(ctx, "sort", "--in", st.path, "--algo", "psort", "--pivot", "median", "--out", out)
        problem, counts = check_sort_child(child, out, st.expected)
        return Job("sort", child.wall_s, st.spec.n, problem, counts, st.profile.bound, child.rss_mb)

    def jobs(self, ctx: Ctx, st: FileInput) -> list[Callable[[], Job]]:
        jobs = [partial(self._measure, ctx, st)] if self.measure_job else []
        return jobs + [partial(self._sort, ctx, st)]

    def replay(self, ctx: Ctx, st: FileInput, rec: Recorder) -> Replay:
        r = Replay()
        with rec.span("replay.setup"):
            with rec.span("generators.generate"):
                seq = generate(st.spec)
            if not self.measure_job:
                with rec.span("measures.profile"):
                    profile(seq)
        del seq
        if self.measure_job:
            with rec.span("cli.measure"):
                with rec.span("core.load"):
                    seq = load_sequence(st.path)
                with rec.span("measures.profile"):
                    p = profile(seq)
            problem = None if p == st.profile else "in-process profile differs from set-up"
            r.jobs.append(Job("measure", keys=st.spec.n, problem=problem))
            del seq
        out = ctx.out / f"{self.name}-replay-out.txt"
        out.unlink(missing_ok=True)
        with rec.span("cli.sort"):
            with rec.span("core.load"):
                seq = load_sequence(st.path)
            with rec.span("sorters.psort_median"):
                outcome = partition_sort(seq, exact_median(), Meter())
            with rec.span("core.verify"):
                ok = verify_sorted_stable_permutation(seq, outcome.output)
            with rec.span("core.dump"):
                dump_sequence(outcome.output, out)
        counts = outcome_counts(outcome)
        del outcome
        problem = None if ok and out.read_bytes() == st.expected else "replayed sort output is wrong"
        r.jobs.append(Job("sort", keys=st.spec.n, problem=problem, counts=counts, bound=st.profile.bound))
        record_sort(r.layer, "sorters.psort_median", counts)
        with rec.span("replay.probes"):
            measure_layers(rec, seq)
            probe_layers(rec, seq, ctx.seed, r.layer)
        with rec.span("replay.sweep"):
            sweep_sorts(rec, seq, ctx.seed, st.profile.bound, r, STRATEGY_NAMES[1:])
            sweep_census(rec, ctx, r)
        return r


@dataclass
class LibraryInput:
    spec: GenSpec
    seq: Sequence
    expected: list[int]
    bound: float


class RandomPivots:
    """partition_sort in-process under each of the three pivot selectors."""

    name = "random-pivots"
    cli = False

    def setup(self, ctx: Ctx) -> LibraryInput:
        spec = GenSpec("random", ctx.size(65536, 1024), seed=ctx.seed)
        seq = generate(spec)
        return LibraryInput(spec, seq, sorted(seq.keys()), profile(seq).bound)

    def _job(self, name: str, outcome, wall: float, st: LibraryInput) -> Job:
        return Job(
            name,
            wall,
            st.seq.n,
            check_sort_outcome(outcome, st.expected),
            outcome_counts(outcome),
            st.bound,
            self_max_rss_mb(),
        )

    def _sort(self, st: LibraryInput, name: str, strategy) -> Job:
        t0 = time.perf_counter()
        try:
            outcome = partition_sort(st.seq, strategy, Meter())
        except Exception as exc:  # a crash fails this job, not the run
            return Job(name, time.perf_counter() - t0, st.seq.n, f"raised {exc!r}")
        return self._job(name, outcome, time.perf_counter() - t0, st)

    def jobs(self, ctx: Ctx, st: LibraryInput) -> list[Callable[[], Job]]:
        return [partial(self._sort, st, name, strategy) for name, strategy in strategies(ctx.seed)]

    def replay(self, ctx: Ctx, st: LibraryInput, rec: Recorder) -> Replay:
        r = Replay()
        with rec.span("replay.setup"):
            with rec.span("generators.generate"):
                seq = generate(st.spec)
            with rec.span("measures.profile"):
                profile(seq)
        for name, strategy in strategies(ctx.seed):
            with rec.span(f"sorters.{name}"):
                outcome = partition_sort(seq, strategy, Meter())
            job = self._job(name, outcome, 0.0, st)
            r.jobs.append(job)
            record_sort(r.layer, f"sorters.{name}", job.counts)
        with rec.span("replay.probes"):
            measure_layers(rec, seq)
            probe_layers(rec, seq, ctx.seed, r.layer)
        with rec.span("replay.sweep"):
            sweep_file(rec, ctx, seq, st.bound, r, child=True)
            sweep_census(rec, ctx, r)
        return r


@dataclass
class CensusInput:
    n: int
    worst_n: int
    reference: dict[str, int]
    worst_reference: dict[str, int]


class Census:
    """`presort census` over all n! inputs: fixed cost per tiny sort."""

    name = "census"
    cli = True

    def setup(self, ctx: Ctx) -> CensusInput:
        n, worst_n = ctx.size(9, 6), ctx.size(8, 5)
        return CensusInput(n, worst_n, census_reference(n), census_reference(worst_n))

    def _census(self, ctx: Ctx, name: str, n: int, reference: dict, extra: list) -> Job:
        out = ctx.out / f"{name}.csv"
        out.unlink(missing_ok=True)
        child = presort_cli(ctx, "census", "--n", n, *extra, "--out", out)
        problem = child.failure() or check_census_csv(out.read_text(), reference, bool(extra))
        # Keys visited: n per permutation, once to enumerate and once more
        # to sort in a worst-case sweep.
        keys = n * math.factorial(n) * (2 if extra else 1)
        return Job(name, child.wall_s, keys, problem, rss_mb=child.rss_mb)

    def jobs(self, ctx: Ctx, st: CensusInput) -> list[Callable[[], Job]]:
        return [
            partial(self._census, ctx, "census", st.n, st.reference, []),
            partial(self._census, ctx, "census_worstcase", st.worst_n, st.worst_reference, ["--worstcase", "psort-median"]),
        ]

    def replay(self, ctx: Ctx, st: CensusInput, rec: Recorder) -> Replay:
        r = Replay()
        with rec.span("cli.census"):
            with rec.span("census.enumerate"):
                rows = enumerate_census(st.n)
        problem = None if {"-".join(map(str, row.sizes)): row.nu for row in rows} == st.reference else "nu differs"
        r.jobs.append(Job("census", problem=problem))
        with rec.span("cli.census_worstcase"):
            with rec.span("census.enumerate"):
                enumerate_census(st.worst_n)
            with rec.span("census.worst_cases") as span:
                worst = census_worst_cases(st.worst_n, exact_median())
        problem = None if set(worst) == {tuple(map(int, t.split("-"))) for t in st.worst_reference} else "types differ"
        r.jobs.append(Job("census_worstcase", problem=problem))
        if span is not None:
            r.layer["census.sorts_per_s"] = math.factorial(st.worst_n) / span.seconds
        with rec.span("replay.sweep"):
            spec = replace(ctx.size(*SWEEP_SPEC), seed=ctx.seed)
            with rec.span("generators.generate"):
                seq = generate(spec)
            with rec.span("measures.profile"):
                bound = profile(seq).bound
            measure_layers(rec, seq)
            probe_layers(rec, seq, ctx.seed, r.layer)
            sweep_sorts(rec, seq, ctx.seed, bound, r, STRATEGY_NAMES)
            sweep_file(rec, ctx, seq, bound, r, child=False)
        return r


WORKLOADS = {
    w.name: w
    for w in (
        FileWorkload(
            "readme",
            GenSpec("displacement", 100_000, k=64),
            GenSpec("displacement", 2_000, k=16),
            measure_job=False,
        ),
        RandomPivots(),
        FileWorkload(
            "bulk-sorted",
            GenSpec("sorted", 1_000_000),
            GenSpec("sorted", 5_000),
            measure_job=True,
        ),
        Census(),
    )
}
