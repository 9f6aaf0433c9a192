"""presort benchmark: one workload, measured, checked and reported.

Run from the repository root:

    python3 perfbench/run.py --workload readme --seed 7 --seconds 10 --trace 0

--trace 0 sets up at least three times, then runs untraced passes for
--seconds and reports the end-to-end metrics of BENCHMARK.json, with
times in reference seconds (see PROBE_REFERENCE_S).  --trace 1 is the
separate traced run: each iteration runs the same untraced pass, then
replays its layer calls in-process with and without spans, sweeps the
layers the pass does not call (see workloads.py), and reports every
per-layer metric: each layer's time summed over the iteration's calls,
median over iterations, in reference seconds.  Every output is
checked against references made at set-up; exact counts are compared
with perfbench/pinned_counts.json and with the previous run of the same
workload and seed.  Human-readable lines come first; the last line of
stdout is one JSON object.  Results and spans are written under
perfbench/out/.  --workload all runs every workload in turn.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import random
import signal
import sys
import time
from pathlib import Path
from statistics import median

from spans import Recorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up runs at least this often and for at least this long; setup_s
# is the median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 3
# Shared hosts drift in speed by tens of percent within minutes.  On a
# 2-vCPU Xeon VM the 5-second medians of one fixed loop ranged from 23 to
# 33 ms within a minute, and the median readme pass went from 1.15 s to
# 2.06 s over four.  So every run times a fixed pure-Python merge sort
# (the speed probe) before and after each set-up, job and traced
# iteration, and reports each of those in reference seconds: raw seconds
# x PROBE_REFERENCE_S / the mean of the two probes around it.  Medians are
# taken after that scaling.  Where the probe takes PROBE_REFERENCE_S (that
# VM when quiet) reference seconds equal raw seconds.  Raw times are
# printed and recorded as well.
PROBE_REFERENCE_S = 0.1
PROBE_KEYS = 1 << 16
STARTUP_REPEATS = 3
# A run that is still going after this many seconds is stopped, with its
# child, and ends without a result.
RUN_LIMIT_S = 170

NOTES = (
    "eq1_rhs in census output is a known-false bound (ROADMAP item 5); it is neither checked nor hidden",
    "selector and partition probes cover the top recursion level only; the split by level is ROADMAP item 2",
)


class Stopped(BaseException):
    """Raised by SIGALRM or SIGTERM; not an Exception, so no job swallows it."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny inputs, for the self-test")
    return p.parse_args(argv)


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, samples: int) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "cpu_model": cpu_model(),
        "commit": git_commit(ROOT),
        "seed": args.seed,
        "samples": samples,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "toy" if args.toy else "full",
    }


def sort_cost_metrics(jobs) -> dict:
    """Exact cost ratios over the sort jobs of one pass."""
    sorts = [j for j in jobs if j.counts]
    if not sorts:
        return {}
    keys = sum(j.keys for j in sorts)
    comparisons = sum(j.counts["comparisons"] for j in sorts)
    return {
        "comparisons_per_key": comparisons / keys,
        "ratio_B": comparisons / sum(j.bound for j in sorts),
        "moves_per_key": sum(j.counts["moves"] for j in sorts) / keys,
    }


class Tally:
    """Jobs attempted and failed; the first pass's counts are the run's."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.counts: dict[str, dict] = {}

    def add(self, jobs, where: str) -> None:
        for job in jobs:
            self.attempted += 1
            problem = job.problem
            if problem is None and job.counts is not None:
                first = self.counts.setdefault(job.name, job.counts)
                if job.counts != first:
                    problem = f"counts {job.counts} differ from the run's first {first}"
            if problem:
                self.problems.append(f"{where} {job.name}: {problem}")


def count_changes(label: str, current: dict, reference: dict) -> list[str]:
    changes = []
    for job, counts in current.items():
        for name, value in counts.items():
            old = reference.get(job, {}).get(name)
            if old is not None and old != value:
                changes.append(f"{label}: {job}.{name} {old} -> {value}")
    return changes


class SpeedProbe:
    """A fixed pure-Python merge sort, timed before and after every timed
    item (a set-up, a job, a traced iteration)."""

    def __init__(self):
        rng = random.Random(0)
        self.keys = [rng.randrange(2**32) for _ in range(PROBE_KEYS)]
        self.samples: list[float] = []

    def __call__(self) -> None:
        t0 = time.perf_counter()
        a, n, width = list(self.keys), len(self.keys), 1
        while width < n:
            out = []
            for lo in range(0, n, 2 * width):
                mid, hi = min(lo + width, n), min(lo + 2 * width, n)
                i, j = lo, mid
                while i < mid and j < hi:
                    if a[i] <= a[j]:
                        out.append(a[i])
                        i += 1
                    else:
                        out.append(a[j])
                        j += 1
                out += a[i:mid]
                out += a[j:hi]
            a, width = out, 2 * width
        self.samples.append(time.perf_counter() - t0)

    def scales(self) -> list[float]:
        """Reference seconds per raw second for each item, from the mean
        of the two probes around it."""
        pairs = zip(self.samples, self.samples[1:])
        return [PROBE_REFERENCE_S * 2 / (before + after) for before, after in pairs]


def unit_of(name: str, units: dict) -> str:
    """The unit BENCHMARK.json gives a metric; other span totals are seconds."""
    return units.get(name, "s" if name.endswith("_s") else "")


def to_reference(metrics: dict, scale: float, units: dict) -> dict:
    """Times (unit s) times scale; rates (unit 1/s) divided by it."""
    out = {}
    for name, value in metrics.items():
        unit = unit_of(name, units)
        out[name] = value * scale if unit == "s" else value / scale if unit == "1/s" else value
    return out


def untraced_run(wl, ctx, args, tally: Tally, units: dict):
    """--trace 0: end-to-end metrics from untraced passes."""
    probe = SpeedProbe()
    probe()
    setups = []
    t_end = time.perf_counter() + SETUP_MIN_SECONDS
    while len(setups) < SETUP_MIN_REPEATS or time.perf_counter() < t_end:
        t0 = time.perf_counter()
        state = wl.setup(ctx)
        setups.append(time.perf_counter() - t0)
        probe()
    passes: list[list] = []
    t_end = time.perf_counter() + args.seconds
    while True:
        jobs = []
        for run_job in wl.jobs(ctx, state):
            jobs.append(run_job())
            probe()
        tally.add(jobs, f"pass {len(passes) + 1}")
        passes.append(jobs)
        if time.perf_counter() >= t_end:
            break
    scales = probe.scales()
    setup_ref = [raw * k for raw, k in zip(setups, scales)]
    job_scales = iter(scales[len(setups) :])
    wall_ref = [sum(j.wall_s * next(job_scales) for j in jobs) for jobs in passes]
    walls = [sum(j.wall_s for j in jobs) for jobs in passes]
    rss = max(j.rss_mb for jobs in passes for j in jobs)
    metrics = {
        "wall_s": median(wall_ref),
        "keys_per_s": sum(j.keys for j in jobs) / median(wall_ref),
        "peak_rss_mb": rss,
        "setup_s": median(setup_ref),
    }
    extra = {
        "wall_raw_s": median(walls),
        "wall_raw_max_s": max(walls),
        "setup_raw_s": median(setups),
        "probe_s": median(probe.samples),
        **sort_cost_metrics(jobs),
    }
    samples = {"setup_s": setups, "wall_s": walls, "probe_s": probe.samples}
    return metrics, extra, len(walls), samples, []


def traced_iteration(wl, ctx, state, i: int, tally: Tally, first_id: int):
    """One untraced pass, then its replay with spans off and on.

    Returns the iteration's per-layer metrics and spans, or None when a
    replay raised (the crash is tallied as a failed job).
    """
    from workloads import Job, startup_seconds

    jobs = [run_job() for run_job in wl.jobs(ctx, state)]
    tally.add(jobs, f"iteration {i} pass")
    off, on = Recorder(False), Recorder(True, first_id)
    walls, traced = {}, None
    # Alternate which replay goes first so warm-up favours neither.
    for rec in (off, on) if i % 2 else (on, off):
        where = f"iteration {i} {'traced' if rec is on else 'untraced'} replay"
        t0 = time.perf_counter()
        try:
            replay = wl.replay(ctx, state, rec)
        except Exception as exc:  # a crash fails this replay, not the run
            tally.add([Job("replay", problem=f"raised {exc!r}")], where)
            return None
        walls[rec is on] = time.perf_counter() - t0 - sum(j.wall_s for j in replay.cli_jobs)
        tally.add(replay.jobs + replay.cli_jobs, where)
        if rec is on:
            traced = replay
    by_name = on.seconds_by_name()
    m = {f"{name}_s": secs for name, secs in by_name.items()}
    m.update(traced.layer)
    # Census passes sort nothing; their ratios come from the sweep's sorts.
    m.update(sort_cost_metrics(jobs) or sort_cost_metrics(traced.jobs))
    m["trace.overhead_s"] = walls[True] - walls[False]
    m["cli.startup_s"] = median([startup_seconds(ctx) for _ in range(STARTUP_REPEATS)])
    cli_jobs = jobs if wl.cli else traced.cli_jobs
    m["cli.self_s"] = sum(j.wall_s - by_name.get(f"cli.{j.name}", 0.0) for j in cli_jobs)
    return m, [dict(r, iteration=i) for r in on.as_records()]


def traced_run(wl, ctx, args, tally: Tally, units: dict):
    """--trace 1: per-layer metrics, median over traced iterations."""
    state = wl.setup(ctx)
    probe = SpeedProbe()
    probe()
    iterations: list[dict] = []
    spans: list[dict] = []
    t_end = time.perf_counter() + args.seconds
    for i in itertools.count(1):
        result = traced_iteration(wl, ctx, state, i, tally, len(spans))
        probe()
        if result is not None:
            iterations.append(to_reference(result[0], probe.scales()[-1], units))
            spans += result[1]
        if time.perf_counter() >= t_end:
            break
    names = sorted({name for m in iterations for name in m})
    metrics = {name: median([m[name] for m in iterations if name in m]) for name in names}
    samples = {"iterations": iterations, "probe_s": probe.samples}
    return metrics, {}, len(iterations), samples, spans


def report_counts(args, tally: Tally, results_path: Path) -> list[str]:
    """Print the run's exact counts and how they differ from the pinned
    ones and from the previous run of this workload and seed."""
    if not tally.counts:
        print("counts: this workload's jobs report no exact counts")
    for job, counts in sorted(tally.counts.items()):
        print(f"counts {job}: " + " ".join(f"{k}={v}" for k, v in counts.items()))
    pinned = {} if args.toy else json.loads((HERE / "pinned_counts.json").read_text())
    previous = json.loads(results_path.read_text()) if results_path.is_file() else None
    references = {
        "pinned": pinned.get(args.workload, {}).get(str(args.seed)),
        "previous run": previous and previous["counts"],
    }
    changes = []
    for label, reference in references.items():
        if reference is None:
            print(f"counts vs {label}: none recorded")
            continue
        diff = count_changes(label, tally.counts, reference)
        print(f"counts vs {label}: {'CHANGED' if diff else 'unchanged'}")
        for line in diff:
            print(f"COUNT CHANGE {line}")
        changes += diff
    return changes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "presort" / "__init__.py").is_file():
        print(f"perfbench: no presort package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import presort

    if Path(presort.__file__).resolve().parent != SRC / "presort":
        print(f"perfbench: imported presort from {presort.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        common = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        common += ["--toy"] if args.toy else []
        return max(main(["--workload", name, *common]) for name in workloads.WORKLOADS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    ctx = workloads.Ctx(ROOT, OUT, args.seed, args.toy)
    tally = Tally()

    def stop(signum, frame):
        raise Stopped(f"stopped by signal {signum}")

    # One CPU for the benchmark and, by inheritance, its children, so the
    # speed probe sees the same contention as the work it scales.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, stop)
    signal.signal(signal.SIGTERM, stop)
    signal.alarm(RUN_LIMIT_S)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    try:
        run = traced_run if args.trace else untraced_run
        metrics, extra, samples, samples_detail, spans = run(wl, ctx, args, tally, units)
    except (workloads.SetupError, Stopped) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    stem = f"{args.workload}-{'toy' if args.toy else 'full'}-seed{args.seed}"
    results_path = OUT / f"results-{stem}.json"
    prov = provenance(args, samples)
    print(f"presort benchmark: workload={args.workload} " + " ".join(f"{k}={v}" for k, v in prov.items()))
    changes = report_counts(args, tally, results_path)
    error_rate = len(tally.problems) / tally.attempted
    for problem in tally.problems:
        print(f"FAILED {problem}")
    for name, value in {**metrics, **extra}.items():
        print(f"{name} = {value:.6g} {unit_of(name, units)}")
    if not args.trace:
        print(
            f"wall_s is the median of {samples} passes; with so few, no percentile above the median has"
            " ten samples beyond it, so wall_raw_max_s is shown"
        )
        print(f"times are in reference seconds: raw x {PROBE_REFERENCE_S} / mean of the speed probes around each job")
    print(f"error_rate = {error_rate:.6g} ({len(tally.problems)} failed of {tally.attempted} jobs)")
    for note in NOTES:
        print(f"note: {note}")

    reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in metrics}
    results = {
        "provenance": prov,
        "workload": args.workload,
        "metrics": {**metrics, **extra},
        "samples": samples_detail,
        "counts": tally.counts,
        "count_changes": changes,
        "problems": tally.problems,
        "attempted": tally.attempted,
    }
    results_path.write_text(json.dumps(results, indent=1) + "\n")
    if spans:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans) + "\n")
    print(
        json.dumps(
            {
                "correct": not tally.problems,
                "attempted": tally.attempted,
                "failed": len(tally.problems),
                "metrics": reported,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
