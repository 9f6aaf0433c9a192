"""Self-test of the benchmark at toy size.

    python3 -m pytest -q perfbench

Checks BENCHMARK.json against the benchmark's own rules, runs every
workload on tiny inputs, and requires exact counts to repeat over two
runs of one seed and over two runs of a second seed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench(root: Path, workload: str, seed: int, trace: int = 0):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--toy"],
        cwd=root, capture_output=True, text=True, timeout=120,
    )
    return proc


def run_ok(workload: str, seed: int, trace: int = 0) -> tuple[dict, dict]:
    proc = bench(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout
    recorded = json.loads((HERE / "out" / f"results-{workload}-toy-seed{seed}.json").read_text())
    return result, recorded


def test_benchmark_json_names_units_and_reasons():
    why = json.loads((HERE / "metrics.json").read_text())
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["unit"] and m["better"] in ("lower", "higher") and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert m["unit"] and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert set(why) == {m["name"] for m in metrics}
    assert all(w["why"] and "\n" not in w["why"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_and_metrics_reported(workload):
    by_seed = {}
    for seed in (3, 4):
        first, recorded = run_ok(workload, seed)
        again, recorded_again = run_ok(workload, seed)
        assert recorded["counts"] == recorded_again["counts"]
        assert recorded_again["count_changes"] == []
        for result in (first, again):
            assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
            for m in SPEC["end_to_end"]:
                assert result["metrics"][m["name"]]["unit"] == m["unit"]
                assert result["metrics"][m["name"]]["value"] > 0
        by_seed[seed] = recorded["counts"]
    traced, recorded = run_ok(workload, 3, trace=1)
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]
    # The traced run's sweep adds jobs of its own; the pass's jobs must
    # count exactly as untraced.
    assert {job: recorded["counts"][job] for job in by_seed[3]} == by_seed[3]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, WORKLOADS[0], 3)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
