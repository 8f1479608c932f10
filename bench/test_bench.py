"""Tests of the benchmark harness itself (the library's suite is under tests/).

    python3 -m pytest -q bench/test_bench.py

The traced-run tests start the harness as a child process, as a user would,
and take a few minutes in all.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from random import Random

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def run_bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=600, check=False,
    )


@pytest.mark.parametrize("workload", NAMES)
def test_count_metrics_repeat_exactly(workload):
    results = []
    for _ in range(2):
        done = run_bench(ROOT, workload, 3, 1)
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.splitlines()[-1]))
    first, second = results
    assert first["correct"] and second["correct"]
    # every count and ratio, e.g. *.calls, *.evals, *.terms_out, kantorovich.cone_calls,
    # *distinct_ratio; trace.overhead_ratio is a ratio of times
    counts = [name for name, m in first["metrics"].items()
              if m["unit"] in ("count", "ratio") and name != "trace.overhead_ratio"]
    assert len(counts) == 17
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload", NAMES)
def test_seed_decides_the_inputs(workload):
    one = workloads.input_fingerprint(workload, 1)
    assert one == workloads.input_fingerprint(workload, 1)
    assert one != workloads.input_fingerprint(workload, 2)


@pytest.mark.parametrize("workload", NAMES)
def test_recorded_composition_matches_the_generator(workload):
    spec = json.loads((BENCH / "workloads.json").read_text())["workloads"][workload]
    w = workloads.WORKLOADS[workload]
    rng = Random(0)
    assert Counter(op.name for op in w.prelude(rng)) == Counter(spec["prelude"])
    for _ in range(3):
        assert Counter(op.name for op in w.round(rng)) == Counter(spec["round"])


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(tmp_path, "extension", 1, 0)
    assert done.returncode != 0
    assert done.stdout == ""
