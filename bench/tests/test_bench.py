"""Self-test of the benchmark harness.

    python3 -m pytest bench/tests -q

Each test runs bench/run.py from the command line, with one short
pass per workload, so the whole file takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_prints_every_metric(workload, trace):
    # Seed 42 makes the suite check its output against the pinned digest.
    proc = _bench("--workload", workload, "--seed", "42", "--seconds", "1", "--trace", str(trace))
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["end_to_end" if trace == 0 else "per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    table = proc.stdout.splitlines()[:-1]
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert any(line.split()[:2] == [m["name"], m["unit"]] for line in table), m["name"]
    assert any(line.split()[:3] == ["failed_frac", "ratio", "0"] for line in table)
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        # Layer self times account for the pass's wall time.
        assert metrics["trace.coverage"] > 0.95
        assert metrics["trace.overhead_ratio"] > 0
        assert (ROOT / ".bench_out" / "spans" / workload / "pass1.csv.gz").is_file()


@pytest.mark.parametrize("workload", ["suite", "brute-large", "pte-search"])
def test_cost_cap_of_one_fails_every_check_without_a_traceback(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--max-cost", "1")
    result = _result(proc)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "Traceback" not in proc.stdout + proc.stderr
    assert any(line.split()[:3] == ["failed_frac", "ratio", "1"] for line in proc.stdout.splitlines())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "suite", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
