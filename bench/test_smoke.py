"""Smoke test of the benchmark at a tiny shape (narrow levels, few rows).

    python3 -m pytest bench/test_smoke.py

Every workload, traced and untraced, must print each metric BENCHMARK.json
names and pass every output check. No timing is asserted.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# the workload-specific end-to-end names printed alongside the bounded ones
NAMED = {"train-paper": ["train_samples_per_s", "train_acc"],
         "evaluate-nslkdd": ["eval_rows_per_s", "eval_report_acc"],
         "ingest-nslkdd": ["ingest_rows_per_s"]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0

    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]

    checks = [l for l in lines if l.startswith("check ")]
    assert checks and all(": PASS " in l for l in checks), checks
    printed = {l.split()[1] for l in lines if l.startswith("metric ")}
    if not trace:
        assert {"ops_failed_frac", *NAMED[workload]} <= printed


def test_refuses_without_sources(tmp_path):
    """Without src/lunet beside it the benchmark exits non-zero and prints no result."""
    (tmp_path / "bench").mkdir()
    for f in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
