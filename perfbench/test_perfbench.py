"""Smoke tests of the benchmark itself: every workload at smoke size,
untraced and traced, plus the failure paths.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from common import END_TO_END, BenchFailure, Scratch  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402


def _run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = PER_LAYER if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "host {" in proc.stdout
    assert not (ROOT / ".perfbench_tmp").exists()


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "grid_s4", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("workload, reference", [
    ("grid_s4", "reference_rows"),
    ("campaign_meshes", "reference_report"),
])
def test_wrong_output_fails_the_run(workload, reference, monkeypatch):
    module = __import__(workload)
    real = getattr(module, reference)
    monkeypatch.setattr(module, reference, lambda spec: _corrupt(real(spec)))
    with Scratch(f"test-{workload}") as scratch, pytest.raises(BenchFailure):
        module.run(seed=1, seconds=0, trace=False, smoke=True, scratch=scratch)


def test_wrong_daemon_answer_fails_the_run(monkeypatch):
    import serve_mixed

    from repro.experiments import runner

    real = runner.run_cell

    def off_by_one(*args, **kwargs):
        summary = real(*args, **kwargs)
        summary.makespan += 1
        return summary

    monkeypatch.setattr(runner, "run_cell", off_by_one)
    with Scratch("test-serve") as scratch, pytest.raises(BenchFailure):
        serve_mixed.run(seed=1, seconds=0, trace=False, smoke=True, scratch=scratch)


def _corrupt(reference):
    if isinstance(reference, str):
        return reference.replace('"makespan": ', '"makespan": 1', 1)
    rows = [dict(row) for row in reference]
    rows[0]["makespan"] += 1
    return rows
