"""Tiny-size run of every benchmark workload, so the harness cannot rot.

``bench/run.py`` writes ``.bench_runs/`` under its own root, so each run
works on a copy of ``bench/``, ``src/`` and ``BENCHMARK.json`` in a
temporary directory and leaves the checkout's results alone. The traced
run also exercises the tracer, which patches layer functions by name.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_passes_its_checks(tmp_path, workload):
    skip = shutil.ignore_patterns("__pycache__", ".bench_runs")
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", "1", "--scale", "tiny"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr[-2000:]
    assert result["failed"] == 0
