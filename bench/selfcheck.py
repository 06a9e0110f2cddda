"""Tiny-size self-check of the benchmark, so that it cannot rot unnoticed.

Usage, from the repository root:

    python3 bench/selfcheck.py

Runs every workload at ``--scale tiny`` for one second, untraced and
traced, and fails unless each run passes its output checks and prints
exactly the metrics BENCHMARK.json declares. Takes about half a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [*spec["command"], "--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--scale", "tiny"]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
            problems = []
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            else:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                if not result["correct"] or result["failed"]:
                    problems.append(
                        f"{result['failed']} of {result['attempted']} outcomes failed: {proc.stderr.strip()[-500:]}"
                    )
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                if units != declared[trace]:
                    differing = sorted(units.keys() ^ declared[trace].keys())
                    problems.append(f"metrics differ from BENCHMARK.json: {differing}")
            status = "ok" if not problems else "FAILED " + "; ".join(problems)
            print(f"{workload} trace={trace}: {status}")
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
