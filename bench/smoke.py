#!/usr/bin/env python3
"""The benchmark's own smoke test.

Run from the root of a checkout::

    python3 bench/smoke.py

It runs every workload at the tiny scale, untraced and traced, and
checks that each run exits 0, passes its output check against the
committed tiny fingerprints, and ends with the result object naming
every metric ``BENCHMARK.json`` declares, with its unit. It also checks that
the benchmark refuses to run, without printing a result, in a directory
that holds only ``BENCHMARK.json`` and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_run(workload: str, trace: int, declared: dict) -> None:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(run.DEFAULT_SEED), "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit "
                             f"{done.returncode}\n{done.stderr}")
    result = result_of(done.stdout)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{workload} trace={trace}: output check "
                             f"failed\n{done.stdout}")
    table = declared["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in table}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise AssertionError(f"{workload} trace={trace}: metrics {got}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric["value"], (int, float)):
            raise AssertionError(f"{workload}: {name} = {metric['value']!r}")
        if f"{name} = " not in done.stdout:
            raise AssertionError(f"{workload}: {name} not reported")
    print(f"ok {workload} trace={trace}")


def check_refuses_without_sources() -> None:
    """Only BENCHMARK.json and bench/: non-zero exit, no result line."""
    bare = Path(tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"),
             "--workload", "paper-figs-4p", "--seed", "0", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        raise AssertionError(f"ran without sources: {done.stdout}")
    print("ok refuses without sources")


def main() -> int:
    declared = json.loads(run.DECLARED.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import jobs

    names = [w["name"] for w in declared["workloads"]]
    if names != list(jobs.WORKLOADS):
        raise AssertionError(f"BENCHMARK.json workloads {names}")
    for name in names:
        for trace in (0, 1):
            check_run(name, trace, declared)
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
