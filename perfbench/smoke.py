"""Smoke self-test of the benchmark; not part of the tier-1 test suite.

Usage, from the root of a checkout:

    python3 perfbench/smoke.py

Runs every workload at a tiny size, traced and untraced, and fails unless
each run exits 0, reports ``correct``, and prints every metric that
``BENCHMARK.json`` names with the unit it declares.  It also checks that the
benchmark refuses to run, without printing a result, in a directory that
holds only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(root, workload, trace)
            if proc.returncode != 0:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: not correct: {result}")
            for metric in spec[section]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{workload} trace={trace}: {metric['name']} -> {got}")
            print(f"{workload} trace={trace}: {len(result['metrics'])} metrics", flush=True)

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    proc = run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    shutil.rmtree(bare)

    for problem in problems:
        print(problem, file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
