"""Benchmark of the edgeplan package.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload {plan_stream,sweep_readme,validate_mc} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it measures set-up time in fresh processes, then runs the
workload in a child process with tracing off and reports the end-to-end
metrics.  With ``--trace 1`` the child runs a fixed unit of the workload
untraced and then traced, and reports per-layer calls, self and total time,
work counts and the tracing overhead.  The last line of standard output is a
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
WORKLOADS = ("plan_stream", "sweep_readme", "validate_mc")
SETUP_PROBES = 7
TIME_LIMIT_S = 175.0


def main() -> int:
    started = perf_counter()
    parser = argparse.ArgumentParser(description="edgeplan benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args()

    root = Path.cwd()
    missing = [p for p in ("src/edgeplan/__init__.py", "configs/default.json")
               if not (root / p).is_file()]
    if missing:
        print(f"run.py: not a checkout of the repository, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)

    metrics, unscaled = {}, {}
    if not args.trace:
        probes = [json.loads(_run([sys.executable, str(HERE / "setup_probe.py")], env, started))
                  for _ in range(1 if args.smoke else SETUP_PROBES)]
        metrics["setup_s"] = {"value": statistics.median(p["scaled"] for p in probes), "unit": "s"}
        unscaled["setup_s"] = {"value": statistics.median(p["raw"] for p in probes), "unit": "s"}

    command = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", str(out_dir)]
    if args.smoke:
        command.append("--smoke")
    child = json.loads(_run(command, env, started))
    metrics.update(child["metrics"])
    unscaled.update(child.get("unscaled", {}))

    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": child["env"], "unscaled": unscaled}
    (out_dir / "result.json").write_text(json.dumps({**info, **result}, indent=2) + "\n",
                                         encoding="utf-8")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


def _run(command: list, env: dict, started: float) -> str:
    """Run a child to completion within the time limit; return its last stdout line."""
    remaining = TIME_LIMIT_S - (perf_counter() - started)
    proc = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(remaining, 1.0), check=False)
    if proc.returncode != 0:
        raise SystemExit(f"run.py: {Path(command[1]).name} exited {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


if __name__ == "__main__":
    sys.exit(main())
