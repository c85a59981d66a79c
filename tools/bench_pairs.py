"""Compare two checkouts on one benchmark workload in alternating pairs.

Usage, from anywhere::

    python tools/bench_pairs.py --base PARENT_DIR --change CHANGE_DIR \\
        --workload plan_stream --seed 20260809 --pairs 10 --out pairs.json

Runs ``perfbench/run.py --trace 0`` in each checkout, one run at a time, with
the same workload, seed and run length (``run_seconds`` in the change's
``BENCHMARK.json``).  Pair ``i`` runs the base first when ``i`` is even and the
change first when it is odd, so a drift in host speed falls on both sides
alike.  For every end-to-end metric named in the change's ``BENCHMARK.json``
it prints each side's median and quartiles, the change's median over the
base's, and the number of pairs the change won, lost and tied; "better"
follows the metric's declared direction.  ``beyond_base_iqr`` says whether
the medians differ by more than the distance between the base's quartiles.
It then prints each side's unscaled ``items_per_s``, ``op_p50_ms`` and
``reference_pass_ms`` (the calibration pass that scales the times) with the
change's median over the base's: a ``reference_pass_ms`` ratio away from 1
means the scale itself moved, for example when one side runs threads that
compete with the calibration, and the scaled metrics carry that skew.
The same numbers, every run's raw metrics, and each side's ``env`` line,
commit and ``src`` tree go to ``--out`` as JSON.  Standard library only; a
run that exits non-zero stops the comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")
UNSCALED = ("items_per_s", "op_p50_ms", "reference_pass_ms")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run in ``checkout``: its env line and its result line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: run.py in {checkout} exited {proc.returncode}")
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return {"env": info["env"], "unscaled": info["unscaled"], **result}


def commit_of(checkout: Path) -> dict:
    """The checkout's HEAD, the git tree of its ``src``, and whether tracked files
    differ from HEAD; all None outside a git checkout."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=checkout, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, check=True).stdout.strip()
    try:
        return {"head": git("rev-parse", "HEAD"), "src_tree": git("rev-parse", "HEAD:src"),
                "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.CalledProcessError):
        return {"head": None, "src_tree": None, "dirty": None}


def spread(values: list) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: list, end_to_end: list) -> dict:
    """Per metric: each side's spread, the change over the base, and the pair outcomes."""
    summary = {}
    for metric in end_to_end:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [run[side]["metrics"][name]["value"] for run in runs] for side in SIDES}
        wins = losses = 0
        for base, change in zip(values["base"], values["change"]):
            wins += change > base if higher else change < base
            losses += change < base if higher else change > base
        sides = {side: spread(values[side]) for side in SIDES}
        base, change = sides["base"], sides["change"]
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            **sides,
            "change_over_base": change["median"] / base["median"] if base["median"] else None,
            "wins": wins,
            "losses": losses,
            "ties": len(runs) - wins - losses,
            "beyond_base_iqr": abs(change["median"] - base["median"]) > base["q3"] - base["q1"],
        }
    return summary


def summarise_unscaled(runs: list) -> dict:
    """Per :data:`UNSCALED` time: each side's spread and the change's median over the base's."""
    summary = {}
    for name in UNSCALED:
        sides = {side: spread([run[side]["unscaled"][name]["value"] for run in runs])
                 for side in SIDES}
        base, change = sides["base"]["median"], sides["change"]["median"]
        summary[name] = {**sides, "change_over_base": change / base if base else None}
    return summary


def printed(row: dict) -> tuple:
    """A summary row's sides as ``median [q1, q3]`` and its ratio, as printed."""
    cells = [f"{row[s]['median']:.6g} [{row[s]['q1']:.6g}, {row[s]['q3']:.6g}]" for s in SIDES]
    return cells, "-" if row["change_over_base"] is None else f"{row['change_over_base']:.4f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path, help="checkout of the parent")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = {"base": args.base.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = float(spec["run_seconds"])

    runs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"pair": i, "first": order[0]}
        for side in order:
            pair[side] = run_once(checkouts[side], args.workload, args.seed, seconds)
            rate = pair[side]["metrics"]["items_per_s"]["value"]
            print(f"pair {i} {side}: items_per_s {rate:.6g}", file=sys.stderr, flush=True)
        runs.append(pair)

    summary, unscaled = summarise(runs, spec["end_to_end"]), summarise_unscaled(runs)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs of {seconds:g} s runs")
    print(f"{'metric':<14}{'base median [q1, q3]':>40}  {'change median [q1, q3]':>40}"
          f"{'ratio':>9}{'won':>5}{'lost':>5}{'tied':>5}  beyond base IQR")
    for name, row in summary.items():
        cells, ratio = printed(row)
        print(f"{name:<14}{cells[0]:>40}  {cells[1]:>40}{ratio:>9}{row['wins']:>5}"
              f"{row['losses']:>5}{row['ties']:>5}  {row['beyond_base_iqr']}")
    print("unscaled")
    for name, row in unscaled.items():
        cells, ratio = printed(row)
        print(f"{name:<18}{cells[0]:>36}  {cells[1]:>40}{ratio:>9}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "pairs": args.pairs,
        "sides": {side: {**commit_of(checkouts[side]), "env": runs[0][side]["env"]}
                  for side in SIDES},
        "summary": summary,
        "unscaled": unscaled,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
