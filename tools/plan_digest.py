"""Print md5 digests of every planner's Plans over seeded random scenarios.

Usage, from anywhere::

    python tools/plan_digest.py --scenarios 2000 [--checkout DIR]

Scenario ``s``, for ``s = 0 .. N-1``, is ``tests/helpers.random_instance``
drawn from its own generator, ``numpy.random.default_rng(s)``.  For each of
``solve_discrete``, ``solve_cr`` and ``brute_force`` it prints the md5 of
the ``repr`` of every Plan's ``dataclasses.astuple`` fields, one line per
scenario, and then one md5 over all three planners' lines.  ``repr``
round-trips a float, so equal digests mean equal Plans field for field,
whatever the Plan class's layout (slots, for example, change its pickle
bytes).  The package and the scenario generator are imported from
``--checkout`` (by default the checkout holding this file), so one copy of
the tool compares a parent with a change.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import astuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PLANNERS = ("solve_discrete", "solve_cr", "brute_force")


def digests(scenarios: int) -> dict:
    """The md5 of each planner's Plans over ``scenarios`` scenarios, and of all of them."""
    import numpy as np

    import edgeplan
    from helpers import random_instance

    hashes = {name: hashlib.md5() for name in (*PLANNERS, "all")}
    for seed in range(scenarios):
        scenario = random_instance(np.random.default_rng(seed))
        without_exits = {k: v for k, v in scenario.items() if k != "exits"}
        for name in PLANNERS:
            args = without_exits if name == "solve_cr" else scenario
            line = f"{astuple(getattr(edgeplan, name)(**args))!r}\n".encode()
            hashes[name].update(line)
            hashes["all"].update(line)
    return {name: h.hexdigest() for name, h in hashes.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenarios", required=True, type=int, help="seeds 0 .. N-1")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="checkout whose src/edgeplan and tests/helpers.py are used")
    args = parser.parse_args()
    if args.scenarios < 1:
        parser.error("--scenarios must be >= 1")
    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "tests")]
    import edgeplan

    if checkout not in Path(edgeplan.__file__).resolve().parents:
        parser.error(f"imported edgeplan from {edgeplan.__file__}, not from {checkout}")
    for name, digest in digests(args.scenarios).items():
        print(f"{name:<15}{args.scenarios:>8}  {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
