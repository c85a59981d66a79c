"""Set-up probe: time ``import edgeplan`` plus ``load_config`` in a fresh process.

Run from the root of a checkout with ``PYTHONPATH=src``.  Prints a JSON object
with the measured seconds and the seconds scaled to the nominal host (see
``calibrate.py``); the reference passes run after the timed region.
"""

import json
from time import perf_counter

start = perf_counter()
import edgeplan  # noqa: E402

edgeplan.load_config("configs/default.json")
elapsed = perf_counter() - start

from calibrate import NOMINAL_PASS_S, pass_seconds  # noqa: E402

print(json.dumps({"raw": elapsed, "scaled": elapsed * NOMINAL_PASS_S / pass_seconds(15)}))
