"""Host-independent work counts of three fixed units of work.

Wall time on a shared host drifts by tens of percent; how many accuracy
evaluations, Bessel ratios, inverses, sampler draws and simulator batches a
workflow makes does not.  Each counted function is wrapped, in every
``edgeplan`` module namespace that bound it by name (as
``perfbench/tracer.py`` wraps its targets), by a counter that worker threads
may share.  The planner and simulator are counted where they do the work
(``_discrete_plans``, ``_simulate``, ``_cell_accuracy``, ``_classify``), not
at public wrappers the workflows bypass.

The Simpson ladder levels ``accuracy_of_kappa`` builds are read from its
cache's own miss count, from an empty cache.  Counts fixed by the design (one
batch per sweep row, one draw per class per cell) are pinned exactly.  Counts
of numerical work are pinned as upper bounds at today's values: a change that
lowers one tightens its pin, and a change that raises one says why.
"""

import importlib
import json
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from edgeplan import accuracy, simulator
from edgeplan.cli import main
from edgeplan.optimizer import solve_discrete

from helpers import random_instance

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"

COUNTED = (
    ("circstats", "bessel_ratio"),
    ("circstats", "bessel_ratio_inv"),
    ("circstats", "sample_von_mises"),
    ("accuracy", "accuracy_of_kappa"),
    ("accuracy", "kappa_distorted"),
    ("optimizer", "_discrete_plans"),
    ("simulator", "_simulate"),
    ("simulator", "_cell_accuracy"),
    ("simulator", "_classify"),
    ("simulator", "_draw_noise"),
    ("rng", "make_rng"),
)


@pytest.fixture
def counts(monkeypatch):
    """Count every call of each :data:`COUNTED` function, from any thread, by its name,
    with the Simpson ladder cache emptied first."""
    accuracy._cached_level.cache_clear()
    tally, lock = Counter(), threading.Lock()
    modules = [mod for key, mod in list(sys.modules.items())
               if mod is not None and (key == "edgeplan" or key.startswith("edgeplan."))]

    def counting(name, fn):
        def counted(*args, **kwargs):
            with lock:
                tally[name] += 1
            return fn(*args, **kwargs)

        return counted

    for module, name in COUNTED:
        original = getattr(importlib.import_module(f"edgeplan.{module}"), name)
        wrapper = counting(name, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, wrapper)
    return tally


def _config(tmp_path, **monte_carlo):
    raw = json.loads(DEFAULT_CONFIG.read_text())
    raw["monte_carlo"].update(monte_carlo)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_the_readme_sweep_plans_once_per_target_and_simulates_once_per_row(counts, tmp_path):
    # 31 SNR points x 4 exit sets x 2 targets; tasks per row move no planner count
    args = ["sweep", _config(tmp_path, tasks=200), "--snr-db=-5:25:1",
            "--exits-variants", "9,37;9,19,37;9,19,29,37;9,19,29,34,37", "--p0-list", "0.6,0.7",
            "--out", str(tmp_path / "sweep.csv")]
    assert main(args) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    feasible = sum(row.endswith(",1") for row in rows)
    assert len(rows) == 248
    assert feasible == 236
    # one stream and one batch per row; only a feasible batch draws and classifies
    assert counts["_discrete_plans"] == 2
    assert counts["_simulate"] == counts["make_rng"] == 248
    assert counts["sample_von_mises"] == counts["_classify"] == counts["_draw_noise"] == feasible
    assert counts["_cell_accuracy"] == 0
    assert counts["accuracy_of_kappa"] <= 1_194
    assert counts["kappa_distorted"] <= 474
    assert counts["bessel_ratio_inv"] <= 300
    assert counts["bessel_ratio"] <= 4_241
    # J = 10 at 16, 32, 64, 128 and 256 intervals
    assert accuracy._cached_level.cache_info().misses <= 5


def test_random_plans_evaluate_the_accuracy_kernels_a_bounded_number_of_times(counts):
    # the plan_stream unit: scenarios drawn one after another from one generator
    rng = np.random.default_rng(20260809)
    for _ in range(300):
        solve_discrete(**random_instance(rng))
    assert counts["_discrete_plans"] == 300
    assert counts["sample_von_mises"] == counts["_simulate"] == 0
    # 10.06 accuracy evaluations and 31.4 Bessel ratios per plan
    assert counts["accuracy_of_kappa"] <= 3_019
    assert counts["bessel_ratio"] <= 9_410
    assert counts["bessel_ratio_inv"] <= 537
    assert counts["kappa_distorted"] <= 1_186
    assert accuracy._cached_level.cache_info().misses <= 5


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_a_validate_cell_draws_each_class_once_and_one_noise_stream(counts, tmp_path, cores,
                                                                     monkeypatch):
    # the same draws on any core count: one von Mises stream and draw per
    # class, one noise stream per cell, and one labelling pass per class
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    args = ["validate", _config(tmp_path, n_per_class=50), "--grid", "8,32x9,37",
            "--out", str(tmp_path / "validate.csv")]
    assert main(args) in (0, 2)
    cells, j_classes = 4, 10
    assert counts["_cell_accuracy"] == counts["_draw_noise"] == cells
    assert counts["sample_von_mises"] == counts["_classify"] == cells * j_classes
    assert counts["make_rng"] == cells * (j_classes + 1)
    assert counts["_simulate"] == counts["_discrete_plans"] == 0
    assert counts["accuracy_of_kappa"] <= cells
