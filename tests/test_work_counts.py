"""Host-independent work counts of three fixed units of work.

Wall time on a shared host drifts by tens of percent; how many accuracy
evaluations, Bessel ratios, inverses, sampler draws and simulator batches a
workflow makes does not.  Each counted function is wrapped, in every
``edgeplan`` module namespace that bound it by name (as
``perfbench/tracer.py`` wraps its targets), by a counter that worker threads
may share.  The kernels, the planner and the simulator are counted where they
do the work (``_ratio``, ``_accuracy``, ``_discrete_plans``, ``_simulate``,
``_classify``, ...), not at public wrappers that hot callers bypass; a test
pins that each kernel's public wrapper calls its core once.

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

from edgeplan import accuracy, circstats, simulator
from edgeplan.cli import main
from edgeplan.optimizer import solve_discrete

from helpers import random_instance

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"

COUNTED = (
    ("circstats", "_ratio"),
    ("circstats", "_ratio_inv"),
    ("circstats", "sample_von_mises"),
    ("accuracy", "_accuracy"),
    ("accuracy", "_distorted"),
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


def test_each_public_kernel_calls_its_core_once(counts):
    # the gate counts the cores, so a public wrapper that did the work itself
    # would hide it; one call of each wrapper must be one call of its core
    profile = accuracy.FeatureProfile(j_classes=10, c1=0.5, c2=1.0, c3=200.0, c4=0.1, n_layers=39)
    calls = {"_ratio": lambda: circstats.bessel_ratio(2.5),
             "_ratio_inv": lambda: circstats.bessel_ratio_inv(0.6),
             "_accuracy": lambda: accuracy.accuracy_of_kappa(7.0, 10),
             "_distorted": lambda: accuracy.kappa_distorted(1e-3, 12.5, profile)}
    for core, call in calls.items():
        before = counts[core]
        call()
        assert counts[core] == before + 1, core


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
    assert counts["_accuracy"] <= 1_194
    assert counts["_distorted"] <= 474
    assert counts["_ratio_inv"] <= 300
    assert counts["_ratio"] <= 4_241
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
    assert counts["_accuracy"] <= 3_019
    assert counts["_ratio"] <= 9_410
    assert counts["_ratio_inv"] <= 537
    assert counts["_distorted"] <= 1_186
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
    assert counts["_accuracy"] <= cells
