"""Host-independent work counts of three fixed units of work.

Wall time on a shared host drifts by tens of percent; how many accuracy
evaluations, Bessel ratios, inverses, sampler draws and simulator batches a
workflow makes does not.  Each counted function is wrapped, in every
``edgeplan`` module namespace that bound it by name (as
``perfbench/tracer.py`` wraps its targets), by a counter that worker threads
may share.  The kernels, the planner and the simulator are counted where they
do the work (``_ratio``, ``_accuracy``, ``_simulate``, ``_classify``, ...),
not at public wrappers that hot callers bypass; a test pins that each
kernel's public wrapper calls its core once.  The depth search is counted at
``min_depth_for_accuracy``, which has no private core, with each of its
bisections tallied by whether a certified band spared it evaluations, so a
search that falls back to evaluating every step shows; the argument checks are
counted at ``_check_real``, the one rule behind them.  The exit choices are
counted as the planning targets keep them, one per (bit-width, exit set).

The Simpson ladder levels ``accuracy_of_kappa`` builds are read from its
cache's own miss count, from an empty cache.  Counts fixed by the design (one
batch per sweep row, one draw per class per cell, one thread pool per sweep and
per validate grid, counted where the simulator makes it) are pinned exactly.
Counts of numerical work are pinned as upper bounds at today's values: a change
that lowers one tightens its pin, and a change that raises one says why.
"""

import importlib
import json
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from edgeplan import accuracy, circstats, optimizer, simulator
from edgeplan.cli import main
from edgeplan.optimizer import solve_discrete

from helpers import random_instance, record_depth_bisections

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"

COUNTED = (
    ("circstats", "_ratio"),
    ("circstats", "_ratio_inv"),
    ("circstats", "sample_von_mises"),
    ("accuracy", "_accuracy"),
    ("accuracy", "_distorted"),
    ("accuracy", "min_depth_for_accuracy"),
    ("circstats", "_check_real"),
    ("simulator", "_simulate"),
    ("simulator", "_grid_accuracy"),
    ("simulator", "_classify"),
    ("simulator", "_draw_noise"),
    ("simulator", "ThreadPoolExecutor"),
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


@pytest.fixture
def searches(monkeypatch):
    """The depth search's bisections: ``band`` where a certified band answered a step
    without evaluating, ``every step`` where each step evaluated (a bisection without
    a certified band, or the last-bit check on the direct test)."""
    return record_depth_bisections(monkeypatch)


@pytest.fixture
def targets(monkeypatch):
    """Every ``optimizer._Target`` made, in order; each keeps the exit choices it made."""
    made, init = [], optimizer._Target.__init__

    def recording(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(optimizer._Target, "__init__", recording)
    return made


def _choices(targets):
    return sum(len(target._choices) for target in targets)


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


def test_the_readme_sweep_plans_once_per_target_and_simulates_once_per_row(counts, searches,
                                                                           targets, tmp_path):
    # 31 SNR points x 4 exit sets x 2 targets; tasks per row move no planner count
    args = ["sweep", _config(tmp_path, tasks=200), "--snr-db=-5:25:1",
            "--exits-variants", "9,37;9,19,37;9,19,29,37;9,19,29,34,37", "--p0-list", "0.6,0.7",
            "--out", str(tmp_path / "sweep.csv")]
    assert main(args) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    feasible = sum(row.endswith(",1") for row in rows)
    assert len(rows) == 248
    assert feasible == 236
    # one stream and one batch per row, on one pool; only a feasible batch
    # draws and classifies
    assert counts["ThreadPoolExecutor"] == 1
    assert counts["_simulate"] == counts["make_rng"] == 248
    assert counts["sample_von_mises"] == counts["_classify"] == counts["_draw_noise"] == feasible
    assert counts["_grid_accuracy"] == 0
    # one target per p0, and one exit choice per (p0, bit-width, exit set):
    # a row between two bit-width thresholds only prices its choice
    assert len(targets) == 2
    assert _choices(targets) == 128
    # one depth search per (p0, noise level): per p0, the 14 ceilings below
    # 9 dB each see their own noise, and every ceiling from 9 dB on
    # (q* >= 29.99 bits) and every discrete scan share the noise-free one
    assert counts["min_depth_for_accuracy"] == 2 * (14 + 1)
    # the 29 searches past their end checks each bisect inside a certified band,
    # and none falls back to evaluating every step
    assert Counter(searches) == Counter(band=29)
    # a discrete scan starts at the noise-free depth, at or below its
    # point's ceiling depth, so at a noisy bit-width it can evaluate more exits
    assert counts["_accuracy"] <= 488
    assert counts["_distorted"] <= 256
    assert counts["_ratio_inv"] <= 233
    assert counts["_ratio"] <= 1_373
    assert counts["_check_real"] <= 1_810
    # J = 10 at 16, 32, 64, 128 and 256 intervals
    assert accuracy._cached_level.cache_info().misses <= 5


def test_random_plans_evaluate_the_accuracy_kernels_a_bounded_number_of_times(counts, searches,
                                                                              targets):
    # the plan_stream unit: scenarios drawn one after another from one generator
    rng = np.random.default_rng(20260809)
    for _ in range(300):
        solve_discrete(**random_instance(rng))
    # one target and one exit choice per plan: nothing is shared between scenarios
    assert len(targets) == _choices(targets) == 300
    assert counts["sample_von_mises"] == counts["_simulate"] == counts["ThreadPoolExecutor"] == 0
    # 297 depth searches, all noise-free (3 plans send nothing); the 225 past
    # their end checks each bisect inside a certified band, and none falls
    # back to evaluating every step
    assert counts["min_depth_for_accuracy"] == 297
    assert Counter(searches) == Counter(band=225)
    # 10.15 accuracy evaluations and 6.91 Bessel ratios per plan; a scan from
    # the noise-free depth can start some exits earlier than one from its
    # own noise level's, so it can evaluate more exits
    assert counts["_accuracy"] <= 3_045
    assert counts["_ratio"] <= 2_074
    assert counts["_ratio_inv"] <= 218
    assert counts["_distorted"] <= 1_211
    assert counts["_check_real"] <= 4_494
    assert accuracy._cached_level.cache_info().misses <= 5


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_a_validate_cell_draws_each_class_once_and_one_noise_stream(counts, targets, tmp_path,
                                                                     cores, monkeypatch):
    # the same draws on any core count: one von Mises stream and draw per
    # class, one noise stream per cell drawn one class chunk at a time, and
    # one labelling pass per class, all on one pool for the whole grid
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: set(range(cores)),
                        raising=False)
    draw, sizes = simulator._draw_noise, []
    monkeypatch.setattr(simulator, "_draw_noise",
                        lambda variance, size, rng: sizes.append(size) or draw(variance, size, rng))
    args = ["validate", _config(tmp_path, n_per_class=50), "--grid", "8,32x9,37",
            "--out", str(tmp_path / "validate.csv")]
    assert main(args) in (0, 2)
    cells, j_classes = 4, 10
    assert counts["_grid_accuracy"] == counts["ThreadPoolExecutor"] == 1
    assert counts["_draw_noise"] == cells * j_classes
    assert sizes == [50] * cells * j_classes
    assert counts["sample_von_mises"] == counts["_classify"] == cells * j_classes
    assert counts["make_rng"] == cells * (j_classes + 1)
    assert counts["_simulate"] == _choices(targets) == 0
    assert counts["_accuracy"] <= cells
