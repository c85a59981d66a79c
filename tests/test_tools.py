"""Tests for the repository tools that are not part of the package."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(base, change, name):
    return [{"base": {"metrics": {name: {"value": b}}}, "change": {"metrics": {name: {"value": c}}}}
            for b, c in zip(base, change)]


def test_bench_pairs_counts_wins_in_each_metrics_direction():
    bench_pairs = _load("bench_pairs")
    base, change = [10.0, 20.0, 30.0, 40.0, 50.0], [15.0, 20.0, 29.0, 60.0, 70.0]
    for better, wins, losses in (("higher", 3, 1), ("lower", 1, 3)):
        metric = {"name": "m", "unit": "1/s", "better": better}
        row = bench_pairs.summarise(_runs(base, change, "m"), [metric])["m"]
        assert (row["wins"], row["losses"], row["ties"]) == (wins, losses, 1)
        assert row["base"] == {"median": 30.0, "q1": 20.0, "q3": 40.0}
        assert row["change"] == {"median": 29.0, "q1": 20.0, "q3": 60.0}
        assert row["change_over_base"] == pytest.approx(29.0 / 30.0)
        assert row["beyond_base_iqr"] is False  # |29 - 30| is within the base's 20-wide IQR
    one = bench_pairs.summarise(_runs([2.0], [1.0], "m"), [metric])["m"]
    assert one["base"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert one["beyond_base_iqr"] is True and one["wins"] == 1
