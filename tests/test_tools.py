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


def test_bench_pairs_summarises_the_unscaled_times_and_the_calibration_skew():
    bench_pairs = _load("bench_pairs")
    values = {"items_per_s": ([100.0, 120.0, 110.0], [130.0, 140.0, 150.0]),
              "op_p50_ms": ([2.0, 1.0, 3.0], [1.0, 1.5, 2.0]),
              "reference_pass_ms": ([3.0, 3.2, 3.1], [4.5, 4.4, 4.6])}
    runs = [{side: {"unscaled": {name: {"value": pair[k][i]} for name, pair in values.items()}}
             for k, side in enumerate(bench_pairs.SIDES)} for i in range(3)]
    summary = bench_pairs.summarise_unscaled(runs)
    assert list(summary) == ["items_per_s", "op_p50_ms", "reference_pass_ms"]
    assert summary["items_per_s"]["base"] == {"median": 110.0, "q1": 105.0, "q3": 115.0}
    assert summary["items_per_s"]["change_over_base"] == pytest.approx(140.0 / 110.0)
    assert summary["op_p50_ms"]["change"]["median"] == 1.5
    assert summary["op_p50_ms"]["change_over_base"] == pytest.approx(0.75)
    # the calibration pass ran 4.5 / 3.1 = 1.45x slower beside the change
    assert summary["reference_pass_ms"]["change_over_base"] == pytest.approx(4.5 / 3.1)
    cells, ratio = bench_pairs.printed(summary["reference_pass_ms"])
    assert cells == ["3.1 [3.05, 3.15]", "4.5 [4.45, 4.55]"] and ratio == "1.4516"
