"""Tests for configuration loading and the command-line surface."""

import contextlib
import copy
import io
import json
import math
from pathlib import Path

import pytest

from edgeplan.cli import main
from edgeplan.config import ConfigError, load_config, parse_config
from edgeplan.system import epr

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = REPO_ROOT / "configs" / "default.json"


def _base_config() -> dict:
    return json.loads(DEFAULT_CONFIG.read_text())


def _small_config(tmp_path: Path, **overrides) -> Path:
    raw = _base_config()
    raw["monte_carlo"] = {"n_per_class": 2000, "tasks": 300}
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_default_config_loads():
    config = load_config(DEFAULT_CONFIG)
    assert config.link.bandwidth_hz == 1e8
    assert config.link.snr == pytest.approx(10.0 ** 1.5)  # 15 dB
    assert config.profile.j_classes == 10
    assert config.quantizer.bit_alphabet == tuple(range(33))
    assert config.exits.layers == (9, 14, 19, 29, 34, 37)
    assert config.monte_carlo.tasks == 2000


def test_parse_accepts_affine_compute_and_linear_snr():
    raw = _base_config()
    raw["link"] = {"bandwidth_hz": 1e8, "snr_linear": 31.0, "t_max_s": 0.012, "d": 120000}
    raw["compute"] = {"b1_s": 2e-4, "b2_s": 2e-3}
    config = parse_config(raw)
    assert config.link.snr == 31.0
    assert config.compute.b1 == 2e-4


MALFORMED = [
    (lambda c: c["link"].pop("bandwidth_hz"), "link.bandwidth_hz"),
    (lambda c: c["link"].__setitem__("bandwidth_hz", -1.0), "link.bandwidth_hz"),
    (lambda c: c["link"].__setitem__("snr_linear", 31.0), "link"),  # both snr forms
    (lambda c: c["link"].__setitem__("d", 0), "link.d"),
    (lambda c: c["link"].__setitem__("t_max_s", "fast"), "link.t_max_s"),
    (lambda c: c["compute"].__setitem__("b1_s", 2e-4), "compute"),  # both compute forms
    (lambda c: c["compute"].__setitem__("device_flops_per_s", 0.0), "compute.device_flops_per_s"),
    (lambda c: c["feature_profile"].__setitem__("J", 1), "feature_profile.J"),
    (lambda c: c["feature_profile"].__setitem__("c1", 0.0), "feature_profile.c1"),
    (lambda c: c["feature_profile"].__setitem__("c2", -5.0), "feature_profile.c2"),
    (lambda c: c["feature_profile"].__setitem__("c4", -0.1), "feature_profile.c4"),
    (lambda c: c["quantizer"].__setitem__("c_max", -1.0), "quantizer.c_max"),
    (lambda c: c["quantizer"].__setitem__("bit_alphabet", [4, 2]), "quantizer.bit_alphabet"),
    (lambda c: c["quantizer"].__setitem__("bit_alphabet", [0, 2.5]), "quantizer.bit_alphabet[1]"),
    (lambda c: c.__setitem__("exits", [9, 40]), "exits[1]"),
    (lambda c: c.__setitem__("exits", []), "exits"),
    (lambda c: c.__setitem__("target_accuracy", 0.05), "target_accuracy"),
    (lambda c: c.__setitem__("target_accuracy", 1.0), "target_accuracy"),
    (lambda c: c.__setitem__("seed", "abc"), "seed"),
    (lambda c: c["monte_carlo"].__setitem__("tasks", 0), "monte_carlo.tasks"),
    (lambda c: c["link"].__setitem__("bandwdith_hz", 1.0), "link.bandwdith_hz"),
    # a third element is the test id of a case whose path an earlier case uses
    (lambda c: c["feature_profile"].__setitem__("L", 0), "feature_profile.L"),
    (lambda c: c["feature_profile"].__setitem__("c3", 0.0), "feature_profile.c3"),
    (
        lambda c: c["link"].update(snr_linear=-1.0) or c["link"].pop("snr_db"),
        "link.snr_linear",
    ),
    (lambda c: c["link"].__setitem__("d", 1.5), "link.d", "link.d=1.5"),
    (lambda c: c.__setitem__("compute", {"b1_s": 2e-4, "b2_s": -1.0}), "compute.b2_s"),
    (lambda c: c["compute"].__setitem__("per_layer_flops", -1.0), "compute.per_layer_flops"),
    (lambda c: c["quantizer"].__setitem__("q_max", -1), "quantizer.q_max"),
    (
        lambda c: c["quantizer"].__setitem__("bit_alphabet", [0, 1, 99]),
        "quantizer.bit_alphabet[2]",
    ),
    (
        lambda c: c["quantizer"].__setitem__("bit_alphabet", []),
        "quantizer.bit_alphabet",
        "quantizer.bit_alphabet=[]",
    ),
    (lambda c: c.__setitem__("exits", [0, 9]), "exits[0]"),
    (lambda c: c.__setitem__("exits", [9, 9]), "exits", "exits=[9, 9]"),
    (lambda c: c["monte_carlo"].__setitem__("n_per_class", 0), "monte_carlo.n_per_class"),
    # values whose float conversion overflows
    (lambda c: c["link"].__setitem__("snr_db", 4000), "link.snr_db"),
    (
        lambda c: c["link"].__setitem__("bandwidth_hz", 10**400),
        "link.bandwidth_hz",
        "link.bandwidth_hz=10^400",
    ),
]


def _malformed_case(case):
    mutate, path, *test_id = case
    return pytest.param(mutate, path, id=test_id[0] if test_id else path)


@pytest.mark.parametrize("mutate,path", [_malformed_case(case) for case in MALFORMED])
def test_malformed_configs_name_the_field(mutate, path):
    raw = copy.deepcopy(_base_config())
    mutate(raw)
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert str(err.value).startswith(path + ":"), str(err.value)


def test_invalid_json_reports_source(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)


# ---------------------------------------------------------------------------
# plan command
# ---------------------------------------------------------------------------


def test_plan_feasible_exit_zero(tmp_path, capsys):
    path = _small_config(tmp_path)
    assert main(["plan", str(path), "--cr"]) == 0
    out = capsys.readouterr().out
    assert "plan:" in out and "plan_cr:" in out
    assert "feasible           : yes" in out


def test_plan_printed_record_recomputes(tmp_path, capsys):
    path = _small_config(tmp_path)
    main(["plan", str(path)])
    out = capsys.readouterr().out
    flat = [line for line in out.splitlines() if line.startswith("q=")][0]
    fields = dict(kv.split("=") for kv in flat.split())
    config = load_config(path)
    recomputed = epr(float(fields["q"]), float(fields["ell"]), config.link, config.compute)
    assert abs(recomputed - float(fields["epr_bits_per_s"])) <= 1e-9 * recomputed


def test_plan_infeasible_exit_two(tmp_path, capsys):
    path = _small_config(tmp_path, target_accuracy=0.76)  # above the profile ceiling
    assert main(["plan", str(path)]) == 2
    out = capsys.readouterr().out
    assert "feasible           : no" in out
    assert "epr_bits_per_s=0" in out


def test_plan_config_error_exit_one(tmp_path, capsys):
    raw = _base_config()
    raw["link"]["bandwidth_hz"] = -1.0
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(raw))
    assert main(["plan", str(path)]) == 1
    assert "link.bandwidth_hz" in capsys.readouterr().err


def test_usage_error_exit_one(capsys):
    assert main(["plan"]) == 1
    assert main(["frobnicate"]) == 1


def test_module_entry_point_runs_in_subprocess():
    import os
    import subprocess
    import sys

    # the child imports edgeplan from this checkout, as the test process does
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    result = subprocess.run(
        [sys.executable, "-m", "edgeplan", "plan", str(DEFAULT_CONFIG)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert result.returncode == 0
    assert "feasible           : yes" in result.stdout


# ---------------------------------------------------------------------------
# sweep command
# ---------------------------------------------------------------------------


def test_sweep_csv_schema_and_ordering(tmp_path, capsys):
    path = _small_config(tmp_path)
    out_csv = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            str(path),
            "--snr-db=-5:25:1",
            "--exits-variants",
            "9,37;9,19,37;9,19,29,37;9,19,29,34,37",
            "--p0-list",
            "0.7",
            "--out",
            str(out_csv),
        ]
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == (
        "snr_db,variant,p0,q,ell,pred_acc,emp_acc,emp_ci,"
        "epr_bits_per_s,epr_cr_bits_per_s,feasible"
    )
    assert len(lines) == 1 + 31 * 4
    rows = [line.split(",") for line in lines[1:]]
    keys = [(r[1], float(r[2]), float(r[0])) for r in rows]
    assert keys == sorted(keys)
    # CR dominance and SNR monotonicity surfaced in the output
    by_variant = {}
    for r in rows:
        assert float(r[9]) >= float(r[8])
        by_variant.setdefault(r[1], []).append(float(r[8]))
    for series in by_variant.values():
        assert all(b >= a for a, b in zip(series, series[1:]))


def test_sweep_deterministic_bytes(tmp_path):
    path = _small_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", str(path), "--snr-db", "0:20:10", "--out"]
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_rejects_bad_grid(tmp_path, capsys):
    path = _small_config(tmp_path)
    assert main(["sweep", str(path), "--snr-db", "25:5:1", "--out", "x.csv"]) == 1


def _run_shipped(out_dir: Path, command: str, *args: str):
    """Run a command on the shipped config: (exit code, stdout, CSV bytes)."""
    out_csv = out_dir / f"{command}.csv"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([command, str(DEFAULT_CONFIG), *args, "--out", str(out_csv)])
    return code, stdout.getvalue(), out_csv.read_bytes()


@pytest.fixture(scope="module")
def readme_sweep(tmp_path_factory):
    return _run_shipped(
        tmp_path_factory.mktemp("sweep"), "sweep", "--snr-db=-5:25:1",
        "--exits-variants", "9,37;9,19,37;9,19,29,37;9,19,29,34,37", "--p0-list", "0.6,0.7",
    )


@pytest.fixture(scope="module")
def default_validate(tmp_path_factory):
    # the shipped scenario at full size, 16 cells of 2e5 samples, run once for
    # every test that reads it
    return _run_shipped(tmp_path_factory.mktemp("validate"), "validate")


@pytest.mark.parametrize("command, run", [
    ("sweep", "readme_sweep"),
    ("validate", "default_validate"),
], ids=["readme-sweep", "default-validate"])
def test_shipped_commands_reproduce_reference_bytes(request, command, run):
    # the README sweep and the default validate at the shipped seed must write
    # the same bytes in every version; the reference files are only read here
    code, _, written = request.getfixturevalue(run)
    assert code == 0
    reference = REPO_ROOT / "perfbench" / "reference" / f"{command}.csv"
    assert written == reference.read_bytes()


# ---------------------------------------------------------------------------
# validate command
# ---------------------------------------------------------------------------


def test_validate_passes_and_is_deterministic(tmp_path, capsys):
    path = _small_config(tmp_path)
    out1, out2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
    grid = "8,16x9,29"
    assert main(["validate", str(path), "--grid", grid, "--out", str(out1)]) == 0
    first = capsys.readouterr().out
    assert "4/4 cells pass" in first
    assert main(["validate", str(path), "--grid", grid, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "q,ell,analytic_acc,emp_acc,emp_ci,n,abs_gap,limit_3se,cell_pass"


def test_validate_default_grid_on_shipped_config(default_validate):
    code, stdout, written = default_validate
    assert code == 0
    assert "16/16 cells pass" in stdout
    assert len(written.decode().splitlines()) == 17


def test_validate_perturbed_analytic_side_fails(tmp_path, capsys):
    path = _small_config(tmp_path)
    out_csv = tmp_path / "v.csv"
    code = main(
        ["validate", str(path), "--grid", "8,16x9,29", "--perturb", "--out", str(out_csv)]
    )
    assert code == 2
    assert "cells pass" in capsys.readouterr().out


def test_validate_rejects_depth_outside_model(tmp_path):
    path = _small_config(tmp_path)
    assert main(["validate", str(path), "--grid", "8x99", "--out", "x.csv"]) == 1


FLAG_ERRORS = [
    ("sweep", "--exits-variants", "9,40"),
    ("sweep", "--exits-variants", "9,0"),
    ("sweep", "--p0-list", "0.6,1.5"),
    ("sweep", "--snr-db", "25:5:1"),
    ("sweep", "--snr-db", "4000:4000:1"),
    ("sweep", "--snr-db", "-4000:-3990:10"),
    ("validate", "--grid", "8x99"),
]


@pytest.mark.parametrize(
    "command,flag,value", FLAG_ERRORS, ids=[f"{flag}={value}" for _, flag, value in FLAG_ERRORS]
)
def test_bad_flag_value_names_the_flag(tmp_path, capsys, command, flag, value):
    path = _small_config(tmp_path)
    argv = [command, str(path), f"{flag}={value}", "--out", str(tmp_path / "out.csv")]
    if command == "sweep" and flag != "--snr-db":
        argv.append("--snr-db=0:10:10")
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: "), err


# ---------------------------------------------------------------------------
# fit command
# ---------------------------------------------------------------------------


def test_fit_affine_exact_from_csv(tmp_path, capsys):
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("ell,kappa\n" + "".join(f"{l},{0.5 * l + 1.0}\n" for l in range(1, 21)))
    out_json = tmp_path / "fit.json"
    assert main(["fit", "--input", str(csv_path), "--kind", "affine", "--out", str(out_json)]) == 0
    record = json.loads(out_json.read_text())
    assert record["kind"] == "affine"
    assert record["c1"] == pytest.approx(0.5, rel=1e-12)
    assert record["c2"] == pytest.approx(1.0, rel=1e-12)
    assert record["residual_rms"] < 1e-12


def test_fit_exponential_exact_from_csv(tmp_path):
    csv_path = tmp_path / "series.csv"
    rows = "".join(f"{l},{400.0 * math.exp(-0.08 * l)!r}\n" for l in range(1, 31))
    csv_path.write_text(rows)
    out_json = tmp_path / "fit.json"
    assert main(["fit", "--input", str(csv_path), "--kind", "exp", "--out", str(out_json)]) == 0
    record = json.loads(out_json.read_text())
    assert record["c3"] == pytest.approx(400.0, rel=1e-9)
    assert record["c4"] == pytest.approx(0.08, rel=1e-9)


def test_fit_malformed_row_reports_line(tmp_path, capsys):
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("1.0,2.0\n2.0,oops\n3.0,4.0\n")
    assert main(["fit", "--input", str(csv_path), "--kind", "affine"]) == 1
    assert ":2:" in capsys.readouterr().err


def test_fit_round_trip_with_simulated_series(tmp_path, capsys):
    # pooled concentration estimates along depth, through the CSV surface
    from edgeplan.circstats import estimate_kappa_pooled
    from edgeplan.config import load_config as _load
    from edgeplan.simulator import generate_dataset

    config = _load(DEFAULT_CONFIG)
    csv_path = tmp_path / "kappa.csv"
    with csv_path.open("w") as fh:
        fh.write("ell,kappa_hat\n")
        for i, ell in enumerate([5.0, 12.0, 19.0, 26.0, 33.0]):
            ds = generate_dataset(config.profile, ell, 5000, seed=4300 + i)
            fh.write(f"{ell},{estimate_kappa_pooled(ds.samples, 10).value!r}\n")
    out_json = tmp_path / "fit.json"
    assert main(["fit", "--input", str(csv_path), "--kind", "affine", "--out", str(out_json)]) == 0
    record = json.loads(out_json.read_text())
    assert abs(record["c1"] - config.profile.c1) / config.profile.c1 < 0.05
    assert abs(record["c2"] - config.profile.c2) / config.profile.c2 < 0.05
