"""Tests for configuration loading and the command-line surface."""

import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from edgeplan.cli import main
from edgeplan.config import ConfigError, MonteCarloConfig, load_config, parse_config
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
        lambda c: c["quantizer"].update(c_min=-1e308, c_max=1e308),
        "quantizer.c_max",
        "quantizer.c_max-c_min=inf",
    ),
    (
        lambda c: c["quantizer"].update(c_min=-1e200, c_max=1e200),
        "quantizer.c_max",
        "quantizer.c_max-c_min=2e200",
    ),
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
    # non-finite values, which Python's JSON reader accepts, are rejected by
    # the dataclass under the same path
    (lambda c: c["feature_profile"].__setitem__("c2", math.nan), "feature_profile.c2",
     "feature_profile.c2=nan"),
    (lambda c: c["link"].__setitem__("snr_db", math.inf), "link.snr_db", "link.snr_db=inf"),
    # values whose float conversion overflows
    (lambda c: c["link"].__setitem__("snr_db", 4000), "link.snr_db"),
    (
        lambda c: c["link"].__setitem__("bandwidth_hz", 10**400),
        "link.bandwidth_hz",
        "link.bandwidth_hz=10^400",
    ),
    # wrong JSON types: an integral float is no integer, a bool or a string no number
    (lambda c: c["feature_profile"].__setitem__("J", 10.0), "feature_profile.J",
     "feature_profile.J=10.0"),
    (lambda c: c["feature_profile"].__setitem__("c1", True), "feature_profile.c1",
     "feature_profile.c1=true"),
    (lambda c: c["feature_profile"].__setitem__("c1", "0.35"), "feature_profile.c1",
     "feature_profile.c1='0.35'"),
    (lambda c: c["link"].__setitem__("t_max_s", None), "link.t_max_s", "link.t_max_s=null"),
    (lambda c: c["quantizer"].__setitem__("bit_alphabet", 5), "quantizer.bit_alphabet",
     "quantizer.bit_alphabet=5"),
    (lambda c: c["quantizer"].__setitem__("bit_alphabet", None), "quantizer.bit_alphabet",
     "quantizer.bit_alphabet=null"),
    (lambda c: c.__setitem__("exits", "9"), "exits", "exits='9'"),
    (lambda c: c.__setitem__("seed", 1.0), "seed", "seed=1.0"),
    # a section that is no JSON object
    (lambda c: c.__setitem__("link", None), "link", "link=null"),
    (lambda c: c.__setitem__("compute", 5), "compute", "compute=5"),
    (lambda c: c.__setitem__("quantizer", []), "quantizer"),
    (lambda c: c.__setitem__("feature_profile", None), "feature_profile"),
    (lambda c: c.__setitem__("monte_carlo", 5), "monte_carlo"),
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


def test_absent_or_null_monte_carlo_loads_the_defaults():
    raw = _base_config()
    raw["monte_carlo"] = None
    assert parse_config(raw).monte_carlo == MonteCarloConfig()
    del raw["monte_carlo"]
    assert parse_config(raw).monte_carlo == MonteCarloConfig()


def test_invalid_json_reports_source(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(bad)


def test_config_must_be_a_readable_json_object(tmp_path):
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    for path, message in (
        (listed, "<config>: expected an object, got list"),
        (tmp_path / "missing.json", "<config>: cannot read "),
    ):
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value).startswith(message), str(err.value)


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


def test_plan_rejects_a_link_whose_bit_budget_overflows(tmp_path, capsys):
    raw = _base_config()
    raw["link"].update(bandwidth_hz=1e300, snr_db=3000.0, t_max_s=1e300, d=1)
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(raw))
    assert main(["plan", str(path), "--cr"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: link.t_max_s: the bit budget") and "overflows" in err


@pytest.mark.parametrize("command, flags", [("plan", ["--cr"]), ("validate", ["--out", "v.csv"])])
def test_a_quantizer_range_whose_square_overflows_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                                     command, flags):
    # the range 2e200 is finite, but the quantization variance squares it
    monkeypatch.chdir(tmp_path)
    raw = _base_config()
    raw["quantizer"].update(c_min=-1e200, c_max=1e200)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(raw))
    assert main([command, str(path), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: quantizer.c_max: must exceed c_min"), err


def test_usage_error_exit_one(capsys):
    assert main(["plan"]) == 1
    assert main(["frobnicate"]) == 1


def _python(*args: str) -> subprocess.CompletedProcess:
    """``python *args`` in a child that imports edgeplan from this checkout, as
    the test process does."""
    path = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_module_entry_point_runs_in_subprocess():
    result = _python("-m", "edgeplan", "plan", str(DEFAULT_CONFIG))
    assert result.returncode == 0
    assert "feasible           : yes" in result.stdout


def test_module_entry_point_exits_with_mains_status(tmp_path):
    # 1 on a usage error, 2 on an infeasible plan, as main returns them
    assert _python("-m", "edgeplan").returncode == 1
    result = _python("-m", "edgeplan", "plan", str(_small_config(tmp_path, target_accuracy=0.99)))
    assert result.returncode == 2
    assert "feasible           : no" in result.stdout


def test_import_and_a_plan_load_no_scipy_module():
    # the package needs numpy alone: scipy.special's import would cost about
    # 0.2 s and 25 MB, which the benchmark's setup_s and peak_rss_mb would carry
    result = _python("-c", (
        "import sys, numpy as np, edgeplan\n"
        f"sys.path.insert(0, {str(REPO_ROOT / 'tests')!r})\n"
        "from helpers import random_instance\n"
        "edgeplan.solve_discrete(**random_instance(np.random.default_rng(20260809)))\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))"
    ))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_package_exports_exactly_the_modules_public_names():
    import ast
    import importlib
    import pkgutil
    import types

    import edgeplan

    # each module's __all__ is the one list of its public names; the package
    # re-exports their union and names none of them itself
    declared = {}
    for info in pkgutil.iter_modules(edgeplan.__path__):
        if info.name != "__main__":
            module = importlib.import_module(f"edgeplan.{info.name}")
            declared.update((name, module) for name in getattr(module, "__all__", ()))
    public = {
        name for name, value in vars(edgeplan).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(edgeplan.__all__) == sorted(declared) == sorted(public)
    for name, module in declared.items():
        assert getattr(edgeplan, name) is getattr(module, name)
    tree = ast.parse(Path(edgeplan.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            assert names == {"*"} or all(
                isinstance(getattr(edgeplan, name), types.ModuleType) for name in names
            )


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


def _readme_schema(heading: str) -> str:
    """The first line of the first fenced block under README's ``### heading``."""
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n### {heading}\n", 1)[1]
    return section.split("```\n", 2)[1].splitlines()[0]


@pytest.mark.parametrize("heading, run", [
    ("Sweep CSV schema", "readme_sweep"),
    ("Validate CSV schema", "default_validate"),
], ids=["sweep", "validate"])
def test_readme_csv_schemas_match_written_headers(request, heading, run):
    _, _, written = request.getfixturevalue(run)
    assert _readme_schema(heading) == written.decode().splitlines()[0]


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


def test_validate_passes_a_cell_where_model_and_simulation_agree_exactly(tmp_path, capsys):
    # two classes this far apart are always told apart: the model and every
    # draw read accuracy 1.0, so the gap and its 3-sigma limit are both 0
    raw = _base_config()
    raw["feature_profile"].update(J=2, c1=300.0)
    path = _small_config(tmp_path, feature_profile=raw["feature_profile"])
    out_csv = tmp_path / "v.csv"
    assert main(["validate", str(path), "--grid", "32x37", "--out", str(out_csv)]) == 0
    assert "1/1 cells pass" in capsys.readouterr().out
    assert out_csv.read_text().splitlines()[1] == "32,37,1,1,0,4000,0,0,1"


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
    ("sweep", "--snr-db", "0:inf:1"),
    ("validate", "--grid", "8x99"),
    # the span overflows a float; a grid of 1e300 points
    ("sweep", "--snr-db", "-1e308:1e308:1e308"),
    ("sweep", "--snr-db", "0:1e300:1"),
    ("validate", "--grid", "-1x9"),
    # a repeated entry would write its rows twice
    ("validate", "--grid", "8,8x9"),
    ("sweep", "--exits-variants", "9,19;9,19"),
    ("sweep", "--p0-list", "0.6,0.6"),
    ("sweep", "--snr-db", "3000:3000.000000000001:1e-13"),  # steps below the float spacing
    # flag text that does not parse
    ("sweep", "--snr-db", "0:10"),
    ("sweep", "--exits-variants", "9,19;"),
    ("sweep", "--p0-list", ","),
    ("validate", "--grid", "8,12"),
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


SNR_GRID_PART_ERRORS = [
    ("0:10:0", "STEP: must be a finite real > 0, got 0.0"),
    ("0:nan:1", "TO: must be a finite real, got nan"),
    ("nan:10:1", "FROM: must be a finite real, got nan"),
    # text that is not a number is named in the same form, not by float()'s message
    ("x:1:1", "FROM: must be a finite real, got 'x'"),
    ("0:y:1", "TO: must be a finite real, got 'y'"),
    ("0:1:z", "STEP: must be a finite real > 0, got 'z'"),
    # a point whose linear SNR vanishes beside 1 has no Shannon rate to plan with
    ("-170:-170:1", "-170 dB: 1 + snr rounds to 1, so the Shannon rate is 0, got 1e-17"),
]


@pytest.mark.parametrize(
    "value,message",
    SNR_GRID_PART_ERRORS,
    ids=[value for value, _ in SNR_GRID_PART_ERRORS],
)
def test_bad_snr_grid_part_is_named(tmp_path, capsys, value, message):
    path = _small_config(tmp_path)
    assert main(["sweep", str(path), f"--snr-db={value}", "--out", str(tmp_path / "o.csv")]) == 1
    assert capsys.readouterr().err == f"error: --snr-db: {message}\n"


def test_non_numeric_p0_is_reported_like_a_bad_value(tmp_path, capsys):
    path = _small_config(tmp_path)
    out = str(tmp_path / "o.csv")
    argv = ["sweep", str(path), "--snr-db=0:10:10", "--p0-list=0.6,x", "--out", out]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: --p0-list: must be a finite real, got 'x'\n"


LIST_TOKEN_ERRORS = [
    ("sweep", "--exits-variants=9,x", "must be an integer >= 1, got 'x'"),
    ("sweep", "--exits-variants=9,,19", "must be an integer >= 1, got ''"),
    ("sweep", "--p0-list=0.6,,0.7", "must be a finite real, got ''"),
    # an empty flag value is an empty entry, not the config's default
    ("sweep", "--p0-list=", "must be a finite real, got ''"),
    ("sweep", "--exits-variants=", "empty exit-set clause"),
    ("validate", "--grid=8x9.5", "must be an integer >= 1, got '9.5'"),
    ("validate", "--grid=8.0x9", "must be an integer >= 0, got '8.0'"),
    # of several bad entries, the first in reading order is named
    ("validate", "--grid=8,8x99", "repeated entry 8"),
    ("validate", "--grid=8x99,9.5", "depth must lie in [1, 39], got 99"),
]


@pytest.mark.parametrize(
    "command,flag,message", LIST_TOKEN_ERRORS, ids=[flag for _, flag, _ in LIST_TOKEN_ERRORS]
)
def test_bad_list_token_is_named_in_the_field_form(tmp_path, capsys, command, flag, message):
    # every list token is judged, an empty one included; one that does not
    # parse is reported like one that parses but fails its rule, not by
    # int()'s or float()'s message
    path = _small_config(tmp_path)
    argv = [command, str(path), flag, "--out", str(tmp_path / "o.csv")]
    if command == "sweep":
        argv.append("--snr-db=0:10:10")
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {flag.split('=')[0]}: {message}\n"


# the inputs behind the diagnostics README quotes, in README's order: a
# config edit and sweep flags
README_DIAGNOSTICS = [
    (lambda c: c["link"].__setitem__("bandwidth_hz", -1.0), []),
    (lambda c: c.__setitem__("seed", 1.0), []),
    (lambda c: None, ["--exits-variants=9,40"]),
    (lambda c: c["link"].__setitem__("snr_db", 4000), []),
    (lambda c: None, ["--snr-db=-4000:-3990:10"]),
]


def test_readme_quotes_the_cli_diagnostics(tmp_path, capsys):
    text = " ".join((REPO_ROOT / "README.md").read_text(encoding="utf-8").split())
    quoted = re.findall(r"`((?:config )?error: [^`]*)`", text)
    written = []
    for edit, flags in README_DIAGNOSTICS:
        raw = _base_config()
        edit(raw)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        argv = ["sweep", str(path), "--snr-db=0:10:10", *flags, "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 1
        written.append(" ".join(capsys.readouterr().err.split()))
    assert quoted == written


def test_readme_library_example_runs(capsys):
    text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    example = text.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```")[0]
    exec(compile(example, "README.md", "exec"), {"__name__": "readme_example"})
    assert len(capsys.readouterr().out.splitlines()) == 2


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


FIT_OUTPUTS = [
    (
        "affine", "1,3\n2,5\n3,7\n4,10\n",
        "fit affine: c1=2.3 c2=0.5 residual_rms=0.273861279\n", "",
        {"c1": 2.3, "c2": 0.5, "kind": "affine", "n_points": 4,
         "residual_rms": 0.27386127875258304},
    ),
    (
        "exp", "1,400\n2,370\n3,345\n4,318\n",
        "fit exponential: c3=431.46671 c4=0.0758198082 log_residual_rms=0.00235602193\n", "",
        {"c3": 431.4667102020482, "c4": 0.0758198081590324, "kind": "exponential",
         "log_residual_rms": 0.002356021929949622, "n_points": 4, "nonpositive_decay": False},
    ),
    (
        "exp", "1,1\n2,2.5\n3,4\n4,8\n",
        "fit exponential: c3=0.559016994 c4=-0.670832825 log_residual_rms=0.0933476448\n",
        "warning: fitted decay rate is not positive\n",
        {"c3": 0.5590169943749473, "c4": -0.6708328254285243, "kind": "exponential",
         "log_residual_rms": 0.09334764478172729, "n_points": 4, "nonpositive_decay": True},
    ),
]


@pytest.mark.parametrize(
    "kind, rows, stdout, stderr, record", FIT_OUTPUTS, ids=["affine", "exp", "exp-rising"]
)
def test_fit_output_is_pinned(tmp_path, capsys, kind, rows, stdout, stderr, record):
    csv_path, out_json = tmp_path / "series.csv", tmp_path / "fit.json"
    csv_path.write_text("ell,value\n" + rows)
    assert main(["fit", "--input", str(csv_path), "--kind", kind, "--out", str(out_json)]) == 0
    assert capsys.readouterr() == (stdout, stderr)
    text = out_json.read_text()
    written = json.loads(text)
    assert text == json.dumps(written, indent=2, sort_keys=True) + "\n"
    assert list(written) == sorted(record)
    for key, value in record.items():
        if isinstance(value, float):
            assert written[key] == pytest.approx(value, rel=1e-12, abs=0.0), key
        else:
            assert written[key] == value and type(written[key]) is type(value), key


@pytest.mark.parametrize("rows, message", [
    ("1.0,2.0\n2.0,oops\n3.0,4.0\n", ":2: non-numeric row"),
    ("1.0,2.0\n2.0,3.0,4.0\n", ":2: expected 2 columns, got 3"),
    # blank rows are skipped, not counted as rows of 0 columns
    ("depth,value\n\n , \n1.0,2.0\n", ": need at least 2 data rows"),
], ids=["non-numeric", "three-columns", "one-data-row"])
def test_fit_malformed_row_reports_line(tmp_path, capsys, rows, message):
    csv_path = tmp_path / "series.csv"
    csv_path.write_text(rows)
    assert main(["fit", "--input", str(csv_path), "--kind", "affine"]) == 1
    assert message in capsys.readouterr().err


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
            fh.write(f"{ell},{estimate_kappa_pooled(ds, 10).value!r}\n")
    out_json = tmp_path / "fit.json"
    assert main(["fit", "--input", str(csv_path), "--kind", "affine", "--out", str(out_json)]) == 0
    record = json.loads(out_json.read_text())
    assert abs(record["c1"] - config.profile.c1) / config.profile.c1 < 0.05
    assert abs(record["c2"] - config.profile.c2) / config.profile.c2 < 0.05
