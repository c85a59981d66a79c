"""One workload of the edgeplan benchmark, run in its own process by ``run.py``.

Usage (from the root of a checkout, with ``src`` holding the package):

    python3 perfbench/workload.py --workload plan_stream --seed 1 --seconds 12 \
        --trace 0 --out-dir perfbench/out/x [--smoke]

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns.  Only the calls into the package are timed;
instance generation, reading CSV files back and every correctness check run
outside the timed region.  The last line of standard output is a JSON object
with ``attempted``, ``failed``, ``metrics`` and ``env``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import replace
from pathlib import Path
from time import perf_counter

ROOT = Path.cwd()
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.special  # noqa: E402

import edgeplan  # noqa: E402
import edgeplan.cli  # noqa: E402
from calibrate import Sampler  # noqa: E402
from tracer import NAMES, Tracer  # noqa: E402

if not Path(edgeplan.__file__).resolve().is_relative_to(SRC.resolve()):
    raise SystemExit(f"edgeplan was imported from {edgeplan.__file__}, not from {SRC}")

REFERENCE = Path(__file__).resolve().parent / "reference"
DEFAULT_CONFIG = ROOT / "configs" / "default.json"

# The README sweep: 31 SNR points x 4 exit sets x 2 targets = 248 rows.
README_SWEEP = [
    "--snr-db=-5:25:1",
    "--exits-variants", "9,37;9,19,37;9,19,29,37;9,19,29,34,37",
    "--p0-list", "0.6,0.7",
]
# Row seeds derive from the (variant, p0, snr) grid indices, so this smaller
# sweep reproduces the first three README rows exactly.
SMOKE_SWEEP = ["--snr-db=-5:-3:1", "--exits-variants", "9,37", "--p0-list", "0.6"]
DEFAULT_GRID = "8,12,16,32x9,19,29,37"
SMOKE_GRID = "8x9,19"

# Columns that do not depend on the Monte Carlo seed.
SWEEP_FIXED = ("snr_db", "variant", "p0", "q", "ell", "pred_acc",
               "epr_bits_per_s", "epr_cr_bits_per_s", "feasible")
VALIDATE_FIXED = ("q", "ell", "analytic_acc", "n", "limit_3se")

COARSE_ALPHABET = (0, 1, 2, 4, 8, 12, 16, 24, 32)


def random_instance(rng: np.random.Generator) -> dict:
    """One planning scenario; the same draws, in the same order, as the test suite's generator."""
    profile = edgeplan.FeatureProfile(
        j_classes=10,
        c1=float(rng.uniform(0.1, 1.0)),
        c2=float(rng.uniform(0.1, 2.0)),
        c3=float(rng.uniform(50.0, 500.0)),
        c4=float(rng.uniform(0.01, 0.3)),
        n_layers=39,
    )
    link = edgeplan.LinkState(
        bandwidth_hz=float(rng.uniform(1e7, 2e8)),
        snr=edgeplan.snr_db_to_linear(float(rng.uniform(-5.0, 30.0))),
        t_max_s=float(rng.uniform(0.002, 0.02)),
        d=int(rng.integers(20_000, 200_000)),
    )
    comp = edgeplan.ComputeProfile(
        b1=float(rng.uniform(1e-5, 5e-4)),
        b2=float(rng.uniform(1e-4, 5e-3)),
    )
    alphabet = COARSE_ALPHABET if rng.random() < 0.5 else None
    spec = edgeplan.QuantizerSpec(c_min=-1.0, c_max=1.0, q_max=32, bit_alphabet=alphabet)
    layers = np.sort(rng.choice(np.arange(1, 40), size=int(rng.integers(2, 7)), replace=False))
    exits = edgeplan.ExitSet(layers=tuple(int(l) for l in layers))
    p0 = float(rng.uniform(0.15, 0.85))
    return {"link": link, "comp": comp, "profile": profile, "spec": spec, "exits": exits, "p0": p0}


def _plan_key(plan) -> tuple:
    return (plan.q, plan.ell, plan.feasible, plan.epr)


class PlanStream:
    """``solve_discrete`` on a seeded stream of random scenarios; one operation is one plan."""

    def __init__(self, seed: int, smoke: bool, out_dir: Path) -> None:
        self.seed = seed
        self._warm_rng = np.random.default_rng([seed, 1])
        self.trace_ops = 10 if smoke else 300

    def warmup(self) -> None:
        for _ in range(20):
            edgeplan.solve_discrete(**random_instance(self._warm_rng))

    def prepare(self, i: int) -> None:
        # operation i always gets the i-th scenario of the seed's stream
        if i == 0:
            self._rng = np.random.default_rng(self.seed)
        self.current = random_instance(self._rng)

    def op(self, i: int):
        return edgeplan.solve_discrete(**self.current)

    def collect(self, i: int, raw):
        return raw

    def items(self, output) -> int:
        return 1

    def trace_items(self, outputs: list) -> int:
        return len(outputs)

    def check(self, outputs: list) -> list:
        """Each plan must equal the brute-force oracle in q, ell, feasibility and EPR."""
        rng = np.random.default_rng(self.seed)
        flags = []
        for plan in outputs:
            oracle = edgeplan.brute_force(**random_instance(rng))
            flags.append(not isinstance(plan, Exception) and _plan_key(plan) == _plan_key(oracle))
        return flags


class CliWorkload:
    """One in-process ``edgeplan.cli.main`` command per operation, writing a CSV."""

    command = ""
    full_args: list = []
    smoke_args: list = []
    warmup_args: list = []
    fixed_columns: tuple = ()
    key_columns: tuple = ()
    ok_codes = (0,)

    def __init__(self, seed: int, smoke: bool, out_dir: Path) -> None:
        raw = json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8"))
        self.at_config_seed = seed == raw["seed"]
        raw["seed"] = seed
        self.config_path = out_dir / "config.json"
        self.config_path.write_text(json.dumps(raw), encoding="utf-8")
        self.csv_path = out_dir / f"{self.command}.csv"
        self.reference_path = REFERENCE / f"{self.command}.csv"
        self.smoke = smoke
        self.trace_ops = 1

    def _main(self, argv: list) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return edgeplan.cli.main(argv)

    def warmup(self) -> None:
        code = self._main([self.command, str(self.config_path), *self.warmup_args,
                           "--out", str(self.csv_path)])
        if code not in self.ok_codes:
            raise RuntimeError(f"warm-up {self.command} exited {code}")

    def prepare(self, i: int) -> None:
        pass

    def op(self, i: int):
        args = self.smoke_args if self.smoke else self.full_args
        return self._main([self.command, str(self.config_path), *args,
                           "--out", str(self.csv_path)])

    def collect(self, i: int, raw):
        if isinstance(raw, Exception):
            return raw
        return raw, self.csv_path.read_bytes()

    def items(self, output) -> int:
        raise NotImplementedError

    def trace_items(self, outputs: list) -> int:
        return 0 if isinstance(outputs[0], Exception) else _csv_rows(outputs[0][1])

    def check_rows(self, rows: list) -> bool:
        """Checks beyond the reference comparison; overridden per command."""
        return True

    def _reference_ok(self, data: bytes) -> bool:
        if self.at_config_seed and not self.smoke:
            return data == self.reference_path.read_bytes() and self.check_rows(_parse_csv(data)[1])
        header, rows = _parse_csv(data)
        ref_header, ref_rows = _parse_csv(self.reference_path.read_bytes())
        if header != ref_header or not rows:
            return False
        columns = ref_header if self.at_config_seed else self.fixed_columns
        ref_by_key = {tuple(r[c] for c in self.key_columns): r for r in ref_rows}
        keys = [tuple(r[c] for c in self.key_columns) for r in rows]
        if len(set(keys)) != len(keys):
            return False
        if not self.smoke and len(rows) != len(ref_rows):
            return False
        for key, row in zip(keys, rows):
            ref = ref_by_key.get(key)
            if ref is None or any(row[c] != ref[c] for c in columns):
                return False
        return self.check_rows(rows)

    def check(self, outputs: list) -> list:
        """Exit code, byte-identical repeats, the parent's reference CSV and the oracle."""
        first = next((o for o in outputs if not isinstance(o, Exception)), None)
        first_ok = first is not None and first[0] in self.ok_codes and self._reference_ok(first[1])
        return [
            first_ok and not isinstance(o, Exception) and o[0] in self.ok_codes
            and o[1] == first[1]
            for o in outputs
        ]


class SweepReadme(CliWorkload):
    """The README ``sweep`` command; one operation is one whole sweep."""

    command = "sweep"
    full_args = README_SWEEP
    smoke_args = warmup_args = SMOKE_SWEEP
    fixed_columns = SWEEP_FIXED
    key_columns = ("variant", "p0", "snr_db")

    def items(self, output) -> int:
        return _csv_rows(output[1])

    def check_rows(self, rows: list) -> bool:
        """Every row's plan must equal the brute-force oracle's."""
        config = edgeplan.load_config(self.config_path)
        for row in rows:
            link = replace(config.link, snr=edgeplan.snr_db_to_linear(float(row["snr_db"])))
            exits = edgeplan.ExitSet(layers=tuple(int(l) for l in row["variant"].split("-")))
            plan = edgeplan.brute_force(link, config.compute, config.profile,
                                        config.quantizer, exits, float(row["p0"]))
            # the CSV prints floats with 9 significant digits and booleans as 1/0
            expected = {
                "q": f"{plan.q:.9g}",
                "ell": f"{plan.ell:.9g}",
                "epr_bits_per_s": f"{plan.epr:.9g}",
                "feasible": "1" if plan.feasible else "0",
            }
            if any(row[c] != v for c, v in expected.items()):
                return False
        return True


class ValidateMc(CliWorkload):
    """The default ``validate`` command; one operation is one whole validation grid."""

    command = "validate"
    fixed_columns = VALIDATE_FIXED
    key_columns = ("q", "ell")
    # 2 means a cell missed its 3-sigma gate, which a new seed may legitimately do.
    ok_codes = (0, 2)
    full_args = ["--grid", DEFAULT_GRID]
    smoke_args = ["--grid", SMOKE_GRID]
    warmup_args = ["--grid", "8x9"]

    def items(self, output) -> int:
        _, rows = _parse_csv(output[1])
        return sum(int(r["n"]) for r in rows)


WORKLOADS = {"plan_stream": PlanStream, "sweep_readme": SweepReadme, "validate_mc": ValidateMc}


def _parse_csv(data: bytes):
    reader = csv.DictReader(io.StringIO(data.decode("utf-8")))
    return tuple(reader.fieldnames or ()), list(reader)


def _csv_rows(data: bytes) -> int:
    return data.count(b"\n") - 1


def _run_ops(work, n_ops=None, seconds=None, sampler=None):
    """Run operations in a closed loop; returns ``(timings, outputs)``.

    A timing is ``(start, end, net)``: ``net`` leaves out the time the
    calibration sampler, if any, took while the operation ran.
    """
    timings, outputs = [], []
    busy = 0.0
    i = 0
    while (i < n_ops) if n_ops is not None else (busy < seconds or i == 0):
        work.prepare(i)
        start = perf_counter()
        stolen = sampler.stolen_s if sampler else 0.0
        try:
            raw = work.op(i)
        except Exception as exc:  # a failed operation is counted, not fatal
            raw = exc
        end = perf_counter()
        net = end - start - ((sampler.stolen_s - stolen) if sampler else 0.0)
        if isinstance(raw, Exception):
            traceback.print_exception(raw, file=sys.stderr)
        timings.append((start, end, net))
        busy += net
        outputs.append(work.collect(i, raw))
        i += 1
    return timings, outputs


def _time_metrics(first: list, second: list, items: int) -> dict:
    """Throughput and median over every timing; p99 over each operation's better timing.

    Bursts from other tenants land on single short operations; the two
    passes are seconds apart, so a burst rarely hits both timings of one
    operation, and the better one keeps it out of the tail.
    """
    durations = first + second
    best = [min(a, b) for a, b in zip(first, second)]
    return {
        "items_per_s": (items / sum(durations), "1/s"),
        "op_p50_ms": (float(np.percentile(durations, 50)) * 1e3, "ms"),
        "op_p99_ms": (float(np.percentile(best, 99)) * 1e3, "ms"),
    }


def measure(work, seconds: float) -> dict:
    """Timed run: end-to-end metrics, tracing off, times scaled to the nominal host.

    The operations of a first pass, which lasts half the time, are run again
    in a second pass, in the same order and with the same inputs.  This
    doubles the samples for the same number of distinct inputs, so the
    untimed checks cost half as much.  The repeat must return the same
    output as the first run.
    """
    work.warmup()
    with Sampler() as sampler:
        first, outputs = _run_ops(work, seconds=seconds / 2, sampler=sampler)
        second, repeats = _run_ops(work, n_ops=len(first), sampler=sampler)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = work.check(outputs)
    same = [good and a == b for good, a, b in zip(ok, outputs, repeats)]
    failed = ok.count(False) + same.count(False)
    items = sum(work.items(o) * (a + b) for o, a, b in zip(outputs, ok, same))
    scaled = [[net * sampler.scale(start, end) for start, end, net in timings]
              for timings in (first, second)]
    metrics = _time_metrics(*scaled, items)
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    metrics["success_frac"] = (1.0 - failed / (2 * len(outputs)), "frac")
    unscaled = _time_metrics([t[2] for t in first], [t[2] for t in second], items)
    unscaled["reference_pass_ms"] = (statistics.median(sampler.durations) * 1e3, "ms")
    # a result cache would make the repeat, not the program, faster
    unscaled["second_over_first"] = (statistics.median(b / a for a, b in zip(*scaled)), "ratio")
    return {"attempted": 2 * len(outputs), "failed": failed, "metrics": metrics,
            "unscaled": unscaled}


def trace(work, seconds: float, spans_path: Path) -> dict:
    """Traced run: per-layer counts and times for a fixed unit of work, repeated."""
    work.warmup()
    if spans_path.exists():
        spans_path.unlink()
    per_unit = []
    attempted = failed = 0
    start = perf_counter()
    while not per_unit or perf_counter() - start < seconds:
        plain_timings, plain = _run_ops(work, n_ops=work.trace_ops)
        tracer = Tracer()
        tracer.install()
        try:
            traced_timings, traced = _run_ops(work, n_ops=work.trace_ops)
            tracer.phase = "oracle"
            ok = work.check(traced)
        finally:
            tracer.uninstall()
        ok = [good and a == b for good, a, b in zip(ok, traced, plain)]
        attempted += len(ok)
        failed += ok.count(False)
        tracer.write(spans_path, len(per_unit))
        per_unit.append(_layer_metrics(
            tracer, work.trace_items(traced),
            sum(t[2] for t in plain_timings), sum(t[2] for t in traced_timings)))
    metrics = {
        name: (statistics.median(unit[name][0] for unit in per_unit), unit_name)
        for name, (_, unit_name) in per_unit[0].items()
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def _layer_metrics(tracer: Tracer, items: int, plain_s: float, traced_s: float) -> dict:
    items = max(items, 1)
    work = tracer.aggregate("work")
    work["optimizer.brute_force"] = tracer.aggregate("oracle")["optimizer.brute_force"]
    out = {}
    for name in NAMES:
        out[f"{name}.calls"] = (work[name]["calls"], "count")
        out[f"{name}.self_s"] = (work[name]["self_s"], "s")
        out[f"{name}.total_s"] = (work[name]["total_s"], "s")
    inverses = work["circstats.bessel_ratio_inv"]["calls"]
    out["accuracy.accuracy_of_kappa.calls_per_op"] = (
        work["accuracy.accuracy_of_kappa"]["calls"] / items, "calls/op")
    out["circstats.bessel_ratio.calls_per_inverse"] = (
        work["circstats.bessel_ratio"]["calls"] / inverses if inverses else 0.0, "calls/call")
    out["optimizer.solve_discrete.calls_per_row"] = (
        work["optimizer.solve_discrete"]["calls"] / items, "calls/op")
    out["simulator.run_algorithm1.records_built"] = (tracer.records_built, "count")
    out["rng.make_rng.calls_per_op"] = (work["rng.make_rng"]["calls"] / items, "calls/op")
    out["trace.unit_s"] = (plain_s, "s")
    out["trace.overhead_s"] = (traced_s - plain_s, "s")
    return out


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out-dir", required=True, type=Path)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args()

    # warm the numerical libraries the package leans on before any timing
    scipy.special.i0e(np.linspace(0.0, 10.0, 64))
    np.random.default_rng(0).vonmises(0.0, 1.0, 64)

    work = WORKLOADS[args.workload](args.seed, args.smoke, args.out_dir)
    if args.trace:
        result = trace(work, args.seconds, args.out_dir / "spans.csv.gz")
    else:
        result = measure(work, args.seconds)
    for key in ("metrics", "unscaled"):
        if key in result:
            result[key] = {name: {"value": value, "unit": unit}
                           for name, (value, unit) in result[key].items()}
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
