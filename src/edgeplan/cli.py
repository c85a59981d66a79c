"""Command-line interface: plan, sweep, validate, and fit workflows.

Exit status convention: 0 success (and feasible, for ``plan``), 2 when a
plan is infeasible or a validation cell fails, 1 for usage or configuration
errors.  All emitted CSV is deterministic for a fixed config and seed:
floats are printed with 9 significant digits, '.' radix, and '\\n' newlines.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from .accuracy import FeatureProfile, accuracy_model, quant_variance
from .circstats import FieldError, _check_int, _check_real
from .config import ConfigError, load_config
from .fitting import DepthSeries, fit_affine, fit_exponential
from .optimizer import ExitSet, Plan, solve_cr, solve_discrete
from .rng import derive_seed
from .simulator import _grid_accuracy, sweep
from .system import LinkState, snr_db_to_linear

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VALIDATION_FAILED = 2

DEFAULT_VALIDATE_GRID = "8,12,16,32x9,19,29,37"


def _fmt(value) -> str:
    """Decimal text with 9 significant digits; strings, ints, bools stay exact."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.9g}"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # infeasible/failed outcomes here, so remap usage errors to 1.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


_MAX_POINTS = 100_000  # per --snr-db grid


def _distinct(values: List[Any]) -> List[Any]:
    """``values``; a ValueError naming the first entry that repeats."""
    repeated = [value for value, count in Counter(values).items() if count > 1]
    if repeated:
        raise ValueError(f"repeated entry {repeated[0]}")
    return values


def _parsed(text: str, kind: Callable[[str], Any]) -> Any:
    """``kind(text)``, or ``text`` itself when it does not parse, for the field check to name."""
    try:
        return kind(text)
    except ValueError:
        return text


def _parse_snr_grid(text: str, link: LinkState) -> List[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected FROM:TO:STEP, got {text!r}")
    try:  # _flag drops a FieldError's path, so keep the part's name in the message
        start, stop, step = (_parsed(part, float) for part in parts)
        start, stop = _check_real("FROM", start), _check_real("TO", stop)
        step = _check_real("STEP", step, 0.0, strict=True)
    except FieldError as exc:
        raise ValueError(str(exc)) from exc
    if stop < start:
        raise ValueError("SNR range end must be >= start")
    steps = (stop - start) / step + 1e-9  # inf where the span overflows a float
    if not steps < _MAX_POINTS:
        raise ValueError(f"point count must be finite and <= {_MAX_POINTS}, got {steps + 1:.6g}")
    grid = _distinct([start + k * step for k in range(int(steps) + 1)])
    for snr_db in grid:
        snr = snr_db_to_linear(snr_db)  # its FieldError already names the dB value
        try:
            replace(link, snr=snr)
        except FieldError as exc:
            raise ValueError(f"{snr_db:g} dB: {exc.message}") from exc
    return grid


def _entries(text: str, sep: str, read: Callable[[str], Any]) -> List[Any]:
    """``read(token)`` for each ``sep``-separated token of ``text``; a ValueError names a repeat.

    ``read`` passes the token through :func:`_parsed` and judges it by its value type's check.
    """
    return _distinct([read(token) for token in text.split(sep)])


def _exit_set(clause: str, profile: FeatureProfile) -> ExitSet:
    """One ``--exits-variants`` clause as an exit set within the model."""
    clause = clause.strip()
    if not clause:
        raise ValueError("empty exit-set clause")
    exits = ExitSet(layers=tuple(_parsed(tok, int) for tok in clause.split(",")))
    exits.check_within(profile)
    return exits


def _parse_validate_grid(text: str, profile: FeatureProfile) -> Tuple[List[int], List[int]]:
    parts = text.split("x")
    if len(parts) != 2:
        raise ValueError(f"expected Q1,Q2,...xL1,L2,..., got {text!r}")
    qs = _entries(parts[0], ",", lambda tok: _check_int("q", _parsed(tok, int), 0))
    # a depth within [1, L] comes back from check_depth as the same integer
    ells = _entries(parts[1], ",",
                    lambda tok: int(profile.check_depth(_check_int("ell", _parsed(tok, int), 1))))
    return qs, ells


def _flag(flag: str, parse: Callable[..., Any], *args: Any) -> Any:
    """``parse(*args)``, with any ValueError re-raised under the flag's name."""
    try:
        return parse(*args)
    except ValueError as exc:
        detail = exc.message if isinstance(exc, FieldError) else exc
        raise ValueError(f"{flag}: {detail}") from exc


def _write_csv(path: str, rows: Sequence[Any]) -> None:
    """Nonempty dataclass rows of one type as CSV; the fields name the columns."""
    header = [f.name for f in fields(rows[0])]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(getattr(row, name)) for name in header])


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def _print_plan(tag: str, plan: Plan) -> None:
    """The plan as a labelled block, then as one line of ``key=value`` fields."""
    entries = [
        ("bit-width q", "q", plan.q),
        ("traversal depth", "ell", plan.ell),
        ("predicted accuracy", "pred_acc", plan.predicted_accuracy),
        ("t_comm [s]", "t_comm_s", plan.t_comm),
        ("t_comp [s]", "t_comp_s", plan.t_comp),
        ("EPR [bits/s]", "epr_bits_per_s", plan.epr),
        ("feasible", "feasible", plan.feasible),
    ]
    print(f"{tag}:")
    for label, _, value in entries:
        shown = ("yes" if value else "no") if isinstance(value, bool) else _fmt(value)
        print(f"  {label:<18} : {shown}")
    print(" ".join(f"{key}={_fmt(value)}" for _, key, value in entries))


def cmd_plan(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    scenario = (config.link, config.compute, config.profile, config.quantizer)
    plan = solve_discrete(*scenario, config.exits, config.target_accuracy)
    _print_plan("plan", plan)
    if args.cr:
        _print_plan("plan_cr", solve_cr(*scenario, config.target_accuracy))
    return EXIT_OK if plan.feasible else EXIT_INFEASIBLE


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    snr_grid = _flag("--snr-db", _parse_snr_grid, args.snr_db, config.link)
    variants, p0_list = [config.exits], [config.target_accuracy]
    if args.exits_variants is not None:
        variants = _flag("--exits-variants", _entries, args.exits_variants, ";",
                         lambda clause: _exit_set(clause, config.profile))
    if args.p0_list is not None:
        p0_list = _flag("--p0-list", _entries, args.p0_list, ",",
                        lambda tok: config.profile.check_target(_parsed(tok, float)))
    rows = sweep(snr_grid, config.link, config.compute, config.profile, config.quantizer, variants,
                 p0_list, tasks=config.monte_carlo.tasks, seed=config.seed)
    rows.sort(key=lambda r: (r.variant, r.p0, r.snr_db))
    _write_csv(args.out, rows)
    print(f"sweep: wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ValidateRow:
    """One (bit-width, depth) cell of the Monte Carlo check."""

    q: int
    ell: int
    analytic_acc: float
    emp_acc: float
    emp_ci: float
    n: int
    abs_gap: float
    limit_3se: float
    cell_pass: bool


def cmd_validate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    qs, ells = _flag("--grid", _parse_validate_grid, args.grid, config.profile)
    analytic_profile = config.profile
    if args.perturb:
        # negative control: corrupt the analytic side only
        analytic_profile = replace(config.profile, c1=config.profile.c1 / 2.0)
    points = [(qi, q, li, ell) for qi, q in enumerate(qs) for li, ell in enumerate(ells)]
    # empirical_accuracy(distort(generate_dataset(...))) of every cell, bit for bit, on one pool
    estimates = _grid_accuracy(config.profile, config.monte_carlo.n_per_class, [
        (ell, quant_variance(q, config.quantizer), derive_seed(config.seed, 201, qi, li))
        for qi, q, li, ell in points])
    rows = []
    for (_, q, _, ell), est in zip(points, estimates):
        analytic = accuracy_model(q, ell, analytic_profile, config.quantizer)
        limit = 3.0 * np.sqrt(analytic * (1.0 - analytic) / est.n)
        gap = abs(est.value - analytic)
        rows.append(ValidateRow(q, ell, analytic, est.value, est.ci_half_width, est.n,
                                gap, limit, gap <= limit))
    _write_csv(args.out, rows)
    total = len(rows)
    failures = sum(not row.cell_pass for row in rows)
    print(f"validate: {total - failures}/{total} cells pass; wrote {args.out}")
    return EXIT_OK if failures == 0 else EXIT_VALIDATION_FAILED


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def _read_series_csv(path: str) -> DepthSeries:
    depths: List[float] = []
    values: List[float] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or not "".join(row).strip():
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 columns, got {len(row)}")
            try:
                depth, value = float(row[0]), float(row[1])
            except ValueError:
                if lineno == 1:
                    continue  # header row
                raise ValueError(f"{path}:{lineno}: non-numeric row {row!r}") from None
            depths.append(depth)
            values.append(value)
    if len(depths) < 2:
        raise ValueError(f"{path}: need at least 2 data rows")
    return DepthSeries(depths=np.array(depths), values=np.array(values))


# --kind choice -> (record name, fit)
_FITS = {"affine": ("affine", fit_affine), "exp": ("exponential", fit_exponential)}


def cmd_fit(args: argparse.Namespace) -> int:
    series = _read_series_csv(args.input)
    name, fit = _FITS[args.kind]
    values = asdict(fit(series))
    # the numeric fields go to stdout; a raised flag becomes a warning
    shown = " ".join(f"{k}={_fmt(v)}" for k, v in values.items() if not isinstance(v, bool))
    print(f"fit {name}: {shown}")
    if values.get("nonpositive_decay"):
        print("warning: fitted decay rate is not positive", file=sys.stderr)
    if args.out:
        record = {"kind": name, **values, "n_points": len(series)}
        Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="edgeplan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="solve one (bit-width, depth) decision")
    p_plan.add_argument("config", help="path to a JSON run configuration")
    p_plan.add_argument("--cr", action="store_true", help="also print the continuous-relaxation plan")
    p_plan.set_defaults(run=cmd_plan)

    p_sweep = sub.add_parser("sweep", help="SNR sweep over exit-set and target-accuracy variants")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--snr-db", required=True, metavar="FROM:TO:STEP")
    p_sweep.add_argument("--exits-variants", metavar="L1,L2;L1,L2,L3;...", default=None)
    p_sweep.add_argument("--p0-list", metavar="P1,P2,...", default=None)
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(run=cmd_sweep)

    p_val = sub.add_parser("validate", help="Monte Carlo check of the analytic accuracy model")
    p_val.add_argument("config")
    p_val.add_argument("--grid", default=DEFAULT_VALIDATE_GRID, metavar="Q1,..xL1,..")
    p_val.add_argument("--perturb", action="store_true",
                       help="negative control: halve c1 on the analytic side only")
    p_val.add_argument("--out", required=True)
    p_val.set_defaults(run=cmd_validate)

    p_fit = sub.add_parser("fit", help="least-squares fit of a (depth, value) series")
    p_fit.add_argument("--input", required=True, help="two-column CSV of (depth, value)")
    p_fit.add_argument("--kind", required=True, choices=_FITS)
    p_fit.add_argument("--out", default=None, help="write the fitted record as JSON")
    p_fit.set_defaults(run=cmd_fit)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        return args.run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
