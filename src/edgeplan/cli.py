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
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .accuracy import FeatureProfile, accuracy_model, quant_variance
from .config import ConfigError, RunConfig, load_config
from .fitting import DepthSeries, fit_affine, fit_exponential
from .optimizer import ExitSet, Plan, solve_cr, solve_discrete
from .rng import derive_seed
from .simulator import (
    distort,
    empirical_accuracy,
    generate_dataset,
    sweep,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VALIDATION_FAILED = 2

SWEEP_HEADER = [
    "snr_db",
    "variant",
    "p0",
    "q",
    "ell",
    "pred_acc",
    "emp_acc",
    "emp_ci",
    "epr_bits_per_s",
    "epr_cr_bits_per_s",
    "feasible",
]

VALIDATE_HEADER = [
    "q",
    "ell",
    "analytic_acc",
    "emp_acc",
    "emp_ci",
    "n",
    "abs_gap",
    "limit_3se",
    "cell_pass",
]

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


def _parse_snr_grid(text: str) -> List[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected FROM:TO:STEP, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if step <= 0:
        raise ValueError("SNR step must be positive")
    if stop < start:
        raise ValueError("SNR range end must be >= start")
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return [start + k * step for k in range(count)]


def _parse_exit_variants(text: str, profile: FeatureProfile) -> List[ExitSet]:
    variants = []
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            raise ValueError("empty exit-set clause")
        layers = tuple(int(tok) for tok in clause.split(","))
        exits = ExitSet(layers=layers)
        if exits.deepest > profile.n_layers:
            raise ValueError(
                f"exit layer {exits.deepest} exceeds the {profile.n_layers}-layer model"
            )
        variants.append(exits)
    return variants


def _parse_p0_list(text: str, profile: FeatureProfile) -> List[float]:
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ValueError("empty p0 list")
    floor = 1.0 / profile.j_classes
    for v in values:
        if not floor < v < 1.0:
            raise ValueError(f"p0 must lie in ({floor:g}, 1) exclusive, got {v!r}")
    return values


def _parse_validate_grid(text: str) -> Tuple[List[int], List[int]]:
    try:
        q_text, ell_text = text.split("x")
        qs = [int(tok) for tok in q_text.split(",")]
        ells = [int(tok) for tok in ell_text.split(",")]
    except ValueError as exc:
        raise ValueError(f"expected Q1,Q2,...xL1,L2,..., got {text!r}") from exc
    if not qs or not ells:
        raise ValueError("validation grid must be nonempty on both axes")
    return qs, ells


def _write_csv(path: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def _print_plan(tag: str, plan: Plan) -> None:
    print(f"{tag}:")
    print(f"  bit-width q        : {_fmt(plan.q)}")
    print(f"  traversal depth    : {_fmt(plan.ell)}")
    print(f"  predicted accuracy : {_fmt(plan.predicted_accuracy)}")
    print(f"  t_comm [s]         : {_fmt(plan.t_comm)}")
    print(f"  t_comp [s]         : {_fmt(plan.t_comp)}")
    print(f"  EPR [bits/s]       : {_fmt(plan.epr)}")
    print(f"  feasible           : {'yes' if plan.feasible else 'no'}")
    fields = (
        f"q={_fmt(plan.q)} ell={_fmt(plan.ell)} pred_acc={_fmt(plan.predicted_accuracy)} "
        f"t_comm_s={_fmt(plan.t_comm)} t_comp_s={_fmt(plan.t_comp)} "
        f"epr_bits_per_s={_fmt(plan.epr)} feasible={_fmt(plan.feasible)}"
    )
    print(fields)


def cmd_plan(config: RunConfig, show_cr: bool) -> int:
    plan = solve_discrete(
        config.link,
        config.compute,
        config.profile,
        config.quantizer,
        config.exits,
        config.target_accuracy,
    )
    _print_plan("plan", plan)
    if show_cr:
        cr = solve_cr(
            config.link,
            config.compute,
            config.profile,
            config.quantizer,
            config.target_accuracy,
        )
        _print_plan("plan_cr", cr)
    return EXIT_OK if plan.feasible else EXIT_INFEASIBLE


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(
    config: RunConfig,
    snr_grid: List[float],
    variants: List[ExitSet],
    p0_list: List[float],
    out: str,
) -> int:
    rows = sweep(
        snr_grid,
        config.link,
        config.compute,
        config.profile,
        config.quantizer,
        variants,
        p0_list,
        tasks=config.monte_carlo.tasks,
        seed=config.seed,
    )
    rows.sort(key=lambda r: (r.variant, r.p0, r.snr_db))
    _write_csv(
        out,
        SWEEP_HEADER,
        [
            (
                r.snr_db,
                r.variant,
                r.p0,
                r.q,
                r.ell,
                r.pred_acc,
                r.emp_acc,
                r.emp_ci,
                r.epr_bits_per_s,
                r.epr_cr_bits_per_s,
                r.feasible,
            )
            for r in rows
        ],
    )
    print(f"sweep: wrote {len(rows)} rows to {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def cmd_validate(
    config: RunConfig,
    qs: List[int],
    ells: List[int],
    perturb: bool,
    out: str,
) -> int:
    analytic_profile = config.profile
    if perturb:
        # negative control: corrupt the analytic side only
        analytic_profile = replace(config.profile, c1=config.profile.c1 / 2.0)
    rows = []
    failures = 0
    for qi, q in enumerate(qs):
        for li, ell in enumerate(ells):
            analytic = accuracy_model(q, ell, analytic_profile, config.quantizer)
            cell_seed = derive_seed(config.seed, 201, qi, li)
            clean = generate_dataset(
                config.profile, ell, config.monte_carlo.n_per_class, seed=cell_seed
            )
            noisy = distort(
                clean,
                sigma2=quant_variance(q, config.quantizer),
                profile=config.profile,
                seed=cell_seed,
            )
            est = empirical_accuracy(noisy, config.profile)
            limit = 3.0 * np.sqrt(analytic * (1.0 - analytic) / est.n)
            gap = abs(est.value - analytic)
            ok = gap < limit
            failures += 0 if ok else 1
            rows.append((q, ell, analytic, est.value, est.ci_half_width, est.n, gap, limit, ok))
    _write_csv(out, VALIDATE_HEADER, rows)
    total = len(rows)
    print(f"validate: {total - failures}/{total} cells pass; wrote {out}")
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


def cmd_fit(input_path: str, kind: str, out: Optional[str]) -> int:
    series = _read_series_csv(input_path)
    if kind == "affine":
        fit = fit_affine(series)
        record = {
            "kind": "affine",
            "c1": fit.c1,
            "c2": fit.c2,
            "residual_rms": fit.residual_rms,
            "n_points": len(series),
        }
        print(f"fit affine: c1={_fmt(fit.c1)} c2={_fmt(fit.c2)} residual_rms={_fmt(fit.residual_rms)}")
    else:
        fit = fit_exponential(series)
        record = {
            "kind": "exponential",
            "c3": fit.c3,
            "c4": fit.c4,
            "log_residual_rms": fit.log_residual_rms,
            "nonpositive_decay": fit.nonpositive_decay,
            "n_points": len(series),
        }
        print(
            f"fit exponential: c3={_fmt(fit.c3)} c4={_fmt(fit.c4)} "
            f"log_residual_rms={_fmt(fit.log_residual_rms)}"
        )
        if fit.nonpositive_decay:
            print("warning: fitted decay rate is not positive", file=sys.stderr)
    if out:
        Path(out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
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

    p_sweep = sub.add_parser("sweep", help="SNR sweep over exit-set and target-accuracy variants")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--snr-db", required=True, metavar="FROM:TO:STEP")
    p_sweep.add_argument("--exits-variants", metavar="L1,L2;L1,L2,L3;...", default=None)
    p_sweep.add_argument("--p0-list", metavar="P1,P2,...", default=None)
    p_sweep.add_argument("--out", required=True)

    p_val = sub.add_parser("validate", help="Monte Carlo check of the analytic accuracy model")
    p_val.add_argument("config")
    p_val.add_argument("--grid", default=DEFAULT_VALIDATE_GRID, metavar="Q1,..xL1,..")
    p_val.add_argument("--perturb", action="store_true",
                       help="negative control: halve c1 on the analytic side only")
    p_val.add_argument("--out", required=True)

    p_fit = sub.add_parser("fit", help="least-squares fit of a (depth, value) series")
    p_fit.add_argument("--input", required=True, help="two-column CSV of (depth, value)")
    p_fit.add_argument("--kind", required=True, choices=["affine", "exp"])
    p_fit.add_argument("--out", default=None, help="write the fitted record as JSON")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "plan":
            return cmd_plan(load_config(args.config), show_cr=args.cr)
        if args.command == "sweep":
            config = load_config(args.config)
            snr_grid = _parse_snr_grid(args.snr_db)
            variants = (
                _parse_exit_variants(args.exits_variants, config.profile)
                if args.exits_variants
                else [config.exits]
            )
            p0_list = (
                _parse_p0_list(args.p0_list, config.profile)
                if args.p0_list
                else [config.target_accuracy]
            )
            return cmd_sweep(config, snr_grid, variants, p0_list, args.out)
        if args.command == "validate":
            config = load_config(args.config)
            qs, ells = _parse_validate_grid(args.grid)
            for ell in ells:
                if ell < 1 or ell > config.profile.n_layers:
                    raise ValueError(
                        f"grid depth {ell} outside [1, {config.profile.n_layers}]"
                    )
            return cmd_validate(config, qs, ells, args.perturb, args.out)
        if args.command == "fit":
            return cmd_fit(args.input, args.kind, args.out)
        raise AssertionError(f"unhandled command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    raise SystemExit(main())
