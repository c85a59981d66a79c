"""Monte Carlo ground truth for the analytic accuracy model.

Synthetic angular datasets drawn from the per-class von Mises mixture,
angular-domain distortion injection, MAP classification, empirical accuracy
with binomial intervals, batch task simulation, and SNR sweeps.  Noise is
injected directly in the angular domain (a zero-mean Gaussian of variance
``sigma2 * grad_energy(depth)``, wrapped), which is the process the analytic
model describes.

Dataset generation and per-task simulation are embarrassingly parallel across
(cell, shard) given distinct RNG streams; aggregation is associative.  No
shared mutable state anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from .accuracy import (
    FeatureProfile,
    QuantizerSpec,
    grad_energy,
    kappa_bar,
    quant_variance,
)
from .circstats import KAPPA_MAX, AngularSampleSet, sample_von_mises, wrap_angle
from .optimizer import ExitSet, Plan, solve_cr, solve_discrete
from .rng import derive_seed, make_rng
from .system import ComputeProfile, LinkState, snr_db_to_linear

__all__ = [
    "AngularDataset",
    "TaskRecord",
    "BatchSummary",
    "SweepRow",
    "generate_dataset",
    "distort",
    "classify_map",
    "empirical_accuracy",
    "AccuracyEstimate",
    "run_algorithm1",
    "sweep",
    "exit_set_label",
]

# Stream namespaces so the same user seed never reuses draws across stages.
_STREAM_GENERATE = 1
_STREAM_DISTORT = 2
_STREAM_TASKS = 3

_Z_95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True, eq=False)
class AngularDataset:
    """Labeled angular samples generated at one traversal depth."""

    depth: float
    samples: AngularSampleSet
    distorted: bool = False
    sigma2_effective: float = 0.0

    def __post_init__(self) -> None:
        if self.samples.labels is None:
            raise ValueError("dataset samples must be labeled")


def generate_dataset(
    profile: FeatureProfile, ell: float, n_per_class: int, seed: int
) -> AngularDataset:
    """Draw ``n_per_class`` clean samples per class at depth ``ell``.

    Class ``j`` is sampled from ``vM(centroid_j, kappa_bar(ell))`` on its own
    RNG stream, so classes can be generated in parallel and still reproduce.
    """
    n_per_class = int(n_per_class)
    if n_per_class < 1:
        raise ValueError(f"n_per_class must be >= 1, got {n_per_class}")
    kappa = min(kappa_bar(ell, profile), KAPPA_MAX)
    centroids = profile.centroids
    per_class = []
    for j in range(1, profile.j_classes + 1):
        rng = make_rng(seed, _STREAM_GENERATE, j)
        per_class.append(sample_von_mises(rng, float(centroids[j - 1]), kappa, n_per_class))
    angles = np.concatenate(per_class)
    labels = np.repeat(np.arange(1, profile.j_classes + 1), n_per_class)
    return AngularDataset(
        depth=float(ell),
        samples=AngularSampleSet(angles=angles, labels=labels),
    )


def distort(
    dataset: AngularDataset, sigma2: float, profile: FeatureProfile, seed: int
) -> AngularDataset:
    """Push a clean dataset through quantization noise of variance ``sigma2``.

    Each angle gains an independent Gaussian of variance
    ``sigma2 * grad_energy(depth)``, wrapped back onto the circle.  The
    effective variance is recorded on the result; distorting twice is a state
    error.
    """
    if dataset.distorted:
        raise RuntimeError("dataset is already distorted")
    sigma2 = float(sigma2)
    if not math.isfinite(sigma2) or sigma2 < 0.0:
        raise ValueError(f"sigma2 must be a finite nonnegative real, got {sigma2!r}")
    if sigma2 == 0.0:
        return replace(dataset, distorted=True, sigma2_effective=0.0)
    sigma2_eff = sigma2 * grad_energy(dataset.depth, profile)
    rng = make_rng(seed, _STREAM_DISTORT)
    noise = rng.normal(0.0, math.sqrt(sigma2_eff), size=len(dataset.samples))
    angles = wrap_angle(dataset.samples.angles + noise)
    return AngularDataset(
        depth=dataset.depth,
        samples=AngularSampleSet(angles=angles, labels=dataset.samples.labels),
        distorted=True,
        sigma2_effective=sigma2_eff,
    )


def classify_map(theta, profile: FeatureProfile):
    """MAP class of an angle under the equal-concentration mixture.

    With shared concentration and uniform priors the posterior argmax is the
    centroid nearest in angular distance, so the score reduces to
    ``cos(theta - centroid_j)``; ties resolve to the smallest class index.
    Accepts scalars or arrays.
    """
    th = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(th)):
        raise ValueError("angles must be finite")
    scores = np.cos(th[..., None] - profile.centroids)
    labels = np.argmax(scores, axis=-1) + 1
    if labels.ndim == 0:
        return int(labels)
    return labels


class AccuracyEstimate(NamedTuple):
    """Empirical accuracy with a 95% binomial (Wald) half-width."""

    value: float
    ci_half_width: float
    n: int


def empirical_accuracy(dataset: AngularDataset, profile: FeatureProfile) -> AccuracyEstimate:
    """Fraction of dataset samples whose MAP class matches the label."""
    n = len(dataset.samples)
    if n == 0:
        raise ValueError("dataset is empty")
    predicted = classify_map(dataset.samples.angles, profile)
    value = float(np.mean(predicted == dataset.samples.labels))
    half = _Z_95 * math.sqrt(value * (1.0 - value) / n)
    return AccuracyEstimate(value=value, ci_half_width=half, n=n)


class TaskRecord(NamedTuple):
    task: int
    true_class: int
    predicted_class: int
    correct: bool


@dataclass(frozen=True)
class BatchSummary:
    """Aggregate of a simulated task batch under one plan."""

    plan: Plan
    tasks: int
    empirical_accuracy: float
    accuracy_ci_half_width: float
    mean_epr: float
    mean_t_comm: float
    mean_t_comp: float


def run_algorithm1(
    tasks: int,
    link: LinkState,
    comp: ComputeProfile,
    profile: FeatureProfile,
    spec: QuantizerSpec,
    exits: ExitSet,
    p0: float,
    seed: int,
) -> Tuple[List[TaskRecord], BatchSummary]:
    """Simulate a batch of inference tasks under the channel-adaptive plan.

    The channel is constant across the batch, so the per-task decision is
    solved once up front.  True classes cycle 1..J deterministically
    (uniform priors without sampling noise).  A feasible plan with a positive
    bit-width is simulated end to end: draw the clean angle, add the plan's
    quantization noise, classify at the chosen depth.  An infeasible or
    zero-bit plan transmits nothing, so those tasks are scored as uniform
    random guesses.
    """
    tasks = int(tasks)
    if tasks < 1:
        raise ValueError(f"tasks must be >= 1, got {tasks}")
    plan = solve_discrete(link, comp, profile, spec, exits, p0)
    j = profile.j_classes
    true_classes = (np.arange(tasks) % j) + 1
    rng = make_rng(seed, _STREAM_TASKS)

    if plan.feasible and plan.q > 0:
        kappa = min(kappa_bar(plan.ell, profile), KAPPA_MAX)
        mu = profile.centroids[true_classes - 1]
        angles = rng.vonmises(mu, kappa)
        sigma2_eff = quant_variance(plan.q, spec) * grad_energy(plan.ell, profile)
        if sigma2_eff > 0.0:
            angles = angles + rng.normal(0.0, math.sqrt(sigma2_eff), size=tasks)
        predicted = classify_map(wrap_angle(angles), profile)
    else:
        predicted = rng.integers(1, j + 1, size=tasks)

    correct = predicted == true_classes
    records = [
        TaskRecord(i + 1, int(true_classes[i]), int(predicted[i]), bool(correct[i]))
        for i in range(tasks)
    ]
    acc = float(np.mean(correct))
    summary = BatchSummary(
        plan=plan,
        tasks=tasks,
        empirical_accuracy=acc,
        accuracy_ci_half_width=_Z_95 * math.sqrt(acc * (1.0 - acc) / tasks),
        mean_epr=plan.epr,
        mean_t_comm=plan.t_comm,
        mean_t_comp=plan.t_comp,
    )
    return records, summary


def exit_set_label(exits: ExitSet) -> str:
    return "-".join(str(l) for l in exits.layers)


@dataclass(frozen=True)
class SweepRow:
    """One operating point of an SNR sweep."""

    snr_db: float
    variant: str
    p0: float
    q: float
    ell: float
    pred_acc: float
    emp_acc: float
    emp_ci: float
    epr_bits_per_s: float
    epr_cr_bits_per_s: float
    feasible: bool


def sweep(
    snr_db_grid: Sequence[float],
    link: LinkState,
    comp: ComputeProfile,
    profile: FeatureProfile,
    spec: QuantizerSpec,
    exit_variants: Sequence[ExitSet],
    p0_list: Sequence[float],
    tasks: int,
    seed: int,
) -> List[SweepRow]:
    """Evaluate every (exit set, target accuracy, SNR) operating point.

    Each point simulates ``tasks`` inferences under the discrete plan that
    :func:`run_algorithm1` solves, reports that plan with its Monte Carlo
    accuracy estimate, and adds the continuous ceiling's EPR.  Each point
    draws from a stream derived from its grid indices, so rows are
    order-independent.
    """
    if not list(snr_db_grid):
        raise ValueError("SNR grid must be nonempty")
    if not list(exit_variants) or not list(p0_list):
        raise ValueError("exit variants and p0 list must be nonempty")
    rows: List[SweepRow] = []
    for vi, exits in enumerate(exit_variants):
        label = exit_set_label(exits)
        for pi, p0 in enumerate(p0_list):
            for si, snr_db in enumerate(snr_db_grid):
                point = replace(link, snr=snr_db_to_linear(snr_db))
                _, summary = run_algorithm1(
                    tasks, point, comp, profile, spec, exits, p0,
                    seed=_row_seed(seed, vi, pi, si),
                )
                plan = summary.plan
                rows.append(
                    SweepRow(
                        snr_db=float(snr_db),
                        variant=label,
                        p0=float(p0),
                        q=plan.q,
                        ell=plan.ell,
                        pred_acc=plan.predicted_accuracy,
                        emp_acc=summary.empirical_accuracy,
                        emp_ci=summary.accuracy_ci_half_width,
                        epr_bits_per_s=plan.epr,
                        epr_cr_bits_per_s=solve_cr(point, comp, profile, spec, p0).epr,
                        feasible=plan.feasible,
                    )
                )
    return rows


def _row_seed(seed: int, vi: int, pi: int, si: int) -> int:
    return derive_seed(seed, 101, vi, pi, si)
