"""Monte Carlo ground truth for the analytic accuracy model.

The simulated process has three stages, each implemented once: von Mises
angles from :func:`~edgeplan.circstats.sample_von_mises`, wrapped Gaussian
noise of variance ``sigma2 * grad_energy(depth)`` added in the angular
domain (the process the analytic model describes), and MAP classification
scored into an :class:`AccuracyEstimate` with a binomial interval by one
Wald rule over a count of hits.  The public chain runs them serially as
:func:`generate_dataset` (one stream per class, in class order),
:func:`distort` (one noise stream) and :func:`empirical_accuracy`.
``validate`` scores its whole grid bit for bit as that chain with
``_grid_accuracy``: one pool of every usable core runs one task per cell,
which reads the cell's noise stream class by class.
:func:`run_algorithm1` runs the stages on one stream per batch, angles
(drawn at mean 0, then shifted to their class centroids) before noise.
:func:`sweep` plans serially, one exit choice per (p0, bit-width, exit set),
then simulates its rows on every usable core with the batch step
``_simulate`` that :func:`run_algorithm1` also runs; its CSV bytes do not
depend on the core count.

Every stage draws from an explicit generator addressed by (seed, stream),
so cells and rows are independent and reproduce bit for bit.  No shared
mutable state anywhere.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import product
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .accuracy import FeatureProfile, QuantizerSpec, grad_energy, kappa_bar, quant_variance
from .circstats import (AngularSampleSet, FieldError, _check_finite, _check_int, _check_real,
                        _wrap, sample_von_mises)
from .optimizer import ExitSet, Plan, _Target, solve_discrete
from .rng import derive_seed, make_rng
from .system import ComputeProfile, LinkState, snr_db_to_linear

__all__ = [
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
# classify_map labels an angle by its bin, and scores the two centroids
# around a bin edge only within this many J^2 bin widths of the edge.  Let x
# be an angle's distance from the edge.  Its nearer centroid outscores the
# other by 2 sin(pi/J) sin(x) >= 8x / (pi J), for J >= 2 and x <= pi / J.
# Each computed score is within about 1.1e-15 of the score at the exact
# centroid (rounding of the centroid and of theta - c, each at most
# ulp(2 pi)/2 = 4.4e-16, plus one ulp of cos), so the sign of the difference
# is exact once x > 8.7e-16 J rad, or 1.4e-16 J^2 bin widths.  The computed
# bin position is off by at most about 3e-16 J.  Both together are below
# 3e-16 J^2; the band holds a fraction 2e-12 J^2 of uniform angles, and from
# J of about 7e5 on it covers every angle.
_EDGE_BAND = 1e-12


class AccuracyEstimate(NamedTuple):
    """Empirical accuracy with a 95% binomial (Wald) half-width."""

    value: float
    ci_half_width: float
    n: int


def _noise_variance(sigma2: float, ell: float, profile: FeatureProfile) -> float:
    """The angular noise variance ``sigma2 * grad_energy(ell)``; an overflow is named ``sigma2``."""
    return _check_real("sigma2", sigma2 * grad_energy(ell, profile))


def _draw_noise(variance: float, size: int, rng: np.random.Generator) -> Optional[np.ndarray]:
    """``size`` Gaussian draws of finite ``variance`` from ``rng``; None, drawing nothing, at 0."""
    return rng.normal(0.0, math.sqrt(variance), size=size) if variance else None


def _add_noise(angles: np.ndarray, noise: Optional[np.ndarray]) -> np.ndarray:
    """``angles`` plus ``noise`` (None for none), wrapped into ``noise``'s own memory.

    Both are finite, so the sum is wrapped without a finiteness pass.
    """
    if noise is None:
        return angles
    noise += angles
    return _wrap(noise, out=noise)


def _score(correct: int, n: int) -> AccuracyEstimate:
    """Accuracy of ``correct`` hits in ``n`` samples with its 95% Wald half-width."""
    if n == 0:
        raise FieldError("samples", "nothing to score")
    value = int(correct) / n
    half = _Z_95 * math.sqrt(value * (1.0 - value) / n)
    return AccuracyEstimate(value=value, ci_half_width=half, n=n)


def generate_dataset(
    profile: FeatureProfile, ell: float, n_per_class: int, seed: int
) -> AngularSampleSet:
    """Draw ``n_per_class`` clean labeled samples per class at depth ``ell``.

    Class ``j`` is sampled from ``vM(centroid_j, kappa_bar(ell))`` on its own
    RNG stream, the classes drawn in class order on the calling thread.
    """
    seed = _check_int("seed", seed)
    n_per_class = _check_int("n_per_class", n_per_class, 1)
    kappa = kappa_bar(ell, profile)
    classes = enumerate(profile.centroids, start=1)
    angles = np.concatenate([_draw_class(seed, j, mu, kappa, n_per_class) for j, mu in classes])
    labels = np.repeat(np.arange(1, profile.j_classes + 1), n_per_class)
    return AngularSampleSet(angles=angles, labels=labels)


def _draw_class(seed: int, j: int, mu: float, kappa: float, n: int) -> np.ndarray:
    """``n`` clean angles of class ``j`` from its stream ``(seed, _STREAM_GENERATE, j)``."""
    return sample_von_mises(make_rng(seed, _STREAM_GENERATE, j), float(mu), kappa, n)


def _grid_accuracy(
    profile: FeatureProfile, n_per_class: int, cells: Sequence[Tuple[float, float, int]]
) -> List[AccuracyEstimate]:
    """Each ``(ell, sigma2, seed)`` cell's ``empirical_accuracy(distort(generate_dataset(...)))``.

    Every cell is checked first; an empty grid makes no pool.  A pool of one
    worker per usable core (at most one per cell) then runs one task per cell
    in grid order: it makes the cell's noise stream as :func:`distort` does
    and, class by class, draws the class and its ``n_per_class`` chunk of that
    stream, adds, wraps, labels and counts the hits.  Chunks of one stream are
    the bits of one draw, so each cell is the chain bit for bit, while a worker
    holds under six arrays of ``n_per_class`` floats, whatever J and grid size.
    A failing cell stops the others before their next class; the error of the
    first failed cell in grid order reaches the caller; the pool is joined.
    """
    n_per_class = _check_int("n_per_class", n_per_class, 1)
    judged = [(_check_int("seed", seed), kappa_bar(ell, profile),
               _noise_variance(_check_real("sigma2", sigma2, 0.0), ell, profile))
              for ell, sigma2, seed in cells]
    if not judged:
        return []
    failed = threading.Event()

    def count(seed, kappa, variance):  # None once another cell has failed
        hits = 0
        try:
            stream = make_rng(seed, _STREAM_DISTORT)
            for j, mu in enumerate(profile.centroids, start=1):
                if failed.is_set():
                    return None
                angles = _draw_class(seed, j, mu, kappa, n_per_class)
                angles = _add_noise(angles, _draw_noise(variance, n_per_class, stream))
                hits += np.count_nonzero(_classify(angles, profile) == j)
        except BaseException:
            failed.set()
            raise
        return hits

    with ThreadPoolExecutor(min(_usable_cores(), len(judged))) as pool:
        # a cell returns None only once another has raised, so no None is scored
        grid = list(pool.map(count, *zip(*judged)))
    return [_score(hits, profile.j_classes * n_per_class) for hits in grid]


def _usable_cores() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def distort(
    samples: AngularSampleSet, sigma2: float, ell: float, profile: FeatureProfile, seed: int
) -> AngularSampleSet:
    """Add quantization noise of variance ``sigma2`` to clean samples drawn at depth ``ell``.

    Each angle gains an independent Gaussian of variance
    ``sigma2 * grad_energy(ell)``, wrapped back onto the circle; labels are kept.
    """
    variance = _noise_variance(_check_real("sigma2", sigma2, 0.0), ell, profile)
    noise = _draw_noise(variance, samples.angles.size, make_rng(seed, _STREAM_DISTORT))
    angles = _add_noise(samples.angles, noise)
    return AngularSampleSet(angles=angles, labels=samples.labels)


def classify_map(theta, profile: FeatureProfile):
    """MAP class of an angle under the equal-concentration mixture.

    With shared concentration and uniform priors the posterior argmax is the
    centroid nearest in angular distance, so the score reduces to
    ``cos(theta - centroid_j)``; ties resolve to the smallest class index
    (``theta = pi`` ties classes J and 1, and 1 wins).  The centroids are
    equally spaced, so each angle is labeled by its bin of width ``2 pi / J``,
    ``floor((theta + pi) J / (2 pi)) mod J + 1``, which holds its nearest
    centroid.  Only angles within a guard band of a bin edge, where rounding
    could decide, are scored against the two centroids on either side:
    every other one is at least ``pi / J`` farther, and a bin index off by
    one still holds the nearest.  On (-pi, pi] the labels equal a full
    argmax over all J bit for bit, in O(n) work and memory for n angles.
    Accepts scalars or arrays.
    """
    th = _check_finite("theta", theta)
    labels = _classify(th.reshape(-1), profile)
    return int(labels[0]) if th.ndim == 0 else labels.reshape(th.shape)


def _classify(flat: np.ndarray, profile: FeatureProfile) -> np.ndarray:
    """:func:`classify_map` labels of a 1-d array of finite angles, unchecked."""
    j = profile.j_classes
    u = flat + np.pi
    u *= j / (2.0 * np.pi)  # position in bin widths from -pi
    bins = np.floor(u)
    u -= bins
    labels = bins.astype(np.intp)
    # on (-pi, pi] only theta = pi lands in bin J; reduce just the bins off range
    off = (labels < 0) | (labels >= j)
    np.remainder(labels, j, out=labels, where=off)
    labels += 1
    # near an edge rounding could decide: score the pair on either side
    u -= 0.5
    edge = np.flatnonzero(np.abs(u, out=u) > 0.5 - _EDGE_BAND * j * j)
    if edge.size:
        t = flat[edge]
        centroids = profile.centroids
        lo = np.floor((t + np.pi) * (j / (2.0 * np.pi)) - 0.5).astype(np.intp) % j
        hi = (lo + 1) % j
        # score the pair in class order, so a tie goes to the smaller index
        first, second = np.minimum(lo, hi), np.maximum(lo, hi)
        closer = np.cos(t - centroids[second]) > np.cos(t - centroids[first])
        labels[edge] = np.where(closer, second, first) + 1
    return labels


def empirical_accuracy(samples: AngularSampleSet, profile: FeatureProfile) -> AccuracyEstimate:
    """Fraction of labeled samples whose MAP class matches the label."""
    samples.check_labels(profile.j_classes)
    correct = _classify(samples.angles, profile) == samples.labels
    return _score(np.count_nonzero(correct), correct.size)


def run_algorithm1(
    tasks: int,
    link: LinkState,
    comp: ComputeProfile,
    profile: FeatureProfile,
    spec: QuantizerSpec,
    exits: ExitSet,
    p0: float,
    seed: int,
) -> Tuple[np.ndarray, Plan, AccuracyEstimate]:
    """Simulate a batch of inference tasks under the channel-adaptive plan.

    The channel is constant across the batch, so the per-task decision is
    solved once up front with :func:`solve_discrete` and the batch runs under
    it (``_simulate``) on a stream made before planning, so a bad seed costs
    no plan.  Returns the per-task boolean ``correct`` array, the plan and
    the batch's Monte Carlo accuracy.
    """
    tasks, rng = _check_int("tasks", tasks, 1), make_rng(seed, _STREAM_TASKS)
    plan = solve_discrete(link, comp, profile, spec, exits, p0)
    correct = _simulate(tasks, plan, profile, spec, rng)
    return correct, plan, _score(np.count_nonzero(correct), tasks)


def _simulate(
    tasks: int, plan: Plan, profile: FeatureProfile, spec: QuantizerSpec, rng: np.random.Generator
) -> np.ndarray:
    """Whether each of ``tasks`` (>= 1) inferences under ``plan`` is correct, drawn from ``rng``.

    True classes cycle 1..J deterministically (uniform priors without
    sampling noise).  A feasible plan is simulated end to end: draw every
    clean angle at mean 0 (the sampler takes one mean direction), then every
    noise draw, from ``rng``; add each task's class centroid and its noise,
    wrap once and classify at the chosen depth.  An
    infeasible plan, which includes every zero-bit plan, transmits nothing,
    so those tasks are scored as uniform random guesses.
    """
    j = profile.j_classes
    true_classes = (np.arange(tasks) % j) + 1

    if plan.feasible:
        angles = sample_von_mises(rng, 0.0, kappa_bar(plan.ell, profile), tasks)
        variance = _noise_variance(quant_variance(plan.q, spec), plan.ell, profile)
        noise = _draw_noise(variance, tasks, rng)
        angles += profile.centroids[true_classes - 1]
        if noise is not None:
            angles += noise
        predicted = _classify(_wrap(angles, out=angles), profile)
    else:
        predicted = rng.integers(1, j + 1, size=tasks)

    return predicted == true_classes


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
    snr_db_grid: Iterable[float],
    link: LinkState,
    comp: ComputeProfile,
    profile: FeatureProfile,
    spec: QuantizerSpec,
    exit_variants: Iterable[ExitSet],
    p0_list: Iterable[float],
    tasks: int,
    seed: int,
) -> List[SweepRow]:
    """Evaluate every (exit set, target accuracy, SNR) operating point.

    Each point simulates ``tasks`` inferences under the :func:`solve_discrete`
    plan, as :func:`run_algorithm1` does, reports that plan with its Monte
    Carlo accuracy estimate, and adds the continuous ceiling's EPR.  One
    ``_Target`` per target accuracy solves the ceilings, once per SNR, and
    chooses each exit set's exit once per bit-width: a point between two
    bit-width thresholds only prices that choice.  Every discrete scan starts
    at the noise-free minimum depth (see :mod:`edgeplan.optimizer`), so one
    depth search per (target accuracy, noise level) serves the sweep.  Each
    point draws from a stream derived from its grid indices, so rows are
    order-independent.  Each iterable is read once; the seed, the exit sets
    and every target accuracy are judged before anything is planned.
    Planning runs on the calling thread; the rows are then simulated on a
    pool of one worker per usable core (at most one per row), made after
    planning and joined before this returns or raises.  Each row draws from
    its own stream, so the rows do not depend on the core count.
    """
    tasks = _check_int("tasks", tasks, 1)
    snr_db_grid, exit_variants = list(snr_db_grid), list(exit_variants)
    targets = [_Target(profile, spec, p0) for p0 in p0_list]
    lists = {"snr_db_grid": snr_db_grid, "exit_variants": exit_variants, "p0_list": targets}
    for name, values in lists.items():
        if not values:
            raise FieldError(name, "must be nonempty")
    points = [replace(link, snr=snr_db_to_linear(snr_db)) for snr_db in snr_db_grid]
    seed = _check_int("seed", seed)
    for exits in exit_variants:
        exits.check_within(profile)
    ceilings = [[target.ceiling(point, comp) for point in points] for target in targets]
    plans = [[[target.plan(point, comp, exits) for exits in exit_variants] for point in points]
             for target in targets]

    def row(vi, pi, si):
        plan = plans[pi][si][vi]
        rng = make_rng(derive_seed(seed, 101, vi, pi, si), _STREAM_TASKS)
        accuracy = _score(np.count_nonzero(_simulate(tasks, plan, profile, spec, rng)), tasks)
        return SweepRow(
            snr_db=float(snr_db_grid[si]),
            variant=exit_set_label(exit_variants[vi]),
            p0=targets[pi].p0,
            q=plan.q,
            ell=plan.ell,
            pred_acc=plan.predicted_accuracy,
            emp_acc=accuracy.value,
            emp_ci=accuracy.ci_half_width,
            epr_bits_per_s=plan.epr,
            epr_cr_bits_per_s=ceilings[pi][si].epr,
            feasible=plan.feasible,
        )

    cells = list(product(range(len(exit_variants)), range(len(targets)), range(len(snr_db_grid))))
    workers = min(_usable_cores(), len(cells))
    rows: List[SweepRow] = [None] * len(cells)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        blocks = pool.map(lambda block: [row(*cell) for cell in block],
                          [cells[w::workers] for w in range(workers)])
        for w, block in enumerate(blocks):
            rows[w::workers] = block
    return rows
