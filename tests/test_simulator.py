"""Tests for the Monte Carlo simulator against the analytic model."""

import importlib
import itertools
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import edgeplan
from edgeplan import optimizer, simulator
from edgeplan.accuracy import (
    FeatureProfile,
    QuantizerSpec,
    accuracy_model,
    grad_energy,
    kappa_bar,
    kappa_distorted,
    quant_variance,
)
from edgeplan.circstats import (
    KAPPA_MAX,
    AngularSampleSet,
    FieldError,
    bessel_ratio,
    estimate_kappa,
    estimate_kappa_pooled,
    wrapped_gaussian_kappa,
)
from edgeplan.optimizer import ExitSet, brute_force, solve_cr, solve_discrete
from edgeplan.rng import derive_seed, make_rng
from edgeplan.simulator import (
    classify_map,
    distort,
    empirical_accuracy,
    exit_set_label,
    generate_dataset,
    run_algorithm1,
    sweep,
)
from edgeplan.system import ComputeProfile, LinkState, max_bitwidth_discrete, snr_db_to_linear

import oracles
from helpers import random_instance

PROFILE = FeatureProfile(j_classes=10, c1=0.35, c2=0.5, c3=400.0, c4=0.08, n_layers=39)
SPEC = QuantizerSpec(c_min=-1.0, c_max=1.0, q_max=32)
LINK = LinkState(bandwidth_hz=1e8, snr=31.6227766, t_max_s=0.012, d=120_000)
COMP = ComputeProfile(b1=2e-4, b2=2e-3)
EXITS = ExitSet(layers=(9, 19, 29, 34, 37))
STEEP = FeatureProfile(j_classes=10, c1=0.9, c2=1.0, c3=400.0, c4=0.08, n_layers=39)


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------


def test_generate_dataset_shape_and_determinism():
    a = generate_dataset(PROFILE, 12.0, 500, seed=7)
    b = generate_dataset(PROFILE, 12.0, 500, seed=7)
    assert np.array_equal(a.angles, b.angles)
    assert np.array_equal(a.labels, b.labels)
    assert len(a) == 5000
    counts = np.bincount(a.labels)[1:]
    assert np.all(counts == 500)
    c = generate_dataset(PROFILE, 12.0, 500, seed=8)
    assert not np.array_equal(a.angles, c.angles)


def test_generate_dataset_class_means_match_resultant():
    ds = generate_dataset(PROFILE, 20.0, 10_000, seed=31)
    expected = bessel_ratio(kappa_bar(20.0, PROFILE))
    for j in range(1, 11):
        angles = ds.angles[ds.labels == j]
        mu = PROFILE.centroids[j - 1]
        assert np.mean(np.cos(angles - mu)) == pytest.approx(expected, abs=0.01)


def test_generate_dataset_pooled_estimate_recovers_kappa():
    ds = generate_dataset(PROFILE, 20.0, 10_000, seed=31)
    est = estimate_kappa_pooled(ds, 10)
    truth = kappa_bar(20.0, PROFILE)
    assert abs(est.value - truth) / truth < 0.03


def test_generate_dataset_saturated_concentration_clusters_tightly():
    spiky = FeatureProfile(j_classes=2, c1=1e9, c2=0.0, c3=1.0, c4=0.0, n_layers=39)
    ds = generate_dataset(spiky, 1.0, 50, seed=9)
    mus = spiky.centroids[ds.labels - 1]
    deviation = np.abs(np.angle(np.exp(1j * (ds.angles - mus))))
    # at the concentration cap 1e6 the angular spread is ~1/sqrt(kappa) = 1e-3
    assert deviation.max() < 5e-3


def test_generate_dataset_argument_errors(monkeypatch):
    monkeypatch.setattr(simulator, "ThreadPoolExecutor", _no_pool)
    with pytest.raises(ValueError):
        generate_dataset(PROFILE, 0.5, 10, seed=1)
    with pytest.raises(ValueError):
        generate_dataset(PROFILE, 10.0, 0, seed=1)


def test_a_validate_cell_judges_every_argument_before_a_pool_exists(monkeypatch):
    # a bad argument in the last cell of a grid is found before the first cell is drawn
    monkeypatch.setattr(simulator, "ThreadPoolExecutor", _no_pool)
    good = [(10.0, 1e-3, 1), (20.0, 0.0, 2), (30.0, 1e-2, 3)]
    bad = [
        ("ell", 3, (0.5, 1e-3, 3)),
        ("n_per_class", 0, good[2]),
        ("seed", 3, (30.0, 1e-2, "7")),
        ("sigma2", 3, (30.0, -1e-3, 3)),
        ("sigma2", 3, (30.0, 1e308, 3)),  # finite, but sigma2 * grad_energy overflows
    ]
    for path, n, last in bad:
        with pytest.raises(FieldError) as err:
            simulator._grid_accuracy(PROFILE, n, good[:2] + [last])
        assert err.value.path == path


def _no_pool(*args, **kwargs):
    raise AssertionError("a pool was made where no thread may start")


def _force_cores(monkeypatch, cores):
    """Make the simulator see ``cores`` usable CPUs, where it reads them from ``os``."""
    monkeypatch.setattr(simulator.os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


def test_usable_cores_fall_back_to_the_cpu_count_without_an_affinity_mask(monkeypatch):
    # platforms without sched_getaffinity read os.cpu_count(), which may not know
    monkeypatch.delattr(simulator.os, "sched_getaffinity", raising=False)
    for count, cores in [(None, 1), (3, 3)]:
        monkeypatch.setattr(simulator.os, "cpu_count", lambda: count)
        assert simulator._usable_cores() == cores


def _spy_pools(monkeypatch):
    """Record each pool the simulator makes: its workers and each task's function and arguments."""
    pools = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            super().__init__(max_workers, **kwargs)
            self.workers, self.tasks = max_workers, []
            pools.append(self)

        def submit(self, fn, *args):
            self.tasks.append((fn, args))
            return super().submit(fn, *args)

    monkeypatch.setattr(simulator, "ThreadPoolExecutor", Pool)
    return pools


def _within(seconds, call):
    """``call()``'s result; fails instead of hanging if it takes over ``seconds``."""
    box = {}

    def target():
        try:
            box["result"] = call()
        except BaseException as exc:  # re-raised in the test's thread
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no result within {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["result"]


@pytest.mark.parametrize("cores", [1, 2, 3, 8])
@pytest.mark.parametrize("j_classes", [2, 3, 10, 1000])
def test_generate_dataset_is_the_serial_oracle_on_any_core_count(monkeypatch, j_classes, cores):
    # the public chain draws on the calling thread whatever the core count,
    # so the validate cell's pool is checked against a chain that has none
    profile = FeatureProfile(j_classes=j_classes, c1=0.35, c2=0.5, c3=400.0, c4=0.08, n_layers=39)
    n, ell, seed = (20 if j_classes == 1000 else 2_000), 12.0, -1_000_003 * j_classes
    expected = oracles.serial_class_draws(seed, j_classes, 0.35 * ell + 0.5, n)
    _force_cores(monkeypatch, cores)
    monkeypatch.setattr(simulator, "ThreadPoolExecutor", _no_pool)
    ds = generate_dataset(profile, ell, n, seed)
    assert np.array_equal(ds.angles.view(np.int64), expected.view(np.int64))
    assert np.array_equal(ds.labels, np.repeat(np.arange(1, j_classes + 1), n))


def _assert_grid_order(pool, profile, cells):
    """The grid's one pool took one task per cell, in grid order, each with the
    cell's judged seed, concentration and noise variance."""
    assert len({fn for fn, _ in pool.tasks}) == 1
    assert [args for _, args in pool.tasks] == [
        (seed, kappa_bar(ell, profile), simulator._noise_variance(sigma2, ell, profile))
        for ell, sigma2, seed in cells]


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_the_pool_runs_one_task_per_cell_in_grid_order(monkeypatch, cores):
    # the caller makes no stream; each cell's task makes the cell's noise
    # stream and then its class streams 1-10, in class order, on one worker
    _force_cores(monkeypatch, cores)
    pools = _spy_pools(monkeypatch)
    make, drawn = simulator.make_rng, []

    def recording(seed, *stream):
        drawn.append((threading.get_ident(), seed, stream))
        return make(seed, *stream)

    monkeypatch.setattr(simulator, "make_rng", recording)
    cells = [(12.0, 1e-3, 1), (30.0, 1e-2, 2)]
    simulator._grid_accuracy(PROFILE, 50, cells)
    streams = [(simulator._STREAM_DISTORT,)] + [(simulator._STREAM_GENERATE, j)
                                               for j in range(1, 11)]
    assert threading.get_ident() not in {ident for ident, _, _ in drawn}
    for seed in (1, 2):
        mine = [(ident, stream) for ident, cell_seed, stream in drawn if cell_seed == seed]
        assert [stream for _, stream in mine] == streams
        assert len({ident for ident, _ in mine}) == 1
    (pool,) = pools
    assert pool.workers == min(cores, len(cells))
    _assert_grid_order(pool, PROFILE, cells)


def test_an_empty_validate_grid_makes_no_pool(monkeypatch):
    # a pool of min(cores, 0) workers would raise ValueError
    monkeypatch.setattr(simulator, "ThreadPoolExecutor", _no_pool)
    assert simulator._grid_accuracy(PROFILE, 10, []) == []


def _chain(profile, ell, n, sigma2, seed):
    """The public Monte Carlo chain that a validate cell fuses."""
    clean = generate_dataset(profile, ell, n, seed)
    return empirical_accuracy(distort(clean, sigma2, ell, profile, seed), profile)


@pytest.mark.parametrize("cores", [1, 2, 3, 8])
@pytest.mark.parametrize("j_classes", [2, 3, 10, 1000])
def test_a_validate_cell_is_the_public_chain_on_any_core_count(monkeypatch, j_classes, cores):
    # q = 0 leaves almost uniform angles, q = 64 all but none of the noise;
    # at 8 cores, fewer than the 12 cells, a 1 us switch interval
    # interleaves the cells' draws of their own streams as often as it can
    profile = FeatureProfile(j_classes=j_classes, c1=0.35, c2=0.5, c3=400.0, c4=0.08, n_layers=39)
    n = 5 if j_classes == 1000 else 300
    _force_cores(monkeypatch, cores)
    pools = _spy_pools(monkeypatch)
    cells = [(ell, quant_variance(q, SPEC), derive_seed(j_classes, 201, qi, ell))
             for (qi, q), ell in itertools.product(enumerate([0, 4, 16, 64]), [1, 20, 39])]
    interval = sys.getswitchinterval()
    if cores == 8:
        sys.setswitchinterval(1e-6)
    try:
        grid = _within(60.0, lambda: simulator._grid_accuracy(profile, n, cells))
    finally:
        sys.setswitchinterval(interval)
    assert grid == [_chain(profile, ell, n, sigma2, seed) for ell, sigma2, seed in cells]
    # one pool for the grid, none for the chain: one task per cell
    (pool,) = pools
    assert pool.workers == min(cores, len(cells))
    _assert_grid_order(pool, profile, cells)


@pytest.mark.parametrize("cores", [1, 2, 8])
def test_a_validate_grid_keeps_at_most_one_noise_chunk_per_worker(monkeypatch, cores):
    # each cell draws its noise one class chunk at a time, and a worker drops
    # a class's chunk before it draws the next, so the grid's noise memory
    # grows neither with J nor with the grid's size
    cells = [(ell, quant_variance(q, SPEC), derive_seed(7, 201, qi, ell))
             for (qi, q), ell in itertools.product(enumerate([4, 8, 12, 16]), [9, 19, 29, 37])]
    expected = [_chain(PROFILE, ell, 200, sigma2, seed) for ell, sigma2, seed in cells]
    _force_cores(monkeypatch, cores)
    draw, lock = simulator._draw_noise, threading.Lock()
    alive, counts, sizes = [], [], []

    def watched(variance, size, rng):
        noise = draw(variance, size, rng)
        with lock:
            alive[:] = [ref for ref in alive if ref() is not None] + [weakref.ref(noise)]
            counts.append(len(alive))
            sizes.append(size)
        return noise

    monkeypatch.setattr(simulator, "_draw_noise", watched)
    assert _within(60.0, lambda: simulator._grid_accuracy(PROFILE, 200, cells)) == expected
    assert sizes == [200] * len(cells) * PROFILE.j_classes
    assert max(counts) <= min(cores, len(cells))


@pytest.mark.parametrize("cores", [1, 2, 8])
def test_a_validate_grid_peaks_at_a_few_class_chunks_per_worker(monkeypatch, cores):
    # numpy reports its buffers to tracemalloc; a class's angles, its noise
    # chunk and the labelling's temporaries are about 4.5 chunks of n floats,
    # where a noise vector of the whole cell would be J = 10 of them
    n = 20_000
    cells = [(ell, quant_variance(q, SPEC), derive_seed(11, 201, qi, ell))
             for (qi, q), ell in itertools.product(enumerate([4, 8, 12, 16]), [9, 19, 29, 37])]
    _force_cores(monkeypatch, cores)
    tracemalloc.start()
    try:
        grid = simulator._grid_accuracy(PROFILE, n, cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [est.n for est in grid] == [n * PROFILE.j_classes] * len(cells)
    assert peak <= 6 * min(cores, len(cells)) * n * 8, peak


@pytest.mark.parametrize("sd", [1e-9, 0.3, 50.0])
def test_a_noise_stream_drawn_in_chunks_is_the_one_draw_bit_for_bit(sd):
    # the premise of the validate cell's class-by-class noise: numpy's normal
    # sampler on one Philox stream gives the same bits in consecutive chunks,
    # even and uneven, as in one call
    n, j_classes = 3_000, 10
    whole = make_rng(5, simulator._STREAM_DISTORT).normal(0.0, sd, j_classes * n)
    for chunks in ([n] * j_classes, [1, 7, 2_992, 13_000, 4_000, 9_999, 1]):
        rng = make_rng(5, simulator._STREAM_DISTORT)
        drawn = np.concatenate([rng.normal(0.0, sd, size) for size in chunks])
        assert np.array_equal(drawn.view(np.int64), whole.view(np.int64))


@pytest.mark.parametrize("j_classes", [2, 10])
def test_a_validate_cell_is_the_public_chain_at_its_edges(monkeypatch, j_classes):
    # one sample per class, the concentration cap, and no noise at all
    spiky = FeatureProfile(j_classes=j_classes, c1=1e9, c2=0.0, c3=1.0, c4=0.0, n_layers=39)
    assert kappa_bar(1.0, spiky) == KAPPA_MAX
    _force_cores(monkeypatch, 2)
    cells = [(1.0, sigma2, seed) for sigma2 in [0.0, 1e-3, 3.0] for seed in range(3)]
    for profile, n in itertools.product([PROFILE, spiky], [1, 7]):
        assert simulator._grid_accuracy(profile, n, cells) == [
            _chain(profile, ell, n, sigma2, seed) for ell, sigma2, seed in cells
        ]


class DrawFailed(Exception):
    pass


def _failing_draws(monkeypatch, failing, seed=None):
    """Make the simulator's draw of class ``failing`` (or of the noise) raise ``DrawFailed``;
    given a ``seed``, only that draw on the streams of that seed."""
    sample, make = simulator.sample_von_mises, simulator.make_rng

    def failing_class(rng, mu, kappa, n):
        if mu == PROFILE.centroids[failing - 1] and seed in (None, _seed_of(rng)):
            raise DrawFailed(failing)
        return sample(rng, mu, kappa, n)

    class FailingNoise:
        def normal(self, *args, **kwargs):
            raise DrawFailed("noise")

    def failing_noise(cell_seed, *stream):
        if stream == (simulator._STREAM_DISTORT,) and seed in (None, cell_seed):
            return FailingNoise()
        return make(cell_seed, *stream)

    if failing == "noise":
        monkeypatch.setattr(simulator, "make_rng", failing_noise)
    elif failing is not None:
        monkeypatch.setattr(simulator, "sample_von_mises", failing_class)


def _seed_of(rng):
    """The (non-negative) seed of a simulator stream."""
    return rng.bit_generator.seed_seq.entropy[0]


def _ends_without_a_thread(call, result_ok, failing):
    """``call()`` returns ``result_ok`` or, given a failure, raises it, and leaves no thread."""
    before = set(threading.enumerate())
    if failing is None:
        assert result_ok(_within(60.0, call))
    else:
        with pytest.raises(DrawFailed) as err:
            _within(60.0, call)
        assert err.value.args == (failing,)
    deadline = time.monotonic() + 10.0
    while set(threading.enumerate()) != before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("failing_class", [None, 1, 10], ids=["none", "first", "last"])
def test_a_failing_class_draw_reaches_the_caller_and_leaves_no_thread(monkeypatch, failing_class):
    # the public chain draws every class on the calling thread, on any core count
    _force_cores(monkeypatch, 2)
    _failing_draws(monkeypatch, failing_class)
    _ends_without_a_thread(
        lambda: generate_dataset(PROFILE, 12.0, 1_000, seed=5),
        lambda ds: len(ds) == 10_000,
        failing_class,
    )


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("cells", [1, 3])
@pytest.mark.parametrize("failing", [None, 1, 10, "noise"], ids=["none", "caller", "worker", "noise"])
def test_a_failing_draw_in_a_validate_cell_reaches_the_caller_and_leaves_no_thread(
    monkeypatch, failing, cells, cores
):
    # class 1 or class 10 of the only cell, or of the middle one of three, or
    # that cell's noise stream, fails in the cell's own task.  The failing
    # cell flags the others: after the flag each cell still running may
    # finish only the class it is on, the caller cancels every cell not yet
    # started, and one worker never starts the last cell
    _force_cores(monkeypatch, cores)
    grid = [(12.0, 1e-3, 5), (20.0, 1e-3, 6), (30.0, 1e-3, 7)][:cells]
    _failing_draws(monkeypatch, failing, seed=grid[cells // 2][2])
    events, draw, sample = [], simulator._draw_noise, simulator.sample_von_mises

    class Flag(threading.Event):
        def set(self):
            events.append("flagged")
            super().set()

    def noting_noise(variance, size, rng):
        events.append(("noise", getattr(rng, "bit_generator", None) and _seed_of(rng)))
        return draw(variance, size, rng)

    def noting_class(rng, mu, kappa, n):
        events.append(("class", _seed_of(rng)))
        return sample(rng, mu, kappa, n)

    monkeypatch.setattr(simulator, "threading", types.SimpleNamespace(Event=Flag))
    monkeypatch.setattr(simulator, "_draw_noise", noting_noise)
    monkeypatch.setattr(simulator, "sample_von_mises", noting_class)
    _ends_without_a_thread(
        lambda: simulator._grid_accuracy(PROFILE, 1_000, grid),
        lambda ests: [est.n for est in ests] == [10_000] * cells,
        failing,
    )
    if failing is None:
        expected = [(kind, seed) for _, _, seed in grid for kind in ("class", "noise")]
        assert sorted(events) == sorted(expected * 10)
    else:
        assert events.count("flagged") == 1
        after = events[events.index("flagged") + 1:]
        assert sum(kind == "class" for kind, _ in after) <= min(cores, cells) - 1
        if cores == 1 and cells == 3:
            assert {("class", grid[2][2]), ("noise", grid[2][2])}.isdisjoint(events)


def test_importing_the_package_starts_no_thread():
    src = Path(edgeplan.__file__).resolve().parents[1]
    code = "import threading, edgeplan; print(threading.active_count())"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "1"


# ---------------------------------------------------------------------------
# distortion
# ---------------------------------------------------------------------------


def test_distort_zero_noise_is_identity():
    ds = generate_dataset(PROFILE, 15.0, 200, seed=3)
    out = distort(ds, 0.0, 15.0, PROFILE, seed=4)
    assert np.array_equal(out.angles, ds.angles)


def test_distort_records_effective_variance_and_is_deterministic():
    ds = generate_dataset(PROFILE, 15.0, 400, seed=3)
    out1 = distort(ds, 1e-3, 15.0, PROFILE, seed=4)
    out2 = distort(ds, 1e-3, 15.0, PROFILE, seed=4)
    assert np.array_equal(out1.angles, out2.angles)
    noise = np.angle(np.exp(1j * (out1.angles - ds.angles)))
    assert np.var(noise) == pytest.approx(1e-3 * grad_energy(15.0, PROFILE), rel=0.1)
    out3 = distort(ds, 1e-3, 15.0, PROFILE, seed=5)
    assert not np.array_equal(out1.angles, out3.angles)


def test_distort_rejects_noise_whose_variance_overflows():
    # the noisy angles are wrapped without a finiteness pass, so the one
    # non-finite noise that finite angles and a finite sigma2 can make is caught here
    ds = generate_dataset(PROFILE, 15.0, 10, seed=3)
    with pytest.raises(FieldError, match="^sigma2: must be a finite real, got inf$"):
        distort(ds, 1e308, 15.0, PROFILE, seed=4)


def _philox(*entropy):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(list(entropy))))


# class j of the ten-class profiles sits at -pi + (2j - 1) pi / 10
CENTROIDS = -np.pi + (2 * np.arange(1, 11) - 1) * np.pi / 10


def _nearest_centroid(angles):
    # wrap onto the circle, then pick the class whose centroid is closest in
    # angular distance (ties have probability zero for continuous draws)
    wrapped = np.angle(np.exp(1j * angles))
    distance = np.abs(np.angle(np.exp(1j * (wrapped[:, None] - CENTROIDS))))
    return np.argmin(distance, axis=1) + 1


def test_dataset_draws_match_a_numpy_resimulation():
    # pins the validate stream layout: class j on [seed, 1, j], noise on [seed, 2]
    seed, n, ell, sigma2 = 41, 300, 9.0, quant_variance(6.0, SPEC)
    clean = generate_dataset(PROFILE, ell, n, seed=seed)
    noisy = distort(clean, sigma2, ell, PROFILE, seed=seed)
    angles = np.concatenate(
        [_philox(seed, 1, j).vonmises(CENTROIDS[j - 1], kappa_bar(ell, PROFILE), n)
         for j in range(1, 11)]
    )
    assert np.array_equal(clean.angles, angles)
    noise = _philox(seed, 2).normal(0.0, math.sqrt(sigma2 * grad_energy(ell, PROFILE)), 10 * n)
    labels = np.repeat(np.arange(1, 11), n)
    expected = _nearest_centroid(angles + noise) == labels
    correct = classify_map(noisy.angles, PROFILE) == noisy.labels
    assert np.array_equal(correct, expected)
    assert 0 < expected.sum() < expected.size
    assert empirical_accuracy(noisy, PROFILE).value == np.mean(expected)


def test_distorted_concentration_matches_propagation_model():
    # one cell of the (sigma2, depth) validation grid; the full grid runs in
    # the acceptance suite
    ds = generate_dataset(PROFILE, 15.0, 10_000, seed=100)
    sigma2 = 1e-3
    out = distort(ds, sigma2, 15.0, PROFILE, seed=101)
    est = estimate_kappa_pooled(out, 10)
    predicted = kappa_distorted(sigma2, 15.0, PROFILE)
    assert abs(est.value - predicted) / predicted < 0.05


def test_distorting_point_mass_recovers_wrapped_gaussian_kappa():
    mu = float(PROFILE.centroids[2])
    point = AngularSampleSet(angles=np.full(20_000, mu), labels=np.ones(20_000, dtype=int))
    sigma2 = 5e-4
    out = distort(point, sigma2, 20.0, PROFILE, seed=11)
    est = estimate_kappa(AngularSampleSet(angles=out.angles))
    expected = wrapped_gaussian_kappa(sigma2 * grad_energy(20.0, PROFILE)).value
    assert abs(est.value - expected) / expected < 0.05


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_map_centroids_and_ties():
    for j in range(1, 11):
        assert classify_map(float(PROFILE.centroids[j - 1]), PROFILE) == j
    # exact midpoint between classes 1 and 2 ties to the smaller index
    midpoint = -np.pi + 2.0 * np.pi / 10.0
    assert classify_map(midpoint, PROFILE) == 1
    # the wrap-around point ties classes 10 and 1; smaller index wins
    assert classify_map(np.pi, PROFILE) == 1
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(FieldError, match="^theta: must be finite reals, got "):
            classify_map(np.array([0.0, bad]), PROFILE)


def test_classify_map_matches_density_argmax():
    from edgeplan.rng import make_rng

    rng = make_rng(606)
    thetas = rng.uniform(-np.pi, np.pi, 10_000)
    labels = classify_map(thetas, PROFILE)
    for kappa in [1.0, 50.0]:
        # von Mises class densities in scaled form, normalized by the oracle I0
        norm = 2.0 * np.pi * oracles.i0_scaled(kappa)
        densities = np.stack(
            [np.exp(kappa * (np.cos(thetas - mu) - 1.0)) / norm for mu in PROFILE.centroids],
            axis=1,
        )
        oracle_labels = np.argmax(densities, axis=1) + 1
        assert np.array_equal(labels, oracle_labels)


@pytest.mark.parametrize("j_classes", [2, 3, 10, 100, 1000, 10_000])
def test_classify_map_matches_full_argmax_oracle(j_classes):
    # centroids and the midpoints between them written out here, not taken
    # from the profile; each angle costs J scores, so above J = 1000 only
    # every 40th bin's, with the last bin, and fewer random angles.  Angles
    # off (-pi, pi], whose bins leave [0, J), are scored the same way
    profile = replace(PROFILE, j_classes=j_classes)
    k = np.arange(1, j_classes + 1, dtype=float)
    centroids = -np.pi + (2.0 * k - 1.0) * np.pi / j_classes
    midpoints = -np.pi + 2.0 * np.pi * (k - 1.0) / j_classes
    small = j_classes <= 1000
    every = 1 if small else 40
    edges = np.concatenate([centroids[::every], midpoints[::every],
                            centroids[-1:], midpoints[-1:], [np.pi]])
    edges = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    thetas = np.concatenate([
        np.random.default_rng(608).uniform(-np.pi, np.pi, 100_000 if small else 2_000),
        np.random.default_rng(610).uniform(-1e3, 1e3, min(100_000, 10_000_000 // j_classes)),
        [-3.0 * np.pi, -np.pi, 3.0 * np.pi],
        edges,
    ])
    labels = classify_map(thetas, profile)
    # full argmax over all J scores, in blocks to bound the n x J temporary
    block = max(1, 2_000_000 // j_classes)
    oracle_labels = np.concatenate([
        np.argmax(np.cos(thetas[i:i + block, None] - centroids), axis=1) + 1
        for i in range(0, thetas.size, block)
    ])
    assert np.array_equal(labels, oracle_labels)
    # a scalar takes the same path as an array
    at_edges = oracle_labels[-edges.size:]
    assert [classify_map(float(t), profile) for t in edges] == at_edges.tolist()


def test_classify_map_memory_does_not_grow_with_class_count():
    thetas = np.random.default_rng(609).uniform(-np.pi, np.pi, 5_000)
    peaks = {}
    for j_classes in (10, 1000):
        profile = replace(PROFILE, j_classes=j_classes)
        tracemalloc.start()
        try:
            classify_map(thetas, profile)
            peaks[j_classes] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[1000] < 2 * peaks[10], peaks


# ---------------------------------------------------------------------------
# empirical accuracy
# ---------------------------------------------------------------------------


def test_empirical_accuracy_saturated_is_perfect():
    spiky = FeatureProfile(j_classes=10, c1=1e9, c2=0.0, c3=1.0, c4=0.0, n_layers=39)
    ds = generate_dataset(spiky, 1.0, 200, seed=17)
    est = empirical_accuracy(ds, spiky)
    assert est.value == 1.0
    assert est.n == 2000


def test_empirical_accuracy_uniform_is_chance():
    flat = FeatureProfile(j_classes=10, c1=1e-9, c2=0.0, c3=1.0, c4=0.0, n_layers=39)
    ds = generate_dataset(flat, 5.0, 20_000, seed=23)
    est = empirical_accuracy(ds, flat)
    assert abs(est.value - 0.1) <= max(est.ci_half_width, 3e-3)


def test_empirical_accuracy_needs_labels():
    with pytest.raises(FieldError, match="^labels: must be given$"):
        empirical_accuracy(AngularSampleSet(angles=np.array([0.1, 0.2])), PROFILE)
    with pytest.raises(FieldError, match="^samples: nothing to score$"):
        empirical_accuracy(AngularSampleSet(angles=np.array([]), labels=[]), PROFILE)


def test_empirical_accuracy_rejects_labels_above_j():
    # the first label above J is named; a label above J is not a miss
    samples = AngularSampleSet(angles=np.array([0.1, 0.2, 0.3, 0.4]), labels=[1, 2, 3, 7])
    binary = replace(PROFILE, j_classes=2)
    with pytest.raises(FieldError, match=r"^labels: must be class indices <= 2, got 3$"):
        empirical_accuracy(samples, binary)
    assert empirical_accuracy(samples, replace(PROFILE, j_classes=7)).n == 4


def test_empirical_accuracy_tracks_analytic_model():
    # one cell of the analytic-vs-empirical agreement grid (full grid in the
    # acceptance suite): q = 8, depth 19, N = 5e4
    q, ell = 8.0, 19.0
    ds = generate_dataset(PROFILE, ell, 5_000, seed=71)
    noisy = distort(ds, quant_variance(q, SPEC), ell, PROFILE, seed=72)
    est = empirical_accuracy(noisy, PROFILE)
    analytic = accuracy_model(q, ell, PROFILE, SPEC)
    assert abs(est.value - analytic) < 3.0 * math.sqrt(analytic * (1 - analytic) / est.n)


def test_empirical_accuracy_agrees_with_exact_fourier_oracle():
    # the simulated process has a closed-form accuracy via circular moments;
    # the Monte Carlo must agree with it within binomial noise
    q, ell = 6.0, 9.0
    sigma2_eff = quant_variance(q, SPEC) * grad_energy(ell, PROFILE)
    exact = oracles.noisy_mixture_accuracy(kappa_bar(ell, PROFILE), sigma2_eff, 10)
    ds = generate_dataset(PROFILE, ell, 20_000, seed=81)
    noisy = distort(ds, quant_variance(q, SPEC), ell, PROFILE, seed=82)
    est = empirical_accuracy(noisy, PROFILE)
    assert abs(est.value - exact) < 3.0 * math.sqrt(exact * (1 - exact) / est.n)


def test_exact_fourier_oracle_matches_its_30_digit_series():
    # the double-precision series behind the Monte Carlo check, against mpmath
    # at 12 fixed (kappa, sigma2_eff, J) points: every kappa with every noise
    # level, J cycling through 2, 10 and 1000
    classes = itertools.cycle((2, 10, 1000))
    for kappa, sigma2_eff in itertools.product((0.05, 1.0, 10.0, 100.0), (0.0, 0.01, 1.0)):
        j_classes = next(classes)
        exact = oracles.mp_noisy_mixture_accuracy(kappa, sigma2_eff, j_classes)
        value = oracles.noisy_mixture_accuracy(kappa, sigma2_eff, j_classes)
        assert abs(value - exact) <= 1e-14 * exact, (kappa, sigma2_eff, j_classes)


# ---------------------------------------------------------------------------
# task batches
# ---------------------------------------------------------------------------


def test_run_algorithm1_deterministic():
    correct1, plan1, accuracy1 = run_algorithm1(500, LINK, COMP, STEEP, SPEC, EXITS, 0.7, seed=5)
    correct2, plan2, accuracy2 = run_algorithm1(500, LINK, COMP, STEEP, SPEC, EXITS, 0.7, seed=5)
    assert np.array_equal(correct1, correct2)
    assert (plan1, accuracy1) == (plan2, accuracy2)


def test_run_algorithm1_meets_target_when_feasible():
    _, plan, accuracy = run_algorithm1(4000, LINK, COMP, STEEP, SPEC, EXITS, 0.7, seed=6)
    assert plan.feasible
    se = math.sqrt(0.7 * 0.3 / 4000)
    assert accuracy.value >= 0.7 - 3.0 * se
    assert plan.epr > 0.0


def test_run_algorithm1_degenerates_to_chance_without_bits():
    starved = replace(LINK, snr=snr_db_to_linear(-40.0))
    _, plan, accuracy = run_algorithm1(5000, starved, COMP, STEEP, SPEC, EXITS, 0.7, seed=8)
    assert plan.q == 0.0
    assert plan.epr == 0.0
    assert abs(accuracy.value - 0.1) <= 3.0 * math.sqrt(0.1 * 0.9 / 5000)


def test_run_algorithm1_draws_match_a_numpy_resimulation():
    # pins the batch stream layout: one stream [seed, 3], classes cycling
    # 1..J, all von Mises angles first, drawn at mean 0, then all noise; each
    # angle gains its class centroid, then its noise, and is wrapped once
    seed, tasks = 5, 257
    correct, plan, accuracy = run_algorithm1(tasks, LINK, COMP, STEEP, SPEC, EXITS, 0.7, seed=seed)
    assert plan.feasible and plan.q > 0
    rng = _philox(seed, 3)
    classes = np.arange(tasks) % 10 + 1
    angles = rng.vonmises(0.0, kappa_bar(plan.ell, STEEP), tasks)
    sigma2 = quant_variance(plan.q, SPEC) * grad_energy(plan.ell, STEEP)
    noise = rng.normal(0.0, math.sqrt(sigma2), tasks)
    angles = np.angle(np.exp(1j * (angles + CENTROIDS[classes - 1] + noise)))
    expected = _nearest_centroid(angles) == classes
    assert correct.dtype == bool and np.array_equal(correct, expected)
    assert 0 < expected.sum() < tasks
    assert accuracy.value == np.mean(expected) and accuracy.n == tasks


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_rows_and_qualitative_trends():
    variants = [ExitSet(layers=(9, 37)), ExitSet(layers=(9, 19, 29, 37))]
    grid = list(np.linspace(-5.0, 25.0, 11))
    rows = sweep(grid, LINK, COMP, STEEP, SPEC, variants, [0.7], tasks=200, seed=12)
    assert len(rows) == 22
    by_variant = {}
    for row in rows:
        by_variant.setdefault(row.variant, []).append(row)
    for label, group in by_variant.items():
        eprs = [r.epr_bits_per_s for r in group]
        assert all(b >= a for a, b in zip(eprs, eprs[1:])), label
        assert all(r.epr_cr_bits_per_s >= r.epr_bits_per_s for r in group)
    small = by_variant[exit_set_label(variants[0])]
    big = by_variant[exit_set_label(variants[1])]
    assert all(b.epr_bits_per_s >= s.epr_bits_per_s for s, b in zip(small, big))


def test_sweep_rows_report_a_fresh_discrete_plan():
    # two exit sets, so the plans and ceilings sweep solves once per point serve both
    grid = [-5.0, 10.0, 25.0]
    variants = {exit_set_label(e): e for e in (EXITS, ExitSet(layers=(9, 37)))}
    rows = sweep(grid, LINK, COMP, STEEP, SPEC, list(variants.values()), [0.6, 0.999],
                 tasks=50, seed=3)
    assert len(rows) == 12
    for row in rows:
        point = replace(LINK, snr=snr_db_to_linear(row.snr_db))
        plan = solve_discrete(point, COMP, STEEP, SPEC, variants[row.variant], row.p0)
        assert (row.q, row.ell, row.pred_acc, row.epr_bits_per_s, row.feasible) == (
            plan.q, plan.ell, plan.predicted_accuracy, plan.epr, plan.feasible
        )
        oracle = brute_force(point, COMP, STEEP, SPEC, variants[row.variant], row.p0)
        assert (row.q, row.ell, row.feasible, row.epr_bits_per_s) == (
            oracle.q, oracle.ell, oracle.feasible, oracle.epr
        )
        assert row.epr_cr_bits_per_s == solve_cr(point, COMP, STEEP, SPEC, row.p0).epr
    assert any(row.feasible for row in rows) and not all(row.feasible for row in rows)


def test_sweep_plans_every_exit_set_of_a_point_like_brute_force():
    # sweep plans all exit sets of a (p0, SNR) point from one depth search;
    # each row must still be the exhaustive optimum for its own exit set
    rng = np.random.default_rng(20261018)
    feasible = infeasible = 0
    for _ in range(200):
        inst = random_instance(rng)
        sets = [inst["exits"]]
        for _ in range(3):
            size = int(rng.integers(1, 7))
            layers = np.sort(rng.choice(np.arange(1, 40), size=size, replace=False))
            sets.append(ExitSet(layers=tuple(int(l) for l in layers)))
        snr_db = 10.0 * math.log10(inst["link"].snr)
        rows = sweep([snr_db], inst["link"], inst["comp"], inst["profile"], inst["spec"],
                     sets, [inst["p0"]], tasks=1, seed=0)
        assert len(rows) == len(sets)
        point = replace(inst["link"], snr=snr_db_to_linear(snr_db))
        for row, exits in zip(rows, sets):
            oracle = brute_force(point, inst["comp"], inst["profile"], inst["spec"], exits,
                                 inst["p0"])
            assert (row.q, row.ell, row.feasible, row.epr_bits_per_s) == (
                oracle.q, oracle.ell, oracle.feasible, oracle.epr
            )
            feasible += row.feasible
            infeasible += not row.feasible
    assert feasible >= 200 and infeasible >= 100


def test_sweep_runs_one_depth_search_per_target_and_noise_level(monkeypatch):
    # one continuous depth search per (p0, noise level), shared by the
    # ceilings and the discrete scans: at 10 and 25 dB the ceilings' noise
    # rounds away, so per p0 the -5 dB ceiling and one noise-free search serve
    # all three ceilings and every discrete plan; each exit set is checked
    # against the model once, at the entry
    calls, checks = [], []
    search, check_within = optimizer.min_depth_for_accuracy, ExitSet.check_within

    def counted(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    def counted_check(exits, profile):
        checks.append(exits)
        return check_within(exits, profile)

    monkeypatch.setattr(optimizer, "min_depth_for_accuracy", counted)
    monkeypatch.setattr(ExitSet, "check_within", counted_check)
    grid = [-5.0, 10.0, 25.0]
    bits = [max_bitwidth_discrete(replace(LINK, snr=snr_db_to_linear(s)), SPEC) for s in grid]
    assert bits[0] < bits[1] == bits[2] == SPEC.q_max
    variants = [ExitSet(layers=(9, 37)), ExitSet(layers=(9, 19, 37)), EXITS]
    rows = sweep(grid, LINK, COMP, STEEP, SPEC, variants, [0.6, 0.7], tasks=10, seed=4)
    assert len(rows) == 18
    assert [(p0, sigma2 == 0.0) for sigma2, p0, _ in calls] == [
        (0.6, False), (0.6, True), (0.7, False), (0.7, True)
    ]
    assert len(checks) == 3


def test_sweep_shares_plans_between_thresholds_on_random_instances():
    # an SNR grid where several points share a bit-width and some sit one
    # float either side of a threshold; every row must be the plan solved at
    # its own link, and the ceiling too
    rng = np.random.default_rng(20261018)
    shared = 0
    for _ in range(6):
        inst = random_instance(rng)
        link, spec = inst["link"], inst["spec"]
        b = spec.bit_alphabet[len(spec.bit_alphabet) // 2]
        threshold = 2.0 ** (b * link.d / (link.t_max_s * link.bandwidth_hz)) - 1.0
        snrs = [threshold * f for f in (0.5, 0.9, 1.1, 2.0, 1e3)]
        snrs += [math.nextafter(threshold, 0.0), threshold, math.nextafter(threshold, math.inf)]
        grid = [10.0 * math.log10(s) for s in snrs]
        sets = [inst["exits"], ExitSet(layers=(inst["exits"].deepest,))]
        p0s = [inst["p0"], 0.5 + 0.5 * inst["p0"]]
        rows = sweep(grid, link, inst["comp"], inst["profile"], spec, sets, p0s, tasks=1, seed=0)
        assert len(rows) == len(sets) * len(p0s) * len(grid)
        points = [replace(link, snr=snr_db_to_linear(snr_db)) for snr_db in grid]
        bits = [max_bitwidth_discrete(point, spec) for point in points]
        shared += len(bits) - len(set(bits))
        rows_at = iter(rows)
        for exits in sets:
            for p0 in p0s:
                for point in points:
                    row = next(rows_at)
                    plan = solve_discrete(point, inst["comp"], inst["profile"], spec, exits, p0)
                    ceiling = solve_cr(point, inst["comp"], inst["profile"], spec, p0)
                    assert (row.q, row.ell, row.pred_acc, row.feasible, row.epr_bits_per_s) == (
                        plan.q, plan.ell, plan.predicted_accuracy, plan.feasible, plan.epr
                    )
                    assert row.epr_cr_bits_per_s == ceiling.epr
    assert shared >= 12


SWEEP_GRID, SWEEP_P0S = [-5.0, 5.0, 10.0, 25.0], [0.6, 0.999]
SWEEP_VARIANTS = [ExitSet(layers=(9, 37)), EXITS]


def _serial_sweep(grid, variants, p0s, tasks, seed):
    """Sweep rows built one after another on the calling thread: each cell's
    own plan, simulated on its stream ``(seed, 101, vi, pi, si)``."""
    rows = []
    cells = itertools.product(enumerate(variants), enumerate(p0s), enumerate(grid))
    for (vi, exits), (pi, p0), (si, snr_db) in cells:
        point = replace(LINK, snr=snr_db_to_linear(snr_db))
        plan = solve_discrete(point, COMP, STEEP, SPEC, exits, p0)
        rng = make_rng(derive_seed(seed, 101, vi, pi, si), 3)
        correct = simulator._simulate(tasks, plan, STEEP, SPEC, rng)
        value = np.count_nonzero(correct) / tasks
        rows.append(simulator.SweepRow(
            snr_db=snr_db, variant=exit_set_label(exits), p0=p0, q=plan.q, ell=plan.ell,
            pred_acc=plan.predicted_accuracy, emp_acc=value,
            emp_ci=1.959963984540054 * math.sqrt(value * (1.0 - value) / tasks),
            epr_bits_per_s=plan.epr, epr_cr_bits_per_s=solve_cr(point, COMP, STEEP, SPEC, p0).epr,
            feasible=plan.feasible,
        ))
    return rows


@pytest.mark.parametrize("cores", [1, 2, 3, 8])
def test_sweep_rows_are_the_serial_rows_on_any_core_count(monkeypatch, cores):
    # 16 rows and 2 rows, so 8 cores is fewer than the rows once and more
    # once; at 8 cores a 1 us switch interval interleaves the workers as
    # often as it can
    _force_cores(monkeypatch, cores)
    pools = _spy_pools(monkeypatch)
    cases = [(SWEEP_GRID, SWEEP_VARIANTS, SWEEP_P0S), ([10.0], [EXITS], SWEEP_P0S)]
    interval = sys.getswitchinterval()
    if cores == 8:
        sys.setswitchinterval(1e-6)
    try:
        for grid, variants, p0s in cases:
            rows = _within(60.0, lambda: sweep(grid, LINK, COMP, STEEP, SPEC, variants, p0s,
                                               tasks=300, seed=11))
            assert rows == _serial_sweep(grid, variants, p0s, tasks=300, seed=11)
            # both kinds of batch: drawn end to end, and guessed without bits
            assert any(row.feasible for row in rows) and not all(row.feasible for row in rows)
    finally:
        sys.setswitchinterval(interval)
    # one pool per sweep, at most one task per worker, each row simulated once
    assert len(pools) == len(cases)
    for pool, (grid, variants, p0s) in zip(pools, cases):
        cells = list(itertools.product(range(len(variants)), range(len(p0s)), range(len(grid))))
        assert pool.workers == min(cores, len(cells))
        assert len(pool.tasks) <= pool.workers
        assert sorted(cell for _, (block,) in pool.tasks for cell in block) == cells


@pytest.mark.parametrize("failing", [None, (0, 0, 0), (1, 1, 3)], ids=["none", "first", "last"])
def test_a_failing_row_reaches_the_caller_and_leaves_no_thread(monkeypatch, failing):
    # the row whose stream is the failing cell's raises on a worker thread
    _force_cores(monkeypatch, 2)
    simulate, seed = simulator._simulate, 9
    if failing is not None:
        entropy = [derive_seed(seed, 101, *failing), simulator._STREAM_TASKS]

        def failing_row(tasks, plan, profile, spec, rng):
            if rng.bit_generator.seed_seq.entropy == entropy:
                raise DrawFailed(failing)
            return simulate(tasks, plan, profile, spec, rng)

        monkeypatch.setattr(simulator, "_simulate", failing_row)
    _ends_without_a_thread(
        lambda: sweep(SWEEP_GRID, LINK, COMP, STEEP, SPEC, SWEEP_VARIANTS, SWEEP_P0S, 100, seed),
        lambda rows: len(rows) == 16,
        failing,
    )


def test_a_sweep_judges_every_argument_before_a_pool_exists(monkeypatch):
    monkeypatch.setattr(simulator, "ThreadPoolExecutor", _no_pool)
    wide = LinkState(bandwidth_hz=1e306, snr=1.0, t_max_s=1.0, d=1)
    good = dict(snr_db_grid=[10.0], link=LINK, comp=COMP, profile=STEEP, spec=SPEC,
                exit_variants=[EXITS], p0_list=[0.7], tasks=10, seed=1)
    bad = [
        ("seed", dict(seed="7")),
        ("layers[1]", dict(exit_variants=[EXITS, ExitSet((9, 40))])),
        ("p0", dict(p0_list=[0.7, 1.5])),
        ("tasks", dict(tasks=0)),
        ("snr_db_grid", dict(snr_db_grid=[])),
        # a grid point where bandwidth_hz * log2(1 + snr) overflows
        ("bandwidth_hz", dict(link=wide, snr_db_grid=[10.0, 3000.0])),
    ]
    for path, change in bad:
        with pytest.raises(FieldError) as err:
            sweep(**{**good, **change})
        assert err.value.path == path


def test_task_count_must_be_positive(monkeypatch):
    # the count is rejected before any planning starts
    def search(*args, **kwargs):
        pytest.fail("a depth search ran before the task count was checked")

    monkeypatch.setattr(optimizer, "min_depth_for_accuracy", search)
    for tasks in (0, 2.5, True):  # a fraction is rejected, not truncated; a bool is no count
        with pytest.raises(FieldError, match="^tasks: must be an integer >= 1"):
            run_algorithm1(tasks, LINK, COMP, STEEP, SPEC, EXITS, 0.7, seed=5)
        with pytest.raises(FieldError, match="^tasks: must be an integer >= 1"):
            sweep([10.0], LINK, COMP, STEEP, SPEC, [EXITS], [0.7], tasks=tasks, seed=5)


def test_benchmark_tracer_targets_resolve():
    # perfbench/tracer.py wraps these functions by name and counts the length
    # of run_algorithm1's first result; read it without importing or caching
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    namespace = {"__name__": "tracer"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    for module, func in namespace["TARGETS"]:
        assert callable(getattr(importlib.import_module(f"edgeplan.{module}"), func, None)), func
    assert len(run_algorithm1(25, LINK, COMP, STEEP, SPEC, EXITS, 0.7, seed=5)[0]) == 25


def test_sweep_rejects_empty_grid():
    cases = {"snr_db_grid": ([], [EXITS], [0.7]), "exit_variants": ([10.0], [], [0.7]),
             "p0_list": ([10.0], [EXITS], [])}
    for name, (grid, variants, p0s) in cases.items():
        with pytest.raises(FieldError, match=f"^{name}: must be nonempty$"):
            sweep(grid, LINK, COMP, STEEP, SPEC, variants, p0s, tasks=10, seed=1)


def test_sweep_reads_iterators_like_lists():
    grid, variants, p0s = [0.0, 10.0], [EXITS, ExitSet(layers=(37,))], [0.6, 0.7]
    rows = sweep(grid, LINK, COMP, STEEP, SPEC, variants, p0s, tasks=20, seed=3)
    assert len(rows) == 8
    again = sweep(iter(grid), LINK, COMP, STEEP, SPEC, iter(variants), iter(p0s), tasks=20, seed=3)
    assert again == rows


@pytest.mark.parametrize("seed", ["7", True, 7.9, None], ids=repr)
def test_seeds_must_be_integers_wherever_streams_are_made(seed, monkeypatch):
    # a string, bool or float seed once drew the stream of int(seed); a
    # validate grid judges the seed of its last cell before its pool is made
    monkeypatch.setattr(simulator, "ThreadPoolExecutor", _no_pool)
    calls = [
        lambda: make_rng(seed),
        lambda: derive_seed(seed, 1),
        lambda: generate_dataset(PROFILE, 10.0, 3, seed),
        lambda: simulator._grid_accuracy(PROFILE, 3, [(10.0, 1e-3, 1), (20.0, 0.0, 2),
                                                      (10.0, 1e-3, seed)]),
        lambda: run_algorithm1(10, LINK, COMP, STEEP, SPEC, EXITS, 0.7, seed),
        lambda: sweep([10.0], LINK, COMP, STEEP, SPEC, [EXITS], [0.7], tasks=10, seed=seed),
    ]
    for call in calls:
        with pytest.raises(FieldError, match=rf"^seed: must be an integer, got {seed!r}$") as err:
            call()
        assert err.value.path == "seed"


def test_bad_seed_or_exit_set_costs_no_planning(monkeypatch):
    # each input is judged before any depth search or ceiling is solved; a bad
    # seed once cost a whole planning pass before its FieldError, and a bad
    # last p0 the searches of every p0 before it
    calls = []
    search, ceiling = optimizer.min_depth_for_accuracy, optimizer._Target.ceiling
    monkeypatch.setattr(optimizer, "min_depth_for_accuracy", lambda *a: calls.append(a) or search(*a))
    monkeypatch.setattr(optimizer._Target, "ceiling", lambda *a: calls.append(a) or ceiling(*a))
    grid, p0s = [-5.0, 10.0, 25.0], [0.6, 0.7]
    bad_inputs = [
        ("seed", lambda: sweep(grid, LINK, COMP, STEEP, SPEC, [EXITS], p0s, tasks=10, seed="7")),
        ("layers[1]", lambda: sweep(grid, LINK, COMP, STEEP, SPEC, [ExitSet((9, 40))], p0s, 10, 1)),
        ("p0", lambda: sweep(grid, LINK, COMP, STEEP, SPEC, [EXITS], [0.7, 1.5], 10, 1)),
        ("p0", lambda: sweep(grid, LINK, COMP, STEEP, SPEC, [EXITS], [0.7, "0.6"], 10, 1)),
        ("seed", lambda: run_algorithm1(10, LINK, COMP, STEEP, SPEC, EXITS, 0.7, 1.5)),
    ]
    for path, call in bad_inputs:
        with pytest.raises(FieldError) as err:
            call()
        assert err.value.path == path
    assert calls == []
    sweep(grid, LINK, COMP, STEEP, SPEC, [EXITS], p0s, tasks=10, seed=1)
    assert calls  # the counters see a valid sweep's planning


def test_every_integer_seed_draws_its_stream_modulo_2_64():
    # values drawn before seeds were checked: a negative seed and one beyond
    # 64 bits still address the streams of their residues
    assert [int(make_rng(s, 3).integers(0, 2**62)) for s in (-5, 2**70)] == [
        228044227695932597, 4373901923266598495
    ]
    assert [derive_seed(s, 101, 0) for s in (-5, 2**70)] == [
        14052809539402957296, 9039240839659415385
    ]
    assert derive_seed(np.int64(-5), 101, 0) == derive_seed(2**64 - 5, 101, 0)
