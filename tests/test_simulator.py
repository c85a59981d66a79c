"""Tests for the Monte Carlo simulator against the analytic model."""

import math
from dataclasses import replace

import numpy as np
import pytest

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
    AngularSampleSet,
    bessel_ratio,
    estimate_kappa,
    estimate_kappa_pooled,
    wrapped_gaussian_kappa,
)
from edgeplan.optimizer import ExitSet, solve_discrete
from edgeplan.simulator import (
    AngularDataset,
    classify_map,
    distort,
    empirical_accuracy,
    exit_set_label,
    generate_dataset,
    run_algorithm1,
    sweep,
)
from edgeplan.system import ComputeProfile, LinkState, snr_db_to_linear

import oracles

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
    assert np.array_equal(a.samples.angles, b.samples.angles)
    assert np.array_equal(a.samples.labels, b.samples.labels)
    assert len(a.samples) == 5000
    counts = np.bincount(a.samples.labels)[1:]
    assert np.all(counts == 500)
    assert not a.distorted and a.sigma2_effective == 0.0
    c = generate_dataset(PROFILE, 12.0, 500, seed=8)
    assert not np.array_equal(a.samples.angles, c.samples.angles)


def test_generate_dataset_class_means_match_resultant():
    ds = generate_dataset(PROFILE, 20.0, 10_000, seed=31)
    expected = bessel_ratio(kappa_bar(20.0, PROFILE))
    for j in range(1, 11):
        angles = ds.samples.angles[ds.samples.labels == j]
        mu = PROFILE.centroids[j - 1]
        assert np.mean(np.cos(angles - mu)) == pytest.approx(expected, abs=0.01)


def test_generate_dataset_pooled_estimate_recovers_kappa():
    ds = generate_dataset(PROFILE, 20.0, 10_000, seed=31)
    est = estimate_kappa_pooled(ds.samples, 10)
    truth = kappa_bar(20.0, PROFILE)
    assert abs(est.value - truth) / truth < 0.03


def test_generate_dataset_saturated_concentration_clusters_tightly():
    spiky = FeatureProfile(j_classes=2, c1=1e9, c2=0.0, c3=1.0, c4=0.0, n_layers=39)
    ds = generate_dataset(spiky, 1.0, 50, seed=9)
    mus = spiky.centroids[ds.samples.labels - 1]
    deviation = np.abs(np.angle(np.exp(1j * (ds.samples.angles - mus))))
    # at the concentration cap 1e6 the angular spread is ~1/sqrt(kappa) = 1e-3
    assert deviation.max() < 5e-3


def test_generate_dataset_argument_errors():
    with pytest.raises(ValueError):
        generate_dataset(PROFILE, 0.5, 10, seed=1)
    with pytest.raises(ValueError):
        generate_dataset(PROFILE, 10.0, 0, seed=1)


# ---------------------------------------------------------------------------
# distortion
# ---------------------------------------------------------------------------


def test_distort_zero_noise_is_identity():
    ds = generate_dataset(PROFILE, 15.0, 200, seed=3)
    out = distort(ds, 0.0, PROFILE, seed=4)
    assert out.distorted and out.sigma2_effective == 0.0
    assert np.array_equal(out.samples.angles, ds.samples.angles)


def test_distort_twice_is_a_state_error():
    ds = generate_dataset(PROFILE, 15.0, 50, seed=3)
    out = distort(ds, 1e-3, PROFILE, seed=4)
    with pytest.raises(RuntimeError):
        distort(out, 1e-3, PROFILE, seed=5)


def test_distort_records_effective_variance_and_is_deterministic():
    ds = generate_dataset(PROFILE, 15.0, 400, seed=3)
    out1 = distort(ds, 1e-3, PROFILE, seed=4)
    out2 = distort(ds, 1e-3, PROFILE, seed=4)
    assert np.array_equal(out1.samples.angles, out2.samples.angles)
    assert out1.sigma2_effective == pytest.approx(1e-3 * grad_energy(15.0, PROFILE), rel=1e-15)
    out3 = distort(ds, 1e-3, PROFILE, seed=5)
    assert not np.array_equal(out1.samples.angles, out3.samples.angles)


def test_distorted_concentration_matches_propagation_model():
    # one cell of the (sigma2, depth) validation grid; the full grid runs in
    # the acceptance suite
    ds = generate_dataset(PROFILE, 15.0, 10_000, seed=100)
    sigma2 = 1e-3
    out = distort(ds, sigma2, PROFILE, seed=101)
    est = estimate_kappa_pooled(out.samples, 10)
    predicted = kappa_distorted(sigma2, 15.0, PROFILE)
    assert abs(est.value - predicted) / predicted < 0.05


def test_distorting_point_mass_recovers_wrapped_gaussian_kappa():
    mu = float(PROFILE.centroids[2])
    point = AngularDataset(
        depth=20.0,
        samples=AngularSampleSet(
            angles=np.full(20_000, mu), labels=np.ones(20_000, dtype=int)
        ),
    )
    sigma2 = 5e-4
    out = distort(point, sigma2, PROFILE, seed=11)
    est = estimate_kappa(AngularSampleSet(angles=out.samples.angles))
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


def test_empirical_accuracy_tracks_analytic_model():
    # one cell of the analytic-vs-empirical agreement grid (full grid in the
    # acceptance suite): q = 8, depth 19, N = 5e4
    q, ell = 8.0, 19.0
    ds = generate_dataset(PROFILE, ell, 5_000, seed=71)
    noisy = distort(ds, quant_variance(q, SPEC), PROFILE, seed=72)
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
    noisy = distort(ds, quant_variance(q, SPEC), PROFILE, seed=82)
    est = empirical_accuracy(noisy, PROFILE)
    assert abs(est.value - exact) < 3.0 * math.sqrt(exact * (1 - exact) / est.n)


# ---------------------------------------------------------------------------
# task batches
# ---------------------------------------------------------------------------


def test_run_algorithm1_deterministic():
    records1, summary1 = run_algorithm1(500, LINK, COMP, STEEP, SPEC, EXITS, 0.7, seed=5)
    records2, summary2 = run_algorithm1(500, LINK, COMP, STEEP, SPEC, EXITS, 0.7, seed=5)
    assert records1 == records2
    assert summary1 == summary2


def test_run_algorithm1_meets_target_when_feasible():
    _, summary = run_algorithm1(4000, LINK, COMP, STEEP, SPEC, EXITS, 0.7, seed=6)
    assert summary.plan.feasible
    se = math.sqrt(0.7 * 0.3 / 4000)
    assert summary.empirical_accuracy >= 0.7 - 3.0 * se
    assert summary.mean_epr == summary.plan.epr > 0.0


def test_run_algorithm1_degenerates_to_chance_without_bits():
    starved = replace(LINK, snr=snr_db_to_linear(-40.0))
    _, summary = run_algorithm1(5000, starved, COMP, STEEP, SPEC, EXITS, 0.7, seed=8)
    assert summary.plan.q == 0.0
    assert summary.mean_epr == 0.0
    assert abs(summary.empirical_accuracy - 0.1) <= 3.0 * math.sqrt(0.1 * 0.9 / 5000)


def test_run_algorithm1_classes_cycle():
    records, _ = run_algorithm1(25, LINK, COMP, STEEP, SPEC, EXITS, 0.7, seed=5)
    assert [r.true_class for r in records[:12]] == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 2]


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
    grid = [-5.0, 10.0, 25.0]
    rows = sweep(grid, LINK, COMP, STEEP, SPEC, [EXITS], [0.6, 0.999], tasks=50, seed=3)
    assert len(rows) == 6
    for row in rows:
        point = replace(LINK, snr=snr_db_to_linear(row.snr_db))
        plan = solve_discrete(point, COMP, STEEP, SPEC, EXITS, row.p0)
        assert (row.q, row.ell, row.pred_acc, row.epr_bits_per_s, row.feasible) == (
            plan.q, plan.ell, plan.predicted_accuracy, plan.epr, plan.feasible
        )
    assert any(row.feasible for row in rows) and not all(row.feasible for row in rows)


def test_sweep_rejects_empty_grid():
    with pytest.raises(ValueError):
        sweep([], LINK, COMP, STEEP, SPEC, [EXITS], [0.7], tasks=10, seed=1)
