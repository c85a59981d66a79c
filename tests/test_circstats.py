"""Tests for the circular-statistics kernel."""

import math

import numpy as np
import pytest
from scipy import stats

from edgeplan.circstats import (
    KAPPA_MAX,
    AngularSampleSet,
    VonMisesParams,
    bessel_ratio,
    bessel_ratio_inv,
    estimate_kappa,
    estimate_kappa_pooled,
    vm_sample,
    wrap_angle,
    wrapped_gaussian_kappa,
)

import oracles


# ---------------------------------------------------------------------------
# the ratio map
# ---------------------------------------------------------------------------


def test_bessel_ratio_reference_values():
    assert bessel_ratio(0.0) == 0.0
    assert bessel_ratio(2.0) == pytest.approx(oracles.ratio(2.0), rel=1e-12)
    assert bessel_ratio(2.0) == pytest.approx(0.6977746579640082, rel=1e-12)
    # asymptotically 1 - 1/(2 kappa)
    assert bessel_ratio(1000.0) == pytest.approx(0.9994998748748043, rel=1e-12)


def test_bessel_ratio_strictly_increasing_below_one():
    grid = np.geomspace(1e-4, 1e5, 60)
    values = np.array([bessel_ratio(k) for k in grid])
    assert np.all(np.diff(values) > 0)
    assert np.all(values < 1.0)


def test_bessel_ratio_domain_errors():
    with pytest.raises(ValueError):
        bessel_ratio(-0.5)
    with pytest.raises(ValueError):
        bessel_ratio(float("nan"))


def test_bessel_ratio_inv_fixed_point_and_round_trip():
    assert bessel_ratio_inv(0.0) == (0.0, False)
    inv = bessel_ratio_inv(bessel_ratio(5.0))
    assert not inv.saturated
    assert inv.value == pytest.approx(5.0, rel=1e-8)


def test_bessel_ratio_inv_matches_series_oracle():
    r = oracles.ratio(2.0)
    est = bessel_ratio_inv(r)
    assert est.value == pytest.approx(2.0, rel=1e-8)
    # independent bisection against the series oracle
    assert est.value == pytest.approx(oracles.ratio_inv_bisect(r), rel=1e-7)


def test_bessel_ratio_inv_round_trip_log_grid():
    for kappa in np.geomspace(1e-3, 1e3, 40):
        est = bessel_ratio_inv(bessel_ratio(kappa))
        assert abs(est.value - kappa) / kappa < 1e-8


def test_bessel_ratio_inv_saturation_and_domain():
    sat = bessel_ratio_inv(1.0 - 1e-15)
    assert sat == (KAPPA_MAX, True)
    with pytest.raises(ValueError):
        bessel_ratio_inv(-1e-9)
    with pytest.raises(ValueError):
        bessel_ratio_inv(1.0)


# ---------------------------------------------------------------------------
# angles
# ---------------------------------------------------------------------------


def test_wrap_angle_range_and_boundary():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)
    grid = np.linspace(-20.0, 20.0, 1001)
    wrapped = wrap_angle(grid)
    assert np.all(wrapped > -math.pi) and np.all(wrapped <= math.pi)


def test_vm_params_validation():
    with pytest.raises(ValueError):
        VonMisesParams(mu=4.0, kappa=1.0)
    with pytest.raises(ValueError):
        VonMisesParams(mu=-math.pi, kappa=1.0)
    with pytest.raises(ValueError):
        VonMisesParams(mu=0.0, kappa=-1.0)
    with pytest.raises(ValueError):
        VonMisesParams(mu=0.0, kappa=float("inf"))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_vm_sample_uniform_when_unconcentrated():
    samples = vm_sample(VonMisesParams(0.0, 0.0), 100_000, seed=101)
    ks = stats.kstest(samples.angles, lambda x: (x + np.pi) / (2 * np.pi))
    assert ks.statistic < 0.006  # KS critical value at n=1e5, alpha ~ 0.01


def test_vm_sample_concentration_recovered():
    samples = vm_sample(VonMisesParams(1.0, 3.0), 100_000, seed=2024)
    est = estimate_kappa(samples)
    assert 2.94 <= est.value <= 3.06


@pytest.mark.parametrize("kappa", [0.0, 1.0, 5.0, 50.0])
def test_vm_sample_ks_against_density(kappa):
    samples = vm_sample(VonMisesParams(0.0, kappa), 100_000, seed=777)
    ks = stats.kstest(samples.angles, lambda x: oracles.von_mises_cdf(x, kappa))
    assert ks.pvalue > 0.01


def test_vm_sample_deterministic_and_in_range():
    a = vm_sample(VonMisesParams(-2.0, 4.0), 5000, seed=42)
    b = vm_sample(VonMisesParams(-2.0, 4.0), 5000, seed=42)
    assert np.array_equal(a.angles, b.angles)
    assert np.all(a.angles > -np.pi) and np.all(a.angles <= np.pi)
    c = vm_sample(VonMisesParams(-2.0, 4.0), 5000, seed=43)
    assert not np.array_equal(a.angles, c.angles)


def test_vm_sample_rejects_zero_count():
    with pytest.raises(ValueError):
        vm_sample(VonMisesParams(0.0, 1.0), 0, seed=1)


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------


def test_estimate_kappa_dispersed_is_zero():
    samples = AngularSampleSet(angles=np.array([0.0, np.pi / 2, np.pi, -np.pi / 2]))
    est = estimate_kappa(samples)
    assert est.value == pytest.approx(0.0, abs=1e-12)
    assert not est.saturated


def test_estimate_kappa_identical_samples_saturate():
    samples = AngularSampleSet(angles=np.full(10, 0.4))
    est = estimate_kappa(samples)
    assert est == (KAPPA_MAX, True)


@pytest.mark.parametrize("kappa", [1.0, 3.0, 10.0])
def test_estimate_kappa_consistency(kappa):
    samples = vm_sample(VonMisesParams(0.0, kappa), 100_000, seed=55)
    est = estimate_kappa(samples)
    assert abs(est.value - kappa) / kappa < 0.02


def test_estimate_kappa_needs_two_samples():
    with pytest.raises(ValueError):
        estimate_kappa(AngularSampleSet(angles=np.array([0.1])))


def _symmetric_class(center: float, half_angle: float, n_pairs: int) -> np.ndarray:
    # angles at center +/- half_angle have resultant length cos(half_angle)
    return np.concatenate(
        [np.full(n_pairs, center - half_angle), np.full(n_pairs, center + half_angle)]
    )


def test_estimate_kappa_pooled_is_mean_of_per_class():
    a1 = math.acos(bessel_ratio(2.0))  # class resultant A(2) -> estimate 2
    a2 = math.acos(bessel_ratio(4.0))  # class resultant A(4) -> estimate 4
    angles = np.concatenate(
        [_symmetric_class(0.0, a1, 50), _symmetric_class(1.5, a2, 50)]
    )
    labels = np.concatenate([np.full(100, 1), np.full(100, 2)])
    pooled = estimate_kappa_pooled(AngularSampleSet(angles=angles, labels=labels), 2)
    assert pooled.value == pytest.approx(3.0, rel=1e-7)
    assert not pooled.saturated


def test_estimate_kappa_pooled_single_class_matches_plain():
    samples = vm_sample(VonMisesParams(0.5, 6.0), 5000, seed=8)
    labeled = AngularSampleSet(angles=samples.angles, labels=np.ones(5000, dtype=int))
    assert estimate_kappa_pooled(labeled, 1).value == pytest.approx(
        estimate_kappa(samples).value, rel=1e-12
    )


def test_estimate_kappa_pooled_shared_concentration_recovered():
    # ten classes, shared concentration 5, mirrors the fitting workflow
    rng_angles = []
    labels = []
    for j in range(1, 11):
        mu = wrap_angle(-np.pi + (2 * j - 1) * np.pi / 10)
        s = vm_sample(VonMisesParams(mu, 5.0), 10_000, seed=900 + j)
        rng_angles.append(s.angles)
        labels.append(np.full(10_000, j))
    pooled = estimate_kappa_pooled(
        AngularSampleSet(angles=np.concatenate(rng_angles), labels=np.concatenate(labels)),
        10,
    )
    assert abs(pooled.value - 5.0) / 5.0 < 0.03


def test_estimate_kappa_pooled_missing_class_errors():
    samples = AngularSampleSet(
        angles=np.array([0.0, 0.1, 1.0, 1.1]), labels=np.array([1, 1, 3, 3])
    )
    with pytest.raises(ValueError, match="class 2"):
        estimate_kappa_pooled(samples, 3)


# ---------------------------------------------------------------------------
# wrapped Gaussian matching
# ---------------------------------------------------------------------------


def test_wrapped_gaussian_kappa_values():
    # frozen from bisection against the series-oracle ratio map
    est = wrapped_gaussian_kappa(0.5)
    assert est.value == pytest.approx(2.6338086581658615, rel=1e-9)
    assert est.value == pytest.approx(oracles.ratio_inv_bisect(math.exp(-0.25)), rel=1e-9)
    assert not est.saturated


def test_wrapped_gaussian_kappa_limits():
    assert wrapped_gaussian_kappa(50.0).value < 1e-10
    assert wrapped_gaussian_kappa(0.0) == (KAPPA_MAX, True)
    with pytest.raises(ValueError):
        wrapped_gaussian_kappa(-0.1)


def test_wrapped_gaussian_kappa_monotone_decreasing():
    grid = np.geomspace(1e-3, 20.0, 30)
    values = [wrapped_gaussian_kappa(s).value for s in grid]
    assert all(b < a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize(
    "sigma2,threshold",
    # KS levels confirmed for the matching at n = 1e5; the upper edge of the
    # oracle band, D* + eps, must stay below each
    [(0.1, 0.008), (0.5, 0.019), (1.0, 0.022)],
)
def test_wrapped_gaussian_matches_von_mises_at_confirmed_level(sigma2, threshold):
    # eps is the KS distance of the draws to their own wrapped law and D* the
    # exact CDF gap to the matched von Mises, so the KS to that von Mises must
    # lie in [D* - eps, D* + eps] (triangle inequality on sup norms)
    from edgeplan.rng import make_rng

    rng = make_rng(4242, int(sigma2 * 10))
    wrapped = wrap_angle(rng.normal(0.0, math.sqrt(sigma2), size=100_000))
    kappa = wrapped_gaussian_kappa(sigma2).value
    ks = stats.kstest(wrapped, stats.vonmises(kappa=kappa).cdf).statistic
    eps = stats.kstest(wrapped, lambda x: oracles.wrapped_gaussian_cdf(x, sigma2)).statistic
    gap = oracles.wrapped_vs_von_mises_gap(sigma2)
    assert abs(ks - gap) <= eps
    assert gap + eps < threshold


def test_wrapped_gaussian_sample_cdf_tracks_oracle_cdf():
    # the empirical CDF of wrapped draws should sit on the analytic wrapped CDF
    from edgeplan.rng import make_rng

    rng = make_rng(1717)
    wrapped = np.sort(wrap_angle(rng.normal(0.0, math.sqrt(0.5), size=50_000)))
    ecdf = np.arange(1, wrapped.size + 1) / wrapped.size
    assert np.max(np.abs(ecdf - oracles.wrapped_gaussian_cdf(wrapped, 0.5))) < 0.01


# ---------------------------------------------------------------------------
# sample-set container
# ---------------------------------------------------------------------------


def test_sample_set_validation():
    with pytest.raises(ValueError):
        AngularSampleSet(angles=np.array([0.0, 4.0]))
    with pytest.raises(ValueError):
        AngularSampleSet(angles=np.array([0.0, -np.pi]))
    with pytest.raises(ValueError):
        AngularSampleSet(angles=np.array([0.0, 0.1]), labels=np.array([1]))
    with pytest.raises(ValueError):
        AngularSampleSet(angles=np.array([0.0, 0.1]), labels=np.array([0, 1]))
