"""Tests for the hyperparameter fitting module."""

import numpy as np
import pytest

from edgeplan.accuracy import FeatureProfile, kappa_bar
from edgeplan.circstats import FieldError, estimate_kappa_pooled
from edgeplan.fitting import DepthSeries, fit_affine, fit_exponential
from edgeplan.rng import make_rng
from edgeplan.simulator import generate_dataset


def test_depth_series_validation():
    with pytest.raises(ValueError):
        DepthSeries(depths=np.array([1.0]), values=np.array([2.0]))
    shape = r"^values: must have depths' shape \(3,\), got \(2,\)$"
    with pytest.raises(FieldError, match=shape):
        DepthSeries(depths=np.array([1.0, 2.0, 3.0]), values=np.array([2.0, 3.0]))
    with pytest.raises(ValueError):
        DepthSeries(depths=np.array([1.0, 1.0]), values=np.array([2.0, 3.0]))
    with pytest.raises(ValueError):
        DepthSeries(depths=np.array([1.0, 2.0]), values=np.array([2.0, np.inf]))
    with pytest.raises(FieldError, match=r"^depths: must be one-dimensional, got shape \(2, 2\)$"):
        DepthSeries(depths=np.eye(2), values=np.ones((2, 2)))
    series = DepthSeries(depths=np.array([1.0, 2.0]), values=np.array([2.0, 3.0]))
    assert len(series) == 2


def test_fit_affine_exact_recovery():
    depths = np.arange(1.0, 21.0)
    fit = fit_affine(DepthSeries(depths=depths, values=0.5 * depths + 1.0))
    assert fit.c1 == pytest.approx(0.5, rel=1e-12)
    assert fit.c2 == pytest.approx(1.0, rel=1e-12)
    assert fit.residual_rms < 1e-12


def test_fit_affine_two_points_interpolates():
    fit = fit_affine(DepthSeries(depths=np.array([2.0, 10.0]), values=np.array([3.0, 7.0])))
    assert fit.c1 == pytest.approx(0.5, rel=1e-14)
    assert fit.c2 == pytest.approx(2.0, rel=1e-14)
    assert fit.residual_rms < 1e-12


def test_fit_affine_noisy_recovery_within_5_percent():
    rng = make_rng(314)
    depths = np.linspace(1.0, 30.0, 30)
    truth = 0.8 * depths + 2.0
    values = truth + rng.normal(0.0, 0.05, size=30)
    fit = fit_affine(DepthSeries(depths=depths, values=values))
    assert abs(fit.c1 - 0.8) / 0.8 < 0.05
    assert abs(fit.c2 - 2.0) / 2.0 < 0.05
    assert fit.residual_rms < 0.1


def test_fit_exponential_exact_recovery():
    depths = np.arange(1.0, 31.0)
    fit = fit_exponential(DepthSeries(depths=depths, values=400.0 * np.exp(-0.08 * depths)))
    assert fit.c3 == pytest.approx(400.0, rel=1e-10)
    assert fit.c4 == pytest.approx(0.08, rel=1e-10)
    assert fit.log_residual_rms < 1e-12
    assert not fit.nonpositive_decay


def test_fit_exponential_constant_series_flags_zero_decay():
    fit = fit_exponential(DepthSeries(depths=np.arange(1.0, 11.0), values=np.full(10, 2.0)))
    assert fit.c4 == 0.0
    assert fit.nonpositive_decay
    assert fit.c3 == pytest.approx(2.0, rel=1e-12)


def test_fit_exponential_noisy_recovery_within_5_percent():
    rng = make_rng(2718)
    depths = np.linspace(1.0, 30.0, 30)
    values = 250.0 * np.exp(-0.12 * depths) * np.exp(rng.normal(0.0, 0.05, size=30))
    fit = fit_exponential(DepthSeries(depths=depths, values=values))
    assert abs(fit.c3 - 250.0) / 250.0 < 0.05
    assert abs(fit.c4 - 0.12) / 0.12 < 0.05


def test_fit_exponential_rejects_nonpositive_values():
    with pytest.raises(ValueError):
        fit_exponential(DepthSeries(depths=np.array([1.0, 2.0]), values=np.array([1.0, 0.0])))


def test_round_trip_simulated_concentrations_recover_profile():
    # generate clean datasets along depth, estimate the pooled concentration,
    # and fit the affine growth back out
    profile = FeatureProfile(j_classes=10, c1=0.35, c2=0.5, c3=400.0, c4=0.08, n_layers=39)
    depths = np.array([5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0])
    estimates = []
    for i, ell in enumerate(depths):
        ds = generate_dataset(profile, float(ell), 10_000, seed=4200 + i)
        estimates.append(estimate_kappa_pooled(ds, 10).value)
    fit = fit_affine(DepthSeries(depths=depths, values=np.array(estimates)))
    assert abs(fit.c1 - profile.c1) / profile.c1 < 0.05
    assert abs(fit.c2 - profile.c2) / profile.c2 < 0.05
    for ell, est in zip(depths, estimates):
        assert abs(est - kappa_bar(float(ell), profile)) / kappa_bar(float(ell), profile) < 0.03


def test_residual_shrinks_with_more_samples_on_average():
    rng = make_rng(99)
    depths = np.linspace(1.0, 30.0, 30)
    small, large = [], []
    for rep in range(8):
        noise = rng.normal(0.0, 1.0, size=30)
        small.append(fit_affine(DepthSeries(depths=depths, values=depths + 0.5 * noise)).residual_rms)
        large.append(fit_affine(DepthSeries(depths=depths, values=depths + 0.05 * noise)).residual_rms)
    assert np.mean(large) < np.mean(small)
