"""Property tests of the Bessel inverse, the distorted concentration and the sampler.

Hypothesis runs derandomized, without an example database, and with a
bounded number of examples, so every run checks the same inputs.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from edgeplan.accuracy import FeatureProfile, grad_energy, kappa_bar, kappa_distorted
from edgeplan.circstats import (
    KAPPA_MAX,
    _RESULTANT_CAP,
    bessel_ratio,
    bessel_ratio_inv,
    sample_von_mises,
)
from edgeplan.rng import make_rng


def bounded(examples: int):
    return settings(derandomize=True, database=None, deadline=None, max_examples=examples)


# resultants from 1e-300 to just below the cap, both as hypothesis draws
# floats over the range (which favours its ends) and log-uniformly
RESULTANTS = st.one_of(
    st.floats(min_value=1e-300, max_value=_RESULTANT_CAP, exclude_max=True),
    st.floats(min_value=-300.0, max_value=math.log10(_RESULTANT_CAP)).map(lambda e: 10.0**e),
).filter(lambda r: 1e-300 <= r < _RESULTANT_CAP)


@bounded(150)
@given(RESULTANTS)
def test_bessel_ratio_inv_round_trips_below_the_cap(r):
    est = bessel_ratio_inv(r)
    assert not est.saturated
    assert abs(bessel_ratio(est.value) - r) <= 1e-9 * r


@bounded(150)
@given(RESULTANTS)
def test_bessel_ratio_inv_seed_bracket_holds_the_root(r):
    # the bracket [0, max(2 kappa0, 1)] around the closed-form seed already
    # holds the root, so bessel_ratio_inv's doubling loop is only a guard
    kappa0 = r * (2.0 - r * r) / (1.0 - r * r)
    assert bessel_ratio(max(2.0 * kappa0, 1.0)) >= r


PROFILES = st.builds(
    FeatureProfile,
    j_classes=st.just(10),
    c1=st.floats(min_value=0.01, max_value=2.0),
    c2=st.floats(min_value=0.0, max_value=3.0),
    c3=st.floats(min_value=1.0, max_value=1000.0),
    c4=st.floats(min_value=0.0, max_value=0.5),
    n_layers=st.just(39),
)
# no noise, noise too small to move the first moment off 1, and real noise
VARIANCES = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e-18),
    st.floats(min_value=0.0, max_value=10.0),
)


@bounded(150)
@given(PROFILES, VARIANCES, st.floats(min_value=1.0, max_value=39.0))
def test_kappa_distorted_is_kappa_bar_without_noise_and_never_above_it(profile, sigma2, ell):
    kd, kbar = kappa_distorted(sigma2, ell, profile), kappa_bar(ell, profile)
    if math.exp(-0.5 * sigma2 * grad_energy(ell, profile)) >= 1.0:
        assert kd == kbar
    assert kd <= kbar


# profiles whose kappa_bar runs from below the cap to about 4e6 past it
STEEP_PROFILES = st.builds(
    FeatureProfile,
    j_classes=st.just(10_000),
    c1=st.floats(min_value=1e3, max_value=1e5),
    c2=st.floats(min_value=0.0, max_value=3.0),
    c3=st.floats(min_value=1.0, max_value=1000.0),
    c4=st.floats(min_value=0.0, max_value=0.5),
    n_layers=st.just(39),
)


@bounded(150)
@given(STEEP_PROFILES, VARIANCES, st.floats(min_value=1.0, max_value=39.0))
def test_kappa_distorted_saturates_where_the_sampler_does(profile, sigma2, ell):
    capped = min(kappa_bar(ell, profile), KAPPA_MAX)
    assert kappa_distorted(sigma2, ell, profile) <= capped
    assert kappa_distorted(0.0, ell, profile) == capped
    assert kappa_distorted(1e-300, ell, profile) == capped


@bounded(20)
@given(
    st.floats(min_value=0.0, max_value=1e-8, exclude_max=True),
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.integers(min_value=0, max_value=2**63),
)
def test_sample_von_mises_below_1e_8_is_uniform(kappa, mu, seed):
    angles = sample_von_mises(make_rng(seed), mu, kappa, 4000)
    assert np.all(angles > -np.pi) and np.all(angles <= np.pi)
    # a uniform sample fails this with probability 1e-4 per example
    assert stats.kstest(angles, stats.uniform(-np.pi, 2.0 * np.pi).cdf).pvalue > 1e-4
