"""Property tests of the Bessel inverse, distorted concentration, sampler and planners.

Hypothesis runs derandomized, without an example database, and with a
bounded number of examples, so every run checks the same inputs.
"""

import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from edgeplan.accuracy import (
    FeatureProfile,
    QuantizerSpec,
    accuracy_model,
    grad_energy,
    kappa_bar,
    kappa_distorted,
)
from edgeplan.circstats import (
    KAPPA_MAX,
    _RESULTANT_CAP,
    bessel_ratio,
    bessel_ratio_inv,
    sample_von_mises,
)
from edgeplan.optimizer import ExitSet, brute_force, solve_cr, solve_discrete
from edgeplan.rng import make_rng
from edgeplan.system import ComputeProfile, LinkState, snr_db_to_linear

from helpers import random_instance


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


def log_uniform(low: float, high: float):
    # on a grid of 1,000 steps: hypothesis draws integers more evenly than floats
    lo, hi = math.log10(low), math.log10(high)
    steps = st.integers(min_value=0, max_value=1000)
    return steps.map(lambda i: 10.0 ** (lo + (hi - lo) * i / 1000))


def noisy_depths(j_classes: int, c1_ranges: tuple):
    """(profile, noise variance, depth) drawn by numpy from one seed per example.

    Derandomized hypothesis repeats a value drawn beside others, even from a
    1,000-step grid (about 25 distinct c1 in 150 examples), but not a lone integer,
    so every field comes from the example's seed.  c1 is log-uniform on one of
    ``c1_ranges``, picked with equal odds.
    """
    def draw(seed):
        rng = np.random.default_rng(seed)
        low, high = np.log10(c1_ranges[rng.integers(len(c1_ranges))])
        profile = FeatureProfile(
            j_classes=j_classes,
            c1=float(10.0 ** rng.uniform(low, high)),
            c2=float(rng.uniform(0.0, 3.0)),
            c3=float(rng.uniform(1.0, 1000.0)),
            c4=float(rng.uniform(0.0, 0.5)),
            n_layers=39,
        )
        # no noise, noise too small to move the first moment off 1, and real noise
        sigma2 = (0.0, rng.uniform(0.0, 1e-18), rng.uniform(0.0, 10.0))[rng.integers(3)]
        # the end depths a tenth of the time each
        ell = rng.choice([1.0, 39.0, rng.uniform(1.0, 39.0)], p=[0.1, 0.1, 0.8])
        return profile, float(sigma2), float(ell)

    return st.integers(min_value=0, max_value=2**32 - 1).map(draw)


@bounded(150)
@given(noisy_depths(10, ((0.01, 2.0),)))
def test_kappa_distorted_is_kappa_bar_without_noise_and_never_above_it(example):
    profile, sigma2, ell = example
    kd, kbar = kappa_distorted(sigma2, ell, profile), kappa_bar(ell, profile)
    if math.exp(-0.5 * sigma2 * grad_energy(ell, profile)) >= 1.0:
        assert kd == kbar
    assert kd <= kbar


# profiles whose kappa_bar runs from below the cap to about 4e6 past it; half
# from c1 >= 2.6e4, whose kappa_bar passes KAPPA_MAX by depth 39
@bounded(150)
@given(noisy_depths(10_000, ((1e3, 1e5), (2.6e4, 1e5))))
def test_kappa_distorted_saturates_where_the_sampler_does(example):
    profile, sigma2, ell = example
    capped = min(profile.c1 * ell + profile.c2, KAPPA_MAX)
    assert kappa_bar(ell, profile) == capped
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


@st.composite
def scenarios(draw):
    """A planning scenario over wide inputs: J up to 1e4 and kappa_bar past KAPPA_MAX."""
    j_classes = draw(st.integers(min_value=2, max_value=10_000))
    profile = FeatureProfile(
        j_classes=j_classes,
        # half the profiles from c1 >= 2.6e4, whose kappa_bar passes KAPPA_MAX by depth 39
        c1=draw(log_uniform(1e-2, 1e5) | log_uniform(2.6e4, 1e5)),
        c2=draw(st.floats(min_value=0.0, max_value=3.0)),
        c3=draw(log_uniform(1.0, 1e3)),
        c4=draw(st.floats(min_value=0.0, max_value=0.5)),
        n_layers=39,
    )
    link = LinkState(
        bandwidth_hz=draw(log_uniform(1e7, 2e8)),
        snr=snr_db_to_linear(draw(st.floats(min_value=-5.0, max_value=30.0))),
        t_max_s=draw(st.floats(min_value=0.002, max_value=0.02)),
        d=draw(st.integers(min_value=1_000, max_value=200_000)),
    )
    comp = ComputeProfile(
        b1=draw(st.floats(min_value=1e-5, max_value=5e-4)),
        b2=draw(st.floats(min_value=1e-4, max_value=5e-3)),
    )
    entries = st.lists(st.integers(min_value=0, max_value=32), min_size=1, max_size=8, unique=True)
    alphabet = draw(st.none() | entries.map(lambda a: tuple(sorted(a))))
    spec = QuantizerSpec(c_min=-1.0, c_max=1.0, q_max=32, bit_alphabet=alphabet)
    layers = draw(st.lists(st.integers(min_value=1, max_value=39), min_size=1, max_size=6,
                           unique=True))
    p0 = draw(st.floats(min_value=1.0 / j_classes, max_value=1.0, exclude_min=True,
                        exclude_max=True))
    return link, comp, profile, spec, ExitSet(layers=tuple(sorted(layers))), p0


# The tolerance rule: kappa_distorted solves kappa to 1e-10 relative, so it is
# not monotone in the quantization variance to the last bits, and the
# bit-width choice is exact only outside that tolerance.  Scenarios where
# some (alphabet entry, exit) accuracy lies within 1e-9 of a target are
# assumed away.
def clear_of_targets(link, comp, profile, spec, exits, *targets):
    for q in spec.bit_alphabet:
        for ell in exits.layers:
            if q and any(abs(accuracy_model(q, float(ell), profile, spec) - p0) <= 1e-9
                         for p0 in targets):
                return False
    return True


@bounded(100)
@given(scenarios())
def test_solve_discrete_is_brute_force_and_under_the_ceiling(scenario):
    assume(clear_of_targets(*scenario))
    plan = solve_discrete(*scenario)
    assert plan == brute_force(*scenario)
    link, comp, profile, spec, _, p0 = scenario
    assert plan.epr <= solve_cr(link, comp, profile, spec, p0).epr


@bounded(100)
@given(scenarios())
def test_epr_never_falls_when_the_snr_doubles(scenario):
    assume(clear_of_targets(*scenario))
    link, *rest = scenario
    doubled = replace(link, snr=2.0 * link.snr)
    assert solve_discrete(doubled, *rest).epr >= solve_discrete(*scenario).epr


@bounded(100)
@given(scenarios(), st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
def test_epr_never_rises_when_p0_rises(scenario, step):
    *rest, p0 = scenario
    higher = p0 + step * (1.0 - p0)
    assume(p0 < higher < 1.0 and clear_of_targets(*rest, p0, higher))
    assert solve_discrete(*rest, higher).epr <= solve_discrete(*scenario).epr


def test_adaptive_plan_is_never_below_a_fixed_complexity_baseline():
    # on seeded random instances, clear of near-ties, the adaptive plan's EPR is
    # at least that of the fixed-depth baseline (the deepest exit only) and of
    # each fixed-bit baseline (alphabet {q}), and above some of them
    rng = np.random.default_rng(20260809)
    checked = wins = 0
    for _ in range(150):
        inst = random_instance(rng)
        link, comp, profile, spec, exits, p0 = (inst[k] for k in ("link", "comp", "profile",
                                                                   "spec", "exits", "p0"))
        if not clear_of_targets(link, comp, profile, spec, exits, p0):
            continue
        baselines = [dict(inst, exits=ExitSet((exits.deepest,)))]
        baselines += [dict(inst, spec=replace(spec, bit_alphabet=(q,))) for q in (4, 8, 16)]
        adaptive = solve_discrete(**inst).epr
        for baseline in baselines:
            fixed = solve_discrete(**baseline).epr
            assert adaptive >= fixed, baseline
            checked, wins = checked + 1, wins + (adaptive > fixed)
    assert checked >= 500 and wins >= checked // 2


FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st

@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=10))
def test_small(n):
    assert n < 5
"""


def test_a_failing_property_is_reported_as_a_failure(tmp_path):
    # under the repo's pytest settings (warnings are errors), hypothesis's
    # failure report must still print: no INTERNALERROR from its imports
    repo = Path(__file__).resolve().parent.parent
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(repo / "pyproject.toml"), "--rootdir", str(repo), str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "Falsifying example: test_small(" in result.stdout
    assert "1 failed" in result.stdout
