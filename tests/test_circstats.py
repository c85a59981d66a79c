"""Tests for the circular-statistics kernel."""

import math
import re
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import special, stats

from edgeplan import circstats
from edgeplan.accuracy import (
    FeatureProfile,
    QuantizerSpec,
    accuracy_model,
    accuracy_of_kappa,
    kappa_distorted,
    min_depth_for_accuracy,
    quant_variance,
)
from edgeplan.circstats import (
    KAPPA_MAX,
    AngularSampleSet,
    FieldError,
    bessel_ratio,
    bessel_ratio_inv,
    estimate_kappa,
    estimate_kappa_pooled,
    sample_von_mises,
    wrap_angle,
    wrapped_gaussian_kappa,
)
from edgeplan.fitting import DepthSeries, fit_exponential
from edgeplan.optimizer import ExitSet
from edgeplan.rng import make_rng
from edgeplan.simulator import classify_map, distort, empirical_accuracy, generate_dataset, sweep
from edgeplan.system import ComputeProfile, LinkState, comm_latency, comp_latency, epr

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


def test_bessel_tables_are_the_chebyshev_coefficients_they_claim():
    # the four literal tables, regenerated at 40 digits: exp(-x) I0(x) and
    # exp(-x) I1(x) / x in t = x/4 - 1 on [0, 8], times sqrt(x) in t = 16/x - 1 above
    def scaled(order, tail=False):
        def f(x):
            value = mpmath.exp(-x) * mpmath.besseli(order, x)
            return value * mpmath.sqrt(x) if tail else value / x**order
        return f

    def head(t):
        return 4 * (t + 1)

    def tail(t):
        return 16 / (t + 1)

    assert oracles.mp_chebyshev_table(scaled(0), head, 30) == circstats._I0E_HEAD
    assert oracles.mp_chebyshev_table(scaled(0, True), tail, 25) == circstats._I0E_TAIL
    assert oracles.mp_chebyshev_table(scaled(1), head, 29) == circstats._I1E_HEAD
    assert oracles.mp_chebyshev_table(scaled(1, True), tail, 25) == circstats._I1E_TAIL


def test_scaled_bessel_functions_equal_scipys_bit_for_bit():
    # the same tables, summed in the same order as Cephes, give the same doubles;
    # the ratio sums both series in one loop and equals the quotient of scipy's two
    rng = np.random.default_rng(20260809)
    points = [0.0, 5e-324, 8.0, math.nextafter(8.0, 0.0), math.nextafter(8.0, math.inf), 1e6]
    points += rng.uniform(0.0, 10.0, 5_000).tolist()
    points += np.exp(rng.uniform(math.log(1e-300), math.log(1e6), 5_000)).tolist()
    for x in points:
        assert circstats._i0e(x).hex() == float(special.i0e(x)).hex(), x
        assert bessel_ratio(x).hex() == float(special.i1e(x) / special.i0e(x)).hex(), x


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


def test_bessel_ratio_inv_round_trips_or_saturates_across_its_domain():
    # resultants from 1e-300 to within 1e-13 of 1: below the cap each one
    # converges (no ArithmeticError) and maps back; at or above it saturates
    cap = bessel_ratio(KAPPA_MAX)
    grid = np.concatenate([np.logspace(-300, -1, 2500), 1.0 - np.logspace(-1, -13, 2500)])
    below = 0
    for r in grid:
        est = bessel_ratio_inv(float(r))
        if r < cap:
            below += 1
            assert not est.saturated and est.value < KAPPA_MAX, r
            assert abs(bessel_ratio(est.value) - r) <= 1e-9 * r, r
        else:
            assert est == (KAPPA_MAX, True), r
    assert 3000 < below < grid.size


def test_bessel_ratio_inv_seed_bracket_holds_every_resultant_below_the_cap():
    # the inverse brackets its root by hi = max(2 seed, 1) without testing A(hi) >= r:
    # it holds, by at least 2.5e-7, from the smallest subnormal to one ulp below the
    # resultant cap, the last 5,000 floats included
    cap = circstats._RESULTANT_CAP
    below_cap = float(np.nextafter(cap, 0.0))
    last = below_cap - math.ulp(below_cap) * np.arange(4999.0, -1.0, -1.0)
    grid = np.concatenate([np.geomspace(5e-324, 0.5, 20_000),
                           1.0 - np.geomspace(0.5, 1.0 - cap, 20_000)[:-1], last])
    assert grid.min() == 5e-324 and grid.max() == below_cap and np.all(grid < cap)
    assert np.all(np.nextafter(last[:-1], 1.0) == last[1:])  # consecutive floats
    for r in grid.tolist():
        seed = r * (2.0 - r * r) / (1.0 - r * r)
        assert circstats._ratio(max(2.0 * seed, 1.0)) - r >= 2.5e-7, r


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


def test_bessel_ratio_inv_raises_when_not_converged(monkeypatch):
    monkeypatch.setattr(circstats, "_INV_MAX_ITER", 1)
    with pytest.raises(ArithmeticError, match=r"^kappa with resultant 0\.5 not found in \["):
        bessel_ratio_inv(0.5)


def test_bessel_ratio_inv_saturates_past_the_cap_after_newton(monkeypatch):
    # below the precomputed resultant cap, so Newton runs, and converges to
    # 100, past the patched cap: the result saturates with the flag set
    monkeypatch.setattr(circstats, "KAPPA_MAX", 10.0)
    assert bessel_ratio_inv(bessel_ratio(100.0)) == (10.0, True)


def test_bessel_ratio_inv_smallest_subnormal():
    # bisection toward it underflows to kappa = 0, where the slope takes its
    # limit 1/2 instead of dividing by zero
    assert bessel_ratio_inv(5e-324) == (0.0, False)


def test_wrap_angle_range_and_boundary():
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3.0 * math.pi) == pytest.approx(math.pi)
    grid = np.linspace(-20.0, 20.0, 1001)
    wrapped = wrap_angle(grid)
    assert np.all(wrapped > -math.pi) and np.all(wrapped <= math.pi)
    # bit for bit the full reduction pi - mod(pi - theta, 2 pi), written out
    # here, whether or not an angle left the circle
    def full(th):
        return np.pi - np.mod(np.pi - np.float64(th), 2.0 * np.pi)

    pis = np.array([math.pi, -math.pi])
    inputs = np.concatenate([
        np.linspace(-1e3, 1e3, 20_001),
        pis, np.nextafter(pis, -np.inf), np.nextafter(pis, np.inf),
        [3.0 * math.pi, -3.0 * math.pi, 0.0, -0.0, 1e300, -1e-300],
        # about half of these leave (-pi, pi]
        np.random.default_rng(137).uniform(-2.0 * math.pi, 2.0 * math.pi, 200_000),
    ])
    got = wrap_angle(inputs)
    assert np.array_equal(got.view(np.int64), full(inputs).view(np.int64))
    for theta in (-3.0 * math.pi, np.array(5.0)):
        assert np.float64(wrap_angle(theta)).view(np.int64) == full(theta).view(np.int64)
    assert type(wrap_angle(np.array(5.0))) is float
    for bad in (math.nan, np.array([0.0, math.inf]), np.array([-math.inf, 0.0])):
        with pytest.raises(FieldError, match="^theta: must be finite reals, got "):
            wrap_angle(bad)
    # the reduction writes a new array, never the caller's
    kept = inputs.copy()
    wrap_angle(inputs)
    assert np.array_equal(inputs.view(np.int64), kept.view(np.int64))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_vm_sample_uniform_when_unconcentrated():
    angles = sample_von_mises(make_rng(101), 0.0, 0.0, 100_000)
    ks = stats.kstest(angles, lambda x: (x + np.pi) / (2 * np.pi))
    assert ks.statistic < 0.006  # KS critical value at n=1e5, alpha ~ 0.01


def test_vm_sample_concentration_recovered():
    samples = AngularSampleSet(angles=sample_von_mises(make_rng(2024), 1.0, 3.0, 100_000))
    est = estimate_kappa(samples)
    assert 2.94 <= est.value <= 3.06


@pytest.mark.parametrize("kappa", [0.0, 1.0, 5.0, 50.0])
def test_vm_sample_ks_against_density(kappa):
    angles = sample_von_mises(make_rng(777), 0.0, kappa, 100_000)
    ks = stats.kstest(angles, lambda x: oracles.von_mises_cdf(x, kappa))
    assert ks.pvalue > 0.01


def test_vm_sample_deterministic_and_in_range():
    a = sample_von_mises(make_rng(42), -2.0, 4.0, 5000)
    b = sample_von_mises(make_rng(42), -2.0, 4.0, 5000)
    assert np.array_equal(a, b)
    assert np.all(a > -np.pi) and np.all(a <= np.pi)
    c = sample_von_mises(make_rng(43), -2.0, 4.0, 5000)
    assert not np.array_equal(a, c)


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
    samples = AngularSampleSet(angles=sample_von_mises(make_rng(55), 0.0, kappa, 100_000))
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
    samples = AngularSampleSet(angles=sample_von_mises(make_rng(8), 0.5, 6.0, 5000))
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
        rng_angles.append(sample_von_mises(make_rng(900 + j), mu, 5.0, 10_000))
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
    few = r"^angles\[labels == 2\]: needs at least 2 samples, got 0$"
    with pytest.raises(FieldError, match=few):
        estimate_kappa_pooled(samples, 3)
    with pytest.raises(FieldError, match="^labels: must be given$"):
        estimate_kappa_pooled(AngularSampleSet(angles=samples.angles), 3)


def test_estimate_kappa_pooled_rejects_labels_above_j():
    # 100 samples of class 3 must not be dropped silently from a J = 2 estimate
    labels = np.repeat([1, 2, 3], 100)
    samples = AngularSampleSet(angles=np.tile(np.linspace(-0.5, 0.5, 100), 3), labels=labels)
    with pytest.raises(FieldError, match=r"^labels: must be class indices <= 2, got 3$"):
        estimate_kappa_pooled(samples, 2)
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
    with pytest.raises(ValueError, match="one-dimensional"):
        AngularSampleSet(angles=np.zeros((2, 2)))
    # an integral or fractional float is no class label: it is rejected, not truncated
    for labels in ([1.7, 2.2], np.array([1.0, 2.0]), [True, True]):
        with pytest.raises(FieldError, match="^labels: must be integers"):
            AngularSampleSet(angles=np.array([0.0, 0.1]), labels=labels)
    assert AngularSampleSet(angles=np.array([0.0, 0.1]), labels=[1, 2]).labels.dtype == np.int64
    assert AngularSampleSet(angles=np.array([]), labels=[]).labels.size == 0


# ---------------------------------------------------------------------------
# scalar argument checks
# ---------------------------------------------------------------------------

_PROFILE = FeatureProfile(j_classes=10, c1=0.35, c2=0.5, c3=400.0, c4=0.08, n_layers=39)
_SPEC = QuantizerSpec(c_min=-1.0, c_max=1.0, q_max=32)
_LINK = LinkState(bandwidth_hz=1e8, snr=15.0, t_max_s=0.012, d=120_000)
_LABELED = AngularSampleSet(angles=np.array([0.1, -0.2]), labels=np.array([1, 2]))
_ONE_CLASS = AngularSampleSet(angles=np.array([0.1, -0.2]), labels=np.array([1, 1]))

# (test id, call on the checked argument, its name, lowest value accepted, a
# value the bound rejects: just below it for a real, a fraction above it for a
# count, except -1 for the sample count, where numpy raised its own error)
SCALAR_ARGUMENTS = [
    ("bessel_ratio", bessel_ratio, "kappa", 0.0, -1e-12),
    ("bessel_ratio_inv", bessel_ratio_inv, "r", 0.0, -1e-12),
    ("sample_von_mises", lambda x: sample_von_mises(make_rng(1), 0.0, x, 3), "kappa", 0.0, -1e-12),
    ("sample_von_mises-n", lambda x: sample_von_mises(make_rng(1), 0.0, 1.0, x), "n", 0, -1),
    ("wrapped_gaussian_kappa", wrapped_gaussian_kappa, "sigma2", 0.0, -1e-12),
    ("quant_variance", lambda x: quant_variance(x, _SPEC), "q", 0.0, -1e-12),
    ("kappa_distorted", lambda x: kappa_distorted(x, 10.0, _PROFILE), "sigma2", 0.0, -1e-12),
    ("accuracy_of_kappa", lambda x: accuracy_of_kappa(x, 10), "kappa", 0.0, -1e-12),
    ("accuracy_model", lambda x: accuracy_model(x, 10.0, _PROFILE, _SPEC), "q", 0.0, -1e-12),
    ("min_depth_for_accuracy", lambda x: min_depth_for_accuracy(x, 0.5, _PROFILE), "sigma2", 0.0,
     -1e-12),
    ("comm_latency", lambda x: comm_latency(x, _LINK), "q", 0.0, -1e-12),
    ("comp_latency", lambda x: comp_latency(x, ComputeProfile(b1=1e-4, b2=2e-3)), "ell", 1.0,
     1.0 - 1e-12),
    ("epr", lambda x: epr(x, 10.0, _LINK, ComputeProfile(b1=1e-4, b2=2e-3)), "q", 0.0, -1e-12),
    ("distort", lambda x: distort(_LABELED, x, 10.0, _PROFILE, seed=1), "sigma2", 0.0, -1e-12),
    ("from_flops", lambda x: ComputeProfile.from_flops(0.0, 1e8, x, 1e12), "device_flops_per_s",
     5e-324, 0.0),
    # counts: a fraction is rejected, not truncated, and an infinity is a FieldError
    ("accuracy_of_kappa-J", lambda x: accuracy_of_kappa(1.0, x), "j_classes", 2, 2.5),
    ("estimate_kappa_pooled", lambda x: estimate_kappa_pooled(_ONE_CLASS, x), "j_classes", 1, 1.5),
    ("generate_dataset", lambda x: generate_dataset(_PROFILE, 10.0, x, seed=1), "n_per_class",
     1, 2.5),
    ("FeatureProfile", lambda x: replace(_PROFILE, j_classes=x), "j_classes", 2, 2.5),
]


def _rejected(lowest, bad):
    """Each row's rejected values: non-finite, beyond the bound, and of a wrong type."""
    values = {"nan": math.nan, "inf": math.inf, "bad": bad, "true": True, "text": str(lowest),
              "none": None}
    if isinstance(lowest, int):  # an integral float is not a count
        values["float"] = float(lowest)
    return values


@pytest.mark.parametrize(
    "call, name, lowest, bad",
    [pytest.param(call, name, lowest, value, id=f"{row}-{key}")
     for row, call, name, lowest, bad in SCALAR_ARGUMENTS
     for key, value in _rejected(lowest, bad).items()],
)
def test_scalar_arguments_must_be_finite_and_within_bound(call, name, lowest, bad):
    call(lowest)  # the bound itself stays admissible
    rule = "an integer >= " if isinstance(lowest, int) else "a finite real"
    with pytest.raises(FieldError, match=rf"^{name}: must be {rule}") as err:
        call(bad)
    assert err.value.path == name


# ---------------------------------------------------------------------------
# sequence and array argument checks
# ---------------------------------------------------------------------------

_COMP = ComputeProfile(b1=1e-4, b2=2e-3)

# (test id, call with one bad sequence or array argument, the path named)
SEQUENCE_ARGUMENTS = [
    ("ExitSet-number", lambda: ExitSet(layers=9), "layers"),
    ("ExitSet-string", lambda: ExitSet(layers="19"), "layers"),
    ("ExitSet-mapping", lambda: ExitSet(layers={9: 19}), "layers"),
    ("QuantizerSpec-number", lambda: QuantizerSpec(-1.0, 1.0, bit_alphabet=5), "bit_alphabet"),
    ("wrap_angle", lambda: wrap_angle(math.nan), "theta"),
    ("classify_map", lambda: classify_map(math.nan, _PROFILE), "theta"),
    ("distort", lambda: distort(_LABELED, 1e308, 10.0, _PROFILE, seed=1), "sigma2"),
    ("DepthSeries", lambda: DepthSeries([1, 2], [1, "a"]), "values"),
    ("AngularSampleSet", lambda: AngularSampleSet(angles="abc"), "angles"),
    ("estimate_kappa", lambda: estimate_kappa(AngularSampleSet(angles=[0.1])), "angles"),
    ("empirical_accuracy",
     lambda: empirical_accuracy(AngularSampleSet(angles=[0.1, 0.2]), _PROFILE), "labels"),
    ("sweep", lambda: sweep([], _LINK, _COMP, _PROFILE, _SPEC, [ExitSet((9,))], [0.5],
                            tasks=10, seed=1), "snr_db_grid"),
    ("fit_exponential", lambda: fit_exponential(DepthSeries([1.0, 2.0], [1.0, 0.0])), "values"),
    # a bool or a string is no real in an array either, though numpy reads both as floats
    ("wrap_angle-string-and-bool", lambda: wrap_angle(["1.5", True]), "theta"),
    ("wrap_angle-string-dtype", lambda: wrap_angle(np.array(["1.5"])), "theta"),
    ("DepthSeries-bool-and-string", lambda: DepthSeries([1, 2], [True, "3"]), "values"),
    ("AngularSampleSet-bool", lambda: AngularSampleSet(angles=[True, 0.5]), "angles"),
    ("classify_map-bool-dtype", lambda: classify_map(np.array([True, False]), _PROFILE), "theta"),
    ("wrap_angle-int-beyond-float", lambda: wrap_angle([1, 10**400]), "theta"),
    # a mean direction is one finite real, so an array of them is rejected even at length
    # n; numpy drew NaNs, read True as 1.0 and raised its own errors for a string
    *[(f"sample_von_mises-mu-{key}", lambda mu=mu: sample_von_mises(make_rng(1), mu, 1.0, 3), "mu")
      for key, mu in [("nan", math.nan), ("inf", -math.inf), ("text", "a"), ("true", True),
                      ("nan-entry", [0.0, math.nan, 1.0]), ("short", np.zeros(2)),
                      ("long", [0.0] * 4), ("matrix", np.zeros((3, 1))),
                      ("one-per-draw", np.zeros(3))]],
]


@pytest.mark.parametrize("call, path", [pytest.param(call, path, id=row)
                                        for row, call, path in SEQUENCE_ARGUMENTS])
def test_sequence_and_array_arguments_raise_a_field_error_naming_them(call, path):
    with pytest.raises(FieldError, match=f"^{re.escape(path)}: ") as err:
        call()
    assert err.value.path == path


def test_integer_and_float_arrays_and_sequences_are_reals():
    for theta in ([1, 2.5], (np.int8(3), np.float32(0.5)), np.arange(3), np.float32([0.5]), 2):
        assert np.array_equal(wrap_angle(theta), np.asarray(theta, dtype=float))
    series = DepthSeries(np.arange(1, 4), [np.uint8(2), 3, 4.5])
    assert series.depths.dtype == series.values.dtype == np.float64


def test_only_the_cli_raises_a_bare_value_error():
    # the CLI's flag and CSV text errors name the flag or the file line themselves
    for path in Path(circstats.__file__).parent.glob("*.py"):
        if path.name != "cli.py":
            assert "raise ValueError(" not in path.read_text(encoding="utf-8"), path.name
