"""Tests for the quantization-to-accuracy model chain."""

import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from edgeplan import accuracy as accuracy_module
from edgeplan.accuracy import (
    FeatureProfile,
    QuantizerSpec,
    accuracy_model,
    accuracy_of_kappa,
    error_scaling,
    grad_energy,
    kappa_bar,
    kappa_distorted,
    min_depth_for_accuracy,
    quant_variance,
)
from edgeplan.circstats import KAPPA_MAX, FieldError, bessel_ratio_inv
from edgeplan.system import max_bitwidth_continuous, max_bitwidth_discrete

import oracles
from helpers import random_instance, record_depth_bisections

DEFAULT = FeatureProfile(j_classes=10, c1=0.35, c2=0.5, c3=400.0, c4=0.08, n_layers=39)
UNIT_SPEC = QuantizerSpec(c_min=0.0, c_max=1.0, q_max=32)


# ---------------------------------------------------------------------------
# profiles and quantizer
# ---------------------------------------------------------------------------


def test_profile_validation():
    with pytest.raises(ValueError):
        FeatureProfile(1, 0.5, 1.0, 100.0, 0.1, 39)
    with pytest.raises(ValueError):
        FeatureProfile(10, 0.0, 1.0, 100.0, 0.1, 39)
    with pytest.raises(ValueError):
        FeatureProfile(10, 0.5, -0.6, 100.0, 0.1, 39)  # c1 + c2 <= 0
    with pytest.raises(ValueError):
        FeatureProfile(10, 0.5, 1.0, 0.0, 0.1, 39)
    with pytest.raises(ValueError):
        FeatureProfile(10, 0.5, 1.0, 100.0, -0.1, 39)
    with pytest.raises(ValueError):
        FeatureProfile(10, 0.5, 1.0, 100.0, 0.1, 0)
    # a depth or target beyond the float range is named, not an OverflowError
    for check, name in ((DEFAULT.check_depth, "ell"), (DEFAULT.check_target, "p0")):
        with pytest.raises(FieldError, match=f"^{name}: must be a finite real, got inf"):
            check(10**400)


def test_profile_centroids_equally_spaced():
    c = DEFAULT.centroids
    assert c.shape == (10,)
    assert np.all(c > -np.pi) and np.all(c <= np.pi)
    assert np.allclose(np.diff(c), 2 * np.pi / 10)
    assert c[0] == pytest.approx(-np.pi + np.pi / 10)


def test_quantizer_validation():
    with pytest.raises(ValueError):
        QuantizerSpec(c_min=1.0, c_max=1.0)
    with pytest.raises(ValueError):
        QuantizerSpec(c_min=0.0, c_max=1.0, q_max=8, bit_alphabet=(0, 9))
    with pytest.raises(ValueError):
        QuantizerSpec(c_min=0.0, c_max=1.0, bit_alphabet=(4, 2))
    with pytest.raises(ValueError):
        QuantizerSpec(c_min=0.0, c_max=1.0, bit_alphabet=())
    # each bound is finite, but the range between them overflows a float, or
    # the range is finite and its square, which the variance takes, overflows
    widest = math.sqrt(sys.float_info.max)
    past_widest = math.nextafter(widest, math.inf)
    message = r"^c_max: must exceed c_min .* by a finite range"
    for c_min, c_max in ((-1e308, 1e308), (-1e200, 1e200), (0.0, past_widest)):
        with pytest.raises(FieldError, match=message) as err:
            QuantizerSpec(c_min=c_min, c_max=c_max)
        assert err.value.path == "c_max"
    assert quant_variance(0, QuantizerSpec(c_min=0.0, c_max=widest)) == widest * widest / 12.0
    assert QuantizerSpec(c_min=0.0, c_max=1.0, q_max=4).bit_alphabet == (0, 1, 2, 3, 4)


# ---------------------------------------------------------------------------
# quantization distortion
# ---------------------------------------------------------------------------


def test_quant_variance_examples():
    assert quant_variance(0, UNIT_SPEC) == pytest.approx(1.0 / 12.0, rel=1e-15)
    assert quant_variance(4, UNIT_SPEC) == pytest.approx(1.0 / (12.0 * 256.0), rel=1e-15)
    # q0 = 3, alpha = 0.5 -> (1 + 3*0.5)/4 = 0.625 of the q0 variance
    assert quant_variance(3.5, UNIT_SPEC) == pytest.approx(0.625 / (12.0 * 64.0), rel=1e-15)


def test_quant_variance_integer_agreement():
    spec = QuantizerSpec(c_min=-1.3, c_max=2.1)
    for q in range(33):
        direct = spec.quant_range**2 / (12.0 * 2.0 ** (2 * q))
        assert abs(quant_variance(q, spec) - direct) <= 1e-12 * direct


def test_quant_variance_continuous_and_decreasing():
    qs = np.linspace(0.0, 12.0, 241)
    values = [quant_variance(q, UNIT_SPEC) for q in qs]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_quant_variance_rejects_negative():
    with pytest.raises(ValueError):
        quant_variance(-0.1, UNIT_SPEC)


# ---------------------------------------------------------------------------
# depth-dependent parameters
# ---------------------------------------------------------------------------


def test_kappa_bar_affine():
    profile = FeatureProfile(10, 0.5, 1.0, 100.0, 0.1, 39)
    assert kappa_bar(4.0, profile) == pytest.approx(3.0, rel=1e-15)
    assert kappa_bar(2.0, profile) - kappa_bar(1.0, profile) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        kappa_bar(0.5, profile)
    with pytest.raises(ValueError):
        kappa_bar(40.0, profile)


def test_grad_energy_values_and_monotonicity():
    flat = FeatureProfile(10, 0.5, 1.0, 100.0, 0.0, 39)
    assert grad_energy(7.0, flat) == 100.0
    decaying = FeatureProfile(10, 0.5, 1.0, 100.0, 0.1, 39)
    assert grad_energy(10.0, decaying) == pytest.approx(100.0 * math.exp(-1.0), rel=1e-15)
    values = [grad_energy(l, decaying) for l in range(1, 40)]
    assert all(b < a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# distorted concentration
# ---------------------------------------------------------------------------


def test_kappa_distorted_zero_noise_is_exact():
    for ell in [1.0, 10.0, 25.5, 39.0]:
        kd = kappa_distorted(0.0, ell, DEFAULT)
        assert kd == pytest.approx(kappa_bar(ell, DEFAULT), rel=1e-12)


def test_kappa_distorted_evaluates_no_ratio_without_noise(monkeypatch):
    def fail(kappa):
        raise AssertionError(f"_ratio({kappa!r}) evaluated without noise")

    monkeypatch.setattr(accuracy_module, "_ratio", fail)
    assert kappa_distorted(0.0, 10.0, DEFAULT) == kappa_bar(10.0, DEFAULT)
    assert kappa_distorted(1e-300, 39.0, DEFAULT) == kappa_bar(39.0, DEFAULT)


def test_kappa_distorted_large_noise_vanishes():
    assert kappa_distorted(1e8, 10.0, DEFAULT) < 1e-8


def test_kappa_distorted_never_exceeds_clean():
    for sigma2 in [0.0, 1e-6, 1e-3, 0.1, 10.0]:
        for ell in [1.0, 9.0, 23.0, 39.0]:
            assert kappa_distorted(sigma2, ell, DEFAULT) <= kappa_bar(ell, DEFAULT)


def test_kappa_distorted_against_independent_composition():
    # full composition through the series-oracle ratio map and bisection
    profile = FeatureProfile(10, 0.5, 1.0, 100.0, 0.1, 39)
    sigma2, ell = 0.01, 10.0
    a_ell = 100.0 * math.exp(-1.0)
    rho = oracles.ratio_inv_bisect(math.exp(-0.5 * sigma2 * a_ell))
    expected = oracles.ratio_inv_bisect(oracles.ratio(6.0) * oracles.ratio(rho))
    assert kappa_distorted(sigma2, ell, profile) == pytest.approx(expected, rel=1e-6)


def test_kappa_distorted_rejects_negative_noise():
    with pytest.raises(ValueError):
        kappa_distorted(-1e-9, 10.0, DEFAULT)


# ---------------------------------------------------------------------------
# the accuracy integral
# ---------------------------------------------------------------------------


def test_accuracy_uniform_limit_exact():
    assert accuracy_of_kappa(0.0, 10) == pytest.approx(0.1, rel=1e-12)
    assert accuracy_of_kappa(0.0, 7) == pytest.approx(1.0 / 7.0, rel=1e-12)


def test_accuracy_high_concentration_limit():
    assert accuracy_of_kappa(500.0, 10) >= 0.9999


def test_accuracy_matches_fine_grid_oracle():
    # frozen from the 1e6-node composite Simpson oracle
    assert accuracy_of_kappa(5.0, 10) == pytest.approx(0.5033432868296313, rel=2e-9)
    for kappa in [0.3, 2.0, 20.0, 120.0]:
        assert accuracy_of_kappa(kappa, 10) == pytest.approx(
            oracles.accuracy_quadrature(kappa, 10), rel=2e-9
        )


def test_kernels_match_the_30_digit_oracle():
    # 14 concentrations log-spaced over [1e-3, 1e5] at J = 2, 10 and 1000:
    # each kernel within its own stopping tolerance of the mpmath value
    for kappa in np.geomspace(1e-3, 1e5, 14):
        for j_classes in (2, 10, 1000):
            exact = oracles.mp_accuracy(kappa, j_classes)
            value = accuracy_of_kappa(kappa, j_classes)
            assert abs(value - exact) <= 1e-9 * exact, (kappa, j_classes)
        r = float(oracles.mp_ratio(kappa))
        exact = oracles.mp_ratio_inv(r, 0.5 * kappa, 2.0 * kappa)
        assert abs(bessel_ratio_inv(r).value - exact) <= 1e-10 * exact, kappa


def test_accuracy_bounds():
    # keep 1 - P above the quadrature resolution so strictness is decidable
    for kappa in [0.01, 0.1, 1.0, 10.0]:
        for j in [2, 5, 10, 20]:
            p = accuracy_of_kappa(kappa, j)
            assert 1.0 / j < p < 1.0
    assert 0.99 < accuracy_of_kappa(100.0, 10) < 1.0


def test_accuracy_argument_errors():
    with pytest.raises(ValueError):
        accuracy_of_kappa(-1.0, 10)
    with pytest.raises(ValueError):
        accuracy_of_kappa(1.0, 1)


def test_accuracy_quadrature_raises_when_not_converged(monkeypatch):
    monkeypatch.setattr(accuracy_module, "_QUAD_MAX_NODES", 32)
    with pytest.raises(ArithmeticError, match=r"kappa=1000\.0, J=2\b"):
        accuracy_of_kappa(1000.0, 2)
    assert accuracy_of_kappa(0.0, 2) == pytest.approx(0.5, rel=1e-12)


def test_cached_simpson_levels_are_read_only():
    # a cache hit hands out the same arrays to every caller and thread
    accuracy_module._cached_level.cache_clear()
    accuracy_of_kappa(3.0, 10)
    cos_m1, weights = accuracy_module._cached_level(10, 16)
    assert not cos_m1.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0] = 0.0
    assert accuracy_module._cached_level.cache_info().hits == 1


def test_simpson_levels_above_2_to_12_intervals_are_computed_but_not_cached():
    # (1e6, 2) takes 10 levels, 16 to 8192 intervals: the first 9 are cached
    accuracy_module._cached_level.cache_clear()
    assert accuracy_of_kappa(1e6, 2).hex() == "0x1.fffffffff8b72p-1"
    info = accuracy_module._cached_level.cache_info()
    assert (info.misses, info.currsize) == (9, 9)


def test_the_simpson_ladder_cache_holds_at_most_64_levels():
    # about 4 MB at most: 64 levels of up to 4097 nodes and weights
    accuracy_module._cached_level.cache_clear()
    for j in range(2, 80):  # 2 levels each at kappa = 0
        accuracy_of_kappa(0.0, j)
    info = accuracy_module._cached_level.cache_info()
    assert (info.misses, info.maxsize, info.currsize) == (156, 64, 64)


def test_threads_sharing_an_evicting_ladder_cache_get_the_serial_values():
    # 8 threads over 2 x 100 levels, more than the cache holds, so entries are
    # built, hit and evicted concurrently; every value must be the serial one
    cases = [(kappa, j) for j in range(2, 102) for kappa in (0.5, 3.0)]
    accuracy_module._cached_level.cache_clear()
    serial = [accuracy_of_kappa(kappa, j) for kappa, j in cases]
    accuracy_module._cached_level.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            rounds = [pool.map(lambda case: accuracy_of_kappa(*case), cases, timeout=60)
                      for _ in range(4)]
            results = [list(values) for values in rounds]
    finally:
        sys.setswitchinterval(interval)
    assert all(values == serial for values in results)
    assert accuracy_module._cached_level.cache_info().currsize <= 64


# accuracy_of_kappa as float.hex, recorded while the Simpson nodes came from
# np.linspace; each comment gives the Simpson levels the value takes
KERNEL_BITS = [
    (0.0, 2, "0x1.0000000000000p-1"),  # 2 levels
    (0.0, 10, "0x1.999999999999ap-4"),  # 2 levels
    (0.0, 1000, "0x1.0624dd2f1a9fcp-10"),  # 2 levels
    (1e-300, 2, "0x1.0000000000000p-1"),  # 2 levels
    (1e-300, 10, "0x1.999999999999ap-4"),  # 2 levels
    (1e-300, 1000, "0x1.0624dd2f1a9fcp-10"),  # 2 levels
    (1e-3, 2, "0x1.0029b8b4cf8e8p-1"),  # 2 levels
    (1e-3, 10, "0x1.9a00c4095736ep-4"),  # 2 levels
    (1e-3, 1000, "0x1.0667fd5184b1cp-10"),  # 2 levels
    (0.5, 2, "0x1.4ec5d9aee5c21p-1"),  # 4 levels
    (0.5, 10, "0x1.3aec2a20cc083p-3"),  # 2 levels
    (0.5, 1000, "0x1.9666f9c52c362p-10"),  # 2 levels
    (3.0, 2, "0x1.f3d36cdefc4cbp-1"),  # 5 levels
    (3.0, 10, "0x1.919666996a9fcp-2"),  # 4 levels
    (3.0, 1000, "0x1.0db1998dce312p-8"),  # 2 levels
    (14.0, 2, "0x1.fffffa12ad3f0p-1"),  # 3 levels
    (14.0, 10, "0x1.81f5f2c107fb6p-1"),  # 4 levels
    (14.0, 1000, "0x1.307c326550ec1p-7"),  # 2 levels
    (60.0, 2, "0x1.0000000000000p+0"),  # 3 levels
    (60.0, 10, "0x1.f8044a49c8623p-1"),  # 5 levels
    (60.0, 1000, "0x1.3d6ac08480773p-6"),  # 2 levels
    (400.0, 2, "0x1.0000000000000p+0"),  # 4 levels
    (400.0, 10, "0x1.fffffffc8f665p-1"),  # 2 levels
    (400.0, 1000, "0x1.9a499af04dffcp-5"),  # 2 levels
    (1e4, 2, "0x1.0000000000000p+0"),  # 7 levels
    (1e4, 10, "0x1.ffffffffffb0fp-1"),  # 4 levels
    (1e4, 1000, "0x1.f907c3a1b8439p-3"),  # 3 levels
    (1e6, 2, "0x1.fffffffff8b72p-1"),  # 10 levels
    (1e6, 10, "0x1.ffffffffffe92p-1"),  # 8 levels
    (1e6, 1000, "0x1.ff23c19d6d3b6p-1"),  # 5 levels
    (1e6, 100_000, "0x1.9a9e4e27b02a4p-6"),  # 2 levels
]


@pytest.mark.parametrize("kappa,j_classes,bits", KERNEL_BITS)
def test_accuracy_of_kappa_bits_are_pinned(kappa, j_classes, bits):
    # a faster quadrature must return the very same doubles: the planners'
    # choices, the sweep CSV and the benchmark's reference bytes depend on them
    assert accuracy_of_kappa(kappa, j_classes).hex() == bits


@pytest.mark.parametrize("kappa,j_classes", [
    (math.nextafter(KAPPA_MAX, math.inf), 10),
    (1.2e8, 2),
    (1.2e8, 10),
    (1.2e8, 1000),
    (2e8, 100_000),
])
def test_accuracy_of_kappa_saturates_at_kappa_max(kappa, j_classes):
    # the kernel scores concentrations the way sample_von_mises draws them
    assert accuracy_of_kappa(kappa, j_classes) == accuracy_of_kappa(KAPPA_MAX, j_classes)


@pytest.mark.parametrize("j_classes", [2, 10, 100, 1000, 10_000])
def test_accuracy_is_continuous_at_kappa_max(j_classes):
    # saturation adds no step: the last concentration below the cap scores
    # within the quadrature tolerance of the cap itself
    below = accuracy_of_kappa(math.nextafter(KAPPA_MAX, 0.0), j_classes)
    assert abs(accuracy_of_kappa(KAPPA_MAX, j_classes) - below) <= 1e-9


def test_accuracy_strict_monotonicity_grids():
    # kappa up, J down, sigma2 down, depth up; every analytic change on these
    # grids exceeds the quadrature tolerance by orders of magnitude
    p_kappa = [accuracy_of_kappa(k, 10) for k in np.geomspace(0.1, 100.0, 25)]
    assert all(b - a > 1e-8 for a, b in zip(p_kappa, p_kappa[1:]))

    p_j = [accuracy_of_kappa(5.0, j) for j in range(2, 21)]
    assert all(a - b > 1e-8 for a, b in zip(p_j, p_j[1:]))

    p_sigma = [
        accuracy_of_kappa(kappa_distorted(s, 39.0, DEFAULT), 10)
        for s in np.linspace(0.0, 0.1, 11)
    ]
    assert all(a - b > 1e-8 for a, b in zip(p_sigma, p_sigma[1:]))

    p_ell = [
        accuracy_of_kappa(kappa_distorted(0.01, float(l), DEFAULT), 10)
        for l in range(1, 40)
    ]
    assert all(b - a > 1e-8 for a, b in zip(p_ell, p_ell[1:]))


# ---------------------------------------------------------------------------
# composed model
# ---------------------------------------------------------------------------


def test_accuracy_model_high_bitwidth_is_distortion_free():
    for ell in [5.0, 20.0, 39.0]:
        composed = accuracy_model(32.0, ell, DEFAULT, UNIT_SPEC)
        clean = accuracy_of_kappa(kappa_bar(ell, DEFAULT), 10)
        assert composed == pytest.approx(clean, rel=1e-9)


def test_accuracy_model_monotone_in_bitwidth():
    values = [accuracy_model(q, 19.0, DEFAULT, UNIT_SPEC) for q in range(0, 17)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] > values[0]


def test_accuracy_model_monotone_in_depth():
    spec = QuantizerSpec(c_min=-1.0, c_max=1.0)
    values = [accuracy_model(6.0, float(l), DEFAULT, spec) for l in range(1, 40)]
    assert all(b > a for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# scaling law
# ---------------------------------------------------------------------------


def test_error_scaling_formula_and_shape():
    profile = FeatureProfile(10, 5.0, 5.0, 100.0, 0.05, 50)
    kbar = kappa_bar(20.0, profile)
    expected = (
        math.sqrt(2.0) * 10.0 / (math.pi**1.5 * math.sqrt(kbar))
        * math.exp(-math.pi**2 / 200.0 * kbar)
    )
    assert error_scaling(20.0, profile) == pytest.approx(expected, rel=1e-14)
    values = [error_scaling(float(l), profile) for l in range(1, 51)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_error_scaling_grows_with_class_count():
    narrow = FeatureProfile(10, 5.0, 5.0, 100.0, 0.05, 50)
    wide = FeatureProfile(20, 5.0, 5.0, 100.0, 0.05, 50)
    assert error_scaling(20.0, wide) > error_scaling(20.0, narrow)


def test_error_scaling_matches_true_error_on_confirmed_window():
    # The law tracks the true error only on an intermediate concentration
    # window; the complement-integral oracle confirms [60, 250] for J=10
    # (the ratio drifts above 1.1 beyond ~280 and below 0.9 under ~55).
    profile = FeatureProfile(10, 5.0, 5.0, 100.0, 0.05, 50)
    for ell, kbar in [(11.0, 60.0), (19.0, 100.0), (29.0, 150.0), (39.0, 200.0), (49.0, 250.0)]:
        assert kappa_bar(ell, profile) == pytest.approx(kbar)
        true_error = oracles.error_quadrature(kbar, 10)
        ratio = true_error / error_scaling(ell, profile)
        assert 0.9 < ratio < 1.1
    # near the middle of the window the law is tight
    mid_ratio = oracles.error_quadrature(125.0, 10) / (
        error_scaling(24.0, profile)
    )
    assert abs(mid_ratio - 1.0) < 0.05


# ---------------------------------------------------------------------------
# depth inversion
# ---------------------------------------------------------------------------


def test_min_depth_boundary_cases():
    acc_at_1 = accuracy_of_kappa(kappa_distorted(0.0, 1.0, DEFAULT), 10)
    assert min_depth_for_accuracy(0.0, acc_at_1, DEFAULT) == 1.0
    acc_at_top = accuracy_of_kappa(kappa_distorted(0.0, 39.0, DEFAULT), 10)
    assert min_depth_for_accuracy(0.0, min(acc_at_top + 0.01, 0.999), DEFAULT) is None


def test_min_depth_argument_errors():
    with pytest.raises(ValueError):
        min_depth_for_accuracy(0.0, 0.05, DEFAULT)  # below 1/J
    with pytest.raises(ValueError):
        min_depth_for_accuracy(0.0, 1.0, DEFAULT)


def test_min_depth_kappa_search_raises_when_not_converged(monkeypatch):
    # one regula falsi step cannot close the bracket: the search gives up with
    # an error naming the target and J instead of returning a guess
    monkeypatch.setattr(accuracy_module, "_ROOT_MAX_STEPS", 1)
    with pytest.raises(ArithmeticError, match=r"^kappa for accuracy 0\.7, J=10 not found in \["):
        min_depth_for_accuracy(0.0, 0.7, DEFAULT)


def test_min_depth_random_instances_reevaluate():
    rng = np.random.default_rng(88)
    for _ in range(20):
        profile = FeatureProfile(
            j_classes=10,
            c1=float(rng.uniform(0.1, 1.0)),
            c2=float(rng.uniform(0.1, 2.0)),
            c3=float(rng.uniform(50.0, 500.0)),
            c4=float(rng.uniform(0.01, 0.3)),
            n_layers=39,
        )
        sigma2 = float(rng.uniform(0.0, 2e-3))
        lo = accuracy_of_kappa(kappa_distorted(sigma2, 1.0, profile), 10)
        hi = accuracy_of_kappa(kappa_distorted(sigma2, 39.0, profile), 10)
        p0 = float(rng.uniform(lo + 0.01, hi - 0.01))
        ell = min_depth_for_accuracy(sigma2, p0, profile)
        assert ell is not None
        assert accuracy_of_kappa(kappa_distorted(sigma2, ell, profile), 10) >= p0
        if ell > 1.0:
            below = accuracy_of_kappa(kappa_distorted(sigma2, ell - 1e-4, profile), 10)
            assert below < p0


def _direct(sigma2, profile):
    """Accuracy at a depth, evaluated through the full model chain."""
    return lambda ell: accuracy_of_kappa(
        kappa_distorted(sigma2, ell, profile), profile.j_classes
    )


def test_min_depth_matches_bisection_oracle_on_random_instances():
    # the concentration-scale search must return the plain bisection's depth
    # bit for bit, at the bit-widths both planners ask for; random targets
    # miss the one exception, p0 at a midpoint's accuracy (pinned below).  The
    # noise-free depth the discrete planner scans from is a lower bound on
    # each: noise only lowers kappa and accuracy rises with it.  That holds to
    # the last bit only with p0 well away from 1 - 1e-9, where accuracy is
    # not monotone in kappa; these targets stay below 0.85
    rng = np.random.default_rng(20260809)
    found = raised = 0
    for _ in range(250):
        inst = random_instance(rng)
        profile, spec, link, p0 = inst["profile"], inst["spec"], inst["link"], inst["p0"]
        noise_free = min_depth_for_accuracy(0.0, p0, profile)
        for q in (max_bitwidth_discrete(link, spec), max_bitwidth_continuous(link)):
            sigma2 = quant_variance(q, spec)
            expected = oracles.min_depth_bisect(_direct(sigma2, profile), p0, profile.n_layers)
            assert min_depth_for_accuracy(sigma2, p0, profile) == expected
            found += expected is not None and 1.0 < expected < profile.n_layers
            if expected is not None:
                assert noise_free is not None and noise_free <= expected
                raised += noise_free < expected
    # most pairs must reach the bisection itself, not only its end checks, and
    # many must need a deeper exit under their noise than without it
    assert found >= 250
    assert raised >= 100


@pytest.mark.parametrize("c2, miss", [(0.5, 1e-9), (1.0, 1e-10)])
def test_min_depth_near_accuracy_one_matches_oracle(c2, miss):
    # within about 1e-9 of accuracy 1 the quadrature is not monotone in kappa
    # to the last bit; the depth found must still meet p0 when evaluated
    # directly and sit within the bisection tolerance of the plain bisection
    profile = FeatureProfile(j_classes=10, c1=50.0, c2=c2, c3=400.0, c4=0.0, n_layers=39)
    p0 = 0.1 + 0.9 * (1.0 - miss)
    acc = _direct(0.0, profile)
    ell = min_depth_for_accuracy(0.0, p0, profile)
    assert ell is not None and acc(ell) >= p0
    assert abs(ell - oracles.min_depth_bisect(acc, p0, 39)) <= 1e-6


def test_min_depth_meets_target_where_accuracy_is_not_monotone():
    # 1 - p0 of 1e-10 and 1e-11 lies below the quadrature's 1e-9 tolerance, so
    # the direct test is not monotone in depth; every depth returned must
    # still pass it
    for c1 in (20.0, 30.0, 50.0, 100.0):
        for sigma2 in (0.0, 1e-6):
            profile = FeatureProfile(j_classes=10, c1=c1, c2=0.5, c3=400.0, c4=0.08, n_layers=39)
            acc = _direct(sigma2, profile)
            for miss in (1e-10, 1e-11):
                p0 = 0.1 + 0.9 * (1.0 - miss)
                ell = min_depth_for_accuracy(sigma2, p0, profile)
                assert ell is not None and acc(ell) >= p0


@pytest.mark.parametrize("j_classes", [2, 10_000])
@pytest.mark.parametrize("c1", [1e-3, 3e4])
@pytest.mark.parametrize("c4", [0.0, 3.0])
@pytest.mark.parametrize("sigma2", [0.0, 50.0])
@pytest.mark.parametrize("target", ["just-above-chance", "near-one"])
def test_min_depth_extreme_inputs_terminate_with_a_passing_depth(
    j_classes, c1, c4, sigma2, target
):
    # c1 = 3e4 takes kappa_bar past KAPPA_MAX from depth 33.3 on;
    # sigma2 = 50 drives kappa at depth 1 to about 1e-216 when c4 = 3
    profile = FeatureProfile(j_classes=j_classes, c1=c1, c2=0.0, c3=400.0, c4=c4, n_layers=39)
    chance = 1.0 / j_classes
    p0 = float(np.nextafter(chance, 1.0)) if target == "just-above-chance" else 1.0 - 1e-9
    acc = _direct(sigma2, profile)
    start = time.perf_counter()
    ell = min_depth_for_accuracy(sigma2, p0, profile)
    assert time.perf_counter() - start < 0.5
    expected = oracles.min_depth_bisect(acc, p0, 39)
    assert (ell is None) == (expected is None)
    if ell is not None:
        assert 1.0 <= ell <= 39.0 and acc(ell) >= p0


def test_min_depth_target_beyond_kappa_max_matches_oracle():
    # without noise the concentration is kappa_bar, and 3e4 ell reaches
    # KAPPA_MAX at depth 33.3: a target above the cap's accuracy is
    # unreachable, one at it (a kappa past the cap scores the cap's accuracy)
    # is found where kappa_bar reaches the cap, and one below it where
    # kappa_bar crosses it, not at the last layer
    profile = FeatureProfile(j_classes=10_000, c1=3e4, c2=0.0, c3=400.0, c4=0.0, n_layers=39)
    acc = _direct(0.0, profile)
    at_cap = accuracy_of_kappa(KAPPA_MAX, 10_000)
    p0 = float(np.nextafter(at_cap, 1.0))
    assert min_depth_for_accuracy(0.0, p0, profile) is None
    assert oracles.min_depth_bisect(acc, p0, 39) is None
    for kappa, lo, hi in ((1.05e6, 33.3333, 33.3334), (0.95e6, 31.0, 32.0)):
        p0 = accuracy_of_kappa(kappa, 10_000)
        ell = min_depth_for_accuracy(0.0, p0, profile)
        assert ell == oracles.min_depth_bisect(acc, p0, 39)
        assert lo < ell < hi


# ---------------------------------------------------------------------------
# the certified band of the depth search
# ---------------------------------------------------------------------------


def _noise_free_edge(profile):
    """The largest variance whose shrink at depth 1 still rounds to 1."""
    lo, hi = 0.0, 1.0
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if accuracy_module._shrink(mid, 1.0, profile) == 1.0 else (lo, mid)
    return lo


def _whole_range(sigma2, kappa0, r0, profile):
    """A band hint that certifies nothing: the whole range, where every step evaluates."""
    return 1.0, float(profile.n_layers)


_CAPPED = FeatureProfile(j_classes=10_000, c1=3e4, c2=0.0, c3=400.0, c4=0.08, n_layers=39)
_FLAT_NOISE = FeatureProfile(j_classes=10, c1=0.35, c2=0.5, c3=400.0, c4=0.0, n_layers=39)
_FLAT_RATIO = FeatureProfile(j_classes=10, c1=1e-6, c2=2.0, c3=400.0, c4=0.08, n_layers=39)
_EDGE = _noise_free_edge(DEFAULT)

# (id, profile, variance, depth whose accuracy sets p0, offset added to that accuracy,
# the bisection run: ``band`` with a certified band, ``every step`` without one)
BAND_CASES = [
    # kappa_bar reaches KAPPA_MAX at depth 33.3: below the cap, across it, and past it,
    # where only the shrink still rises with depth; without noise nothing does, the
    # slope is 0 and the whole range is offered
    ("capped-below", _CAPPED, 0.0, 31.5, 0.0, "band"),
    ("capped-across", _CAPPED, 1e-7, 33.3, 0.0, "band"),
    ("capped-past", _CAPPED, 1e-7, 36.0, 0.0, "band"),
    ("capped-past-no-noise", _CAPPED, 0.0, 36.0, 0.0, "every step"),
    # c4 = 0: the shrink is the same at every depth
    ("flat-noise", _FLAT_NOISE, 1e-3, 20.3, 0.0, "band"),
    ("flat-noise-heavy", _FLAT_NOISE, 8e-3, 37.0, 0.0, "band"),
    # c1 = 1e-6: kappa_bar moves by 4e-5 over the whole model
    ("flat-ratio", _FLAT_RATIO, 0.0, 20.3, 0.0, "band"),
    ("flat-ratio-noisy", _FLAT_RATIO, 1e-4, 20.3, 0.0, "band"),
    # one float either side of the variance whose shrink at depth 1 rounds to 1
    ("noise-free-edge", DEFAULT, _EDGE, 17.3, 0.0, "band"),
    ("noise-free-edge-above", DEFAULT, float(np.nextafter(_EDGE, 1.0)), 17.3, 0.0, "band"),
    # p0 within 1e-9 of the accuracy at a depth
    *[(f"near-an-accuracy-{offset:g}", DEFAULT, quant_variance(8, UNIT_SPEC), 12.7, offset,
       "band") for offset in (-1e-9, -1e-12, -1e-15, 0.0, 1e-15, 1e-12, 1e-9)],
]


@pytest.mark.parametrize("profile, sigma2, depth, offset, search",
                         [pytest.param(*case[1:], id=case[0]) for case in BAND_CASES])
def test_min_depth_with_its_band_matches_the_plain_bisection(monkeypatch, profile, sigma2,
                                                             depth, offset, search):
    acc = _direct(sigma2, profile)
    p0 = acc(depth) + offset
    expected = oracles.min_depth_bisect(acc, p0, profile.n_layers)
    searches = record_depth_bisections(monkeypatch)
    assert min_depth_for_accuracy(sigma2, p0, profile) == expected
    assert searches == [search]
    monkeypatch.setattr(accuracy_module, "_band", _whole_range)
    assert min_depth_for_accuracy(sigma2, p0, profile) == expected
    assert searches == [search, "every step"]


@pytest.mark.parametrize("profile, depth", [(DEFAULT, 20.0), (_FLAT_RATIO, 10.5),
                                            (_FLAT_RATIO, 29.5)])
def test_min_depth_at_a_midpoints_accuracy_is_within_tolerance_above_bisection(profile, depth):
    # p0 is exactly the accuracy at a bisection midpoint, within kappa0's 1e-13
    # bracket of it: the direct test passes there, the concentration-scale
    # test may not, so the depth may sit one final step above plain bisection's
    acc = _direct(0.0, profile)
    p0 = acc(depth)
    expected = oracles.min_depth_bisect(acc, p0, profile.n_layers)
    assert expected == depth
    ell = min_depth_for_accuracy(0.0, p0, profile)
    assert expected <= ell <= expected + 1e-6 and acc(ell) >= p0


def test_a_missing_or_wrong_band_falls_back_to_the_plain_bisection(monkeypatch):
    # the certificate, not the hint, decides: a band that misses the root on
    # either side, or is inverted, fails it, and every step then evaluates
    band, tried = accuracy_module._band, 0
    rng = np.random.default_rng(33)
    for _ in range(40):
        inst = random_instance(rng)
        profile, p0 = inst["profile"], inst["p0"]
        sigma2 = quant_variance(max_bitwidth_discrete(inst["link"], inst["spec"]), inst["spec"])
        with monkeypatch.context() as m:
            searches = record_depth_bisections(m)
            expected = min_depth_for_accuracy(sigma2, p0, profile)
        if searches != ["band"]:
            continue  # an end check answered, or no band was certified
        tried += 1
        hints = [_whole_range,
                 lambda *args: tuple(end + 0.25 for end in band(*args)),
                 lambda *args: tuple(end - 0.25 for end in band(*args)),
                 lambda *args: band(*args)[::-1]]
        for hint in hints:
            with monkeypatch.context() as m:
                m.setattr(accuracy_module, "_band", hint)
                searches = record_depth_bisections(m)
                assert min_depth_for_accuracy(sigma2, p0, profile) == expected
                assert searches == ["every step"]
    assert tried >= 20


@pytest.mark.parametrize("miss", [1e-9, 1e-10, 1e-11])
@pytest.mark.parametrize("c1", [20.0, 50.0, 100.0])
def test_min_depth_near_accuracy_one_is_the_same_with_or_without_its_band(monkeypatch, c1, miss):
    # where accuracy is not monotone in kappa to the last bit the depth found may
    # differ from the plain bisection on the direct test (see above); the band
    # must still not move it, nor whether the last-bit check runs
    profile = FeatureProfile(j_classes=10, c1=c1, c2=0.5, c3=400.0, c4=0.08, n_layers=39)
    p0 = 0.1 + 0.9 * (1.0 - miss)
    for sigma2 in (0.0, 1e-6):
        with monkeypatch.context() as m:
            searches = record_depth_bisections(m)
            with_band = min_depth_for_accuracy(sigma2, p0, profile)
            banded = list(searches)
            m.setattr(accuracy_module, "_band", _whole_range)
            assert min_depth_for_accuracy(sigma2, p0, profile) == with_band
        assert banded[0] == "band"
        assert searches[len(banded):] == ["every step", *banded[1:]]
