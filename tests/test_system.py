"""Tests for the latency model and the EPR metric."""

import math

import numpy as np
import pytest

from edgeplan.accuracy import QuantizerSpec
from edgeplan.system import (
    ComputeProfile,
    LinkState,
    comm_latency,
    comp_latency,
    epr,
    max_bitwidth_continuous,
    max_bitwidth_discrete,
    shannon_rate,
    snr_db_to_linear,
)

import oracles

LINK = LinkState(bandwidth_hz=1e8, snr=15.0, t_max_s=0.012, d=120_000)
COMP = ComputeProfile(b1=1e-4, b2=2e-3)


def test_snr_conversions_round_trip():
    assert snr_db_to_linear(0.0) == 1.0
    assert snr_db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)


def test_link_state_validation():
    with pytest.raises(ValueError):
        LinkState(bandwidth_hz=0.0, snr=1.0, t_max_s=0.01, d=100)
    with pytest.raises(ValueError):
        LinkState(bandwidth_hz=1e8, snr=-1.0, t_max_s=0.01, d=100)
    with pytest.raises(ValueError):
        LinkState(bandwidth_hz=1e8, snr=1.0, t_max_s=0.01, d=0)


def test_comm_latency_examples():
    assert comm_latency(0.0, LINK) == 0.0
    # log2(16) = 4 exactly: 120000 * 40 / 4e8
    assert comm_latency(40.0, LINK) == pytest.approx(0.012, rel=1e-15)
    half_band = LinkState(bandwidth_hz=5e7, snr=15.0, t_max_s=0.012, d=120_000)
    assert comm_latency(40.0, half_band) == pytest.approx(2 * comm_latency(40.0, LINK), rel=1e-14)
    with pytest.raises(ValueError):
        comm_latency(-1.0, LINK)


def test_comp_latency_examples():
    assert comp_latency(17.0, ComputeProfile(b1=0.0, b2=0.002)) == 0.002
    assert comp_latency(39.0, ComputeProfile(b1=1e-4, b2=0.0)) == pytest.approx(0.0039)
    with pytest.raises(ValueError):
        comp_latency(0.5, COMP)


def test_compute_profile_from_flops():
    comp = ComputeProfile.from_flops(
        device_flops=2e8,
        per_layer_flops=1e8,
        device_flops_per_s=1e11,
        server_flops_per_s=5e11,
    )
    assert comp.b2 == pytest.approx(0.002, rel=1e-15)
    assert comp.b1 == pytest.approx(2e-4, rel=1e-15)
    assert comp_latency(10.0, comp) == pytest.approx(0.004, rel=1e-14)


def test_epr_example_and_zero_case():
    assert epr(0.0, 10.0, LINK, COMP) == 0.0
    # 4.8e6 bits over 0.012 + 0.003 seconds
    assert epr(40.0, 10.0, LINK, COMP) == pytest.approx(3.2e8, rel=1e-12)


def test_epr_bounded_by_channel_rate():
    rate = shannon_rate(LINK)
    for q in [1.0, 8.0, 32.0]:
        for ell in [1.0, 10.0, 39.0]:
            assert epr(q, ell, LINK, COMP) < rate
    # compute time -> 0 recovers the channel rate
    nearly_free = ComputeProfile(b1=0.0, b2=1e-15)
    assert epr(32.0, 39.0, LINK, nearly_free) == pytest.approx(rate, rel=1e-9)


def test_epr_decreasing_in_depth():
    values = [epr(16.0, float(l), LINK, COMP) for l in range(1, 40)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_epr_identity_with_rate_form():
    rng = np.random.default_rng(11)
    for _ in range(50):
        link = LinkState(
            bandwidth_hz=float(rng.uniform(1e7, 2e8)),
            snr=float(rng.uniform(0.01, 1000.0)),
            t_max_s=float(rng.uniform(1e-3, 0.05)),
            d=int(rng.integers(1_000, 300_000)),
        )
        comp = ComputeProfile(b1=float(rng.uniform(0, 1e-3)), b2=float(rng.uniform(1e-5, 1e-2)))
        q = float(rng.uniform(0.5, 32.0))
        ell = float(rng.uniform(1.0, 39.0))
        t_comm = comm_latency(q, link)
        t_comp = comp_latency(ell, comp)
        lhs = epr(q, ell, link, comp)
        rhs = shannon_rate(link) / (1.0 + t_comp / t_comm)
        assert abs(lhs - rhs) <= 1e-12 * rhs


def test_max_bitwidth_continuous():
    assert max_bitwidth_continuous(LINK) == pytest.approx(40.0, rel=1e-15)
    # constraint is tight at the continuous optimum
    assert comm_latency(max_bitwidth_continuous(LINK), LINK) == pytest.approx(
        LINK.t_max_s, rel=1e-12
    )
    faint = LinkState(bandwidth_hz=1e8, snr=1e-9, t_max_s=0.012, d=120_000)
    assert max_bitwidth_continuous(faint) < 1e-4


def _link_with_ceiling(q_cont: float) -> LinkState:
    # B log2(1+15) = 4e8; scale t_max so the continuous ceiling equals q_cont
    return LinkState(bandwidth_hz=1e8, snr=15.0, t_max_s=q_cont * 120_000 / 4e8, d=120_000)


def test_max_bitwidth_discrete_selection():
    full = QuantizerSpec(c_min=0.0, c_max=1.0, q_max=32)
    sparse = QuantizerSpec(c_min=0.0, c_max=1.0, q_max=32, bit_alphabet=(0, 4, 8, 16, 32))
    assert max_bitwidth_discrete(_link_with_ceiling(40.0), full) == 32
    assert max_bitwidth_discrete(_link_with_ceiling(7.9), sparse) == 4
    assert max_bitwidth_discrete(_link_with_ceiling(0.5), full) == 0
    no_zero = QuantizerSpec(c_min=0.0, c_max=1.0, q_max=32, bit_alphabet=(4, 8))
    assert max_bitwidth_discrete(_link_with_ceiling(0.5), no_zero) == 0


@pytest.mark.parametrize("alphabet", [None, (0, 1, 2, 4, 8, 12, 16, 24, 32), (12, 16, 24, 32)])
def test_max_bitwidth_discrete_equals_a_downward_scan_at_every_threshold(alphabet):
    # entry b fits from the threshold SNR 2^(b d / (t_max B)) - 1 up.  At
    # nextafter on both sides of each threshold, where a rounding slip would
    # show, the bisection must pick what a plain scan down the alphabet picks;
    # the points 1e-9 out make every entry, and 0, the pick somewhere
    spec = QuantizerSpec(c_min=0.0, c_max=1.0, q_max=32, bit_alphabet=alphabet)
    for bandwidth_hz, t_max_s, d in ((1e8, 0.012, 120_000), (3.7e7, 0.0041, 91_337)):
        picks = set()
        for b in spec.bit_alphabet:
            if b == 0:  # fits at any SNR: no threshold
                continue
            threshold = 2.0 ** (b * d / (t_max_s * bandwidth_hz)) - 1.0
            for snr in (threshold * (1.0 - 1e-9), math.nextafter(threshold, 0.0), threshold,
                        math.nextafter(threshold, math.inf), threshold * (1.0 + 1e-9)):
                link = LinkState(bandwidth_hz=bandwidth_hz, snr=snr, t_max_s=t_max_s, d=d)
                expected = oracles.max_bitwidth_scan(spec.bit_alphabet, d, bandwidth_hz, snr,
                                                     t_max_s)
                assert max_bitwidth_discrete(link, spec) == expected, (b, snr)
                picks.add(expected)
        # every entry is picked at its own threshold, and 0 when nothing fits
        assert picks == set(spec.bit_alphabet) | {0}


def test_max_bitwidth_discrete_respects_budget():
    rng = np.random.default_rng(3)
    spec = QuantizerSpec(c_min=0.0, c_max=1.0, q_max=32)
    for _ in range(100):
        link = LinkState(
            bandwidth_hz=float(rng.uniform(1e7, 2e8)),
            snr=float(rng.uniform(0.01, 1000.0)),
            t_max_s=float(rng.uniform(1e-4, 0.05)),
            d=int(rng.integers(1_000, 300_000)),
        )
        q = max_bitwidth_discrete(link, spec)
        assert q in spec.bit_alphabet
        assert comm_latency(q, link) <= link.t_max_s * (1.0 + 1e-12)
