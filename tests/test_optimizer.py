"""Tests for the planner: decomposition vs exhaustive search, dominance, shape."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from edgeplan.accuracy import (
    FeatureProfile,
    QuantizerSpec,
    accuracy_of_kappa,
    kappa_distorted,
    min_depth_for_accuracy,
    quant_variance,
)
from edgeplan.config import load_config
from edgeplan.optimizer import ExitSet, brute_force, solve_cr, solve_discrete
from edgeplan.system import (
    ComputeProfile,
    LinkState,
    comm_latency,
    comp_latency,
    epr,
    snr_db_to_linear,
)

from helpers import random_instance

PROFILE = FeatureProfile(j_classes=10, c1=0.9, c2=1.0, c3=400.0, c4=0.08, n_layers=39)
SPEC = QuantizerSpec(c_min=-1.0, c_max=1.0, q_max=32)
LINK = LinkState(bandwidth_hz=1e8, snr=31.6227766, t_max_s=0.012, d=120_000)
COMP = ComputeProfile(b1=2e-4, b2=2e-3)
EXITS = ExitSet(layers=(9, 19, 29, 34, 37))


def test_exit_set_validation():
    with pytest.raises(ValueError):
        ExitSet(layers=())
    with pytest.raises(ValueError):
        ExitSet(layers=(9, 9, 19))
    with pytest.raises(ValueError):
        ExitSet(layers=(19, 9))
    with pytest.raises(ValueError):
        ExitSet(layers=(0, 9))
    with pytest.raises(ValueError):
        solve_discrete(LINK, COMP, PROFILE, SPEC, ExitSet(layers=(9, 40)), 0.7)


def test_solve_discrete_easy_target_exits_shallow():
    plan = solve_discrete(LINK, COMP, PROFILE, SPEC, EXITS, 0.101)
    assert plan.feasible
    assert plan.ell == 9.0
    assert plan.q == 32.0


def test_solve_discrete_unreachable_target_is_infeasible():
    plan = solve_discrete(LINK, COMP, PROFILE, SPEC, EXITS, 0.999)
    assert not plan.feasible
    assert plan.ell == 37.0
    assert plan.epr == 0.0
    assert plan.predicted_accuracy < 0.999
    assert plan.t_comm <= LINK.t_max_s * (1 + 1e-12)


def test_solve_discrete_ceiling_to_next_exit():
    # pick p0 strictly between the accuracies of exits 9 and 19 so the
    # continuous minimum lands in between and rounds up to 19
    sigma2 = quant_variance(32, SPEC)
    acc = lambda l: accuracy_of_kappa(kappa_distorted(sigma2, l, PROFILE), 10)
    p0 = 0.5 * (acc(12.0) + acc(13.0))
    ell_plus = min_depth_for_accuracy(sigma2, p0, PROFILE)
    assert 9.0 < ell_plus < 19.0
    plan = solve_discrete(LINK, COMP, PROFILE, SPEC, EXITS, p0)
    assert plan.feasible and plan.ell == 19.0


def test_solve_discrete_single_exit_benchmark():
    plan = solve_discrete(LINK, COMP, PROFILE, SPEC, ExitSet(layers=(37,)), 0.7)
    assert plan.feasible
    assert plan.ell == 37.0


def test_plan_reevaluates_consistently():
    plan = solve_discrete(LINK, COMP, PROFILE, SPEC, EXITS, 0.8)
    assert plan.feasible
    sigma2 = quant_variance(plan.q, SPEC)
    assert accuracy_of_kappa(kappa_distorted(sigma2, plan.ell, PROFILE), 10) >= 0.8
    assert plan.t_comm == pytest.approx(comm_latency(plan.q, LINK), rel=1e-15)
    assert plan.t_comp == pytest.approx(comp_latency(plan.ell, COMP), rel=1e-15)
    assert plan.epr == pytest.approx(epr(plan.q, plan.ell, LINK, COMP), rel=1e-15)


def test_solve_cr_upper_bounds_discrete():
    for p0 in [0.2, 0.5, 0.7, 0.85]:
        cr = solve_cr(LINK, COMP, PROFILE, SPEC, p0)
        disc = solve_discrete(LINK, COMP, PROFILE, SPEC, EXITS, p0)
        assert cr.epr >= disc.epr
        if cr.feasible:
            assert cr.q >= disc.q
            assert cr.ell <= disc.ell or not disc.feasible


def test_solve_cr_latency_tight():
    cr = solve_cr(LINK, COMP, PROFILE, SPEC, 0.7)
    assert cr.feasible
    assert cr.t_comm == pytest.approx(LINK.t_max_s, rel=1e-12)


def test_solve_cr_epr_monotone_in_snr():
    from edgeplan.system import snr_db_to_linear
    from dataclasses import replace

    values = []
    for db in np.linspace(-5.0, 25.0, 16):
        link = replace(LINK, snr=snr_db_to_linear(float(db)))
        values.append(solve_cr(link, COMP, PROFILE, SPEC, 0.7).epr)
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_brute_force_singletons():
    single = QuantizerSpec(c_min=-1.0, c_max=1.0, q_max=32, bit_alphabet=(8,))
    plan = brute_force(LINK, COMP, PROFILE, single, ExitSet(layers=(19,)), 0.3)
    assert plan.feasible and plan.q == 8.0 and plan.ell == 19.0
    hopeless = brute_force(LINK, COMP, PROFILE, single, ExitSet(layers=(19,)), 0.999)
    assert not hopeless.feasible and hopeless.epr == 0.0 and hopeless.ell == 19.0


def test_equivalence_on_zero_rate_ties():
    # when only q = 0 fits the latency budget every feasible pair has EPR
    # exactly 0.0, so the oracle's tie-break (larger q, then shallower exit)
    # must land on the same pair as the decomposition
    mild = FeatureProfile(j_classes=10, c1=0.9, c2=1.0, c3=50.0, c4=0.3, n_layers=39)
    choked = LinkState(bandwidth_hz=1e8, snr=31.6227766, t_max_s=1e-7, d=120_000)
    plan = solve_discrete(choked, COMP, mild, SPEC, EXITS, 0.5)
    oracle = brute_force(choked, COMP, mild, SPEC, EXITS, 0.5)
    assert plan.q == oracle.q == 0.0
    assert plan.feasible and oracle.feasible
    assert plan.epr == oracle.epr == 0.0
    assert plan.ell == oracle.ell


def test_decomposition_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(20260809)
    feasible = infeasible = 0
    for _ in range(60):
        inst = random_instance(rng)
        plan = solve_discrete(**inst)
        oracle = brute_force(**inst)
        assert plan == oracle
        assert plan.q == oracle.q
        assert plan.ell == oracle.ell
        assert plan.feasible == oracle.feasible
        assert plan.t_comm <= inst["link"].t_max_s * (1 + 1e-12)
        if plan.feasible:
            feasible += 1
            assert plan.epr == pytest.approx(oracle.epr, rel=1e-14)
            # both constraints hold on independent re-evaluation
            sigma2 = quant_variance(plan.q, inst["spec"])
            reacc = accuracy_of_kappa(
                kappa_distorted(sigma2, plan.ell, inst["profile"]),
                inst["profile"].j_classes,
            )
            assert reacc >= inst["p0"]
            assert comm_latency(plan.q, inst["link"]) <= inst["link"].t_max_s * (1 + 1e-12)
        else:
            infeasible += 1
            assert plan.epr == oracle.epr == 0.0
            assert plan.ell == float(inst["exits"].deepest)
    # the instance mix must exercise both outcomes for this test to mean much
    assert feasible >= 10 and infeasible >= 5


def test_cr_dominates_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(40):
        inst = random_instance(rng)
        disc = solve_discrete(**inst)
        cr = solve_cr(
            inst["link"], inst["comp"], inst["profile"], inst["spec"], inst["p0"]
        )
        assert cr.epr >= disc.epr - 1e-9
        if cr.feasible:
            # the continuous depth comes straight from the depth search
            sigma2 = quant_variance(cr.q, inst["spec"])
            reacc = accuracy_of_kappa(
                kappa_distorted(sigma2, cr.ell, inst["profile"]),
                inst["profile"].j_classes,
            )
            assert reacc >= inst["p0"]


def test_exit_superset_never_hurts():
    rng = np.random.default_rng(99)
    for _ in range(25):
        inst = random_instance(rng)
        base = inst["exits"]
        extra = sorted(set(base.layers) | {(base.deepest + 1) // 2, max(base.deepest - 3, 1)})
        superset = ExitSet(layers=tuple(extra))
        inst_small = dict(inst)
        inst_big = dict(inst, exits=superset)
        assert solve_discrete(**inst_big).epr >= solve_discrete(**inst_small).epr - 1e-9


def test_lower_target_never_hurts():
    rng = np.random.default_rng(123)
    for _ in range(25):
        inst = random_instance(rng)
        hi = min(inst["p0"] + 0.05, 0.9)
        lo = max(inst["p0"] - 0.05, 0.15)
        plan_hi = solve_discrete(**dict(inst, p0=hi))
        plan_lo = solve_discrete(**dict(inst, p0=lo))
        assert plan_lo.epr >= plan_hi.epr - 1e-9


def test_adaptive_plan_beats_fixed_complexity_baselines_on_readme_grid():
    # the paper's headline claim: at every SNR of the README sweep, adapting
    # both bit-width and depth earns at least the EPR of a fixed-depth plan
    # (deepest exit only) and of fixed-bit-width plans (alphabet {q})
    config = load_config(Path(__file__).resolve().parent.parent / "configs" / "default.json")
    profile, spec, exits, comp = config.profile, config.quantizer, config.exits, config.compute
    fixed_depth = ExitSet(layers=(exits.deepest,))
    fixed_bits = {q: replace(spec, bit_alphabet=(q,)) for q in (4, 8, 16)}
    beaten = set()
    for p0 in (0.6, 0.7):
        for snr_db in range(-5, 26):
            link = replace(config.link, snr=snr_db_to_linear(float(snr_db)))
            adaptive = solve_discrete(link, comp, profile, spec, exits, p0).epr
            baselines = {"depth": solve_discrete(link, comp, profile, spec, fixed_depth, p0)}
            for q, fixed in fixed_bits.items():
                baselines[q] = solve_discrete(link, comp, profile, fixed, exits, p0)
            for name, plan in baselines.items():
                assert adaptive >= plan.epr, (p0, snr_db, name)
                if adaptive > plan.epr:
                    beaten.add(name)
    # the claim is strict somewhere for every baseline, not a tie throughout
    assert beaten == {"depth", 4, 8, 16}
