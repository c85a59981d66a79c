"""Tests for the planner: decomposition vs exhaustive search, dominance, shape."""

import ast
import copy
import math
import pickle
import struct
import sys
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

import edgeplan
from edgeplan import accuracy, optimizer
from edgeplan.accuracy import (
    FeatureProfile,
    QuantizerSpec,
    accuracy_model,
    accuracy_of_kappa,
    kappa_distorted,
    min_depth_for_accuracy,
    quant_variance,
)
from edgeplan.circstats import FieldError
from edgeplan.config import load_config
from edgeplan.optimizer import ExitSet, brute_force, solve_cr, solve_discrete
from edgeplan.simulator import run_algorithm1
from edgeplan.system import (
    ComputeProfile,
    LinkState,
    comm_latency,
    comp_latency,
    epr,
    max_bitwidth_discrete,
    snr_db_to_linear,
)

from helpers import COARSE_ALPHABET, random_instance

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


# a 10,000-class profile whose kappa_bar = 3e4 ell passes KAPPA_MAX at depth
# 33.3, planned at q = 32, where the quantization noise rounds away
CAP_PROFILE = FeatureProfile(j_classes=10_000, c1=3e4, c2=0.0, c3=400.0, c4=0.0, n_layers=39)
CAP_LINK = LinkState(bandwidth_hz=1e8, snr=snr_db_to_linear(30.0), t_max_s=0.012, d=10_000)
CAP_COMP = ComputeProfile(b1=1e-4, b2=1e-3)
CAP_EXITS = ExitSet(layers=(30, 36, 39))


def test_targets_met_only_past_the_sampler_cap_are_infeasible():
    # exit 36's kappa_bar is 1.08e6, whose accuracy 0.2559 would meet 0.2525,
    # but the simulator draws at KAPPA_MAX, where the accuracy is 0.2466
    for plan in (solve_discrete, brute_force):
        found = plan(CAP_LINK, CAP_COMP, CAP_PROFILE, SPEC, CAP_EXITS, 0.2525)
        assert not found.feasible and found.q == 32.0 and found.ell == 39.0


def test_plans_past_the_sampler_cap_predict_what_the_simulator_scores():
    _, plan, est = run_algorithm1(
        200_000, CAP_LINK, CAP_COMP, CAP_PROFILE, SPEC, CAP_EXITS, 0.245, seed=20260809
    )
    assert plan.feasible and plan.q == 32.0 and plan.ell == 36.0
    assert abs(plan.predicted_accuracy - est.value) <= est.ci_half_width


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


def test_a_plan_is_slotted_and_survives_pickle_copy_and_replace():
    # slots change a Plan's pickle bytes, so identity is judged on its fields
    plan = solve_discrete(LINK, COMP, PROFILE, SPEC, EXITS, 0.6)
    assert not hasattr(plan, "__dict__")
    for twin in (pickle.loads(pickle.dumps(plan)), copy.deepcopy(plan), replace(plan)):
        assert type(twin) is optimizer.Plan
        assert twin == plan and astuple(twin) == astuple(plan)
    moved = replace(plan, ell=plan.ell + 1.0)
    assert astuple(moved) == astuple(plan)[:1] + (plan.ell + 1.0,) + astuple(plan)[2:]
    with pytest.raises(AttributeError):
        plan.q = 1.0


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


def test_the_widest_quantizer_range_still_plans():
    # the widest range whose square is finite: at 600 bits its variance is
    # small enough to meet the target, and every planner agrees
    widest = math.sqrt(sys.float_info.max)
    spec = QuantizerSpec(c_min=0.0, c_max=widest, q_max=600, bit_alphabet=(8, 32, 512, 600))
    link = replace(LINK, t_max_s=0.25)
    disc = solve_discrete(link, COMP, PROFILE, spec, EXITS, 0.7)
    assert disc.feasible and disc.q == 600.0
    assert disc == brute_force(link, COMP, PROFILE, spec, EXITS, 0.7)
    cr = solve_cr(link, COMP, PROFILE, spec, 0.7)
    assert cr.feasible and cr.epr >= disc.epr


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
    # when only q = 0 fits the latency budget nothing is sent, so both
    # planners park at the deepest exit, infeasible, with the same plan
    mild = FeatureProfile(j_classes=10, c1=0.9, c2=1.0, c3=50.0, c4=0.3, n_layers=39)
    choked = LinkState(bandwidth_hz=1e8, snr=31.6227766, t_max_s=1e-7, d=120_000)
    plan = solve_discrete(choked, COMP, mild, SPEC, EXITS, 0.5)
    oracle = brute_force(choked, COMP, mild, SPEC, EXITS, 0.5)
    assert plan.q == 0.0
    assert not plan.feasible
    assert plan == oracle


def test_zero_bit_plans_are_infeasible_everywhere():
    # the budget admits no entry of an alphabet without 0, so the bit-width
    # falls back to 0 and nothing is sent: the planner and the oracle both
    # park at the deepest exit, infeasible, predicting chance as the
    # simulator scores it
    spec = QuantizerSpec(c_min=-1.0, c_max=1.0, q_max=16, bit_alphabet=(4, 8, 16))
    link = LinkState(bandwidth_hz=1e7, snr=snr_db_to_linear(-10.0), t_max_s=2e-3, d=100_000)
    mild = FeatureProfile(j_classes=10, c1=0.9, c2=1.0, c3=50.0, c4=0.3, n_layers=39)
    comp = ComputeProfile(b1=1e-4, b2=1e-3)
    exits = ExitSet(layers=(9, 19, 29, 37))
    plan = solve_discrete(link, comp, mild, spec, exits, 0.3)
    assert (plan.q, plan.ell, plan.feasible, plan.epr) == (0.0, 37.0, False, 0.0)
    assert plan == brute_force(link, comp, mild, spec, exits, 0.3)
    assert plan.predicted_accuracy == 0.1
    # the one-level quantizer's model accuracy, which validate simulates at
    # q = 0, is not what a plan that sends nothing predicts
    assert accuracy_model(0, 37.0, mild, spec) > 0.9


@pytest.mark.parametrize("snr_db", [15.0, -30.0])  # at -30 dB only 0 bits fit
@pytest.mark.parametrize("p0", [math.nan, 0.05, 1.5])
def test_every_planner_rejects_a_bad_target_on_every_path(snr_db, p0):
    config = load_config(Path(__file__).resolve().parent.parent / "configs" / "default.json")
    link = replace(config.link, snr=snr_db_to_linear(snr_db))
    args = (link, config.compute, config.profile, config.quantizer, config.exits, p0)
    for plan in (solve_discrete, brute_force, lambda *a: run_algorithm1(10, *a, seed=1)):
        with pytest.raises(FieldError, match="^p0: must ") as err:
            plan(*args)
        assert err.value.path == "p0"


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
        assert plan.t_comm <= inst["link"].t_max_s
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
            assert comm_latency(plan.q, inst["link"]) <= inst["link"].t_max_s
        else:
            infeasible += 1
            assert plan.epr == oracle.epr == 0.0
            assert plan.ell == float(inst["exits"].deepest)
    # the instance mix must exercise both outcomes for this test to mean much
    assert feasible >= 10 and infeasible >= 5


def test_bit_width_thresholds_follow_the_latency_rule():
    # alphabet entry b fits the budget from SNR 2^(b d / (t_max B)) - 1 on.
    # At each threshold and one float either side, the planner must admit
    # exactly the entries brute_force's per-entry latency test admits, and
    # its upload must fit the budget.  The coarse alphabet keeps the
    # exhaustive search short.
    rng = np.random.default_rng(2026)
    cases = 0
    for _ in range(12):
        inst = random_instance(rng)
        link = inst["link"]
        inst["spec"] = replace(inst["spec"], bit_alphabet=COARSE_ALPHABET)
        for b in COARSE_ALPHABET[1:]:
            threshold = 2.0 ** (b * link.d / (link.t_max_s * link.bandwidth_hz)) - 1.0
            for snr in (math.nextafter(threshold, 0.0), threshold,
                        math.nextafter(threshold, math.inf)):
                point = dict(inst, link=replace(link, snr=snr))
                plan = solve_discrete(**point)
                assert plan == brute_force(**point), (b, snr)
                assert plan.t_comm <= link.t_max_s, (b, snr)
                cases += 1
    assert cases == 12 * 8 * 3


def test_exit_rounding_at_exact_accuracy_boundaries():
    # p0 set to an exit's own accuracy, and to the next float above it, puts
    # the continuous minimum depth on that exit to the last bit: the exit
    # meets the first target and misses the second, and the plan must agree
    # with the exhaustive search either way.  The oracle searches the exits at
    # the planner's bit-width only: at these points a neighbouring bit-width's
    # accuracy can differ by less than kappa_distorted's 1e-10 solve
    # tolerance, so a full-alphabet search may take a lower bit-width, which
    # is a defect of the bit-width rule, not of the exit rule.
    rng = np.random.default_rng(2026)
    cases = on_exit = 0
    for _ in range(12):
        inst = random_instance(rng)
        profile, spec, exits = inst["profile"], inst["spec"], inst["exits"]
        q_star = max_bitwidth_discrete(inst["link"], spec)
        fixed = dict(inst, spec=replace(spec, bit_alphabet=(q_star,)))
        for layer in exits.layers:
            boundary = accuracy_model(q_star, float(layer), profile, spec)
            if not 1.0 / profile.j_classes < boundary < 1.0:
                continue
            for p0 in (boundary, math.nextafter(boundary, 1.0)):
                plan = solve_discrete(**dict(inst, p0=p0))
                oracle = brute_force(**dict(fixed, p0=p0))
                assert (plan.q, plan.ell, plan.feasible, plan.epr) == (
                    oracle.q, oracle.ell, oracle.feasible, oracle.epr
                )
                cases += 1
                on_exit += plan.feasible and plan.ell == layer
    # each exactly met target lands on its own exit, and no missed one does
    assert cases >= 20 and on_exit == cases // 2


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


def test_discrete_plans_evaluate_each_exit_layer_once(monkeypatch):
    # several exit sets planned under one target share one accuracy evaluation
    # per (noise level, exit layer), and each plan is still the exhaustive
    # optimum for its set; links that share a bit-width (15 and 25 dB) share
    # those evaluations.  Every scan starts at the one noise-free depth: a
    # target that sends bits searches once, at sigma2 == 0.0, whatever its
    # links' noise
    evaluated, searched = [], []

    def counted(sigma2, ell, profile):
        evaluated.append((sigma2, ell))
        return distorted(sigma2, ell, profile)

    def counted_search(sigma2, p0, profile):
        searched.append(sigma2)
        return search(sigma2, p0, profile)

    distorted, search = optimizer._distorted, optimizer.min_depth_for_accuracy
    monkeypatch.setattr(optimizer, "_distorted", counted)
    monkeypatch.setattr(optimizer, "min_depth_for_accuracy", counted_search)
    sets = [ExitSet(layers=(9, 37)), ExitSet(layers=(9, 19, 37)), ExitSet(layers=(37,)), EXITS]
    layers = {float(l) for exits in sets for l in exits.layers}
    links = [replace(LINK, snr=snr_db_to_linear(snr_db)) for snr_db in (-5.0, 5.0, 15.0, 25.0)]
    outcomes = set()
    for p0 in (0.3, 0.6, 0.8, 0.999):
        evaluated.clear()
        searched.clear()
        target = optimizer._Target(PROFILE, SPEC, p0)
        plans = [[target.plan(link, COMP, exits) for exits in sets] for link in links]
        assert searched == [0.0]
        assert len(evaluated) == len(set(evaluated))
        assert {ell for _, ell in evaluated} <= layers
        levels = {target.level(quant_variance(plan.q, SPEC)) for row in plans for plan in row}
        assert {sigma2 for sigma2, _ in evaluated} <= levels
        assert plans[2][0].q == plans[3][0].q
        for link, row in zip(links, plans):
            for plan, exits in zip(row, sets):
                assert plan == brute_force(link, COMP, PROFILE, SPEC, exits, p0)
                assert plan.predicted_accuracy == accuracy_model(plan.q, plan.ell, PROFILE, SPEC)
                outcomes.add(plan.feasible)
    assert outcomes == {True, False}
    # with nothing sent there is nothing to search
    searched.clear()
    silent = replace(LINK, snr=snr_db_to_linear(-60.0))
    target = optimizer._Target(PROFILE, SPEC, 0.6)
    assert all(target.plan(silent, COMP, exits).q == 0.0 for exits in sets)
    assert searched == []


def test_a_kept_exit_choice_prices_like_a_fresh_one():
    # links that share a bit-width share one exit choice per set under one
    # target; each link still gets the plan a fresh target would make it
    rng = np.random.default_rng(20261022)
    kept = 0
    for _ in range(40):
        inst = random_instance(rng)
        sets = [inst["exits"], ExitSet(layers=(9, 19, 29, 37))]
        target = optimizer._Target(inst["profile"], inst["spec"], inst["p0"])
        links = [replace(inst["link"], snr=snr_db_to_linear(snr_db))
                 for snr_db in np.arange(-5.0, 30.0, 1.0)]
        for link in links:
            for exits in sets:
                fresh = solve_discrete(**{**inst, "link": link, "exits": exits})
                assert target.plan(link, inst["comp"], exits) == fresh
        kept += len(links) * len(sets) - len(target._choices)
    assert kept >= 1_000


def test_brute_force_ties_epr_within_rounding_under_zero_compute():
    # with no compute latency every admitted bit-width earns the Shannon rate,
    # up to rounding, so the EPR tie goes to the largest bit-width and then the
    # shallowest exit, as the decomposition plans; without the tie, 1-ulp
    # rounding picks 33 of these 200, the first (scenario 11) q 21 for q 25
    rng = np.random.default_rng(5)
    zero = ComputeProfile(b1=0.0, b2=0.0)
    plans = []
    for _ in range(200):
        inst = {**random_instance(rng), "comp": zero}
        plans.append(solve_discrete(**inst))
        assert brute_force(**inst) == plans[-1]
    assert (plans[11].q, plans[11].ell, plans[11].feasible) == (25.0, 12.0, True)


def _largest_noise_free_variance(profile):
    """The largest float sigma2 whose shrink at depth 1 rounds to 1.0, by bisection
    over the bit patterns of the floats in [0, 1]."""
    def bits(x):
        return struct.unpack("<q", struct.pack("<d", x))[0]

    def value(i):
        return struct.unpack("<d", struct.pack("<q", i))[0]

    lo, hi = bits(0.0), bits(1.0)
    assert accuracy._shrink(1.0, 1.0, profile) < 1.0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if accuracy._shrink(value(mid), 1.0, profile) == 1.0 else (lo, mid)
    return value(lo)


def test_the_noise_level_key_is_exact_on_random_profiles():
    # below the largest variance whose noise rounds away at depth 1, the model
    # sees no noise at any depth: the depth search and the accuracy are the
    # noise-free ones bit for bit, so the planner keys them by 0.0; one float
    # above, the key is the variance itself
    rng = np.random.default_rng(20261020)
    for i in range(12):
        profile = FeatureProfile(
            j_classes=int(rng.integers(2, 20)),
            c1=float(rng.uniform(0.1, 1.0)),
            c2=float(rng.uniform(0.1, 2.0)),
            c3=float(rng.uniform(1.0, 1e4)),
            c4=0.0 if i % 3 == 0 else float(rng.uniform(0.0, 0.5)),
            n_layers=int(rng.integers(2, 60)),
        )
        sigma2 = _largest_noise_free_variance(profile)
        above = math.nextafter(sigma2, math.inf)
        target = optimizer._Target(profile, SPEC, 0.5 + 0.5 / profile.j_classes)
        assert target.level(sigma2) == 0.0
        assert target.level(above) == above
        for p0 in (target.p0, 0.9, 0.999):
            assert (min_depth_for_accuracy(sigma2, p0, profile)
                    == min_depth_for_accuracy(0.0, p0, profile))
        # accuracy_model's chain at sigma2 against accuracy_model where the
        # quantization variance underflows to 0
        assert quant_variance(4096.0, SPEC) == 0.0
        for ell in np.linspace(1.0, profile.n_layers, 25):
            kappa = kappa_distorted(sigma2, float(ell), profile)
            assert kappa == kappa_distorted(0.0, float(ell), profile)
            assert (accuracy_of_kappa(kappa, profile.j_classes)
                    == accuracy_model(4096.0, float(ell), profile, SPEC))


def test_benchmark_generator_matches_the_test_generator():
    # perfbench/workload.py keeps its own copy of random_instance for the
    # plan_stream workload; read that copy without importing the workload
    # module, which sets up the benchmark's import path on import
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workload.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    wanted = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "random_instance"
        or isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "COARSE_ALPHABET"
    ]
    assert len(wanted) == 2
    namespace = {"edgeplan": edgeplan, "np": np}
    exec(compile(ast.Module(body=wanted, type_ignores=[]), str(path), "exec"), namespace)
    bench_rng, test_rng = np.random.default_rng(20260809), np.random.default_rng(20260809)
    for _ in range(200):
        assert namespace["random_instance"](bench_rng) == random_instance(test_rng)
    # the two draw the same numbers, so the streams end in the same state
    assert bench_rng.random() == test_rng.random()


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
