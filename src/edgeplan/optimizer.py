"""Rate-maximizing choice of bit-width and traversal depth.

The problem decomposes: pick the largest bit-width the air-latency budget
admits, then the shallowest depth that still clears the accuracy target at
the resulting quantization distortion.  ``solve_cr`` keeps both knobs
continuous (the theoretical ceiling), ``solve_discrete`` restricts them to
the quantizer alphabet and the exit-layer set, and ``brute_force`` is the
independent exhaustive oracle the tests hold the decomposition against.  All
three differ only in how they search; each fills in its chosen ``(q, ell)``
the same way, from :func:`~edgeplan.accuracy.accuracy_model` and the latency
model, so their plans compare field by field.  The one exception is a plan
that sends nothing (``q = 0``): it predicts chance accuracy ``1/J``, as the
simulator scores it.  ``_discrete_plans`` is the one discrete planner, behind
``solve_discrete`` and ``sweep``.  It uses the bisected continuous depth only
to find where to start: the plan's exit is the first whose own accuracy meets
the target.  The link enters a plan only through its bit-width, so plans
change only at the threshold SNRs where the alphabet admits a new entry; it
plans several links and exit sets with one depth search per distinct
bit-width and one accuracy evaluation per (bit-width, exit layer), filling in
latency and EPR per link.  Everything is pure; instances may be solved in
parallel without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .accuracy import (
    FeatureProfile,
    QuantizerSpec,
    accuracy_model,
    min_depth_for_accuracy,
    quant_variance,
)
from .circstats import FieldError, _check_increasing
from .system import (
    ComputeProfile,
    LinkState,
    comm_latency,
    comp_latency,
    epr,
    max_bitwidth_continuous,
    max_bitwidth_discrete,
)

__all__ = ["ExitSet", "Plan", "solve_cr", "solve_discrete", "brute_force"]


@dataclass(frozen=True)
class ExitSet:
    """Strictly increasing server layers at which inference may exit."""

    layers: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", _check_increasing("layers", self.layers, 1))

    @property
    def deepest(self) -> int:
        return self.layers[-1]

    def check_within(self, profile: FeatureProfile) -> None:
        """A :class:`FieldError` naming the first exit beyond the model's last layer."""
        if self.deepest > profile.n_layers:
            i = next(i for i, l in enumerate(self.layers) if l > profile.n_layers)
            raise FieldError(
                f"layers[{i}]",
                f"exit layer {self.layers[i]} exceeds the {profile.n_layers}-layer model",
            )


@dataclass(frozen=True)
class Plan:
    """A (bit-width, depth) decision with its predicted operating point.

    A discrete plan's ``t_comm`` never exceeds the air-latency budget, by the
    ``comm_latency`` test of :func:`~edgeplan.system.max_bitwidth_discrete`.
    The continuous ceiling's bit-width saturates the budget, so its
    ``t_comm`` equals ``t_max_s`` only to within one rounding and may exceed
    it by about 2.2e-16 relative.  An infeasible plan (accuracy target
    unreachable, or nothing sent) parks at the deepest depth it may use with
    ``epr = 0`` but still reports the sub-target ``predicted_accuracy`` so
    sweeps can plot it; one that sends nothing (``q = 0``) predicts chance,
    ``1/J``, as the simulator scores it, and every target lies above that.
    """

    q: float
    ell: float
    predicted_accuracy: float
    t_comm: float
    t_comp: float
    epr: float
    feasible: bool


def _plan(
    q: float,
    ell: float,
    predicted_accuracy: float,
    feasible: bool,
    link: LinkState,
    comp: ComputeProfile,
) -> Plan:
    """The plan at ``(q, ell)``, given its ``accuracy_model``; zero EPR if infeasible."""
    q, ell = float(q), float(ell)
    return Plan(
        q=q,
        ell=ell,
        predicted_accuracy=predicted_accuracy,
        t_comm=comm_latency(q, link),
        t_comp=comp_latency(ell, comp),
        epr=epr(q, ell, link, comp) if feasible else 0.0,
        feasible=feasible,
    )


def solve_cr(
    link: LinkState,
    comp: ComputeProfile,
    profile: FeatureProfile,
    spec: QuantizerSpec,
    p0: float,
) -> Plan:
    """Continuous-relaxation solution: real-valued bit-width and depth.

    The bit-width saturates the air-latency budget, to within one rounding
    (see :class:`Plan`); the depth is the bisected minimum meeting ``p0``.
    The resulting EPR upper-bounds every discrete plan for the same scenario.
    When no depth qualifies the plan parks at the last model layer with zero
    EPR.
    """
    q_star = max_bitwidth_continuous(link)
    ell_star = min_depth_for_accuracy(quant_variance(q_star, spec), p0, profile)
    feasible = ell_star is not None
    ell = float(ell_star if feasible else profile.n_layers)
    accuracy = accuracy_model(q_star, ell, profile, spec)
    return _plan(q_star, ell, accuracy, feasible, link, comp)


def solve_discrete(
    link: LinkState,
    comp: ComputeProfile,
    profile: FeatureProfile,
    spec: QuantizerSpec,
    exits: ExitSet,
    p0: float,
) -> Plan:
    """Alphabet- and exit-constrained solution.

    Bit-width: largest alphabet entry within the latency budget.  Depth: the
    first exit whose ``accuracy_model`` meets ``p0``, scanning up from the
    last exit below the bisected continuous minimum (the bisection carries
    ~1e-6 slack, so that exit may still qualify).  Every feasible plan's exit
    has thus been compared with ``p0`` directly.  When no exit qualifies or
    no depth does, the plan parks at the deepest exit with zero EPR; when
    only 0 bits fit, nothing is sent, no depth is searched, and it parks
    there predicting chance, ``1/J``.  One call of ``_discrete_plans``, the
    one discrete planner, which plans several links and exit sets alike.
    """
    return _discrete_plans([link], comp, profile, spec, [exits], p0)[0][0]


def _discrete_plans(
    links: Sequence[LinkState],
    comp: ComputeProfile,
    profile: FeatureProfile,
    spec: QuantizerSpec,
    exit_sets: Sequence[ExitSet],
    p0: float,
) -> List[List[Plan]]:
    """The :func:`solve_discrete` plan for each link and each exit set, in order.

    Checks every exit set and ``p0`` once, before any link.  A link enters
    only through its bit-width ``q*``: the continuous minimum depth is solved
    once per distinct ``q* > 0``, and ``accuracy_model`` is evaluated at most
    once per ``(q*, exit layer)``, for the scans and the plans alike.  At
    ``q* = 0`` nothing is sent, so every set parks at its deepest exit,
    infeasible, at chance accuracy ``1/J``.  Nothing is kept between calls.
    """
    for exits in exit_sets:
        exits.check_within(profile)
    p0 = profile.check_target(p0)
    q_stars = [float(max_bitwidth_discrete(link, spec)) for link in links]
    starts = {q: min_depth_for_accuracy(quant_variance(q, spec), p0, profile)
              for q in dict.fromkeys(q_stars) if q}
    accuracy_at = {}  # (q*, exit layer) -> accuracy_model

    def accuracy(q: float, layer: int) -> float:
        if (q, layer) not in accuracy_at:
            accuracy_at[q, layer] = accuracy_model(q, float(layer), profile, spec)
        return accuracy_at[q, layer]

    plans = []
    for q, link in zip(q_stars, links):
        row = []
        for exits in exit_sets:
            ell_plus, ell = starts.get(q), None
            if ell_plus is not None:
                # the bisected depth is a start, not a verdict: scan from the last
                # exit below it for the first whose accuracy meets p0
                start = max(sum(l < ell_plus for l in exits.layers) - 1, 0)
                ell = next((l for l in exits.layers[start:] if accuracy(q, l) >= p0), None)
            feasible = ell is not None
            ell = ell if feasible else exits.deepest
            # with nothing sent the tasks are guesses, as the simulator scores them
            predicted = accuracy(q, ell) if q else 1.0 / profile.j_classes
            row.append(_plan(q, ell, predicted, feasible, link, comp))
        plans.append(row)
    return plans


def brute_force(
    link: LinkState,
    comp: ComputeProfile,
    profile: FeatureProfile,
    spec: QuantizerSpec,
    exits: ExitSet,
    p0: float,
) -> Plan:
    """Exhaustive EPR maximization over the alphabet-by-exit grid.

    Checks the latency and accuracy constraints pair by pair and keeps the
    EPR maximizer, breaking ties toward larger bit-width and then shallower
    depth.  Shares :func:`solve_discrete`'s input rules and infeasible
    convention, the chance accuracy at q = 0 included, under its own latency
    test.
    """
    exits.check_within(profile)
    p0 = profile.check_target(p0)
    # positive entries within the budget; with none, the plan parks at 0 bits
    admitted = [q for q in spec.bit_alphabet if q > 0 and comm_latency(q, link) <= link.t_max_s]
    best_key = best_accuracy = None
    for q in admitted:
        for ell in exits.layers:
            accuracy = accuracy_model(q, float(ell), profile, spec)
            if accuracy < p0:
                continue
            key = (epr(q, float(ell), link, comp), q, -ell)
            if best_key is None or key > best_key:
                best_key, best_accuracy = key, accuracy
    if best_key is None:
        q_star = float(max(admitted, default=0))
        # with nothing sent the tasks are guesses, as the simulator scores them
        accuracy = (accuracy_model(q_star, float(exits.deepest), profile, spec) if q_star
                    else 1.0 / profile.j_classes)
        return _plan(q_star, exits.deepest, accuracy, False, link, comp)
    _, q, neg_ell = best_key
    return _plan(q, -neg_ell, best_accuracy, True, link, comp)
