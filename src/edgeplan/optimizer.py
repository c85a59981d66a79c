"""Rate-maximizing choice of bit-width and traversal depth.

The problem decomposes: pick the largest bit-width the air-latency budget
admits, then the shallowest depth that still clears the accuracy target at
the resulting quantization distortion.  ``solve_cr`` keeps both knobs
continuous (the theoretical ceiling), ``solve_discrete`` restricts them to
the quantizer alphabet and the exit-layer set, and ``brute_force`` is the
independent exhaustive oracle the tests hold the decomposition against.  All
three differ only in how they search; each fills in its chosen ``(q, ell)``
the same way, from :func:`~edgeplan.accuracy.accuracy_model` and the latency
model, so their plans compare field by field.  ``solve_discrete`` uses the
bisected continuous depth only to find where to start: the plan's exit is the
first whose own accuracy meets the target.  As only that scan depends on the
exit set, ``_discrete_plans`` plans several sets from one depth search,
evaluating each exit layer's accuracy once.  The link enters the discrete
plan only through its bit-width, so plans change only at the threshold SNRs
where the alphabet admits a new entry: ``_discrete_plans`` also plans several
links, choosing exits once per distinct bit-width and filling in latency and
EPR per link.  Everything is pure; instances may be solved in parallel
without coordination.
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
from .circstats import FieldError, _check_int
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
        layers = tuple(_check_int(f"layers[{i}]", l, 1) for i, l in enumerate(self.layers))
        if not layers:
            raise FieldError("layers", "exit set must be nonempty")
        if any(b <= a for a, b in zip(layers, layers[1:])):
            raise FieldError("layers", "exit layers must be strictly increasing")
        object.__setattr__(self, "layers", layers)

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
    sweeps can plot it.
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
    has thus been compared with ``p0`` directly.  When no exit qualifies, no
    depth does, or only 0 bits fit (nothing is sent), the plan parks at the
    deepest exit with zero EPR.  One call of ``_discrete_plans``, which
    judges the inputs and plans several links and exit sets the same way.
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
    only through its bit-width ``q*``, which fixes each set's exit, predicted
    accuracy and feasibility (``_exit_choices``); so those are chosen once
    per distinct ``q*``, and only the latencies and EPR are filled in per
    link.  Nothing is kept between calls.
    """
    for exits in exit_sets:
        exits.check_within(profile)
    p0 = profile.check_target(p0)
    choices, plans = {}, []  # q* -> _exit_choices at q*
    for link in links:
        q = float(max_bitwidth_discrete(link, spec))
        if q not in choices:
            choices[q] = _exit_choices(q, profile, spec, exit_sets, p0)
        plans.append([_plan(q, *choice, link, comp) for choice in choices[q]])
    return plans


def _exit_choices(
    q_star: float,
    profile: FeatureProfile,
    spec: QuantizerSpec,
    exit_sets: Sequence[ExitSet],
    p0: float,
) -> List[Tuple[int, float, bool]]:
    """Each exit set's ``(ell, predicted accuracy, feasible)`` at bit-width ``q_star``.

    The continuous minimum depth is solved once; each set's exits are then
    scanned from just below it.  Each exit layer's accuracy is evaluated at
    most once, for the scans and the plans alike; the memo lives for this
    call only.  At ``q_star = 0`` nothing is sent, so no exit is feasible.
    It only chooses: ``_discrete_plans`` has checked the exit sets and ``p0``.
    """
    ell_plus = min_depth_for_accuracy(quant_variance(q_star, spec), p0, profile) if q_star else None
    accuracy_at = {}  # exit layer -> accuracy_model(q_star, layer)

    def accuracy(layer: int) -> float:
        if layer not in accuracy_at:
            accuracy_at[layer] = accuracy_model(q_star, float(layer), profile, spec)
        return accuracy_at[layer]

    choices = []
    for exits in exit_sets:
        layers, idx = exits.layers, None
        if ell_plus is not None:
            # the bisected depth is a start, not a verdict: scan from the last
            # exit below it for the first whose accuracy meets p0
            start = max(sum(l < ell_plus for l in layers) - 1, 0)
            idx = next((i for i in range(start, len(layers)) if accuracy(layers[i]) >= p0), None)
        ell = exits.deepest if idx is None else layers[idx]
        choices.append((ell, accuracy(ell), idx is not None))
    return choices


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
    convention, q = 0 included, under its own latency test.
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
        accuracy = accuracy_model(q_star, float(exits.deepest), profile, spec)
        return _plan(q_star, exits.deepest, accuracy, False, link, comp)
    _, q, neg_ell = best_key
    return _plan(q, -neg_ell, best_accuracy, True, link, comp)
