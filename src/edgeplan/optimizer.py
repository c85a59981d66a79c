"""Rate-maximizing choice of bit-width and traversal depth.

The problem decomposes: pick the largest bit-width the air-latency budget
admits, then the shallowest depth that still clears the accuracy target at
the resulting quantization distortion.  ``solve_cr`` keeps both knobs
continuous (the theoretical ceiling), ``solve_discrete`` restricts them to
the quantizer alphabet and the exit-layer set, and ``brute_force`` is the
independent exhaustive oracle the tests hold the decomposition against.  All
three differ only in how they search; each fills in its chosen ``(q, ell)``
the same way, from :func:`~edgeplan.accuracy.accuracy_model` and the latency
model, so their plans compare field by field.  Everything is pure; instances
may be solved in parallel without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .accuracy import (
    FeatureProfile,
    QuantizerSpec,
    accuracy_model,
    min_depth_for_accuracy,
    quant_variance,
)
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

# Slack for comparing a bisected continuous depth against exact exit layers.
_EXIT_TOL = 1e-9


@dataclass(frozen=True)
class ExitSet:
    """Strictly increasing server layers at which inference may exit."""

    layers: Tuple[int, ...]

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("exit set must be nonempty")
        if any(int(l) != l for l in layers):
            raise ValueError("exit layers must be integers")
        layers = tuple(int(l) for l in layers)
        if any(b <= a for a, b in zip(layers, layers[1:])):
            raise ValueError("exit layers must be strictly increasing")
        if layers[0] < 1:
            raise ValueError("exit layers must be >= 1")
        object.__setattr__(self, "layers", layers)

    @property
    def deepest(self) -> int:
        return self.layers[-1]


@dataclass(frozen=True)
class Plan:
    """A (bit-width, depth) decision with its predicted operating point.

    ``t_comm`` never exceeds the air-latency budget.  An infeasible plan
    (accuracy target unreachable) parks at the deepest depth it may use with
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


def _check_exits(exits: ExitSet, profile: FeatureProfile) -> None:
    if exits.deepest > profile.n_layers:
        raise ValueError(
            f"exit layer {exits.deepest} exceeds the {profile.n_layers}-layer model"
        )


def _plan(
    q: float,
    ell: float,
    feasible: bool,
    link: LinkState,
    comp: ComputeProfile,
    profile: FeatureProfile,
    spec: QuantizerSpec,
) -> Plan:
    """The plan at ``(q, ell)``; an infeasible plan earns zero EPR."""
    q, ell = float(q), float(ell)
    return Plan(
        q=q,
        ell=ell,
        predicted_accuracy=accuracy_model(q, ell, profile, spec),
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

    The bit-width saturates the air-latency budget exactly; the depth is the
    bisected minimum meeting ``p0``.  The resulting EPR upper-bounds every
    discrete plan for the same scenario.  When no depth qualifies the plan
    parks at the last model layer with zero EPR.
    """
    q_star = max_bitwidth_continuous(link)
    ell_star = min_depth_for_accuracy(quant_variance(q_star, spec), p0, profile)
    if ell_star is None:
        return _plan(q_star, profile.n_layers, False, link, comp, profile, spec)
    return _plan(q_star, ell_star, True, link, comp, profile, spec)


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
    smallest exit at or beyond the bisected continuous minimum; because the
    bisection carries ~1e-6 slack, the exits adjacent to the rounded choice
    are re-checked against the accuracy target directly, which pins the
    result to the exact constrained optimum.  When no exit qualifies the
    plan parks at the deepest exit with zero EPR.
    """
    _check_exits(exits, profile)
    q_star = float(max_bitwidth_discrete(link, spec))
    ell_plus = min_depth_for_accuracy(quant_variance(q_star, spec), p0, profile)

    idx = None
    if ell_plus is not None:
        idx = next(
            (i for i, l in enumerate(exits.layers) if l >= ell_plus - _EXIT_TOL),
            None,
        )
        if idx is not None:
            # float-boundary guard: trust direct evaluation over the bisection
            if accuracy_model(q_star, float(exits.layers[idx]), profile, spec) < p0:
                idx = idx + 1 if idx + 1 < len(exits.layers) else None
            elif idx > 0 and accuracy_model(
                q_star, float(exits.layers[idx - 1]), profile, spec
            ) >= p0:
                idx -= 1

    if idx is None:
        return _plan(q_star, exits.deepest, False, link, comp, profile, spec)
    return _plan(q_star, exits.layers[idx], True, link, comp, profile, spec)


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
    depth.  Shares the infeasible convention with :func:`solve_discrete`.
    """
    _check_exits(exits, profile)
    best_key = None
    for q in spec.bit_alphabet:
        if comm_latency(q, link) > link.t_max_s:
            continue
        for ell in exits.layers:
            if accuracy_model(q, float(ell), profile, spec) < p0:
                continue
            key = (epr(q, float(ell), link, comp), q, -ell)
            if best_key is None or key > best_key:
                best_key = key
    if best_key is None:
        q_star = max_bitwidth_discrete(link, spec)
        return _plan(q_star, exits.deepest, False, link, comp, profile, spec)
    _, q, neg_ell = best_key
    return _plan(q, -neg_ell, True, link, comp, profile, spec)
