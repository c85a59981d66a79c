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
simulator scores it.  ``_Target`` is the one planning context, behind
``solve_cr``, ``solve_discrete`` and ``sweep``.  A link enters a discrete plan
only through its bit-width ``q*``, so plans change only at the threshold SNRs
where the alphabet admits a new entry: the target chooses each exit once per
(``q*``, exit set), and a link only prices that choice.  The exit is the
first whose own accuracy meets the target, scanned from the noise-free minimum
depth: noise only lowers kappa, so while accuracy rises with kappa (to the
last bit only for ``1 - p0`` well above 1e-9) no bit-width meets the target
shallower.  The model sees the bit-width only through its quantization
variance, and not at all once that noise rounds away at depth 1 (on the
default config from 29.99 bits on).  So a ``_Target`` runs one depth search
per (p0, *noise level*) and one accuracy evaluation per (noise level, depth).
Everything is pure; instances may be solved in parallel without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .accuracy import (
    FeatureProfile,
    QuantizerSpec,
    _accuracy,
    _distorted,
    _quant_variance,
    _shrink,
    accuracy_model,
    min_depth_for_accuracy,
    quant_variance,
)
from .circstats import FieldError, _check_increasing
from .system import (
    ComputeProfile,
    LinkState,
    _comm_latency,
    _comp_latency,
    _epr,
    comm_latency,
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


@dataclass(frozen=True, slots=True)
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
    Slotted: a Plan has no ``__dict__``, which saves 48 bytes on every Plan
    a caller keeps.
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
        t_comm=_comm_latency(q, link),
        t_comp=_comp_latency(ell, comp),
        epr=_epr(q, ell, link, comp) if feasible else 0.0,
        feasible=feasible,
    )


class _Target:
    """The planning context of one target (profile, spec, p0), ``p0`` checked once.

    Keeps each depth search and accuracy by *noise level*: the quantization
    variance, or 0.0 where its shrink at depth 1 rounds to 1.  The key is
    exact: ``c4 >= 0``, so the shrink is then 1.0 at every depth, and every
    value the model computes is the noise-free one, bit for bit.
    """

    def __init__(self, profile: FeatureProfile, spec: QuantizerSpec, p0: float) -> None:
        self.profile, self.spec, self.p0 = profile, spec, profile.check_target(p0)
        self._depths = {}  # noise level -> min_depth_for_accuracy
        self._accuracies = {}  # (noise level, depth) -> accuracy_model
        self._choices = {}  # (q, exit layers) -> choice

    def level(self, sigma2: float) -> float:
        """The noise level of a checked variance: 0.0 if its shrink at depth 1 is 1.0."""
        return 0.0 if _shrink(sigma2, 1.0, self.profile) == 1.0 else sigma2

    def depth(self, noise: float) -> Optional[float]:
        """The smallest continuous depth meeting ``p0`` at a noise level, or None."""
        if noise not in self._depths:
            self._depths[noise] = min_depth_for_accuracy(noise, self.p0, self.profile)
        return self._depths[noise]

    def accuracy(self, noise: float, ell: float) -> float:
        """``accuracy_model`` at a noise level and a depth in [1, L]."""
        key = noise, ell
        if key not in self._accuracies:
            kappa = _distorted(noise, ell, self.profile)
            self._accuracies[key] = _accuracy(kappa, self.profile.j_classes)
        return self._accuracies[key]

    def choice(self, q: float, exits: ExitSet) -> Tuple[float, float, bool]:
        """The exit, its ``accuracy_model`` and feasibility at bit-width ``q``, made once.

        The exit set must have passed ``check_within``.  The exit is the first
        meeting ``p0``, scanned from the last exit below the noise-free minimum
        depth, a lower bound at every bit-width; else the deepest, infeasible.
        At ``q = 0`` nothing is sent: no depth is searched, and it predicts ``1/J``.
        """
        key = q, exits.layers
        if key not in self._choices:
            noise, ell = self.level(_quant_variance(q, self.spec)), None
            if q and self.depth(0.0) is not None:
                # the noise-free depth is a start, not a verdict: scan from the last
                # exit below it for the first whose accuracy meets p0 at this noise
                start = max(sum(l < self.depth(0.0) for l in exits.layers) - 1, 0)
                ell = next((l for l in exits.layers[start:]
                            if self.accuracy(noise, float(l)) >= self.p0), None)
            feasible = ell is not None
            ell = float(ell if feasible else exits.deepest)
            # with nothing sent the tasks are guesses, as the simulator scores them
            predicted = self.accuracy(noise, ell) if q else 1.0 / self.profile.j_classes
            self._choices[key] = ell, predicted, feasible
        return self._choices[key]

    def plan(self, link: LinkState, comp: ComputeProfile, exits: ExitSet) -> Plan:
        """:func:`solve_discrete` under this target, for a checked exit set."""
        q = float(max_bitwidth_discrete(link, self.spec))
        return _plan(q, *self.choice(q, exits), link, comp)

    def ceiling(self, link: LinkState, comp: ComputeProfile) -> Plan:
        """:func:`solve_cr` under this target."""
        q_star = max_bitwidth_continuous(link)
        noise = self.level(quant_variance(q_star, self.spec))
        ell_star = self.depth(noise)
        feasible = ell_star is not None
        ell = float(ell_star if feasible else self.profile.n_layers)
        return _plan(q_star, ell, self.accuracy(noise, ell), feasible, link, comp)


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
    return _Target(profile, spec, p0).ceiling(link, comp)


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
    last exit below the bisected noise-free minimum, a lower bound at every
    bit-width (the bisection carries ~1e-6 slack, so that exit may still
    qualify).  Every feasible plan's exit has thus been compared with ``p0``
    directly.  When no exit qualifies or no depth does, the plan parks at the
    deepest exit with zero EPR; when only 0 bits fit, nothing is sent, no
    depth is searched, and it parks there predicting chance, ``1/J``.  The
    exit is ``_Target.choice`` at that bit-width, which ``sweep`` shares.
    """
    exits.check_within(profile)
    return _Target(profile, spec, p0).plan(link, comp, exits)


# brute_force's relative EPR tie: with no compute time every q earns the Shannon rate
_EPR_TIE = 1e-12


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
    EPR maximizer.  EPRs within ``_EPR_TIE`` of the best, relative, tie, and
    a tie goes to the larger bit-width and then the shallower depth.  Shares
    :func:`solve_discrete`'s input rules and infeasible convention, the chance
    accuracy at q = 0 included, under its own latency test.
    """
    exits.check_within(profile)
    p0 = profile.check_target(p0)
    # positive entries within the budget; with none, the plan parks at 0 bits
    admitted = [q for q in spec.bit_alphabet if q > 0 and comm_latency(q, link) <= link.t_max_s]
    met = []  # (epr, q, -ell, accuracy) of each pair that meets p0
    for q in admitted:
        for ell in exits.layers:
            accuracy = accuracy_model(q, float(ell), profile, spec)
            if accuracy >= p0:
                met.append((epr(q, float(ell), link, comp), q, -ell, accuracy))
    if not met:
        q_star = float(max(admitted, default=0))
        # with nothing sent the tasks are guesses, as the simulator scores them
        accuracy = (accuracy_model(q_star, float(exits.deepest), profile, spec) if q_star
                    else 1.0 / profile.j_classes)
        return _plan(q_star, exits.deepest, accuracy, False, link, comp)
    tied = max(m[0] for m in met) * (1.0 - _EPR_TIE)
    _, q, neg_ell, accuracy = max((m for m in met if m[0] >= tied), key=lambda m: m[1:3])
    return _plan(q, -neg_ell, accuracy, True, link, comp)
