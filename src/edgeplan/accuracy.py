"""Closed-form accuracy model for early-exit inference under quantization.

The chain is: bit-width -> uniform quantization variance -> effective angular
noise at a given traversal depth -> shrunken von Mises concentration -> MAP
accuracy for equally spaced class centroids.  Depth is treated as continuous and
bisected on the concentration scale (:func:`min_depth_for_accuracy`), which
evaluates only inside a certified band around the Newton root of that scale's
test and answers every other step without evaluating.  Pure
functions over immutable profile/spec values; safe for concurrent use.  The
one piece of module state is the Simpson ladder cache of
:func:`accuracy_of_kappa`: bounded (:data:`_LADDER_ENTRIES` levels) and
read-only, so it changes no result.  Public functions check their inputs;
private cores (``_accuracy``, ``_distorted``, ``_kappa_bar``, ...) hold each
formula once, take checked values, and are where the work is counted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .circstats import (
    KAPPA_MAX,
    FieldError,
    _check_increasing,
    _check_int,
    _check_real,
    _i0e,
    _ratio,
    _ratio_inv,
)

__all__ = [
    "FeatureProfile",
    "QuantizerSpec",
    "quant_variance",
    "kappa_bar",
    "grad_energy",
    "kappa_distorted",
    "accuracy_of_kappa",
    "accuracy_model",
    "error_scaling",
    "min_depth_for_accuracy",
]

_QUAD_REL_TOL = 1e-9
_QUAD_MAX_NODES = 2**20
_LADDER_MAX_NODES = 2**12
_LADDER_ENTRIES = 64
_DEPTH_TOL = 1e-6
_ROOT_REL_TOL = 1e-13
_ROOT_MAX_STEPS = 500
_BAND_ULPS = 1024
_BAND_REL = 1e-12
_BAND_MAX_STEPS = 32


@dataclass(frozen=True)
class FeatureProfile:
    """Per-depth statistics of the angular features.

    ``kappa_bar(ell)``, from ``c1 ell + c2``, is the undistorted concentration and
    ``grad_energy(ell) = c3 exp(-c4 ell)`` the noise amplification at depth
    ``ell``.  Class centroids are derived, not stored: class ``j`` sits at
    ``-pi + (2j - 1) pi / J``, equally spaced for uniform priors.  ``c4 = 0``
    is admitted as the degenerate flat noise profile.
    """

    j_classes: int
    c1: float
    c2: float
    c3: float
    c4: float
    n_layers: int

    def __post_init__(self) -> None:
        checked = {
            "j_classes": _check_int("j_classes", self.j_classes, 2),
            "n_layers": _check_int("n_layers", self.n_layers, 1),
            "c1": _check_real("c1", self.c1, 0.0, strict=True),
            "c2": _check_real("c2", self.c2),
            "c3": _check_real("c3", self.c3, 0.0, strict=True),
            "c4": _check_real("c4", self.c4, 0.0),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if self.c1 + self.c2 <= 0.0:
            raise FieldError("c2", "c1 + c2 must be > 0 so concentration stays positive")

    def check_depth(self, ell: float) -> float:
        """``ell`` as a float; a :class:`FieldError` unless it lies in [1, L]."""
        depth = _check_real("ell", ell)
        if depth < 1.0 or depth > self.n_layers:
            raise FieldError("ell", f"depth must lie in [1, {self.n_layers}], got {ell}")
        return depth

    def check_target(self, p0: float) -> float:
        """``p0`` as a float; a :class:`FieldError` unless it lies in (1/J, 1)."""
        target = _check_real("p0", p0)
        if not 1.0 / self.j_classes < target < 1.0:
            raise FieldError("p0", f"must lie in (1/{self.j_classes}, 1) exclusive, got {p0}")
        return target

    @property
    def centroids(self) -> np.ndarray:
        """Class centroids on (-pi, pi], index j at -pi + (2j-1) pi / J."""
        j = np.arange(1, self.j_classes + 1, dtype=float)
        return -np.pi + (2.0 * j - 1.0) * np.pi / self.j_classes


@dataclass(frozen=True)
class QuantizerSpec:
    """Uniform quantizer range plus the admissible bit-width alphabet.

    Leaving ``bit_alphabet`` as ``None`` selects the full range
    ``{0, 1, ..., q_max}``; an explicitly empty alphabet is rejected.
    """

    c_min: float
    c_max: float
    q_max: int = 32
    bit_alphabet: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        for name in ("c_min", "c_max"):
            object.__setattr__(self, name, _check_real(name, getattr(self, name)))
        span = self.c_max - self.c_min
        if not (span > 0.0 and math.isfinite(span * span)):  # the variance squares the range
            message = (f"must exceed c_min ({self.c_min!r}) by a finite range whose square "
                       f"is finite, got {self.c_max!r}")
            raise FieldError("c_max", message)
        q_max = _check_int("q_max", self.q_max, 0)
        object.__setattr__(self, "q_max", q_max)
        if self.bit_alphabet is None:
            object.__setattr__(self, "bit_alphabet", tuple(range(q_max + 1)))
            return
        alphabet = _check_increasing("bit_alphabet", self.bit_alphabet, 0)
        if alphabet[-1] > q_max:  # increasing, so only the last entry can exceed it
            i = len(alphabet) - 1
            raise FieldError(f"bit_alphabet[{i}]", f"must be <= q_max ({q_max}), got {alphabet[i]}")
        object.__setattr__(self, "bit_alphabet", alphabet)

    @property
    def quant_range(self) -> float:
        return self.c_max - self.c_min


def quant_variance(q: float, spec: QuantizerSpec) -> float:
    """Element-wise quantization distortion variance for (fractional) bit-width q.

    An average bit-width ``q = q0 + (1 - alpha)`` stands for quantizing an
    ``alpha`` fraction of the features at ``q0`` bits and the rest at
    ``q0 + 1``, giving variance ``(1 + 3 alpha)/4 * range^2 / (12 * 4^q0)``.
    At integer q this reduces exactly to ``range^2 / (12 * 4^q)``.
    """
    return _quant_variance(_check_real("q", q, 0.0), spec)


def _quant_variance(q: float, spec: QuantizerSpec) -> float:
    """:func:`quant_variance` of a finite ``q >= 0``, unchecked."""
    q0 = int(math.floor(q))
    alpha = 1.0 - (q - q0)
    # exact power-of-two scaling; underflows to 0 instead of overflowing for
    # the huge bit-widths the continuous relaxation can produce
    base = math.ldexp(spec.quant_range**2 / 12.0, -2 * min(q0, 2048))
    return (1.0 + 3.0 * alpha) / 4.0 * base


def kappa_bar(ell: float, profile: FeatureProfile) -> float:
    """Undistorted concentration at depth ell: ``c1 ell + c2``, saturated at ``KAPPA_MAX``.

    [0, ``KAPPA_MAX``] is the package's one concentration domain: every
    concentration the model computes, scores or samples lies in it.
    """
    return _kappa_bar(profile.check_depth(ell), profile)


def _kappa_bar(ell: float, profile: FeatureProfile) -> float:
    return min(profile.c1 * ell + profile.c2, KAPPA_MAX)


def grad_energy(ell: float, profile: FeatureProfile) -> float:
    """Angular noise amplification at depth ell: ``c3 exp(-c4 ell)``."""
    return _grad_energy(profile.check_depth(ell), profile)


def _grad_energy(ell: float, profile: FeatureProfile) -> float:
    return profile.c3 * math.exp(-profile.c4 * ell)


def kappa_distorted(sigma2: float, ell: float, profile: FeatureProfile) -> float:
    """Concentration after quantization noise of variance sigma2 propagates to depth ell.

    The distorted resultant is the product of the clean resultant and the
    circular first moment ``exp(-sigma2 * grad_energy(ell) / 2)`` of the
    induced angular noise; inverting the resultant map returns the shrunken
    concentration, never above ``kappa_bar(ell)``.  Where that moment rounds
    to 1 the noise vanishes, and ``kappa_bar(ell)`` is returned exactly
    without evaluating the resultant map.
    """
    return _distorted(_check_real("sigma2", sigma2, 0.0), profile.check_depth(ell), profile)


def _distorted(sigma2: float, ell: float, profile: FeatureProfile) -> float:
    """:func:`kappa_distorted` of a checked ``sigma2 >= 0`` and depth in [1, L], unchecked."""
    kbar, shrink = _kappa_bar(ell, profile), _shrink(sigma2, ell, profile)
    if shrink >= 1.0:
        return kbar
    return min(_ratio_inv(_ratio(kbar) * shrink), kbar)


def _shrink(sigma2: float, ell: float, profile: FeatureProfile) -> float:
    """The angular noise's circular first moment ``exp(-sigma2 * grad_energy(ell) / 2)``."""
    return math.exp(-0.5 * sigma2 * _grad_energy(ell, profile))


def _simpson_level(j_classes: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Level ``n`` of the Simpson ladder on [0, pi/J]: ``cos(x) - 1`` at the
    ``n + 1`` nodes and the weights 1, 4, 2, ..., 4, 1, both read-only."""
    a = np.pi / j_classes
    # linspace(0, a, n + 1)'s own arithmetic, bit for bit: a / n > 0 skips its zero-step branch
    x = np.arange(n + 1.0)
    x *= a / n
    x[-1] = a
    cos_m1 = np.cos(x) - 1.0
    weights = np.ones_like(cos_m1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    cos_m1.flags.writeable = weights.flags.writeable = False
    return cos_m1, weights


# Module state: the levels of up to 2^12 intervals, at most _LADDER_ENTRIES of
# them (about 4 MB), least recently used first out.  Entries are read-only and
# equal to a fresh build, so a hit, a miss or an eviction gives the same bits.
_cached_level = functools.lru_cache(maxsize=_LADDER_ENTRIES)(_simpson_level)


def accuracy_of_kappa(kappa: float, j_classes: int) -> float:
    """MAP accuracy for J equally spaced classes at shared concentration kappa.

    Evaluates ``int_0^{pi/J} exp(kappa cos x) / (pi I0(kappa)) dx`` with the
    scaled integrand and composite Simpson refinement until the relative
    change drops below 1e-9; an :class:`ArithmeticError` naming kappa and J
    is raised if 2^20 intervals do not get there.  kappa is saturated at
    ``KAPPA_MAX``, as the sampler clips it.  Each level's nodes and weights
    up to 2^12 intervals come from a bounded read-only cache.
    """
    kappa = min(_check_real("kappa", kappa, 0.0), KAPPA_MAX)
    return _accuracy(kappa, _check_int("j_classes", j_classes, 2))


def _accuracy(kappa: float, j_classes: int) -> float:
    """:func:`accuracy_of_kappa` of a kappa in [0, ``KAPPA_MAX``] and an int J >= 2, unchecked."""
    a = np.pi / j_classes
    norm = np.pi * _i0e(kappa)
    n = 16
    prev = None
    while True:
        level = _cached_level if n <= _LADDER_MAX_NODES else _simpson_level
        cos_m1, weights = level(j_classes, n)
        value = float(weights @ np.exp(kappa * cos_m1)) * (a / n) / 3.0 / norm
        if prev is not None and abs(value - prev) <= _QUAD_REL_TOL * abs(value):
            return min(value, 1.0)
        if n >= _QUAD_MAX_NODES:
            raise ArithmeticError(
                f"accuracy at kappa={kappa!r}, J={j_classes} not converged in {n} intervals"
            )
        prev = value
        n *= 2


def accuracy_model(
    q: float, ell: float, profile: FeatureProfile, spec: QuantizerSpec
) -> float:
    """End-to-end accuracy at bit-width q and traversal depth ell.

    At ``q = 0`` this is the one-level quantizer ``validate`` simulates, not a
    plan: a plan at 0 bits sends nothing and predicts chance, ``1/J``.
    """
    sigma2 = quant_variance(q, spec)
    return _accuracy(_distorted(sigma2, profile.check_depth(ell), profile), profile.j_classes)


def error_scaling(ell: float, profile: FeatureProfile) -> float:
    """Large-depth error law for the distortion-free regime.

    ``sqrt(2) J / (pi^{3/2} sqrt(kbar)) * exp(-pi^2 kbar / (2 J^2))`` with
    ``kbar = kappa_bar(ell)``; an intermediate-regime approximation of ``1 - P``.
    """
    kbar = kappa_bar(ell, profile)
    j = profile.j_classes
    prefactor = math.sqrt(2.0) * j / (math.pi**1.5 * math.sqrt(kbar))
    return prefactor * math.exp(-(math.pi**2) / (2.0 * j * j) * kbar)


def min_depth_for_accuracy(
    sigma2: float, p0: float, profile: FeatureProfile
) -> Optional[float]:
    """Smallest continuous depth reaching accuracy p0 at quantization variance sigma2.

    Bisection over [1, n_layers] to depth tolerance 1e-6 (at most
    ``log2(n_layers / 1e-6)`` steps); ``None`` when even the full depth misses
    p0 -- infeasibility is a value the planner must handle, not an error.  As
    ``kappa = A^-1(A(kappa_bar) * shrink)`` and accuracy rises with it, a step
    tests ``A(kappa_bar) * shrink >= A(kappa0)``, with ``kappa0`` solved once
    in the end checks' bracket, 1e-13 wide.  :func:`_band` brackets that
    test's root; a bracket narrower than (1, L) is certified when its lower
    end fails the test and its upper end passes it, and is otherwise widened
    to (1, L).  Steps at or below the bracket fail and steps at or above it
    pass without evaluating, so with the whole range every step evaluates.
    Either way the depth is plain bisection's on the direct test
    bit for bit wherever the test is monotone outside the band, unless p0 is
    within kappa0's bracket of a midpoint's accuracy: there the direct test
    can pass where this one fails, and the depth can be up to the 1e-6
    tolerance above plain bisection's.  As 1 - p0 nears 1e-9 accuracy is
    not monotone in kappa to the last bit, so a result failing the direct
    test is certified by bisecting on to n_layers with it.
    """
    p0, j, top = profile.check_target(p0), profile.j_classes, float(profile.n_layers)
    sigma2 = _check_real("sigma2", sigma2, 0.0)

    def passes(ell: float) -> bool:
        return _accuracy(_distorted(sigma2, ell, profile), j) >= p0

    def reaches(ell: float) -> bool:
        return _ratio(_kappa_bar(ell, profile)) * _shrink(sigma2, ell, profile) >= r0

    def settled(ell: float) -> bool:
        return ell > below and (ell >= above or reaches(ell))

    kappa_lo = _distorted(sigma2, 1.0, profile)
    if (acc_lo := _accuracy(kappa_lo, j)) >= p0:
        return 1.0
    kappa_hi = _distorted(sigma2, top, profile)
    if (acc_hi := _accuracy(kappa_hi, j)) < p0:
        return None
    kappa0 = _solve_kappa0(p0, j, kappa_lo, acc_lo, kappa_hi, acc_hi)
    r0 = _ratio(kappa0)
    below, above = _band(sigma2, kappa0, r0, profile)
    if (below, above) != (1.0, top) and (reaches(below) or not reaches(above)):
        below, above = 1.0, top
    depth = _bisect(settled, 1.0, top)
    return depth if depth == top or passes(depth) else _bisect(passes, depth, top)


def _band(sigma2: float, kappa0: float, r0: float, profile: FeatureProfile) -> Tuple[float, float]:
    """A band ``(g - delta, g + delta)`` inside (1, L) around the root ``g`` of
    ``A(kappa_bar(ell)) * shrink(ell) = r0``, or else the whole range (1, L);
    the caller certifies a band.

    Safeguarded Newton in [1, L] from the noise-free root ``(kappa0 - c2) / c1``,
    with slope ``shrink * (A'(kappa_bar) c1 + A(kappa_bar) sigma2 c4 grad_energy / 2)``,
    ``A' = 1 - A / kappa - A^2`` (no ``c1`` term where ``kappa_bar`` is capped at
    ``KAPPA_MAX``), stops on a step within
    ``delta = 1024 ulp(r0) / slope + 1e-12 g``, far wider than the depth over
    which the test's rounding can move its answer.  The whole range if the
    slope is not positive, Newton has not stopped within ``_BAND_MAX_STEPS``
    (32) steps, or the band leaves (1, L).
    """
    first, last = 1.0, float(profile.n_layers)
    lo, hi = first, last
    ell = min(max((kappa0 - profile.c2) / profile.c1, lo), hi)
    for _ in range(_BAND_MAX_STEPS):
        kbar = _kappa_bar(ell, profile)
        a = _ratio(kbar)
        half_noise = 0.5 * sigma2 * _grad_energy(ell, profile)
        shrink = math.exp(-half_noise)  # _shrink's value, bit for bit
        slope = shrink * ((0.0 if kbar >= KAPPA_MAX else (1.0 - a / kbar - a * a) * profile.c1)
                          + a * half_noise * profile.c4)
        if not slope > 0.0:
            break
        excess = a * shrink - r0
        lo, hi = (ell, hi) if excess < 0.0 else (lo, ell)
        step = excess / slope
        root = ell - step
        delta = _BAND_ULPS * math.ulp(r0) / slope + _BAND_REL * root
        if abs(step) <= delta:
            if first < root - delta and root + delta < last:
                return root - delta, root + delta
            break
        ell = root if lo < root < hi else 0.5 * (lo + hi)
    return first, last


def _bisect(passes, lo: float, hi: float) -> float:
    """Smallest depth in (lo, hi] passing a test monotone in depth, to 1e-6."""
    while hi - lo > _DEPTH_TOL:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if passes(mid) else (mid, hi)
    return hi


def _solve_kappa0(p0, j_classes, lo, acc_lo, hi, acc_hi) -> float:
    """The kappa in [lo, hi] at which accuracy reaches p0; ``acc_lo < p0 <= acc_hi``.

    Illinois regula falsi on ``log(1 - accuracy)``, nearly linear in kappa
    (:func:`error_scaling`), until the bracket is within 1e-13 of ``hi``, which
    is returned.  Points stay half that inside, so an exact hit closes in one
    step.  A step bisects if the last three did not halve the bracket; with it
    in [0, KAPPA_MAX] and the root above ~1e-16, under 480 steps are needed.
    An :class:`ArithmeticError` is raised after ``_ROOT_MAX_STEPS`` (500).
    """
    def gain(acc: float) -> float:  # >= 0 exactly when acc >= p0
        return math.log1p(-p0) - math.log1p(-acc) if acc < 1.0 else math.inf

    gain_lo, gain_hi, widths, side = gain(acc_lo), gain(acc_hi), [math.inf] * 3, 0
    for _ in range(_ROOT_MAX_STEPS):
        width = hi - lo
        if width <= _ROOT_REL_TOL * hi:
            return hi
        secant = hi - gain_hi * width / (gain_hi - gain_lo) if gain_hi > gain_lo else math.nan
        kappa = secant if width <= 0.5 * widths[0] and lo <= secant <= hi else 0.5 * (lo + hi)
        widths, nudge = widths[1:] + [width], 0.5 * _ROOT_REL_TOL * hi
        kappa = min(max(kappa, lo + nudge), hi - nudge)
        acc = _accuracy(kappa, j_classes)
        if acc >= p0:  # Illinois: halve the stale end's gain when one end moves twice
            hi, gain_hi, gain_lo, side = kappa, gain(acc), gain_lo * (0.5 if side > 0 else 1.0), 1
        else:
            lo, gain_lo, gain_hi, side = kappa, gain(acc), gain_hi * (0.5 if side < 0 else 1.0), -1
    raise ArithmeticError(f"kappa for accuracy {p0!r}, J={j_classes} not found in [{lo!r}, {hi!r}]")
