"""Closed-form accuracy model for early-exit inference under quantization.

The chain is: bit-width -> uniform quantization variance -> effective angular
noise at a given traversal depth -> shrunken von Mises concentration -> MAP
accuracy for equally spaced class centroids.  Depth is treated as continuous and
bisected on the concentration scale (:func:`min_depth_for_accuracy`).  Pure
functions over immutable profile/spec values; safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import special

from .circstats import KAPPA_MAX, bessel_ratio, bessel_ratio_inv

__all__ = [
    "FieldError",
    "FeatureProfile",
    "QuantizerSpec",
    "quant_variance",
    "kappa_bar",
    "grad_energy",
    "kappa_distorted",
    "accuracy_of_kappa",
    "accuracy_model",
    "accuracy_erf_approx",
    "error_scaling",
    "min_depth_for_accuracy",
]

# Above this concentration the erf ratio is exact to well below the quadrature
# tolerance, so the integrator hands over to it.
_ERF_SWITCH = 1.0e4
_QUAD_REL_TOL = 1e-9
_QUAD_MAX_NODES = 2**20
_DEPTH_TOL = 1e-6
_ROOT_REL_TOL = 1e-13
_ROOT_MAX_STEPS = 500


class FieldError(ValueError):
    """An invalid input value; ``path`` names its field so a caller can re-root it."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


@dataclass(frozen=True)
class FeatureProfile:
    """Per-depth statistics of the angular features.

    ``kappa_bar(ell) = c1 ell + c2`` is the undistorted concentration and
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
        if int(self.j_classes) != self.j_classes or self.j_classes < 2:
            raise FieldError("j_classes", f"must be an integer >= 2, got {self.j_classes!r}")
        if int(self.n_layers) != self.n_layers or self.n_layers < 1:
            raise FieldError("n_layers", f"must be an integer >= 1, got {self.n_layers!r}")
        for name in ("c1", "c2", "c3", "c4"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise FieldError(name, f"must be finite, got {value!r}")
        if self.c1 <= 0.0:
            raise FieldError("c1", f"must be > 0, got {self.c1!r}")
        if self.c1 + self.c2 <= 0.0:
            raise FieldError("c2", "c1 + c2 must be > 0 so concentration stays positive")
        if self.c3 <= 0.0:
            raise FieldError("c3", f"must be > 0, got {self.c3!r}")
        if self.c4 < 0.0:
            raise FieldError("c4", f"must be >= 0, got {self.c4!r}")
        object.__setattr__(self, "j_classes", int(self.j_classes))
        object.__setattr__(self, "n_layers", int(self.n_layers))

    def check_depth(self, ell: float) -> float:
        """``ell`` as a float; a :class:`FieldError` unless it lies in [1, L]."""
        depth = float(ell)
        if not math.isfinite(depth) or depth < 1.0 or depth > self.n_layers:
            raise FieldError("ell", f"depth must lie in [1, {self.n_layers}], got {ell}")
        return depth

    def check_target(self, p0: float) -> float:
        """``p0`` as a float; a :class:`FieldError` unless it lies in (1/J, 1)."""
        target = float(p0)
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
            if not math.isfinite(getattr(self, name)):
                raise FieldError(name, f"must be finite, got {getattr(self, name)!r}")
        if not self.c_max > self.c_min:
            raise FieldError("c_max", f"must exceed c_min ({self.c_min!r}), got {self.c_max!r}")
        if int(self.q_max) != self.q_max or self.q_max < 0:
            raise FieldError("q_max", f"must be a nonnegative integer, got {self.q_max!r}")
        object.__setattr__(self, "q_max", int(self.q_max))
        if self.bit_alphabet is None:
            object.__setattr__(self, "bit_alphabet", tuple(range(self.q_max + 1)))
            return
        alphabet = tuple(self.bit_alphabet)
        if not alphabet:
            raise FieldError("bit_alphabet", "must be nonempty")
        for i, b in enumerate(alphabet):
            if int(b) != b or not 0 <= b <= self.q_max:
                raise FieldError(
                    f"bit_alphabet[{i}]", f"must be an integer in [0, {self.q_max}], got {b!r}"
                )
        alphabet = tuple(int(b) for b in alphabet)
        if any(b <= a for a, b in zip(alphabet, alphabet[1:])):
            raise FieldError("bit_alphabet", "must be strictly increasing")
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
    q = float(q)
    if not math.isfinite(q) or q < 0.0:
        raise ValueError(f"q must be a finite nonnegative real, got {q!r}")
    q0 = int(math.floor(q))
    alpha = 1.0 - (q - q0)
    # exact power-of-two scaling; underflows to 0 instead of overflowing for
    # the huge bit-widths the continuous relaxation can produce
    base = math.ldexp(spec.quant_range**2 / 12.0, -2 * min(q0, 2048))
    return (1.0 + 3.0 * alpha) / 4.0 * base


def kappa_bar(ell: float, profile: FeatureProfile) -> float:
    """Undistorted concentration at depth ell: ``c1 ell + c2``."""
    ell = profile.check_depth(ell)
    return profile.c1 * ell + profile.c2


def grad_energy(ell: float, profile: FeatureProfile) -> float:
    """Angular noise amplification at depth ell: ``c3 exp(-c4 ell)``."""
    ell = profile.check_depth(ell)
    return profile.c3 * math.exp(-profile.c4 * ell)


def kappa_distorted(sigma2: float, ell: float, profile: FeatureProfile) -> float:
    """Concentration after quantization noise of variance sigma2 propagates to depth ell.

    The distorted resultant is the product of the clean resultant and the
    circular first moment ``exp(-sigma2 * grad_energy(ell) / 2)`` of the
    induced angular noise; inverting the resultant map returns the shrunken
    concentration.  Never exceeds ``kappa_bar(ell)``, and equals it exactly
    when the effective noise vanishes.
    """
    sigma2 = float(sigma2)
    if not math.isfinite(sigma2) or sigma2 < 0.0:
        raise ValueError(f"sigma2 must be a finite nonnegative real, got {sigma2!r}")
    kbar = kappa_bar(ell, profile)
    shrink = math.exp(-0.5 * sigma2 * grad_energy(ell, profile))
    if shrink >= 1.0:
        return kbar
    r = bessel_ratio(min(kbar, KAPPA_MAX)) * shrink
    return min(bessel_ratio_inv(r).value, kbar)


def _simpson(values: np.ndarray, h: float) -> float:
    weights = np.ones_like(values)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(weights @ values) * h / 3.0


def accuracy_of_kappa(kappa: float, j_classes: int) -> float:
    """MAP accuracy for J equally spaced classes at shared concentration kappa.

    Evaluates ``int_0^{pi/J} exp(kappa cos x) / (pi I0(kappa)) dx`` with the
    scaled integrand and composite Simpson refinement until the relative
    change drops below 1e-9 (node cap 2^20).  For kappa above 1e4 the erf
    ratio is used instead; its error there is below the quadrature tolerance.
    """
    kappa = float(kappa)
    if not math.isfinite(kappa) or kappa < 0.0:
        raise ValueError(f"kappa must be a finite nonnegative real, got {kappa!r}")
    j_classes = int(j_classes)
    if j_classes < 2:
        raise ValueError(f"j_classes must be >= 2, got {j_classes}")
    if kappa > _ERF_SWITCH:
        return accuracy_erf_approx(kappa, j_classes)

    a = np.pi / j_classes
    norm = np.pi * float(special.i0e(kappa))
    n = 16
    prev = None
    while True:
        x = np.linspace(0.0, a, n + 1)
        integral = _simpson(np.exp(kappa * (np.cos(x) - 1.0)), a / n)
        value = integral / norm
        if prev is not None and abs(value - prev) <= _QUAD_REL_TOL * abs(value):
            break
        if n >= _QUAD_MAX_NODES:
            break
        prev = value
        n *= 2
    return min(value, 1.0)


def accuracy_model(
    q: float, ell: float, profile: FeatureProfile, spec: QuantizerSpec
) -> float:
    """End-to-end accuracy at bit-width q and traversal depth ell."""
    sigma2 = quant_variance(q, spec)
    return accuracy_of_kappa(kappa_distorted(sigma2, ell, profile), profile.j_classes)


def accuracy_erf_approx(kappa: float, j_classes: int) -> float:
    """Gaussian-limit accuracy ``erf((pi/J) sqrt(k/2)) / erf(pi sqrt(k/2))``."""
    kappa = float(kappa)
    if not math.isfinite(kappa) or kappa <= 0.0:
        raise ValueError(f"kappa must be a finite positive real, got {kappa!r}")
    j_classes = int(j_classes)
    if j_classes < 2:
        raise ValueError(f"j_classes must be >= 2, got {j_classes}")
    root = math.sqrt(0.5 * kappa)
    return math.erf(math.pi / j_classes * root) / math.erf(math.pi * root)


def error_scaling(ell: float, profile: FeatureProfile) -> float:
    """Large-depth error law for the distortion-free regime.

    ``sqrt(2) J / (pi^{3/2} sqrt(kbar)) * exp(-pi^2 kbar / (2 J^2))`` with
    ``kbar = c1 ell + c2``; an intermediate-regime approximation of ``1 - P``.
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
    tests ``A(kappa_bar) * shrink >= A(kappa0)``, with ``kappa0`` solved once in
    the end checks' bracket.  As 1 - p0 nears 1e-9 accuracy is not monotone in
    kappa to the last bit, so a result failing the direct test is certified by
    bisecting on to n_layers with it; past ``KAPPA_MAX`` it is used throughout.
    """
    p0, j, top = profile.check_target(p0), profile.j_classes, float(profile.n_layers)

    def passes(ell: float) -> bool:
        return accuracy_of_kappa(kappa_distorted(sigma2, ell, profile), j) >= p0

    def reaches(ell: float) -> bool:  # the resultant kappa_distorted inverts
        shrink = math.exp(-0.5 * sigma2 * grad_energy(ell, profile))
        return bessel_ratio(min(kappa_bar(ell, profile), KAPPA_MAX)) * shrink >= r0

    kappa_lo = kappa_distorted(sigma2, 1.0, profile)
    if (acc_lo := accuracy_of_kappa(kappa_lo, j)) >= p0:
        return 1.0
    kappa_hi = kappa_distorted(sigma2, top, profile)
    if (acc_hi := accuracy_of_kappa(kappa_hi, j)) < p0:
        return None
    if kappa_hi > KAPPA_MAX:
        return _bisect(passes, 1.0, top)
    r0 = bessel_ratio(_solve_kappa0(p0, j, kappa_lo, acc_lo, kappa_hi, acc_hi))
    depth = _bisect(reaches, 1.0, top)
    return depth if depth == top or passes(depth) else _bisect(passes, depth, top)


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
        acc = accuracy_of_kappa(kappa, j_classes)
        if acc >= p0:  # Illinois: halve the stale end's gain when one end moves twice
            hi, gain_hi, gain_lo, side = kappa, gain(acc), gain_lo * (0.5 if side > 0 else 1.0), 1
        else:
            lo, gain_lo, gain_hi, side = kappa, gain(acc), gain_hi * (0.5 if side < 0 else 1.0), -1
    raise ArithmeticError(f"kappa for accuracy {p0!r}, J={j_classes} not found in [{lo!r}, {hi!r}]")
