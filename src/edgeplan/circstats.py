"""Circular-statistics kernel.

The concentration-ratio map ``A(k) = I1(k)/I0(k)`` and its inverse, von Mises
sampling, the wrapped-Gaussian match, and resultant-length concentration
estimators.

All angles live on ``(-pi, pi]``; the representative of ``-pi`` is mapped to
``+pi``.  Every Bessel path uses exponentially scaled forms so concentrations
up to :data:`KAPPA_MAX` never overflow.  All functions are pure and reentrant;
the sampler takes an explicit seed and owns no global state, so parallel
callers only need distinct ``(seed, stream)`` pairs (see :mod:`edgeplan.rng`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from scipy import special

from .rng import make_rng

__all__ = [
    "KAPPA_MAX",
    "KappaResult",
    "VonMisesParams",
    "AngularSampleSet",
    "wrap_angle",
    "bessel_ratio",
    "bessel_ratio_inv",
    "vm_sample",
    "sample_von_mises",
    "estimate_kappa",
    "estimate_kappa_pooled",
    "wrapped_gaussian_kappa",
]

TWO_PI = 2.0 * np.pi

# Saturation cap for concentrations.  A(kappa) is 1 to machine precision far
# below this, so capping keeps downstream arithmetic finite without changing
# any observable probability.
KAPPA_MAX = 1.0e6

_INV_TOL = 1e-10
_INV_MAX_ITER = 200
_RESULTANT_SATURATION = 1.0 - 1e-12
# Uniform-sampling shortcut threshold used by the rejection sampler.
_KAPPA_UNIFORM = 1e-8


class KappaResult(NamedTuple):
    """A concentration value plus a flag marking saturation at KAPPA_MAX."""

    value: float
    saturated: bool


def _check_scalar(name: str, x: float) -> float:
    x = float(x)
    if not np.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def _check_nonneg(name: str, x: float) -> float:
    x = _check_scalar(name, x)
    if x < 0.0:
        raise ValueError(f"{name} must be >= 0, got {x!r}")
    return x


def wrap_angle(theta):
    """Reduce angles to ``(-pi, pi]``; ``-pi`` maps to ``+pi``.

    Accepts scalars or arrays and preserves shape.
    """
    th = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(th)):
        raise ValueError("angles must be finite")
    out = np.pi - np.mod(np.pi - th, TWO_PI)
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Bessel ratio map and inverse
# ---------------------------------------------------------------------------


def bessel_ratio(kappa: float) -> float:
    """Mean resultant length ``A(kappa) = I1(kappa)/I0(kappa)`` in [0, 1)."""
    kappa = _check_nonneg("kappa", kappa)
    # the exponential scales cancel exactly in the ratio
    return float(special.i1e(kappa) / special.i0e(kappa))


# Largest resultant representable under the saturation cap.
_RESULTANT_CAP = float(special.i1e(KAPPA_MAX) / special.i0e(KAPPA_MAX))


def _bessel_ratio_deriv(kappa: float, a: float) -> float:
    # d/dk [I1/I0] = 1 - A/k - A^2, with the k->0 limit 1/2
    if kappa <= 0.0:
        return 0.5
    return 1.0 - a / kappa - a * a


def bessel_ratio_inv(r: float) -> KappaResult:
    """Invert the resultant map: find kappa with ``bessel_ratio(kappa) = r``.

    Safeguarded Newton iteration from the closed-form seed
    ``r (2 - r^2) / (1 - r^2)``, falling back to bisection whenever a step
    leaves the current bracket.  Saturates (with flag) once the solution
    would exceed :data:`KAPPA_MAX`.
    """
    r = _check_scalar("r", r)
    if r < 0.0 or r >= 1.0:
        raise ValueError(f"r must lie in [0, 1), got {r!r}")
    if r == 0.0:
        return KappaResult(0.0, False)
    if r >= _RESULTANT_CAP:
        return KappaResult(KAPPA_MAX, True)

    kappa = r * (2.0 - r * r) / (1.0 - r * r)
    lo = 0.0
    hi = max(2.0 * kappa, 1.0)
    while bessel_ratio(hi) < r:
        hi *= 2.0
    kappa = min(max(kappa, lo), hi)

    for _ in range(_INV_MAX_ITER):
        a = bessel_ratio(kappa)
        if a < r:
            lo = kappa
        else:
            hi = kappa
        da = _bessel_ratio_deriv(kappa, a)
        if da > 0.0 and np.isfinite(da):
            nxt = kappa - (a - r) / da
        else:
            nxt = 0.5 * (lo + hi)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - kappa) <= _INV_TOL * abs(nxt):
            kappa = nxt
            break
        kappa = nxt

    if kappa >= KAPPA_MAX:
        return KappaResult(KAPPA_MAX, True)
    return KappaResult(float(kappa), False)


# ---------------------------------------------------------------------------
# von Mises sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VonMisesParams:
    """Mean direction ``mu`` in (-pi, pi] and concentration ``kappa`` >= 0."""

    mu: float
    kappa: float

    def __post_init__(self) -> None:
        mu = _check_scalar("mu", self.mu)
        kappa = _check_nonneg("kappa", self.kappa)
        if not (-np.pi < mu <= np.pi):
            raise ValueError(f"mu must lie in (-pi, pi], got {mu!r}")
        if kappa > KAPPA_MAX:
            raise ValueError(f"kappa exceeds KAPPA_MAX ({KAPPA_MAX:g}), got {kappa!r}")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kappa", kappa)


@dataclass(frozen=True, eq=False)
class AngularSampleSet:
    """Angles on (-pi, pi] with optional 1-based integer class labels."""

    angles: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        angles = np.asarray(self.angles, dtype=float)
        if angles.ndim != 1:
            raise ValueError("angles must be one-dimensional")
        if not np.all(np.isfinite(angles)):
            raise ValueError("angles must be finite")
        if angles.size and (angles.min() <= -np.pi or angles.max() > np.pi):
            raise ValueError("angles must lie in (-pi, pi]")
        object.__setattr__(self, "angles", angles)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != angles.shape:
                raise ValueError("labels must match angles in length")
            if labels.size and labels.min() < 1:
                raise ValueError("labels must be 1-based class indices")
            object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return int(self.angles.size)


def sample_von_mises(rng: np.random.Generator, mu: float, kappa: float, n: int) -> np.ndarray:
    """Draw ``n`` von Mises angles on (-pi, pi] from an explicit generator.

    Best-Fisher rejection sampling via numpy, with concentrations below
    ``1e-8`` short-circuiting to the uniform distribution.
    """
    kappa = min(_check_nonneg("kappa", kappa), KAPPA_MAX)
    if kappa < _KAPPA_UNIFORM:
        angles = rng.uniform(-np.pi, np.pi, size=n)
    else:
        angles = rng.vonmises(mu, kappa, size=n)
    # numpy reports the closed interval [-pi, pi]; remap the lone boundary point
    return np.where(angles <= -np.pi, np.pi, angles)


def vm_sample(params: VonMisesParams, n: int, seed: int) -> AngularSampleSet:
    """Draw ``n`` independent samples from ``vM(mu, kappa)``, deterministically."""
    n = int(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    angles = sample_von_mises(make_rng(seed), params.mu, params.kappa, n)
    return AngularSampleSet(angles=angles)


# ---------------------------------------------------------------------------
# Concentration estimators
# ---------------------------------------------------------------------------


def _kappa_from_angles(angles: np.ndarray) -> KappaResult:
    n = angles.size
    c = float(np.cos(angles).sum())
    s = float(np.sin(angles).sum())
    # normalized resultant length in [0, 1]
    rbar = min(np.hypot(c, s) / n, 1.0)
    if rbar >= _RESULTANT_SATURATION:
        return KappaResult(KAPPA_MAX, True)
    return bessel_ratio_inv(rbar)


def estimate_kappa(samples: AngularSampleSet) -> KappaResult:
    """Concentration estimate ``A^-1(Rbar)`` from single-class samples.

    ``Rbar`` is the normalized resultant length; near-collinear samples
    (``Rbar >= 1 - 1e-12``) saturate to ``KAPPA_MAX`` with the flag set.
    """
    if len(samples) < 2:
        raise ValueError("estimate_kappa needs at least 2 samples")
    return _kappa_from_angles(samples.angles)


def estimate_kappa_pooled(samples: AngularSampleSet, j_classes: int) -> KappaResult:
    """Mean of per-class concentration estimates over classes 1..j_classes."""
    j_classes = int(j_classes)
    if j_classes < 1:
        raise ValueError(f"j_classes must be >= 1, got {j_classes}")
    if samples.labels is None:
        raise ValueError("pooled estimation requires labeled samples")
    values = []
    saturated = False
    for j in range(1, j_classes + 1):
        angles = samples.angles[samples.labels == j]
        if angles.size < 2:
            raise ValueError(f"class {j} needs at least 2 samples, got {angles.size}")
        est = _kappa_from_angles(angles)
        values.append(est.value)
        saturated = saturated or est.saturated
    return KappaResult(float(np.mean(values)), saturated)


def wrapped_gaussian_kappa(sigma2: float) -> KappaResult:
    """Concentration of the von Mises matched to a wrapped Gaussian.

    ``A^-1(exp(-sigma2 / 2))``: the circular first moment of a Gaussian with
    variance ``sigma2`` wrapped onto the circle, pushed through the inverse
    resultant map.  ``sigma2 = 0`` saturates to ``KAPPA_MAX`` with the flag.
    """
    sigma2 = _check_nonneg("sigma2", sigma2)
    r = float(np.exp(-0.5 * sigma2))
    if r >= 1.0:
        return KappaResult(KAPPA_MAX, True)
    return bessel_ratio_inv(r)
