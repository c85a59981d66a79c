"""Circular-statistics kernel.

The concentration-ratio map ``A(k) = I1(k)/I0(k)`` and its inverse, von Mises
sampling, the wrapped-Gaussian match, and resultant-length concentration
estimators.

All angles live on ``(-pi, pi]``; the representative of ``-pi`` is mapped to
``+pi``.  Every Bessel path uses exponentially scaled forms so concentrations
up to :data:`KAPPA_MAX` never overflow; ``_i0e`` and ``_ratio`` sum Cephes'
tables here, so the package needs numpy alone.  All functions are pure and
reentrant; the sampler draws from a generator the caller passes and owns no
global state, so parallel callers only need distinct ``(seed, stream)`` pairs
(see :mod:`edgeplan.rng`).  Public functions check their inputs; private
cores (``_ratio``, ``_ratio_inv``, ``_wrap``) do the work on checked values,
so hot callers call them and the work is counted there.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

__all__ = [
    "FieldError",
    "KAPPA_MAX",
    "KappaResult",
    "AngularSampleSet",
    "wrap_angle",
    "bessel_ratio",
    "bessel_ratio_inv",
    "sample_von_mises",
    "estimate_kappa",
    "estimate_kappa_pooled",
    "wrapped_gaussian_kappa",
]

TWO_PI = 2.0 * np.pi

# Saturation cap for concentrations: [0, KAPPA_MAX] is the package's one
# concentration domain, so kappa_bar, accuracy_of_kappa and sample_von_mises all
# saturate here, and the resultant map and its inverse stay finite.  It is
# observable at many classes: MAP accuracy for J = 1e4 would be 0.2660 at kappa =
# 1.17e6 but is 0.2466 at the cap (0.99932 and 0.99832 for J = 1000).
KAPPA_MAX = 1.0e6

_INV_TOL = 1e-10
_INV_MAX_ITER = 200


class KappaResult(NamedTuple):
    """A concentration value plus a flag marking saturation at KAPPA_MAX."""

    value: float
    saturated: bool


class FieldError(ValueError):
    """An invalid input value; ``path`` names its field so a caller can re-root it."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


def _is_real(x) -> bool:
    """Whether ``x`` is an int, float or numpy number; a bool is none."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _check_real(name: str, x: float, low: float = -math.inf, strict: bool = False) -> float:
    """``x`` as a float; a :class:`FieldError` naming ``name`` unless it is a
    real (:func:`_is_real`) that is finite and at least ``low`` (above it, if
    ``strict``)."""
    value = x
    if type(x) is not float:  # floats, the common case, skip the type tests
        if not _is_real(x):
            value = math.nan
        else:
            try:
                x = value = float(x)
            except OverflowError:  # an integer beyond the float range
                x = value = math.inf
    if not (math.isfinite(value) and (value > low if strict else value >= low)):
        bound = f" {'>' if strict else '>='} {low:g}" if low > -math.inf else ""
        raise FieldError(name, f"must be a finite real{bound}, got {x!r}")
    return value


def _check_int(name: str, x: int, low: float = -math.inf) -> int:
    """``x`` as an int; a :class:`FieldError` naming ``name`` unless it is an
    int or numpy integer (not a bool, not an integral float) >= ``low``."""
    if isinstance(x, bool) or not isinstance(x, (int, np.integer)) or x < low:
        bound = f" >= {low}" if low > -math.inf else ""
        raise FieldError(name, f"must be an integer{bound}, got {x!r}")
    return int(x)


def _check_increasing(name: str, seq: Iterable, low: int) -> Tuple[int, ...]:
    """``seq`` as a tuple; a :class:`FieldError` naming ``name`` (or its entry
    ``name[i]``) unless it is a nonempty, strictly increasing sequence of
    integers >= ``low``.  A number, a string or a mapping is no sequence."""
    if isinstance(seq, (str, bytes, Mapping)) or not isinstance(seq, Iterable):
        raise FieldError(name, f"must be a sequence of integers, got {seq!r}")
    values = tuple(_check_int(f"{name}[{i}]", x, low) for i, x in enumerate(seq))
    if not values:
        raise FieldError(name, "must be nonempty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise FieldError(name, "must be strictly increasing")
    return values


def _real_array(name: str, x) -> np.ndarray:
    """``x`` as a float array; a :class:`FieldError` naming ``name`` unless it is an array of
    integer or floating dtype or each entry passes :func:`_is_real`, the scalar rule's test."""
    if not isinstance(x, np.ndarray):
        x = np.asarray(x, dtype=object)  # the entries as passed: a float dtype reads True as 1.0
        for entry in x.flat:
            if not _is_real(entry):
                raise FieldError(name, f"must be reals, got {entry!r}")
    elif x.dtype.kind not in "iuf":
        raise FieldError(name, f"must be reals, got dtype {x.dtype}")
    try:
        return np.asarray(x, dtype=float)
    except OverflowError:
        raise FieldError(name, "must be finite reals, got an int beyond the float range") from None


def _check_finite(name: str, x) -> np.ndarray:
    """:func:`_real_array` of ``x``; a :class:`FieldError` naming ``name`` unless all are finite."""
    values = _real_array(name, x)
    finite = np.isfinite(values)
    if not finite.all():
        raise FieldError(name, f"must be finite reals, got {float(values[~finite][0])!r}")
    return values


def wrap_angle(theta):
    """Reduce angles to ``(-pi, pi]``; ``-pi`` maps to ``+pi``.

    Accepts scalars or arrays, preserves shape and never changes its input.
    """
    th = _check_finite("theta", theta)
    out = _wrap(th, out=np.empty_like(th))
    return float(out) if out.ndim == 0 else out


def _wrap(th: np.ndarray, out: np.ndarray) -> np.ndarray:
    """:func:`wrap_angle` of finite angles ``th`` into ``out`` (``th`` itself or new), unchecked.

    ``np.mod`` returns a value already in [0, 2 pi) unchanged, so only the
    angles off the circle are reduced, with the same result bit for bit.
    """
    th = np.subtract(np.pi, th, out=out)
    off = (th < 0.0) | (th >= TWO_PI)
    np.mod(th, TWO_PI, out=th, where=off)
    return np.subtract(np.pi, th, out=th)


# ---------------------------------------------------------------------------
# Bessel ratio map and inverse
# ---------------------------------------------------------------------------


# Cephes' Chebyshev tables (Moshier, *Methods and Programs for Mathematical
# Functions*, 1989), highest order first, as scipy.special's i0e and i1e sum
# them.  On [0, 8] the series run in t = x/4 - 1 for exp(-x) I0(x) and
# exp(-x) I1(x) / x; above 8 in t = 16/x - 1 for exp(-x) I0(x) sqrt(x) and
# exp(-x) I1(x) sqrt(x).  tests/test_circstats.py regenerates all four.
_I0E_HEAD = (
    -4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16,
    1.715391285555133e-15, -1.1685332877993451e-14, 7.676185498604936e-14,
    -4.856446783111929e-13, 2.95505266312964e-12, -1.726826291441556e-11,
    9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
    -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07,
    1.1173875391201037e-06, -4.4167383584587505e-06, 1.6448448070728896e-05,
    -5.754195010082104e-05, 0.00018850288509584165, -0.0005763755745385824,
    0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
    -0.02373741480589947, 0.04930528423967071, -0.09490109704804764,
    0.17162090152220877, -0.3046826723431984, 0.6767952744094761,
)
_I0E_TAIL = (
    -7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17,
    3.461222867697461e-17, -2.8276239805165836e-16, -3.425485619677219e-16,
    1.7725601330565263e-15, 3.8116806693526224e-15, -9.554846698828307e-15,
    -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
    7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11,
    -3.1499165279632416e-11, 1.1889147107846439e-11, 4.94060238822497e-10,
    3.3962320257083865e-09, 2.266668990498178e-08, 2.0489185894690638e-07,
    2.8913705208347567e-06, 6.889758346916825e-05, 0.0033691164782556943,
    0.8044904110141088,
)
_I1E_HEAD = (
    2.7779141127610464e-18, -2.111421214358166e-17, 1.5536319577362005e-16,
    -1.1055969477353862e-15, 7.600684294735408e-15, -5.042185504727912e-14,
    3.223793365945575e-13, -1.9839743977649436e-12, 1.1736186298890901e-11,
    -6.663489723502027e-11, 3.625590281552117e-10, -1.8872497517228294e-09,
    9.381537386495773e-09, -4.445059128796328e-08, 2.0032947535521353e-07,
    -8.568720264695455e-07, 3.4702513081376785e-06, -1.3273163656039436e-05,
    4.781565107550054e-05, -0.00016176081582589674, 0.0005122859561685758,
    -0.0015135724506312532, 0.004156422944312888, -0.010564084894626197,
    0.024726449030626516, -0.05294598120809499, 0.1026436586898471,
    -0.17641651835783406, 0.25258718644363365,
)
_I1E_TAIL = (
    7.517296310842105e-18, 4.414348323071708e-18, -4.6503053684893586e-17,
    -3.209525921993424e-17, 2.96262899764595e-16, 3.3082023109209285e-16,
    -1.8803547755107825e-15, -3.8144030724370075e-15, 1.0420276984128802e-14,
    4.272440016711951e-14, -2.1015418427726643e-14, -4.0835511110921974e-13,
    -7.198551776245908e-13, 2.0356285441470896e-12, 1.4125807436613782e-11,
    3.2526035830154884e-11, -1.8974958123505413e-11, -5.589743462196584e-10,
    -3.835380385964237e-09, -2.6314688468895196e-08, -2.512236237870209e-07,
    -3.882564808877691e-06, -0.00011058893876262371, -0.009761097491361469,
    0.7785762350182801,
)


def _i0e(x: float) -> float:
    """``exp(-x) I0(x)`` for finite ``x >= 0``, bit for bit as Cephes' ``i0e``: its
    table summed by Cephes' ``chbevl`` recurrence, in its operation order."""
    y, table = (x / 2.0 - 2.0, _I0E_HEAD) if x <= 8.0 else (32.0 / x - 2.0, _I0E_TAIL)
    b0 = b1 = b2 = 0.0  # the first step leaves b0 = table[0] and b1 = 0.0 exactly, as chbevl starts
    for c in table:
        b0, b1, b2 = y * b0 - b1 + c, b0, b1
    return 0.5 * (b0 - b2) if x <= 8.0 else 0.5 * (b0 - b2) / math.sqrt(x)


# I0's and I1's tables side by side for one Clenshaw loop (a leading 0.0 step
# leaves I1's zero start as it is), as (every pair but the last, the last pair)
_HEAD_PAIRS = tuple(zip(_I0E_HEAD, (0.0,) + _I1E_HEAD))
_TAIL_PAIRS = tuple(zip(_I0E_TAIL, _I1E_TAIL))
_HEAD_STEPS, _TAIL_STEPS = ((pairs[:-1], pairs[-1]) for pairs in (_HEAD_PAIRS, _TAIL_PAIRS))


def bessel_ratio(kappa: float) -> float:
    """Mean resultant length ``A(kappa) = I1(kappa)/I0(kappa)`` in [0, 1)."""
    return _ratio(_check_real("kappa", kappa, 0.0))


def _ratio(x: float) -> float:
    """:func:`bessel_ratio` of a finite ``x >= 0``, unchecked: Cephes' ``i1e(x) / i0e(x)``
    bit for bit, both series summed in ``chbevl``'s operation order (the scales cancel)."""
    head = x <= 8.0
    y = x / 2.0 - 2.0 if head else 32.0 / x - 2.0
    pairs, (c, d) = _HEAD_STEPS if head else _TAIL_STEPS
    a0 = a1 = b0 = b1 = 0.0
    for e, f in pairs:  # chbevl's third term is needed only after the last step
        a0, a1 = y * a0 - a1 + e, a0
        b0, b1 = y * b0 - b1 + f, b0
    a0, a2, b0, b2 = y * a0 - a1 + c, a1, y * b0 - b1 + d, b1
    if head:
        return 0.5 * (b0 - b2) * x / (0.5 * (a0 - a2))
    root = math.sqrt(x)
    return 0.5 * (b0 - b2) / root / (0.5 * (a0 - a2) / root)


# Resultant at the saturation cap; any resultant at or above it inverts to
# KAPPA_MAX with the flag set, so estimators clip to it rather than test it.
_RESULTANT_CAP = _ratio(KAPPA_MAX)


def bessel_ratio_inv(r: float) -> KappaResult:
    """Invert the resultant map: find kappa with ``bessel_ratio(kappa) = r``.

    Safeguarded Newton iteration from the closed-form seed
    ``r (2 - r^2) / (1 - r^2)``, falling back to bisection whenever a step
    is undefined or leaves the current bracket, until a step moves kappa by
    at most 1e-10 relative.  Saturates (with flag) once the solution would
    exceed :data:`KAPPA_MAX`.  Every r in [1e-300, the resultant at ``KAPPA_MAX``)
    converges within 30 steps; an :class:`ArithmeticError` naming r is raised
    after ``_INV_MAX_ITER`` (200).
    """
    r = _check_real("r", r, 0.0)
    if r >= 1.0:
        raise FieldError("r", f"must lie in [0, 1), got {r!r}")
    return _ratio_inv(r)


def _ratio_inv(r: float) -> KappaResult:
    """:func:`bessel_ratio_inv` of a resultant ``r`` in [0, 1), unchecked."""
    if r == 0.0:
        return KappaResult(0.0, False)
    if r >= _RESULTANT_CAP:
        return KappaResult(KAPPA_MAX, True)

    kappa = r * (2.0 - r * r) / (1.0 - r * r)
    lo = 0.0
    hi = max(2.0 * kappa, 1.0)
    while _ratio(hi) < r:  # a guard: the seed's bracket already holds r
        hi *= 2.0

    for _ in range(_INV_MAX_ITER):
        a = _ratio(kappa)
        if a < r:
            lo = kappa
        else:
            hi = kappa
        # d/dk [I1/I0] = 1 - A/k - A^2, or 1/2 where bisection underflows to k = 0
        # (r = 5e-324); a non-positive slope's NaN step is bisected instead
        da = 1.0 - a / kappa - a * a if kappa > 0.0 else 0.5
        nxt = kappa - (a - r) / da if da > 0.0 else math.nan
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - kappa) <= _INV_TOL * abs(nxt):
            if nxt >= KAPPA_MAX:
                return KappaResult(KAPPA_MAX, True)
            return KappaResult(float(nxt), False)
        kappa = nxt
    raise ArithmeticError(f"kappa with resultant {r!r} not found in [{lo!r}, {hi!r}]")


# ---------------------------------------------------------------------------
# von Mises sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AngularSampleSet:
    """Angles on (-pi, pi] with optional 1-based integer class labels."""

    angles: np.ndarray
    labels: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        angles = _real_array("angles", self.angles)
        if angles.ndim != 1:
            raise FieldError("angles", f"must be one-dimensional, got shape {angles.shape}")
        if not (np.all(angles > -np.pi) and np.all(angles <= np.pi)):  # NaN fails both
            raise FieldError("angles", "must be finite and lie in (-pi, pi]")
        object.__setattr__(self, "angles", angles)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.size and not np.issubdtype(labels.dtype, np.integer):
                raise FieldError("labels", f"must be integers, got dtype {labels.dtype}")
            if labels.shape != angles.shape:
                raise FieldError("labels", "must match angles in length")
            if labels.size and labels.min() < 1:
                raise FieldError("labels", "must be 1-based class indices")
            object.__setattr__(self, "labels", labels.astype(np.int64, copy=False))

    def __len__(self) -> int:
        return int(self.angles.size)

    def check_labels(self, j_classes: int) -> None:
        """A :class:`FieldError` unless every sample has a label, none above ``j_classes``."""
        if self.labels is None:
            raise FieldError("labels", "must be given")
        if self.labels.size and self.labels.max() > j_classes:
            first = self.labels[np.argmax(self.labels > j_classes)]
            raise FieldError("labels", f"must be class indices <= {j_classes}, got {first}")


def sample_von_mises(
    rng: np.random.Generator, mu: float | np.ndarray, kappa: float, n: int
) -> np.ndarray:
    """Draw ``n`` von Mises angles on (-pi, pi] from an explicit generator.

    ``mu`` is one mean direction or an array of ``n``, one per draw.
    ``kappa`` is clipped at :data:`KAPPA_MAX`.  numpy's Best-Fisher rejection
    sampler draws the angles; below ``kappa = 1e-8`` it draws them uniformly,
    whatever ``mu``.
    """
    kappa = min(_check_real("kappa", kappa, 0.0), KAPPA_MAX)
    n = _check_int("n", n, 0)
    mu = _check_finite("mu", mu)
    if mu.ndim and mu.shape != (n,):
        raise FieldError("mu", f"must be one direction or {n} of them, got shape {mu.shape}")
    angles = rng.vonmises(mu, kappa, size=n)
    # numpy reports the closed interval [-pi, pi]; remap the lone boundary point
    angles[angles <= -np.pi] = np.pi
    return angles


# ---------------------------------------------------------------------------
# Concentration estimators
# ---------------------------------------------------------------------------


def _kappa_from_angles(name: str, angles: np.ndarray) -> KappaResult:
    """``A^-1(Rbar)`` of ``angles``; a :class:`FieldError` naming ``name`` for fewer than 2."""
    n = angles.size
    if n < 2:
        raise FieldError(name, f"needs at least 2 samples, got {n}")
    c = float(np.cos(angles).sum())
    s = float(np.sin(angles).sum())
    # normalized resultant length, clipped to the one that saturates
    return bessel_ratio_inv(min(np.hypot(c, s) / n, _RESULTANT_CAP))


def estimate_kappa(samples: AngularSampleSet) -> KappaResult:
    """Concentration estimate ``A^-1(Rbar)`` from single-class samples.

    ``Rbar`` is the normalized resultant length; samples concentrated enough
    that ``Rbar`` reaches ``bessel_ratio(KAPPA_MAX)`` (about ``1 - 5e-7``)
    saturate to ``KAPPA_MAX`` with the flag set.
    """
    return _kappa_from_angles("angles", samples.angles)


def estimate_kappa_pooled(samples: AngularSampleSet, j_classes: int) -> KappaResult:
    """Mean of per-class concentration estimates over classes 1..j_classes."""
    j_classes = _check_int("j_classes", j_classes, 1)
    samples.check_labels(j_classes)
    values = []
    saturated = False
    for j in range(1, j_classes + 1):
        est = _kappa_from_angles(f"angles[labels == {j}]", samples.angles[samples.labels == j])
        values.append(est.value)
        saturated = saturated or est.saturated
    return KappaResult(float(np.mean(values)), saturated)


def wrapped_gaussian_kappa(sigma2: float) -> KappaResult:
    """Concentration of the von Mises matched to a wrapped Gaussian.

    ``A^-1(exp(-sigma2 / 2))``: the circular first moment of a Gaussian with
    variance ``sigma2`` wrapped onto the circle, pushed through the inverse
    resultant map.  Variances small enough that the resultant reaches
    ``bessel_ratio(KAPPA_MAX)`` (``sigma2`` up to about 1e-6, including 0)
    saturate to ``KAPPA_MAX`` with the flag set.
    """
    sigma2 = _check_real("sigma2", sigma2, 0.0)
    return bessel_ratio_inv(min(float(np.exp(-0.5 * sigma2)), _RESULTANT_CAP))
