"""Independent numerical oracles used to freeze expected test values.

Nothing here may call into the package: Bessel functions come from raw power
series / asymptotic expansions, inverses from plain bisection (the depth
search bisects whatever accuracy function the caller hands it), integrals from
fixed-grid composite Simpson, and the exact accuracy of the simulated noisy
process and the von Mises CDF from circular-moment Fourier series (scipy's
``ive`` is used there, for every order including 0; the package uses no
scipy).  The ``mp_*`` entries compute the resultant map, its inverse, the
accuracy integral and the noisy process's series at 30 significant digits
with mpmath alone, and ``mp_chebyshev_table`` the Bessel tables at 40.
``serial_class_draws`` makes the clean Monte Carlo angles one class after
another with numpy's Philox generator alone.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.special import ive as _scipy_ive
from scipy.stats import norm as _norm


def i0_series(x: float, terms: int = 60) -> float:
    """Power series for I0, accurate to machine precision for x < ~15."""
    t = x * x / 4.0
    term = 1.0
    total = 1.0
    for k in range(1, terms):
        term *= t / (k * k)
        total += term
    return total


def i1_series(x: float, terms: int = 60) -> float:
    t = x * x / 4.0
    term = x / 2.0
    total = term
    for k in range(1, terms):
        term *= t / (k * (k + 1))
        total += term
    return total


def _scaled_asymptotic(order: int, x: float, terms: int = 10) -> float:
    """Large-x expansion of exp(-x) I_order(x)."""
    mu = 4.0 * order * order
    term = 1.0
    total = 1.0
    for k in range(1, terms):
        term *= -(mu - (2 * k - 1) ** 2) / (k * 8.0 * x)
        total += term
    return total / math.sqrt(2.0 * math.pi * x)


def i0_scaled(x: float) -> float:
    if x < 15.0:
        return i0_series(x) * math.exp(-x)
    return _scaled_asymptotic(0, x)


def i1_scaled(x: float) -> float:
    if x < 15.0:
        return i1_series(x) * math.exp(-x)
    return _scaled_asymptotic(1, x)


def ratio(kappa: float) -> float:
    """A(kappa) = I1/I0 from the series/asymptotic paths above."""
    if kappa == 0.0:
        return 0.0
    return i1_scaled(kappa) / i0_scaled(kappa)


def ratio_inv_bisect(r: float, hi: float = 1e7, iters: int = 200) -> float:
    """Invert A by plain bisection against the series/asymptotic oracle."""
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if ratio(mid) < r:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def min_depth_bisect(acc, p0: float, n_layers: int, tol: float = 1e-6):
    """Smallest depth in [1, n_layers] with ``acc(depth) >= p0`` by plain bisection.

    ``acc`` is the caller's accuracy at a depth.  Checks depth 1, then
    ``n_layers`` (``None`` when even that misses p0), then halves [1, n_layers]
    until it is at most ``tol`` wide and returns the upper end.
    """
    if acc(1.0) >= p0:
        return 1.0
    top = float(n_layers)
    if acc(top) < p0:
        return None
    lo, hi = 1.0, top
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if acc(mid) >= p0:
            hi = mid
        else:
            lo = mid
    return hi


def simpson_fixed(f, a: float, b: float, n: int) -> float:
    """Composite Simpson on a fixed n-interval grid (n even)."""
    x = np.linspace(a, b, n + 1)
    y = f(x)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(w @ y) * (b - a) / n / 3.0


def accuracy_quadrature(kappa: float, j_classes: int, n: int = 1_000_000) -> float:
    """Fine-grid Simpson evaluation of the accuracy integral."""
    a = math.pi / j_classes
    integral = simpson_fixed(lambda x: np.exp(kappa * (np.cos(x) - 1.0)), 0.0, a, n)
    return integral / (math.pi * i0_scaled(kappa))


def error_quadrature(kappa: float, j_classes: int, n: int = 1_000_000) -> float:
    """Fine-grid Simpson evaluation of 1 - accuracy (the complement integral).

    Computing the complement directly keeps full relative precision when the
    error is many orders of magnitude below 1.
    """
    a = math.pi / j_classes
    integral = simpson_fixed(lambda x: np.exp(kappa * (np.cos(x) - 1.0)), a, math.pi, n)
    return integral / (math.pi * i0_scaled(kappa))


def noisy_mixture_accuracy(
    kappa: float, sigma2_eff: float, j_classes: int, terms: int = 600
) -> float:
    """Exact accuracy of the simulated process (vM(kappa) plus wrapped Gaussian).

    The circular moments of the convolution factor exactly:
    ``c_m = (I_m(kappa)/I0(kappa)) * exp(-m^2 sigma2_eff / 2)``, and the mass
    of the decision sector |theta| <= pi/J is the Fourier sum below.
    """
    a = math.pi / j_classes
    total = a / math.pi
    for m in range(1, terms + 1):
        am = float(_scipy_ive(m, kappa) / _scipy_ive(0, kappa))
        cm = am * math.exp(-0.5 * m * m * sigma2_eff)
        total += (2.0 / math.pi) * cm * math.sin(m * a) / m
        if abs(cm) < 1e-18:
            break
    return total


def wrapped_gaussian_cdf(x: np.ndarray, sigma2: float) -> np.ndarray:
    """CDF on (-pi, pi] of a zero-mean Gaussian wrapped onto the circle.

    Images of the interval lying more than nine standard deviations from the
    origin add less than 1e-18 and are left out of the sum.
    """
    s = math.sqrt(sigma2)
    wraps = math.ceil(9.0 * s / (2.0 * math.pi))
    total = np.zeros_like(np.asarray(x, dtype=float))
    for k in range(-wraps, wraps + 1):
        total += _norm.cdf((x + 2.0 * np.pi * k) / s) - _norm.cdf(
            (-np.pi + 2.0 * np.pi * k) / s
        )
    return total


def von_mises_cdf(x: np.ndarray, kappa: float) -> np.ndarray:
    """CDF on (-pi, pi] of a zero-mean von Mises, from its Fourier series.

    ``F(x) = (x + pi) / (2 pi) + sum_m (I_m(kappa)/I0(kappa)) sin(m x) / (m pi)``,
    summed until the moment drops below 1e-18.
    """
    x = np.asarray(x, dtype=float)
    total = (x + np.pi) / (2.0 * np.pi)
    m = 1
    while True:
        am = float(_scipy_ive(m, kappa) / _scipy_ive(0, kappa))
        total += am * np.sin(m * x) / (m * np.pi)
        if am < 1e-18:
            return total
        m += 1


def wrapped_vs_von_mises_gap(sigma2: float, n: int = 1 << 16) -> float:
    """Sup distance between a wrapped Gaussian CDF and its matched von Mises CDF.

    The von Mises has the same first circular moment, ``exp(-sigma2 / 2)``,
    with its concentration found by ``ratio_inv_bisect``.  The maximum is
    taken on an ``n``-interval grid over (-pi, pi]; both CDFs are smooth, so
    at the default ``n`` the grid misses the true maximum by under 1e-10.
    """
    kappa = ratio_inv_bisect(math.exp(-0.5 * sigma2))
    x = np.linspace(-np.pi, np.pi, n + 1)
    return float(np.max(np.abs(wrapped_gaussian_cdf(x, sigma2) - von_mises_cdf(x, kappa))))


# ---------------------------------------------------------------------------
# 30-digit references (mpmath only)
# ---------------------------------------------------------------------------

MP_DIGITS = 30


def mp_ratio(kappa: float) -> mpmath.mpf:
    """A(kappa) = I1/I0 from mpmath's Bessel functions, at 30 digits."""
    with mpmath.workdps(MP_DIGITS):
        kappa = mpmath.mpf(kappa)
        return mpmath.besseli(1, kappa) / mpmath.besseli(0, kappa)


def mp_ratio_inv(r: float, lo: float, hi: float) -> mpmath.mpf:
    """kappa with ``mp_ratio(kappa) = r``, by ``findroot`` from the bracket [lo, hi]."""
    with mpmath.workdps(MP_DIGITS):
        r = mpmath.mpf(r)
        return mpmath.findroot(lambda k: mp_ratio(k) - r, (lo, hi), solver="anderson")


def mp_accuracy(kappa: float, j_classes: int) -> mpmath.mpf:
    """MAP accuracy ``int_0^{pi/J} exp(kappa cos x) / (pi I0(kappa)) dx`` at 30 digits.

    The scaled integrand ``exp(kappa (cos x - 1))`` peaks at 0 with width about
    ``1/sqrt(kappa)``, so ``quad`` gets a node there when that is inside the range.
    """
    with mpmath.workdps(MP_DIGITS):
        kappa = mpmath.mpf(kappa)
        a = mpmath.pi / j_classes
        peak = 10 / mpmath.sqrt(kappa)
        points = [0, peak, a] if peak < a else [0, a]
        integral = mpmath.quad(lambda x: mpmath.exp(kappa * (mpmath.cos(x) - 1)), points)
        return integral / (mpmath.pi * mpmath.besseli(0, kappa) * mpmath.exp(-kappa))


def mp_noisy_mixture_accuracy(kappa: float, sigma2_eff: float, j_classes: int) -> mpmath.mpf:
    """:func:`noisy_mixture_accuracy`'s series at 30 digits, with ``mp.besseli``.

    ``1/J + (2/pi) sum_m (I_m(kappa)/I0(kappa)) exp(-m^2 sigma2_eff / 2) sin(m pi/J) / m``,
    summed until a moment drops below 1e-40; the moments fall at least
    geometrically from there, so the terms left out are far below 30 digits.
    """
    with mpmath.workdps(MP_DIGITS):
        kappa, sigma2_eff = mpmath.mpf(kappa), mpmath.mpf(sigma2_eff)
        a = mpmath.pi / j_classes
        i0 = mpmath.besseli(0, kappa)
        total, m = a / mpmath.pi, 1
        while True:
            cm = mpmath.besseli(m, kappa) / i0 * mpmath.exp(-m * m * sigma2_eff / 2)
            total += 2 / mpmath.pi * cm * mpmath.sin(m * a) / m
            if cm < mpmath.mpf("1e-40"):
                return total
            m += 1


def mp_chebyshev_table(f, x_of_t, terms: int, nodes: int = 80, digits: int = 40) -> tuple:
    """Chebyshev coefficients of ``f(x_of_t(t))`` on [-1, 1] as doubles, highest order first.

    ``a_k = (2/N) sum_j f(x(t_j)) T_k(t_j)`` at the ``N`` Chebyshev-Gauss nodes
    ``t_j = cos(theta_j)``, ``theta_j = pi (j + 1/2) / N``, where
    ``T_k(t_j) = cos(k theta_j)``.  Cephes' layout: the series is
    ``a_0 / 2 + sum_k a_k T_k(t)``, stored from ``a_{terms-1}`` down to ``a_0``.
    """
    with mpmath.workdps(digits):
        thetas = [mpmath.pi * (j + mpmath.mpf(1) / 2) / nodes for j in range(nodes)]
        values = [f(x_of_t(mpmath.cos(theta))) for theta in thetas]
        return tuple(
            float(2 * mpmath.fsum(v * mpmath.cos(k * theta) for v, theta in zip(values, thetas))
                  / nodes)
            for k in reversed(range(terms))
        )


def serial_class_draws(seed: int, j_classes: int, kappa: float, n_per_class: int) -> np.ndarray:
    """Clean angles of classes 1..J in class order, drawn one class at a time.

    Class j sits at ``-pi + (2j - 1) pi / J`` and draws ``vonmises`` from
    ``Philox(SeedSequence([seed mod 2^64, 1, j]))``; numpy's closed interval
    [-pi, pi] is mapped onto (-pi, pi] by sending -pi to +pi.
    """
    angles = []
    for j in range(1, j_classes + 1):
        entropy = [seed & (2**64 - 1), 1, j]
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
        mu = -np.pi + (2.0 * j - 1.0) * np.pi / j_classes
        draws = rng.vonmises(mu, kappa, n_per_class)
        draws[draws == -np.pi] = np.pi
        angles.append(draws)
    return np.concatenate(angles)
