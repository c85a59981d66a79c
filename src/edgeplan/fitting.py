"""Least-squares estimation of the per-depth hyperparameters.

``fit_affine`` recovers the (slope, intercept) of the concentration growth
from measured (depth, concentration) pairs; ``fit_exponential`` recovers the
noise-amplification decay in the log domain, where the estimator is closed
form and deterministic.  Pure; safe for concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circstats import FieldError, _check_finite

__all__ = ["DepthSeries", "AffineFit", "ExponentialFit", "fit_affine", "fit_exponential"]


@dataclass(frozen=True, eq=False)
class DepthSeries:
    """Measured (depth, value) pairs, at least two, with distinct depths."""

    depths: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        depths, values = _check_finite("depths", self.depths), _check_finite("values", self.values)
        if depths.ndim != 1:
            raise FieldError("depths", f"must be one-dimensional, got shape {depths.shape}")
        if values.shape != depths.shape:
            raise FieldError("values",
                             f"must have depths' shape {depths.shape}, got {values.shape}")
        if depths.size < 2:
            raise FieldError("depths", f"needs at least 2 points to fit, got {depths.size}")
        if np.unique(depths).size != depths.size:
            raise FieldError("depths", "must be distinct")
        object.__setattr__(self, "depths", depths)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return int(self.depths.size)


@dataclass(frozen=True)
class AffineFit:
    c1: float  # slope
    c2: float  # intercept
    residual_rms: float


@dataclass(frozen=True)
class ExponentialFit:
    c3: float  # amplitude
    c4: float  # decay rate
    log_residual_rms: float
    # set when the fitted decay is <= 0, i.e. the series does not decrease
    nonpositive_decay: bool


def fit_affine(series: DepthSeries) -> AffineFit:
    """Ordinary least squares of value on depth."""
    x, y = series.depths, series.values
    xm, ym = x.mean(), y.mean()
    slope = float(((x - xm) * (y - ym)).sum() / ((x - xm) ** 2).sum())
    intercept = float(ym - slope * xm)
    residual = y - (slope * x + intercept)
    return AffineFit(
        c1=slope,
        c2=intercept,
        residual_rms=float(np.sqrt(np.mean(residual**2))),
    )


def fit_exponential(series: DepthSeries) -> ExponentialFit:
    """Least squares of log(value) on depth: ``value = c3 exp(-c4 depth)``.

    The affine fit of the log values: its slope is ``-c4``, its intercept
    ``log(c3)`` and its residual RMS the reported log-domain one.  A fitted
    decay rate of zero or below is flagged rather than rejected.
    """
    if np.any(series.values <= 0.0):
        raise FieldError("values", f"must be > 0 for a log fit, got {float(series.values.min())!r}")
    log_fit = fit_affine(DepthSeries(series.depths, np.log(series.values)))
    c4 = -log_fit.c1
    return ExponentialFit(
        c3=math.exp(log_fit.c2),
        c4=c4,
        log_residual_rms=log_fit.residual_rms,
        nonpositive_decay=c4 <= 0.0,
    )
