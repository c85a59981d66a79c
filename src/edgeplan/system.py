"""Link and compute latency model plus the edge processing rate (EPR).

Units are SI throughout: Hz, seconds, bits.  SNR is stored linear; use
:func:`snr_db_to_linear` when ingesting dB values.  Pure functions; safe for
concurrent use.  Public functions check their inputs; private cores
(``_comm_latency``, ``_comp_latency``, ``_epr``) hold each formula once and
take checked values, so the planner, which has checked them already, calls
the cores.
"""

from __future__ import annotations

import math
from bisect import bisect
from dataclasses import dataclass

from .accuracy import QuantizerSpec
from .circstats import FieldError, _check_int, _check_real

__all__ = [
    "LinkState",
    "ComputeProfile",
    "snr_db_to_linear",
    "shannon_rate",
    "comm_latency",
    "comp_latency",
    "epr",
    "max_bitwidth_continuous",
    "max_bitwidth_discrete",
]


def snr_db_to_linear(snr_db: float) -> float:
    snr_db = _check_real("snr_db", snr_db)
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise FieldError("snr_db", f"overflows a float in linear units, got {snr_db!r}") from None


@dataclass(frozen=True)
class LinkState:
    """Channel and transmission budget for one feature vector.

    bandwidth_hz: channel bandwidth B.
    snr: linear receive SNR.
    t_max_s: maximal air latency for the feature upload.
    d: number of scalar features per vector.
    """

    bandwidth_hz: float
    snr: float
    t_max_s: float
    d: int

    def __post_init__(self) -> None:
        for name in ("bandwidth_hz", "snr", "t_max_s"):
            object.__setattr__(self, name, _check_real(name, getattr(self, name), 0.0, strict=True))
        object.__setattr__(self, "d", _check_int("d", self.d, 1))
        if 1.0 + self.snr == 1.0:
            raise FieldError("snr", f"1 + snr rounds to 1, so the Shannon rate is 0, got {self.snr!r}")
        if not math.isfinite(shannon_rate(self)):
            raise FieldError("bandwidth_hz", f"bandwidth_hz * log2(1 + snr) overflows, got "
                             f"bandwidth_hz={self.bandwidth_hz!r} and snr={self.snr!r}")
        if not math.isfinite(max_bitwidth_continuous(self)):
            raise FieldError("t_max_s", f"the bit budget t_max_s * shannon_rate / d overflows, got "
                             f"t_max_s={self.t_max_s!r} and shannon_rate={shannon_rate(self)!r}")


@dataclass(frozen=True)
class ComputeProfile:
    """Affine inference-time model: ``t = b1 * depth + b2`` seconds.

    ``b1`` is the per-layer server time and ``b2`` the fixed device-side
    time.  :meth:`from_flops` derives both from FLOP counts and speeds.
    """

    b1: float
    b2: float

    def __post_init__(self) -> None:
        for name in ("b1", "b2"):
            object.__setattr__(self, name, _check_real(name, getattr(self, name), 0.0))

    @classmethod
    def from_flops(
        cls,
        device_flops: float,
        per_layer_flops: float,
        device_flops_per_s: float,
        server_flops_per_s: float,
    ) -> "ComputeProfile":
        device = _check_real("device_flops", device_flops, 0.0)
        per_layer = _check_real("per_layer_flops", per_layer_flops, 0.0)
        device_speed = _check_real("device_flops_per_s", device_flops_per_s, 0.0, strict=True)
        server_speed = _check_real("server_flops_per_s", server_flops_per_s, 0.0, strict=True)
        return cls(b1=per_layer / server_speed, b2=device / device_speed)


def shannon_rate(link: LinkState) -> float:
    """Channel rate ``B log2(1 + snr)`` in bits/second."""
    return link.bandwidth_hz * math.log2(1.0 + link.snr)


def comm_latency(q: float, link: LinkState) -> float:
    """Time to upload d features at q bits each: ``d q / (B log2(1+snr))``."""
    return _comm_latency(_check_real("q", q, 0.0), link)


def _comm_latency(q: float, link: LinkState) -> float:
    """:func:`comm_latency` of a finite float ``q >= 0``, unchecked."""
    return link.d * q / shannon_rate(link)


def comp_latency(ell: float, comp: ComputeProfile) -> float:
    """Inference time through depth ell: ``b1 ell + b2``."""
    return _comp_latency(_check_real("ell", ell, 1.0), comp)


def _comp_latency(ell: float, comp: ComputeProfile) -> float:
    """:func:`comp_latency` of a finite float ``ell >= 1``, unchecked."""
    return comp.b1 * ell + comp.b2


def epr(q: float, ell: float, link: LinkState, comp: ComputeProfile) -> float:
    """Edge processing rate: payload bits over end-to-end latency.

    ``d q / (t_comm + t_comp)`` in bits/second; zero when nothing is
    transmitted.  Strictly below the channel rate whenever compute time is
    positive, and approaches it as compute time vanishes.
    """
    return _epr(_check_real("q", q, 0.0), _check_real("ell", ell, 1.0), link, comp)


def _epr(q: float, ell: float, link: LinkState, comp: ComputeProfile) -> float:
    """:func:`epr` of a finite float ``q >= 0`` and ``ell >= 1``, unchecked."""
    if q == 0.0:
        return 0.0
    return link.d * q / (_comm_latency(q, link) + _comp_latency(ell, comp))


def max_bitwidth_continuous(link: LinkState) -> float:
    """Largest (real) bit-width whose upload still fits the air-latency budget."""
    return link.t_max_s * shannon_rate(link) / link.d


def max_bitwidth_discrete(link: LinkState, spec: QuantizerSpec) -> int:
    """Largest alphabet bit-width within the air-latency budget.

    An entry is admitted when its ``comm_latency`` is at most ``t_max_s``,
    the test ``brute_force`` applies, so no discrete plan's upload exceeds
    the budget.  Comparing ``b`` with :func:`max_bitwidth_continuous` is not
    the same test: the two differ within a few ulps of each threshold SNR
    ``2^(b d / (t_max B)) - 1``.  Falls back to 0 ("nothing transmitted this
    block") when even the smallest positive alphabet entry exceeds the
    budget.
    """
    # the alphabet is increasing and the latency rises with b, so the entries
    # within the budget are a prefix: bisect for its end
    fits = bisect(spec.bit_alphabet, False,
                  key=lambda b: _comm_latency(float(b), link) > link.t_max_s)
    return spec.bit_alphabet[fits - 1] if fits else 0
