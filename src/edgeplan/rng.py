"""Deterministic random-number streams.

Every stochastic routine in this package draws from a Philox (4x64)
counter-based bit generator keyed by ``SeedSequence([seed, *stream])``.
Distinct stream indices yield independent, bit-reproducible streams, so
simulation shards can run in parallel and still aggregate to identical
output.  The generator family is fixed here on purpose: changing it would
silently invalidate every frozen Monte Carlo expectation in the test suite.
A seed is any integer, taken modulo 2^64; anything else is a ``FieldError``.
"""

from __future__ import annotations

import numpy as np

from .circstats import _check_int

__all__ = ["make_rng", "derive_seed"]

_MASK64 = (1 << 64) - 1


def _entropy(seed: int, stream) -> list:
    return [_check_int("seed", seed) & _MASK64] + [int(s) & _MASK64 for s in stream]


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Return the Philox generator addressed by ``(seed, *stream)``."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(_entropy(seed, stream))))


def derive_seed(seed: int, *stream: int) -> int:
    """Derive a child 64-bit seed for code that takes a plain integer seed."""
    state = np.random.SeedSequence(_entropy(seed, stream)).generate_state(2, np.uint64)
    return int(state[0])
