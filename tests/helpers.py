"""Shared randomized-instance generation for optimizer and acceptance tests, and a
recorder of the depth search's bisections."""

from __future__ import annotations

import numpy as np

from edgeplan import accuracy
from edgeplan.accuracy import FeatureProfile, QuantizerSpec
from edgeplan.optimizer import ExitSet
from edgeplan.system import ComputeProfile, LinkState, snr_db_to_linear

COARSE_ALPHABET = (0, 1, 2, 4, 8, 12, 16, 24, 32)


def random_instance(rng: np.random.Generator) -> dict:
    """One random planning scenario spanning feasible and infeasible regimes."""
    profile = FeatureProfile(
        j_classes=10,
        c1=float(rng.uniform(0.1, 1.0)),
        c2=float(rng.uniform(0.1, 2.0)),
        c3=float(rng.uniform(50.0, 500.0)),
        c4=float(rng.uniform(0.01, 0.3)),
        n_layers=39,
    )
    link = LinkState(
        bandwidth_hz=float(rng.uniform(1e7, 2e8)),
        snr=snr_db_to_linear(float(rng.uniform(-5.0, 30.0))),
        t_max_s=float(rng.uniform(0.002, 0.02)),
        d=int(rng.integers(20_000, 200_000)),
    )
    comp = ComputeProfile(
        b1=float(rng.uniform(1e-5, 5e-4)),
        b2=float(rng.uniform(1e-4, 5e-3)),
    )
    alphabet = COARSE_ALPHABET if rng.random() < 0.5 else None
    spec = QuantizerSpec(c_min=-1.0, c_max=1.0, q_max=32, bit_alphabet=alphabet)
    layers = np.sort(rng.choice(np.arange(1, 40), size=int(rng.integers(2, 7)), replace=False))
    exits = ExitSet(layers=tuple(int(l) for l in layers))
    p0 = float(rng.uniform(0.15, 0.85))
    return {
        "link": link,
        "comp": comp,
        "profile": profile,
        "spec": spec,
        "exits": exits,
        "p0": p0,
    }


def record_depth_bisections(monkeypatch) -> list:
    """Record each bisection ``accuracy.min_depth_for_accuracy`` runs, in order:
    ``"band"`` when its certified band answered a step without evaluating the test,
    ``"every step"`` when each step evaluated it (one ``accuracy._shrink`` call each)."""
    names, evaluations = [], [0]
    bisect, shrink = accuracy._bisect, accuracy._shrink

    def counted_shrink(*args):
        evaluations[0] += 1
        return shrink(*args)

    def recording(test, lo, hi):
        steps, before = [0], evaluations[0]

        def step(ell):
            steps[0] += 1
            return test(ell)

        depth = bisect(step, lo, hi)
        names.append("every step" if evaluations[0] - before == steps[0] else "band")
        return depth

    monkeypatch.setattr(accuracy, "_shrink", counted_shrink)
    monkeypatch.setattr(accuracy, "_bisect", recording)
    return names
