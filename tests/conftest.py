"""Shared fixtures for the test suite."""

from __future__ import annotations

import time

import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def smooth_field(rng: np.random.Generator) -> np.ndarray:
    """A small smooth 3-D field (fast to compress, realistic spectrum)."""
    from repro.datasets import spectral_field

    return spectral_field((24, 24, 24), slope=3.0, seed=rng)


@pytest.fixture
def rough_field(rng: np.random.Generator) -> np.ndarray:
    """A small rough (nearly white) 3-D field."""
    from repro.datasets import spectral_field

    return spectral_field((20, 20, 20), slope=0.5, seed=rng)


@pytest.fixture
def miranda():
    """``shape -> array``: the seeded ``miranda_density`` field (seed 7)
    that the benchmark workloads and the speed tests compress."""
    from repro.datasets.fields import get_field

    return lambda shape: get_field("miranda_density", shape, seed=7)


@pytest.fixture
def best_of_3():
    """``best_of_3(*fns)``: the best-of-3 wall time of each ``fn()``.  The
    runs interleave, so a swing in host speed hits every function alike."""

    def best(*fns) -> list[float]:
        times = [float("inf")] * len(fns)
        for _ in range(3):
            for i, fn in enumerate(fns):
                t0 = time.perf_counter()
                fn()
                times[i] = min(times[i], time.perf_counter() - t0)
        return times

    return best


@pytest.fixture
def at_least():
    """``at_least(measure, floor, what)``: assert a higher-is-better speed
    figure clears ``floor``.  ``measure`` runs once more before the test
    fails, so one load spike on a shared host does not read as a
    regression."""

    def check(measure, floor: float, what: str) -> None:
        value = measure()
        if value < floor:
            value = max(value, measure())
        assert value >= floor, f"{what}: {value:.2f}, floor {floor}"

    return check
