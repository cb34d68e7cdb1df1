"""The ``fast`` policy's routing shortcut against the percentile oracle.

``choose_codecs(..., "fast")`` routes every chunk to szx without the
95th-percentile pass when the samples' largest first difference is
already narrower than :data:`~repro.core.adaptive._STORED_WIDTH`.  The
routes must be exactly the ones the percentile path gives, because the
tags decide the payload bytes.  The fields here straddle the
threshold (a step count of ``2**39`` quantization steps of ``2 * tol``)
from both sides, put the largest difference and the 95th percentile on
different sides of it, and make differences overflow to ``inf``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core import PweMode
from repro.core.adaptive import (
    CODEC_STORED,
    CODEC_SZX,
    _STORED_WIDTH,
    _diff_widths,
    _max_diff_width,
    _sample,
    choose_codecs,
)
from test_encode_golden import _smooth

#: Tolerance of the threshold fields: ``2 * TOL == 1``, so a first
#: difference is its own step count and the stored width starts above
#: ``2**39 - 1``.
TOL = 0.5
EDGE = 2.0 ** (_STORED_WIDTH - 1)


def oracle_routes(chunks: list[np.ndarray], tolerance: float) -> list[int]:
    """``fast`` routes from the percentile widths alone."""
    widths = _diff_widths([_sample(c) for c in chunks], tolerance)
    return [CODEC_STORED if w >= _STORED_WIDTH else CODEC_SZX for w in widths]


def alternating(step: float, n: int = 600) -> np.ndarray:
    """A 1-D chunk whose every first difference is ``step``."""
    return np.where(np.arange(n) % 2 == 0, 0.0, step)


def spike(step: float, n: int = 600) -> np.ndarray:
    """A smooth 1-D chunk with one jump of ``step``: the largest
    difference is ``step``, the 95th percentile stays tiny."""
    out = np.linspace(0.0, 1.0, n)
    out[n // 2 :] += step
    return out


CASES = {
    # the spike's jump is its step plus one linspace increment
    "all_under": ([alternating(EDGE - 1.0), spike(EDGE - 2.0)], TOL),
    "all_just_over": ([alternating(EDGE - 0.5), alternating(EDGE + 1.0)], TOL),
    "spike_over_p95_under": ([spike(EDGE), spike(4.0 * EDGE)], TOL),
    "one_wide_among_narrow": (
        [spike(1.0), alternating(EDGE - 1.0), alternating(EDGE), spike(EDGE)],
        TOL,
    ),
    "overflow_to_inf": ([alternating(1.7e308), alternating(1.0)], TOL),
    "spike_overflow_to_inf": ([np.where(np.arange(600) < 300, -1e308, 1e308)], TOL),
    "step_count_overflows": ([alternating(1e10)], 5e-324),
    "single_points": ([np.array([3.0]), np.array([4.0]), alternating(EDGE)], TOL),
    "ragged_3d_smooth": (
        [_smooth((32, 32, 32), 1), _smooth((32, 32, 7), 2), _smooth((5, 3, 2), 3)],
        1e-3,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_fast_routes_equal_percentile_routes(name):
    chunks, tolerance = CASES[name]
    with obs.trace("routing") as tracer:
        tags = choose_codecs(chunks, PweMode(tolerance), "fast")
    want = oracle_routes(chunks, tolerance)
    assert tags.tolist() == want
    counters = tracer.report().counters
    for tag, codec in ((CODEC_SZX, "szx"), (CODEC_STORED, "stored")):
        assert counters.get(f"adaptive.route.{codec}", 0) == want.count(tag)


def test_cases_reach_both_sides_of_the_shortcut():
    """The cases above take the shortcut and fall back to the percentile
    path, and the fallback yields both routes."""
    shortcut = {
        name
        for name, (chunks, tol) in CASES.items()
        if _max_diff_width([_sample(c) for c in chunks], tol) < _STORED_WIDTH
    }
    assert {"all_under", "ragged_3d_smooth"} <= shortcut
    fallback = set(CASES) - shortcut
    routes = {r for name in fallback for r in oracle_routes(*CASES[name])}
    assert routes == {CODEC_SZX, CODEC_STORED}
    assert oracle_routes(*CASES["spike_over_p95_under"]) == [CODEC_SZX] * 2


@pytest.mark.parametrize("seed", range(8))
def test_random_fields_around_the_threshold(seed):
    """Seeded 1-D chunks whose differences are scaled so that their
    largest one and their 95th percentile land within a few steps of
    the threshold, on either side.  Odd seeds keep every scale at least
    two steps under it, so they take the shortcut."""
    rng = np.random.default_rng(seed)
    chunks = []
    for _ in range(12):
        diffs = rng.uniform(0.0, 1.0, 599)
        diffs[rng.integers(0, 599, rng.integers(1, 60))] = 1.0
        diffs *= EDGE + rng.integers(-4, 5) - 6 * (seed % 2)
        chunks.append(np.concatenate(([0.0], np.cumsum(diffs))))
    samples = [_sample(c) for c in chunks]
    assert (_max_diff_width(samples, TOL) < _STORED_WIDTH) == bool(seed % 2)
    tags = choose_codecs(chunks, PweMode(TOL), "fast")
    assert tags.tolist() == oracle_routes(chunks, TOL)
