"""The multi-level transform against a slow per-level reference.

:func:`reference_forward` and :func:`reference_inverse` spell the
decomposition out as an explicit loop over every 1-D line of each
level's box, calling the textbook last-axis passes of
``tests/lifting_oracle.py`` one line at a time.  The dyadic layout
cuts every axis to the level's low-pass box ``plan.low_lengths[level]``;
the tensor-product layout of version-1 chunk streams cuts only the
transform axis.  The lifting steps are elementwise, so the production
transform must match the loop exactly, not merely to round-off.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from lifting_oracle import ORACLE
from repro.analysis.subbands import subband_profile
from repro.wavelets import (
    FILTERS,
    forward,
    inverse,
    inverse_to_level,
    lowpass_dc_gain,
)
from repro.wavelets.dwt import WaveletPlan, inverse_tensor

SHAPES = [(16, 16, 16), (32, 32, 16), (24, 20, 12), (37, 19), (64,)]


def _lines(plan: WaveletPlan, level: int, ax: int, tensor: bool):
    """Index tuples of every 1-D line along ``ax`` in the level's box."""
    lows = plan.low_lengths[level]
    extents = [
        plan.shape[a] if tensor and a != ax else lows[a]
        for a in range(len(plan.shape))
    ]
    others = [range(extents[a]) for a in range(len(plan.shape)) if a != ax]
    for idx in itertools.product(*others):
        line = list(idx)
        line.insert(ax, slice(0, lows[ax]))
        yield tuple(line)


def _steps(plan: WaveletPlan, levels):
    for level in levels:
        for ax in range(len(plan.shape)):
            if level < plan.axis_levels[ax] and plan.low_lengths[level][ax] >= 2:
                yield level, ax


def reference_forward(x: np.ndarray, plan: WaveletPlan, tensor: bool = False):
    fwd, _ = ORACLE[plan.wavelet]
    out = np.array(x, dtype=np.float64)
    for level, ax in _steps(plan, range(plan.total_levels)):
        for line in _lines(plan, level, ax, tensor):
            out[line] = fwd(out[line])
    return out


def reference_inverse(
    c: np.ndarray, plan: WaveletPlan, tensor: bool = False, stop: int = 0
):
    _, inv = ORACLE[plan.wavelet]
    out = np.array(c, dtype=np.float64)
    for level in range(plan.total_levels - 1, stop - 1, -1):
        for _, ax in reversed(list(_steps(plan, [level]))):
            for line in _lines(plan, level, ax, tensor):
                out[line] = inv(out[line])
    return out


def _field(shape, seed=0):
    g = np.random.default_rng(seed)
    x = g.standard_normal(shape)
    for ax in range(len(shape)):
        x = np.cumsum(x, axis=ax)
    return x + g.standard_normal(shape)


@pytest.mark.parametrize("wavelet", sorted(FILTERS))
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_forward_matches_box_loop(shape, wavelet):
    x = _field(shape)
    coeffs, plan = forward(x, wavelet=wavelet)
    np.testing.assert_array_equal(coeffs, reference_forward(x, plan))


@pytest.mark.parametrize("wavelet", sorted(FILTERS))
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_inverse_matches_box_loop(shape, wavelet):
    c = _field(shape, seed=1)
    plan = WaveletPlan.create(shape, wavelet=wavelet)
    np.testing.assert_array_equal(inverse(c, plan), reference_inverse(c, plan))


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_tensor_inverse_matches_box_loop(shape):
    """The version-1 read path inverts the tensor-product layout."""
    x = _field(shape, seed=2)
    plan = WaveletPlan.create(shape)
    c = reference_forward(x, plan, tensor=True)
    got = inverse_tensor(c, plan)
    np.testing.assert_array_equal(got, reference_inverse(c, plan, tensor=True))
    np.testing.assert_allclose(got, x, atol=1e-9 * np.abs(x).max())


@pytest.mark.parametrize("shape", [(32, 32, 16), (24, 20, 12)], ids=str)
def test_coarse_levels_match_box_loop(shape):
    """Partial inverses return the level's low box, rescaled by the DC
    gain of each skipped level, under both layouts."""
    c = _field(shape, seed=3)
    plan = WaveletPlan.create(shape)
    gain = lowpass_dc_gain(plan.wavelet)
    for level in range(1, plan.total_levels + 1):
        scale = np.prod([gain ** min(level, d) for d in plan.axis_levels])
        for tensor, fn in ((False, inverse_to_level), (True, inverse_tensor)):
            ref = reference_inverse(c, plan, tensor=tensor, stop=level)
            got = fn(c, plan, level)
            box = ref[tuple(slice(0, n) for n in got.shape)]
            np.testing.assert_allclose(got * scale, box, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shape", [(32, 32, 32), (32, 32, 16), (40, 24)], ids=str)
def test_outside_level1_box_equals_single_level(shape):
    """Only the level-1 low box is transformed again: every coefficient
    outside it keeps the value one analysis level gives it."""
    x = _field(shape, seed=4)
    full, plan = forward(x)
    one, _ = forward(x, levels=1)
    assert plan.total_levels >= 2
    outside = np.ones(shape, dtype=bool)
    outside[tuple(slice(0, n) for n in plan.low_lengths[1])] = False
    np.testing.assert_array_equal(full[outside], one[outside])
    assert not np.array_equal(full[~outside], one[~outside])


@pytest.mark.parametrize("shape", [(32, 32, 32), (32, 32, 16), (40, 24)], ids=str)
def test_subband_profile_shells_match_reference(shape):
    """``subband_profile`` attributes nested box shells to levels, which
    is the dyadic layout's subband geometry."""
    x = _field(shape, seed=5)
    profile = subband_profile(x)
    plan = profile.plan
    energy = reference_forward(x, plan) ** 2
    shells = []
    outer = np.ones(shape, dtype=bool)
    for lows in plan.low_lengths[1:] + (_final_box(plan),):
        inner = np.zeros(shape, dtype=bool)
        inner[tuple(slice(0, n) for n in lows)] = True
        shells.append(float(energy[outer & ~inner].sum()))
        outer = inner
    shells.append(float(energy[outer].sum()))
    np.testing.assert_allclose(profile.level_energy, shells, rtol=1e-12)
    assert profile.total_energy == pytest.approx(sum(shells), rel=1e-12)


def _final_box(plan: WaveletPlan) -> tuple[int, ...]:
    last = plan.low_lengths[-1]
    return tuple(
        (n + 1) // 2 if plan.total_levels - 1 < d else n
        for n, d in zip(last, plan.axis_levels)
    )
