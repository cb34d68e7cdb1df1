"""The in-place lifting kernels against the textbook last-axis oracle.

:data:`repro.wavelets.lifting.FILTERS` holds one kernel per filter and
direction that lifts a float64 view in place along any axis.  The
multi-level transform calls it on box views inside its output array,
so these tests do the same: every filter, ranks 1-3, every axis and
lengths from 2 up, each compared byte for byte with the oracle in
``tests/lifting_oracle.py`` run along the last axis, and the box sizes
the transforms run on (chunk lanes, 2-D planes, long 1-D lanes), which
reach both layouts the kernels stage their halves in.  The transform
entry points must also leave their input alone, read-only or not
(decoded-chunk cache hits are read-only arrays).
"""

from __future__ import annotations

import numpy as np
import pytest

from lifting_oracle import ORACLE
from repro.errors import InvalidArgumentError
from repro.wavelets import FILTERS, forward, inverse, inverse_to_level
from repro.wavelets import lifting
from repro.wavelets.dwt import (
    WaveletPlan,
    forward_batch,
    inverse_batch,
    inverse_tensor,
)

LENGTHS = (2, 3, 4, 5, 8, 9, 31, 32)

#: (rank, axis) pairs: every axis of 1-D, 2-D and 3-D lanes.
RANK_AXES = [(rank, ax) for rank in (1, 2, 3) for ax in range(rank)]

#: Extent of the non-transform axes of a lane.
_OTHER = 3

#: Padding around the box inside its parent array, before and after.
_PAD = (1, 2)


def _box(rank: int, ax: int, n: int, seed: int):
    """A ``(2 lanes, *lane)`` box view inside a larger random array.

    Returns ``(parent, box_index, axis)`` with ``axis`` the transform
    axis of the stacked view, as :func:`repro.wavelets.dwt._lift`
    passes it to a kernel.
    """
    lane = [_OTHER] * rank
    lane[ax] = n
    shape = (2,) + tuple(e + sum(_PAD) for e in lane)
    parent = np.random.default_rng(seed).standard_normal(shape)
    index = (slice(None),) + tuple(slice(_PAD[0], _PAD[0] + e) for e in lane)
    return parent, index, ax + 1


def _oracle_along(fn, x: np.ndarray, axis: int) -> np.ndarray:
    return np.moveaxis(fn(np.moveaxis(x, axis, -1)), -1, axis)


def _assert_bytes_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("rank,ax", RANK_AXES, ids=lambda v: str(v))
@pytest.mark.parametrize("wavelet", sorted(FILTERS))
@pytest.mark.parametrize("direction", (0, 1), ids=("forward", "inverse"))
def test_kernel_on_box_view_matches_oracle(direction, wavelet, rank, ax, n):
    parent, index, axis = _box(rank, ax, n, seed=n + 10 * rank + 100 * ax)
    before = parent.copy()
    want = _oracle_along(ORACLE[wavelet][direction], parent[index], axis)
    view = parent[index]
    assert FILTERS[wavelet][direction](view, axis) is view
    _assert_bytes_equal(parent[index], want)
    outside = np.ones(parent.shape, dtype=bool)
    outside[index] = False
    _assert_bytes_equal(parent[outside], before[outside])


#: Stacked ``(lanes, *lane)`` boxes at the sizes the transforms run on:
#: chunk lanes in L2-sized blocks, a whole 64³ lane, 2-D planes and
#: long 1-D lanes.  Some (box, axis) pairs stage the kernels' halves
#: transform axis first and some keep the view's layout.
CHUNK_BOXES = {
    "16^3x16": (16, 16, 16, 16),
    "24^3x8": (8, 24, 24, 24),
    "32^3x1": (1, 32, 32, 32),
    "32^3x2": (2, 32, 32, 32),
    "64^3": (1, 64, 64, 64),
    "256^2": (1, 256, 256),
    "512^2": (1, 512, 512),
    "4096x4": (4, 4096),
}

_CHUNK_CASES = [
    (name, axis) for name, shape in CHUNK_BOXES.items() for axis in range(1, len(shape))
]


def _chunk_box(name: str, seed: int):
    """A :data:`CHUNK_BOXES` box view inside a larger random array."""
    shape = CHUNK_BOXES[name]
    parent = np.random.default_rng(seed).standard_normal(
        tuple(e + sum(_PAD) for e in shape)
    )
    return parent, tuple(slice(_PAD[0], _PAD[0] + e) for e in shape)


@pytest.mark.parametrize("wavelet", sorted(FILTERS))
@pytest.mark.parametrize("direction", (0, 1), ids=("forward", "inverse"))
@pytest.mark.parametrize("name,axis", _CHUNK_CASES, ids=lambda v: str(v))
def test_kernel_on_chunk_sized_box_matches_oracle(name, axis, direction, wavelet):
    parent, index = _chunk_box(name, seed=axis + 10 * len(name))
    before = parent.copy()
    want = _oracle_along(ORACLE[wavelet][direction], parent[index], axis)
    view = parent[index]
    assert FILTERS[wavelet][direction](view, axis) is view
    _assert_bytes_equal(parent[index], want)
    outside = np.ones(parent.shape, dtype=bool)
    outside[index] = False
    _assert_bytes_equal(parent[outside], before[outside])


def test_chunk_boxes_cover_both_inverse_layouts():
    staged = {}
    for name, axis in _CHUNK_CASES:
        parent, index = _chunk_box(name, seed=0)
        staged[name, axis] = lifting._axis_first(parent[index], axis)
    assert set(staged.values()) == {True, False}, staged


@pytest.mark.parametrize("wavelet", ["cdf97", "cdf53"])
def test_chunk_boxes_cover_both_forward_layouts(wavelet, monkeypatch):
    """The forward kernel takes both layouts over the chunk boxes, under
    the inverse kernel's rule, and matches the oracle byte for byte in
    each.  The size limit keeps the view's layout on the last axis of
    512² and 64³ (staged, the forward kernel ran 1.4-1.9x slower
    there); 256² and two 32³ lanes sit at the limit and stage."""
    taken = []
    stage = lifting._staged

    def spy(v, axis):
        w = stage(v, axis)
        taken.append(w is not v)
        return w

    monkeypatch.setattr(lifting, "_staged", spy)
    staged = {}
    for name, axis in _CHUNK_CASES:
        parent, index = _chunk_box(name, seed=axis)
        want = _oracle_along(ORACLE[wavelet][0], parent[index], axis)
        rule = lifting._axis_first(parent[index], axis)
        taken.clear()
        FILTERS[wavelet][0](parent[index], axis)
        assert taken == [rule], (name, axis)
        _assert_bytes_equal(parent[index], want)
        staged[name, axis] = rule
    assert set(staged.values()) == {True, False}, staged
    assert not staged["512^2", 2] and not staged["64^3", 3]
    assert staged["256^2", 2] and staged["32^3x2", 3]


@pytest.mark.parametrize("n", LENGTHS)
@pytest.mark.parametrize("wavelet", sorted(FILTERS))
def test_last_axis_wrappers_match_oracle(wavelet, n):
    wrappers = {
        "cdf97": (lifting.forward_97, lifting.inverse_97),
        "cdf53": (lifting.forward_53, lifting.inverse_53),
        "haar": (lifting.forward_haar, lifting.inverse_haar),
    }[wavelet]
    x = np.random.default_rng(n).standard_normal((4, n))
    x.setflags(write=False)
    for fn, oracle in zip(wrappers, ORACLE[wavelet]):
        _assert_bytes_equal(fn(x), oracle(x))


@pytest.mark.parametrize("wavelet", sorted(FILTERS))
def test_kernels_reject_short_axes_and_other_dtypes(wavelet):
    for kernel in FILTERS[wavelet]:
        with pytest.raises(InvalidArgumentError):
            kernel(np.zeros((4, 1)), 1)
        with pytest.raises(InvalidArgumentError):
            kernel(np.zeros(8, dtype=np.float32))


@pytest.mark.parametrize("readonly", (False, True), ids=("writable", "readonly"))
@pytest.mark.parametrize("shape", [(32, 32, 16), (24, 20, 12), (37, 19), (64,)], ids=str)
def test_transforms_never_write_their_input(shape, readonly):
    g = np.random.default_rng(len(shape))
    x = g.standard_normal(shape)
    plan = WaveletPlan.create(shape)
    c = g.standard_normal(shape)
    stack = g.standard_normal((3,) + shape)
    inputs = (x, c, stack)
    saved = [a.copy() for a in inputs]
    if readonly:
        for a in inputs:
            a.setflags(write=False)
    forward(x, plan=plan)
    inverse(c, plan)
    forward_batch(stack, plan)
    inverse_batch(stack, plan)
    for level in range(plan.total_levels + 1):
        inverse_to_level(c, plan, level)
        inverse_tensor(c, plan, level)
    for a, before in zip(inputs, saved):
        _assert_bytes_equal(a, before)
