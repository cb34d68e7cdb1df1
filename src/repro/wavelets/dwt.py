"""Separable multi-level n-D discrete wavelet transform.

Implements SPERR's transform strategy (paper Sec. III-A):

* transforms are applied separately along each axis (separable),
* the recursion depth per axis follows ``min(6, floor(log2 N) - 2)``,
* each level transforms only the low-pass box produced by the previous
  level (Mallat / dyadic decomposition, falling back to wavelet-packet
  style when axes have unequal depths), and
* arbitrary (non power-of-two, odd) extents are supported through the
  symmetric-extension lifting in :mod:`repro.wavelets.lifting`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidArgumentError
from .lifting import FILTERS

__all__ = [
    "num_levels",
    "WaveletPlan",
    "forward",
    "forward_batch",
    "inverse",
    "inverse_batch",
    "inverse_to_level",
    "lowpass_dc_gain",
]

#: Paper's cap on recursion depth ("diminishing benefit of deeply
#: recursive wavelet transforms").
MAX_LEVELS = 6


def num_levels(n: int, max_levels: int = MAX_LEVELS) -> int:
    """SPERR's per-axis level rule: ``min(6, floor(log2 N) - 2)``, >= 0."""
    if n < 1:
        raise InvalidArgumentError("axis length must be positive")
    if n < 8:
        return 0
    return max(0, min(max_levels, int(math.floor(math.log2(n))) - 2))


@dataclass(frozen=True)
class WaveletPlan:
    """Precomputed decomposition schedule for one array shape.

    ``low_lengths[level][axis]`` is the low-pass extent of each axis
    *before* applying level ``level`` (level 0 sees the full array).
    Axes whose per-axis depth is smaller than ``level`` keep their full
    current extent and are not transformed at that level.
    """

    shape: tuple[int, ...]
    wavelet: str
    axis_levels: tuple[int, ...]
    low_lengths: tuple[tuple[int, ...], ...]

    @property
    def total_levels(self) -> int:
        return len(self.low_lengths)

    @classmethod
    def create(
        cls,
        shape: tuple[int, ...],
        wavelet: str = "cdf97",
        max_levels: int = MAX_LEVELS,
        levels: int | None = None,
    ) -> "WaveletPlan":
        """Build the schedule for ``shape``.

        ``levels`` forcibly caps the number of levels on every axis (used
        by the chunk-size ablation); ``None`` applies the paper's rule.
        """
        if wavelet not in FILTERS:
            raise InvalidArgumentError(
                f"unknown wavelet {wavelet!r}; choose from {sorted(FILTERS)}"
            )
        axis_levels = tuple(num_levels(n, max_levels) for n in shape)
        if levels is not None:
            if levels < 0:
                raise InvalidArgumentError("levels must be non-negative")
            axis_levels = tuple(min(levels, a) for a in axis_levels)
        total = max(axis_levels, default=0)
        cur = list(shape)
        lows: list[tuple[int, ...]] = []
        for level in range(total):
            lows.append(tuple(cur))
            for ax, n_levels in enumerate(axis_levels):
                if level < n_levels:
                    cur[ax] = (cur[ax] + 1) // 2
        return cls(
            shape=tuple(shape),
            wavelet=wavelet,
            axis_levels=axis_levels,
            low_lengths=tuple(lows),
        )


def _axis_apply(arr: np.ndarray, axis: int, length: int, func) -> None:
    """Apply a last-axis transform to ``arr[..., :length, ...]`` in place.

    When the transform axis is strided (any axis but the last), the
    region is staged through one contiguous copy: the lifting steps make
    ~10 slice passes over the data, and paying two strided passes
    (gather + scatter) instead of ten is a large win on 3-D arrays.
    The staged values are identical, so outputs are bit-identical.
    """
    view = np.moveaxis(arr, axis, -1)
    region = view[..., :length]
    if region.strides[-1] != region.itemsize:
        np.copyto(region, func(np.ascontiguousarray(region)))
    else:
        np.copyto(region, func(region))


def forward(
    data: np.ndarray,
    wavelet: str = "cdf97",
    levels: int | None = None,
    plan: WaveletPlan | None = None,
) -> tuple[np.ndarray, WaveletPlan]:
    """Forward multi-level DWT; returns (coefficients, plan).

    The coefficient array has the same shape as the input, in nested
    Mallat layout.  This is :func:`forward_batch` on a stack of one.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim < 1 or data.ndim > 3:
        raise InvalidArgumentError("only 1-D, 2-D, and 3-D inputs are supported")
    if plan is None:
        # Shared per-shape schedule from the plan cache; imported lazily
        # because repro.core imports this module at package-init time.
        from ..core.plans import wavelet_plan

        plan = wavelet_plan(data.shape, wavelet=wavelet, levels=levels)
    return forward_batch(data[None], plan)[0], plan


def inverse(coeffs: np.ndarray, plan: WaveletPlan) -> np.ndarray:
    """Inverse multi-level DWT (exact inverse of :func:`forward`)."""
    return inverse_batch(np.asarray(coeffs)[None], plan)[0]


#: Target per-block working set for the stacked transforms.  The lifting
#: passes stream the block several times, so keeping it L2-resident beats
#: maximal stacking; measured optimum is ~128 KiB (a 16^3 chunk stacks 4
#: lanes per block, a 32^3 chunk runs lane-at-a-time).
_BLOCK_BYTES = 1 << 17


def _lift(
    stack: np.ndarray, plan: WaveletPlan, backward: bool, stop: int = 0
) -> np.ndarray:
    """Run the lifting schedule over a ``(lanes, *shape)`` stack.

    The forward transform walks levels and axes in order; the inverse
    (``backward``) walks both in reverse and stops before level
    ``stop`` (``stop > 0`` leaves the finest levels untransformed, see
    :func:`inverse_to_level`).
    The lifting steps are pure elementwise slice arithmetic broadcast
    over every non-transform axis, so each lane's result is independent
    of its neighbours.  Lanes are processed in L2-sized blocks (see
    :data:`_BLOCK_BYTES`).
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.shape[1:] != plan.shape:
        raise InvalidArgumentError(
            f"array shape {stack.shape[1:]} does not match plan {plan.shape}"
        )
    fwd, inv = FILTERS[plan.wavelet]
    rank = len(plan.shape)
    if backward:
        steps = [
            (level, ax)
            for level in range(plan.total_levels - 1, stop - 1, -1)
            for ax in range(rank - 1, -1, -1)
        ]
    else:
        steps = [
            (level, ax) for level in range(plan.total_levels) for ax in range(rank)
        ]
    out = stack.copy()
    block = max(1, _BLOCK_BYTES // max(1, int(np.prod(plan.shape)) * 8))
    for b0 in range(0, out.shape[0], block):
        sub = out[b0 : b0 + block]
        for level, ax in steps:
            length = plan.low_lengths[level][ax]
            if level < plan.axis_levels[ax] and length >= 2:
                _axis_apply(sub, ax + 1, length, inv if backward else fwd)
    return out


def forward_batch(stack: np.ndarray, plan: WaveletPlan) -> np.ndarray:
    """Forward DWT of a ``(lanes, *shape)`` stack, one pass per axis."""
    return _lift(stack, plan, backward=False)


def inverse_batch(stack: np.ndarray, plan: WaveletPlan) -> np.ndarray:
    """Inverse of :func:`forward_batch`."""
    return _lift(stack, plan, backward=True)


_DC_GAIN_CACHE: dict[str, float] = {}


def lowpass_dc_gain(wavelet: str) -> float:
    """DC gain of one low-pass analysis level (measured numerically).

    The multi-level approximation of a constant signal is the constant
    times this gain per level per axis; multi-resolution reconstruction
    divides it back out so coarse views sit on the original scale.
    """
    if wavelet not in FILTERS:
        raise InvalidArgumentError(f"unknown wavelet {wavelet!r}")
    if wavelet not in _DC_GAIN_CACHE:
        fwd, _ = FILTERS[wavelet]
        c = fwd(np.ones(64))
        _DC_GAIN_CACHE[wavelet] = float(np.mean(c[:32]))
    return _DC_GAIN_CACHE[wavelet]


def inverse_to_level(
    coeffs: np.ndarray, plan: WaveletPlan, level: int
) -> np.ndarray:
    """Partially invert to the approximation at decomposition ``level``.

    ``level = 0`` is the full-resolution inverse; ``level = k`` skips the
    finest ``k`` levels and returns the low-pass box (roughly each axis
    halved ``min(k, axis_levels)`` times), rescaled to the original data
    scale.  This is the paper's Sec. VII multi-resolution reconstruction:
    the wavelet hierarchy makes every coarsened level a usable preview of
    the data, decoded from the same stream.
    """
    if level < 0 or level > plan.total_levels:
        raise InvalidArgumentError(
            f"level must be in [0, {plan.total_levels}], got {level}"
        )
    data = _lift(np.asarray(coeffs)[None], plan, backward=True, stop=level)[0]
    box_lengths = list(plan.shape)
    for lv in range(level):
        for ax in range(len(box_lengths)):
            if lv < plan.axis_levels[ax]:
                box_lengths[ax] = (box_lengths[ax] + 1) // 2
    box = data[tuple(slice(0, n) for n in box_lengths)].copy()
    gain = lowpass_dc_gain(plan.wavelet)
    for ax in range(box.ndim):
        skipped = min(level, plan.axis_levels[ax])
        if skipped:
            box /= gain**skipped
    return box

