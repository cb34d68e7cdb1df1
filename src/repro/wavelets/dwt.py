"""Separable multi-level n-D discrete wavelet transform, dyadic layout.

What runs (SPERR's transform, paper Sec. III-A):

* every pass is a 1-D lifting transform along one axis (separable);
* each axis gets ``min(6, floor(log2 N) - 2)`` levels (:func:`num_levels`);
* level ``k`` transforms only the low-pass box ``plan.low_lengths[k]``
  left by level ``k - 1``: every axis, not just the transform axis, is
  cut to that box (Mallat / dyadic decomposition).  An axis past its
  own depth is not transformed again and keeps its final low-pass
  extent, so one rule covers equal and unequal depths;
* within a level the axes run in order (the inverse runs levels and
  axes in reverse);
* arbitrary (non power-of-two, odd) extents go through the
  symmetric-extension lifting in :mod:`repro.wavelets.lifting`.

Chunk streams with header version 1 hold a tensor-product layout
instead: each level cut only the transform axis to its low-pass length
and ran over the full extent of every other axis.  :func:`inverse_tensor`
inverts that layout, fully or to a coarse level, for reading those
streams; nothing writes it.  The level-``k`` low-pass box of the
forward transform is the same under both layouts, so a coarse view has
the same shape and scale whichever layout the coefficients are in.
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
    "inverse_tensor",
    "inverse_to_level",
    "lowpass_dc_gain",
]

#: Paper's cap on recursion depth ("diminishing benefit of deeply
#: recursive wavelet transforms").
MAX_LEVELS = 6


def num_levels(n: int) -> int:
    """SPERR's per-axis level rule: ``min(6, floor(log2 N) - 2)``, >= 0."""
    if n < 1:
        raise InvalidArgumentError("axis length must be positive")
    if n < 8:
        return 0
    return max(0, min(MAX_LEVELS, int(math.floor(math.log2(n))) - 2))


@dataclass(frozen=True)
class WaveletPlan:
    """Precomputed decomposition schedule for one array shape.

    ``low_lengths[level]`` is the low-pass box *before* applying level
    ``level`` (level 0 sees the full array); that level transforms only
    inside it.  Axes whose per-axis depth is at most ``level`` keep
    their final low-pass extent and are not transformed at that level.
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
        levels: int | None = None,
    ) -> "WaveletPlan":
        """Build the schedule for ``shape``.

        ``levels`` caps the number of levels on every axis (the explicit
        depth of chunk streams written before every writer took the full
        depth); ``None`` applies the paper's rule.
        """
        if wavelet not in FILTERS:
            raise InvalidArgumentError(
                f"unknown wavelet {wavelet!r}; choose from {sorted(FILTERS)}"
            )
        axis_levels = tuple(num_levels(n) for n in shape)
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
    """Inverse multi-level DWT (exact inverse of :func:`forward`); lifts
    a copy of ``coeffs`` in place, so the result owns its memory."""
    out = np.array(coeffs, dtype=np.float64)
    _lift(out[None], plan, backward=True, copy=False)
    return out


#: Target per-block working set for the stacked transforms.  Each
#: (level, axis) pass copies the block's even/odd samples out, streams
#: them through ~10 slice passes and writes them back, so a block should
#: stay L2-resident while the per-call overhead is shared by as many
#: lanes as fit.  Measured optimum is ~512 KiB (a 16^3 chunk stacks 16
#: lanes per block, a 32^3 chunk 2): on 64 lanes of 32^3 a forward plus
#: inverse took 144 ms against 175 ms at 128 KiB and 151 ms at 1 MiB.
_BLOCK_BYTES = 1 << 19


def _lift(
    stack: np.ndarray,
    plan: WaveletPlan,
    backward: bool,
    stop: int = 0,
    tensor: bool = False,
    copy: bool = True,
) -> np.ndarray:
    """Run the lifting schedule over a copy of a ``(lanes, *shape)`` stack
    (over the float64 ``stack`` itself with ``copy=False``).

    The forward transform walks levels and axes in order; the inverse
    (``backward``) walks both in reverse and stops before level
    ``stop`` (``stop > 0`` leaves the finest levels untransformed, see
    :func:`inverse_to_level`).  Each level works on its low-pass box
    ``plan.low_lengths[level]``; ``tensor`` instead cuts only the
    transform axis and runs over the full extent of the others (the
    version-1 layout, see :func:`inverse_tensor`).
    Every (level, axis) step is one call of the wavelet's in-place
    kernel (:data:`~repro.wavelets.lifting.FILTERS`) on that box view of
    the output.  The lifting steps are pure elementwise slice arithmetic
    broadcast over every non-transform axis, so each lane's result is
    independent of its neighbours.  Lanes are processed in L2-sized
    blocks (see :data:`_BLOCK_BYTES`).
    """
    out = np.array(stack, dtype=np.float64) if copy else stack
    if out.shape[1:] != plan.shape:
        raise InvalidArgumentError(
            f"array shape {out.shape[1:]} does not match plan {plan.shape}"
        )
    fwd, inv = FILTERS[plan.wavelet]
    kernel = inv if backward else fwd
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
    boxes = []
    for level, ax in steps:
        lows = plan.low_lengths[level]
        if level >= plan.axis_levels[ax] or lows[ax] < 2:
            continue
        if tensor:
            box = (slice(None),) * (ax + 1) + (slice(0, lows[ax]),)
        else:
            box = (slice(None),) + tuple(slice(0, n) for n in lows)
        boxes.append((box, ax + 1))
    block = max(1, _BLOCK_BYTES // max(1, int(np.prod(plan.shape)) * 8))
    for b0 in range(0, out.shape[0], block):
        sub = out[b0 : b0 + block]
        for box, axis in boxes:
            kernel(sub[box], axis)
    return out


def forward_batch(stack: np.ndarray, plan: WaveletPlan) -> np.ndarray:
    """Forward DWT of a ``(lanes, *shape)`` stack, one pass per axis."""
    return _lift(stack, plan, backward=False)


def inverse_batch(stack: np.ndarray, plan: WaveletPlan) -> np.ndarray:
    """Inverse of :func:`forward_batch`."""
    return _lift(stack, plan, backward=True)


def inverse_tensor(
    coeffs: np.ndarray, plan: WaveletPlan, level: int = 0
) -> np.ndarray:
    """:func:`inverse_to_level` for the tensor-product layout of
    version-1 chunk streams (``level = 0`` is the full inverse).

    Read-only: the decoder calls this for chunk headers of version 1,
    and no writer produces the layout any more.
    """
    return _to_level(coeffs, plan, level, tensor=True)


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
    return _to_level(coeffs, plan, level, tensor=False)


def _to_level(
    coeffs: np.ndarray, plan: WaveletPlan, level: int, tensor: bool
) -> np.ndarray:
    if level < 0 or level > plan.total_levels:
        raise InvalidArgumentError(
            f"level must be in [0, {plan.total_levels}], got {level}"
        )
    data = _lift(
        np.asarray(coeffs)[None], plan, backward=True, stop=level, tensor=tensor
    )[0]
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
