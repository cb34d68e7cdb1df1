"""Dead-zone mid-riser quantizer (see package docstring)."""

from __future__ import annotations

import numpy as np

from ..errors import InvalidArgumentError

__all__ = [
    "integerize",
    "integerize_batch",
    "dequantize",
    "dequantize_batch",
    "quantize_error_bound",
    "calibrate_step",
    "MAX_INT_MAGNITUDE",
]

#: Integer magnitudes above this would overflow the bitplane machinery; a
#: request implying them (absurdly small q for the data range) is an error.
MAX_INT_MAGNITUDE = np.uint64(1) << np.uint64(62)


def integerize(values: np.ndarray, q: float) -> tuple[np.ndarray, np.ndarray]:
    """Scale by ``1/q`` and split into integer magnitudes and signs.

    Returns ``(mags, negative)`` where ``mags[i] = floor(|values[i]| / q)``
    as ``uint64`` and ``negative`` is a boolean sign array.  A magnitude of
    zero means the value falls in the dead zone ``[-q, q]``.  This is
    :func:`integerize_batch` on a stack of one.
    """
    mags, negative = integerize_batch(np.asarray(values)[None], q)
    return mags[0], negative[0]


def dequantize(mags: np.ndarray, negative: np.ndarray, q: float) -> np.ndarray:
    """Mid-riser reconstruction: ``sign * (m + 1/2) * q`` outside the dead zone."""
    return dequantize_batch(np.asarray(mags)[None], np.asarray(negative)[None], q)[0]


def _lane_steps(q, ndim: int) -> np.ndarray:
    """Validate and reshape a scalar or per-lane step for broadcasting."""
    qa = np.asarray(q, dtype=np.float64)
    if not np.all(np.isfinite(qa)) or np.any(qa <= 0):
        raise InvalidArgumentError(f"quantization step must be positive, got {q}")
    if qa.ndim:
        return qa.reshape((-1,) + (1,) * (ndim - 1))
    return qa


def integerize_batch(values: np.ndarray, q) -> tuple[np.ndarray, np.ndarray]:
    """Per-lane :func:`integerize` of a ``(lanes, ...)`` stack.

    ``q`` is a scalar or a per-lane array; the scale/floor arithmetic is
    elementwise, so each lane is quantized independently.
    """
    values = np.asarray(values, dtype=np.float64)
    qb = _lane_steps(q, values.ndim)
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError("input contains NaN or Inf")
    # |v|/q -> floor staged in one scratch buffer instead of three
    # temporaries.
    scaled = np.abs(values)
    scaled /= qb
    if scaled.max(initial=0.0) >= float(MAX_INT_MAGNITUDE):
        raise InvalidArgumentError(
            "quantization step too small for the data range (integer overflow)"
        )
    np.floor(scaled, out=scaled)
    return scaled.astype(np.uint64), values < 0


def dequantize_batch(mags: np.ndarray, negative: np.ndarray, q) -> np.ndarray:
    """Per-lane :func:`dequantize` of a ``(lanes, ...)`` stack."""
    mags = np.asarray(mags, dtype=np.uint64)
    qb = _lane_steps(q, mags.ndim)
    out = mags.astype(np.float64)
    out += 0.5
    out *= qb
    # Dead-zone values are 0.5 * q, finite and positive, so multiplying
    # by the nonzero mask makes them +0.0 and leaves every other value
    # as it is (a masked copy is several times slower).
    out *= mags != 0
    # Every value is +0.0 or positive here, so negation is setting the
    # sign bit (dead-zone negatives become -0.0, as under np.negative).
    sign = np.asarray(negative, dtype=bool).astype(np.uint64)
    sign <<= np.uint64(63)
    out.view(np.uint64)[...] |= sign
    return out


def calibrate_step(values: np.ndarray, target_rms: float, margin: float = 0.9) -> float:
    """Largest quantization step whose RMS quantization error stays under
    ``margin * target_rms``.

    The error is monotone in the step size, so a log-domain bisection
    converges quickly.  Used by the PSNR-targeted modes (SPERR's Sec. VII
    average-error mode and the TTHRESH-like baseline), where orthogonal
    or near-orthogonal bases make coefficient-domain RMS equal
    data-domain RMS.
    """
    if not np.isfinite(target_rms) or target_rms <= 0:
        raise InvalidArgumentError("target RMS must be positive")
    values = np.asarray(values, dtype=np.float64)
    amax = float(np.abs(values).max(initial=0.0))
    if amax == 0.0:
        return 1.0
    # Never probe a step so fine that the integer magnitudes overflow: a
    # near-constant field (range ~1e-17 after a mask fill) asks for one.
    lo = max(target_rms * 1e-3, 2.0 * amax / float(MAX_INT_MAGNITUDE))
    hi = amax * 2.0
    for _ in range(60):
        mid = float(np.sqrt(lo * hi))
        mags, neg = integerize(values, mid)
        err = values - dequantize(mags, neg, mid)
        rms = float(np.sqrt(np.mean(err**2)))
        if rms > target_rms * margin:
            hi = mid
        else:
            lo = mid
        if hi / lo < 1.05:
            break
    return lo


def quantize_error_bound(q: float) -> float:
    """Worst-case per-coefficient quantization error: the dead zone admits
    errors up to ``q`` (values just inside reconstruct to 0), coded values
    err by at most ``q/2``."""
    return float(q)
