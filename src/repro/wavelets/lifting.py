"""Lifting-scheme wavelet transforms along one axis.

Implements the CDF 9/7 biorthogonal wavelet (the transform SPERR uses,
paper Sec. III-A) plus CDF 5/3 and Haar for ablation studies.  All
transforms:

* use whole-sample symmetric boundary extension (QccPack convention),
* handle arbitrary (even or odd, non power-of-two) lengths,
* lift in place along any axis of a float64 view: the kernel copies out
  the even and odd samples along that axis, runs the lifting steps as
  slice arithmetic along the same axis (vectorized over every other
  axis), and writes the Mallat halves back into the view,
* lay both kernels' halves out transform axis first when that makes
  every neighbour-sum slice one contiguous block out of several short
  ones, and the view is small enough for the transposing copies to pay
  (one rule, :func:`_axis_first`, for both); larger views keep the
  view's own layout, and
* achieve perfect reconstruction to floating-point round-off.

:data:`FILTERS` holds the ``(forward, inverse)`` kernels; the exported
1-D functions (:func:`forward_97`, ...) run the same kernels on a copy
of their input along its last axis.

The 9/7 scaling constants are chosen so that the synthesis basis functions
have approximately unit L2 norm ("near orthogonality"), which is the
property SPERR relies on to equate coefficient-domain and data-domain L2
errors.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from ..errors import InvalidArgumentError

__all__ = [
    "forward_97",
    "inverse_97",
    "forward_53",
    "inverse_53",
    "forward_haar",
    "inverse_haar",
    "FILTERS",
]

# CDF 9/7 lifting coefficients (Daubechies & Sweldens factorization).
_ALPHA = -1.586134342059924
_BETA = -0.052980118572961
_GAMMA = 0.882911075530934
_DELTA = 0.443506852043971
# Subband scaling for approximately unit-norm basis functions
# (K = 1.230174104914001 is the standard CDF 9/7 scaling constant).
_K = 1.230174104914001
_S_LOW = np.sqrt(2.0) / _K
_S_HIGH = _K / np.sqrt(2.0)

# CDF 5/3 (LeGall) lifting, used by the wavelet-choice ablation:
# ``d -= (s[i] + s[i+1]) / 2``, ``s += (d[i-1] + d[i]) / 4``.  The
# scalings below were calibrated numerically so the synthesis basis
# functions have mean unit L2 norm (5/3 is only loosely orthogonal).
_S53_LOW = 1.2260616233132038
_S53_HIGH = np.sqrt(2.0) / 2.0 * 1.1987347890132365


def _cut(v: np.ndarray, axis: int):
    """Validate a kernel's view; returns ``(n, cut)``.

    ``n`` is the view's length along ``axis``; ``cut(start, stop, step)``
    is the index tuple slicing only that axis.
    """
    if v.dtype != np.float64:
        raise InvalidArgumentError("lifting kernels run on float64 views")
    axis = axis % max(v.ndim, 1)
    n = v.shape[axis] if v.ndim else 0
    if n < 2:
        raise InvalidArgumentError("transform length must be at least 2")
    lead = (slice(None),) * axis
    return n, lambda *bounds: lead + (slice(*bounds),)


#: Longest contiguous block (elements) of a half's neighbour-sum slice,
#: and largest view (bytes), for which the lifting kernels stage the
#: halves transform axis first.
_SHORT_BLOCK = 2048
_STAGE_BYTES = 1 << 19


def _axis_first(v: np.ndarray, axis: int) -> bool:
    """Whether the lifting kernels stage the halves transform axis first.

    In the view's own layout a neighbour-sum slice of a half is one
    block per index of the axes before ``axis``, each about
    ``n/2 * (extent of the axes after it)`` elements long.  With the
    transform axis leading it is one contiguous block, which pays while
    there are several short blocks.  Copying into and out of that layout
    transposes the view, which costs more than it gains once the view
    outgrows L2.
    """
    blocks = math.prod(v.shape[:axis])
    block = v.shape[axis] // 2 * math.prod(v.shape[axis + 1 :])
    return blocks > 1 and block <= _SHORT_BLOCK and v.nbytes <= _STAGE_BYTES


def _staged(v: np.ndarray, axis: int) -> np.ndarray:
    """``v`` itself, or ``v`` transposed transform axis first where
    :func:`_axis_first` says staging the halves that way pays."""
    axis %= v.ndim
    if not _axis_first(v, axis):
        return v
    return v.transpose(axis, *range(axis), *range(axis + 1, v.ndim))


def _even_sum(s: np.ndarray, n: int, out: np.ndarray, cut) -> None:
    """``s[i] + s[i+1]`` (symmetric extension at the end) into ``out``:
    the even-sample neighbour sums each odd sample sees."""
    if n % 2 == 0:
        np.add(s[cut(None, -1)], s[cut(1, None)], out=out[cut(None, -1)])
        last = cut(-1, None)
        np.add(s[last], s[last], out=out[last])
    else:
        np.add(s[cut(None, -1)], s[cut(1, None)], out=out)


def _odd_sum(d: np.ndarray, n: int, out: np.ndarray, cut) -> None:
    """``d[i-1] + d[i]`` (symmetric extension at both ends) into ``out``:
    the odd-sample neighbour sums each even sample sees."""
    first = cut(0, 1)
    if n % 2 == 0:
        np.add(d[cut(None, -1)], d[cut(1, None)], out=out[cut(1, None)])
        np.add(d[first], d[first], out=out[first])
    else:
        np.add(d[cut(None, -1)], d[cut(1, None)], out=out[cut(1, -1)])
        np.add(d[first], d[first], out=out[first])
        last = cut(-1, None)
        np.add(d[last], d[last], out=out[last])


def _forward_lifting(
    v: np.ndarray, axis: int = -1, *, coeffs: tuple, low: float, high: float
) -> np.ndarray:
    """Lifting analysis of ``v`` along ``axis``, in place; returns ``v``.

    ``coeffs`` alternate predict and update steps: the even-indexed ones
    add ``coeff * (s[i] + s[i+1])`` to the odd samples ``d``, the
    odd-indexed ones add ``coeff * (d[i-1] + d[i])`` to the even samples
    ``s``.  The halves are then scaled by ``low``/``high`` and written
    back in Mallat layout along ``axis``: ``[lowpass | highpass]``
    (lowpass length ``ceil(n/2)``).  Each neighbour sum is staged in a
    reused scratch buffer; the arithmetic (add, scale, accumulate)
    matches the textbook form operation for operation, so the result is
    bit-identical to it, whether or not the halves are laid out
    transform axis first (:func:`_axis_first`).
    """
    n, cut = _cut(v, axis)
    w = _staged(v, axis)
    if w is not v:
        _, cut = _cut(w, 0)
    # ``copy`` lays the halves out in C order, so transform axis first
    # for a transposed view.
    s = w[cut(0, None, 2)].copy()
    d = w[cut(1, None, 2)].copy()
    t_d = np.empty_like(d)
    t_s = np.empty_like(s)
    for i, coeff in enumerate(coeffs):
        if i % 2 == 0:
            _even_sum(s, n, t_d, cut)
            t_d *= coeff
            d += t_d
        else:
            _odd_sum(d, n, t_s, cut)
            t_s *= coeff
            s += t_s
    half = (n + 1) // 2
    np.multiply(s, low, out=w[cut(0, half)])
    np.multiply(d, high, out=w[cut(half, None)])
    return v


def _inverse_lifting(
    v: np.ndarray, axis: int = -1, *, coeffs: tuple, low: float, high: float
) -> np.ndarray:
    """Inverse of :func:`_forward_lifting`: unscale, then undo the steps
    in reverse order.  The halves are laid out transform axis first
    where :func:`_axis_first` says it pays; the arithmetic is the same
    either way."""
    n, cut = _cut(v, axis)
    w = _staged(v, axis)
    if w is not v:
        _, cut = _cut(w, 0)
    half = (n + 1) // 2
    # order="C" lays the copies out transform axis first for a
    # transposed view (numpy would otherwise keep the view's memory order).
    s = np.divide(w[cut(0, half)], low, order="C")
    d = np.divide(w[cut(half, None)], high, order="C")
    t_d = np.empty_like(d)
    t_s = np.empty_like(s)
    for i in range(len(coeffs) - 1, -1, -1):
        if i % 2 == 0:
            _even_sum(s, n, t_d, cut)
            t_d *= coeffs[i]
            d -= t_d
        else:
            _odd_sum(d, n, t_s, cut)
            t_s *= coeffs[i]
            s -= t_s
    w[cut(0, None, 2)] = s
    w[cut(1, None, 2)] = d
    return v


def _lifting_pair(coeffs: tuple, low: float, high: float) -> tuple:
    """The ``(forward, inverse)`` kernels of one lifting factorization."""
    step = dict(coeffs=coeffs, low=low, high=high)
    return partial(_forward_lifting, **step), partial(_inverse_lifting, **step)


_SQRT2 = np.sqrt(2.0)


def _forward_haar(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Orthonormal Haar analysis of ``v`` along ``axis``, in place; an
    odd tail sample passes through between the halves."""
    n, cut = _cut(v, axis)
    m = n // 2
    a = v[cut(0, 2 * m, 2)]
    b = v[cut(1, 2 * m, 2)]
    s = a + b
    s /= _SQRT2
    d = a - b
    d /= _SQRT2
    v[cut(0, m)] = s
    if n % 2:
        np.multiply(v[cut(n - 1, n)], 1.0, out=v[cut(m, m + 1)])
    v[cut(n - m, None)] = d
    return v


def _inverse_haar(v: np.ndarray, axis: int = -1) -> np.ndarray:
    """Inverse of :func:`_forward_haar`."""
    n, cut = _cut(v, axis)
    m = n // 2
    s = v[cut(0, m)]
    d = v[cut(n - m, None)]
    a = s + d
    a /= _SQRT2
    b = s - d
    b /= _SQRT2
    if n % 2:
        v[cut(n - 1, n)] = v[cut(m, m + 1)]
    v[cut(0, 2 * m, 2)] = a
    v[cut(1, 2 * m, 2)] = b
    return v


#: Registry of in-place ``(forward, inverse)`` kernels by wavelet name.
#: Each kernel is ``kernel(view, axis=-1) -> view``: it transforms a
#: float64 view along ``axis`` (Mallat layout) and returns the view.
FILTERS: dict[str, tuple] = {
    "cdf97": _lifting_pair((_ALPHA, _BETA, _GAMMA, _DELTA), _S_LOW, _S_HIGH),
    "cdf53": _lifting_pair((-0.5, 0.25), _S53_LOW, _S53_HIGH),
    "haar": (_forward_haar, _inverse_haar),
}


def _last_axis(name: str, direction: int, x: np.ndarray) -> np.ndarray:
    return FILTERS[name][direction](np.array(x, dtype=np.float64), -1)


def forward_97(x: np.ndarray) -> np.ndarray:
    """One CDF 9/7 analysis pass along the last axis of a copy of ``x``.

    Returns the coefficients in Mallat layout: ``[lowpass | highpass]``
    along the last axis (lowpass length is ``ceil(n/2)``).
    """
    return _last_axis("cdf97", 0, x)


def inverse_97(c: np.ndarray) -> np.ndarray:
    """Inverse of :func:`forward_97` (Mallat-layout input)."""
    return _last_axis("cdf97", 1, c)


def forward_53(x: np.ndarray) -> np.ndarray:
    """One CDF 5/3 analysis pass along the last axis (Mallat layout)."""
    return _last_axis("cdf53", 0, x)


def inverse_53(c: np.ndarray) -> np.ndarray:
    """Inverse of :func:`forward_53`."""
    return _last_axis("cdf53", 1, c)


def forward_haar(x: np.ndarray) -> np.ndarray:
    """Orthonormal Haar analysis pass (odd tail sample passed through)."""
    return _last_axis("haar", 0, x)


def inverse_haar(c: np.ndarray) -> np.ndarray:
    """Inverse of :func:`forward_haar`."""
    return _last_axis("haar", 1, c)
