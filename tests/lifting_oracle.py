"""Textbook last-axis lifting passes: the oracle for the in-place kernels.

Each function transforms the last axis of its input and returns a new
array, spelled out the slow, obvious way: split into even and odd
samples, extend symmetrically by concatenating the neighbour arrays,
lift, and concatenate the Mallat halves.  The production kernels in
:mod:`repro.wavelets.lifting` run the same elementwise operations in
the same order along any axis of a view, so they must agree with these
byte for byte (``tests/test_lifting_kernels.py``,
``tests/test_wavelet_layout.py``).
"""

from __future__ import annotations

import numpy as np

from repro.wavelets.lifting import (
    _ALPHA,
    _BETA,
    _DELTA,
    _GAMMA,
    _S53_HIGH,
    _S53_LOW,
    _S_HIGH,
    _S_LOW,
    _SQRT2,
)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Copies of the even and odd samples of the last axis."""
    return x[..., 0::2].astype(np.float64), x[..., 1::2].astype(np.float64)


def _even_neighbors(s: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(s[i], s[i+1]) pairs seen by odd samples, with symmetric extension."""
    if n % 2 == 0:
        right = np.concatenate([s[..., 1:], s[..., -1:]], axis=-1)
        return s, right
    return s[..., :-1], s[..., 1:]


def _odd_neighbors(d: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(d[i-1], d[i]) pairs seen by even samples, with symmetric extension."""
    left = np.concatenate([d[..., :1], d[..., :-1]], axis=-1)
    if n % 2 == 0:
        return left, d
    left = np.concatenate([d[..., :1], d], axis=-1)
    right = np.concatenate([d, d[..., -1:]], axis=-1)
    return left, right


def forward_97(x: np.ndarray) -> np.ndarray:
    n = x.shape[-1]
    s, d = _split(x.astype(np.float64, copy=False))
    sl, sr = _even_neighbors(s, n)
    d += _ALPHA * (sl + sr)
    dl, dr = _odd_neighbors(d, n)
    s += _BETA * (dl + dr)
    sl, sr = _even_neighbors(s, n)
    d += _GAMMA * (sl + sr)
    dl, dr = _odd_neighbors(d, n)
    s += _DELTA * (dl + dr)
    s *= _S_LOW
    d *= _S_HIGH
    return np.concatenate([s, d], axis=-1)


def inverse_97(c: np.ndarray) -> np.ndarray:
    n = c.shape[-1]
    half = (n + 1) // 2
    s = c[..., :half].astype(np.float64, copy=True)
    d = c[..., half:].astype(np.float64, copy=True)
    s /= _S_LOW
    d /= _S_HIGH
    dl, dr = _odd_neighbors(d, n)
    s -= _DELTA * (dl + dr)
    sl, sr = _even_neighbors(s, n)
    d -= _GAMMA * (sl + sr)
    dl, dr = _odd_neighbors(d, n)
    s -= _BETA * (dl + dr)
    sl, sr = _even_neighbors(s, n)
    d -= _ALPHA * (sl + sr)
    out = np.empty_like(c, dtype=np.float64)
    out[..., 0::2] = s
    out[..., 1::2] = d
    return out


def forward_53(x: np.ndarray) -> np.ndarray:
    n = x.shape[-1]
    s, d = _split(x.astype(np.float64, copy=False))
    sl, sr = _even_neighbors(s, n)
    d -= 0.5 * (sl + sr)
    dl, dr = _odd_neighbors(d, n)
    s += 0.25 * (dl + dr)
    s *= _S53_LOW
    d *= _S53_HIGH
    return np.concatenate([s, d], axis=-1)


def inverse_53(c: np.ndarray) -> np.ndarray:
    n = c.shape[-1]
    half = (n + 1) // 2
    s = c[..., :half].astype(np.float64, copy=True)
    d = c[..., half:].astype(np.float64, copy=True)
    s /= _S53_LOW
    d /= _S53_HIGH
    dl, dr = _odd_neighbors(d, n)
    s -= 0.25 * (dl + dr)
    sl, sr = _even_neighbors(s, n)
    d += 0.5 * (sl + sr)
    out = np.empty_like(c, dtype=np.float64)
    out[..., 0::2] = s
    out[..., 1::2] = d
    return out


def forward_haar(x: np.ndarray) -> np.ndarray:
    n = x.shape[-1]
    x = x.astype(np.float64, copy=False)
    m = n // 2
    a = x[..., 0 : 2 * m : 2]
    b = x[..., 1 : 2 * m : 2]
    s = (a + b) / _SQRT2
    d = (a - b) / _SQRT2
    if n % 2:
        tail = x[..., -1:] * 1.0
        return np.concatenate([s, tail, d], axis=-1)
    return np.concatenate([s, d], axis=-1)


def inverse_haar(c: np.ndarray) -> np.ndarray:
    n = c.shape[-1]
    half = (n + 1) // 2
    s = c[..., :half]
    d = c[..., half:]
    out = np.empty_like(c, dtype=np.float64)
    if n % 2:
        out[..., -1] = s[..., -1]
        s = s[..., :-1]
    a = (s + d) / _SQRT2
    b = (s - d) / _SQRT2
    m = n // 2
    out[..., 0 : 2 * m : 2] = a
    out[..., 1 : 2 * m : 2] = b
    return out


#: ``(forward, inverse)`` last-axis oracle passes by wavelet name.
ORACLE = {
    "cdf97": (forward_97, inverse_97),
    "cdf53": (forward_53, inverse_53),
    "haar": (forward_haar, inverse_haar),
}
