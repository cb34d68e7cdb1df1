"""Reference (canonical) SPECK: bit-at-a-time, textbook ordering.

This is a deliberately slow, obviously-correct implementation of the
SPECK algorithm exactly as Listings 1-3 and the classic papers describe
it: sets are processed one at a time in increasing size order, newly
split children are examined immediately (depth-first), a pixel's sign
bit directly follows its significance bit, and refinement bits are
emitted per pixel.

Its purpose is verification of the production codec in
:mod:`repro.speck.codec`, which batches each depth level for numpy
vectorization.  Batching only *reorders* bits within a deterministic
window — it adds or removes none — so the two implementations must
produce streams of identical length and bit-identical full-stream
reconstructions.  ``tests/test_speck_reference.py`` and the
``bench_ablation_batched_vs_reference`` bench hold them to that.
"""

from __future__ import annotations

import numpy as np

from ..errors import StreamFormatError
from .geometry import Geometry, MaxPyramid

__all__ = ["reference_encode", "reference_decode"]


def reference_encode(mags: np.ndarray, negative: np.ndarray) -> tuple[bytes, int]:
    """Canonical SPECK encode; returns ``(packed_bytes, nbits)``."""
    mags = np.asarray(mags, dtype=np.uint64)
    geometry = Geometry(mags.shape)
    pyramid = MaxPyramid(geometry, mags)
    padded = np.zeros(geometry.padded_shape, dtype=np.uint64)
    padded[tuple(slice(0, n) for n in mags.shape)] = mags
    mflat = padded.reshape(-1)
    neg = np.zeros(geometry.padded_shape, dtype=bool)
    neg[tuple(slice(0, n) for n in mags.shape)] = np.asarray(negative, dtype=bool)
    nflat = neg.reshape(-1)

    bits: list[int] = []
    gmax = pyramid.global_max
    nmax = gmax.bit_length() - 1 if gmax > 0 else -1
    for k in range(7, -1, -1):
        bits.append(((nmax + 1) >> k) & 1)
    if nmax < 0:
        return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes(), len(bits)

    max_depth = geometry.max_depth
    lis: list[list[int]] = [[] for _ in range(max_depth + 1)]
    lis[0].append(0)
    lsp: list[int] = []

    for n in range(nmax, -1, -1):
        thr = 1 << n
        n_old = len(lsp)
        new_lis: list[list[int]] = [[] for _ in range(max_depth + 1)]

        def process(depth: int, idx: int) -> None:
            sig = int(pyramid.levels[depth][idx]) >= thr
            bits.append(int(sig))
            if not sig:
                new_lis[depth].append(idx)
                return
            if depth == max_depth:
                bits.append(int(nflat[idx]))
                lsp.append(idx)
                return
            for child in geometry.children(depth, np.asarray([idx], dtype=np.int64)):
                process(depth + 1, int(child))

        # increasing set size: smallest (deepest) first, as Listing 2 asks
        for depth in range(max_depth, -1, -1):
            for idx in lis[depth]:
                process(depth, idx)
        lis = new_lis

        for idx in lsp[:n_old]:
            bits.append(int((int(mflat[idx]) >> n) & 1))

    arr = np.asarray(bits, dtype=np.uint8)
    return np.packbits(arr).tobytes(), len(bits)


def reference_decode(
    data: bytes, shape: tuple[int, ...], nbits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical SPECK decode of a *complete* reference stream.

    Returns ``(approx_mags, negative)`` with the same mid-riser-centered
    semantics as :func:`repro.speck.decode`.
    """
    geometry = Geometry(shape)
    stream = np.unpackbits(np.frombuffer(data, dtype=np.uint8))[:nbits]
    pos = 0

    def take() -> int:
        nonlocal pos
        if pos >= stream.size:
            raise StreamFormatError("reference stream exhausted")
        b = int(stream[pos])
        pos += 1
        return b

    nmax_plus1 = 0
    for _ in range(8):
        nmax_plus1 = (nmax_plus1 << 1) | take()
    nmax = nmax_plus1 - 1
    npix = int(np.prod(geometry.padded_shape))
    rec_mag = np.zeros(npix, dtype=np.uint64)
    last_plane = np.zeros(npix, dtype=np.int64)
    neg = np.zeros(npix, dtype=bool)
    if nmax < 0:
        return _finish(geometry, rec_mag, last_plane, neg)

    max_depth = geometry.max_depth
    lis: list[list[int]] = [[] for _ in range(max_depth + 1)]
    lis[0].append(0)
    lsp: list[int] = []

    for n in range(nmax, -1, -1):
        n_old = len(lsp)
        new_lis: list[list[int]] = [[] for _ in range(max_depth + 1)]

        def process(depth: int, idx: int) -> None:
            sig = take()
            if not sig:
                new_lis[depth].append(idx)
                return
            if depth == max_depth:
                neg[idx] = bool(take())
                rec_mag[idx] = np.uint64(1) << np.uint64(n)
                last_plane[idx] = n
                lsp.append(idx)
                return
            for child in geometry.children(depth, np.asarray([idx], dtype=np.int64)):
                process(depth + 1, int(child))

        for depth in range(max_depth, -1, -1):
            for idx in lis[depth]:
                process(depth, idx)
        lis = new_lis

        for idx in lsp[:n_old]:
            if take():
                rec_mag[idx] |= np.uint64(1) << np.uint64(n)
            last_plane[idx] = n

    return _finish(geometry, rec_mag, last_plane, neg)


def _finish(
    geometry: Geometry,
    rec_mag: np.ndarray,
    last_plane: np.ndarray,
    neg: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    rec = np.zeros(rec_mag.shape, dtype=np.float64)
    coded = rec_mag > 0
    rec[coded] = rec_mag[coded].astype(np.float64) + 0.5 * np.exp2(
        last_plane[coded].astype(np.float64)
    )
    crop = tuple(slice(0, n) for n in geometry.shape)
    return (
        rec.reshape(geometry.padded_shape)[crop],
        neg.reshape(geometry.padded_shape)[crop],
    )
