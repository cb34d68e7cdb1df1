"""SPECK set-partitioning bitplane coder (the paper's Sec. III).

High-level entry points operate on real-valued coefficient arrays with an
arbitrary quantization step ``q``; the integer machinery lives in
:mod:`repro.speck.codec`.
"""

from __future__ import annotations

import numpy as np

from ..obs import span
from ..quant import dequantize_batch, integerize_batch
from .batched import BatchedSpeckEncoder, encode_batch
from .codec import SpeckEncoder, SpeckStats, decode, decode_lsp, encode, scatter
from .geometry import Geometry, MaxPyramid

__all__ = [
    "SpeckEncoder",
    "SpeckStats",
    "BatchedSpeckEncoder",
    "Geometry",
    "MaxPyramid",
    "encode",
    "encode_batch",
    "decode",
    "decode_lsp",
    "encode_coefficients",
    "encode_coefficients_batch",
    "decode_coefficients",
]


def encode_coefficients(
    coeffs: np.ndarray, q: float, max_bits: int | None = None
) -> tuple[bytes, int, SpeckStats, np.ndarray]:
    """SPECK-encode real coefficients with quantization step ``q``.

    Returns ``(stream, nbits, stats, encoder_reconstruction)`` where the
    reconstruction is the coefficient array a decoder would produce from
    the *full* stream — used by the SPERR pipeline to locate outliers
    without running the decoder (Sec. V-C step 3 still performs the
    inverse transform).  This is :func:`encode_coefficients_batch` on a
    stack of one.
    """
    encoded, recon = encode_coefficients_batch(
        np.asarray(coeffs)[None], q, max_bits=max_bits
    )
    stream, nbits, stats = encoded[0]
    return stream, nbits, stats, recon[0]


def encode_coefficients_batch(
    coeffs: np.ndarray, q, max_bits=None
) -> tuple[list[tuple[bytes, int, SpeckStats]], np.ndarray]:
    """Stacked-lane SPECK encode of ``(lanes, *shape)`` coefficients.

    ``q`` and ``max_bits`` are scalars or per-lane arrays.  Returns
    ``(per_lane_results, reconstruction_stack)``: one ``(stream, nbits,
    stats)`` triple per lane plus the stacked encoder reconstruction.
    """
    with span("speck.encode", lanes=len(coeffs)) as sp:
        mags, negative = integerize_batch(coeffs, q)
        encoded = encode_batch(mags, negative, max_bits=max_bits)
        recon = dequantize_batch(mags, negative, q)
        sp.set(nbits=sum(nbits for _, nbits, _ in encoded))
    return encoded, recon


def decode_coefficients(
    data: bytes, shape: tuple[int, ...], q: float, nbits: int | None = None
) -> np.ndarray:
    """Decode a SPECK stream back to real coefficient values.

    Step and sign apply to the significant pixels only, in discovery
    order; one scatter then places them in the zeroed volume.
    """
    with span("speck.decode", q=q):
        positions, rec, negative = decode_lsp(data, shape, nbits=nbits)
        values = np.where(negative, -q, q)
        values *= rec
        out = scatter(shape, positions, values)
    return out
