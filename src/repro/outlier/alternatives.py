"""Alternative outlier coders from the paper's Sec. II design space.

The paper motivates its SPECK-inspired outlier coder by dismissing three
simpler designs; this module implements them so the claim can be
measured (``bench_ablation_outlier_designs.py``):

* **CSR-style** — "Compressed Sparse Row ... far from optimal in our
  application because they still use naive storage to record element
  positions and values": positions as fixed-width integers, corrections
  quantized to ``t``-steps as fixed-width integers.
* **Bitmap + universal codes** — "record positions using bitmap coding
  ... and handle correction values using ... universal codes": a
  presence bitmap over the domain (RLE'd through the lossless backend)
  plus Elias-delta-coded zigzag quantized corrections.
* **SZ-style quant bins** — quantized correction value for *every*
  point, Huffman coded (implemented by the SZ-like baseline's codec;
  compared separately in the Fig. 11 bench).

All three satisfy the same contract as the production coder: positions
exact, corrections within ``t/2``.
"""

from __future__ import annotations

import struct

import numpy as np

from .. import lossless
from ..errors import InvalidArgumentError, StreamFormatError
from ..lossless.bitpack import pack_msb_wide
from ..lossless.universal import delta_decode, delta_encode, unzigzag, zigzag

__all__ = [
    "csr_encode",
    "csr_decode",
    "bitmap_encode",
    "bitmap_decode",
    "quantize_corrections",
    "dequantize_corrections",
]


def quantize_corrections(corrections: np.ndarray, tolerance: float) -> np.ndarray:
    """Integer codes with reconstruction error <= t/2 (round to t-steps)."""
    if tolerance <= 0:
        raise InvalidArgumentError("tolerance must be positive")
    return np.rint(np.asarray(corrections, dtype=np.float64) / tolerance).astype(
        np.int64
    )


def dequantize_corrections(codes: np.ndarray, tolerance: float) -> np.ndarray:
    return codes.astype(np.float64) * tolerance


def _position_width(n: int) -> int:
    return max(1, int(n - 1).bit_length())


_CSR_HEAD = "<QQdBB"  # n, k, tolerance, position bits, value bits


def _row_uints(bits: np.ndarray) -> np.ndarray:
    """Each row of a ``(k, width <= 64)`` MSB-first bit matrix as an integer."""
    k, width = bits.shape
    padded = np.zeros((k, 64), dtype=np.uint8)
    padded[:, 64 - width :] = bits
    return np.packbits(padded, axis=1).view(">u8").reshape(k).astype(np.int64)


def csr_encode(
    positions: np.ndarray, corrections: np.ndarray, n: int, tolerance: float
) -> bytes:
    """Naive sparse storage: fixed-width positions + fixed-width codes."""
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size and (positions.min() < 0 or positions.max() >= n):
        raise InvalidArgumentError(f"outlier positions must lie in [0, {n})")
    codes = quantize_corrections(corrections, tolerance)
    if codes.size and (codes.min() <= -(2**62) or codes.max() >= 2**62):
        # zigzag maps them past int64
        raise InvalidArgumentError("corrections exceed 2**62 tolerance steps")
    pos_bits = _position_width(n)
    val_bits = max(1, int(np.abs(codes).max(initial=1)).bit_length() + 1)

    # One (position, zigzag code) record per outlier, packed in one pass.
    fields = np.stack([positions, zigzag(codes)], axis=1).ravel()
    widths = np.tile(np.array([pos_bits, val_bits]), positions.size)
    body, _ = pack_msb_wide(fields, widths)
    head = struct.pack(_CSR_HEAD, n, positions.size, tolerance, pos_bits, val_bits)
    return head + body


def csr_decode(payload: bytes) -> tuple[np.ndarray, np.ndarray, float]:
    """Returns ``(positions, corrections, tolerance)``."""
    head_size = struct.calcsize(_CSR_HEAD)
    if len(payload) < head_size:
        raise StreamFormatError("truncated CSR outlier payload")
    n, k, tolerance, pos_bits, val_bits = struct.unpack_from(_CSR_HEAD, payload)
    if not (1 <= pos_bits <= 64 and 1 <= val_bits <= 64):
        raise StreamFormatError(
            f"CSR field widths {pos_bits}/{val_bits} outside [1, 64]"
        )
    body = np.frombuffer(payload, dtype=np.uint8, offset=head_size)
    record = pos_bits + val_bits
    if k * record > 8 * body.size:
        raise StreamFormatError("truncated CSR outlier payload")
    records = np.unpackbits(body)[: k * record].reshape(k, record)
    positions = _row_uints(records[:, :pos_bits])
    codes = _row_uints(records[:, pos_bits:])
    return positions, dequantize_corrections(unzigzag(codes), tolerance), tolerance


def bitmap_encode(
    positions: np.ndarray, corrections: np.ndarray, n: int, tolerance: float
) -> bytes:
    """Presence bitmap (lossless-compressed) + Elias-delta values."""
    positions = np.asarray(positions, dtype=np.int64)
    codes = quantize_corrections(corrections, tolerance)
    bitmap = np.zeros(n, dtype=np.bool_)
    bitmap[positions] = True
    bitmap_bytes = lossless.compress(np.packbits(bitmap).tobytes(), method="auto")

    # outliers have |corr| > t so codes are nonzero; zigzag makes them
    # positive for the universal code
    elias, _ = delta_encode(zigzag(codes[np.argsort(positions)]))
    head = struct.pack("<QQdI", n, positions.size, tolerance, len(bitmap_bytes))
    return head + bitmap_bytes + elias


def bitmap_decode(payload: bytes) -> tuple[np.ndarray, np.ndarray, float]:
    """Returns ``(positions, corrections, tolerance)``."""
    head_size = struct.calcsize("<QQdI")
    if len(payload) < head_size:
        raise StreamFormatError("truncated bitmap outlier payload")
    n, k, tolerance, bitmap_len = struct.unpack_from("<QQdI", payload)
    bitmap_raw = lossless.decompress(payload[head_size : head_size + bitmap_len])
    bitmap = np.unpackbits(np.frombuffer(bitmap_raw, dtype=np.uint8))[:n].astype(bool)
    positions = np.flatnonzero(bitmap)
    if positions.size != k:
        raise StreamFormatError("bitmap population does not match outlier count")
    codes = unzigzag(delta_decode(payload[head_size + bitmap_len :], int(k)))
    return positions, dequantize_corrections(codes, tolerance), tolerance
