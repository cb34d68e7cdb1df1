"""The Sec. II outlier-storage designs the paper dismisses, as test code.

The paper motivates its SPECK-inspired outlier coder by dismissing
simpler designs; these coders implement two of them so the claim can be
measured (``benchmarks/bench_ablation_outlier_designs.py``, which puts
``tests/`` on ``sys.path`` to import this module):

* **CSR-style** — "Compressed Sparse Row ... far from optimal in our
  application because they still use naive storage to record element
  positions and values": positions as fixed-width integers, corrections
  quantized to ``t``-steps as fixed-width integers.
* **Bitmap + universal codes** — "record positions using bitmap coding
  ... and handle correction values using ... universal codes": a
  presence bitmap over the domain, compressed by the lossless backend's
  ``auto`` (Huffman, tag 2, on all three of the ablation's cases), plus
  Elias-delta-coded zigzag quantized corrections.
* **SZ-style quant bins** — quantized correction value for *every*
  point, Huffman coded (implemented by the SZ-like baseline's codec;
  compared separately in the Fig. 11 bench).

CSR and bitmap satisfy the same contract as the production coder:
positions exact, corrections within ``t/2``.  No codec tag, container
or store path reaches them, so they live with the tests; their bytes
are pinned by ``tests/test_bit_packing_golden.py``.

Elias gamma codes a positive integer ``n`` as ``floor(log2 n)`` zeros,
then the binary representation of ``n`` (MSB = the terminating 1).
Elias delta codes the length with gamma first, then the remaining bits —
asymptotically better for large values.  The encoders lay every code
out as fixed fields and pack them in one :func:`pack_msb_wide` pass;
the decoders walk the unpacked bits with an integer cursor, one code at
a time.
"""

from __future__ import annotations

import struct

import numpy as np

from repro import lossless
from repro.errors import InvalidArgumentError, StreamFormatError
from repro.lossless.bitpack import MAX_FIELD_BITS, pack_msb

# --- bit packing for fields of up to 64 bits ---------------------------------


def pack_msb_wide(values: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """:func:`~repro.lossless.bitpack.pack_msb` for fields of up to 64
    bits; returns (bytes, nbits).

    Each field becomes a high part of ``max(0, width - 32)`` bits and a
    low part of ``min(width, 32)`` bits, which ``pack_msb`` writes in
    that order — the same bits as one ``width``-bit field.
    """
    values = np.asarray(values, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if values.shape != lengths.shape or values.ndim != 1:
        raise InvalidArgumentError("values and lengths must be matching 1-D arrays")
    if lengths.size and (int(lengths.min()) < 0 or int(lengths.max()) > 64):
        raise InvalidArgumentError("field widths must lie in [0, 64]")
    high = np.maximum(lengths - MAX_FIELD_BITS, 0)
    return pack_msb(
        np.stack([values >> np.uint64(MAX_FIELD_BITS), values], axis=1).ravel(),
        np.stack([high, lengths - high], axis=1).ravel(),
    )


# --- Elias universal codes ---------------------------------------------------

#: Widest value the int64 decoders return.
_MAX_VALUE_BITS = 63


def zigzag(values: np.ndarray) -> np.ndarray:
    """Map signed integers to positive ones: 0,-1,1,-2,2 -> 1,2,3,4,5."""
    values = np.asarray(values, dtype=np.int64)
    return np.where(values >= 0, 2 * values + 1, -2 * values)


def unzigzag(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag`."""
    values = np.asarray(values, dtype=np.int64)
    return np.where(values % 2 == 1, (values - 1) // 2, -(values // 2))


def _positive(values: np.ndarray, code: str) -> np.ndarray:
    values = np.asarray(values, dtype=np.int64).reshape(-1)
    if values.size and values.min() < 1:
        raise InvalidArgumentError(f"{code} codes require positive integers")
    return values


def _bit_length(values: np.ndarray) -> np.ndarray:
    """Exact ``int.bit_length`` of non-negative int64 values."""
    x = values.astype(np.uint64)
    nbits = np.zeros(values.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        big = x >> np.uint64(shift) > 0
        nbits += shift * big
        x = np.where(big, x >> np.uint64(shift), x)
    return nbits + (x > 0)


def _pack_rows(values: list[np.ndarray], widths: list[np.ndarray]) -> tuple[bytes, int]:
    """Pack field ``j`` of every code in code order: row-major interleave."""
    return pack_msb_wide(
        np.stack(values, axis=1).astype(np.uint64).ravel(),
        np.stack(widths, axis=1).ravel(),
    )


def gamma_encode(values: np.ndarray) -> tuple[bytes, int]:
    """Elias gamma codes of positive integers; returns ``(bytes, nbits)``."""
    values = _positive(values, "gamma")
    nbits = _bit_length(values)
    return _pack_rows([np.zeros_like(values), values], [nbits - 1, nbits])


def delta_encode(values: np.ndarray) -> tuple[bytes, int]:
    """Elias delta codes of positive integers; returns ``(bytes, nbits)``.

    Each code is ``gamma(nbits)`` followed by the value's ``nbits - 1``
    bits below its leading 1 (the packer masks that 1 off).
    """
    values = _positive(values, "delta")
    nbits = _bit_length(values)
    width = _bit_length(nbits)
    return _pack_rows(
        [np.zeros_like(values), nbits, values], [width - 1, width, nbits - 1]
    )


def _unpacked(data: bytes, nbits: int | None) -> list[int]:
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    if nbits is not None:
        if nbits > bits.size:
            raise StreamFormatError(
                f"declared {nbits} bits but buffer holds only {bits.size}"
            )
        bits = bits[:nbits]
    return bits.tolist()


def _read_uint(bits: list[int], pos: int, width: int) -> int:
    value = 0
    for bit in bits[pos : pos + width]:
        value = (value << 1) | bit
    return value


def _read_gamma(bits: list[int], pos: int) -> tuple[int, int]:
    """One gamma code at ``pos``; returns ``(value, next_pos)``."""
    try:
        lead = bits.index(1, pos)
    except ValueError:
        raise StreamFormatError("gamma stream exhausted") from None
    width = lead - pos + 1
    if width > _MAX_VALUE_BITS:
        raise StreamFormatError(f"gamma code of a {width}-bit value")
    if lead + width > len(bits):
        raise StreamFormatError("gamma stream exhausted")
    return _read_uint(bits, lead, width), lead + width


def gamma_decode(data: bytes, count: int, nbits: int | None = None) -> np.ndarray:
    """Read ``count`` gamma-coded positive integers from the first
    ``nbits`` bits of ``data`` (all of it by default)."""
    bits = _unpacked(data, nbits)
    out = np.empty(count, dtype=np.int64)
    pos = 0
    for i in range(count):
        out[i], pos = _read_gamma(bits, pos)
    return out


def delta_decode(data: bytes, count: int, nbits: int | None = None) -> np.ndarray:
    """Read ``count`` delta-coded positive integers from the first
    ``nbits`` bits of ``data`` (all of it by default)."""
    bits = _unpacked(data, nbits)
    out = np.empty(count, dtype=np.int64)
    pos = 0
    for i in range(count):
        width, pos = _read_gamma(bits, pos)
        if width > _MAX_VALUE_BITS:
            raise StreamFormatError(f"delta code of a {width}-bit value")
        if pos + width - 1 > len(bits):
            raise StreamFormatError("delta stream exhausted")
        out[i] = (1 << (width - 1)) | _read_uint(bits, pos, width - 1)
        pos += width - 1
    return out


# --- CSR and bitmap outlier coders -------------------------------------------


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
    """Presence bitmap (through the lossless backend's ``auto``) +
    Elias-delta values."""
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
