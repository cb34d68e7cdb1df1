"""Vectorized MSB-first bit packing/unpacking kernels.

The entropy coders in this package (Huffman, LZ77 token streams, the
range coder's frequency table) all emit sequences of variable-width
bit fields, MSB-first within each byte — the layout
:class:`~repro.bitstream.writer.BitWriter` produces.  Doing that one
field at a time costs a Python-level loop per symbol; these kernels do
it in O(1) numpy passes:

* :func:`pack_msb` scatters every field's bytes with ``np.bincount``.
  Each field of width ``w`` at bit offset ``p`` touches at most five
  output bytes; because fields never share bits, per-byte contributions
  can be *summed* instead of OR'd, and a weighted bincount per byte
  lane is exact (sums stay below 256).
* :func:`byte_windows` precomputes the 32-bit big-endian window at
  every byte offset, after which :func:`extract_msb` reads a field at
  any bit position with two shifts — the decode-side mirror.
  :func:`bit_windows` reads one at *every* bit offset as eight shifted
  copies of the byte windows, for table-driven decoders.

Both ends are byte-for-byte compatible with ``BitWriter``/``BitReader``
(`tests/test_lossless.py` cross-checks them).
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidArgumentError

__all__ = ["pack_msb", "byte_windows", "extract_msb", "bit_windows", "MAX_FIELD_BITS"]

#: Widest field :func:`pack_msb` accepts.  A 32-bit field at bit offset
#: 7 spans 39 bits — five byte lanes — which bounds the lane loop.
MAX_FIELD_BITS = 32

#: Widest field :func:`extract_msb` can read from a 32-bit window
#: (width + 7 offset bits must fit in 32).
MAX_EXTRACT_BITS = 25


def pack_msb(values: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """Concatenate variable-width bit fields MSB-first; returns (bytes, nbits).

    ``values[i]``'s low ``lengths[i]`` bits are appended in order.  Bits
    above each field's width are masked off.  Widths may be zero (the
    field contributes nothing) but not negative or above
    :data:`MAX_FIELD_BITS`.
    """
    values = np.asarray(values, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if values.shape != lengths.shape or values.ndim != 1:
        raise InvalidArgumentError("values and lengths must be matching 1-D arrays")
    if lengths.size == 0:
        return b"", 0
    if int(lengths.min()) < 0 or int(lengths.max()) > MAX_FIELD_BITS:
        raise InvalidArgumentError(
            f"field widths must lie in [0, {MAX_FIELD_BITS}]"
        )
    ends = np.cumsum(lengths)
    total = int(ends[-1])
    if total == 0:
        return b"", 0
    offsets = ends - lengths
    nbytes = (total + 7) >> 3

    values = values & ((np.uint64(1) << lengths.astype(np.uint64)) - np.uint64(1))
    # Align each field inside a 64-bit big-endian window that starts at
    # its first output byte: bits [r, r+len) of the window, r = offset&7.
    shift = (np.uint64(64) - (offsets & 7).astype(np.uint64) - lengths.astype(np.uint64))
    aligned = values << shift
    byte0 = offsets >> 3

    acc = np.zeros(nbytes + 5, dtype=np.float64)
    for k in range(5):
        lane = ((aligned >> np.uint64(56 - 8 * k)) & np.uint64(0xFF)).astype(np.float64)
        acc += np.bincount(byte0 + k, weights=lane, minlength=nbytes + 5)
    return acc[:nbytes].astype(np.uint8).tobytes(), total


def byte_windows(data: bytes | np.ndarray) -> np.ndarray:
    """32-bit big-endian window starting at every byte offset of ``data``.

    ``w[i]`` holds bytes ``data[i:i+4]`` (zero-padded past the end) as a
    big-endian ``uint32`` — the decode-side companion of
    :func:`pack_msb`, consumed by :func:`extract_msb`.
    """
    buf = (
        np.frombuffer(data, dtype=np.uint8)
        if not isinstance(data, np.ndarray)
        else data.astype(np.uint8, copy=False)
    )
    b = np.concatenate([buf, np.zeros(4, dtype=np.uint8)]).astype(np.uint32)
    return (b[:-3] << 8 | b[1:-2]) << 16 | (b[2:-1] << 8 | b[3:])


def extract_msb(
    windows: np.ndarray, bitpos: np.ndarray, width: int | np.ndarray
) -> np.ndarray:
    """Read a ``width``-bit MSB-first field at each bit position.

    ``windows`` comes from :func:`byte_windows`; ``width`` is either a
    scalar or a per-position array, and must not exceed
    :data:`MAX_EXTRACT_BITS` so the field plus its sub-byte offset fits
    in one 32-bit window.  Callers must keep ``bitpos + width`` within
    the underlying buffer.
    """
    bitpos = np.asarray(bitpos)
    if not np.isscalar(width) and np.asarray(width).ndim > 0:
        warr = np.asarray(width, dtype=np.int64)
        if warr.size and (int(warr.min()) < 0 or int(warr.max()) > MAX_EXTRACT_BITS):
            raise InvalidArgumentError(
                f"extract widths must lie in [0, {MAX_EXTRACT_BITS}]"
            )
        w = windows[bitpos >> 3]
        wa = warr.astype(np.uint32)
        shift = np.uint32(32) - wa - (bitpos & 7).astype(np.uint32)
        return (w >> shift) & ((np.uint32(1) << wa) - np.uint32(1))
    if width < 0 or width > MAX_EXTRACT_BITS:
        raise InvalidArgumentError(
            f"extract width must lie in [0, {MAX_EXTRACT_BITS}]"
        )
    if width == 0:
        return np.zeros(bitpos.shape, dtype=np.uint32)
    w = windows[bitpos >> 3]
    shift = (np.uint32(32 - width) - (bitpos & 7).astype(np.uint32))
    return (w >> shift) & np.uint32((1 << width) - 1)


def bit_windows(data: bytes | np.ndarray, nbits: int, width: int) -> np.ndarray:
    """The ``width``-bit MSB-first field at every bit offset ``0..nbits-1``.

    Equal to ``extract_msb(byte_windows(data), np.arange(nbits), width)``
    but returned as ``intp``, ready to index a lookup table.  Bit offset
    ``8*i + r`` is byte window ``i`` shifted by ``r``, so the result is
    eight strided shift-and-mask passes over the byte windows instead of
    a gather per bit.  Bits past the end of ``data`` read as zero;
    ``nbits`` must not exceed ``8 * len(data)``.
    """
    if width < 0 or width > MAX_EXTRACT_BITS:
        raise InvalidArgumentError(
            f"extract width must lie in [0, {MAX_EXTRACT_BITS}]"
        )
    w = byte_windows(data).astype(np.intp)
    out = np.empty((w.size, 8), dtype=np.intp)
    mask = (1 << width) - 1
    for r in range(8):
        np.bitwise_and(w >> (32 - width - r), mask, out=out[:, r])
    return out.reshape(-1)[:nbits]
