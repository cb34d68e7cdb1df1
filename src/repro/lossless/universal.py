"""Elias universal codes (gamma and delta).

Sec. II of the paper surveys alternative designs for outlier storage:
"record positions using bitmap coding, and ... handle correction values
using, for example, variable-length coding (e.g., universal codes
[Elias 1975])".  These are those codes, used by the alternative outlier
coders in :mod:`repro.outlier.alternatives` that the Sec.-II design-space
bench compares against SPERR's unified scheme.

Elias gamma codes a positive integer ``n`` as ``floor(log2 n)`` zeros,
then the binary representation of ``n`` (MSB = the terminating 1).
Elias delta codes the length with gamma first, then the remaining bits —
asymptotically better for large values.

The encoders lay every code out as fixed fields and pack them in one
:func:`~repro.lossless.bitpack.pack_msb_wide` pass.  The decoders walk
the unpacked bits with an integer cursor, one code at a time.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidArgumentError, StreamFormatError
from .bitpack import pack_msb_wide

__all__ = [
    "gamma_encode",
    "gamma_decode",
    "delta_encode",
    "delta_decode",
    "zigzag",
    "unzigzag",
]

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
