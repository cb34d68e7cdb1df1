"""Batched bit-oriented input stream, the mirror of :class:`BitWriter`.

Batch decoders (the Elias universal codes, the outlier-coding
alternatives) consume bits in the same order the encoder produced them,
so the reader exposes a vectorized ``read_bits(n)`` returning a boolean
array view.  Exhaustion is a normal event for embedded streams (any
prefix is decodable): ``read_bits`` returns however many bits remain and
the caller checks :attr:`exhausted`.  The SPECK decoder walks its own
unpacked bit array with an integer cursor instead
(:func:`repro.speck.codec.decode_lsp`).
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidArgumentError, StreamFormatError

__all__ = ["BitReader"]


class BitReader:
    """Sequential reader over a packed bit buffer (MSB-first per byte)."""

    def __init__(self, data: bytes | bytearray | np.ndarray, nbits: int | None = None) -> None:
        buf = np.frombuffer(bytes(data), dtype=np.uint8) if not isinstance(data, np.ndarray) else data
        if buf.dtype == np.bool_:
            self._bits = buf
        else:
            self._bits = np.unpackbits(buf.astype(np.uint8, copy=False)).astype(np.bool_)
        if nbits is not None:
            if nbits > self._bits.size:
                raise StreamFormatError(
                    f"declared {nbits} bits but buffer holds only {self._bits.size}"
                )
            self._bits = self._bits[:nbits]
        self._pos = 0

    @property
    def pos(self) -> int:
        """Number of bits consumed so far."""
        return self._pos

    @property
    def nbits(self) -> int:
        """Total number of bits in the stream."""
        return self._bits.size

    @property
    def remaining(self) -> int:
        """Number of unread bits."""
        return self._bits.size - self._pos

    @property
    def exhausted(self) -> bool:
        """True once every bit has been consumed."""
        return self._pos >= self._bits.size

    def seek(self, pos: int) -> None:
        """Reposition the cursor (used by codecs that re-read a block header)."""
        if pos < 0 or pos > self._bits.size:
            raise InvalidArgumentError(f"seek position {pos} out of range")
        self._pos = pos

    def read_bit(self) -> bool:
        """Read one bit; raises :class:`StreamFormatError` past the end."""
        if self._pos >= self._bits.size:
            raise StreamFormatError("bit stream exhausted")
        bit = bool(self._bits[self._pos])
        self._pos += 1
        return bit

    def read_bits(self, n: int) -> np.ndarray:
        """Read up to ``n`` bits as a boolean array.

        Returns fewer than ``n`` bits (possibly zero) if the stream runs
        out — embedded-stream truncation is not an error.  The returned
        array is a view; callers must not mutate it.
        """
        if n < 0:
            raise InvalidArgumentError("cannot read a negative number of bits")
        end = min(self._pos + n, self._bits.size)
        out = self._bits[self._pos:end]
        self._pos = end
        return out

    def read_bits_exact(self, n: int) -> np.ndarray:
        """Read exactly ``n`` bits or raise :class:`StreamFormatError`."""
        if self.remaining < n:
            raise StreamFormatError(
                f"needed {n} bits but only {self.remaining} remain"
            )
        return self.read_bits(n)

    def read_uint(self, width: int) -> int:
        """Read ``width`` bits as an unsigned integer (MSB first).

        The bits are packed into whole bytes in one vectorized step and
        assembled word-at-a-time, replacing the former per-bit Python loop.
        """
        bits = self.read_bits_exact(width)
        if width == 0:
            return 0
        # packbits zero-pads the tail byte on the LSB side; shift it out.
        return int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-width % 8)

    def read_uints(self, width: int, count: int) -> np.ndarray:
        """Read ``count`` consecutive ``width``-bit unsigned integers.

        Batch refill for word-at-a-time consumers: one reshape + packbits
        replaces ``count`` scalar reads.  ``width`` must be 64 or less;
        raises :class:`StreamFormatError` if fewer than ``width * count``
        bits remain.
        """
        if width < 0 or width > 64:
            raise InvalidArgumentError("width must be in [0, 64]")
        if count < 0:
            raise InvalidArgumentError("count must be non-negative")
        if width == 0 or count == 0:
            self.read_bits_exact(width * count)
            return np.zeros(count, dtype=np.uint64)
        bits = self.read_bits_exact(width * count).reshape(count, width)
        padded = np.zeros((count, 64), dtype=np.bool_)
        padded[:, 64 - width :] = bits
        words = np.packbits(padded, axis=1)
        return words.view(">u8").astype(np.uint64).reshape(count)
