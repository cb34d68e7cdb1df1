"""Byte run-length decoding, fully vectorized.

Lossless tag 1 is a stream of ``(value, run_length)`` byte pairs, runs
capped at 255, after a ``u64`` byte count.  Nothing encodes it any more
— ``auto`` never chose it on any measured caller's data once SPERR
sections were framed ``stored`` — but tag-1 payloads stay decodable,
pinned by ``tests/data/lossless_rle.bin``.  The decoder also still
serves the decode-only tag 3, whose Huffman section holds a tag-1 body.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import StreamFormatError

__all__ = ["decode"]


def decode(data: bytes) -> bytes:
    """Expand a ``u64 n`` + ``(value, run)`` pair stream to ``n`` bytes."""
    if len(data) < 8:
        raise StreamFormatError("truncated RLE stream")
    (n,) = struct.unpack("<Q", data[:8])
    pairs = np.frombuffer(data[8:], dtype=np.uint8)
    if pairs.size % 2 != 0:
        raise StreamFormatError("RLE stream has a dangling half-pair")
    values = pairs[0::2]
    runs = pairs[1::2].astype(np.int64)
    out = np.repeat(values, runs)
    if out.size != n:
        raise StreamFormatError(
            f"RLE stream decodes to {out.size} bytes, expected {n}"
        )
    return out.tobytes()
