"""Adaptive binary arithmetic decoding (Witten-Neal-Cleary style).

The SPECK lineage traditionally offers an arithmetic-coded variant (the
original SPECK paper and QccPack both report one).  Lossless tag 5 is
that coder's stream; nothing encodes it any more — the vectorized range
coder (tag 6, :mod:`repro.lossless.rc`) replaced it — but tag-5 payloads
stay decodable, pinned by ``tests/data/lossless_ac.bin``.

Stream format: a 32-bit integer arithmetic coder with carry handling via
pending-bit counting; adaptive models keep per-context zero/one counts
(both starting at 1) with halving when the total reaches 2**16.
Context: the bit's position within its byte plus the previous bit (16
models).
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import StreamFormatError

__all__ = ["decode", "decode_bits"]

_TOP = 1 << 32
_HALF = 1 << 31
_QUARTER = 1 << 30
_THREE_QUARTER = 3 << 30
_MASK = _TOP - 1
_MAX_TOTAL = 1 << 16


def decode_bits(data: bytes, n: int, n_contexts: int, context_fn) -> np.ndarray:
    """Decode ``n`` bits of an arithmetic-coded stream, selecting each
    bit's context with ``context_fn(index, previous_bit)``.

    One fused loop: the coder state and the per-context counts live in
    locals and lists, and input bits come from a Python list.  Input
    past the end of ``data`` reads as zeros.
    """
    c0 = [1] * n_contexts
    c1 = [1] * n_contexts
    src = np.unpackbits(np.frombuffer(data, dtype=np.uint8)).tolist()
    nsrc = len(src)
    value = 0
    for b in src[:32]:
        value = (value << 1) | b
    value <<= 32 - min(nsrc, 32)
    pos = 32
    low = 0
    high = _MASK
    out = [0] * n
    prev = 0
    for i in range(n):
        ctx = context_fn(i, prev)
        zeros = c0[ctx]
        ones = c1[ctx]
        split = low + ((high - low + 1) * zeros) // (zeros + ones) - 1
        if value > split:
            prev = 1
            low = split + 1
            ones += 1
            c1[ctx] = ones
        else:
            prev = 0
            high = split
            zeros += 1
            c0[ctx] = zeros
        if zeros + ones >= _MAX_TOTAL:
            c0[ctx] = (zeros + 1) >> 1
            c1[ctx] = (ones + 1) >> 1
        out[i] = prev
        while True:
            if high < _HALF:
                pass
            elif low >= _HALF:
                low -= _HALF
                high -= _HALF
                value -= _HALF
            elif low >= _QUARTER and high < _THREE_QUARTER:
                low -= _QUARTER
                high -= _QUARTER
                value -= _QUARTER
            else:
                break
            low = (low << 1) & _MASK
            high = ((high << 1) | 1) & _MASK
            value = ((value << 1) | (src[pos] if pos < nsrc else 0)) & _MASK
            pos += 1
    return np.array(out, dtype=np.uint8)


def _byte_context(i: int, prev: int) -> int:
    return ((i & 7) << 1) | prev


#: Decode-side cap on the declared output size.  The encoder never took
#: more than 64 KiB; a declared size far beyond that is corruption, and
#: the per-bit Python decode loop must not be driven by a forged 2**60
#: count.
_MAX_DECODE_BYTES = 1 << 17


def decode(payload: bytes) -> bytes:
    """Decode a tag-5 body: a little-endian u64 byte count, then the
    arithmetic-coded bits of those bytes."""
    if len(payload) < 8:
        raise StreamFormatError("truncated arithmetic-coded stream")
    (n,) = struct.unpack("<Q", payload[:8])
    if n > _MAX_DECODE_BYTES:
        raise StreamFormatError(
            f"arithmetic-coded stream declares {n} bytes, beyond the "
            f"{_MAX_DECODE_BYTES}-byte decode cap"
        )
    bits = decode_bits(payload[8:], n * 8, 16, _byte_context)
    return np.packbits(bits).tobytes()
