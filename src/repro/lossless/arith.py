"""Adaptive binary arithmetic coding (Witten-Neal-Cleary style).

The SPECK lineage traditionally offers an arithmetic-coded variant (the
original SPECK paper and QccPack both report one): the significance-map
bits of smooth data are heavily skewed toward zero, which an adaptive
bit model exploits without any side information.  Here the coder serves
as an additional method of the lossless backend — useful on SPERR's
significance-heavy sections where Huffman's one-bit-per-symbol floor
costs it.

Implementation: 32-bit integer range coder with carry handling via
pending-bit counting; adaptive models keep per-context zero/one counts
with halving when the total saturates.  Context: the bit's position
within its byte plus the previous bit (16 models) — enough to capture
byte-level structure without a Python-speed-prohibitive model.
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import StreamFormatError

__all__ = ["encode", "decode", "encode_bits", "decode_bits", "AdaptiveBitModel"]

_TOP = 1 << 32
_HALF = 1 << 31
_QUARTER = 1 << 30
_THREE_QUARTER = 3 << 30
_MASK = _TOP - 1
_MAX_TOTAL = 1 << 16


class AdaptiveBitModel:
    """Zero/one counts with saturation halving; p0 = c0 / (c0 + c1)."""

    __slots__ = ("c0", "c1")

    def __init__(self) -> None:
        self.c0 = 1
        self.c1 = 1

    def update(self, bit: int) -> None:
        if bit:
            self.c1 += 1
        else:
            self.c0 += 1
        if self.c0 + self.c1 >= _MAX_TOTAL:
            self.c0 = (self.c0 + 1) >> 1
            self.c1 = (self.c1 + 1) >> 1


class _Encoder:
    def __init__(self) -> None:
        self.low = 0
        self.high = _MASK
        self.pending = 0
        self.bits: list[int] = []

    def _emit(self, bit: int) -> None:
        self.bits.append(bit)
        other = 1 - bit
        for _ in range(self.pending):
            self.bits.append(other)
        self.pending = 0

    def encode(self, bit: int, model: AdaptiveBitModel) -> None:
        total = model.c0 + model.c1
        span = self.high - self.low + 1
        split = self.low + (span * model.c0) // total - 1
        if bit:
            self.low = split + 1
        else:
            self.high = split
        model.update(bit)
        while True:
            if self.high < _HALF:
                self._emit(0)
            elif self.low >= _HALF:
                self._emit(1)
                self.low -= _HALF
                self.high -= _HALF
            elif self.low >= _QUARTER and self.high < _THREE_QUARTER:
                self.pending += 1
                self.low -= _QUARTER
                self.high -= _QUARTER
            else:
                break
            self.low = (self.low << 1) & _MASK
            self.high = ((self.high << 1) | 1) & _MASK

    def finish(self) -> list[int]:
        self.pending += 1
        if self.low < _QUARTER:
            self._emit(0)
        else:
            self._emit(1)
        return self.bits


def encode_bits(bits: np.ndarray, n_contexts: int, context_fn) -> bytes:
    """Encode a bit array with caller-supplied context selection."""
    models = [AdaptiveBitModel() for _ in range(n_contexts)]
    enc = _Encoder()
    prev = 0
    for i, b in enumerate(np.asarray(bits, dtype=np.uint8).tolist()):
        enc.encode(int(b), models[context_fn(i, prev)])
        prev = int(b)
    out = enc.finish()
    return np.packbits(np.asarray(out, dtype=np.uint8)).tobytes()


def decode_bits(data: bytes, n: int, n_contexts: int, context_fn) -> np.ndarray:
    """Inverse of :func:`encode_bits`.

    One fused loop: the coder state and the per-context counts live in
    locals and lists (the arithmetic of :class:`AdaptiveBitModel` and
    the encoder, inlined), and input bits come from a Python list.
    Input past the end of ``data`` reads as zeros.
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


def encode(data: bytes) -> bytes:
    """Arithmetic-code a byte string (16 bit-position/previous-bit contexts)."""
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    payload = encode_bits(bits, 16, _byte_context)
    return struct.pack("<Q", len(data)) + payload


#: Decode-side cap on the declared output size.  The backend never feeds
#: more than 64 KiB into :func:`encode` (``_AC_SIZE_LIMIT``); a declared
#: size far beyond that is corruption, and the per-bit Python decode loop
#: must not be driven by a forged 2**60 count.
_MAX_DECODE_BYTES = 1 << 17


def decode(payload: bytes) -> bytes:
    """Inverse of :func:`encode`."""
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
