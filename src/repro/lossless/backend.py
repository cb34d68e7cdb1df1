"""Lossless backend: the ZSTD-substitute final pass.

Real SPERR pipes its concatenated coefficient + outlier bitstreams through
ZSTD (paper Sec. V).  With no external compressors available we provide a
from-scratch composite backend with several methods and an ``auto`` mode
that keeps whichever candidate is smallest — mirroring the practical effect
of the ZSTD pass (a small, data-dependent saving on top of the entropy-dense
SPECK output, a larger one on structured sections such as code books).

The one-byte method tag at the front makes every payload self-describing.
Tags 0–5 are the legacy formats and stay decodable forever; tag 6 is the
vectorized static range coder that replaced the per-bit adaptive coder on
the encode side (``method="ac"`` still encodes tag 5 for compatibility
experiments, but ``auto`` never picks it).  docs/lossless.md documents the
formats and the selection policy.

``auto`` prices candidates cheapest-first and hands each coder the current
best size as an abort budget, so losing candidates stop early instead of
finishing a payload that will be thrown away:

1. ``stored`` is the floor.
2. ``rle`` is priced exactly from the run histogram before encoding.
3. ``huffman`` / ``rle+huffman`` are priced exactly from the byte
   histogram and the code-length table; only a winner is packed.
4. ``rc`` is skipped when the order-0 entropy bound already loses, and
   aborts mid-stream past the budget.
5. ``lz77`` runs under the entropy gate below (dictionary matching is
   the most expensive probe and cannot win on entropy-dense data).
"""

from __future__ import annotations

import struct

import numpy as np

from ..errors import InvalidArgumentError, StreamFormatError
from ..obs import span
from . import arith, huffman, lz77, rc, rle

__all__ = ["compress", "decompress", "METHODS"]

_TAG_STORED = 0
_TAG_RLE = 1
_TAG_HUFFMAN = 2
_TAG_RLE_HUFFMAN = 3
_TAG_LZ77 = 4
_TAG_AC = 5
_TAG_RC = 6

METHODS = ("stored", "rle", "huffman", "rle+huffman", "lz77", "ac", "rc", "auto")

#: ``auto`` hands payloads up to this size to the LZ77 probe (the
#: vectorized matcher runs ~1 MiB in well under a second; the old
#: per-byte encoder capped out at 256 KiB).
_LZ77_SIZE_LIMIT = 1 << 20

#: ``auto`` skips the LZ77 probe when the input's order-0 entropy exceeds
#: this many bits per byte: entropy-dense SPECK output is essentially
#: incompressible, and dictionary matching cannot beat the entropy coders
#: there.  (The former ``_AC_SIZE_LIMIT`` is gone: the range coder that
#: replaced AC in ``auto`` is vectorized, so method selection no longer
#: changes at a size threshold.)
_DENSE_ENTROPY_BITS = 7.0
#: ... but always probe everything on tiny inputs, where it is cheap.
_SMALL_INPUT_BYTES = 1 << 11


def _entropy_bits_per_byte(counts: np.ndarray, n: int) -> float:
    """Order-0 entropy in bits per byte, from a byte histogram."""
    p = counts[counts > 0] / n
    return float(-(p * np.log2(p)).sum())


#: Top bit of the symbol-count header field: the section carries a
#: segment index (``uint16`` bit length per full segment) between the
#: code book and the payload, so the decoder can run segments as
#: parallel lanes.  Unflagged sections keep the original layout and the
#: serial decode walk, so old payloads stay decodable byte-for-byte.
_HUFFMAN_INDEX_FLAG = 1 << 63
#: Sections with at least this many symbols are packed with the index
#: (the ~0.5-1.5 % index overhead only pays off once the serial walk
#: would dominate decode time).
_HUFFMAN_INDEX_MIN = 1 << 15


def _huffman_pack(data: bytes, arr: np.ndarray, freqs: np.ndarray,
                  code: huffman.HuffmanCode) -> bytes:
    payload, nbits = huffman.encode(arr, code)
    book = huffman.serialize_code(code)
    n = len(data)
    if n >= _HUFFMAN_INDEX_MIN:
        index = huffman.segment_bits(arr, code)[:-1].astype("<u2").tobytes()
        header = struct.pack("<QQ", n | _HUFFMAN_INDEX_FLAG, nbits)
        return header + book + index + payload
    return struct.pack("<QQ", n, nbits) + book + payload


def _huffman_packed_size(n: int, freqs: np.ndarray, code: huffman.HuffmanCode) -> int:
    """Exact byte size :func:`_huffman_pack` would produce, without packing."""
    nbits = huffman.encoded_nbits(freqs, code)
    book = len(huffman.serialize_code(code))
    index = 0
    if n >= _HUFFMAN_INDEX_MIN:
        index = 2 * (-(-n // huffman.SEGMENT_SYMBOLS) - 1)
    return 16 + book + index + ((nbits + 7) >> 3)


def _huffman_unpack(data: bytes) -> bytes:
    if len(data) < 16:
        raise StreamFormatError("truncated huffman section")
    n_raw, nbits = struct.unpack("<QQ", data[:16])
    indexed = bool(n_raw & _HUFFMAN_INDEX_FLAG)
    n = n_raw & (_HUFFMAN_INDEX_FLAG - 1)
    # Both counts are untrusted: every Huffman code spends at least one
    # bit per symbol, and no more bits can be valid than the section
    # holds, so anything outside those bounds is corruption — reject it
    # before the decoder allocates ``n`` output symbols.
    if nbits > 8 * (len(data) - 16):
        raise StreamFormatError(
            f"huffman section declares {nbits} bits in {len(data) - 16} bytes"
        )
    if n > nbits and n > 0:
        raise StreamFormatError(
            f"huffman section declares {n} symbols in {nbits} bits"
        )
    code, consumed = huffman.deserialize_code(data[16:])
    # Byte sections are coded over a 256-symbol alphabet; a wider book
    # would decode symbols that wrap in the uint8 output below.
    if code.nsymbols > 256:
        raise StreamFormatError(
            f"huffman byte section has a {code.nsymbols}-symbol code book"
        )
    body = data[16 + consumed :]
    if indexed:
        isize = 2 * (-(-n // huffman.SEGMENT_SYMBOLS) - 1) if n else 0
        if len(body) < isize:
            raise StreamFormatError("truncated huffman segment index")
        seg_bits = np.frombuffer(body[:isize], dtype="<u2")
        symbols = huffman.decode_segmented(body[isize:], nbits, n, code, seg_bits)
    else:
        symbols = huffman.decode(body, nbits, n, code)
    return symbols.astype(np.uint8).tobytes()


def compress(data: bytes, method: str = "auto") -> bytes:
    """Losslessly compress ``data`` with the chosen method.

    ``auto`` prices stored, RLE, Huffman, RLE+Huffman and the range coder
    (plus LZ77 when the data is small or its byte entropy suggests real
    redundancy) and keeps the smallest result.
    """
    with span("lossless.encode", method=method) as sp:
        out = _compress_body(data, method)
        sp.set(tag=out[0])
        sp.add("lossless.bytes_in", len(data)).add("lossless.bytes_out", len(out))
    return out


def _compress_explicit(data: bytes, method: str) -> bytes:
    """Encode with one specific method (returned even if larger)."""
    if method == "rle":
        return bytes([_TAG_RLE]) + rle.encode(data)
    arr = np.frombuffer(data, dtype=np.uint8)
    if method in ("huffman", "rle+huffman"):
        tag = _TAG_HUFFMAN if method == "huffman" else _TAG_RLE_HUFFMAN
        if method == "rle+huffman":
            data = rle.encode(data)
            arr = np.frombuffer(data, dtype=np.uint8)
        freqs = np.bincount(arr, minlength=256)
        code = huffman.build_code(freqs)
        return bytes([tag]) + _huffman_pack(data, arr, freqs, code)
    if method == "lz77":
        return bytes([_TAG_LZ77]) + lz77.encode(data)
    if method == "ac":
        return bytes([_TAG_AC]) + arith.encode(data)
    assert method == "rc"
    return bytes([_TAG_RC]) + rc.encode(data)


def _compress_body(data: bytes, method: str) -> bytes:
    """Candidate pricing and selection, inside the encode span."""
    if method not in METHODS:
        raise InvalidArgumentError(f"unknown lossless method {method!r}")
    if method == "stored" or not data:
        return bytes([_TAG_STORED]) + data
    if method != "auto":
        return _compress_explicit(data, method)

    n = len(data)
    best = bytes([_TAG_STORED]) + data

    # RLE: each (value, run<=255) pair costs two bytes; the pair count
    # follows from the change points, so the size is exact and free.
    arr = np.frombuffer(data, dtype=np.uint8)
    changes = np.flatnonzero(np.diff(arr)) + 1
    bounds = np.concatenate(([0], changes, [n]))
    runs = np.diff(bounds)
    n_pairs = int((-(-runs // 255)).sum())
    rle_size = 1 + 8 + 2 * n_pairs
    rle_data: bytes | None = None
    if rle_size < len(best):
        rle_data = rle.encode(data)
        best = bytes([_TAG_RLE]) + rle_data

    # Huffman over the raw bytes and over the RLE'd bytes: exact sizes
    # from histogram x code-length tables; pack only what wins.
    freqs = np.bincount(arr, minlength=256)
    code = huffman.build_code(freqs)
    if 1 + _huffman_packed_size(n, freqs, code) < len(best):
        best = bytes([_TAG_HUFFMAN]) + _huffman_pack(data, arr, freqs, code)
    rle_nbytes = 8 + 2 * n_pairs
    if rle_data is None and 21 + (rle_nbytes >> 3) < len(best):
        # The RLE+Huffman probe needs the actual RLE bytes.  Huffman
        # spends at least one bit per input byte plus ~21 bytes of tag,
        # header and minimal code book, so when even that floor loses
        # there is no point materializing the RLE form.
        rle_data = rle.encode(data)
    if rle_data is not None:
        rarr = np.frombuffer(rle_data, dtype=np.uint8)
        rfreqs = np.bincount(rarr, minlength=256)
        rcode = huffman.build_code(rfreqs)
        if 1 + _huffman_packed_size(len(rle_data), rfreqs, rcode) < len(best):
            best = bytes([_TAG_RLE_HUFFMAN]) + _huffman_pack(
                rle_data, rarr, rfreqs, rcode
            )

    # Range coder: its payload cannot beat the order-0 entropy bound plus
    # its fixed header, so skip it when that bound already loses.
    entropy = _entropy_bits_per_byte(freqs, n)
    rc_floor = 1 + 9 + 384 + int(entropy * n / 8)
    if rc_floor < len(best):
        cand = rc.encode(data, max_bytes=len(best) - 2)
        if cand is not None and 1 + len(cand) < len(best):
            best = bytes([_TAG_RC]) + cand

    # LZ77: the expensive probe, gated to data with byte-level redundancy.
    if (n <= _SMALL_INPUT_BYTES or entropy < _DENSE_ENTROPY_BITS) and (
        n <= _LZ77_SIZE_LIMIT
    ):
        cand = lz77.encode(data, max_bytes=len(best) - 2)
        if cand is not None and 1 + len(cand) < len(best):
            best = bytes([_TAG_LZ77]) + cand
    return best


def decompress(payload: bytes) -> bytes:
    """Inverse of :func:`compress` (self-describing via the method tag)."""
    if not payload:
        raise StreamFormatError("empty lossless payload")
    with span("lossless.decode") as sp:
        out = _decompress_body(payload)
        sp.set(tag=payload[0])
        sp.add("lossless.bytes_in", len(payload)).add("lossless.bytes_out", len(out))
    return out


def _decompress_body(payload: bytes) -> bytes:
    """Tag dispatch, inside the decode span."""
    tag, body = payload[0], payload[1:]
    if tag == _TAG_STORED:
        return body
    if tag == _TAG_RLE:
        return rle.decode(body)
    if tag == _TAG_HUFFMAN:
        return _huffman_unpack(body)
    if tag == _TAG_RLE_HUFFMAN:
        return rle.decode(_huffman_unpack(body))
    if tag == _TAG_LZ77:
        return lz77.decode(body)
    if tag == _TAG_AC:
        return arith.decode(body)
    if tag == _TAG_RC:
        return rc.decode(body)
    raise StreamFormatError(f"unknown lossless method tag {tag}")
