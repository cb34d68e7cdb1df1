"""From-scratch lossless codecs: Huffman, LZ77, a static range coder,
the decoders of the retired RLE and adaptive-arithmetic tags, and the
composite backend that stands in for ZSTD on baseline sections and
masks (SPERR chunk sections are framed ``stored``).  See
docs/lossless.md for stream formats and both rules."""

from . import arith, bitpack, huffman, lz77, rc, rle
from .backend import METHODS, compress, decompress

__all__ = [
    "compress",
    "decompress",
    "METHODS",
    "arith",
    "bitpack",
    "huffman",
    "rc",
    "rle",
    "lz77",
]
