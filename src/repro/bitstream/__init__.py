"""SPERR stream headers: the fixed 20-byte chunk header and its
parameter block.

Bit packing lives in :mod:`repro.lossless.bitpack`.
"""

from .header import HEADER_SIZE, MAGIC, MAX_CHUNK_POINTS, VERSION, ChunkHeader, ChunkParams

__all__ = [
    "ChunkHeader",
    "ChunkParams",
    "HEADER_SIZE",
    "MAGIC",
    "MAX_CHUNK_POINTS",
    "VERSION",
]
