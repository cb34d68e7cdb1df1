"""Chunk framing and the standalone registry codec for the SZx-style tier.

Two layers live here:

* :func:`encode_chunk` / :func:`encode_chunks` / :func:`decode_chunk` —
  the self-contained per-chunk stream (``SZX1`` framing) the adaptive
  container and store embed next to SPERR chunk streams.  Unlike the
  SPERR path these streams deliberately skip the lossless backend pass:
  the bitshuffled planes are already dense, and the whole point of the
  tier is to keep the byte path as short as possible.
* :class:`SzxLikeCompressor` — the registry codec (``szx-like``): the
  container's ``fast`` tier behind the :class:`Compressor` interface.
"""

from __future__ import annotations

import struct

import numpy as np

from ...core import compress as core_compress
from ...core import decompress as core_decompress
from ...core.modes import PweMode
from ...errors import (
    InvalidArgumentError,
    StreamFormatError,
    checked_shape,
    decode_guard,
)
from ..base import Compressor, Mode
from .blocks import decode_lane, encode_lanes

__all__ = [
    "CHUNK_MAGIC",
    "encode_chunk",
    "encode_chunks",
    "decode_chunk",
    "SzxLikeCompressor",
]

CHUNK_MAGIC = b"SZX1"

#: Chunk prologue: magic, version, rank, reserved, tolerance.
_CHUNK_HEAD = struct.Struct("<4sBBHd")


def encode_chunks(arrays: list[np.ndarray], tolerance: float) -> list[bytes]:
    """Encode many finite float arrays as independent ``SZX1`` streams.

    All lanes run through one stacked kernel pass (see
    :func:`~repro.compressors.szxlike.blocks.encode_lanes`), and each
    stream depends only on its own lane — so this batched entry point
    and :func:`encode_chunk` produce byte-identical output.
    """
    for a in arrays:
        if a.ndim < 1 or a.ndim > 3:
            raise InvalidArgumentError("szx chunks must be 1-D to 3-D")
    bodies = encode_lanes(arrays, tolerance)
    out = []
    for a, body in zip(arrays, bodies):
        head = _CHUNK_HEAD.pack(CHUNK_MAGIC, 1, a.ndim, 0, float(tolerance))
        head += struct.pack(f"<{a.ndim}Q", *a.shape)
        out.append(head + body)
    return out


def encode_chunk(data: np.ndarray, tolerance: float) -> bytes:
    """Encode one finite float array as a self-contained ``SZX1`` stream."""
    return encode_chunks([data], tolerance)[0]


def decode_chunk(
    stream: bytes, expected_shape: tuple[int, ...] | None = None
) -> np.ndarray:
    """Decode an ``SZX1`` chunk stream back to a float64 array.

    The stream is untrusted: shape and sample counts are validated
    against the decode caps, and when the caller knows the chunk's shape
    from a validated container table, ``expected_shape`` pins it.
    """
    with decode_guard("szx"):
        if stream[:4] != CHUNK_MAGIC:
            raise StreamFormatError("not an szx chunk stream")
        magic, version, rank, _reserved, tolerance = _CHUNK_HEAD.unpack_from(
            stream, 0
        )
        if version != 1:
            raise StreamFormatError(f"unknown szx chunk version {version}")
        if rank < 1 or rank > 3:
            raise StreamFormatError(f"szx chunk declares rank {rank}")
        pos = _CHUNK_HEAD.size
        shape = struct.unpack_from(f"<{rank}Q", stream, pos)
        pos += 8 * rank
        shape = checked_shape(shape, "szx")
        if expected_shape is not None and tuple(expected_shape) != shape:
            raise StreamFormatError(
                f"szx chunk declares shape {shape}, table says "
                f"{tuple(expected_shape)}"
            )
        if not np.isfinite(tolerance) or tolerance <= 0.0:
            raise StreamFormatError(
                f"szx chunk declares tolerance {tolerance}"
            )
        flat = decode_lane(stream[pos:], tolerance)
        n = int(np.prod(shape))
        if flat.size != n:
            raise StreamFormatError(
                f"szx chunk decodes {flat.size} samples for shape {shape}"
            )
        return flat.reshape(shape)


class SzxLikeCompressor(Compressor):
    """SZx-style ultra-fast error-bounded compressor (Yu et al., PAPERS.md).

    The registry face of the fast tier: a thin :class:`Compressor` over
    ``repro.core.compress(codec="fast")`` and ``repro.core.decompress``,
    like :class:`~repro.compressors.sperr.SperrCompressor`.  Masks,
    dtype and CRCs come from the container.
    """

    name = "szx-like"
    supported_modes = (PweMode,)

    def compress(self, data: np.ndarray, mode: Mode) -> bytes:
        """Encode a 1-D to 3-D array under a point-wise error bound."""
        self.check_mode(mode)
        return core_compress(data, mode, codec="fast").payload

    def decompress(self, payload: bytes) -> np.ndarray:
        """Decode a payload written by :meth:`compress`."""
        return core_decompress(payload)
