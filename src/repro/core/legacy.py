"""Read-only decoders for retired payload framings.

Before every codec became a tag in the container chunk table
(:mod:`repro.core.container`, format v4), three wrappers framed the
baseline codecs on their own.  Their payloads stay readable here, and
only here; nothing writes them any more:

* ``CHNK`` / ``CHK2`` / ``CHK3`` — the chunk-parallel wrapper.  Magic,
  (v2+) header CRC32, rank u8, (v3) dtype code u8, shape, n_chunks u32,
  the chunk bounds, per-chunk byte sizes, (v2+) per-chunk CRC32s, (v3)
  mask nbytes u64 + mask CRC32 u32, the mask blob, then one tile
  payload per chunk.  Each tile is a whole registry-codec payload.
* ``MSKW`` — the mask wrapper: magic, header CRC32, dtype code u8,
  mask nbytes u64, mask CRC32 u32, the mask blob, then one inner
  registry-codec payload.
* ``SZXF`` — the szx-like registry frame: magic, version u8, dtype code
  u8 (0 = float64, 1 = float32), rank u8, reserved u8, mask nbytes
  u64, mask CRC32 u32, stream CRC32 u32, the ``SZX1`` chunk stream,
  then the mask blob.

:func:`parse_legacy` turns each into a
:class:`~repro.core.container.ParsedContainer` whose chunks carry
ordinary codec tags, so :func:`~repro.core.container.decompress`
applies its own CRC check, salvage loop and mask restore unchanged.
Tiles that are baseline payloads keep their bytes under tags 3-6; tiles
that are ``SZXF`` frames or single-chunk SPERR containers are unwrapped
to their inner ``SZX1`` / sperr chunk stream, whose own CRC then guards
the decode.

The read-only container versions 1-3 (``SPRRPY1``-``SPRRPY3``) are not
read here but by the version checks of
:func:`~repro.core.container.parse_container`: they share its header
and chunk-table reader, which this module would otherwise have to copy.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ..errors import StreamFormatError, checked_shape, decode_guard
from .adaptive import (
    CODEC_MGARD,
    CODEC_SPERR,
    CODEC_SZ,
    CODEC_SZX,
    CODEC_TTHRESH,
    CODEC_ZFP,
)
from .chunking import ChunkGrid, plan_chunks, read_chunk_table
from .container import (
    MAX_TOTAL_POINTS,
    ParsedContainer,
    _check_header_crc,
    _read_extent,
    _split_sections,
    parse_container,
)

__all__ = ["LEGACY_MAGICS", "parse_legacy"]

_CHUNKED_VERSION = {b"CHNK": 1, b"CHK2": 2, b"CHK3": 3}
_MASKED_MAGIC = b"MSKW"
_SZX_FRAME_MAGIC = b"SZXF"

#: Every retired magic this module reads.
LEGACY_MAGICS = (*_CHUNKED_VERSION, _MASKED_MAGIC, _SZX_FRAME_MAGIC)

#: dtype codes of ``CHK3`` / ``MSKW`` (the ``SZXF`` frame numbers them
#: the other way round).
_DTYPE_BY_CODE = {0: np.dtype(np.float32), 1: np.dtype(np.float64)}
_SZXF_DTYPE_BY_CODE = {0: np.dtype(np.float64), 1: np.dtype(np.float32)}

#: Header CRC32 offset of ``CHK2``/``CHK3`` and ``MSKW`` (after the magic).
_HEADER_CRC_OFFSET = 4

#: ``MSKW`` header: magic, header CRC32, dtype code, mask nbytes, mask CRC32.
_MASKED_HEAD = struct.Struct("<4sIBQI")

#: ``SZXF`` header (see the module docstring).
_SZX_FRAME_HEAD = struct.Struct("<4sBBBBQII")

#: Tile magic -> codec tag.  Sperr containers start ``SPRRPY``; the
#: baseline magics are each registry codec's own ``_MAGIC``.
_TILE_TAGS = {
    b"SZLK": CODEC_SZ,
    b"ZFPL": CODEC_ZFP,
    b"TTHL": CODEC_TTHRESH,
    b"MGDL": CODEC_MGARD,
    _SZX_FRAME_MAGIC: CODEC_SZX,
    b"SPRR": CODEC_SPERR,
}

#: Stream magic -> (offset of the rank byte, offset of the u64 shape).
_SHAPE_FIELDS = {
    b"SZLK": (4, 13),
    b"ZFPL": (4, 22),
    b"TTHL": (4, 30),
    b"MGDL": (4, 17),
    b"SZX1": (5, 16),
}


def parse_legacy(payload: bytes) -> ParsedContainer:
    """Parse a ``CHNK``/``CHK2``/``CHK3``/``MSKW``/``SZXF`` payload.

    Raises :class:`~repro.errors.StreamFormatError` for any other magic,
    and for framing damage outside the chunk streams.
    """
    magic = bytes(payload[:4])
    with decode_guard("legacy"):
        if magic in _CHUNKED_VERSION:
            return _parse_chunked(payload, _CHUNKED_VERSION[magic])
        if magic == _MASKED_MAGIC:
            return _parse_masked(payload)
        if magic == _SZX_FRAME_MAGIC:
            return _parse_szx_frame(payload)
    raise StreamFormatError("not a SPERR container (bad magic)")


def _parse_chunked(payload: bytes, version: int) -> ParsedContainer:
    pos = 4
    stored_crc = None
    if version >= 2:
        (stored_crc,) = struct.unpack_from("<I", payload, pos)
        pos += 4
    rank = payload[pos]
    pos += 1
    if rank < 1 or rank > 3:
        raise StreamFormatError(f"invalid rank {rank}")
    dtype = np.dtype(np.float64)
    if version >= 3:
        code = payload[pos]
        pos += 1
        if code not in _DTYPE_BY_CODE:
            raise StreamFormatError(f"invalid dtype code {code}")
        dtype = _DTYPE_BY_CODE[code]
    shape, n_chunks, pos = _read_extent(payload, pos, rank, "chunked payload")
    table_pos = pos
    pos += 16 * rank * n_chunks
    sizes = struct.unpack_from(f"<{n_chunks}Q", payload, pos)
    pos += 8 * n_chunks
    crcs: tuple[int | None, ...] = (None,) * n_chunks
    mask_nbytes, mask_crc = 0, None
    if version >= 2:
        crcs = struct.unpack_from(f"<{n_chunks}I", payload, pos)
        pos += 4 * n_chunks
        if version >= 3:
            mask_nbytes, mask_crc = struct.unpack_from("<QI", payload, pos)
            pos += 12
        _check_header_crc(
            payload, pos, _HEADER_CRC_OFFSET, stored_crc, "chunked payload"
        )
    grid, _ = read_chunk_table(payload, table_pos, shape, n_chunks)
    mask_blob, tiles = _split_sections(
        payload, pos, mask_nbytes, sizes, "chunked payload"
    )
    tags, streams, crcs = _resolve_tiles(tiles, crcs)
    return ParsedContainer(
        rank=rank,
        dtype=dtype,
        mode_code=None,
        shape=shape,
        grid=grid,
        streams=streams,
        format_version=version,
        chunk_crcs=None if all(c is None for c in crcs) else crcs,
        mask_blob=mask_blob,
        mask_crc=mask_crc,
        codec_tags=tags,
    )


def _resolve_tiles(
    tiles: list[bytes], crcs: tuple[int | None, ...]
) -> tuple[tuple[int, ...], list[bytes], tuple[int | None, ...]]:
    """Tag every tile, unwrapping frames around intact ones.

    One wrapper call used one inner codec, so a tile whose magic is
    damaged takes the tag of the first recognizable tile; its decode
    (or its CRC) then fails inside the salvage loop, as it did before.
    """
    known = [_TILE_TAGS.get(bytes(t[:4])) for t in tiles]
    default = next((k for k in known if k is not None), None)
    if default is None:
        raise StreamFormatError("chunked payload carries no recognizable tile")
    tags, streams, out_crcs = [], [], []
    for tile, crc in zip(tiles, crcs):
        inner = None
        if crc is None or zlib.crc32(tile) == crc:
            inner = _unwrap(tile)
        if inner is None:
            tags.append(default)
            streams.append(tile)
            out_crcs.append(crc)
            continue
        tag, stream, inner_crc, _shape = inner
        tags.append(tag)
        streams.append(stream)
        out_crcs.append(crc if stream is tile else inner_crc)
    return tuple(tags), streams, tuple(out_crcs)


def _unwrap(
    stream: bytes,
) -> tuple[int, bytes, int | None, tuple[int, ...]] | None:
    """``(tag, chunk stream, its CRC, shape)`` for one wrapped payload.

    ``None`` when the payload is not a baseline stream, a plain float64
    ``SZXF`` frame, or a single-chunk unmasked float64 SPERR container.
    """
    tag = _TILE_TAGS.get(bytes(stream[:4]))
    try:
        with decode_guard("legacy tile"):
            return _unwrap_tagged(stream, tag)
    except StreamFormatError:
        return None


def _unwrap_tagged(
    stream: bytes, tag: int | None
) -> tuple[int, bytes, int | None, tuple[int, ...]] | None:
    if tag == CODEC_SZX:
        dtype, rank, mask, _mcrc, inner, crc = _read_szx_frame(stream)
        if dtype != np.float64 or mask:
            return None
        return tag, inner, crc, _peek_shape(inner, rank)
    if tag == CODEC_SPERR:
        parsed = parse_container(stream)
        if (
            len(parsed.streams) != 1
            or parsed.mask_blob is not None
            or parsed.dtype != np.float64
        ):
            return None
        crc = parsed.chunk_crcs[0] if parsed.chunk_crcs else None
        return parsed.codec_tags[0], parsed.streams[0], crc, parsed.shape
    if tag is not None:
        return tag, stream, None, _peek_shape(stream, None)
    return None


def _peek_shape(stream: bytes, rank: int | None) -> tuple[int, ...]:
    """Read the shape field of a baseline or ``SZX1`` stream header."""
    fields = _SHAPE_FIELDS.get(bytes(stream[:4]))
    if fields is None or len(stream) <= fields[0]:
        raise StreamFormatError("stream has no readable shape header")
    rank_at, shape_at = fields
    declared = stream[rank_at]
    if declared < 1 or declared > 3 or (rank is not None and declared != rank):
        raise StreamFormatError(f"stream declares rank {declared}")
    try:
        shape = struct.unpack_from(f"<{declared}Q", stream, shape_at)
    except struct.error as exc:
        raise StreamFormatError(f"stream header truncated: {exc}") from exc
    return checked_shape(shape, "legacy", max_points=MAX_TOTAL_POINTS)


def _read_szx_frame(
    payload: bytes,
) -> tuple[np.dtype, int, bytes, int, bytes, int]:
    """``(dtype, rank, mask blob, mask CRC, SZX1 stream, stream CRC)``."""
    (
        _magic,
        version,
        dtype_code,
        rank,
        _reserved,
        mask_nbytes,
        mask_crc,
        stream_crc,
    ) = _SZX_FRAME_HEAD.unpack_from(payload, 0)
    if version != 1:
        raise StreamFormatError(f"unknown szx-like frame version {version}")
    if dtype_code not in _SZXF_DTYPE_BY_CODE:
        raise StreamFormatError(f"unknown szx-like dtype code {dtype_code}")
    body = payload[_SZX_FRAME_HEAD.size :]
    if mask_nbytes > len(body):
        raise StreamFormatError("szx-like frame declares an oversized mask blob")
    split = len(body) - mask_nbytes
    return (
        _SZXF_DTYPE_BY_CODE[dtype_code],
        rank,
        body[split:],
        mask_crc,
        body[:split],
        stream_crc,
    )


def _single_chunk(
    dtype: np.dtype,
    shape: tuple[int, ...],
    tag: int,
    stream: bytes,
    crc: int | None,
    mask: bytes,
    mask_crc: int,
) -> ParsedContainer:
    """A one-chunk view of a whole-array legacy payload."""
    return ParsedContainer(
        rank=len(shape),
        dtype=dtype,
        mode_code=None,
        shape=shape,
        grid=ChunkGrid(shape, plan_chunks(shape, None)),
        streams=[stream],
        format_version=1,
        chunk_crcs=None if crc is None else (crc,),
        mask_blob=mask or None,
        mask_crc=mask_crc,
        codec_tags=(tag,),
    )


def _parse_szx_frame(payload: bytes) -> ParsedContainer:
    dtype, rank, mask, mask_crc, stream, crc = _read_szx_frame(payload)
    shape = _peek_shape(stream, rank)
    return _single_chunk(dtype, shape, CODEC_SZX, stream, crc, mask, mask_crc)


def _parse_masked(payload: bytes) -> ParsedContainer:
    _magic, stored_crc, code, mask_nbytes, mask_crc = _MASKED_HEAD.unpack_from(
        payload, 0
    )
    _check_header_crc(
        payload, _MASKED_HEAD.size, _HEADER_CRC_OFFSET, stored_crc, "masked payload"
    )
    if code not in _DTYPE_BY_CODE:
        raise StreamFormatError(f"invalid dtype code {code}")
    pos = _MASKED_HEAD.size
    if mask_nbytes > len(payload) - pos:
        raise StreamFormatError(
            f"masked payload declares a {mask_nbytes}-byte mask but only "
            f"{len(payload) - pos} bytes remain"
        )
    mask = payload[pos : pos + mask_nbytes]
    inner = _unwrap(payload[pos + mask_nbytes :])
    if inner is None:
        raise StreamFormatError("masked payload wraps no readable codec stream")
    tag, stream, crc, shape = inner
    return _single_chunk(
        _DTYPE_BY_CODE[code], shape, tag, stream, crc, mask, mask_crc
    )
