"""On-disk layout of the random-access compressed-array store.

A *store* is a directory holding two kinds of files:

* ``shard-NNNN.bin`` — shard files, each an 8-byte magic prologue
  followed by concatenated per-chunk payload streams.  Every stream is
  byte-identical to the corresponding chunk stream of a container built
  by :func:`repro.compress` (lossless-compressed
  :func:`repro.core.pipeline.compress_chunk` output), so the existing
  chunk decoders, CRC verification, and salvage logic apply unchanged.
* ``index.bin`` — the footer index: global metadata (shape, dtype,
  mode, chunk grid, wavelet/levels) plus one
  :class:`ChunkEntry` per ``(frame, chunk)`` mapping the chunk id to
  ``(shard, offset, length, CRC32)``.  The chunk grid doubles as the
  bounding box in index space for every chunk of every frame.

Every index :func:`pack_index` writes has this layout (little-endian)::

    magic "SPRRIDX3"         8 bytes
    rank        u8
    dtype code  u8  (0=float32, 1=float64)
    mode code   u8  (0=PWE, 1=size, 2=PSNR)
    flags       u8  (reserved, 0)
    index CRC32 u32 (over the whole index, this field zeroed)
    wavelet id  u8
    levels      u8  (255 = auto level rule)
    reserved    u16
    shape       rank * u64
    n_chunks    u32
    bounds      n_chunks * rank * 2 * u64
    n_frames    u32
    n_shards    u32
    entries     n_frames * n_chunks * (u32 shard, u64 offset, u64 length, u32 crc)
    codec tags  n_frames * n_chunks * u8 (:mod:`repro.core.adaptive` tags)
    mask table  n_frames * (u64 mask_nbytes, u32 mask_crc)
    mask blobs  concatenated RLE mask blobs (mask_nbytes == 0 -> no mask)

The tag table and the mask table are written even for all-sperr stores
of finite data, so one layout serves every store.

``SPRRIDX1`` and ``SPRRIDX2`` are read-only.  v1 ends after the
entries; v2 adds the mask table and blobs but no tag table.
:func:`parse_index` reads them through the version checks of
``_parse_index_body`` and reports every chunk of them as sperr.  They
are not moved into :mod:`repro.core.legacy`: they share this header and
entry reader, and a second copy of it would add more code than it
removes.

The index is untrusted input: :func:`parse_index` verifies the CRC
before trusting any field and runs every shape/count through the
:mod:`repro.errors` trust boundary (:func:`~repro.errors.decode_guard`,
:func:`~repro.errors.checked_shape`, explicit allocation caps), exactly
like container parsing.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from ..bitstream.header import LEVELS_AUTO, WAVELET_IDS, WAVELET_NAMES
from ..errors import (
    IntegrityError,
    InvalidArgumentError,
    StreamFormatError,
    checked_shape,
    decode_guard,
)
from ..core.adaptive import BASELINE_TAGS, CODEC_NAMES, CODEC_SPERR
from ..core.chunking import Chunk, ChunkGrid, read_chunk_table
from ..core.container import MAX_TOTAL_POINTS, _DTYPE_BY_CODE, _DTYPES

__all__ = [
    "ChunkEntry",
    "StoreIndex",
    "INDEX_NAME",
    "INDEX_MAGIC",
    "INDEX_MAGIC_V2",
    "INDEX_MAGIC_V3",
    "SHARD_MAGIC",
    "MAX_FRAMES",
    "DEFAULT_SHARD_BYTES",
    "shard_name",
    "pack_index",
    "parse_index",
]

INDEX_MAGIC = b"SPRRIDX1"
INDEX_MAGIC_V2 = b"SPRRIDX2"
INDEX_MAGIC_V3 = b"SPRRIDX3"
SHARD_MAGIC = b"SPRRSHD1"

_INDEX_VERSION = {INDEX_MAGIC: 1, INDEX_MAGIC_V2: 2, INDEX_MAGIC_V3: 3}

#: Codec tags a store may hold: those the ``codec=`` policies
#: (:data:`~repro.core.adaptive.CODEC_POLICIES`) route to.  Baseline
#: tags are chosen by registry name, which the store writer does not take.
_STORE_TAGS = frozenset(CODEC_NAMES) - frozenset(BASELINE_TAGS.values())

#: File name of the footer index inside a store directory.
INDEX_NAME = "index.bin"

#: Cap on the number of frames an index may declare (anti-DoS: bounds
#: the entry-table allocation before any entry is read).
MAX_FRAMES = 1 << 20

#: Default shard rotation threshold: a shard is closed and a new one
#: opened once it exceeds this many payload bytes.
DEFAULT_SHARD_BYTES = 4 << 20

#: byte offset of the index CRC field (after magic + 4 meta bytes)
_INDEX_CRC_OFFSET = 12

_ENTRY_FMT = "<IQQI"
_ENTRY_SIZE = struct.calcsize(_ENTRY_FMT)


def shard_name(shard: int) -> str:
    """File name of shard ``shard`` inside a store directory."""
    return f"shard-{shard:04d}.bin"


@dataclass(frozen=True)
class ChunkEntry:
    """Index record for one stored chunk stream.

    ``offset`` is measured from the start of the shard file (the 8-byte
    shard magic counts, so offsets are directly seekable); ``crc32`` is
    the CRC of the ``length`` payload bytes — the same per-chunk CRC the
    container carries, so salvage semantics match.
    """

    shard: int
    offset: int
    length: int
    crc32: int


@dataclass(frozen=True)
class StoreIndex:
    """Decoded footer index of one store.

    ``grid`` is the checked chunk grid shared by every frame
    (:class:`~repro.core.chunking.ChunkGrid`; ``chunks`` reads its chunks
    in table order); ``entries`` is one tuple of :class:`ChunkEntry` per
    frame, in chunk-table order.
    ``levels`` is ``None`` when the writer used the paper's automatic
    per-axis level rule, as every current writer does; an explicit depth
    comes only from stores written before the option went, and readers
    still cap coarse reads by it.  ``frame_masks`` holds one RLE
    non-finite mask blob (or ``None``) per frame.  ``frame_codecs`` holds one tuple of
    per-chunk codec tags (:mod:`repro.core.adaptive`) per frame; v1/v2
    indexes parse with every tag sperr.
    """

    rank: int
    dtype: np.dtype
    mode_code: int
    shape: tuple[int, ...]
    grid: ChunkGrid
    wavelet: str
    levels: int | None
    n_shards: int
    entries: tuple[tuple[ChunkEntry, ...], ...]
    frame_masks: tuple[bytes | None, ...]
    frame_codecs: tuple[tuple[int, ...], ...]

    @property
    def chunks(self) -> list[Chunk]:
        """The chunks in table order."""
        return self.grid.chunks

    @property
    def n_frames(self) -> int:
        """Number of stored frames."""
        return len(self.entries)

    @property
    def n_chunks(self) -> int:
        """Number of chunks in the (per-frame) grid."""
        return len(self.chunks)

    @property
    def payload_bytes(self) -> int:
        """Total compressed chunk-stream bytes across all frames."""
        return sum(e.length for frame in self.entries for e in frame)


def pack_index(index: StoreIndex) -> bytes:
    """Serialize a :class:`StoreIndex` as ``SPRRIDX3`` (inverse of
    :func:`parse_index`)."""
    if index.rank != len(index.shape):
        raise InvalidArgumentError("index rank does not match its shape")
    if index.wavelet not in WAVELET_IDS:
        raise InvalidArgumentError(f"unknown wavelet {index.wavelet!r}")
    if not len(index.frame_masks) == len(index.frame_codecs) == index.n_frames:
        raise InvalidArgumentError(
            f"{len(index.frame_masks)} frame masks and {len(index.frame_codecs)} "
            f"frame tag rows for {index.n_frames} frames"
        )
    out = bytearray(INDEX_MAGIC_V3)
    out += struct.pack(
        "<BBBB", index.rank, _DTYPES[np.dtype(index.dtype)], index.mode_code, 0
    )
    out += b"\x00\x00\x00\x00"  # index CRC, patched below
    out += struct.pack(
        "<BBH",
        WAVELET_IDS[index.wavelet],
        LEVELS_AUTO if index.levels is None else index.levels,
        0,
    )
    out += struct.pack(f"<{index.rank}Q", *index.shape)
    out += struct.pack("<I", len(index.chunks))
    for chunk in index.chunks:
        for a, b in chunk.bounds:
            out += struct.pack("<QQ", a, b)
    out += struct.pack("<II", index.n_frames, index.n_shards)
    for frame in index.entries:
        if len(frame) != len(index.chunks):
            raise InvalidArgumentError("frame entry count does not match the grid")
        for e in frame:
            out += struct.pack(_ENTRY_FMT, e.shard, e.offset, e.length, e.crc32)
    for frame_tags in index.frame_codecs:
        if len(frame_tags) != len(index.chunks):
            raise InvalidArgumentError("frame codec tag count does not match the grid")
        if not _STORE_TAGS.issuperset(frame_tags):
            raise InvalidArgumentError(f"unknown codec tag in {frame_tags}")
        out += struct.pack(f"<{len(frame_tags)}B", *frame_tags)
    for m in index.frame_masks:
        blob = m if m is not None else b""
        out += struct.pack("<QI", len(blob), zlib.crc32(blob))
    for m in index.frame_masks:
        if m is not None:
            out += m
    struct.pack_into("<I", out, _INDEX_CRC_OFFSET, zlib.crc32(bytes(out)))
    return bytes(out)


def parse_index(payload: bytes) -> StoreIndex:
    """Decode and validate an ``index.bin`` payload of any version.

    The CRC over the whole index is verified before any field is
    trusted; malformed framing surfaces as
    :class:`~repro.errors.StreamFormatError` via the decode guard.
    """
    version = _INDEX_VERSION.get(bytes(payload[:8]))
    if version is None:
        raise StreamFormatError("not a store index (bad magic)")
    with decode_guard("store"):
        return _parse_index_body(payload, version)


def _parse_index_body(payload: bytes, version: int) -> StoreIndex:
    """The one index reader; its ``version`` checks are the whole read
    path of the read-only v1/v2 layouts."""
    pos = 8
    rank, dtype_code, mode_code, _flags = struct.unpack_from("<BBBB", payload, pos)
    pos += 4
    (stored_crc,) = struct.unpack_from("<I", payload, pos)
    pos += 4
    body = bytearray(payload)
    body[_INDEX_CRC_OFFSET : _INDEX_CRC_OFFSET + 4] = b"\x00\x00\x00\x00"
    if zlib.crc32(bytes(body)) != stored_crc:
        raise IntegrityError("store index CRC mismatch")
    if rank < 1 or rank > 3:
        raise StreamFormatError(f"invalid rank {rank}")
    if dtype_code not in _DTYPE_BY_CODE:
        raise StreamFormatError(f"invalid dtype code {dtype_code}")
    wavelet_id, levels_code, _reserved = struct.unpack_from("<BBH", payload, pos)
    pos += 4
    if wavelet_id not in WAVELET_NAMES:
        raise StreamFormatError(f"unknown wavelet id {wavelet_id}")
    shape = checked_shape(
        struct.unpack_from(f"<{rank}Q", payload, pos),
        "store",
        max_points=MAX_TOTAL_POINTS,
    )
    pos += 8 * rank
    npoints = int(np.prod([int(s) for s in shape], dtype=np.int64))
    (n_chunks,) = struct.unpack_from("<I", payload, pos)
    pos += 4
    if n_chunks < 1 or n_chunks > max(1, npoints):
        raise StreamFormatError(
            f"index declares {n_chunks} chunks for {npoints} points"
        )
    grid, pos = read_chunk_table(payload, pos, shape, n_chunks)
    n_frames, n_shards = struct.unpack_from("<II", payload, pos)
    pos += 8
    if n_frames < 1 or n_frames > MAX_FRAMES:
        raise StreamFormatError(f"index declares {n_frames} frames")
    if n_shards < 1:
        raise StreamFormatError("index declares zero shards")
    expected = pos + n_frames * n_chunks * _ENTRY_SIZE
    if version >= 3:
        expected += n_frames * n_chunks  # codec tag table
    if version >= 2:
        expected += n_frames * 12  # mask table, blob sizes checked below
    if (len(payload) != expected if version < 2 else len(payload) < expected):
        raise StreamFormatError(
            f"index is {len(payload)} bytes, expected {expected} for "
            f"{n_frames} frames of {n_chunks} chunks"
        )
    entries = []
    for _ in range(n_frames):
        frame = []
        for _ in range(n_chunks):
            shard, offset, length, crc = struct.unpack_from(_ENTRY_FMT, payload, pos)
            pos += _ENTRY_SIZE
            if shard >= n_shards:
                raise StreamFormatError(
                    f"entry references shard {shard} of {n_shards}"
                )
            if length < 1 or offset < len(SHARD_MAGIC):
                raise StreamFormatError(
                    f"entry has invalid extent (offset {offset}, length {length})"
                )
            frame.append(
                ChunkEntry(
                    shard=int(shard),
                    offset=int(offset),
                    length=int(length),
                    crc32=int(crc),
                )
            )
        entries.append(tuple(frame))
    frame_codecs = ((CODEC_SPERR,) * n_chunks,) * n_frames
    if version >= 3:
        tags = []
        for _ in range(n_frames):
            frame_tags = struct.unpack_from(f"<{n_chunks}B", payload, pos)
            pos += n_chunks
            if not _STORE_TAGS.issuperset(frame_tags):
                raise StreamFormatError(
                    "store index carries an unknown codec tag"
                )
            tags.append(tuple(int(t) for t in frame_tags))
        frame_codecs = tuple(tags)
    frame_masks: tuple[bytes | None, ...] = (None,) * n_frames
    if version >= 2:
        table = []
        for _ in range(n_frames):
            nbytes, crc = struct.unpack_from("<QI", payload, pos)
            pos += 12
            table.append((int(nbytes), int(crc)))
        total = sum(n for n, _ in table)
        if len(payload) != pos + total:
            raise StreamFormatError(
                f"index mask blobs declare {total} bytes but "
                f"{len(payload) - pos} are present"
            )
        masks = []
        for nbytes, crc in table:
            if nbytes == 0:
                masks.append(None)
                continue
            blob = payload[pos : pos + nbytes]
            pos += nbytes
            if zlib.crc32(blob) != crc:
                raise IntegrityError("store index mask CRC mismatch")
            masks.append(blob)
        frame_masks = tuple(masks)
    return StoreIndex(
        rank=rank,
        dtype=_DTYPE_BY_CODE[dtype_code],
        mode_code=mode_code,
        shape=shape,
        grid=grid,
        wavelet=WAVELET_NAMES[wavelet_id],
        levels=None if levels_code == LEVELS_AUTO else int(levels_code),
        n_shards=int(n_shards),
        entries=tuple(entries),
        frame_masks=frame_masks,
        frame_codecs=frame_codecs,
    )
