"""Random-access compressed-array store (sharded chunks + footer index).

The container format (:mod:`repro.core.container`) is a single sealed
payload: reading any region means reading — and at minimum CRC-framing —
the whole thing.  This package adds a *store*: a directory of shard
files holding the same per-chunk compressed streams, plus a compact
binary footer index mapping every chunk id to its shard, byte extent,
CRC32, and bounding box.  Because the chunk streams are byte-identical
to container chunk streams, every existing decoder, the CRC salvage
path, and the progressive truncation primitives apply unchanged.

* :class:`StoreWriter` / :func:`write_store` build a store from one or
  more frames (arrays sharing a shape and chunk grid).
* :func:`open_store` returns a :class:`CompressedArray` — a lazy view
  whose :meth:`~CompressedArray.read_window` decodes only the chunks
  intersecting the requested window, optionally at a coarser multires
  level or under a per-request byte budget, with repeat traffic served
  from a thread-safe memory-budgeted LRU (:class:`DecodedChunkCache`,
  which also keeps the service tier's per-tenant slices under one
  ceiling).

See ``docs/store.md`` for the on-disk format and cache semantics.
"""

from .cache import DEFAULT_CACHE_BYTES, DecodedChunkCache
from .format import (
    DEFAULT_SHARD_BYTES,
    INDEX_NAME,
    ChunkEntry,
    StoreIndex,
    pack_index,
    parse_index,
    shard_name,
)
from .reader import CompressedArray, open_store
from .writer import StoreWriter, write_store

__all__ = [
    "StoreWriter",
    "write_store",
    "open_store",
    "CompressedArray",
    "DecodedChunkCache",
    "DEFAULT_CACHE_BYTES",
    "DEFAULT_SHARD_BYTES",
    "StoreIndex",
    "ChunkEntry",
    "INDEX_NAME",
    "pack_index",
    "parse_index",
    "shard_name",
]
