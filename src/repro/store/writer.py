"""Store writer: compress frames into shard files plus a footer index.

:class:`StoreWriter` drives the standard container pipeline
(:func:`repro.compress` — same chunking, same per-chunk streams, same
CRCs) and redistributes the resulting chunk streams across shard files,
rotating to a fresh shard once the current one exceeds the shard-size
target.  The footer index (:mod:`repro.store.format`) is written last,
atomically, so a crash mid-write leaves a store that simply fails to
open rather than one that opens onto garbage.

Because the chunk grid is a pure function of ``(shape, chunk_shape)``,
every appended frame shares one grid and the index stores it once.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .. import obs
from ..errors import InvalidArgumentError
from ..core.adaptive import CODEC_POLICIES
from ..core.container import CompressionResult, compress, parse_container
from ..core.modes import PsnrMode, PweMode, SizeMode
from .format import (
    DEFAULT_SHARD_BYTES,
    INDEX_NAME,
    SHARD_MAGIC,
    ChunkEntry,
    StoreIndex,
    pack_index,
    shard_name,
)

__all__ = ["StoreWriter", "write_store"]


class StoreWriter:
    """Create a store directory and append compressed frames to it.

    Usable as a context manager; the footer index is written by
    :meth:`close` (or a clean ``with`` exit).  Leaving the block on an
    exception closes the shard files without writing an index, so a
    partial store is never openable.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        mode: PweMode | SizeMode | PsnrMode,
        *,
        chunk_shape: int | tuple[int, ...] | None = None,
        wavelet: str = "cdf97",
        levels: int | None = None,
        lossless_method: str = "auto",
        shard_bytes: int = DEFAULT_SHARD_BYTES,
        executor: str = "serial",
        workers: int | None = None,
        codec: str = "quality",
    ) -> None:
        if shard_bytes < 1:
            raise InvalidArgumentError("shard_bytes must be positive")
        if codec not in CODEC_POLICIES:
            raise InvalidArgumentError(
                f"store codec must be one of {CODEC_POLICIES}, got {codec!r}"
            )
        self.path = Path(path)
        if (self.path / INDEX_NAME).exists():
            raise InvalidArgumentError(
                f"{self.path} already contains a store index; refusing to "
                "overwrite an existing store"
            )
        self.mode = mode
        self.chunk_shape = chunk_shape
        self.wavelet = wavelet
        self.levels = levels
        self.lossless_method = lossless_method
        self.shard_bytes = int(shard_bytes)
        self.executor = executor
        self.workers = workers
        self.codec = codec
        self.path.mkdir(parents=True, exist_ok=True)
        self._meta: dict | None = None  # rank/dtype/mode_code/shape/chunks
        self._entries: list[tuple[ChunkEntry, ...]] = []
        self._frame_masks: list[bytes | None] = []
        self._frame_codecs: list[tuple[int, ...]] = []
        self._shard_id = -1
        self._shard_file = None
        self._shard_pos = 0
        self._closed = False

    def __enter__(self) -> "StoreWriter":
        """Enter the writer context."""
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Finalize the index on a clean exit; just close files on error."""
        if exc_type is None:
            self.close()
        else:
            self._close_shard()
            self._closed = True
        return False

    def append(self, data: np.ndarray) -> CompressionResult:
        """Compress one frame and append its chunk streams to the shards.

        The first frame fixes the store's shape, dtype, and chunk grid;
        later frames must match.  Returns the frame's
        :class:`~repro.core.container.CompressionResult` (per-chunk
        accounting; the container payload itself is transient).
        """
        if self._closed:
            raise InvalidArgumentError("store writer is closed")
        result = compress(
            data,
            self.mode,
            chunk_shape=self.chunk_shape,
            wavelet=self.wavelet,
            levels=self.levels,
            lossless_method=self.lossless_method,
            executor=self.executor,
            workers=self.workers,
            codec=self.codec,
        )
        parsed = parse_container(result.payload)
        if self._meta is None:
            self._meta = {
                "rank": parsed.rank,
                "dtype": parsed.dtype,
                "mode_code": parsed.mode_code,
                "shape": parsed.shape,
                "chunks": parsed.chunks,
            }
        else:
            if parsed.shape != self._meta["shape"]:
                raise InvalidArgumentError(
                    f"frame shape {parsed.shape} does not match the store's "
                    f"{self._meta['shape']}"
                )
            if parsed.dtype != self._meta["dtype"]:
                raise InvalidArgumentError(
                    f"frame dtype {parsed.dtype} does not match the store's "
                    f"{self._meta['dtype']}"
                )
        crcs = parsed.chunk_crcs or ()
        with obs.span(
            "store.write_frame", frame=len(self._entries), n_chunks=len(parsed.streams)
        ):
            frame_entries = tuple(
                self._write_stream(stream, crc)
                for stream, crc in zip(parsed.streams, crcs)
            )
            obs.add_counter(
                "store.bytes.written", sum(e.length for e in frame_entries)
            )
        self._entries.append(frame_entries)
        # Frames with NaN/Inf samples carry their mask in the footer
        # index (per-frame table), not in the shards — the chunk streams
        # themselves stay mask-free and byte-identical to container ones.
        self._frame_masks.append(parsed.mask_blob)
        self._frame_codecs.append(
            parsed.codec_tags or (0,) * len(parsed.streams)
        )
        return result

    def _write_stream(self, stream: bytes, crc: int) -> ChunkEntry:
        """Append one chunk stream, rotating shards past the size target."""
        if self._shard_file is None or (
            self._shard_pos > len(SHARD_MAGIC)
            and self._shard_pos + len(stream) > self.shard_bytes
        ):
            self._close_shard()
            self._shard_id += 1
            self._shard_file = open(self.path / shard_name(self._shard_id), "wb")
            self._shard_file.write(SHARD_MAGIC)
            self._shard_pos = len(SHARD_MAGIC)
        offset = self._shard_pos
        self._shard_file.write(stream)
        self._shard_pos += len(stream)
        return ChunkEntry(
            shard=self._shard_id, offset=offset, length=len(stream), crc32=crc
        )

    def _close_shard(self) -> None:
        if self._shard_file is not None:
            self._shard_file.flush()
            os.fsync(self._shard_file.fileno())
            self._shard_file.close()
            self._shard_file = None

    def close(self) -> StoreIndex:
        """Flush shards and write the footer index; returns the index.

        Closing a writer that never appended a frame is an error — an
        empty store has no shape and cannot be opened.
        """
        if self._closed:
            raise InvalidArgumentError("store writer is already closed")
        if self._meta is None:
            self._close_shard()
            self._closed = True
            raise InvalidArgumentError("cannot finalize a store with no frames")
        self._close_shard()
        index = StoreIndex(
            rank=self._meta["rank"],
            dtype=self._meta["dtype"],
            mode_code=self._meta["mode_code"],
            shape=self._meta["shape"],
            chunks=self._meta["chunks"],
            wavelet=self.wavelet,
            levels=self.levels,
            n_shards=self._shard_id + 1,
            entries=tuple(self._entries),
            frame_masks=tuple(self._frame_masks),
            frame_codecs=(
                tuple(self._frame_codecs)
                if any(any(t != 0 for t in f) for f in self._frame_codecs)
                else ()
            ),
        )
        # Durable, atomic index publication: the temp file is fsynced
        # before the rename and the directory after it, so a crash at
        # any point leaves either no index (store unreadable) or the
        # complete one — never a torn write, and never a rename that
        # itself vanishes because the directory entry was unsynced.
        tmp = self.path / (INDEX_NAME + ".tmp")
        with open(tmp, "wb") as f:
            f.write(pack_index(index))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self.path / INDEX_NAME)
        try:
            dir_fd = os.open(self.path, os.O_RDONLY)
        except OSError:
            pass  # platforms without directory fds lose only the dir sync
        else:
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        self._closed = True
        return index


def write_store(
    path: str | os.PathLike,
    data: np.ndarray,
    mode: PweMode | SizeMode | PsnrMode,
    **kwargs,
) -> CompressionResult:
    """Compress a single array into a new store at ``path``.

    Convenience wrapper over :class:`StoreWriter` for the common
    one-frame case; keyword arguments are forwarded to the writer.
    Returns the frame's compression accounting.
    """
    with StoreWriter(path, mode, **kwargs) as writer:
        return writer.append(data)
