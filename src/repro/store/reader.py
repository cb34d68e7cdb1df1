"""Random-access reader: lazy views over a sharded compressed store.

:func:`open_store` returns a :class:`CompressedArray`, a lazy view that
decodes *only* the chunks a request actually touches:

* :meth:`CompressedArray.read_window` takes a window (a tuple of slices
  and/or integer indices in index space), looks up the intersecting
  chunks in the index's :class:`~repro.core.chunking.ChunkGrid` and
  decodes the cache misses into the window (on a running process pool
  when there are enough of them, see :meth:`CompressedArray.read_window`)
  through :func:`repro.core.container.decode_window`, the step
  :func:`repro.decompress` takes, so at level 0 the result is
  byte-identical to slicing the full decompression.
* ``level > 0`` serves a chunk-aligned coarse preview: every chunk
  covering the window is reconstructed at the requested wavelet level
  and placed on the coarse grid.

The index parser has already checked that the chunk table tiles the
shape, so this module neither checks a tiling nor places decoded boxes.
* ``budget=`` bounds the decode work: when the compressed bytes behind
  the cache misses exceed the budget, each miss is truncated to the
  proportional fraction of its SPECK bits via
  :func:`repro.core.progressive.truncate_chunk_stream` (a valid coarser
  reconstruction; the PWE guarantee is waived, and budgeted results
  bypass the decoded-chunk cache).
* ``on_error="salvage"`` honors the container salvage contract per
  chunk: a damaged chunk fills only its window intersection with
  ``fill_value`` and is reported in the returned
  :class:`~repro.core.container.DecodeReport` instead of aborting the
  read.

Repeat traffic is served from a shared, thread-safe
:class:`~repro.store.cache.DecodedChunkCache` keyed by
``(frame, chunk, level)``.  Every read is instrumented through
:mod:`repro.obs`: a ``store.read_window`` span wrapping per-chunk
``store.chunk.decode`` spans, plus counters for cache hits/misses,
chunks requested/decoded, and bytes read from disk vs. bytes served.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .. import obs
from ..errors import InvalidArgumentError, StreamFormatError
from ..core.chunking import coarse_depth
from ..core.container import (
    CONTAINER_VERSION,
    DecodeReport,
    DecodeResult,
    decode_window,
)
from ..core.adaptive import CODEC_NAMES
from ..core.parallel import resolve_workers
from ..core.mask import apply_mask, decode_mask, mask_summary
from .cache import DEFAULT_CACHE_BYTES, DecodedChunkCache
from .format import (
    _STORE_TAGS,
    INDEX_NAME,
    SHARD_MAGIC,
    StoreIndex,
    parse_index,
    shard_name,
)

__all__ = ["CompressedArray", "open_store"]


def _normalize_window(
    shape: tuple[int, ...], window
) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Resolve a window spec to per-axis ``(lo, hi)`` bounds.

    Accepts ``None``/``Ellipsis`` (full array), a single slice or int,
    or a tuple mixing contiguous slices (step 1, Python negative-index
    semantics) and integers.  Missing trailing axes read fully.  Returns
    ``(bounds, squeeze_axes)`` where ``squeeze_axes`` lists the axes
    selected by integer index (dropped from the output, like numpy).
    """
    if window is None or window is Ellipsis:
        window = ()
    if isinstance(window, (slice, int, np.integer)):
        window = (window,)
    if not isinstance(window, (tuple, list)):
        raise InvalidArgumentError(
            f"window must be a tuple of slices/ints, got {type(window).__name__}"
        )
    if len(window) > len(shape):
        raise InvalidArgumentError(
            f"window has {len(window)} axes but the store is {len(shape)}-D"
        )
    bounds: list[tuple[int, int]] = []
    squeeze: list[int] = []
    for ax, n in enumerate(shape):
        w = window[ax] if ax < len(window) else slice(None)
        if isinstance(w, (int, np.integer)):
            i = int(w)
            if i < 0:
                i += n
            if not 0 <= i < n:
                raise InvalidArgumentError(
                    f"index {int(w)} out of bounds for axis {ax} of extent {n}"
                )
            bounds.append((i, i + 1))
            squeeze.append(ax)
        elif isinstance(w, slice):
            if w.step not in (None, 1):
                raise InvalidArgumentError(
                    "windows must be contiguous (slice step 1)"
                )
            start, stop, _step = w.indices(n)
            bounds.append((start, max(start, stop)))
        else:
            raise InvalidArgumentError(
                f"unsupported window component {w!r} on axis {ax}"
            )
    return tuple(bounds), tuple(squeeze)


class CompressedArray:
    """Lazy, random-access view of a compressed store.

    Obtained from :func:`open_store`.  Exposes the store's geometry
    (``shape``, ``dtype``, ``n_frames``, chunk grid) without touching
    any shard file; :meth:`read_window` decodes exactly the chunks a
    request intersects, through the shared decoded-chunk cache.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        workers: int | None = None,
    ) -> None:
        self.path = Path(path)
        index_path = self.path / INDEX_NAME
        if not index_path.exists():
            raise StreamFormatError(f"{self.path} has no store index ({INDEX_NAME})")
        self._index = parse_index(index_path.read_bytes())
        self.cache = DecodedChunkCache(cache_bytes)
        self.workers = workers
        # Only the last decoded frame's mask codes are kept: a shape-size
        # uint8 array per masked frame would grow outside ``cache_bytes``.
        self._mask_codes: tuple[int, np.ndarray] | None = None
        self._chunk_depths = [
            coarse_depth(chunk.shape, self._index.levels)
            for chunk in self._index.chunks
        ]
        self._max_level = max(self._chunk_depths)

    # -- geometry ---------------------------------------------------------

    @property
    def index(self) -> StoreIndex:
        """The decoded footer index (chunk grid, shard map, entries)."""
        return self._index

    @property
    def shape(self) -> tuple[int, ...]:
        """Index-space shape of every stored frame."""
        return self._index.shape

    @property
    def dtype(self) -> np.dtype:
        """Element dtype reads are returned in."""
        return self._index.dtype

    @property
    def rank(self) -> int:
        """Number of index-space dimensions."""
        return self._index.rank

    @property
    def n_frames(self) -> int:
        """Number of stored frames."""
        return self._index.n_frames

    @property
    def n_chunks(self) -> int:
        """Number of chunks in the per-frame grid."""
        return self._index.n_chunks

    @property
    def max_level(self) -> int:
        """Deepest coarsening level any chunk supports (0 = none)."""
        return self._max_level

    # -- reads ------------------------------------------------------------

    def read(self, frame: int = 0, **kwargs) -> np.ndarray | DecodeResult:
        """Decode one full frame (a full-array :meth:`read_window`)."""
        return self.read_window(None, frame=frame, **kwargs)

    def chunks_for_window(
        self, window=None, *, frame: int = 0
    ) -> list[int]:
        """Chunk ids a :meth:`read_window` of ``window`` would touch.

        Pure geometry — no shard file is opened.  A service front door
        uses this to coalesce concurrent reads that share chunks before
        any decode work is scheduled.
        """
        if not 0 <= frame < self.n_frames:
            raise InvalidArgumentError(
                f"frame {frame} out of range for {self.n_frames} stored frames"
            )
        bounds, _squeeze = _normalize_window(self.shape, window)
        return self._index.grid.intersecting(bounds)

    def read_window(
        self,
        window=None,
        *,
        frame: int = 0,
        level: int = 0,
        budget: int | None = None,
        on_error: str = "raise",
        fill_value: float = float("nan"),
        workers: int | None = None,
        cache=None,
    ) -> np.ndarray | DecodeResult:
        """Decode the region of ``window``, touching only intersecting chunks.

        ``window`` is a tuple of contiguous slices and/or integer
        indices in index space (missing trailing axes read fully).  At
        ``level=0`` the result is byte-identical to slicing the full
        decompression.  ``level>0`` returns the chunk-aligned coarse
        preview of the covering region (integer indices are not
        supported there).  ``budget`` caps the compressed bytes decoded
        for cache misses by SPECK-truncating each miss proportionally —
        a valid coarser reconstruction without the PWE guarantee;
        budgeted chunks bypass the cache.  ``on_error="salvage"``
        returns a :class:`~repro.core.container.DecodeResult` whose
        report lists damaged chunks; only their window intersection is
        filled with ``fill_value``.  ``workers`` overrides the store's
        default decode parallelism for this read: ``N`` decodes the
        misses as at most ``N`` tasks on a pool of ``N`` processes, and
        ``None`` (:func:`~repro.core.parallel.resolve_workers`) starts
        no pool: from the main thread it rides the largest pool already
        running once the misses give every task
        :data:`~repro.core.parallel.AUTO_MIN_CHUNKS_PER_WORKER` chunks,
        and decodes in-process otherwise.  ``cache`` overrides the store's
        shared decoded-chunk cache for this read (anything with
        ``get(key)``/``put(key, arr)``, e.g. another
        :class:`~repro.store.DecodedChunkCache`) — the service tier
        uses this to route each request through its batch overlay and
        its tenant's slice of the service's cache.
        """
        if not 0 <= frame < self.n_frames:
            raise InvalidArgumentError(
                f"frame {frame} out of range for {self.n_frames} stored frames"
            )
        if on_error not in ("raise", "salvage"):
            raise InvalidArgumentError(
                f"on_error must be 'raise' or 'salvage', got {on_error!r}"
            )
        if level < 0:
            raise InvalidArgumentError("level must be non-negative")
        if level > self._max_level:
            raise InvalidArgumentError(
                f"store supports at most {self._max_level} coarsening levels"
            )
        if budget is not None and budget < 1:
            raise InvalidArgumentError("budget must be a positive byte count")
        bounds, squeeze = _normalize_window(self.shape, window)
        if level > 0 and squeeze:
            raise InvalidArgumentError(
                "integer indices are not supported for coarse (level > 0) reads"
            )
        workers = self.workers if workers is None else workers
        cache = self.cache if cache is None else cache

        with obs.span(
            "store.read_window",
            frame=frame,
            level=level,
            window=str(tuple(bounds)),
        ):
            chosen = self._index.grid.intersecting(bounds)
            obs.add_counter("store.chunks.requested", len(chosen))
            use_cache = budget is None
            hits: dict[int, np.ndarray] = {}
            misses: list[int] = []
            for i in chosen:
                cached = cache.get((frame, i, level)) if use_cache else None
                if cached is not None:
                    hits[i] = cached
                    obs.add_counter("store.cache.hits")
                else:
                    obs.add_counter("store.cache.misses")
                    misses.append(i)

            salvage = on_error == "salvage"
            failures: dict[int, tuple[str, str]] = {}
            streams = self._read_streams(frame, misses, failures, salvage)
            fraction = None
            if budget is not None:
                total = sum(len(s) for s in streams.values())
                if total > budget:
                    fraction = budget / total

            entries = self._index.entries[frame]
            # A chunk shallower than ``level`` decodes at its own depth:
            # its axes have stopped halving by then (``coarse_extent``).
            jobs = [
                (
                    i,
                    streams[i],
                    self._index.frame_codecs[frame][i],
                    entries[i].crc32,
                    min(level, self._chunk_depths[i]),
                )
                for i in misses
                if i in streams
            ]
            pool, groups = resolve_workers(workers, 0, len(jobs), window=True)
            out, decode_failures, notes, decoded = decode_window(
                self._index.grid,
                bounds,
                jobs,
                self.dtype,
                salvage=salvage,
                fill_value=fill_value,
                level=level,
                levels_cap=self._index.levels,
                hits=hits,
                fraction=fraction,
                workers=pool,
                groups=groups,
                span="store.chunk.decode",
                # A duck-typed cache (the service's overlay) may hold anything.
                keep=use_cache and getattr(cache, "enabled", True),
            )
            failures.update(decode_failures)
            for i, arr in decoded.items():
                cache.put((frame, i, level), arr)
            obs.add_counter("store.chunks.decoded", len(misses))

            if level == 0:
                # Re-impose the frame's NaN/Inf pattern on the window.
                # Coarse previews stay on the filled field: a coarse cell
                # aggregates valid and masked fine samples, so there is
                # no faithful mask to apply at level > 0.
                codes = self._frame_mask_codes(frame)
                if codes is not None:
                    window_codes = codes[
                        tuple(slice(lo, hi) for lo, hi in bounds)
                    ]
                    apply_mask(out, window_codes)
            if squeeze:
                out = np.squeeze(out, axis=squeeze)
            obs.add_counter("store.bytes.served", out.nbytes)
        if salvage:
            report = DecodeReport.from_failures(
                CONTAINER_VERSION, chosen, failures, notes
            )
            return DecodeResult(data=out, report=report)
        return out

    def _frame_mask_codes(self, frame: int) -> np.ndarray | None:
        """Decoded shaped mask-code array of ``frame`` (last one memoised)."""
        blob = self._index.frame_masks[frame]
        if blob is None:
            return None
        memo = self._mask_codes
        if memo is not None and memo[0] == frame:
            return memo[1]
        npoints = int(np.prod([int(s) for s in self.shape], dtype=np.int64))
        codes = decode_mask(blob, npoints).reshape(self.shape)
        self._mask_codes = (frame, codes)
        return codes

    def _read_streams(
        self,
        frame: int,
        misses: list[int],
        failures: dict[int, tuple[str, str]],
        salvage: bool,
    ) -> dict[int, bytes]:
        """Fetch the compressed streams of cache misses from the shards.

        Misses are grouped per shard and read in offset order (one open
        and a sequential-ish scan per shard).  In salvage mode an
        unreadable shard or a short read records a failure for each
        affected chunk instead of raising.
        """
        entries = self._index.entries[frame]
        by_shard: dict[int, list[int]] = {}
        for i in misses:
            by_shard.setdefault(entries[i].shard, []).append(i)
        out: dict[int, bytes] = {}
        for shard, idxs in sorted(by_shard.items()):
            path = self.path / shard_name(shard)
            try:
                with open(path, "rb") as f:
                    if f.read(len(SHARD_MAGIC)) != SHARD_MAGIC:
                        raise StreamFormatError(
                            f"{path.name} is not a store shard (bad magic)"
                        )
                    for i in sorted(idxs, key=lambda i: entries[i].offset):
                        f.seek(entries[i].offset)
                        data = f.read(entries[i].length)
                        if len(data) != entries[i].length:
                            raise StreamFormatError(
                                f"{path.name} truncated: chunk {i} wants "
                                f"{entries[i].length} bytes at offset "
                                f"{entries[i].offset}"
                            )
                        out[i] = data
                        obs.add_counter("store.bytes.disk", len(data))
            except (OSError, StreamFormatError) as exc:
                if not salvage:
                    if isinstance(exc, StreamFormatError):
                        raise
                    raise StreamFormatError(
                        f"cannot read shard {shard}: {exc}"
                    ) from exc
                for i in idxs:
                    if i not in out:
                        failures[i] = (
                            "decode_error",
                            f"shard read failed: {type(exc).__name__}: {exc}",
                        )
        return out

    # -- introspection -----------------------------------------------------

    def info(self) -> dict:
        """Summary dict for tooling (the CLI's ``store info``)."""
        index = self._index
        shard_sizes = []
        for s in range(index.n_shards):
            p = self.path / shard_name(s)
            shard_sizes.append(p.stat().st_size if p.exists() else None)
        masked_frames = [f for f, m in enumerate(index.frame_masks) if m is not None]
        info = {
            "path": str(self.path),
            "shape": index.shape,
            "dtype": str(index.dtype),
            "mode_code": index.mode_code,
            "wavelet": index.wavelet,
            "levels": index.levels,
            "n_frames": index.n_frames,
            "n_chunks": index.n_chunks,
            "n_shards": index.n_shards,
            "max_level": self._max_level,
            "payload_bytes": index.payload_bytes,
            "shard_sizes": shard_sizes,
            "masked_frames": masked_frames,
            "cache": self.cache.stats(),
        }
        counts = {CODEC_NAMES[t]: 0 for t in sorted(_STORE_TAGS)}
        for frame_tags in index.frame_codecs:
            for t in frame_tags:
                counts[CODEC_NAMES[t]] += 1
        info["codec_counts"] = counts
        if masked_frames:
            info["mask_bytes"] = sum(
                len(m) for m in index.frame_masks if m is not None
            )
            info["mask_summary"] = {
                f: mask_summary(self._frame_mask_codes(f)) for f in masked_frames
            }
        return info


def open_store(
    path: str | os.PathLike,
    *,
    cache_bytes: int = DEFAULT_CACHE_BYTES,
    workers: int | None = None,
) -> CompressedArray:
    """Open a store directory as a lazy :class:`CompressedArray`.

    ``cache_bytes`` budgets the decoded-chunk LRU cache (0 disables
    caching); ``workers`` sets the default parallelism for cache-miss
    decoding (overridable per read), as in :func:`repro.core.compress`.
    """
    return CompressedArray(path, cache_bytes=cache_bytes, workers=workers)
