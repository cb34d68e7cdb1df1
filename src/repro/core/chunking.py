"""Volume chunking for embarrassingly parallel compression.

Paper Sec. III-D: a large volume is divided into smaller chunks, each
compressed independently; the per-chunk bitstreams are concatenated.  The
chunk dimension need not divide the volume dimension nor be a power of
two; SPERR's default chunk size is 256³ (we default lower because this
reproduction operates at laptop-scale volumes).

Like real SPERR, trailing remainders are merged into the preceding chunk
when they are small (under half a chunk), which avoids slivers whose
wavelet decomposition would be shallow.

Every reader sees a chunk table as a :class:`ChunkGrid`: the one tiling
check, the lookup of the chunks a window touches, and the slices that
place each decoded box in that window (full volume, cropped window or
coarse preview).
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, product

import numpy as np

from ..errors import InvalidArgumentError, StreamFormatError
from ..wavelets import num_levels

__all__ = [
    "Chunk",
    "ChunkGrid",
    "plan_chunks",
    "split",
    "group_by_shape",
    "read_chunk_table",
    "coarse_depth",
    "coarse_extent",
    "DEFAULT_CHUNK",
]

#: Default per-axis chunk extent.
DEFAULT_CHUNK = 64


@dataclass(frozen=True)
class Chunk:
    """One tile of the volume: per-axis ``(start, stop)`` slices."""

    bounds: tuple[tuple[int, int], ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(b - a for a, b in self.bounds)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def slices(self) -> tuple[slice, ...]:
        """Index expression selecting this chunk from the full volume."""
        return tuple(slice(a, b) for a, b in self.bounds)


def _axis_cuts(n: int, c: int) -> list[tuple[int, int]]:
    """Cut one axis of length ``n`` into runs of roughly ``c``.

    Remainders shorter than ``c // 2`` are merged into the final run.
    """
    if c <= 0:
        raise InvalidArgumentError("chunk extent must be positive")
    if n <= 0:
        raise InvalidArgumentError("axis length must be positive")
    cuts = list(range(0, n, c))
    bounds = [(s, min(s + c, n)) for s in cuts]
    if len(bounds) > 1 and (bounds[-1][1] - bounds[-1][0]) < max(1, c // 2):
        last = bounds.pop()
        prev = bounds.pop()
        bounds.append((prev[0], last[1]))
    return bounds


def plan_chunks(
    shape: tuple[int, ...], chunk_shape: int | tuple[int, ...] | None
) -> list[Chunk]:
    """Plan the chunk grid; ``None`` keeps the volume as one chunk."""
    if chunk_shape is None:
        return [Chunk(bounds=tuple((0, n) for n in shape))]
    if np.isscalar(chunk_shape):
        chunk_shape = tuple(int(chunk_shape) for _ in shape)
    if len(chunk_shape) != len(shape):
        raise InvalidArgumentError(
            f"chunk shape {chunk_shape} does not match volume rank {len(shape)}"
        )
    per_axis = [_axis_cuts(n, c) for n, c in zip(shape, chunk_shape)]
    chunks: list[Chunk] = []
    # C-order nesting keeps chunk order deterministic and cache-friendly.
    def rec(axis: int, acc: list[tuple[int, int]]) -> None:
        if axis == len(per_axis):
            chunks.append(Chunk(bounds=tuple(acc)))
            return
        for b in per_axis[axis]:
            rec(axis + 1, acc + [b])

    rec(0, [])
    return chunks


def group_by_shape(chunks: list[Chunk]) -> list[tuple[tuple[int, ...], list[int]]]:
    """Group chunk indices by chunk shape, first-seen shape order.

    The batched execution mode stacks every group of same-shaped chunks
    into one ``(n, *shape)`` array; interior chunks of a tiled volume all
    share a shape, so one volume typically produces one large group plus
    a few small edge-remainder groups.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, chunk in enumerate(chunks):
        groups.setdefault(chunk.shape, []).append(i)
    return list(groups.items())


def split(data: np.ndarray, chunks: list[Chunk]) -> list[np.ndarray]:
    """Extract chunk arrays (contiguous copies, ready for the pipeline)."""
    return [np.ascontiguousarray(data[c.slices()]) for c in chunks]


def _axis_depth(n: int, levels_cap: int | None) -> int:
    """Coarsening levels an ``n``-long axis supports: the wavelet
    per-axis rule (:func:`~repro.wavelets.num_levels`), capped by
    ``levels_cap``."""
    depth = num_levels(n)
    return depth if levels_cap is None else min(depth, levels_cap)


def coarse_depth(shape: tuple[int, ...], levels_cap: int | None) -> int:
    """Deepest coarsening level any axis of a ``shape`` chunk supports."""
    return max(_axis_depth(n, levels_cap) for n in shape)


def coarse_extent(n: int, level: int, levels_cap: int | None) -> int:
    """Extent of an ``n``-long axis at coarse ``level``.

    The axis halves (rounding up) once per level down to its own depth
    and stays put below it — the same extent a wavelet low-pass box and
    a ``[::2**k]`` decimation both produce, so sperr and non-sperr
    coarse tiles assemble on one grid.
    """
    k = min(level, _axis_depth(n, levels_cap))
    return (n + (1 << k) - 1) >> k


class ChunkGrid:
    """A chunk table that tiles ``shape`` as one grid of per-axis runs.

    The constructor is the one tiling check: each axis must be cut into
    consecutive runs from 0 to its extent, and every cell of that grid
    must hold exactly one chunk (in any table order).  That is the grid
    :func:`plan_chunks` emits; a table with repeated or overlapping
    chunks, or with holes, would otherwise assemble into a volume with
    stale samples.  Raises :class:`StreamFormatError` otherwise; the
    check costs O(n_chunks * rank).  ``chunks`` keeps the table order.
    """

    def __init__(self, shape: tuple[int, ...], chunks: list[Chunk]) -> None:
        self.chunks = list(chunks)
        runs = []
        for axis, extent in enumerate(shape):
            axis_runs = sorted({c.bounds[axis] for c in self.chunks})
            edge = 0
            for a, b in axis_runs:
                if a != edge:
                    raise StreamFormatError(
                        f"chunk table does not tile axis {axis}: run ({a}, {b}) "
                        f"after offset {edge}"
                    )
                edge = b
            if edge != extent:
                raise StreamFormatError(
                    f"chunk table covers axis {axis} up to {edge} of {extent}"
                )
            runs.append(axis_runs)
        cells = math.prod(len(r) for r in runs)
        if cells != len(self.chunks):
            raise StreamFormatError(
                f"chunk table has {len(self.chunks)} chunks for a {cells}-cell grid"
            )
        self._runs = runs
        self._starts = [[a for a, _ in r] for r in runs]
        self._stops = [[b for _, b in r] for r in runs]
        pos = [{a: p for p, a in enumerate(st)} for st in self._starts]
        # table index of the chunk at each grid cell
        self._cells = np.full([len(r) for r in runs], -1, dtype=np.intp)
        for i, c in enumerate(self.chunks):
            cell = tuple(pos[axis][a] for axis, (a, _) in enumerate(c.bounds))
            if self._cells[cell] >= 0:
                raise StreamFormatError(f"chunk table repeats chunk {c.bounds}")
            self._cells[cell] = i

    def _span(self, axis: int, lo: int, hi: int) -> range:
        """Grid positions of the runs of ``axis`` that overlap ``[lo, hi)``;
        empty when ``hi <= lo``."""
        if hi <= lo:
            return range(0)
        return range(
            bisect_right(self._stops[axis], lo), bisect_left(self._starts[axis], hi)
        )

    def intersecting(self, bounds: tuple[tuple[int, int], ...]) -> list[int]:
        """Ascending ids of the chunks overlapping the box ``bounds``.

        A chunk overlaps when ``lo < hi``, ``start < hi`` and
        ``lo < stop`` on every axis, so a window that is empty on any
        axis touches no chunk.
        """
        spans = [self._span(axis, lo, hi) for axis, (lo, hi) in enumerate(bounds)]
        return sorted(self._cells[np.ix_(*spans)].ravel().tolist())

    def covering(
        self, bounds: tuple[tuple[int, int], ...]
    ) -> tuple[tuple[int, int], ...]:
        """The chunk-aligned box of the chunks overlapping ``bounds`` (an
        empty axis stays empty)."""
        spans = [self._span(axis, lo, hi) for axis, (lo, hi) in enumerate(bounds)]
        return tuple(
            (self._starts[a][s[0]], self._stops[a][s[-1]]) if s else (lo, lo)
            for a, (s, (lo, _)) in enumerate(zip(spans, bounds))
        )

    def placements(
        self,
        bounds: tuple[tuple[int, int], ...],
        *,
        level: int = 0,
        levels_cap: int | None = None,
    ) -> tuple[tuple[int, ...], dict[int, tuple[tuple[int, ...], tuple, tuple]]]:
        """``(shape, places)``: the window's output shape and, for every
        chunk of :meth:`intersecting` in ascending id order, ``(box,
        crop, dst)``: its decoded box's shape, the crop of that box and
        the output slices it fills.  At ``level == 0`` a box is cropped
        to the window, so the output equals slicing the full volume; at
        ``level > 0`` the chunk's coarse box (:func:`coarse_extent` under
        ``levels_cap``) is placed whole on the coarse grid of the chunks
        covering the window."""
        # per axis: (grid position, box extent, crop slice, dst slice)
        tiles, shape = [], []
        for axis, (lo, hi) in enumerate(bounds):
            span = self._span(axis, lo, hi)
            runs = [self._runs[axis][p] for p in span]
            if level == 0:
                tiles.append([
                    (p, b - a, slice(max(a, lo) - a, min(b, hi) - a),
                     slice(max(a, lo) - lo, min(b, hi) - lo))
                    for p, (a, b) in zip(span, runs)
                ])
                shape.append(hi - lo)
            else:
                ext = [coarse_extent(b - a, level, levels_cap) for a, b in runs]
                edges = list(accumulate(ext, initial=0))
                tiles.append([
                    (p, n, slice(None), slice(e, e + n))
                    for p, n, e in zip(span, ext, edges)
                ])
                shape.append(edges[-1])
        places = {
            int(self._cells[tuple(t[0] for t in cell)]): tuple(
                tuple(t[k] for t in cell) for k in (1, 2, 3)
            )
            for cell in product(*tiles)
        }
        return tuple(shape), dict(sorted(places.items()))


def read_chunk_table(
    payload: bytes, pos: int, shape: tuple[int, ...], n_chunks: int
) -> tuple[ChunkGrid, int]:
    """Read ``n_chunks`` untrusted ``rank * (u64 start, u64 stop)`` bounds.

    The one chunk-table reader behind every on-disk format (container,
    legacy chunked framings, store index).  Returns the checked
    :class:`ChunkGrid` and the position after the table; raises
    :class:`StreamFormatError` for bounds outside the shape and for
    tables that do not tile it.
    """
    rank = len(shape)
    end = pos + 16 * rank * n_chunks
    if end > len(payload):
        raise StreamFormatError(
            f"chunk table truncated: {n_chunks} chunks need {end - pos} "
            f"bytes, {max(0, len(payload) - pos)} remain"
        )
    flat = struct.unpack_from(f"<{2 * rank * n_chunks}Q", payload, pos)
    chunks = []
    for i in range(n_chunks):
        row = flat[2 * rank * i : 2 * rank * (i + 1)]
        bounds = tuple(zip(row[0::2], row[1::2]))
        for (a, b), extent in zip(bounds, shape):
            if a >= b or b > extent:
                raise StreamFormatError(
                    f"chunk bounds ({a}, {b}) outside axis extent {extent}"
                )
        chunks.append(Chunk(bounds=bounds))
    return ChunkGrid(shape, chunks), end
