"""Volume chunking for embarrassingly parallel compression.

Paper Sec. III-D: a large volume is divided into smaller chunks, each
compressed independently; the per-chunk bitstreams are concatenated.  The
chunk dimension need not divide the volume dimension nor be a power of
two; SPERR's default chunk size is 256³ (we default lower because this
reproduction operates at laptop-scale volumes).

Like real SPERR, trailing remainders are merged into the preceding chunk
when they are small (under half a chunk), which avoids slivers whose
wavelet decomposition would be shallow.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from ..errors import InvalidArgumentError, StreamFormatError

__all__ = [
    "Chunk",
    "plan_chunks",
    "split",
    "assemble",
    "group_by_shape",
    "read_chunk_table",
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


def assemble(
    shape: tuple[int, ...], chunks: list[Chunk], parts: list[np.ndarray]
) -> np.ndarray:
    """Stitch decompressed chunk arrays back into one volume."""
    if len(chunks) != len(parts):
        raise InvalidArgumentError("chunk plan and part count differ")
    out = np.empty(shape, dtype=np.float64)
    filled = 0
    for chunk, part in zip(chunks, parts):
        if tuple(part.shape) != chunk.shape:
            raise InvalidArgumentError(
                f"part shape {part.shape} does not match chunk {chunk.shape}"
            )
        out[chunk.slices()] = part
        filled += part.size
    if filled != out.size:
        raise InvalidArgumentError("chunk plan does not tile the volume")
    return out


def read_chunk_table(
    payload: bytes, pos: int, shape: tuple[int, ...], n_chunks: int
) -> tuple[list[Chunk], int]:
    """Read ``n_chunks`` untrusted ``rank * (u64 start, u64 stop)`` bounds.

    The one chunk-table reader behind every on-disk format (container,
    legacy chunked framings, store index).  Returns the chunks and the
    position after the table.  Raises :class:`StreamFormatError` unless
    the chunks tile ``shape`` exactly: each axis must be cut into
    consecutive runs, and every cell of that grid must appear once.
    That is the grid :func:`plan_chunks` emits; a table with repeated or
    overlapping chunks, or with holes, would otherwise assemble into a
    volume with stale samples.  The check costs O(n_chunks * rank).
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
    _check_tiling(shape, chunks)
    return chunks, end


def _check_tiling(shape: tuple[int, ...], chunks: list[Chunk]) -> None:
    """Raise unless ``chunks`` is a permutation of one per-axis run grid."""
    starts: list[dict[int, int]] = []
    cells = 1
    for axis, extent in enumerate(shape):
        runs = sorted({c.bounds[axis] for c in chunks})
        edge = 0
        for a, b in runs:
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
        starts.append({a: i for i, (a, _) in enumerate(runs)})
        cells *= len(runs)
    if cells != len(chunks):
        raise StreamFormatError(
            f"chunk table has {len(chunks)} chunks for a {cells}-cell grid"
        )
    seen = set()
    for c in chunks:
        cell = tuple(starts[axis][a] for axis, (a, _) in enumerate(c.bounds))
        if cell in seen:
            raise StreamFormatError(f"chunk table repeats chunk {c.bounds}")
        seen.add(cell)
