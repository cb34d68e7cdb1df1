"""Multi-frame (time-series) archives.

The paper's motivating archives — CESM LENS, the Johns Hopkins
Turbulence Database — are *time series* of fields written once and read
for years (Sec. I).  This module frames a sequence of snapshots into a
single archive with random access per frame: each frame is an
independent SPERR container, so a reader can decompress one timestep
without touching the rest, and frames can use different modes or even
shapes (adaptive-resolution runs).

Layout::

    magic "SPRRTS1\\0"    8 bytes
    n_frames             u32
    frame byte lengths   n_frames * u64
    frame payloads       (standard containers, concatenated)
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

import numpy as np

from ..errors import InvalidArgumentError, StreamFormatError
from .container import CompressionResult, compress, decompress
from .modes import PsnrMode, PweMode, SizeMode

__all__ = ["compress_frames", "decompress_frame", "decompress_frames", "frame_count"]

_MAGIC = b"SPRRTS1\x00"


def compress_frames(
    frames: Sequence[np.ndarray] | Iterable[np.ndarray],
    mode: PweMode | SizeMode | PsnrMode | Sequence[PweMode | SizeMode | PsnrMode],
    **kwargs,
) -> tuple[bytes, list[CompressionResult]]:
    """Compress a sequence of snapshots into one archive.

    ``mode`` may be a single mode (applied to every frame) or one mode
    per frame (e.g. tighter tolerances for scientifically interesting
    epochs).  Extra keyword arguments pass through to
    :func:`repro.core.compress` (chunking, wavelet, workers, ...).

    Returns ``(payload, per_frame_results)``.
    """
    frames = list(frames)
    if not frames:
        raise InvalidArgumentError("no frames to compress")
    if isinstance(mode, (PweMode, SizeMode, PsnrMode)):
        modes = [mode] * len(frames)
    else:
        modes = list(mode)
        if len(modes) != len(frames):
            raise InvalidArgumentError(
                f"{len(modes)} modes for {len(frames)} frames"
            )

    results = [compress(frame, m, **kwargs) for frame, m in zip(frames, modes)]
    payloads = [r.payload for r in results]
    head = bytearray()
    head += _MAGIC
    head += struct.pack("<I", len(payloads))
    for p in payloads:
        head += struct.pack("<Q", len(p))
    return bytes(head) + b"".join(payloads), results


def _frame_table(payload: bytes) -> list[tuple[int, int]]:
    """(offset, length) of every frame payload.

    The frame lengths must account for every byte after the table: a
    short archive is truncated, a long one carries trailing garbage.
    """
    if payload[:8] != _MAGIC:
        raise StreamFormatError("not a SPERR time-series archive")
    if len(payload) < 12:
        raise StreamFormatError("time-series archive truncated in its header")
    (n,) = struct.unpack_from("<I", payload, 8)
    pos = 12 + 8 * n
    if pos > len(payload):
        raise StreamFormatError(
            f"time-series archive declares {n} frames but its frame table "
            "is truncated"
        )
    table = []
    for (length,) in struct.iter_unpack("<Q", payload[12:pos]):
        table.append((pos, length))
        pos += length
    if pos > len(payload):
        raise StreamFormatError("time-series archive truncated")
    if pos < len(payload):
        raise StreamFormatError(
            f"{len(payload) - pos} trailing bytes after the last frame"
        )
    return table


def frame_count(payload: bytes) -> int:
    """Number of frames in an archive."""
    return len(_frame_table(payload))


def decompress_frame(payload: bytes, index: int, **kwargs) -> np.ndarray:
    """Random access: decompress a single frame by index."""
    table = _frame_table(payload)
    if not -len(table) <= index < len(table):
        raise InvalidArgumentError(
            f"frame index {index} out of range for {len(table)} frames"
        )
    offset, length = table[index]
    return decompress(payload[offset : offset + length], **kwargs)


def decompress_frames(payload: bytes, **kwargs) -> list[np.ndarray]:
    """Decompress every frame, in order."""
    return [
        decompress(payload[offset : offset + length], **kwargs)
        for offset, length in _frame_table(payload)
    ]
