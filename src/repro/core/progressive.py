"""Progressive and multi-resolution access — the paper's Sec. VII roadmap.

Two capabilities fall out of SPERR's wavelet + embedded-bitplane design:

* :func:`truncate` — any prefix of a SPECK stream is decodable, so a
  stored container can be cut down to a byte budget *after the fact*
  without re-encoding (streaming / tiered-storage use cases).  The
  truncated container decodes to a coarser but valid reconstruction.
* :func:`decompress_multires` — the wavelet hierarchy represents the
  data as self-similar coarsened levels, so a low-resolution preview can
  be reconstructed by skipping the finest inverse-transform levels.

Both operate on standard containers produced by :func:`repro.compress`.
The chunk-level primitive :func:`truncate_chunk_stream` is shared with
:func:`~repro.core.container.decode_tagged_chunk`, which applies the same
truncation per chunk when a store read runs under a byte budget.

All payload parsing here runs behind the :func:`~repro.errors.decode_guard`
/ :func:`~repro.errors.checked_shape` trust boundary, matching every
other decoder in the package: a forged or corrupted payload surfaces as
:class:`~repro.errors.StreamFormatError`, never a raw ``struct``/numpy
exception, and declared shapes are capped before sizing an allocation.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .. import lossless
from ..bitstream import ChunkParams
from ..errors import (
    InvalidArgumentError,
    UnsupportedModeError,
    checked_shape,
    decode_guard,
)
from .adaptive import CODEC_SPERR
from .pipeline import split_chunk_stream

__all__ = [
    "truncate",
    "decompress_multires",
    "truncate_chunk_stream",
]


def truncate_chunk_stream(raw: bytes, fraction: float) -> bytes:
    """Cut one raw chunk stream's SPECK section to ``fraction`` of its bits.

    Returns a new self-contained raw chunk stream.  The outlier section
    is dropped (its corrections refer to the full-precision coefficient
    reconstruction), so the result decodes as a size-mode stream: a
    valid coarser reconstruction without a PWE guarantee.  ``raw`` is
    parsed behind the decode guard, so a malformed stream raises
    :class:`~repro.errors.StreamFormatError`.
    """
    if not 0.0 < fraction <= 1.0:
        raise InvalidArgumentError("fraction must be in (0, 1]")
    with decode_guard("sperr"):
        header, params, speck, _outliers = split_chunk_stream(raw)
    new_nbits = max(16, int(params.speck_nbits * fraction))
    new_nbits = min(new_nbits, params.speck_nbits)
    new_speck = speck[: (new_nbits + 7) // 8]
    # replace() keeps the header's version: a version-1 body must stay
    # marked as the layout it was written in.
    new_header = dataclasses.replace(
        header, speck_nbytes=len(new_speck), pwe_mode=False, has_outliers=False
    )
    new_params = ChunkParams(
        q=params.q,
        tolerance=0.0,
        speck_nbits=new_nbits,
        outlier_nbits=0,
        outlier_nbytes=0,
        wavelet=params.wavelet,
        levels=params.levels,
    )
    return new_header.pack() + new_params.pack() + new_speck


def truncate(payload: bytes, fraction: float) -> bytes:
    """Cut every chunk's SPECK stream to ``fraction`` of its bits.

    Returns a new, self-contained container.  The outlier sections are
    dropped (their corrections refer to the full-precision coefficient
    reconstruction), so the result is a *size-mode* container: it decodes
    to a valid coarser reconstruction but no longer carries a PWE
    guarantee — exactly the trade-off of the streaming scenario in
    Sec. VII.  The codec tags and NaN/Inf mask section carry over
    unchanged; the result is written in the current container version
    whatever version ``payload`` was read from, and each cut sperr
    section is framed with the ``stored`` lossless tag, the one rule
    :func:`repro.compress` writes sperr sections by.
    """
    from .container import build_container, parse_container

    if not 0.0 < fraction <= 1.0:
        raise InvalidArgumentError("fraction must be in (0, 1]")
    parsed = parse_container(payload)
    new_streams: list[bytes] = []
    for stream, tag in zip(parsed.streams, parsed.codec_tags):
        if tag != CODEC_SPERR:
            # non-sperr chunks have no embedded-bitplane structure to
            # cut; they pass through whole (szx and stored are the cheap
            # tier) and keep their tag in the rebuilt table.
            new_streams.append(stream)
            continue
        with decode_guard("sperr"):
            raw = lossless.decompress(stream)
        new_streams.append(
            lossless.compress(truncate_chunk_stream(raw, fraction), method="stored")
        )
    return build_container(
        parsed.rank,
        parsed.dtype,
        1,
        parsed.shape,
        parsed.chunks,
        new_streams,
        codec_tags=parsed.codec_tags,
        mask_blob=parsed.mask_blob,
    )


def decompress_multires(payload: bytes, level: int) -> np.ndarray:
    """Reconstruct a coarsened view: skip the finest ``level`` inverse
    wavelet levels (each skipped level halves every axis deep enough
    for it, under the per-axis rule of
    :func:`~repro.core.chunking.coarse_extent`).

    Requires a single-chunk container — coarse views of independently
    transformed chunks do not tile into one coherent coarse volume
    (:meth:`repro.store.CompressedArray.read_window` offers the
    chunk-aligned equivalent for sharded stores).  The chunk decodes
    through :func:`~repro.core.container.decode_window`, the step every
    container and store read takes, so a one-chunk store read at
    ``level`` returns the same bytes for every codec tag.  ``level = 0``
    is full decompression; outlier corrections are point-wise at full
    resolution, so they are applied only when ``level == 0``.
    """
    from .container import decode_window, decompress, parse_container

    if level < 0:
        raise InvalidArgumentError("level must be non-negative")
    parsed = parse_container(payload)
    if len(parsed.streams) != 1:
        raise UnsupportedModeError(
            "multi-resolution decoding requires a single-chunk container "
            f"(this one has {len(parsed.streams)} chunks)"
        )
    if level == 0:
        return decompress(payload)
    shape = checked_shape(parsed.shape, "multires")
    crc = parsed.chunk_crcs[0] if parsed.chunk_crcs else None
    return decode_window(
        parsed.grid,
        tuple((0, n) for n in shape),
        [(0, parsed.streams[0], parsed.codec_tags[0], crc, level)],
        parsed.dtype,
        salvage=False,
        level=level,
    )[0]
