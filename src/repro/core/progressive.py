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
The chunk-level primitives (:func:`split_chunk_stream`,
:func:`truncate_chunk_stream`) are shared with the random-access store
(:mod:`repro.store`), which applies the same truncation per chunk to
serve windowed reads under a byte budget.

All payload parsing here runs behind the :func:`~repro.errors.decode_guard`
/ :func:`~repro.errors.checked_shape` trust boundary, matching every
other decoder in the package: a forged or corrupted payload surfaces as
:class:`~repro.errors.StreamFormatError`, never a raw ``struct``/numpy
exception, and declared shapes are capped before sizing an allocation.
"""

from __future__ import annotations

import numpy as np

from .. import lossless
from ..bitstream import HEADER_SIZE, ChunkHeader, ChunkParams
from ..errors import (
    InvalidArgumentError,
    StreamFormatError,
    UnsupportedModeError,
    checked_shape,
    decode_guard,
)
from ..speck import decode_coefficients
from ..wavelets import inverse_to_level
from .plans import wavelet_plan

__all__ = [
    "truncate",
    "decompress_multires",
    "split_chunk_stream",
    "truncate_chunk_stream",
]


def split_chunk_stream(raw: bytes) -> tuple[ChunkHeader, ChunkParams, bytes, bytes]:
    """Split a raw (lossless-decompressed) chunk stream into its parts.

    Returns ``(header, params, speck_section, outlier_section)`` after
    validating the section table against the actual byte count and the
    declared bit counts against the section sizes — the same checks
    :func:`~repro.core.pipeline.decompress_chunk` applies before
    trusting a stream.
    """
    header = ChunkHeader.unpack(raw)
    params = ChunkParams.unpack(raw[HEADER_SIZE:])
    body = raw[HEADER_SIZE + ChunkParams.SIZE :]
    if len(body) < header.speck_nbytes + params.outlier_nbytes:
        raise StreamFormatError("chunk stream shorter than its section table")
    if params.speck_nbits > 8 * header.speck_nbytes:
        raise StreamFormatError(
            f"SPECK section declares {params.speck_nbits} bits in "
            f"{header.speck_nbytes} bytes"
        )
    if params.outlier_nbits > 8 * params.outlier_nbytes:
        raise StreamFormatError(
            f"outlier section declares {params.outlier_nbits} bits in "
            f"{params.outlier_nbytes} bytes"
        )
    if not np.isfinite(params.q) or params.q < 0:
        raise StreamFormatError(f"invalid quantization step {params.q!r}")
    speck = body[: header.speck_nbytes]
    outliers = body[header.speck_nbytes : header.speck_nbytes + params.outlier_nbytes]
    return header, params, speck, outliers


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
    new_header = ChunkHeader(
        shape=header.shape,
        speck_nbytes=len(new_speck),
        is_double=header.is_double,
        pwe_mode=False,
        has_outliers=False,
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
    Sec. VII.
    """
    from .adaptive import CODEC_SPERR
    from .container import build_container, parse_container

    if not 0.0 < fraction <= 1.0:
        raise InvalidArgumentError("fraction must be in (0, 1]")
    parsed = parse_container(payload)
    tags = parsed.codec_tags or (CODEC_SPERR,) * len(parsed.streams)
    new_streams: list[bytes] = []
    for stream, tag in zip(parsed.streams, tags):
        if tag != CODEC_SPERR:
            # non-sperr chunks have no embedded-bitplane structure to
            # cut; they pass through whole (szx and stored are the cheap
            # tier) and keep their tag in the rebuilt table.
            new_streams.append(stream)
            continue
        with decode_guard("sperr"):
            raw = lossless.decompress(stream)
        new_streams.append(
            lossless.compress(truncate_chunk_stream(raw, fraction), method="auto")
        )
    return build_container(
        parsed.rank,
        parsed.dtype,
        1,
        parsed.shape,
        parsed.chunks,
        new_streams,
        version=parsed.format_version if parsed.codec_tags else 2,
        codec_tags=parsed.codec_tags,
    )


def decompress_multires(payload: bytes, level: int) -> np.ndarray:
    """Reconstruct a coarsened view: skip the finest ``level`` inverse
    wavelet levels (each skipped level roughly halves every axis).

    Requires a single-chunk container — coarse views of independently
    transformed chunks do not tile into one coherent coarse volume
    (:meth:`repro.store.CompressedArray.read_window` offers the
    chunk-aligned equivalent for sharded stores).  ``level = 0`` is
    equivalent to full decompression without outlier corrections applied
    at coarser levels (corrections are point-wise at full resolution, so
    they are applied only when ``level == 0``).
    """
    from .container import parse_container

    if level < 0:
        raise InvalidArgumentError("level must be non-negative")
    parsed = parse_container(payload)
    if len(parsed.streams) != 1:
        raise UnsupportedModeError(
            "multi-resolution decoding requires a single-chunk container "
            f"(this one has {len(parsed.streams)} chunks)"
        )
    if level == 0:
        from .container import decompress

        return decompress(payload)

    from .adaptive import CODEC_SPERR

    tag = parsed.codec_tags[0] if parsed.codec_tags else CODEC_SPERR
    if tag != CODEC_SPERR:
        # non-sperr chunks carry no wavelet hierarchy; a coarse view is
        # produced by full decode + per-level decimation, which matches
        # the (n+1)//2-per-level extents of the wavelet path.
        from .container import decode_tagged_chunk

        shape = checked_shape(parsed.shape, "adaptive")
        box = decode_tagged_chunk(parsed.streams[0], tag, parsed.rank, shape)
        for _ in range(level):
            box = box[tuple(slice(None, None, 2) for _ in range(box.ndim))]
        return box.astype(parsed.dtype, copy=False)

    shape = checked_shape(parsed.shape, "sperr")
    with decode_guard("sperr"):
        raw = lossless.decompress(parsed.streams[0])
        _header, params, speck, _outliers = split_chunk_stream(raw)
        coeffs = decode_coefficients(speck, shape, params.q, nbits=params.speck_nbits)
        plan = wavelet_plan(shape, wavelet=params.wavelet, levels=params.levels)
        if level > plan.total_levels:
            raise InvalidArgumentError(
                f"container supports at most {plan.total_levels} coarsening levels"
            )
        box = inverse_to_level(coeffs, plan, level)
    return box.astype(parsed.dtype, copy=False)
