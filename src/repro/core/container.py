"""Multi-chunk container format and the top-level compress/decompress.

Every payload :func:`compress` and :func:`build_container` write is a
version-4 ``.sperr`` container::

    magic "SPRRPY4\\0"                      8 bytes
    rank                 u8
    dtype code           u8  (0=float32, 1=float64)
    mode code            u8  (0=PWE, 1=size, 2=PSNR)
    lossless flag        u8
    header CRC32         u32 (over the whole header, this field zeroed)
    global shape         rank * u64
    n_chunks             u32
    per-chunk bounds     n_chunks * rank * 2 * u64
    per-chunk byte size  n_chunks * u64
    per-chunk CRC32      n_chunks * u32
    per-chunk codec tag  n_chunks * u8 (:mod:`repro.core.adaptive`)
    mask nbytes          u64 (0 for finite inputs)
    mask CRC32           u32
    mask blob            the RLE-coded NaN/Inf mask (:mod:`repro.core.mask`)
    chunk streams        one per chunk, decoded by its tag

Each chunk stream is self-contained under its tag's decoder — the
lossless-wrapped SPERR stream, a raw ``SZX1`` stream, verbatim
``RAW1`` bytes, or a baseline registry codec's own payload (tags 3–6).
The tag column and the mask field are written even when every chunk is
sperr and the input is finite, so one layout serves every input.

Versions 1-3 are read-only.  v1 (``SPRRPY1\\0``) has no CRCs, no tags
and no mask field; v2 (``SPRRPY2\\0``) adds the header and chunk CRCs;
v3 (``SPRRPY3\\0``) adds the mask field after the chunk CRCs.
:func:`parse_container` reads them through the version checks of
``_parse_container_body`` and reports every chunk of them as sperr.
They are not moved into :mod:`repro.core.legacy`: they share this
header and chunk-table reader, and a second copy of it would add more
code than it removes.

Every reader takes the chunk table through
:func:`~repro.core.chunking.read_chunk_table`, which rejects tables
that do not tile the shape exactly.  Retired framings from before the
baselines became tags are parsed read-only by :mod:`repro.core.legacy`
into the same :class:`ParsedContainer` view.

Each sperr chunk payload is the self-contained stream of
:func:`repro.core.pipeline.compress_chunk`, mirroring real SPERR's
concatenation of independent per-chunk bitstreams (Sec. III-D).  The
per-chunk CRCs make chunk independence a *fault-isolation* boundary:
:func:`decompress` can verify, skip, and report damaged chunks
(``on_error="salvage"``) instead of losing the whole volume.
"""

from __future__ import annotations

import math
import struct
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate

import numpy as np

from .. import lossless, obs
from ..errors import (
    AllocationLimitError,
    IntegrityError,
    InvalidArgumentError,
    StreamFormatError,
    decode_guard,
)
from .adaptive import (
    BASELINE_TAGS,
    CODEC_NAMES,
    CODEC_SPERR,
    CODEC_STORED,
    CODEC_SZX,
    choose_codecs,
    decode_stored_chunk,
    encode_stored_chunk,
)
from .chunking import (
    Chunk,
    ChunkGrid,
    _axis_depth,
    coarse_depth,
    coarse_extent,
    group_by_shape,
    plan_chunks,
    read_chunk_table,
)
from .mask import (
    DegradationNote,
    apply_mask,
    decode_mask,
    encode_mask,
    sanitize_array,
    tighten_pwe_for_dtype,
)
from .modes import PsnrMode, PweMode, SizeMode
from .parallel import SharedArray, resolve_workers, robust_chunk_map, split_groups
from .pipeline import ChunkReport, compress_stack, decompress_chunk, psnr_target_rmse
from .progressive import truncate_chunk_stream

__all__ = [
    "CompressionResult",
    "ParsedContainer",
    "ChunkDecodeStatus",
    "DecodeReport",
    "DecodeResult",
    "DegradationNote",
    "CONTAINER_VERSION",
    "MAX_TOTAL_POINTS",
    "compress",
    "decompress",
    "decode_chunks",
    "decode_tagged_chunk",
    "parse_container",
    "build_container",
]

_MAGIC_BY_VERSION = {
    1: b"SPRRPY1\x00",
    2: b"SPRRPY2\x00",
    3: b"SPRRPY3\x00",
    4: b"SPRRPY4\x00",
}
_VERSION_BY_MAGIC = {m: v for v, m in _MAGIC_BY_VERSION.items()}

#: The one container version :func:`build_container` writes; versions
#: 1-3 are read-only (see the module docstring).
CONTAINER_VERSION = 4

#: Hard cap on the number of points a container may declare before the
#: decoder allocates the output volume.  Untrusted shape fields beyond
#: this raise :class:`~repro.errors.AllocationLimitError` instead of
#: letting a forged header request terabytes from ``np.empty``.
MAX_TOTAL_POINTS = 1 << 31

_DTYPES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_DTYPE_BY_CODE = {v: k for k, v in _DTYPES.items()}

#: byte offset of the header-CRC field, v2 on (after magic + 4 meta bytes)
_HEADER_CRC_OFFSET = 12


@dataclass
class CompressionResult:
    """Compressed payload plus accounting from every chunk.

    ``trace`` is a :class:`~repro.obs.TraceReport` when :func:`compress`
    ran with ``trace=True`` (and no ambient trace was already
    collecting); otherwise ``None``.  ``notes`` lists every
    :class:`~repro.core.mask.DegradationNote` the input-hardening layer
    absorbed (masked samples, constant fields, denormal-heavy data).
    """

    payload: bytes
    reports: list[ChunkReport]
    trace: "obs.TraceReport | None" = None
    notes: list[DegradationNote] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        return len(self.payload)

    @property
    def npoints(self) -> int:
        return sum(r.npoints for r in self.reports)

    @property
    def bpp(self) -> float:
        """Achieved container bitrate in bits per point."""
        return 8.0 * self.nbytes / self.npoints

    @property
    def n_outliers(self) -> int:
        return sum(r.n_outliers for r in self.reports)


def _compress_stack_job(
    stack: np.ndarray,
    mode: PweMode | SizeMode | PsnrMode,
    wavelet: str,
    target_rmse: float | None,
) -> list[tuple[bytes, ChunkReport]]:
    """Compress a ``(lanes, *shape)`` stack of sperr chunks and frame each.

    Every compress path writes its sperr sections here.  Each section is
    framed with the ``stored`` lossless tag by one fixed rule, the rule
    :func:`~repro.core.progressive.truncate` also frames its cut sections
    by: the paper's final ZSTD-substitute pass saved about 2.5% of the
    bytes of entropy-dense SPECK output and cost about a third of every
    decompress (docs/lossless.md), so it is not run.  Sections of any
    other tag, written before this rule, still decode.
    """
    out = compress_stack(stack, mode, wavelet=wavelet, target_rmse=target_rmse)
    for lane, (raw, report) in enumerate(out):
        packed = lossless.compress(raw, method="stored")
        report.total_nbytes = len(packed)
        out[lane] = (packed, report)
    return out


def _compress_baseline_job(
    part: np.ndarray, name: str, mode: PweMode | SizeMode | PsnrMode
) -> tuple[bytes, ChunkReport]:
    """Compress one chunk with a baseline registry codec.

    The chunk stream is the default-constructed registry codec's payload
    for the float64 chunk, so each baseline keeps its own stream format
    and error semantics inside the shared container.
    """
    from ..compressors import ALL_COMPRESSORS

    part = np.ascontiguousarray(part, dtype=np.float64)
    stream = ALL_COMPRESSORS[name]().compress(part, mode)
    tolerance = mode.tolerance if isinstance(mode, PweMode) else 0.0
    return stream, _fast_tier_report(part.shape, tolerance, len(stream))


def decode_tagged_chunk(
    stream: bytes,
    tag: int,
    rank: int,
    expected_shape: tuple[int, ...],
    *,
    level: int = 0,
    levels_cap: int | None = None,
    fraction: float | None = None,
) -> np.ndarray:
    """Decode one chunk stream under its chunk-table codec tag.

    This is the one chunk decoder: :func:`decompress`, the store's
    :meth:`~repro.store.CompressedArray.read_window` and
    :func:`~repro.core.progressive.decompress_multires` all reach it
    through :func:`decode_chunks`.  Baseline tags decode through the
    registry codec; every tag must reproduce the table shape.

    ``fraction < 1`` first cuts a sperr chunk's SPECK section to that
    share of its bits (:func:`~repro.core.progressive.truncate_chunk_stream`);
    the other tags have no embedded bitstream and decode whole.
    ``level > 0`` returns the coarse box: sperr chunks skip the finest
    inverse wavelet levels, the other tags keep every ``2**k``-th
    sample, and each axis ends at
    :func:`~repro.core.chunking.coarse_extent` under
    ``levels_cap``.  A ``level`` deeper than the chunk's deepest axis
    raises :class:`~repro.errors.InvalidArgumentError`.
    """
    name = CODEC_NAMES.get(tag)
    if name is None:
        raise StreamFormatError(f"unknown chunk codec tag {tag}")
    shape = tuple(expected_shape)
    with decode_guard(name):
        if tag == CODEC_SPERR:
            raw = lossless.decompress(stream)
            if fraction is not None and fraction < 1.0:
                raw = truncate_chunk_stream(raw, fraction)
            box = decompress_chunk(raw, rank=rank, expected_shape=shape, level=level)
        else:
            depth = coarse_depth(shape, levels_cap)
            if level > depth:
                raise InvalidArgumentError(
                    f"a {shape} chunk supports at most {depth} coarsening levels"
                )
            if tag == CODEC_SZX:
                from ..compressors.szxlike.codec import decode_chunk as szx_decode

                box = szx_decode(stream, expected_shape=shape)
            elif tag == CODEC_STORED:
                box = decode_stored_chunk(stream, expected_shape=shape)
            else:
                from ..compressors import ALL_COMPRESSORS

                box = ALL_COMPRESSORS[name]().decompress(stream)
            if level:
                steps = (1 << min(level, _axis_depth(n, levels_cap)) for n in shape)
                box = box[tuple(slice(None, None, step) for step in steps)]
    coarse = tuple(coarse_extent(n, level, levels_cap) for n in shape)
    if box.shape != coarse:
        raise StreamFormatError(
            f"{name} chunk decodes to shape {box.shape}, table says "
            f"{coarse} at level {level}"
        )
    return box


def _decode_chunk_job(
    item: tuple[bytes, tuple[int, ...], int, int],
    rank: int,
    levels_cap: int | None,
    fraction: float | None,
    salvage: bool,
    span: str | None,
) -> np.ndarray | str:
    """The chunk-decode job every read path maps (module-level, so the
    process pool can pickle it).

    ``item`` is ``(stream, expected_shape, tag, level)``.  Salvage mode
    only changes whether a failure propagates or comes back as a
    one-line summary string.  ``span`` names an optional per-chunk span.
    """
    stream, expected_shape, tag, level = item
    scope = (
        obs.span(span, nbytes=len(stream), level=level, codec=tag)
        if span
        else nullcontext()
    )
    try:
        with scope:
            return decode_tagged_chunk(
                stream,
                tag,
                rank,
                expected_shape,
                level=level,
                levels_cap=levels_cap,
                fraction=fraction,
            )
    except Exception as exc:  # noqa: BLE001 - isolation boundary by design
        if not salvage:
            raise
        return f"{type(exc).__name__}: {exc}"


def decode_chunks(
    jobs: list[tuple[int, bytes, tuple[int, ...], int, int | None, int]],
    rank: int,
    *,
    salvage: bool,
    levels_cap: int | None = None,
    fraction: float | None = None,
    workers: int | None = None,
    timeout: float | None = None,
    span: str | None = None,
) -> tuple[dict[int, np.ndarray], dict[int, tuple[str, str]], list[str]]:
    """Verify, then decode, chunk streams through :func:`_decode_chunk_job`.

    Each job is ``(index, stream, expected_shape, tag, crc, level)``
    (``crc=None`` skips verification).  Every CRC is checked before any
    decode work: raise mode raises
    :class:`~repro.errors.IntegrityError` on the first mismatch, salvage
    mode records it and skips the chunk.  ``workers=None`` or ``1``
    decodes in-process; ``workers=N >= 2`` cuts the jobs into at most
    ``N`` contiguous groups, one pool task each, that write their boxes
    into one shared-memory buffer (``timeout`` bounds each task).
    Returns ``(parts, failures, notes)``: decoded arrays and ``(status,
    error)`` pairs keyed by index, plus the process pool's degradation
    notes.
    """
    failures: dict[int, tuple[str, str]] = {}
    with obs.span("container.verify", n_chunks=len(jobs)):
        for index, stream, _shape, _tag, crc, _level in jobs:
            if crc is not None and zlib.crc32(stream) != crc:
                if not salvage:
                    raise IntegrityError(f"chunk {index} CRC mismatch")
                failures[index] = (
                    "crc_mismatch",
                    f"chunk CRC mismatch (stored {crc:#010x})",
                )
    todo = [job for job in jobs if job[0] not in failures]
    work = partial(
        _decode_chunk_job,
        rank=rank,
        levels_cap=levels_cap,
        fraction=fraction,
        salvage=salvage,
        span=span,
    )
    items = [(stream, shape, tag, level) for _, stream, shape, tag, _, level in todo]
    groups = split_groups(len(items), workers or 1)
    if len(groups) <= 1:
        results, notes = [work(item) for item in items], []
    else:
        results, notes = _decode_pooled(
            work, items, groups, levels_cap, workers=workers, timeout=timeout
        )
    parts: dict[int, np.ndarray] = {}
    for job, value in zip(todo, results):
        if isinstance(value, str):
            failures[job[0]] = ("decode_error", value)
        else:
            parts[job[0]] = value
    return parts, failures, notes


def _decode_into(
    flat: np.ndarray, batch: list[tuple[tuple, int]], work
) -> list[str | None]:
    """Decode each ``(item, offset)`` of ``batch`` with ``work`` into
    ``flat[offset:]``; ``None`` per written box, the failure summary
    for each salvaged one."""
    status: list[str | None] = []
    for item, offset in batch:
        value = work(item)
        if isinstance(value, str):
            status.append(value)
        else:
            flat[offset : offset + value.size] = value.ravel()
            status.append(None)
    return status


def _decode_group_job(batch, ref: tuple, work) -> list[str | None]:
    """One decode pool task: a contiguous group of chunks into the
    shared output buffer ``ref``."""
    return SharedArray.call(ref, _decode_into, batch, work)


def _decode_pooled(
    work, items: list[tuple], groups: list[range], levels_cap, *, workers, timeout
) -> tuple[list[np.ndarray | str], list[str]]:
    """Decode ``items`` as one pool task per group; results in item order.

    Every box's extent is known from its table shape and level, so the
    boxes get fixed offsets in one float64 shared-memory buffer and only
    failure summaries travel back through the pipe.  Each box is copied
    out of the buffer before it is released.
    """
    shapes = [
        tuple(coarse_extent(n, level, levels_cap) for n in shape)
        for _, shape, _, level in items
    ]
    offsets = list(accumulate((math.prod(s) for s in shapes), initial=0))
    with SharedArray((offsets[-1],), np.float64) as shared:
        per_group, notes = robust_chunk_map(
            partial(_decode_group_job, ref=shared.ref, work=work),
            [[(items[j], offsets[j]) for j in group] for group in groups],
            workers=workers,
            timeout=timeout,
        )
        results: list[np.ndarray | str] = [
            shared.array[offsets[j] : offsets[j + 1]].reshape(shapes[j]).copy()
            if status is None
            else status
            for group, statuses in zip(groups, per_group)
            for j, status in zip(group, statuses)
        ]
    return results, notes


def compress(
    data: np.ndarray,
    mode: PweMode | SizeMode | PsnrMode,
    *,
    chunk_shape: int | tuple[int, ...] | None = None,
    wavelet: str = "cdf97",
    workers: int | None = None,
    trace: bool = False,
    codec: str = "quality",
) -> CompressionResult:
    """Compress an array into a self-contained SPERR container.

    ``chunk_shape=None`` compresses the volume as a single chunk;
    an int or tuple tiles it for parallel execution (Sec. III-D).
    ``workers=1`` runs same-shaped chunks through stacked numpy kernels
    in-process; ``workers=N >= 2`` cuts the chunk list into at most
    ``N`` contiguous groups and runs each, stacked the same way, as one
    task on a persistent pool of ``N`` processes that reads the volume
    from shared memory.  ``workers=None`` uses one process per CPU for
    volumes of at least :data:`~repro.core.parallel.AUTO_MIN_BYTES`
    called from the main thread, and stays in-process otherwise
    (:func:`~repro.core.parallel.resolve_workers`).  Payloads are
    byte-identical for every ``workers``.  A broken or unavailable pool
    degrades to in-process execution and is recorded in
    ``result.notes``.
    ``trace=True`` collects a per-stage span trace for this call and
    attaches it as ``result.trace``; when an ambient
    :class:`~repro.obs.trace` is already active, spans flow to it
    instead and ``result.trace`` stays ``None``.

    ``codec`` selects the compression tier per chunk
    (:mod:`repro.core.adaptive`): ``"quality"`` (default) runs every
    chunk through the SPERR pipeline, with chunk streams byte-identical
    to the pre-adaptive ones; ``"fast"`` routes every chunk to the
    SZx-style block codec; ``"adaptive"`` samples each chunk and picks
    szx / sperr / stored per its smoothness.  ``fast`` and ``adaptive``
    require a :class:`~repro.core.modes.PweMode` bound, which every
    tier honors — routing trades ratio against throughput only.
    A baseline registry name (``"sz-like"``, ``"zfp-like"``,
    ``"tthresh-like"``, ``"mgard-like"``) encodes every chunk with that
    codec under its own mode rules; masks, dtype, CRCs and salvage come
    from this container as for every other tier.
    """
    if trace and not obs.is_active():
        with obs.trace("sperr.compress") as tracer:
            result = _compress_impl(
                data,
                mode,
                chunk_shape=chunk_shape,
                wavelet=wavelet,
                workers=workers,
                codec=codec,
            )
        result.trace = tracer.report()
        return result
    return _compress_impl(
        data,
        mode,
        chunk_shape=chunk_shape,
        wavelet=wavelet,
        workers=workers,
        codec=codec,
    )


def _compress_impl(
    data: np.ndarray,
    mode: PweMode | SizeMode | PsnrMode,
    *,
    chunk_shape: int | tuple[int, ...] | None,
    wavelet: str,
    workers: int | None,
    codec: str = "quality",
) -> CompressionResult:
    """Validation, chunk fan-out, codec routing, and container framing."""
    data = np.asarray(data)
    if data.dtype not in _DTYPES:
        if np.issubdtype(data.dtype, np.floating) or np.issubdtype(data.dtype, np.integer):
            data = data.astype(np.float64)
        else:
            raise InvalidArgumentError(f"unsupported dtype {data.dtype}")
    if data.ndim < 1 or data.ndim > 3:
        raise InvalidArgumentError("only 1-D, 2-D, and 3-D arrays are supported")
    # Input hardening happens once, before any chunk dispatch, so the
    # in-process and pooled paths see the same finite field and stay
    # byte-identical on masked inputs.
    data, mask_codes, notes = sanitize_array(data)
    mode = tighten_pwe_for_dtype(mode, data)

    chunks = plan_chunks(data.shape, chunk_shape)
    workers = resolve_workers(workers, data.nbytes, len(chunks))
    # ``quality`` skips the sampling pass (and its ``adaptive.dispatch``
    # span) entirely: every chunk is sperr.
    if codec == "quality":
        tags = np.zeros(len(chunks), dtype=np.uint8)
    else:
        tags = choose_codecs(
            [data[c.slices()] for c in chunks], mode, codec
        )

    with obs.span(
        "sperr.compress",
        shape=data.shape,
        chunks=len(chunks),
        workers=workers,
        codec=codec,
    ):
        results, pool_notes = _compress_chunks(
            data, chunks, tags, mode, wavelet=wavelet, workers=workers
        )
        notes += [DegradationNote("pool_fallback", note) for note in pool_notes]
        streams = [packed for packed, _ in results]
        reports = [report for _, report in results]

        mode_code = 0 if isinstance(mode, PweMode) else (2 if isinstance(mode, PsnrMode) else 1)
        with obs.span("container.build", n_chunks=len(chunks)):
            payload = build_container(
                data.ndim,
                np.dtype(data.dtype),
                mode_code,
                data.shape,
                chunks,
                streams,
                codec_tags=tags,
                mask_blob=None if mask_codes is None else encode_mask(mask_codes),
            )
        obs.add_counter("container.bytes", len(payload))
    return CompressionResult(payload=payload, reports=reports, notes=notes)


def _fast_tier_report(
    shape: tuple[int, ...], tolerance: float, nbytes: int
) -> ChunkReport:
    """Accounting stub for non-sperr chunks (no SPECK/outlier stages)."""
    return ChunkReport(
        shape=tuple(shape),
        q=2.0 * tolerance,
        tolerance=tolerance,
        speck_nbits=0,
        outlier_nbits=0,
        n_outliers=0,
        total_nbytes=nbytes,
    )


def _compress_chunks(
    data: np.ndarray,
    chunks: list[Chunk],
    tags: np.ndarray,
    mode: PweMode | SizeMode | PsnrMode,
    *,
    wavelet: str,
    workers: int,
) -> tuple[list[tuple[bytes, ChunkReport]], list[str]]:
    """Compress every chunk in ``workers`` contiguous groups; results in
    chunk order, plus the process pool's degradation notes.

    One group is :func:`_compress_parts` in-process.  More groups put
    the volume in shared memory once and run :func:`_compress_parts` on
    each group's chunks as one pool task, so each task keeps the
    per-shape-group stacking.  The PSNR target is resolved here, once
    from the whole field, and each baseline codec checks the mode before
    any task starts.
    """
    for name, tag in BASELINE_TAGS.items():
        if np.any(tags == tag):
            from ..compressors import ALL_COMPRESSORS

            ALL_COMPRESSORS[name]().check_mode(mode)
    opts = {"mode": mode, "wavelet": wavelet, "target_rmse": psnr_target_rmse(mode, data)}
    groups = split_groups(len(chunks), workers)
    if len(groups) <= 1:
        return _compress_parts(data, chunks, tags, **opts), []
    with SharedArray(data.shape, data.dtype) as shared:
        np.copyto(shared.array, data)
        per_group, notes = robust_chunk_map(
            partial(_compress_group_job, **opts),
            [
                (shared.ref, chunks[g.start : g.stop], tags[g.start : g.stop])
                for g in groups
            ],
            workers=workers,
        )
    return [pair for group in per_group for pair in group], notes


def _compress_group_job(
    item: tuple, **kwargs
) -> list[tuple[bytes, ChunkReport]]:
    """One compress pool task: ``item`` is ``(ref, chunks, tags)``, a
    contiguous group of chunks of the shared volume ``ref``."""
    ref, chunks, tags = item
    return SharedArray.call(ref, _compress_parts, chunks, tags, **kwargs)


def _compress_parts(
    data: np.ndarray,
    chunks: list[Chunk],
    tags: np.ndarray,
    *,
    mode: PweMode | SizeMode | PsnrMode,
    wavelet: str,
    target_rmse: float | None,
) -> list[tuple[bytes, ChunkReport]]:
    """Compress these ``chunks`` of ``data`` under their codec ``tags``;
    results in the order given.

    sperr-tagged chunks run through :func:`compress_stack`, one call per
    shape group.  szx-tagged chunks run through one stacked
    :func:`encode_chunks` kernel call (which is byte-identical
    chunk-by-chunk to serial encoding); stored chunks are framed
    verbatim; baseline-tagged chunks run one codec call each.  No
    result holds a view of ``data``.
    """
    results: list[tuple[bytes, ChunkReport] | None] = [None] * len(chunks)
    sperr_idx = [i for i, t in enumerate(tags) if t == CODEC_SPERR]
    szx_idx = [i for i, t in enumerate(tags) if t == CODEC_SZX]
    stored_idx = [i for i, t in enumerate(tags) if t == CODEC_STORED]

    if sperr_idx:
        sub = [chunks[i] for i in sperr_idx]
        # Same-shaped chunks traverse each stage as one stacked call.
        for _, members in group_by_shape(sub):
            stack = np.stack([data[sub[j].slices()] for j in members])
            pairs = _compress_stack_job(stack, mode, wavelet, target_rmse)
            for j, pair in zip(members, pairs):
                results[sperr_idx[j]] = pair

    # fast/adaptive policies guarantee PweMode before any chunk is
    # tagged szx or stored (see choose_codecs).
    if szx_idx:
        from ..compressors.szxlike.codec import encode_chunks as szx_encode

        # encode_chunks copies each view once, into its block matrix.
        views = [data[chunks[i].slices()] for i in szx_idx]
        with obs.span("szx.encode", n_chunks=len(szx_idx)):
            streams = szx_encode(views, mode.tolerance)
        for i, stream, view in zip(szx_idx, streams, views):
            results[i] = (
                stream,
                _fast_tier_report(view.shape, mode.tolerance, len(stream)),
            )

    if stored_idx:
        with obs.span("stored.encode", n_chunks=len(stored_idx)):
            for i in stored_idx:
                part = data[chunks[i].slices()]
                stream = encode_stored_chunk(part)
                results[i] = (
                    stream,
                    _fast_tier_report(part.shape, mode.tolerance, len(stream)),
                )

    names = {tag: name for name, tag in BASELINE_TAGS.items()}
    for i, tag in enumerate(tags):
        if int(tag) in names:
            results[i] = _compress_baseline_job(
                data[chunks[i].slices()], names[int(tag)], mode
            )

    return results  # type: ignore[return-value]


@dataclass(frozen=True)
class ParsedContainer:
    """Structural view of a container payload (headers decoded, chunk
    streams still lossless-compressed).

    ``format_version`` is the version the payload was written in (1-4,
    see the module docstring); ``chunk_crcs`` is ``None`` on v1
    payloads, which have none.  ``codec_tags`` holds one
    :data:`~repro.core.adaptive.CODEC_NAMES` key per chunk; v1-v3
    payloads report every chunk as sperr.  ``grid`` is the checked
    chunk table (:class:`~repro.core.chunking.ChunkGrid`); ``chunks``
    reads its chunks in table order.  ``mask_blob`` is the raw
    (still lossless-compressed) mask section, ``None`` when the input was
    finite — its stored CRC is in ``mask_crc`` and is verified by
    :func:`decompress`, not here, so salvage can survive mask damage.
    """

    rank: int
    dtype: np.dtype
    mode_code: int
    shape: tuple[int, ...]
    grid: ChunkGrid
    streams: list[bytes]
    codec_tags: tuple[int, ...]
    format_version: int = CONTAINER_VERSION
    chunk_crcs: tuple[int, ...] | None = None
    mask_blob: bytes | None = None
    mask_crc: int | None = None

    @property
    def chunks(self) -> list[Chunk]:
        """The chunks in table order."""
        return self.grid.chunks


def parse_container(payload: bytes) -> ParsedContainer:
    """Decode the container framing without touching chunk payloads.

    Accepts v1-v4 payloads; from v2 on, the header CRC is verified
    before the chunk table is trusted (:class:`~repro.errors.IntegrityError`
    on mismatch).  Chunk-stream CRCs are *returned*, not verified — chunk
    verification belongs to :func:`decompress`, which can salvage.
    """
    version = _VERSION_BY_MAGIC.get(bytes(payload[:8]))
    if version is None:
        raise StreamFormatError("not a SPERR container (bad magic)")
    try:
        return _parse_container_body(payload, version)
    except struct.error as exc:
        raise StreamFormatError(f"container framing truncated: {exc}") from exc


def _parse_container_body(payload: bytes, version: int) -> ParsedContainer:
    """The one container reader; its ``version`` checks are the whole
    read path of the read-only v1-v3 layouts."""
    pos = 8
    rank, dtype_code, mode_code, _lossless_flag = struct.unpack_from("<BBBB", payload, pos)
    pos += 4
    stored_header_crc = None
    if version >= 2:
        (stored_header_crc,) = struct.unpack_from("<I", payload, pos)
        pos += 4
    if rank < 1 or rank > 3:
        raise StreamFormatError(f"invalid rank {rank}")
    if dtype_code not in _DTYPE_BY_CODE:
        raise StreamFormatError(f"invalid dtype code {dtype_code}")
    shape, n_chunks, pos = _read_extent(payload, pos, rank, "container")
    table_pos = pos
    pos += 16 * rank * n_chunks
    sizes = struct.unpack_from(f"<{n_chunks}Q", payload, pos)
    pos += 8 * n_chunks
    chunk_crcs: tuple[int, ...] | None = None
    mask_nbytes = 0
    mask_crc: int | None = None
    codec_tags = (CODEC_SPERR,) * n_chunks
    if version >= 2:
        chunk_crcs = struct.unpack_from(f"<{n_chunks}I", payload, pos)
        pos += 4 * n_chunks
        if version >= 4:
            codec_tags = struct.unpack_from(f"<{n_chunks}B", payload, pos)
            pos += n_chunks
            if any(t not in CODEC_NAMES for t in codec_tags):
                raise StreamFormatError(
                    "container chunk table carries an unknown codec tag"
                )
        if version >= 3:
            mask_nbytes, mask_crc = struct.unpack_from("<QI", payload, pos)
            pos += 12
        _check_header_crc(
            payload, pos, _HEADER_CRC_OFFSET, stored_header_crc, "container"
        )
    grid, _ = read_chunk_table(payload, table_pos, shape, n_chunks)
    mask_blob, streams = _split_sections(
        payload, pos, mask_nbytes, sizes, "container"
    )
    return ParsedContainer(
        rank=rank,
        dtype=_DTYPE_BY_CODE[dtype_code],
        mode_code=mode_code,
        shape=shape,
        grid=grid,
        streams=streams,
        format_version=version,
        chunk_crcs=chunk_crcs,
        mask_blob=mask_blob,
        mask_crc=mask_crc,
        codec_tags=codec_tags,
    )


def _read_extent(
    payload: bytes, pos: int, rank: int, what: str
) -> tuple[tuple[int, ...], int, int]:
    """Read the shape and chunk count that open a chunk table.

    Shared with the legacy readers; caps the declared point count before
    anything is sized from it.  Returns ``(shape, n_chunks, pos)``.
    """
    shape = tuple(int(s) for s in struct.unpack_from(f"<{rank}Q", payload, pos))
    pos += 8 * rank
    npoints = math.prod(shape)
    if npoints > MAX_TOTAL_POINTS:
        raise AllocationLimitError(
            f"{what} declares {npoints} points, beyond the "
            f"{MAX_TOTAL_POINTS}-point decode cap"
        )
    (n_chunks,) = struct.unpack_from("<I", payload, pos)
    pos += 4
    if n_chunks > max(1, npoints):
        raise StreamFormatError(
            f"{what} declares {n_chunks} chunks for {npoints} points"
        )
    return shape, n_chunks, pos


def _check_header_crc(
    payload: bytes, end: int, offset: int, stored: int, what: str
) -> None:
    """Verify a header CRC32 stored at ``offset`` over ``payload[:end]``."""
    header = bytearray(payload[:end])
    header[offset : offset + 4] = b"\x00\x00\x00\x00"
    if zlib.crc32(bytes(header)) != stored:
        raise IntegrityError(f"{what} header CRC mismatch")


def _split_sections(
    payload: bytes, pos: int, mask_nbytes: int, sizes: tuple[int, ...], what: str
) -> tuple[bytes | None, list[bytes]]:
    """Slice the mask blob and the chunk streams that follow a header.

    The declared sizes must account for every remaining byte: a short
    payload is truncated, a long one carries trailing garbage.
    """
    if mask_nbytes > len(payload) - pos:
        raise StreamFormatError(
            f"{what} declares a {mask_nbytes}-byte mask but only "
            f"{len(payload) - pos} bytes remain"
        )
    mask_blob = payload[pos : pos + mask_nbytes] if mask_nbytes else None
    pos += mask_nbytes
    declared = sum(int(s) for s in sizes)
    if declared > len(payload) - pos:
        raise StreamFormatError(
            f"{what} truncated: sections declare {declared} bytes but "
            f"only {len(payload) - pos} remain"
        )
    if declared < len(payload) - pos:
        raise StreamFormatError(
            f"{len(payload) - pos - declared} trailing bytes after the "
            "last chunk stream"
        )
    streams = []
    for size in sizes:
        streams.append(payload[pos : pos + size])
        pos += size
    return mask_blob, streams


def build_container(
    rank: int,
    dtype: np.dtype,
    mode_code: int,
    shape: tuple[int, ...],
    chunks: list[Chunk],
    streams: list[bytes],
    *,
    codec_tags: "np.ndarray | tuple[int, ...] | None" = None,
    mask_blob: bytes | None = None,
) -> bytes:
    """Assemble a :data:`CONTAINER_VERSION` payload from its parts
    (inverse of parsing).

    ``codec_tags`` defaults to every chunk sperr and ``mask_blob`` (an
    :func:`repro.core.mask.encode_mask` record) to no mask; both fields
    are written either way.
    """
    if codec_tags is None:
        codec_tags = [CODEC_SPERR] * len(chunks)
    tags = [int(t) for t in codec_tags]
    if len(tags) != len(chunks):
        raise InvalidArgumentError(f"{len(tags)} codec tags for {len(chunks)} chunks")
    if any(t not in CODEC_NAMES for t in tags):
        raise InvalidArgumentError(f"unknown codec tag in {tags}")
    mask = mask_blob or b""
    head = bytearray(_MAGIC_BY_VERSION[CONTAINER_VERSION])
    head += struct.pack("<BBBB", rank, _DTYPES[np.dtype(dtype)], mode_code, 1)
    head += b"\x00\x00\x00\x00"  # header CRC, patched below
    head += struct.pack(f"<{rank}Q", *shape)
    head += struct.pack("<I", len(chunks))
    for chunk in chunks:
        for a, b in chunk.bounds:
            head += struct.pack("<QQ", a, b)
    for s in streams:
        head += struct.pack("<Q", len(s))
    for s in streams:
        head += struct.pack("<I", zlib.crc32(s))
    head += struct.pack(f"<{len(tags)}B", *tags)
    head += struct.pack("<QI", len(mask), zlib.crc32(mask))
    struct.pack_into("<I", head, _HEADER_CRC_OFFSET, zlib.crc32(bytes(head)))
    return bytes(head) + mask + b"".join(streams)


@dataclass(frozen=True)
class ChunkDecodeStatus:
    """Outcome of decoding one chunk: ``ok``, ``crc_mismatch``, or
    ``decode_error`` (with a one-line exception summary)."""

    index: int
    status: str
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class DecodeReport:
    """Structured account of one container decode.

    Produced by salvage-mode :func:`decompress`; lists per-chunk status,
    which chunks failed CRC verification, and any process-pool degradations
    (timeouts, broken pools) that were absorbed along the way.
    """

    format_version: int
    chunk_status: list[ChunkDecodeStatus] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @classmethod
    def from_failures(
        cls,
        format_version: int,
        indices,
        failures: dict[int, tuple[str, str]],
        notes: list[str],
    ) -> "DecodeReport":
        """Report every index in ``indices``: ``failures`` maps a failed
        one to its ``(status, error)``, the rest decoded."""
        return cls(
            format_version=format_version,
            chunk_status=[
                ChunkDecodeStatus(i, *failures.get(i, ("ok", None)))
                for i in indices
            ],
            notes=list(notes),
        )

    @property
    def n_chunks(self) -> int:
        return len(self.chunk_status)

    @property
    def failed_chunks(self) -> list[int]:
        """Indices of chunks that did not decode (CRC or decode failure)."""
        return [s.index for s in self.chunk_status if not s.ok]

    @property
    def crc_mismatches(self) -> list[int]:
        """Indices of chunks whose stored CRC32 did not match."""
        return [s.index for s in self.chunk_status if s.status == "crc_mismatch"]

    @property
    def ok(self) -> bool:
        """True when every chunk decoded and no degradation occurred."""
        return not self.failed_chunks

    def summary(self) -> str:
        """One-line human-readable digest (used by the CLI)."""
        if self.ok:
            return f"all {self.n_chunks} chunks decoded (format v{self.format_version})"
        return (
            f"{self.n_chunks - len(self.failed_chunks)}/{self.n_chunks} chunks "
            f"decoded; failed chunks {self.failed_chunks} "
            f"(CRC mismatches {self.crc_mismatches})"
        )


@dataclass
class DecodeResult:
    """Salvage-mode decode output: the reconstructed volume (failed chunks
    filled with ``fill_value``) plus the :class:`DecodeReport`.

    Behaves like its array in numpy expressions via ``__array__``.
    """

    data: np.ndarray
    report: DecodeReport

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.data.astype(dtype)
        return self.data

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype


def decompress(
    payload: bytes,
    *,
    workers: int | None = None,
    on_error: str = "raise",
    fill_value: float = float("nan"),
    timeout: float | None = None,
) -> np.ndarray | DecodeResult:
    """Decompress a container produced by :func:`compress`.

    ``on_error="raise"`` (default) verifies every chunk CRC (v2 on) and
    raises on the first damaged chunk, returning the bare array on
    success.  ``on_error="salvage"`` decodes every intact chunk, fills
    damaged ones with ``fill_value`` (default NaN), and returns a
    :class:`DecodeResult` carrying the array and a :class:`DecodeReport` —
    per-chunk independence as a fault-isolation boundary.  ``timeout``
    bounds each pool task (a contiguous group of chunks) in seconds; an
    expired or broken pool degrades to serial for the affected groups and
    is recorded in the report rather than raised.  ``workers`` works as
    in :func:`compress`, the size rule of ``workers=None`` counting the
    decoded volume's bytes; each task writes its chunks into one
    shared-memory buffer instead of sending arrays back through a pipe.
    The retired baseline wrapper framings decode here too, through
    :mod:`repro.core.legacy`.
    """
    if on_error not in ("raise", "salvage"):
        raise InvalidArgumentError(
            f"on_error must be 'raise' or 'salvage', got {on_error!r}"
        )
    with obs.span("sperr.decompress", nbytes=len(payload), mode=on_error):
        with obs.span("container.parse"):
            if bytes(payload[:8]) in _VERSION_BY_MAGIC:
                parsed = parse_container(payload)
            else:
                from .legacy import parse_legacy

                parsed = parse_legacy(payload)
        n = len(parsed.streams)
        crcs = parsed.chunk_crcs or (None,) * n
        salvage = on_error == "salvage"
        nbytes = math.prod(parsed.shape) * parsed.dtype.itemsize
        parts, failures, notes = decode_chunks(
            [
                (i, stream, chunk.shape, tag, crc, 0)
                for i, (stream, chunk, tag, crc) in enumerate(
                    zip(parsed.streams, parsed.chunks, parsed.codec_tags, crcs)
                )
            ],
            parsed.rank,
            salvage=salvage,
            workers=resolve_workers(workers, nbytes, n),
            timeout=timeout,
        )
        with obs.span("container.assemble"):
            out = parsed.grid.tile(
                tuple((0, n) for n in parsed.shape), parts, fill_value=fill_value
            )
        # Damaged (salvaged or fuzzed) chunks can decode to float64
        # values beyond float32's range; they cast to inf, silently.
        with np.errstate(over="ignore"):
            out = out.astype(parsed.dtype, copy=False)
        report = None
        if salvage:
            report = DecodeReport.from_failures(
                parsed.format_version, range(n), failures, notes
            )
        _restore_mask(out, parsed, report)
        return out if report is None else DecodeResult(data=out, report=report)


def _restore_mask(
    out: np.ndarray, parsed: ParsedContainer, report: DecodeReport | None = None
) -> None:
    """Re-impose a payload's NaN/±Inf pattern onto the decoded volume.

    In strict mode (``report=None``) a damaged mask raises; in salvage
    mode the damage is recorded as a report note and the decode proceeds
    without the mask (the fill values are legitimate in-range data, so
    nothing unflagged leaks out).
    """
    if parsed.mask_blob is None:
        return
    try:
        if (
            parsed.mask_crc is not None
            and zlib.crc32(parsed.mask_blob) != parsed.mask_crc
        ):
            raise IntegrityError("container mask CRC mismatch")
        apply_mask(out, decode_mask(parsed.mask_blob, out.size))
    except (IntegrityError, StreamFormatError) as exc:
        if report is None:
            raise
        report.notes.append(f"mask section unrecoverable: {exc}")
