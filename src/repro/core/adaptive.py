"""Per-chunk codec dispatch for the adaptive compression tier.

SZ3's thesis (PAPERS.md) is that error-bounded compressors should be
*composable pipelines selected per data characteristics*; SZx shows an
ultra-fast block codec covers much of the workload at modest ratio cost.
This module is the routing brain between them: given a chunk and a PWE
bound, decide — from a cheap sample, before any real compression work —
whether the chunk goes to the ``szx`` fast tier, the ``sperr`` quality
tier, or verbatim ``stored`` bytes.

Every codec in the mix honors the same point-wise error bound (szx by
verify-and-demote, sperr by construction, stored trivially), so routing
only ever trades *ratio against throughput*, never correctness.  The
chosen tag is recorded per chunk in the container chunk table
(:mod:`repro.core.container` format v4), which makes mixed-codec
payloads self-describing on decode.

Routing proxies (both from one strided sample of at most
:data:`_SAMPLE_RUNS` × :data:`_RUN_LEN` contiguous points):

* **first-difference width** — the bit width of the typical first
  difference measured in quantization steps ``2t``.  Smooth fields have
  tiny local increments relative to the bound, so their szx residual
  planes are shallow and the fast tier compresses well; wide increments
  mean szx would spend near-raw bits and sperr's wavelet machinery earns
  its latency; increments beyond the szx plane coder entirely mean the
  chunk is noise at this bound and even sperr returns ratio ≈ 1, so
  storing raw bytes is strictly faster at the same size.
* **unique-value density** — fraction of distinct values in the sample.
  Quantized, masked-fill, or constant regions repeat values heavily and
  are szx's best case regardless of their gradient.
"""

from __future__ import annotations

import struct
from functools import lru_cache

import numpy as np

from .. import obs
from ..errors import (
    InvalidArgumentError,
    StreamFormatError,
    checked_shape,
    decode_guard,
)
from .modes import PweMode

__all__ = [
    "CODEC_SPERR",
    "CODEC_SZX",
    "CODEC_STORED",
    "CODEC_SZ",
    "CODEC_ZFP",
    "CODEC_TTHRESH",
    "CODEC_MGARD",
    "CODEC_NAMES",
    "BASELINE_TAGS",
    "CODEC_POLICIES",
    "chunk_proxies",
    "choose_codecs",
    "encode_stored_chunk",
    "decode_stored_chunk",
    "STORED_MAGIC",
]

#: Chunk-table codec tags (container format v4; store index v3 holds 0-2).
CODEC_SPERR = 0
CODEC_SZX = 1
CODEC_STORED = 2
#: Baseline codecs: each chunk stream is the registry codec's own payload
#: (:data:`repro.compressors.ALL_COMPRESSORS`), written by
#: ``compress(..., codec=<registry name>)``.
CODEC_SZ = 3
CODEC_ZFP = 4
CODEC_TTHRESH = 5
CODEC_MGARD = 6

CODEC_NAMES = {
    CODEC_SPERR: "sperr",
    CODEC_SZX: "szx",
    CODEC_STORED: "stored",
    CODEC_SZ: "sz-like",
    CODEC_ZFP: "zfp-like",
    CODEC_TTHRESH: "tthresh-like",
    CODEC_MGARD: "mgard-like",
}

#: Registry name -> tag for the baseline codecs (``compress(codec=...)``).
BASELINE_TAGS = {
    CODEC_NAMES[t]: t for t in (CODEC_SZ, CODEC_ZFP, CODEC_TTHRESH, CODEC_MGARD)
}

#: The ``codec=`` policies accepted by ``compress()``/CLI/service/store.
#: ``compress()`` also takes a :data:`BASELINE_TAGS` name.
CODEC_POLICIES = ("quality", "fast", "adaptive")

#: Sampling geometry: up to 16 contiguous runs of 256 points spread
#: across the flattened chunk, so first differences reflect in-block
#: behaviour rather than stride-sized jumps.
_SAMPLE_RUNS = 16
_RUN_LEN = 256

#: Adaptive routing thresholds on the first-difference width proxy.
#: ``<= _SZX_WIDTH`` routes fast (szx planes stay shallow enough that
#: the ratio loss vs sperr is modest); ``>= _STORED_WIDTH`` routes to
#: verbatim bytes (even szx's raw-block escape — planes wider than
#: ``szxlike.blocks.MAX_WIDTH`` (30) — would trigger, and sperr gains
#: nothing on bound-relative noise this wide); in between, sperr.
#: core must not import repro.compressors at module scope (sperr.py
#: imports back into core), so the 30 is restated here; a unit test
#: pins the two constants together.
_SZX_WIDTH = 12
_STORED_WIDTH = 30 + 10

#: Unique-value density below which a chunk routes fast regardless of
#: its gradients (repeated/quantized/filled regions are szx's best case).
_LOW_UNIQUE_DENSITY = 0.02

STORED_MAGIC = b"RAW1"

#: Stored-chunk prologue: magic, version, rank, reserved.
_STORED_HEAD = struct.Struct("<4sBBH")


def _sample(data: np.ndarray) -> np.ndarray:
    """The proxies' sample of one chunk as float64 rows: the whole
    flattened chunk when it is small, else :data:`_SAMPLE_RUNS` evenly
    spread runs of :data:`_RUN_LEN` contiguous points.  Only the rows
    (last-axis lines) the runs cross are read."""
    data = np.asarray(data)
    n = data.size
    if n == 0:
        raise InvalidArgumentError("cannot sample an empty chunk")
    if n <= _SAMPLE_RUNS * _RUN_LEN:
        return np.asarray(data, dtype=np.float64).reshape(1, n)
    rows, pick = _sample_index(data.shape)
    return data[rows].reshape(-1)[pick].astype(np.float64)


@lru_cache(maxsize=32)
def _sample_index(shape: tuple[int, ...]) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Read-only index of the sampled points of a chunk of ``shape``:
    :data:`_SAMPLE_RUNS` evenly spread runs of :data:`_RUN_LEN`
    consecutive points in C order.

    Returns ``(rows, pick)``: the leading-axes index of every row the
    runs cross, ascending, and each sampled point's flat position in
    those rows laid end to end.  Gathering whole rows and then picking
    reads the same values as a per-point multi-index, in row-long
    copies instead of one index computation per point.  Depends on the
    shape alone, so it is cached per shape.
    """
    n = int(np.prod(shape))
    line = shape[-1]
    starts = np.linspace(0, n - _RUN_LEN, _SAMPLE_RUNS, dtype=np.int64)
    flat = starts[:, None] + np.arange(_RUN_LEN)
    lines, slot = np.unique(flat // line, return_inverse=True)
    rows = np.unravel_index(lines, shape[:-1]) if len(shape) > 1 else ()
    pick = slot.reshape(flat.shape) * line + flat % line
    for index in (*rows, pick):
        index.setflags(write=False)
    return rows, pick


def _grouped_diffs(samples: list[np.ndarray]):
    """Yield ``(members, diffs)`` per sample shape: the indices of the
    samples of that shape and their absolute first differences, one row
    per member.  Single-point samples have no first difference and are
    left out."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, sample in enumerate(samples):
        groups.setdefault(sample.shape, []).append(i)
    for shape, members in groups.items():
        if shape[-1] < 2:
            continue
        with np.errstate(over="ignore"):  # an inf difference routes stored
            diffs = np.abs(np.diff(np.stack([samples[i] for i in members]), axis=-1))
        yield members, diffs.reshape(len(members), -1)


def _widths_of(scales: np.ndarray, tolerance: float) -> list[int]:
    """Bit width of each first-difference scale in ``2 * tolerance``
    steps; a scale whose step count overflows is :data:`_STORED_WIDTH`."""
    if not np.isfinite(tolerance) or tolerance <= 0.0:
        raise InvalidArgumentError(f"tolerance must be positive, got {tolerance}")
    widths = []
    with np.errstate(over="ignore"):
        steps = np.asarray(scales, dtype=np.float64) / (2.0 * tolerance)
    for step in steps:
        if not np.isfinite(step):
            widths.append(_STORED_WIDTH)
        else:
            widths.append(int(max(0.0, np.ceil(step))).bit_length())
    return widths


def _diff_widths(samples: list[np.ndarray], tolerance: float) -> list[int]:
    """First-difference width proxy of every sample.

    Samples of one shape share one stacked percentile call; each row's
    result is the value a per-sample call returns.
    """
    scales = np.zeros(len(samples))
    for members, diffs in _grouped_diffs(samples):
        scales[members] = np.percentile(diffs, 95.0, axis=1)
    return _widths_of(scales, tolerance)


def _max_diff_width(samples: list[np.ndarray], tolerance: float) -> int:
    """Width of the largest first difference over all samples.

    The 95th percentile of a sample's differences never exceeds their
    maximum and the width is monotone in the scale, so this bounds every
    :func:`_diff_widths` entry from above.
    """
    peaks = [d.max() for _, d in _grouped_diffs(samples)]
    return _widths_of([np.max(peaks, initial=0.0)], tolerance)[0]


def _unique_density(sample: np.ndarray) -> float:
    return float(np.unique(sample).size) / sample.size


def chunk_proxies(data: np.ndarray, tolerance: float) -> tuple[int, float]:
    """Cheap smoothness/entropy proxies for one finite chunk.

    Returns ``(diff_width, unique_density)``: the bit width of the 95th
    percentile first difference measured in ``2 * tolerance`` steps, and
    the fraction of distinct values in the sample.  Cost is O(sample),
    not O(chunk): at most ~4096 points are touched.
    """
    sample = _sample(data)
    return _diff_widths([sample], tolerance)[0], _unique_density(sample)


def choose_codecs(
    chunks: list[np.ndarray], mode, policy: str
) -> np.ndarray:
    """Pick a codec tag for every chunk under the given policy.

    ``quality`` routes everything to sperr (chunk streams byte-identical
    to the pre-adaptive pipeline); ``fast`` routes everything to szx except
    chunks so rough that szx's raw-block escape would fire, which store
    verbatim; ``adaptive`` samples each chunk and picks the cheapest
    tier whose ratio cost is acceptable.  ``fast`` and ``adaptive``
    need a PWE bound — szx has no rate-targeting mode — so any other
    mode is rejected.  A baseline name (:data:`BASELINE_TAGS`) tags
    every chunk with that codec; the codec checks the mode itself.

    The width proxy of every chunk comes from one pass over the
    samples; the unique-value density is computed only for the
    ``adaptive`` chunks whose width alone does not decide the route.
    ``fast`` only asks whether a width reaches :data:`_STORED_WIDTH`,
    so when the samples' largest first difference stays under it every
    chunk routes to szx without the percentile pass.

    Returns a ``uint8`` array of tags, one per chunk, and records one
    ``adaptive.route.<codec>`` counter per sampled decision on the
    active trace.
    """
    if policy in BASELINE_TAGS:
        return np.full(len(chunks), BASELINE_TAGS[policy], dtype=np.uint8)
    if policy not in CODEC_POLICIES:
        raise InvalidArgumentError(
            f"codec must be one of {CODEC_POLICIES + tuple(BASELINE_TAGS)}, "
            f"got {policy!r}"
        )
    tags = np.full(len(chunks), CODEC_SPERR, dtype=np.uint8)
    if policy == "quality":
        return tags
    if not isinstance(mode, PweMode):
        raise InvalidArgumentError(
            f"codec={policy!r} needs a point-wise error bound (PweMode); "
            f"got {type(mode).__name__}"
        )
    with obs.span("adaptive.dispatch", policy=policy, n_chunks=len(chunks)):
        samples = [_sample(chunk) for chunk in chunks]
        tolerance = mode.tolerance
        if policy == "fast" and _max_diff_width(samples, tolerance) < _STORED_WIDTH:
            tags[:] = CODEC_SZX
            obs.add_counter("adaptive.route.szx", len(chunks))
            return tags
        widths = _diff_widths(samples, tolerance)
        for i, (sample, width) in enumerate(zip(samples, widths)):
            if width >= _STORED_WIDTH:
                tag = CODEC_STORED
            elif policy == "fast" or width <= _SZX_WIDTH:
                tag = CODEC_SZX
            elif _unique_density(sample) <= _LOW_UNIQUE_DENSITY:
                tag = CODEC_SZX
            else:
                tag = CODEC_SPERR
            tags[i] = tag
            obs.add_counter(f"adaptive.route.{CODEC_NAMES[tag]}")
    return tags


def encode_stored_chunk(data: np.ndarray) -> bytes:
    """Frame one finite chunk as verbatim little-endian float64 bytes."""
    data = np.ascontiguousarray(data, dtype=np.float64)
    if data.ndim < 1 or data.ndim > 3:
        raise InvalidArgumentError("stored chunks must be 1-D to 3-D")
    if data.size == 0:
        raise InvalidArgumentError("cannot store an empty chunk")
    head = _STORED_HEAD.pack(STORED_MAGIC, 1, data.ndim, 0)
    head += struct.pack(f"<{data.ndim}Q", *data.shape)
    return head + data.astype("<f8").tobytes()


def decode_stored_chunk(
    stream: bytes, expected_shape: tuple[int, ...] | None = None
) -> np.ndarray:
    """Decode a ``RAW1`` stored-chunk stream back to a float64 array."""
    with decode_guard("stored"):
        if stream[:4] != STORED_MAGIC:
            raise StreamFormatError("not a stored chunk stream")
        _magic, version, rank, _reserved = _STORED_HEAD.unpack_from(stream, 0)
        if version != 1:
            raise StreamFormatError(f"unknown stored chunk version {version}")
        if rank < 1 or rank > 3:
            raise StreamFormatError(f"stored chunk declares rank {rank}")
        pos = _STORED_HEAD.size
        shape = struct.unpack_from(f"<{rank}Q", stream, pos)
        pos += 8 * rank
        shape = checked_shape(shape, "stored")
        if expected_shape is not None and tuple(expected_shape) != shape:
            raise StreamFormatError(
                f"stored chunk declares shape {shape}, table says "
                f"{tuple(expected_shape)}"
            )
        n = int(np.prod(shape))
        if len(stream) != pos + 8 * n:
            raise StreamFormatError(
                f"stored chunk has {len(stream) - pos} payload bytes for "
                f"{n} samples"
            )
        return (
            np.frombuffer(stream, dtype="<f8", count=n, offset=pos)
            .reshape(shape)
            .astype(np.float64)
        )
