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


def chunk_proxies(data: np.ndarray, tolerance: float) -> tuple[int, float]:
    """Cheap smoothness/entropy proxies for one finite chunk.

    Returns ``(diff_width, unique_density)``: the bit width of the 95th
    percentile first difference measured in ``2 * tolerance`` steps, and
    the fraction of distinct values in the sample.  Cost is O(sample),
    not O(chunk): at most ~4096 points are touched.
    """
    if not np.isfinite(tolerance) or tolerance <= 0.0:
        raise InvalidArgumentError(f"tolerance must be positive, got {tolerance}")
    flat = np.asarray(data, dtype=np.float64).ravel()
    if flat.size == 0:
        raise InvalidArgumentError("cannot sample an empty chunk")
    if flat.size <= _SAMPLE_RUNS * _RUN_LEN:
        runs = flat[None, :]
    else:
        starts = np.linspace(
            0, flat.size - _RUN_LEN, _SAMPLE_RUNS, dtype=np.int64
        )
        runs = flat[starts[:, None] + np.arange(_RUN_LEN)]
    diffs = np.abs(np.diff(runs, axis=-1))
    if diffs.size:
        scale = float(np.percentile(diffs, 95.0))
    else:
        scale = 0.0
    steps = scale / (2.0 * tolerance)
    if not np.isfinite(steps):
        width = _STORED_WIDTH
    else:
        width = int(max(0.0, np.ceil(steps))).bit_length()
    sample = runs.ravel()
    density = float(np.unique(sample).size) / sample.size
    return width, density


def choose_codecs(
    chunks: list[np.ndarray], mode, policy: str
) -> np.ndarray:
    """Pick a codec tag for every chunk under the given policy.

    ``quality`` routes everything to sperr (byte-identical to the
    pre-adaptive pipeline); ``fast`` routes everything to szx except
    chunks so rough that szx's raw-block escape would fire, which store
    verbatim; ``adaptive`` samples each chunk and picks the cheapest
    tier whose ratio cost is acceptable.  ``fast`` and ``adaptive``
    need a PWE bound — szx has no rate-targeting mode — so any other
    mode is rejected.  A baseline name (:data:`BASELINE_TAGS`) tags
    every chunk with that codec; the codec checks the mode itself.

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
        for i, chunk in enumerate(chunks):
            width, density = chunk_proxies(chunk, mode.tolerance)
            if policy == "fast":
                tag = CODEC_STORED if width >= _STORED_WIDTH else CODEC_SZX
            elif width >= _STORED_WIDTH:
                tag = CODEC_STORED
            elif width <= _SZX_WIDTH or density <= _LOW_UNIQUE_DENSITY:
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
            .astype(np.float64)
            .reshape(shape)
        )
