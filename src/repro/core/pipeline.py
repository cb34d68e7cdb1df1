"""Per-chunk SPERR compression pipeline.

The four stages of paper Sec. V-C:

1. forward wavelet transform of the chunk;
2. SPECK coding of the coefficients (quantization step ``q = 1.5 t`` in
   PWE mode, or bit-budget truncation in size mode);
3. locating outliers — an inverse transform of the coded coefficients
   plus a comparison with the original input;
4. coding the located outliers with the SPECK-inspired outlier coder.

Stage timings and bit accounting are captured in :class:`ChunkReport`,
which feeds the Fig. 2/4/6 reproductions directly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..bitstream import HEADER_SIZE, ChunkHeader, ChunkParams
from ..errors import InvalidArgumentError, StreamFormatError
from ..obs import add_counter, span
from ..outlier import (
    OutlierCoder,
    OutlierEncoding,
    encode_outliers_batch,
    locate_outliers_batch,
)
from ..speck import SpeckStats, decode_coefficients, encode_coefficients_batch
from ..quant import calibrate_step
from ..wavelets import inverse as dwt_inverse
from ..wavelets.dwt import forward_batch, inverse_batch
from .modes import PsnrMode, PweMode, SizeMode
from .plans import wavelet_plan

__all__ = [
    "ChunkReport",
    "compress_chunk",
    "compress_stack",
    "decompress_chunk",
    "psnr_target_rmse",
]

#: Size-mode quantization: q = max|coefficient| / 2**SIZE_MODE_PLANES, deep
#: enough that any practical bit budget truncates before precision runs out.
SIZE_MODE_PLANES = 40


@dataclass
class ChunkReport:
    """Cost and timing breakdown for one compressed chunk."""

    shape: tuple[int, ...]
    q: float
    tolerance: float
    speck_nbits: int
    outlier_nbits: int
    n_outliers: int
    total_nbytes: int
    #: seconds per stage: transform / speck / locate / outlier_code
    timings: dict[str, float] = field(default_factory=dict)
    speck_stats: SpeckStats | None = None

    @property
    def npoints(self) -> int:
        return int(np.prod(self.shape))

    @property
    def bpp(self) -> float:
        """Total achieved bitrate in bits per point (header included)."""
        return 8.0 * self.total_nbytes / self.npoints

    @property
    def speck_bpp(self) -> float:
        return self.speck_nbits / self.npoints

    @property
    def outlier_bpp(self) -> float:
        return self.outlier_nbits / self.npoints

    @property
    def bits_per_outlier(self) -> float:
        return self.outlier_nbits / self.n_outliers if self.n_outliers else 0.0

    @property
    def outlier_fraction(self) -> float:
        return self.n_outliers / self.npoints


def _shape3(shape: tuple[int, ...]) -> tuple[int, int, int]:
    """Pad a 1/2/3-D shape with trailing 1s for the fixed header."""
    return tuple(list(shape) + [1] * (3 - len(shape)))  # type: ignore[return-value]


def psnr_target_rmse(
    mode: PweMode | SizeMode | PsnrMode, data: np.ndarray
) -> float | None:
    """The RMSE a :class:`PsnrMode` target allows on ``data``; ``None``
    for every other mode.

    PSNR is a property of the whole field, so the container resolves it
    once from the full (sanitized) array and codes every chunk against
    the same RMSE, the way :func:`~repro.core.mask.tighten_pwe_for_dtype`
    resolves a PWE bound once.  A constant field has no range; it falls
    back to ``max(1, |x|)``.
    """
    if not isinstance(mode, PsnrMode):
        return None
    rng = float(data.max()) - float(data.min())
    if rng == 0.0:
        rng = max(1.0, abs(float(data.flat[0])))
    return rng / (10.0 ** (mode.psnr_db / 20.0))


def compress_chunk(
    data: np.ndarray,
    mode: PweMode | SizeMode | PsnrMode,
    *,
    wavelet: str = "cdf97",
    levels: int | None = None,
) -> tuple[bytes, ChunkReport]:
    """Compress one chunk; returns ``(stream, report)``.

    The stream is self-contained: fixed 20-byte header, parameter block,
    SPECK section, optional outlier section.  This is
    :func:`compress_stack` on a stack of one.
    """
    data = np.asarray(data, dtype=np.float64)
    return compress_stack(data[None], mode, wavelet=wavelet, levels=levels)[0]


def compress_stack(
    stack: np.ndarray,
    mode: PweMode | SizeMode | PsnrMode,
    *,
    wavelet: str = "cdf97",
    levels: int | None = None,
    target_rmse: float | None = None,
) -> list[tuple[bytes, ChunkReport]]:
    """Compress a ``(lanes, *shape)`` stack of same-shaped chunks.

    Every stage runs once over the whole stack; lane ``l`` of the result
    is the self-contained stream of chunk ``stack[l]``, independent of
    the other lanes.  In PSNR mode every lane is calibrated against
    ``target_rmse`` (default: resolved from the whole stack, see
    :func:`psnr_target_rmse`).
    """
    stack = np.asarray(stack, dtype=np.float64)
    n_lanes = stack.shape[0]
    shape = stack.shape[1:]
    if len(shape) < 1 or len(shape) > 3:
        raise InvalidArgumentError("chunks must be 1-D, 2-D, or 3-D")
    if not np.all(np.isfinite(stack)):
        raise InvalidArgumentError("input contains NaN or Inf")
    chunk_size = int(np.prod(shape))

    with span("chunk.compress", shape=shape, lanes=n_lanes):
        t0 = time.perf_counter()
        with span("wavelet.forward", wavelet=wavelet, lanes=n_lanes):
            plan = wavelet_plan(shape, wavelet=wavelet, levels=levels)
            coeffs = forward_batch(stack, plan)
        t1 = time.perf_counter()

        tolerance = 0.0
        max_bits = None
        if isinstance(mode, PweMode):
            q = np.full(n_lanes, mode.q)
            tolerance = mode.tolerance
        elif isinstance(mode, PsnrMode):
            # Sec. VII average-error mode: near-orthogonality of CDF 9/7
            # equates coefficient-domain and data-domain RMS error, so the
            # step is calibrated on each lane's coefficients directly — no
            # inverse transform, no outlier pass.
            if target_rmse is None:
                target_rmse = psnr_target_rmse(mode, stack)
            q = np.array([calibrate_step(c, target_rmse, margin=0.8) for c in coeffs])
        else:
            max_abs = np.abs(coeffs).reshape(n_lanes, -1).max(axis=1)
            q = np.where(max_abs > 0, max_abs / float(2**SIZE_MODE_PLANES), 1.0)
            overhead_bits = 8 * (HEADER_SIZE + ChunkParams.SIZE)
            max_bits = max(64, int(mode.bpp * chunk_size) - overhead_bits)

        encoded, coeff_recon = encode_coefficients_batch(coeffs, q, max_bits=max_bits)
        t2 = time.perf_counter()

        outliers = [OutlierEncoding(b"", 0, 0)] * n_lanes
        t3 = t4 = t2
        if isinstance(mode, PweMode):
            with span("wavelet.inverse", wavelet=wavelet, lanes=n_lanes):
                recon = inverse_batch(coeff_recon, plan)
            lanes, positions, corrections = locate_outliers_batch(
                stack, recon, tolerance
            )
            t3 = time.perf_counter()
            # Only lanes that have outliers get an outlier section.
            coded, rows = np.unique(lanes, return_inverse=True)
            if coded.size:
                encodings = encode_outliers_batch(
                    rows, positions, corrections, coded.size, chunk_size, tolerance
                )
                for lane, enc in zip(coded, encodings):
                    outliers[lane] = enc
            t4 = time.perf_counter()

        timings = {
            "transform": (t1 - t0) / n_lanes,
            "speck": (t2 - t1) / n_lanes,
            "locate": (t3 - t2) / n_lanes,
            "outlier_code": (t4 - t3) / n_lanes,
        }
        out: list[tuple[bytes, ChunkReport]] = []
        for lane in range(n_lanes):
            speck_stream, speck_nbits, stats = encoded[lane]
            outlier = outliers[lane]
            header = ChunkHeader(
                shape=_shape3(shape),
                speck_nbytes=len(speck_stream),
                is_double=True,  # numpy pipeline runs in float64 throughout
                pwe_mode=isinstance(mode, PweMode),
                has_outliers=outlier.n_outliers > 0,
            )
            params = ChunkParams(
                q=float(q[lane]),
                tolerance=tolerance,
                speck_nbits=speck_nbits,
                outlier_nbits=outlier.nbits,
                outlier_nbytes=len(outlier.stream),
                wavelet=wavelet,
                levels=levels,
            )
            stream = header.pack() + params.pack() + speck_stream + outlier.stream
            add_counter("speck.bits", speck_nbits)
            add_counter("outlier.bits", outlier.nbits)
            add_counter("outlier.count", outlier.n_outliers)
            add_counter("chunk.bytes", len(stream))
            report = ChunkReport(
                shape=shape,
                q=float(q[lane]),
                tolerance=tolerance,
                speck_nbits=speck_nbits,
                outlier_nbits=outlier.nbits,
                n_outliers=outlier.n_outliers,
                total_nbytes=len(stream),
                timings=dict(timings),
                speck_stats=stats,
            )
            out.append((stream, report))
    return out


def decompress_chunk(
    stream: bytes,
    rank: int | None = None,
    expected_shape: tuple[int, ...] | None = None,
) -> np.ndarray:
    """Decompress one chunk stream back to a float64 array.

    ``expected_shape`` cross-checks the untrusted header shape against
    what the caller's framing promised (the container's chunk bounds), so
    a forged or transplanted chunk stream is rejected instead of being
    stitched into the wrong region of the output volume.
    """
    header = ChunkHeader.unpack(stream)
    params = ChunkParams.unpack(stream[HEADER_SIZE:])
    if rank is None:
        rank = 3
        while rank > 1 and header.shape[rank - 1] == 1:
            rank -= 1
    shape = tuple(header.shape[:rank])
    if any(n != 1 for n in header.shape[rank:]):
        raise StreamFormatError(
            f"chunk shape {header.shape} inconsistent with rank {rank}"
        )
    if expected_shape is not None and shape != tuple(expected_shape):
        raise StreamFormatError(
            f"chunk header shape {shape} does not match the container's "
            f"chunk bounds {tuple(expected_shape)}"
        )
    if not np.isfinite(params.q) or params.q < 0:
        raise StreamFormatError(f"invalid quantization step {params.q!r}")
    body = stream[HEADER_SIZE + ChunkParams.SIZE :]
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
    speck_stream = body[: header.speck_nbytes]
    outlier_stream = body[
        header.speck_nbytes : header.speck_nbytes + params.outlier_nbytes
    ]

    with span("chunk.decompress", shape=shape):
        coeffs = decode_coefficients(
            speck_stream, shape, params.q, nbits=params.speck_nbits
        )
        plan = wavelet_plan(shape, wavelet=params.wavelet, levels=params.levels)
        with span("wavelet.inverse", wavelet=params.wavelet):
            recon = dwt_inverse(coeffs, plan)
        if header.has_outliers and outlier_stream:
            coder = OutlierCoder(int(np.prod(shape)), params.tolerance)
            coder.apply(recon, outlier_stream, nbits=params.outlier_nbits)
    return recon
