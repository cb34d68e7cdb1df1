"""Stream and container headers.

The paper (Sec. V-A) states that SPERR uses a fixed 20-byte header per
stream; that cost is included in every bitrate we report.  We mirror this
with :class:`ChunkHeader`, a packed 20-byte record placed at the front of
every per-chunk stream.  Floating-point codec parameters that do not fit
in 20 bytes (quantization step ``q``, tolerance ``t``) travel in the
variable-size :class:`ChunkParams` record immediately after, exactly as
real SPERR carries its "conditioner" block.

The header's version byte names the wavelet coefficient layout of the
stream: version 2 (written) is the dyadic decomposition, version 1
(read-only) the tensor-product layout of older streams; see
:mod:`repro.wavelets.dwt`.

The multi-chunk *container* format used by :func:`repro.compress` is
described in :mod:`repro.core.container`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..errors import AllocationLimitError, StreamFormatError

__all__ = [
    "ChunkHeader",
    "ChunkParams",
    "HEADER_SIZE",
    "MAGIC",
    "MAX_CHUNK_POINTS",
    "READABLE_VERSIONS",
    "VERSION",
]

MAGIC = b"SP"
#: Version every writer stamps: dyadic wavelet layout.
VERSION = 2
#: Versions the decoder accepts; 1 (tensor-product layout) is read-only.
READABLE_VERSIONS = (1, 2)

#: Fixed header size in bytes, matching the paper's stated 20-byte header.
HEADER_SIZE = 20

#: Decode-side cap on points per chunk.  A header's shape fields are
#: untrusted input; caps keep a forged ``nx/ny/nz`` from requesting a
#: multi-terabyte ``np.zeros`` before any payload byte is validated.
#: 2**28 points (2 GiB as float64) is ~16x the paper's largest chunk.
MAX_CHUNK_POINTS = 1 << 28

_HEADER_FMT = "<2sBBIIII"  # magic, version, flags, nx, ny, nz, speck_nbytes
assert struct.calcsize(_HEADER_FMT) == HEADER_SIZE

_FLAG_DOUBLE = 1 << 0
_FLAG_PWE_MODE = 1 << 1
_FLAG_HAS_OUTLIERS = 1 << 2
_FLAG_LOSSLESS = 1 << 3


@dataclass(frozen=True)
class ChunkHeader:
    """Fixed 20-byte header for one compressed chunk.

    Attributes
    ----------
    shape:
        Chunk dimensions ``(nx, ny, nz)``; trailing dimensions of size 1
        encode lower-dimensional inputs (a 2-D slice has ``nz == 1``).
    speck_nbytes:
        Byte length of the SPECK coefficient section that follows the
        parameter block.
    is_double / pwe_mode / has_outliers / lossless:
        Format flags (input precision, termination criterion, whether an
        outlier-correction section is present, whether the payload went
        through the lossless backend).
    version:
        Wavelet layout of the coefficients (:data:`READABLE_VERSIONS`).
        New streams take :data:`VERSION`; a rewrite of an existing
        stream keeps the version it read.
    """

    shape: tuple[int, int, int]
    speck_nbytes: int
    is_double: bool = False
    pwe_mode: bool = True
    has_outliers: bool = False
    lossless: bool = False
    version: int = VERSION

    def pack(self) -> bytes:
        """Serialize to exactly :data:`HEADER_SIZE` bytes."""
        flags = (
            (_FLAG_DOUBLE if self.is_double else 0)
            | (_FLAG_PWE_MODE if self.pwe_mode else 0)
            | (_FLAG_HAS_OUTLIERS if self.has_outliers else 0)
            | (_FLAG_LOSSLESS if self.lossless else 0)
        )
        nx, ny, nz = self.shape
        return struct.pack(_HEADER_FMT, MAGIC, self.version, flags, nx, ny, nz, self.speck_nbytes)

    @classmethod
    def unpack(cls, data: bytes) -> "ChunkHeader":
        """Parse a header from the first :data:`HEADER_SIZE` bytes of ``data``."""
        if len(data) < HEADER_SIZE:
            raise StreamFormatError(
                f"stream too short for header: {len(data)} < {HEADER_SIZE} bytes"
            )
        magic, version, flags, nx, ny, nz, speck_nbytes = struct.unpack(
            _HEADER_FMT, data[:HEADER_SIZE]
        )
        if magic != MAGIC:
            raise StreamFormatError(f"bad magic {magic!r}; not a SPERR stream")
        if version not in READABLE_VERSIONS:
            raise StreamFormatError(f"unsupported stream version {version}")
        if nx < 1 or ny < 1 or nz < 1:
            raise StreamFormatError(f"invalid chunk shape ({nx}, {ny}, {nz})")
        if nx * ny * nz > MAX_CHUNK_POINTS:
            raise AllocationLimitError(
                f"chunk shape ({nx}, {ny}, {nz}) exceeds the "
                f"{MAX_CHUNK_POINTS}-point decode cap"
            )
        return cls(
            shape=(nx, ny, nz),
            speck_nbytes=speck_nbytes,
            is_double=bool(flags & _FLAG_DOUBLE),
            pwe_mode=bool(flags & _FLAG_PWE_MODE),
            has_outliers=bool(flags & _FLAG_HAS_OUTLIERS),
            lossless=bool(flags & _FLAG_LOSSLESS),
            version=version,
        )


_PARAMS_FMT = "<ddQQQBB"  # q, tolerance, speck_nbits, outlier_nbits, outlier_nbytes, wavelet_id, levels

#: wavelet name <-> stream id mapping
WAVELET_IDS = {"cdf97": 0, "cdf53": 1, "haar": 2}
WAVELET_NAMES = {v: k for k, v in WAVELET_IDS.items()}

#: sentinel for "levels chosen by the paper's rule"
LEVELS_AUTO = 255


@dataclass(frozen=True)
class ChunkParams:
    """Variable ("conditioner") parameter block following the fixed header."""

    q: float
    tolerance: float
    speck_nbits: int
    outlier_nbits: int
    outlier_nbytes: int
    wavelet: str = "cdf97"
    levels: int | None = None

    SIZE = struct.calcsize(_PARAMS_FMT)

    def pack(self) -> bytes:
        """Serialize to exactly :attr:`SIZE` bytes."""
        return struct.pack(
            _PARAMS_FMT,
            self.q,
            self.tolerance,
            self.speck_nbits,
            self.outlier_nbits,
            self.outlier_nbytes,
            WAVELET_IDS[self.wavelet],
            LEVELS_AUTO if self.levels is None else self.levels,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "ChunkParams":
        """Parse the parameter block from the first :attr:`SIZE` bytes."""
        if len(data) < cls.SIZE:
            raise StreamFormatError("stream too short for parameter block")
        q, tol, nbits, onbits, onbytes, wid, levels = struct.unpack(
            _PARAMS_FMT, data[: cls.SIZE]
        )
        if wid not in WAVELET_NAMES:
            raise StreamFormatError(f"unknown wavelet id {wid}")
        return cls(
            q=q,
            tolerance=tol,
            speck_nbits=nbits,
            outlier_nbits=onbits,
            outlier_nbytes=onbytes,
            wavelet=WAVELET_NAMES[wid],
            levels=None if levels == LEVELS_AUTO else levels,
        )
