"""Outlier coding (paper Sec. IV, Listings 1-3).

The outlier coder records ``(pos, corr)`` tuples so a decoder can correct
every reconstructed point whose error exceeds the PWE tolerance ``t``.  It
is "SPECK-inspired" in the strongest sense: with correction values
scattered into a dense 1-D array and quantized with step ``t``, the
algorithm of Listings 1-3 *is* the 1-D binary-partition instance of the
SPECK codec (:func:`repro.speck.codec.encode` and
:func:`~repro.speck.codec.decode_lsp`):

* the threshold schedule ``thrd = 2^n * t`` (Listing 1, line 4-6) is the
  bitplane schedule on integer magnitudes ``floor(|corr| / t)``;
* ``SortingPass`` (Listing 2) is the set-partitioning sorting pass with
  binary splits (1-D sets divide into two halves);
* ``RefinementPass`` (Listing 3) is mid-riser bitplane refinement — its
  decoder rules (lines 5, 7, 12) reproduce exactly the
  centered-in-interval reconstruction of the SPECK refinement machinery;
* termination at ``thrd = t`` guarantees every coded correction deviates
  from the truth by at most ``t/2``, satisfying the tolerance.

Inliers appear as zero-valued points of the dense array and fall in the
dead zone — they are never coded individually, only crossed during set
significance tests, which is what makes the amortized cost per outlier
land in the 6-16 bit range the paper measures (Fig. 4).

The input is flattened to 1-D per the paper's linearization choice
(Sec. IV-C): outlier positions carry essentially no spatial correlation,
so higher-dimensional partitioning buys nothing (Fig. 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidArgumentError
from ..obs import span
from ..quant import integerize
from ..speck.codec import decode_lsp, encode

__all__ = [
    "OutlierCoder",
    "encode_outliers",
    "encode_outliers_batch",
    "decode_outliers",
]


@dataclass(frozen=True)
class OutlierEncoding:
    """Result of encoding an outlier list."""

    stream: bytes
    nbits: int
    n_outliers: int

    @property
    def bits_per_outlier(self) -> float:
        """Amortized coding cost (Fig. 4 / Fig. 11 metric)."""
        return self.nbits / self.n_outliers if self.n_outliers else 0.0


class OutlierCoder:
    """Encoder/decoder for outlier ``(pos, corr)`` tuples over a length-N domain."""

    def __init__(self, n: int, tolerance: float) -> None:
        if n < 1:
            raise InvalidArgumentError("domain length must be positive")
        if not np.isfinite(tolerance) or tolerance <= 0:
            raise InvalidArgumentError("PWE tolerance must be positive")
        self.n = int(n)
        self.tolerance = float(tolerance)

    def encode(self, positions: np.ndarray, corrections: np.ndarray) -> OutlierEncoding:
        """Encode outliers; corrections are the exact errors ``x - x̃``."""
        positions = np.asarray(positions, dtype=np.int64).reshape(-1)
        corrections = np.asarray(corrections, dtype=np.float64).reshape(-1)
        if positions.size != corrections.size:
            raise InvalidArgumentError("positions and corrections must pair up")
        if positions.size and (positions.min() < 0 or positions.max() >= self.n):
            raise InvalidArgumentError("outlier position out of range")
        if np.unique(positions).size != positions.size:
            raise InvalidArgumentError("duplicate outlier positions")
        return encode_outliers_batch(
            np.zeros(positions.size, dtype=np.int64),
            positions,
            corrections,
            1,
            self.n,
            self.tolerance,
        )[0]

    def decode(self, stream: bytes, nbits: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Decode to ``(positions, corrections)``; corrections are the
        quantized approximations with ``|corr - ĉorr| <= t/2``."""
        positions, values = self._decode_unordered(stream, nbits)
        order = np.argsort(positions)
        return positions[order], values[order]

    def _decode_unordered(
        self, stream: bytes, nbits: int | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Corrections in SPECK discovery order, padding positions dropped."""
        positions, rec, negative = decode_lsp(stream, (self.n,), nbits=nbits)
        values = np.where(negative, -self.tolerance, self.tolerance)
        values *= rec
        inside = positions < self.n
        if not inside.all():
            positions, values = positions[inside], values[inside]
        return positions, values

    def apply(self, reconstruction: np.ndarray, stream: bytes, nbits: int | None = None) -> None:
        """Add decoded corrections to a flattened reconstruction in place."""
        flat = reconstruction.reshape(-1)
        if flat.size != self.n:
            raise InvalidArgumentError("reconstruction length mismatch")
        with span("outlier.apply") as sp:
            positions, corrections = self._decode_unordered(stream, nbits)
            flat[positions] += corrections
            sp.set(n_outliers=int(positions.size))


def encode_outliers(
    positions: np.ndarray, corrections: np.ndarray, n: int, tolerance: float
) -> OutlierEncoding:
    """One-shot outlier encoding (see :class:`OutlierCoder`)."""
    return OutlierCoder(n, tolerance).encode(positions, corrections)


def encode_outliers_batch(
    lanes: np.ndarray,
    positions: np.ndarray,
    corrections: np.ndarray,
    n_lanes: int,
    n: int,
    tolerance: float,
) -> list[OutlierEncoding]:
    """Encode the outliers of ``n_lanes`` length-``n`` domains, one SPECK
    stream per lane.

    Outlier ``i`` sits at ``positions[i]`` of lane ``lanes[i]``; every
    lane gets a stream, including lanes without outliers.  Only the
    sparse corrections are quantized before being scattered into the
    dense ``(n_lanes, n)`` magnitudes: quantizing the implicit zeros is
    a no-op, so this equals quantizing the dense array while skipping
    four full-domain float passes.
    """
    with span("outlier.encode", n_outliers=int(positions.size), lanes=n_lanes):
        mags, negative = integerize(corrections, tolerance)
        dense_mags = np.zeros((n_lanes, n), dtype=np.uint64)
        dense_neg = np.zeros((n_lanes, n), dtype=bool)
        dense_mags[lanes, positions] = mags
        dense_neg[lanes, positions] = negative
        encoded = [encode(m, s) for m, s in zip(dense_mags, dense_neg)]
    counts = np.bincount(lanes, minlength=n_lanes)
    return [
        OutlierEncoding(stream=stream, nbits=nbits, n_outliers=int(count))
        for (stream, nbits, _), count in zip(encoded, counts)
    ]


def decode_outliers(
    stream: bytes, n: int, tolerance: float, nbits: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """One-shot outlier decoding (see :class:`OutlierCoder`)."""
    return OutlierCoder(n, tolerance).decode(stream, nbits=nbits)
