"""SPERR wrapped in the uniform :class:`Compressor` interface so the
comparison harness can drive it alongside the baselines."""

from __future__ import annotations

import numpy as np

from ..core import compress as core_compress
from ..core import decompress as core_decompress
from ..core.modes import PweMode, SizeMode
from .base import Compressor, Mode

__all__ = ["SperrCompressor"]


class SperrCompressor(Compressor):
    """The paper's compressor: wavelets + SPECK + outlier coding."""

    name = "sperr"
    supported_modes = (PweMode, SizeMode)

    def __init__(
        self,
        chunk_shape: int | tuple[int, ...] | None = None,
        wavelet: str = "cdf97",
        lossless_method: str = "auto",
        workers: int | None = None,
    ) -> None:
        self.chunk_shape = chunk_shape
        self.wavelet = wavelet
        self.lossless_method = lossless_method
        self.workers = workers
        #: per-chunk reports from the most recent :meth:`compress` call
        self.last_reports = []
        #: degradation notes from the most recent :meth:`compress` call
        self.last_notes = []

    def compress(self, data: np.ndarray, mode: Mode) -> bytes:
        """Run the SPERR pipeline; per-chunk reports land in last_reports."""
        self.check_mode(mode)
        result = core_compress(
            data,
            mode,  # type: ignore[arg-type]
            chunk_shape=self.chunk_shape,
            wavelet=self.wavelet,
            lossless_method=self.lossless_method,
            workers=self.workers,
        )
        self.last_reports = result.reports
        self.last_notes = result.notes
        return result.payload

    def decompress(self, payload: bytes) -> np.ndarray:
        """Decompress a SPERR container."""
        return core_decompress(payload, workers=self.workers)
