"""Container format and the top-level compress/decompress API."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import compress, decompress
from repro.core.modes import PweMode, SizeMode
from repro.errors import InvalidArgumentError, StreamFormatError


class TestContainer:
    def test_round_trip_float64(self, smooth_field):
        t = repro.tolerance_from_idx(smooth_field, 15)
        result = compress(smooth_field, PweMode(t))
        recon = decompress(result.payload)
        assert recon.dtype == np.float64
        assert np.abs(recon - smooth_field).max() <= t

    def test_round_trip_float32(self, rng):
        data = rng.standard_normal((24, 24)).astype(np.float32)
        t = repro.tolerance_from_idx(data, 10)
        result = compress(data, PweMode(t))
        recon = decompress(result.payload)
        assert recon.dtype == np.float32
        assert np.abs(recon.astype(np.float64) - data).max() <= t * (1 + 1e-5)

    def test_integer_input_promoted(self):
        data = np.arange(64).reshape(8, 8)
        result = compress(data, PweMode(0.01))
        recon = decompress(result.payload)
        assert np.abs(recon - data).max() <= 0.01

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_all_ranks(self, rank, rng):
        shape = (40,) if rank == 1 else (20, 14) if rank == 2 else (10, 12, 8)
        data = rng.standard_normal(shape)
        t = repro.tolerance_from_idx(data, 12)
        recon = decompress(compress(data, PweMode(t)).payload)
        assert recon.shape == shape
        assert np.abs(recon - data).max() <= t

    def test_chunked_preserves_guarantee(self, smooth_field):
        """Chunked compression must satisfy the same PWE bound; it only
        costs extra bits (Sec. V-B)."""
        t = repro.tolerance_from_idx(smooth_field, 15)
        whole = compress(smooth_field, PweMode(t))
        chunked = compress(smooth_field, PweMode(t), chunk_shape=10)
        assert len(chunked.reports) > 1
        recon = decompress(chunked.payload)
        assert np.abs(recon - smooth_field).max() <= t
        assert chunked.bpp >= whole.bpp  # boundaries cost compression

    def test_result_accounting(self, smooth_field):
        t = repro.tolerance_from_idx(smooth_field, 10)
        result = compress(smooth_field, PweMode(t), chunk_shape=12)
        assert result.npoints == smooth_field.size
        assert result.nbytes == len(result.payload)
        assert result.n_outliers == sum(r.n_outliers for r in result.reports)

    def test_size_mode_container(self, rough_field):
        result = compress(rough_field, SizeMode(bpp=4.0))
        assert result.bpp <= 4.2
        recon = decompress(result.payload)
        assert recon.shape == rough_field.shape

    def test_executors_agree(self, smooth_field):
        t = repro.tolerance_from_idx(smooth_field, 10)
        serial = compress(smooth_field, PweMode(t), chunk_shape=12, executor="serial")
        threaded = compress(
            smooth_field, PweMode(t), chunk_shape=12, executor="thread", workers=3
        )
        assert serial.payload == threaded.payload  # deterministic output
        np.testing.assert_array_equal(
            decompress(serial.payload), decompress(threaded.payload, executor="thread", workers=2)
        )

    def test_lossless_method_stored(self, smooth_field):
        t = repro.tolerance_from_idx(smooth_field, 10)
        result = compress(smooth_field, PweMode(t), lossless_method="stored")
        recon = decompress(result.payload)
        assert np.abs(recon - smooth_field).max() <= t

    def test_bad_magic_rejected(self):
        with pytest.raises(StreamFormatError):
            decompress(b"NOTSPERR" + b"\x00" * 32)

    def test_truncated_container_rejected(self, smooth_field):
        t = repro.tolerance_from_idx(smooth_field, 10)
        payload = compress(smooth_field, PweMode(t)).payload
        with pytest.raises((StreamFormatError, Exception)):
            decompress(payload[: len(payload) // 2])

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(InvalidArgumentError):
            compress(np.array(["a", "b"]), PweMode(0.1))

    def test_top_level_api_reexports(self, smooth_field):
        """The README quickstart path: repro.compress/decompress."""
        t = repro.tolerance_from_idx(smooth_field, 10)
        result = repro.compress(smooth_field, repro.PweMode(t))
        recon = repro.decompress(result.payload)
        assert np.abs(recon - smooth_field).max() <= t


class TestChunkedPsnr:
    """A PSNR target is a property of the whole field, so every chunk must
    be coded against the field's range, not its own: a flat chunk has no
    range of its own, and a chunk's local range overstates the target."""

    @staticmethod
    def _fields():
        from repro.datasets import spectral_field

        smooth = spectral_field((32, 32, 32), slope=3.0, seed=7)
        flat_half = np.full((32, 32, 32), 1000.0)
        flat_half[16:] += spectral_field((16, 32, 32), slope=3.0, seed=8)
        return {"smooth": smooth, "flat_half": flat_half}

    @pytest.mark.parametrize("field", ["smooth", "flat_half"])
    @pytest.mark.parametrize("executor", ["serial", "batch"])
    @pytest.mark.parametrize("chunk", [16, 8])
    def test_chunked_psnr_reaches_target(self, field, executor, chunk):
        from repro.metrics import psnr

        data = self._fields()[field]
        target = 40.0
        payload = compress(
            data, repro.PsnrMode(target), chunk_shape=chunk, executor=executor
        ).payload
        assert psnr(data, decompress(payload)) >= target - 0.5


class TestNearConstantPsnr:
    @pytest.mark.parametrize("codec", ["quality", "tthresh-like"])
    def test_single_valid_sample_field(self, codec):
        # The mask fill leaves a ~1e-17 range, so the PSNR target RMSE is
        # far below what the coefficients can resolve.
        data = np.full((4, 6, 8), np.nan)
        data[3, 4, 7] = -0.2003297
        payload = compress(data, repro.PsnrMode(96.0), codec=codec).payload
        out = decompress(payload)
        np.testing.assert_array_equal(np.isnan(out), np.isnan(data))
        assert abs(out[3, 4, 7] - data[3, 4, 7]) < 1e-6
