"""Container format and the top-level compress/decompress API."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro import lossless
from repro.core import compress, decompress, parse_container
from repro.core.container import build_container
from repro.core.modes import PweMode, SizeMode
from repro.errors import InvalidArgumentError, StreamFormatError

#: ``workers`` settings by the execution they select.
WORKERS = [pytest.param(None, id="serial"), pytest.param(2, id="process")]


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
        serial = compress(smooth_field, PweMode(t), chunk_shape=12)
        pooled = compress(smooth_field, PweMode(t), chunk_shape=12, workers=3)
        assert serial.payload == pooled.payload  # deterministic output
        np.testing.assert_array_equal(
            decompress(serial.payload), decompress(pooled.payload, workers=2)
        )

    def test_lossless_method_stored(self, smooth_field):
        """Sections framed ``stored`` (tag 0), as writers that offered a
        lossless method choice could write them, decode like ``auto``'s."""
        t = repro.tolerance_from_idx(smooth_field, 10)
        payload = compress(smooth_field, PweMode(t), chunk_shape=12).payload
        parsed = parse_container(payload)
        stored = [
            lossless.compress(lossless.decompress(s), method="stored")
            for s in parsed.streams
        ]
        rebuilt = build_container(
            parsed.rank,
            parsed.dtype,
            parsed.mode_code,
            parsed.shape,
            parsed.chunks,
            stored,
            codec_tags=parsed.codec_tags,
        )
        recon = decompress(rebuilt)
        assert recon.tobytes() == decompress(payload).tobytes()
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
    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("chunk", [16, 8])
    def test_chunked_psnr_reaches_target(self, field, workers, chunk):
        from repro.metrics import psnr

        data = self._fields()[field]
        target = 40.0
        payload = compress(
            data, repro.PsnrMode(target), chunk_shape=chunk, workers=workers
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


def _pwe(data: np.ndarray) -> PweMode:
    return PweMode(1e-3 * float(data.max() - data.min()))


class TestIntegrityOverhead:
    def test_crc_fields_cost_under_a_thousandth_of_the_payload(self, miranda):
        """What the written layout adds over an unprotected v1 container
        of the same parse: the header CRC, a CRC and a codec tag per
        chunk, and the mask nbytes/CRC pair."""
        from repro.core.container import parse_container

        data = miranda((64, 64, 64))
        payload = compress(data, _pwe(data), chunk_shape=32).payload
        p = parse_container(payload)
        n = len(p.chunks)
        v1_header = 8 + 4 + 8 * p.rank + 4 + 16 * p.rank * n + 8 * n
        v1 = v1_header + sum(len(s) for s in p.streams)
        overhead = len(payload) - v1
        assert overhead == 4 + 5 * n + 12
        assert overhead < 1e-3 * len(payload)


class TestBatchExecutor:
    """In-process compress stacks each group of same-shaped chunks into
    one ``compress_stack`` call; the bytes match one chunk per process
    job."""

    @pytest.fixture
    def stack_shapes(self, monkeypatch):
        from repro.core import container

        shapes = []
        real = container.compress_stack

        def counting(stack, *args, **kwargs):
            shapes.append(stack.shape)
            return real(stack, *args, **kwargs)

        monkeypatch.setattr(container, "compress_stack", counting)
        return shapes

    @pytest.mark.parametrize(
        "shape, groups",
        [
            ((128, 128, 128), [(64, 32, 32, 32)]),
            ((64, 64, 48), [(4, 32, 32, 16), (4, 32, 32, 32)]),
        ],
        ids=["64-chunks", "ragged"],
    )
    def test_one_call_per_shape_group(self, stack_shapes, miranda, shape, groups):
        data = miranda(shape)
        batch = compress(data, _pwe(data), chunk_shape=32)
        assert sorted(stack_shapes) == groups
        pooled = compress(data, _pwe(data), chunk_shape=32, workers=2)
        assert batch.payload == pooled.payload
