"""NaN/Inf masks and dtype for the baseline codecs, via the container.

Every baseline runs as a codec tag inside the SPERR container, so it
gets the same input hardening as the native pipeline: non-finite
samples are masked and filled before the codec sees them, the mask
rides in the container's CRC-checked mask section, and float32 inputs
come back as float32.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.compressors.base import PsnrMode
from repro.core.adaptive import BASELINE_TAGS
from repro.core.container import parse_container
from repro.core.modes import PweMode
from repro.errors import IntegrityError, ReproError

TOL = 1e-3

BASELINES = tuple(BASELINE_TAGS)


@pytest.fixture(scope="module")
def field():
    rng = np.random.default_rng(21)
    return rng.normal(size=(20, 20)).cumsum(axis=0)


@pytest.fixture(scope="module")
def masked(field):
    data = field.copy()
    data[:5, :5] = np.nan
    data[0, -1] = np.inf
    data[-1, 0] = -np.inf
    return data


def _mode(name: str):
    return PsnrMode(60.0) if name == "tthresh-like" else PweMode(TOL)


def _compress(name: str, data: np.ndarray):
    return repro.compress(data, _mode(name), codec=name, chunk_shape=10)


class TestMaskedRoundtrip:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_nan_positions_and_dtype(self, masked, dtype):
        data = masked.astype(dtype)
        for name in BASELINES:
            out = repro.decompress(_compress(name, data).payload)
            assert out.dtype == data.dtype, name
            assert np.array_equal(np.isnan(out), np.isnan(data)), name
            assert np.array_equal(np.isposinf(out), np.isposinf(data)), name
            assert np.array_equal(np.isneginf(out), np.isneginf(data)), name
            if name != "tthresh-like":
                valid = np.isfinite(data)
                err = np.abs(out[valid] - data[valid]).max()
                assert err <= TOL * (1 + 1e-9), name

    def test_float32_finite_gets_framed(self, field):
        for name in BASELINES:
            payload = _compress(name, field.astype(np.float32)).payload
            parsed = parse_container(payload)
            assert parsed.dtype == np.float32 and parsed.mask_blob is None
            assert repro.decompress(payload).dtype == np.float32, name

    def test_degradation_notes_surface(self, masked):
        for name in BASELINES:
            notes = _compress(name, masked).notes
            assert any(n.kind == "masked_input" for n in notes), name


class TestFraming:
    def test_header_crc_guards_fields(self, masked):
        for name in BASELINES:
            payload = bytearray(_compress(name, masked).payload)
            payload[10] ^= 0xFF  # mode code, inside the CRC-protected header
            with pytest.raises(IntegrityError, match="header CRC"):
                repro.decompress(bytes(payload))

    def test_mask_blob_crc_checked(self, masked):
        for name in BASELINES:
            payload = _compress(name, masked).payload
            parsed = parse_container(payload)
            # The mask blob sits right before the chunk streams.
            start = len(payload) - sum(len(s) for s in parsed.streams) - 1
            bad = bytearray(payload)
            bad[start] ^= 0xFF
            with pytest.raises(IntegrityError, match="mask CRC"):
                repro.decompress(bytes(bad))
            salvaged = repro.decompress(bytes(bad), on_error="salvage")
            assert any("mask" in n for n in salvaged.report.notes), name

    def test_truncation_raises_repro_error(self, masked):
        for name in BASELINES:
            payload = _compress(name, masked).payload
            for cut in (3, 8, 20, len(payload) - 5):
                with pytest.raises(ReproError):
                    repro.decompress(payload[:cut])


class TestAllBaselines:
    @pytest.mark.parametrize("key", sorted((*BASELINES, "szx-like")))
    def test_every_baseline_wraps(self, masked, key):
        codec = "fast" if key == "szx-like" else key
        payload = repro.compress(masked, _mode(key), codec=codec).payload
        out = repro.decompress(payload)
        assert out.dtype == masked.dtype
        assert np.array_equal(np.isnan(out), np.isnan(masked))
