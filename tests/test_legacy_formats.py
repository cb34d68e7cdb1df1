"""Golden fixtures for the retired ``CHNK``/``CHK2``/``CHK3``/``MSKW``/``SZXF``
framings, read through :func:`repro.decompress`.

The ``tests/data/legacy_*.bin`` payloads were written by the chunked,
mask and szx-like wrappers before the baselines became container codec
tags; each ``.npy`` is the array those wrappers decoded.  The readers in
:mod:`repro.core.legacy` must reproduce every one bit for bit, in both
decode modes.

* ``chnk`` — pre-CRC framing, zfp-like tiles, float64.
* ``chk2`` — CRC framing, sz-like tiles, float64.
* ``chk2_sperr`` — single-chunk SPERR container tiles, float64.
* ``chk3`` — mgard-like tiles, float32 with NaN and ±Inf.
* ``chk3_szx`` — ``SZXF``-framed szx-like tiles, float32 with NaN/±Inf.
* ``mskw`` — tthresh-like (PSNR) in the mask wrapper, float32 with NaN/±Inf.
* ``szxf`` — the szx-like registry frame, float32 with NaN/±Inf.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.legacy import LEGACY_MAGICS, parse_legacy
from repro.errors import IntegrityError, StreamFormatError

DATA = Path(__file__).parent / "data"
NAMES = ("chnk", "chk2", "chk2_sperr", "chk3", "chk3_szx", "mskw", "szxf")


def _fixture(name: str) -> tuple[bytes, np.ndarray]:
    payload = (DATA / f"legacy_{name}.bin").read_bytes()
    return payload, np.load(DATA / f"legacy_{name}.npy")


@pytest.mark.parametrize("name", NAMES)
def test_decodes_bit_for_bit(name):
    payload, expected = _fixture(name)
    out = repro.decompress(payload)
    assert out.dtype == expected.dtype
    assert out.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", NAMES)
def test_salvage_mode_decodes_bit_for_bit(name):
    payload, expected = _fixture(name)
    result = repro.decompress(payload, on_error="salvage", workers=2)
    assert result.report.ok, result.report.summary()
    assert result.data.tobytes() == expected.tobytes()


def test_fixtures_cover_every_magic_dtype_and_mask():
    magics = {_fixture(n)[0][:4] for n in NAMES}
    assert magics == set(LEGACY_MAGICS)
    for name in ("chk3", "chk3_szx", "mskw", "szxf"):
        _, expected = _fixture(name)
        assert expected.dtype == np.float32
        assert np.isnan(expected).any() and np.isinf(expected).any()


@pytest.mark.parametrize("name", ["chk2", "chk2_sperr", "chk3", "chk3_szx"])
def test_damaged_tile_is_salvaged(name):
    payload, expected = _fixture(name)
    bad = bytearray(payload)
    bad[-3] ^= 0x01  # inside the last tile
    with pytest.raises(IntegrityError, match="chunk 3 CRC mismatch"):
        repro.decompress(bytes(bad))
    result = repro.decompress(bytes(bad), on_error="salvage", fill_value=7.0)
    assert result.report.crc_mismatches == [3]
    chunk = parse_legacy(payload).chunks[3]
    keep = np.ones(expected.shape, dtype=bool)
    keep[chunk.slices()] = False
    assert result.data[keep].tobytes() == expected[keep].tobytes()
    # the mask is re-imposed over the fill, exactly as before
    filled = result.data[chunk.slices()]
    orig = expected[chunk.slices()]
    assert np.array_equal(np.isnan(filled), np.isnan(orig))
    assert (filled[np.isfinite(orig)] == 7.0).all()


def test_chnk_tile_damage_stays_inside_salvage():
    payload, expected = _fixture("chnk")
    bad = bytearray(payload)
    bad[-3] ^= 0xFF  # no CRCs in CHNK: the zfp-like decode must notice
    result = repro.decompress(bytes(bad), on_error="salvage")
    assert result.data.shape == expected.shape
    assert result.report.crc_mismatches == []


@pytest.mark.parametrize("name", ["chk2", "chk3", "chk3_szx", "mskw"])
def test_header_bit_flip_raises(name):
    payload, _ = _fixture(name)
    bad = bytearray(payload)
    bad[9] ^= 0x01  # CRC-covered header field
    with pytest.raises(StreamFormatError):
        repro.decompress(bytes(bad))


@pytest.mark.parametrize("name", NAMES)
def test_truncation_and_trailing_bytes_raise(name):
    payload, _ = _fixture(name)
    for cut in (3, 6, 12, 30, len(payload) - 1):
        with pytest.raises(repro.ReproError):
            repro.decompress(payload[:cut])
    if name not in ("szxf", "mskw"):  # whole-array frames end in their stream
        with pytest.raises(StreamFormatError, match="trailing"):
            repro.decompress(payload + b"\x00")


def test_szxf_stream_crc_checked():
    payload, _ = _fixture("szxf")
    bad = bytearray(payload)
    bad[30] ^= 0x01  # inside the SZX1 stream body
    with pytest.raises(IntegrityError, match="CRC mismatch"):
        repro.decompress(bytes(bad))


def test_mskw_mask_crc_checked():
    payload, _ = _fixture("mskw")
    _magic, _crc, _code, mask_nbytes, _mcrc = struct.unpack_from("<4sIBQI", payload)
    assert mask_nbytes
    bad = bytearray(payload)
    bad[21] ^= 0x01  # first mask byte
    with pytest.raises(IntegrityError, match="mask CRC"):
        repro.decompress(bytes(bad))
    result = repro.decompress(bytes(bad), on_error="salvage")
    assert any("mask" in note for note in result.report.notes)


def test_unknown_magic_still_rejected():
    with pytest.raises(StreamFormatError, match="bad magic"):
        repro.decompress(b"NOPE" + b"\x00" * 64)


@pytest.mark.parametrize("name", ["sz-like", "zfp-like", "tthresh-like", "mgard-like"])
def test_tile_table_matches_each_baseline_header(name):
    """The legacy reader's magic/shape offsets track each codec's header."""
    import importlib

    from repro.compressors import ALL_COMPRESSORS, PsnrMode
    from repro.core.adaptive import BASELINE_TAGS
    from repro.core.legacy import _TILE_TAGS, _peek_shape
    from repro.core.modes import PweMode

    codec = ALL_COMPRESSORS[name]()
    module = importlib.import_module(type(codec).__module__)
    assert _TILE_TAGS[module._MAGIC] == BASELINE_TAGS[name]
    data = np.random.default_rng(4).normal(size=(5, 6, 7)).cumsum(axis=2)
    mode = PsnrMode(50.0) if name == "tthresh-like" else PweMode(1e-2)
    assert _peek_shape(codec.compress(data, mode), None) == (5, 6, 7)


@pytest.mark.parametrize("on_error", ["raise", "salvage"])
@pytest.mark.parametrize("name", NAMES)
def test_corruption_decodes_or_raises_typed_error(name, on_error):
    from fault_harness import fuzz_decoder

    payload, _ = _fixture(name)
    report = fuzz_decoder(
        lambda b: repro.decompress(b, on_error=on_error), payload, n=30, seed=0
    )
    assert report.ok, report.summary()


#: Seeds whose byte overwrites of ``legacy_mskw.bin`` decode float64
#: values beyond float32's range.
_OVERFLOW_SEEDS = (1346, 1584, 2744, 2846)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", _OVERFLOW_SEEDS)
def test_corrupted_mskw_casts_without_warning(seed):
    """The final float32 cast of a damaged decode is silent: the call
    returns an array or raises a typed error, never a RuntimeWarning."""
    payload, _ = _fixture("mskw")
    rng = np.random.default_rng(seed)
    buf = bytearray(payload)
    for _ in range(int(rng.integers(1, 4))):
        pos = int(rng.integers(0, len(buf)))
        buf[pos] = int(rng.integers(0, 256))
    try:
        out = repro.decompress(bytes(buf))
    except repro.ReproError:
        return
    assert isinstance(out, np.ndarray) and out.dtype == np.float32
