"""Failure injection: corrupted payloads, precision edges, hostile input.

A production decompressor must reject damage with a clear error — never
crash, hang, or silently return garbage-typed output.
"""

from __future__ import annotations

import os
import re
import zlib
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from fault_harness import FAULT_OPERATORS, corrupt, fuzz_decoder
from repro import lossless
from repro.compressors import (
    MgardLikeCompressor,
    SperrCompressor,
    SzLikeCompressor,
    SzxLikeCompressor,
    TthreshLikeCompressor,
    ZfpLikeCompressor,
)
from repro.compressors.base import PsnrMode
from repro.core.adaptive import CODEC_SPERR
from repro.core.container import decode_tagged_chunk, parse_container
from repro.core.modes import PweMode
from repro.core.pipeline import compress_chunk, decompress_chunk
from repro.core.progressive import decompress_multires
from repro.core.timeseries import compress_frames, decompress_frames
from repro.datasets import spectral_field
from repro.errors import IntegrityError, InvalidArgumentError, ReproError
from repro.store.format import parse_index

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def field():
    return spectral_field((16, 16, 16), slope=3.0, seed=11)


@pytest.fixture(scope="module")
def payload(field):
    t = repro.tolerance_from_idx(field, 14)
    return repro.compress(field, repro.PweMode(t)).payload


class TestContainerCorruption:
    def test_truncation_everywhere_raises_or_errors(self, payload):
        """Cutting the container at any section boundary must raise a
        library error (not IndexError/segfault-style failures)."""
        for cut in (0, 4, 8, 12, 30, len(payload) // 2, len(payload) - 3):
            with pytest.raises((ReproError, Exception)) as exc_info:
                repro.decompress(payload[:cut])
            assert not isinstance(exc_info.value, (MemoryError, RecursionError))

    def test_flipped_magic_rejected(self, payload):
        bad = b"X" + payload[1:]
        with pytest.raises(ReproError):
            repro.decompress(bad)

    def test_corrupt_chunk_size_table(self, payload):
        # inflate the first chunk size field beyond the payload
        bad = bytearray(payload)
        # the size table sits right after magic+meta+shape+nchunks+bounds
        # for a single-chunk 3-D container: 8+4+24+4+48 = 88
        bad[88:96] = (2**40).to_bytes(8, "little")
        with pytest.raises(ReproError):
            repro.decompress(bytes(bad))

    def test_bitflips_in_body_do_not_hang(self, payload):
        """Flipping bytes inside the compressed body either decodes to
        *something* or raises cleanly — bounded behaviour always."""
        rng = np.random.default_rng(3)
        for _ in range(8):
            bad = bytearray(payload)
            pos = int(rng.integers(120, len(payload)))
            bad[pos] ^= 0xFF
            try:
                out = repro.decompress(bytes(bad))
                assert out.shape == (16, 16, 16)
            except Exception as exc:  # noqa: BLE001 - any *clean* error is fine
                assert not isinstance(exc, (MemoryError, RecursionError))


class TestBaselinePayloadChecks:
    @pytest.mark.parametrize(
        "compressor,mode",
        [
            (SzLikeCompressor(), PweMode(0.01)),
            (ZfpLikeCompressor(), PweMode(0.01)),
            (TthreshLikeCompressor(), PsnrMode(50.0)),
            (MgardLikeCompressor(), PweMode(0.01)),
        ],
    )
    def test_wrong_magic_rejected(self, compressor, mode, field):
        payload = compressor.compress(field, mode)
        with pytest.raises(ReproError):
            compressor.decompress(b"JUNK" + payload[4:])

    def test_cross_compressor_payloads_rejected(self, field):
        sz = SzLikeCompressor()
        zfp = ZfpLikeCompressor()
        p = sz.compress(field, PweMode(0.01))
        with pytest.raises(ReproError):
            zfp.decompress(p)


class TestPrecisionEdges:
    def test_float32_tolerance_below_precision_rejected(self, rng):
        data = (rng.standard_normal((12, 12)) * 100).astype(np.float32)
        t = float(np.abs(data).max()) * 2.0**-25
        with pytest.raises(InvalidArgumentError):
            repro.compress(data, repro.PweMode(t))

    def test_float32_bound_holds_after_cast(self, rng):
        data = (rng.standard_normal((16, 16)) * 1e6).astype(np.float32)
        t = float(data.max() - data.min()) / 2**14
        res = repro.compress(data, repro.PweMode(t))
        recon = repro.decompress(res.payload)
        assert recon.dtype == np.float32
        err = np.abs(recon.astype(np.float64) - data.astype(np.float64)).max()
        assert err <= t

    def test_huge_and_tiny_scales(self):
        for scale in (1e-300, 1e300):
            data = spectral_field((12, 12), slope=2.0, seed=5) * scale
            t = float(data.max() - data.min()) / 2**12
            res = repro.compress(data, repro.PweMode(t))
            recon = repro.decompress(res.payload)
            assert np.abs(recon - data).max() <= t

    def test_denormal_free_output(self, field):
        res = repro.compress(field, repro.PweMode(1e-6))
        recon = repro.decompress(res.payload)
        assert np.all(np.isfinite(recon))


@settings(max_examples=30, deadline=None)
@given(st.binary(min_size=0, max_size=200))
def test_garbage_never_crashes_decompress(blob):
    """Arbitrary bytes into the container parser: clean error or nothing."""
    try:
        repro.decompress(blob)
    except Exception as exc:  # noqa: BLE001
        assert not isinstance(exc, (MemoryError, RecursionError, SystemError))


# --- seeded fault-injection matrix -----------------------------------------

_FUZZ_CODECS = {
    "sperr": (SperrCompressor(chunk_shape=8), PweMode(1e-3)),
    "sz-like": (SzLikeCompressor(), PweMode(1e-3)),
    "zfp-like": (ZfpLikeCompressor(), PweMode(1e-3)),
    "tthresh-like": (TthreshLikeCompressor(), PsnrMode(60.0)),
    "mgard-like": (MgardLikeCompressor(), PweMode(1e-3)),
    "szx-like": (SzxLikeCompressor(), PweMode(1e-3)),
}


#: Fuzzed beside the codecs: a raw 32³ SPERR chunk stream with an outlier
#: section, fed to ``decompress_chunk`` directly.  Through the container
#: most corruptions stop at the chunk CRC; here they reach the SPECK
#: coefficient and outlier decoders.
_RAW_CHUNK = "sperr-chunk"
_RAW_CHUNK_SHAPE = (32, 32, 32)

#: The same raw chunk through ``decode_tagged_chunk``'s coarse-level and
#: byte-budget paths — the decodes store reads and ``decompress_multires``
#: run.  The corrupted stream is wrapped in a ``stored`` lossless frame
#: per case, so the damage lands in the chunk stream itself.
_RAW_CHUNK_PATHS = {
    "sperr-chunk-level1": {"level": 1},
    "sperr-chunk-fraction": {"fraction": 0.5},
}

#: A two-frame ``SPRRTS1`` time-series archive through ``decompress_frames``:
#: corruption lands in its frame table as well as in the containers.
_TIMESERIES = "sprrts1"

#: The read-only layouts, from their committed fixtures: container v1
#: (no CRCs) and v3 (mask, no tags) through ``repro.decompress``, store
#: indexes v1 and v2 through ``parse_index``, the explicit wavelet depth
#: of a chunk header (through a level-1 decode) and of a store index,
#: and the retired ``CHNK``/``CHK2``/``CHK3``/``MSKW``/``SZXF`` framings
#: of ``tests/data/legacy_*.bin`` through ``repro.decompress`` (their
#: salvage-mode fuzz stays in ``test_legacy_formats.py``).  No fresh
#: write reaches these paths, so only these targets fuzz them.
_READ_ONLY = {
    "sprrpy1": ("container_v1.sperr", repro.decompress),
    "sprrpy3": ("encode_masked_f32.sperr", repro.decompress),
    "sprridx1": ("store_v1_cube32/index.bin", parse_index),
    "sprridx2": ("store_v2_masked/index.bin", parse_index),
    "levels1-sperr": ("levels1.sperr", partial(decompress_multires, level=1)),
    "levels1-index": ("store_levels1/index.bin", parse_index),
    **{
        f"legacy-{name}": (f"legacy_{name}.bin", repro.decompress)
        for name in ("chnk", "chk2", "chk2_sperr", "chk3", "chk3_szx",
                     "mskw", "szxf")
    },
}
_FUZZ_TARGETS = sorted(
    [*_FUZZ_CODECS, _RAW_CHUNK, *_RAW_CHUNK_PATHS, _TIMESERIES, *_READ_ONLY]
)


def _decode_raw_chunk(raw: bytes, **kwargs):
    stream = lossless.compress(raw, method="stored")
    return decode_tagged_chunk(
        stream, CODEC_SPERR, len(_RAW_CHUNK_SHAPE), _RAW_CHUNK_SHAPE, **kwargs
    )


def _fuzz_decoder(target: str):
    if target == _RAW_CHUNK:
        return partial(decompress_chunk, expected_shape=_RAW_CHUNK_SHAPE)
    if target in _RAW_CHUNK_PATHS:
        return partial(_decode_raw_chunk, **_RAW_CHUNK_PATHS[target])
    if target == _TIMESERIES:
        return decompress_frames
    if target in _READ_ONLY:
        return _READ_ONLY[target][1]
    return _FUZZ_CODECS[target][0].decompress


@pytest.fixture(scope="module")
def fuzz_payloads(field):
    """One clean payload per target, compressed once for the whole matrix."""
    payloads = {
        name: comp.compress(field, mode)
        for name, (comp, mode) in _FUZZ_CODECS.items()
    }
    chunk = spectral_field(_RAW_CHUNK_SHAPE, slope=2.0, seed=12)
    stream, report = compress_chunk(chunk, PweMode(1e-3 * float(np.ptp(chunk))))
    assert report.n_outliers > 0
    for target in (_RAW_CHUNK, *_RAW_CHUNK_PATHS):
        payloads[target] = stream
    frames = [field[:8, :8, :8], field[8:, 8:, :8]]
    payloads[_TIMESERIES], _ = compress_frames(frames, PweMode(1e-3))
    for target, (name, _decode) in _READ_ONLY.items():
        payloads[target] = (DATA_DIR / name).read_bytes()
    return payloads


class TestFaultInjectionMatrix:
    """Every codec (and a raw SPERR chunk, at full resolution, level 1
    and half its SPECK bits, a time-series archive and the read-only
    container and index layouts) × every fault operator × seeded
    corruption campaigns.

    The contract: a corrupted payload either decodes (to garbage or a
    salvage) or raises a ``ReproError`` subclass.  Raw ``struct.error`` /
    ``IndexError``, unbounded allocations, and hangs are decoder bugs.
    """

    @pytest.mark.parametrize("codec", _FUZZ_TARGETS)
    @pytest.mark.parametrize("operator", sorted(FAULT_OPERATORS))
    def test_codec_survives_operator(self, codec, operator, fuzz_payloads):
        report = fuzz_decoder(
            _fuzz_decoder(codec),
            fuzz_payloads[codec],
            n=50,
            operators=[operator],
            seed=zlib.crc32(f"{codec}/{operator}".encode()) % 10_000,
            time_limit=20.0,
        )
        assert report.ok, f"{codec} × {operator}: {report.summary()}"

    @pytest.mark.parametrize("codec", sorted(_FUZZ_CODECS))
    def test_codec_survives_composed_faults(self, codec, fuzz_payloads):
        """Two stacked operators per case — compound damage."""
        comp, _ = _FUZZ_CODECS[codec]
        report = fuzz_decoder(
            comp.decompress, fuzz_payloads[codec], n=50, n_ops=2, seed=777
        )
        assert report.ok, f"{codec} composed: {report.summary()}"

    @pytest.mark.fuzz
    @pytest.mark.skipif(
        os.environ.get("REPRO_FUZZ_DEEP") != "1",
        reason="deep fuzz is opt-in: set REPRO_FUZZ_DEEP=1 and run -m fuzz",
    )
    @pytest.mark.parametrize("codec", _FUZZ_TARGETS)
    def test_deep_fuzz(self, codec, fuzz_payloads):
        """The acceptance campaign: 500 seeded corruptions per codec.

        ``REPRO_FUZZ_N`` scales the campaign (CI smoke runs use a
        smaller count; nightly runs can raise it).
        """
        n = int(os.environ.get("REPRO_FUZZ_N", "500"))
        report = fuzz_decoder(_fuzz_decoder(codec), fuzz_payloads[codec], n=n, seed=0)
        assert report.ok, f"{codec} deep fuzz: {report.summary()}"

    def test_corrupt_is_deterministic(self, payload):
        a = corrupt(payload, seed=99, n_ops=3)
        b = corrupt(payload, seed=99, n_ops=3)
        assert a.payload == b.payload and a.applied == b.applied


# --- lossless-layer fault injection -----------------------------------------

#: Every lossless stream tag the backend can emit or still decode,
#: fuzzed directly against the tag-dispatch decoder rather than through
#: the container, so corruption always lands inside the codec payloads.
#: ``rle`` (tag 1), ``rle+huffman`` (tag 3) and ``ac`` (tag 5) are
#: decode-only; their clean payloads are the golden fixtures.
_LOSSLESS_METHODS = ("stored", "rle", "huffman", "rle+huffman", "lz77", "ac", "rc")
_DECODE_ONLY_FIXTURES = {
    "rle": "lossless_rle.bin",
    "rle+huffman": "lossless_rle_huffman.bin",
    "ac": "lossless_ac.bin",
}


@pytest.fixture(scope="module")
def lossless_payloads(field):
    """One clean payload per lossless method over SPECK-like bytes."""
    from repro import lossless

    raw = field.astype(np.float32).tobytes()[: 1 << 14]
    payloads = {
        m: lossless.compress(raw, method=m)
        for m in _LOSSLESS_METHODS
        if m not in _DECODE_ONLY_FIXTURES
    }
    for m, name in _DECODE_ONLY_FIXTURES.items():
        payloads[m] = (DATA_DIR / name).read_bytes()
    return payloads


class TestLosslessFaultInjection:
    """The vectorized decoders (Huffman window tables, rANS lanes, LZ77
    batch unpack) must uphold the same contract as the container layer:
    corrupted payloads decode or raise ``ReproError`` — never hang, crash,
    or allocate unboundedly."""

    @pytest.mark.parametrize("method", _LOSSLESS_METHODS)
    def test_method_survives_corruption(self, method, lossless_payloads):
        from repro import lossless

        report = fuzz_decoder(
            lossless.decompress,
            lossless_payloads[method],
            n=100,
            seed=zlib.crc32(f"lossless/{method}".encode()) % 10_000,
            time_limit=20.0,
        )
        assert report.ok, f"lossless/{method}: {report.summary()}"

    @pytest.mark.parametrize("method", _LOSSLESS_METHODS)
    def test_method_survives_composed_faults(self, method, lossless_payloads):
        from repro import lossless

        report = fuzz_decoder(
            lossless.decompress, lossless_payloads[method], n=100, n_ops=2, seed=31
        )
        assert report.ok, f"lossless/{method} composed: {report.summary()}"


# --- container v2 integrity and salvage ------------------------------------


@pytest.fixture(scope="module")
def chunked_payload(field):
    """A v2 container with 8 chunks (16^3 split into 8^3 tiles)."""
    t = repro.tolerance_from_idx(field, 14)
    return repro.compress(field, repro.PweMode(t), chunk_shape=8).payload


class TestContainerV2Integrity:
    def test_header_bit_flip_detected(self, chunked_payload):
        """Any single-bit flip in the CRC-covered header must be caught."""
        rng = np.random.default_rng(0)
        parsed = parse_container(chunked_payload)
        head_len = len(chunked_payload) - sum(len(s) for s in parsed.streams)
        for _ in range(16):
            pos = int(rng.integers(8, head_len))
            bit = int(rng.integers(0, 8))
            bad = bytearray(chunked_payload)
            bad[pos] ^= 1 << bit
            with pytest.raises(ReproError):
                repro.decompress(bytes(bad))

    def test_each_chunk_bit_flip_detected(self, chunked_payload):
        """A single-bit flip inside any chunk stream trips that chunk's CRC."""
        parsed = parse_container(chunked_payload)
        head_len = len(chunked_payload) - sum(len(s) for s in parsed.streams)
        offset = head_len
        for idx, stream in enumerate(parsed.streams):
            bad = bytearray(chunked_payload)
            bad[offset + len(stream) // 2] ^= 0x01
            with pytest.raises(IntegrityError, match=f"chunk {idx} "):
                repro.decompress(bytes(bad))
            offset += len(stream)

    def test_salvage_preserves_intact_chunks_exactly(self, field, chunked_payload):
        """Corrupting one chunk must not perturb any other chunk's bytes."""
        clean = repro.decompress(chunked_payload)
        parsed = parse_container(chunked_payload)
        head_len = len(chunked_payload) - sum(len(s) for s in parsed.streams)
        target = 3
        offset = head_len + sum(len(s) for s in parsed.streams[:target])
        bad = bytearray(chunked_payload)
        bad[offset + 5] ^= 0xFF
        result = repro.decompress(bytes(bad), on_error="salvage")
        report = result.report
        assert report.failed_chunks == [target]
        assert report.crc_mismatches == [target]
        sel = tuple(slice(a, b) for a, b in parsed.chunks[target].bounds)
        assert np.isnan(result.data[sel]).all()
        mask = np.ones(field.shape, dtype=bool)
        mask[sel] = False
        assert np.array_equal(result.data[mask], clean[mask])

    def test_salvage_clean_payload_reports_ok(self, chunked_payload):
        result = repro.decompress(chunked_payload, on_error="salvage")
        assert result.report.ok
        assert result.report.failed_chunks == []
        assert not np.isnan(result.data).any()

    def test_salvage_custom_fill_value(self, chunked_payload):
        parsed = parse_container(chunked_payload)
        head_len = len(chunked_payload) - sum(len(s) for s in parsed.streams)
        bad = bytearray(chunked_payload)
        bad[head_len + 2] ^= 0xFF
        result = repro.decompress(bytes(bad), on_error="salvage", fill_value=0.0)
        sel = tuple(slice(a, b) for a, b in parsed.chunks[0].bounds)
        assert (result.data[sel] == 0.0).all()

    def test_decode_result_is_array_like(self, chunked_payload):
        result = repro.decompress(chunked_payload, on_error="salvage")
        assert np.asarray(result).shape == (16, 16, 16)

    def test_decode_result_honours_copy(self, chunked_payload):
        result = repro.decompress(chunked_payload, on_error="salvage")
        before = result.data.copy()
        for copied in (np.array(result), np.array(result, dtype=np.float32)):
            copied[0, 0, 0] = 5.0
        np.testing.assert_array_equal(result.data, before)
        assert np.asarray(result) is result.data
        if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
            assert np.array(result, copy=False) is result.data
            with pytest.raises(ValueError):
                np.array(result, dtype=np.float32, copy=False)


# --- container v4 (mixed-codec chunk table) integrity and salvage -----------


@pytest.fixture(scope="module")
def mixed_payload(field):
    """A v4 container whose chunk table mixes szx and sperr tags."""
    rough = np.array(field)
    rough[8:] += np.random.default_rng(5).normal(
        0.0, 0.5 * float(field.max() - field.min()), size=rough[8:].shape
    )
    t = 1e-5 * float(rough.max() - rough.min())
    payload = repro.compress(
        rough, repro.PweMode(t), chunk_shape=8, codec="adaptive"
    ).payload
    tags = parse_container(payload).codec_tags
    assert tags is not None and len(set(tags)) > 1, "fixture must mix codecs"
    return payload


class TestContainerV4Integrity:
    """The adaptive chunk table keeps the v2 integrity contract: tags are
    CRC-covered, per-chunk damage is localized, and corrupted mixed
    payloads never escape the error hierarchy."""

    def test_codec_tag_bit_flip_detected(self, mixed_payload):
        # The tag column sits inside the CRC-covered header; flipping a
        # tag must be caught before any chunk decode trusts it.
        parsed = parse_container(mixed_payload)
        head_len = len(mixed_payload) - sum(len(s) for s in parsed.streams)
        n = len(parsed.streams)
        # tag column: n bytes before the 12-byte mask-blob record that
        # ends the (CRC-covered) header; the mask blob itself is empty
        # for this all-finite fixture.
        for pos in range(head_len - 12 - n, head_len - 12):
            bad = bytearray(mixed_payload)
            bad[pos] ^= 0x01
            with pytest.raises(ReproError):
                repro.decompress(bytes(bad))

    def test_szx_chunk_bit_flip_detected_and_salvageable(self, mixed_payload):
        parsed = parse_container(mixed_payload)
        assert parsed.codec_tags is not None
        target = parsed.codec_tags.index(1)  # first szx-tagged chunk
        head_len = len(mixed_payload) - sum(len(s) for s in parsed.streams)
        offset = head_len + sum(len(s) for s in parsed.streams[:target])
        bad = bytearray(mixed_payload)
        bad[offset + len(parsed.streams[target]) // 2] ^= 0xFF
        with pytest.raises(ReproError):
            repro.decompress(bytes(bad))
        result = repro.decompress(bytes(bad), on_error="salvage")
        assert result.report.failed_chunks == [target]
        sel = tuple(slice(a, b) for a, b in parsed.chunks[target].bounds)
        assert np.isnan(result.data[sel]).all()

    def test_mixed_container_survives_fault_operators(self, mixed_payload):
        report = fuzz_decoder(
            repro.decompress, mixed_payload, n=100, seed=4242, time_limit=20.0
        )
        assert report.ok, f"v4 container fuzz: {report.summary()}"

    def test_mixed_container_survives_composed_faults(self, mixed_payload):
        report = fuzz_decoder(
            repro.decompress, mixed_payload, n=100, n_ops=2, seed=515
        )
        assert report.ok, f"v4 composed fuzz: {report.summary()}"


class TestV1Compatibility:
    """Golden v1 payloads (pre-CRC format) must keep decoding bit-identically."""

    def test_golden_v1_parses_as_version_1(self):
        payload = (DATA_DIR / "container_v1.sperr").read_bytes()
        parsed = parse_container(payload)
        assert parsed.format_version == 1
        assert parsed.chunk_crcs is None
        assert parsed.shape == (16, 16, 16)

    def test_golden_v1_decodes_bit_identically(self):
        payload = (DATA_DIR / "container_v1.sperr").read_bytes()
        expected = np.load(DATA_DIR / "container_v1_decode.npy")
        recon = repro.decompress(payload)
        assert recon.dtype == expected.dtype
        assert np.array_equal(recon, expected)

    def test_golden_v1_salvage_mode_works(self):
        payload = (DATA_DIR / "container_v1.sperr").read_bytes()
        result = repro.decompress(payload, on_error="salvage")
        assert result.report.format_version == 1
        assert result.report.ok


def test_no_raw_valueerror_raises_in_library():
    """Lint: the library must raise its own hierarchy, never bare
    ``ValueError``/``Exception`` (satellite of the error-contract work)."""
    src_root = Path(repro.__file__).parent
    pattern = re.compile(r"raise (ValueError|Exception)\b")
    offenders = []
    for path in sorted(src_root.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line):
                offenders.append(f"{path.relative_to(src_root)}:{lineno}: {line.strip()}")
    assert not offenders, "raw raises found:\n" + "\n".join(offenders)
