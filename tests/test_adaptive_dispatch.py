"""Adaptive per-chunk codec dispatch: proxies, routing, tags, store.

The fast tier's correctness story is layered:

* :func:`repro.core.adaptive.chunk_proxies` must read smoothness and
  value-repetition from a bounded sample;
* :func:`~repro.core.adaptive.choose_codecs` must route per policy and
  reject modes szx cannot bound;
* the container v4 chunk table must round-trip the decisions so decode
  is self-describing, with ``quality`` payloads byte-identical to the
  pre-adaptive format;
* the store must persist tags in its index and serve windowed, coarse,
  and budget reads from mixed-codec frames.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core import PweMode, SizeMode, compress, decompress
from repro.core.adaptive import (
    CODEC_SPERR,
    CODEC_STORED,
    CODEC_SZX,
    _LOW_UNIQUE_DENSITY,
    _RUN_LEN,
    _SAMPLE_RUNS,
    _STORED_WIDTH,
    _SZX_WIDTH,
    _sample,
    choose_codecs,
    chunk_proxies,
    decode_stored_chunk,
    encode_stored_chunk,
)
from repro.core.container import parse_container
from repro.errors import InvalidArgumentError, ReproError, StreamFormatError


def _smooth(shape=(16, 16), seed=0):
    axes = np.ix_(*[np.linspace(0.0, np.pi, s) for s in shape])
    out = np.ones(shape)
    for a in axes:
        out = out * np.sin(a + 0.2)
    return out


def _noisy(shape=(16, 16), seed=1):
    return np.random.default_rng(seed).normal(size=shape)


class TestProxies:
    def test_smooth_chunk_reads_narrow(self):
        data = _smooth((32, 32))
        width, density = chunk_proxies(data, 1e-3)
        assert width <= _SZX_WIDTH

    def test_noise_reads_wide_at_tight_bound(self):
        data = _noisy((32, 32))
        width, _ = chunk_proxies(data, 1e-7)
        assert width > _SZX_WIDTH

    def test_repeated_values_read_low_density(self):
        data = np.tile(np.array([1.0, 2.0]), 4096)
        _, density = chunk_proxies(data, 1e-3)
        assert density <= _LOW_UNIQUE_DENSITY

    def test_constant_chunk(self):
        width, density = chunk_proxies(np.full(500, 3.0), 1e-6)
        assert width == 0
        assert density <= _LOW_UNIQUE_DENSITY

    def test_bad_tolerance_rejected(self):
        with pytest.raises(InvalidArgumentError):
            chunk_proxies(np.ones(8), 0.0)
        with pytest.raises(InvalidArgumentError):
            chunk_proxies(np.ones(8), float("nan"))

    def test_empty_chunk_rejected(self):
        with pytest.raises(InvalidArgumentError):
            chunk_proxies(np.empty(0), 1e-3)

    @staticmethod
    def _unravel_sample(data):
        """The sample as ``_sample`` took it before its index was cached
        per shape: an ``unravel_index`` of the flat run indices per call."""
        n = data.size
        if n <= _SAMPLE_RUNS * _RUN_LEN:
            return np.asarray(data, dtype=np.float64).reshape(1, n)
        starts = np.linspace(0, n - _RUN_LEN, _SAMPLE_RUNS, dtype=np.int64)
        flat_idx = starts[:, None] + np.arange(_RUN_LEN)
        return data[np.unravel_index(flat_idx, data.shape)].astype(np.float64)

    # 4096 points is the whole-chunk sample, 4097 the first run sample.
    @pytest.mark.parametrize(
        "shape", [(16, 16, 16), (4097,), (17, 241), (48, 40, 24)]
    )
    @pytest.mark.parametrize("layout", ["contiguous", "strided", "transposed"])
    def test_sample_matches_unravel_formula(self, shape, layout):
        rng = np.random.default_rng(7)
        if layout == "contiguous":
            data = rng.normal(size=shape)
        elif layout == "strided":
            base = rng.normal(size=tuple(2 * s + 1 for s in shape))
            data = base[tuple(slice(1, None, 2) for _ in shape)]
        else:
            data = rng.normal(size=shape[::-1]).T
        assert data.shape == shape
        want = self._unravel_sample(data).tobytes()
        # The first call may build the cached index; the second reuses it.
        assert _sample(data).tobytes() == want
        assert _sample(data).tobytes() == want

    def test_stored_width_pins_szx_plane_cap(self):
        # _STORED_WIDTH restates szxlike's MAX_WIDTH (core cannot import
        # repro.compressors at module scope); this pins them together.
        from repro.compressors.szxlike.blocks import MAX_WIDTH

        assert _STORED_WIDTH == MAX_WIDTH + 10


class TestChooseCodecs:
    def test_quality_routes_everything_to_sperr(self):
        tags = choose_codecs([_noisy(), _smooth()], SizeMode(2.0), "quality")
        assert (tags == CODEC_SPERR).all()

    def test_fast_routes_to_szx(self):
        tags = choose_codecs([_smooth(), _noisy()], PweMode(1e-2), "fast")
        assert (tags == CODEC_SZX).all()

    def test_adaptive_splits_by_smoothness(self):
        smooth = _smooth((32, 32))
        noisy = _noisy((32, 32))
        tags = choose_codecs([smooth, noisy], PweMode(1e-4), "adaptive")
        assert tags[0] == CODEC_SZX
        assert tags[1] in (CODEC_SPERR, CODEC_STORED)
        assert tags[1] != CODEC_SZX

    def test_unknown_policy_rejected(self):
        with pytest.raises(InvalidArgumentError, match="codec"):
            choose_codecs([_smooth()], PweMode(1e-3), "turbo")

    @pytest.mark.parametrize("policy", ["fast", "adaptive"])
    def test_non_pwe_mode_rejected(self, policy):
        with pytest.raises(InvalidArgumentError, match="point-wise"):
            choose_codecs([_smooth()], SizeMode(2.0), policy)

    def test_routing_counters_recorded(self):
        from repro import obs

        with obs.trace("routing") as tracer:
            compress(_smooth((16, 16)), PweMode(1e-3), codec="fast")
        counters = tracer.report().counters
        assert sum(
            v for k, v in counters.items() if k.startswith("adaptive.route.")
        ) >= 1


class TestStoredChunks:
    def test_roundtrip_exact(self):
        data = _noisy((7, 5, 3))
        out = decode_stored_chunk(encode_stored_chunk(data))
        np.testing.assert_array_equal(out, data)

    def test_expected_shape_mismatch_rejected(self):
        stream = encode_stored_chunk(np.ones((4, 4)))
        with pytest.raises(StreamFormatError, match="table says"):
            decode_stored_chunk(stream, expected_shape=(4, 5))

    def test_truncation_rejected(self):
        stream = encode_stored_chunk(np.ones(100))
        with pytest.raises(ReproError):
            decode_stored_chunk(stream[:-8])

    def test_wrong_magic_rejected(self):
        with pytest.raises(StreamFormatError):
            decode_stored_chunk(b"NOPE" + bytes(32))


class TestContainerTags:
    def test_quality_payload_matches_default_bytes(self):
        # The adaptive machinery must be invisible when unused: the
        # default codec produces the exact pre-adaptive payload.
        data = _smooth((16, 16))
        mode = PweMode(1e-3)
        assert (
            compress(data, mode, codec="quality").payload
            == compress(data, mode).payload
        )

    def test_fast_payload_carries_tags(self):
        payload = compress(_smooth((16, 16)), PweMode(1e-3), codec="fast").payload
        parsed = parse_container(payload)
        assert parsed.codec_tags is not None
        assert set(parsed.codec_tags) == {CODEC_SZX}

    def test_adaptive_mixed_tags_roundtrip_bit_exactly(self):
        data = _smooth((32, 32))
        rough = np.array(data)
        rough[16:] += np.random.default_rng(3).normal(size=rough[16:].shape)
        t = 1e-5 * float(rough.max() - rough.min())
        result = compress(rough, PweMode(t), chunk_shape=16, codec="adaptive")
        parsed = parse_container(result.payload)
        assert parsed.codec_tags is not None
        assert len(set(parsed.codec_tags)) > 1, "expected a mixed chunk table"
        out = decompress(result.payload)
        assert float(np.abs(out - rough).max()) <= t
        # decode must be deterministic and self-describing
        np.testing.assert_array_equal(out, decompress(result.payload))

    @pytest.mark.parametrize("mode", [SizeMode(2.0), repro.PsnrMode(50.0)])
    @pytest.mark.parametrize("policy", ["fast", "adaptive"])
    def test_rate_modes_rejected_for_fast_policies(self, mode, policy):
        with pytest.raises(InvalidArgumentError):
            compress(_smooth((8, 8)), mode, codec=policy)

    def test_unknown_codec_rejected(self):
        with pytest.raises(InvalidArgumentError):
            compress(_smooth((8, 8)), PweMode(1e-3), codec="best")

    def test_reports_name_routed_codec(self):
        result = compress(_smooth((16, 16)), PweMode(1e-3), codec="fast")
        parsed = parse_container(result.payload)
        assert parsed.codec_tags == (CODEC_SZX,) * len(parsed.streams)


class TestStoreTags:
    @pytest.fixture()
    def mixed_store(self, tmp_path):
        from repro.store import write_store

        data = _smooth((32, 32, 32))
        rough = np.array(data)
        rough[16:] += np.random.default_rng(9).normal(size=rough[16:].shape)
        t = 1e-5 * float(rough.max() - rough.min())
        write_store(
            tmp_path / "s", rough, PweMode(t), chunk_shape=16, codec="adaptive"
        )
        return tmp_path / "s", rough, t

    def test_index_records_mixed_tags(self, mixed_store):
        from repro.store import open_store

        path, rough, t = mixed_store
        arr = open_store(path)
        tags = {t for frame in arr.index.frame_codecs for t in frame}
        assert len(tags) > 1

    def test_full_and_window_reads_honor_bound(self, mixed_store):
        from repro.store import open_store

        path, rough, t = mixed_store
        arr = open_store(path)
        full = np.asarray(arr.read())
        assert float(np.abs(full - rough).max()) <= t
        window = (slice(8, 24),) * 3
        np.testing.assert_array_equal(
            np.asarray(arr.read_window(window)), full[window]
        )

    def test_coarse_preview_of_mixed_frames(self, mixed_store):
        from repro.store import open_store

        path, rough, t = mixed_store
        arr = open_store(path)
        coarse = np.asarray(arr.read(level=1))
        assert coarse.shape == (16, 16, 16)
        assert np.isfinite(coarse).all()

    def test_info_reports_codec_counts(self, mixed_store):
        from repro.store import open_store

        path, _, _ = mixed_store
        info = open_store(path).info()
        counts = info.get("codec_counts")
        assert counts is not None
        assert counts["szx"] > 0
        assert counts["sperr"] > 0
        assert sum(counts.values()) == 8


class TestSpeed:
    """The tiers' speed claims on the seeded 64^3 field, chunk 32: ``fast``
    compresses >= 5x faster than ``quality`` at the same bound, and
    ``adaptive`` is never slower than ``quality``."""

    @pytest.fixture
    def fields(self, miranda):
        smooth = miranda((64, 64, 64))
        span = float(smooth.max() - smooth.min())
        # Heavy noise on one half at a 100x tighter bound: at 1e-3 even
        # noise stays inside szx's width threshold, so only a tight bound
        # gives adaptive a genuine sperr/szx split to route.
        mixed = smooth.copy()
        mixed[32:] += np.random.default_rng(99).normal(0.0, 0.5 * span, (32, 64, 64))
        return {
            "smooth": (smooth, PweMode(1e-3 * span)),
            "mixed": (mixed, PweMode(1e-5 * float(mixed.max() - mixed.min()))),
        }

    @staticmethod
    def _speedup(best_of_3, data, mode, codec):
        # Both tiers in-process: the per-chunk cost ratio, whatever
        # process count ``workers=None`` would pick for this field.
        def run(policy):
            return lambda: compress(
                data, mode, chunk_shape=32, codec=policy, workers=1
            )

        def measure():
            quality, other = best_of_3(run("quality"), run(codec))
            return quality / other

        run(codec)()  # warm-up: the first call imports and plans
        return measure

    def test_fast_tier_at_least_5x_quality(self, fields, best_of_3, at_least):
        measure = self._speedup(best_of_3, *fields["smooth"], "fast")
        at_least(measure, 5.0, "fast vs quality compress speed-up")

    @pytest.mark.parametrize("field", ["smooth", "mixed"])
    def test_adaptive_never_slower_than_quality(
        self, fields, field, best_of_3, at_least
    ):
        data, mode = fields[field]
        payload = compress(data, mode, chunk_shape=32, codec="adaptive").payload
        # The smooth field routes to szx; the mixed one splits sperr/szx.
        want = {CODEC_SZX} if field == "smooth" else {CODEC_SPERR, CODEC_SZX}
        assert set(parse_container(payload).codec_tags) >= want
        measure = self._speedup(best_of_3, data, mode, "adaptive")
        at_least(measure, 1.0, f"adaptive vs quality on the {field} field")
