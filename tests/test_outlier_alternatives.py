"""Universal codes and the Sec. II alternative outlier coders of
``tests/outlier_designs.py``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidArgumentError, StreamFormatError
from outlier_designs import (
    bitmap_decode,
    bitmap_encode,
    csr_decode,
    csr_encode,
    delta_decode,
    delta_encode,
    gamma_decode,
    gamma_encode,
    unzigzag,
    zigzag,
)


class TestZigzag:
    def test_known_mapping(self):
        vals = np.array([0, -1, 1, -2, 2, -3])
        assert zigzag(vals).tolist() == [1, 2, 3, 4, 5, 6]

    def test_round_trip(self, rng):
        vals = rng.integers(-(2**40), 2**40, size=500)
        assert np.array_equal(unzigzag(zigzag(vals)), vals)


class TestEliasCodes:
    def test_gamma_known_lengths(self):
        """gamma(1)=1 bit, gamma(2..3)=3 bits, gamma(4..7)=5 bits."""
        for value, bits in ((1, 1), (2, 3), (3, 3), (4, 5), (7, 5), (8, 7)):
            assert gamma_encode(np.asarray([value]))[1] == bits, value

    def test_known_streams(self):
        # gamma: 1 | 010 | 00100;  delta: 1 | 0100 | 01100 (gamma(3), then 00)
        assert gamma_encode(np.array([1, 2, 4])) == (bytes([0b10100010, 0]), 9)
        assert delta_encode(np.array([1, 2, 4])) == (bytes([0b10100011, 0]), 10)

    def test_gamma_round_trip(self, rng):
        vals = rng.integers(1, 10**9, size=300)
        data, nbits = gamma_encode(vals)
        assert np.array_equal(gamma_decode(data, vals.size, nbits), vals)

    def test_delta_round_trip(self, rng):
        vals = rng.integers(1, 10**12, size=300)
        data, nbits = delta_encode(vals)
        assert np.array_equal(delta_decode(data, vals.size, nbits), vals)

    def test_delta_shorter_than_gamma_for_large_values(self, rng):
        vals = rng.integers(2**20, 2**30, size=200)
        assert delta_encode(vals)[1] < gamma_encode(vals)[1]

    def test_small_values_round_trip(self):
        vals = np.arange(1, 40)
        for enc, dec in ((gamma_encode, gamma_decode), (delta_encode, delta_decode)):
            data, nbits = enc(vals)
            assert np.array_equal(dec(data, vals.size, nbits), vals)
            # without ``nbits`` the zero padding of the last byte is ignored
            assert np.array_equal(dec(data, vals.size), vals)

    def test_empty(self):
        for enc, dec in ((gamma_encode, gamma_decode), (delta_encode, delta_decode)):
            assert enc(np.array([], dtype=np.int64)) == (b"", 0)
            assert dec(b"", 0).size == 0

    def test_nonpositive_rejected(self):
        with pytest.raises(InvalidArgumentError):
            gamma_encode(np.asarray([0]))
        with pytest.raises(InvalidArgumentError):
            delta_encode(np.asarray([-3]))

    def test_exhausted_stream_rejected(self):
        with pytest.raises(StreamFormatError):
            gamma_decode(b"", 1, 0)

    @pytest.mark.parametrize("code", ["gamma", "delta"])
    def test_truncated_stream_rejected(self, code, rng):
        enc, dec = (
            (gamma_encode, gamma_decode) if code == "gamma" else (delta_encode, delta_decode)
        )
        vals = rng.integers(1, 2**40, size=20)
        data, nbits = enc(vals)
        for cut in (1, nbits // 2, nbits - 1):
            with pytest.raises(StreamFormatError):
                dec(data, vals.size, cut)
        with pytest.raises(StreamFormatError):
            dec(data[: len(data) // 2], vals.size)

    def test_declared_nbits_longer_than_buffer(self):
        with pytest.raises(StreamFormatError, match="declared 9 bits"):
            gamma_decode(bytes([0x80]), 1, 9)

    @pytest.mark.parametrize("dec", [gamma_decode, delta_decode])
    def test_code_wider_than_int64_rejected(self, dec):
        # 63 zeros announce a 64-bit value, which no int64 holds
        data = np.packbits(np.r_[np.zeros(63, np.uint8), np.ones(64, np.uint8)])
        with pytest.raises(StreamFormatError, match="64-bit value"):
            dec(data.tobytes(), 1)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=2**50), min_size=1, max_size=60))
def test_elias_round_trip_property(values):
    vals = np.asarray(values, dtype=np.int64)
    for enc, dec in ((gamma_encode, gamma_decode), (delta_encode, delta_decode)):
        data, nbits = enc(vals)
        assert np.array_equal(dec(data, vals.size, nbits), vals)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(min_value=2**32, max_value=2**63 - 1), min_size=1, max_size=30)
)
def test_elias_wide_values_round_trip_property(values):
    """Values wider than 32 bits: each code spans several packed fields."""
    vals = np.asarray(values, dtype=np.int64)
    for enc, dec in ((gamma_encode, gamma_decode), (delta_encode, delta_decode)):
        data, nbits = enc(vals)
        assert nbits == sum(_elias_bits(v, enc is delta_encode) for v in values)
        assert np.array_equal(dec(data, vals.size, nbits), vals)


def _elias_bits(value: int, delta: bool) -> int:
    width = value.bit_length()
    if not delta:
        return 2 * width - 1
    return 2 * width.bit_length() - 1 + width - 1


def _outlier_case(seed: int, n: int = 4096, k: int = 150, t: float = 0.25):
    g = np.random.default_rng(seed)
    pos = np.sort(g.choice(n, size=k, replace=False))
    corr = t * (1.0 + 3.0 * g.random(k)) * np.where(g.random(k) < 0.5, -1.0, 1.0)
    return pos, corr, n, t


class TestAlternativeCoders:
    @pytest.mark.parametrize("coder", ["csr", "bitmap"])
    def test_contract_positions_exact_corrections_half_t(self, coder):
        pos, corr, n, t = _outlier_case(5)
        enc = csr_encode if coder == "csr" else bitmap_encode
        dec = csr_decode if coder == "csr" else bitmap_decode
        dpos, dcorr, dt = dec(enc(pos, corr, n, t))
        assert dt == t
        assert np.array_equal(np.sort(dpos), pos)
        order = np.argsort(dpos)
        assert np.abs(dcorr[order] - corr).max() <= t / 2 + 1e-12

    def test_csr_cost_is_position_dominated(self):
        """CSR pays ~log2(n) bits per position — the naive storage the
        paper criticizes."""
        pos, corr, n, t = _outlier_case(6, n=2**20, k=100)
        payload = csr_encode(pos, corr, n, t)
        bits_per = 8 * len(payload) / 100
        assert bits_per >= 20  # 20-bit positions alone

    def test_bitmap_beats_csr_at_moderate_density(self):
        pos, corr, n, t = _outlier_case(7, n=8192, k=250)
        csr = len(csr_encode(pos, corr, n, t))
        bmp = len(bitmap_encode(pos, corr, n, t))
        assert bmp < csr

    def test_truncated_payloads_rejected(self):
        pos, corr, n, t = _outlier_case(8)
        for enc, dec in ((csr_encode, csr_decode), (bitmap_encode, bitmap_decode)):
            payload = enc(pos, corr, n, t)
            with pytest.raises(StreamFormatError):
                dec(payload[:10])
            # cut inside the packed records / Elias codes
            with pytest.raises(StreamFormatError):
                dec(payload[: len(payload) - 40])

    @pytest.mark.parametrize("widths", [(0, 9), (13, 0), (65, 9), (13, 200)])
    def test_csr_forged_field_widths_rejected(self, widths):
        pos, corr, n, t = _outlier_case(9)
        payload = bytearray(csr_encode(pos, corr, n, t))
        payload[24:26] = bytes(widths)
        with pytest.raises(StreamFormatError, match="field widths"):
            csr_decode(bytes(payload))

    @pytest.mark.parametrize("steps", [2.0**62, -(2.0**62)])
    def test_csr_codes_past_int64_zigzag_rejected(self, steps):
        with pytest.raises(InvalidArgumentError):
            csr_encode(np.array([0, 1]), np.array([steps, 3.0]), 4, 1.0)

    def test_csr_position_out_of_range_rejected(self):
        with pytest.raises(InvalidArgumentError):
            csr_encode(np.array([0, 16]), np.array([1.0, 1.0]), 16, 0.25)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=33, max_value=62),
    st.lists(st.floats(min_value=-(2.0**40), max_value=2.0**40), min_size=1, max_size=40),
    st.randoms(use_true_random=False),
)
def test_csr_wide_fields_round_trip_property(log_n, corrections, rnd):
    """Positions and codes wider than 32 bits round-trip exactly."""
    n = 1 << log_n
    pos = np.array(sorted(rnd.sample(range(n), len(corrections))), dtype=np.int64)
    corr = np.asarray(corrections)
    dpos, dcorr, dt = csr_decode(csr_encode(pos, corr, n, 0.5))
    assert np.array_equal(dpos, pos)
    assert np.abs(dcorr - corr).max() <= 0.25
