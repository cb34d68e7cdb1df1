"""Lossless substrate: Huffman, RLE, LZ77, rANS, and the backend selector."""

from __future__ import annotations

import os
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import lossless
from repro.errors import InvalidArgumentError, StreamFormatError
from repro.lossless import bitpack, huffman, lz77, rc, rle


class TestHuffman:
    def test_round_trip_bytes(self, rng):
        data = rng.integers(0, 256, size=5000).astype(np.uint8)
        # skew the distribution so Huffman actually compresses
        data[data < 128] = 7
        code = huffman.build_code(np.bincount(data, minlength=256))
        payload, nbits = huffman.encode(data, code)
        out = huffman.decode(payload, nbits, data.size, code)
        assert np.array_equal(out, data)
        assert nbits < 8 * data.size  # must beat raw storage on skewed data

    def test_single_symbol_alphabet(self):
        data = np.full(100, 42, dtype=np.uint8)
        code = huffman.build_code(np.bincount(data, minlength=256))
        payload, nbits = huffman.encode(data, code)
        assert nbits == 100  # one bit per symbol is the degenerate minimum
        out = huffman.decode(payload, nbits, 100, code)
        assert np.array_equal(out, data)

    def test_empty_input(self):
        code = huffman.build_code(np.zeros(256, dtype=np.int64))
        payload, nbits = huffman.encode(np.zeros(0, dtype=np.uint8), code)
        assert payload == b"" and nbits == 0
        assert huffman.decode(b"", 0, 0, code).size == 0

    def test_kraft_inequality_holds(self, rng):
        freqs = rng.integers(0, 1000, size=300)
        code = huffman.build_code(freqs)
        used = code.lengths[code.lengths > 0].astype(np.float64)
        assert np.sum(2.0**-used) <= 1.0 + 1e-12

    def test_code_lengths_ordered_by_frequency(self):
        freqs = np.array([1000, 100, 10, 1])
        code = huffman.build_code(freqs)
        lengths = code.lengths
        assert lengths[0] <= lengths[1] <= lengths[2]

    def test_symbol_without_code_rejected(self):
        code = huffman.build_code(np.array([5, 5, 0]))
        with pytest.raises(InvalidArgumentError):
            huffman.encode(np.array([2]), code)

    def test_codebook_serialization_round_trip(self, rng):
        freqs = rng.integers(0, 50, size=256)
        code = huffman.build_code(freqs)
        blob = huffman.serialize_code(code)
        restored, consumed = huffman.deserialize_code(blob + b"extra")
        assert consumed == len(blob)
        assert np.array_equal(restored.lengths, code.lengths)
        assert np.array_equal(restored.codes, code.codes)

    def test_truncated_codebook_rejected(self):
        with pytest.raises(StreamFormatError):
            huffman.deserialize_code(b"\x01")

    def test_decode_truncated_stream_rejected(self, rng):
        data = rng.integers(0, 4, size=64).astype(np.uint8)
        code = huffman.build_code(np.bincount(data, minlength=256))
        payload, nbits = huffman.encode(data, code)
        with pytest.raises(StreamFormatError):
            huffman.decode(payload, nbits, data.size + 10, code)

    def test_large_alphabet(self, rng):
        symbols = rng.integers(0, 60000, size=2000)
        freqs = np.bincount(symbols, minlength=65536)
        code = huffman.build_code(freqs)
        payload, nbits = huffman.encode(symbols, code)
        out = huffman.decode(payload, nbits, symbols.size, code)
        assert np.array_equal(out, symbols)

    def test_over_subscribed_code_book_rejected(self):
        # Three 1-bit codes (Kraft sum 1.5) cannot form a prefix code.
        lengths = np.zeros(9, dtype=np.uint8)
        lengths[6:] = 1
        code, _ = huffman.deserialize_code(
            huffman.serialize_code(huffman.HuffmanCode(lengths, lengths.astype(np.uint32)))
        )
        with pytest.raises(StreamFormatError, match="over-subscribed"):
            huffman.decode(bytes([0b01011000]), 5, 5, code)

    def test_lowered_symbol_count_rejected(self, rng):
        data = bytes(rng.integers(0, 16, size=1000).astype(np.uint8))
        section = bytearray(lossless.compress(data, method="huffman"))
        assert section[0] == 2
        section[1:9] = struct.pack("<Q", 900)
        with pytest.raises(StreamFormatError, match="length mismatch"):
            lossless.decompress(bytes(section))


def _reference_decode(data, nbits, nsymbols, code):
    """The per-symbol decoder :func:`huffman.decode` replaced: canonical
    codes assigned one symbol at a time, the window table filled one code
    word at a time, and the code-length chain walked with a bounds check
    per symbol.  Kept as the oracle for the vectorized decoder."""
    if nsymbols == 0:
        return np.zeros(0, dtype=np.int64)
    if nbits > len(data) * 8:
        raise StreamFormatError("huffman stream shorter than declared")
    lengths = code.lengths
    codes = {}
    value = prev_len = 0
    for sym in np.lexsort((np.arange(lengths.size), lengths)).tolist():
        length = int(lengths[sym])
        if length:
            value <<= length - prev_len
            codes[sym] = value
            value += 1
            prev_len = length
    if not codes:
        raise StreamFormatError("empty code book")
    max_len = int(lengths.max())
    table_sym = np.full(1 << max_len, -1, dtype=np.int32)
    table_len = np.zeros(1 << max_len, dtype=np.uint8)
    for sym, value in codes.items():
        length = int(lengths[sym])
        base = value << (max_len - length)
        span = 1 << (max_len - length)
        table_sym[base : base + span] = sym
        table_len[base : base + span] = length

    nbytes = (nbits + 7) >> 3
    buf = np.frombuffer(data, dtype=np.uint8, count=nbytes).copy()
    if nbits & 7:
        buf[-1] &= 0xFF << (8 - (nbits & 7)) & 0xFF
    windows = bitpack.byte_windows(buf)
    win = bitpack.extract_msb(windows, np.arange(nbits, dtype=np.int64), max_len)
    sym_at = table_sym[win]
    steps = table_len[win].tolist()
    positions = []
    pos = 0
    for _ in range(nsymbols):
        if pos >= nbits:
            raise StreamFormatError("huffman stream exhausted mid-symbol")
        positions.append(pos)
        pos += steps[pos]
    out = sym_at[positions].astype(np.int64)
    if out.min(initial=0) < 0:
        raise StreamFormatError("invalid huffman code word")
    return out


def _check_decode_against_reference(alphabet, book, seed, corruption):
    """Encode a random message under a code book of the given kind, damage
    it, and compare :func:`huffman.decode` with :func:`_reference_decode`.

    An undamaged stream decodes to the message.  Where the reference
    returns, the decoder returns the same symbols or (only for bits left
    after the last symbol) raises; where the reference raises, the
    decoder raises :class:`StreamFormatError`.
    """
    rng = np.random.default_rng(seed)
    freqs = np.zeros(alphabet, dtype=np.int64)
    if book == "single":
        freqs[rng.integers(alphabet)] = 1
    elif book == "deep":
        # Fibonacci weights give the deepest trees: 26 or more leaves
        # need codes past 24 bits, which the encoder length-limits.
        fib = [1, 1]
        while len(fib) < min(alphabet, 40):
            fib.append(fib[-1] + fib[-2])
        freqs[rng.permutation(alphabet)[: len(fib)]] = fib[:alphabet]
    else:
        freqs[:] = rng.integers(0, 1000, size=alphabet)
        freqs[rng.integers(alphabet)] += 1
    code = huffman.build_code(freqs)
    used = np.flatnonzero(freqs)
    symbols = rng.choice(used, size=int(rng.integers(1, 400)))
    payload, nbits = huffman.encode(symbols, code)
    nsymbols = symbols.size
    if corruption == "flip":
        buf = bytearray(payload)
        for bit in rng.integers(0, nbits, size=int(rng.integers(1, 4))).tolist():
            buf[bit >> 3] ^= 0x80 >> (bit & 7)
        payload = bytes(buf)
    elif corruption == "shorten":
        nbits = int(rng.integers(0, nbits))
    elif corruption == "raise":
        nsymbols += int(rng.integers(1, 20))

    try:
        expected = _reference_decode(payload, nbits, nsymbols, code)
    except StreamFormatError:
        expected = None
    try:
        got = huffman.decode(payload, nbits, nsymbols, code)
    except StreamFormatError as exc:
        assert corruption != "none"
        assert expected is None or str(exc) == "huffman stream length mismatch"
        return
    assert expected is not None
    np.testing.assert_array_equal(got, expected)
    if corruption == "none":
        np.testing.assert_array_equal(got, symbols)


_REFERENCE_CASES = dict(
    alphabet=st.integers(1, 300),
    book=st.sampled_from(["random", "single", "deep"]),
    seed=st.integers(0, 2**32 - 1),
    corruption=st.sampled_from(["none", "flip", "shorten", "raise"]),
)


@settings(max_examples=40, deadline=None)
@given(**_REFERENCE_CASES)
@example(alphabet=300, book="deep", seed=0, corruption="none")  # 24-bit codes
@example(alphabet=1, book="single", seed=0, corruption="raise")
def test_decode_matches_reference_walk(alphabet, book, seed, corruption):
    _check_decode_against_reference(alphabet, book, seed, corruption)


@pytest.mark.fuzz
@pytest.mark.skipif(
    os.environ.get("REPRO_FUZZ_DEEP") != "1",
    reason="deep fuzz is opt-in: set REPRO_FUZZ_DEEP=1 and run -m fuzz",
)
@settings(max_examples=int(os.environ.get("REPRO_FUZZ_N", "500")), deadline=None)
@given(**_REFERENCE_CASES)
def test_decode_matches_reference_walk_deep(alphabet, book, seed, corruption):
    """The same property at campaign depth (``REPRO_FUZZ_N`` examples)."""
    _check_decode_against_reference(alphabet, book, seed, corruption)


class TestRle:
    def test_round_trip_runs(self):
        data = b"\x00" * 1000 + b"\x01\x02\x03" + b"\xff" * 300
        assert rle.decode(rle.encode(data)) == data
        assert len(rle.encode(data)) < len(data)

    def test_empty(self):
        assert rle.decode(rle.encode(b"")) == b""

    def test_run_longer_than_255(self):
        data = b"a" * 1000
        assert rle.decode(rle.encode(data)) == data

    def test_incompressible_expands_but_round_trips(self, rng):
        data = bytes(rng.integers(0, 256, size=500).astype(np.uint8))
        assert rle.decode(rle.encode(data)) == data

    def test_corrupt_stream_rejected(self):
        with pytest.raises(StreamFormatError):
            rle.decode(b"\x01")
        with pytest.raises(StreamFormatError):
            rle.decode(rle.encode(b"abc")[:-1])


class TestLz77:
    def test_round_trip_repetitive(self):
        data = b"the quick brown fox " * 50
        enc = lz77.encode(data)
        assert lz77.decode(enc) == data
        assert len(enc) < len(data)

    def test_round_trip_random(self, rng):
        data = bytes(rng.integers(0, 256, size=2000).astype(np.uint8))
        assert lz77.decode(lz77.encode(data)) == data

    def test_empty(self):
        assert lz77.decode(lz77.encode(b"")) == b""

    def test_overlapping_match(self):
        data = b"abcabcabcabcabcabcabcabc"
        assert lz77.decode(lz77.encode(data)) == data

    def test_truncated_rejected(self):
        with pytest.raises(StreamFormatError):
            lz77.decode(b"\x00" * 8)


class TestBitpack:
    def test_pack_extract_round_trip(self, rng):
        widths = rng.integers(1, 26, size=500).astype(np.int64)
        values = rng.integers(0, 1 << 25, size=500).astype(np.uint64) & (
            (np.uint64(1) << widths.astype(np.uint64)) - np.uint64(1)
        )
        packed, nbits = bitpack.pack_msb(values, widths)
        assert nbits == int(widths.sum())
        assert len(packed) == (nbits + 7) >> 3
        windows = bitpack.byte_windows(packed)
        offsets = np.concatenate(([0], np.cumsum(widths)[:-1]))
        out = bitpack.extract_msb(windows, offsets, widths)
        np.testing.assert_array_equal(out, values)

    def test_pack_matches_manual_bitstring(self):
        values = np.array([0b101, 0b1, 0b11010], dtype=np.uint64)
        lengths = np.array([3, 1, 5], dtype=np.int64)
        packed, nbits = bitpack.pack_msb(values, lengths)
        assert nbits == 9
        assert packed == bytes([0b10111101, 0b00000000])

    def test_empty_pack(self):
        packed, nbits = bitpack.pack_msb(
            np.array([], dtype=np.uint64), np.array([], dtype=np.int64)
        )
        assert packed == b"" and nbits == 0

    def test_rejects_oversized_width(self):
        with pytest.raises(InvalidArgumentError):
            bitpack.pack_msb(
                np.array([1], dtype=np.uint64), np.array([33], dtype=np.int64)
            )

    def test_bit_windows_match_extract_at_every_offset(self, rng):
        data = bytes(rng.integers(0, 256, size=37).astype(np.uint8))
        windows = bitpack.byte_windows(data)
        for width in (0, 1, 9, 24, 25):
            for nbits in (0, 291, 8 * len(data)):
                expected = bitpack.extract_msb(windows, np.arange(nbits), width)
                got = bitpack.bit_windows(data, nbits, width)
                assert got.dtype == np.intp
                np.testing.assert_array_equal(got, expected)


class TestRangeCoder:
    def test_round_trip_skewed(self, rng):
        data = np.minimum(rng.geometric(0.3, size=20000) - 1, 255)
        data = data.astype(np.uint8).tobytes()
        payload = rc.encode(data)
        assert rc.decode(payload) == data

    def test_round_trip_uniform(self, rng):
        data = bytes(rng.integers(0, 256, size=5000).astype(np.uint8))
        assert rc.decode(rc.encode(data)) == data

    def test_empty_and_single_byte(self):
        assert rc.decode(rc.encode(b"")) == b""
        assert rc.decode(rc.encode(b"a")) == b"a"
        assert rc.decode(rc.encode(b"a" * 10000)) == b"a" * 10000

    def test_encode_is_deterministic(self, rng):
        data = bytes(rng.integers(0, 16, size=4096).astype(np.uint8))
        assert rc.encode(data) == rc.encode(data)

    def test_budget_abort_returns_none(self, rng):
        data = bytes(rng.integers(0, 256, size=8192).astype(np.uint8))
        assert rc.encode(data, max_bytes=100) is None

    def test_near_entropy_on_skewed_data(self, rng):
        """The static coder must land close to the order-0 entropy bound."""
        data = np.minimum(rng.geometric(0.25, size=1 << 16) - 1, 255).astype(np.uint8)
        counts = np.bincount(data, minlength=256)
        p = counts[counts > 0] / data.size
        entropy_bytes = float(-(p * np.log2(p)).sum()) * data.size / 8
        payload = rc.encode(data.tobytes())
        overhead = 9 + 384 + 4 * 2 + 4  # header + freq table + states + count
        # 12-bit frequency quantization costs a few percent on a long
        # geometric tail; 5% headroom keeps the bound meaningful.
        assert len(payload) <= entropy_bytes * 1.05 + overhead + 64

    def test_truncated_rejected(self, rng):
        data = bytes(rng.integers(0, 8, size=4096).astype(np.uint8))
        payload = rc.encode(data)
        for cut in (0, 5, 9, 200, len(payload) - 1):
            with pytest.raises(StreamFormatError):
                rc.decode(payload[:cut])

    def test_bit_flip_detected_or_garbage_sized(self, rng):
        """Final-state and word-consumption checks make damage loud: a
        flipped byte either raises or still yields exactly n bytes."""
        data = bytes(rng.integers(0, 8, size=4096).astype(np.uint8))
        payload = bytearray(rc.encode(data))
        for pos in (10, 400, len(payload) // 2, len(payload) - 3):
            bad = bytearray(payload)
            bad[pos] ^= 0x40
            try:
                out = rc.decode(bytes(bad))
                assert len(out) == len(data)
            except StreamFormatError:
                pass


class TestBackend:
    @pytest.mark.parametrize(
        "method",
        ["stored", "rle", "huffman", "rle+huffman", "lz77", "ac", "rc", "auto"],
    )
    def test_round_trip_all_methods(self, method, rng):
        data = bytes(rng.integers(0, 8, size=3000).astype(np.uint8))
        assert lossless.decompress(lossless.compress(data, method=method)) == data

    def test_auto_never_worse_than_stored_plus_tag(self, rng):
        data = bytes(rng.integers(0, 256, size=4096).astype(np.uint8))
        assert len(lossless.compress(data, method="auto")) <= len(data) + 1

    def test_auto_compresses_structured_data(self):
        data = b"\x00" * 4000 + b"\x01" * 100
        assert len(lossless.compress(data, method="auto")) < len(data) // 10

    def test_empty_payload_rejected(self):
        with pytest.raises(StreamFormatError):
            lossless.decompress(b"")

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidArgumentError):
            lossless.compress(b"abc", method="zstd")

    def test_unknown_tag_rejected(self):
        with pytest.raises(StreamFormatError):
            lossless.decompress(bytes([200]) + b"xx")

    def test_empty_data_round_trips(self):
        for method in lossless.METHODS:
            assert lossless.decompress(lossless.compress(b"", method=method)) == b""

    def test_byte_section_rejects_wide_code_book(self):
        # A tag-2 section is a byte stream; symbol 299 must not wrap to 43.
        freqs = np.zeros(300, dtype=np.int64)
        freqs[[5, 299]] = [1, 2]
        code = huffman.build_code(freqs)
        payload, nbits = huffman.encode(np.array([299, 5, 299]), code)
        section = (
            bytes([2]) + struct.pack("<QQ", 3, nbits)
            + huffman.serialize_code(code) + payload
        )
        with pytest.raises(StreamFormatError, match="300-symbol code book"):
            lossless.decompress(section)


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=1500))
def test_backend_auto_round_trip_property(data):
    assert lossless.decompress(lossless.compress(data, method="auto")) == data


@settings(max_examples=25, deadline=None)
@given(st.binary(max_size=600))
def test_lz77_round_trip_property(data):
    assert lz77.decode(lz77.encode(data)) == data
