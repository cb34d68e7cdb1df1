"""Adaptive binary arithmetic decoder (lossless tag 5, decode-only).

Nothing encodes tag 5 any more.  Its decoder is pinned by the golden
fixture ``tests/data/lossless_ac.bin`` (hash and decoded bytes in
``tests/test_lossless_golden.py``) and by the few-byte streams below,
which the retired encoder wrote.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import lossless
from repro.errors import InvalidArgumentError, ReproError, StreamFormatError
from repro.lossless import arith
from repro.lossless.arith import decode_bits

FIXTURE = Path(__file__).parent / "data" / "lossless_ac.bin"


def _zero_context(i: int, prev: int) -> int:
    return 0


class TestBitsApi:
    def test_empty_bits(self):
        # The retired encoder's stream for zero bits was b"\x40".
        assert decode_bits(b"\x40", 0, 1, _zero_context).size == 0

    def test_single_bit(self):
        # ...and b"\x20" / b"\xa0" for a lone 0 / 1 bit in one context.
        for stream, bit in ((b"\x20", 0), (b"\xa0", 1)):
            assert decode_bits(stream, 1, 1, _zero_context).tolist() == [bit]


class TestByteApi:
    def test_empty(self):
        assert arith.decode(bytes(8) + b"\x40") == b""

    def test_truncated_rejected(self):
        with pytest.raises(StreamFormatError):
            arith.decode(b"\x01")

    def test_backend_integration(self):
        payload = FIXTURE.read_bytes()
        assert payload[0] == 5
        assert lossless.decompress(payload) == arith.decode(payload[1:])
        assert "ac" not in lossless.METHODS
        with pytest.raises(InvalidArgumentError):
            lossless.compress(b"abc", method="ac")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=FIXTURE.stat().st_size - 1))
def test_fixture_prefix_decodes_or_raises(cut):
    """A cut-off tag-5 payload raises a typed error or decodes to the
    declared length (missing input reads as zeros)."""
    payload = FIXTURE.read_bytes()[:cut]
    try:
        out = lossless.decompress(payload)
    except ReproError:
        return
    assert len(out) == len(lossless.decompress(FIXTURE.read_bytes()))
