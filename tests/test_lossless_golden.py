"""Golden-stream compatibility: every legacy lossless tag stays decodable.

The fixtures under ``tests/data/`` were produced by the pre-vectorization
encoders (tags 1-5) and by the first range-coder release (tag 6), and are
pinned byte-for-byte via SHA-256.  The current decoders must reproduce
the golden input from each of them forever — these files are the contract
that lets old containers decode on new trees.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro import lossless
from repro.errors import InvalidArgumentError

DATA = Path(__file__).parent / "data"

#: fixture file -> (expected sha256, expected leading method tag).
#: Regenerating a fixture is a format break and must be a deliberate,
#: reviewed change — hence the hard pins.
FIXTURES = {
    "lossless_rle.bin": (
        "2086383aaba2cb097f93dd4ec2dc0d72768f36cd15f37189e85edad95e94275b", 1,
    ),
    "lossless_huffman.bin": (
        "262aac92e89177128385260b8d3e270fa6fcc831eaecfcbd12a54685dc957ac9", 2,
    ),
    "lossless_rle_huffman.bin": (
        "e69d0d02f73107b08959f86cbde74c85ac5f88e374762f2e7b8e158b5f8b6319", 3,
    ),
    "lossless_lz77.bin": (
        "0ff6ae379a651d5ef6280b882d92c486b9d64b01b7c850066e39675764ae576a", 4,
    ),
    "lossless_ac.bin": (
        "d18d761ab7701985f26b39352081a60d8bdd367102108458d51383472bf9b2f7", 5,
    ),
    "lossless_rc.bin": (
        "04ed36a4b929ed555462403d249539aeff24597a0962bfe3c91e0be8b9d112a7", 6,
    ),
}

GOLDEN_INPUT_SHA = "a7f813014640dfa4d19401bbaf45171261b9727e1d0ef33a2fff1ecb2b586bb2"


@pytest.fixture(scope="module")
def golden_input() -> bytes:
    raw = (DATA / "lossless_golden_input.bin").read_bytes()
    assert hashlib.sha256(raw).hexdigest() == GOLDEN_INPUT_SHA
    return raw


class TestGoldenStreams:
    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture_pinned(self, name):
        payload = (DATA / name).read_bytes()
        sha, tag = FIXTURES[name]
        assert hashlib.sha256(payload).hexdigest() == sha, (
            f"{name} changed on disk - legacy fixtures must never be regenerated"
        )
        assert payload[0] == tag

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture_decodes_byte_identically(self, name, golden_input):
        payload = (DATA / name).read_bytes()
        assert lossless.decompress(payload) == golden_input

    def test_rc_encode_is_deterministic(self, golden_input):
        """Tag 6 is static (no adaptive state), so encoding the golden
        input today must reproduce the pinned fixture exactly."""
        assert lossless.compress(golden_input, method="rc") == (
            DATA / "lossless_rc.bin"
        ).read_bytes()

    def test_auto_never_emits_legacy_ac(self, golden_input):
        """``auto`` output stays within the supported-encoder tag set:
        RLE (tag 1), RLE+Huffman (tag 3) and the per-bit adaptive coder
        (tag 5) are decode-only now.  ``runs`` (runs of 64 over four
        values) is an input tags 3 and then 1 used to win on; it now
        goes to LZ77."""
        runs = bytes(b for b in bytes(range(4)) * 16 for _ in range(64))
        for data in (golden_input, runs):
            assert lossless.compress(data, method="auto")[0] not in (1, 3, 5)
        assert lossless.compress(runs, method="auto")[0] == 4

    def test_rle_huffman_is_decode_only(self, golden_input):
        assert "rle+huffman" not in lossless.METHODS
        with pytest.raises(InvalidArgumentError):
            lossless.compress(golden_input, method="rle+huffman")

    def test_rle_is_decode_only(self, golden_input):
        assert "rle" not in lossless.METHODS
        with pytest.raises(InvalidArgumentError):
            lossless.compress(golden_input, method="rle")
