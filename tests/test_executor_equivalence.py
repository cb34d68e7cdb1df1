"""Worker byte-identity: in-process and process-pool runs produce the
same bits.

Paper Sec. III-D: chunk parallelism must not change the bitstream — the
chunks are independent and results are concatenated deterministically.
These tests pin that contract for the SPERR container, including the
baseline codec tags and the shared-memory process path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import PweMode, compress, decompress
from repro.core.chunking import plan_chunks
from repro.core.parallel import map_chunk_arrays
from repro.compressors import PsnrMode
from repro.core.adaptive import BASELINE_TAGS

#: ``workers`` settings by the execution they select.
WORKERS = [pytest.param(None, id="serial"), pytest.param(2, id="process")]


@pytest.fixture(scope="module")
def volume():
    rng = np.random.default_rng(17)
    x = np.linspace(0.0, 4.0 * np.pi, 40)
    field = np.sin(x)[:, None, None] * np.cos(x)[None, :, None] * x[None, None, :]
    return field + 0.05 * rng.normal(size=(40, 40, 40))


class TestSperrContainerEquivalence:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_payload_and_reconstruction_match_serial(self, volume, workers):
        mode = PweMode(1e-3)
        serial = compress(volume, mode, chunk_shape=20)
        other = compress(volume, mode, chunk_shape=20, workers=workers)
        assert other.payload == serial.payload
        rec_serial = decompress(serial.payload)
        rec_other = decompress(other.payload, workers=workers)
        np.testing.assert_array_equal(rec_other, rec_serial)
        assert np.max(np.abs(rec_serial - volume)) <= mode.tolerance


class TestBaselineEquivalence:
    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("codec", sorted(BASELINE_TAGS))
    def test_matches_serial(self, volume, codec, workers):
        mode = PsnrMode(60.0) if codec == "tthresh-like" else PweMode(1e-2)
        serial = compress(volume, mode, codec=codec, chunk_shape=20).payload
        other = compress(
            volume, mode, codec=codec, chunk_shape=20, workers=workers
        ).payload
        assert other == serial
        np.testing.assert_array_equal(
            decompress(other, workers=workers), decompress(serial)
        )


def _chunk_checksum(part: np.ndarray, scale: float) -> bytes:
    """Picklable probe: byte-exact view of the chunk a worker received."""
    return (part * scale).tobytes()


class TestSharedMemoryPath:
    def test_process_workers_see_exact_chunk_bytes(self, volume):
        chunks = plan_chunks(volume.shape, 20)
        serial = map_chunk_arrays(_chunk_checksum, volume, chunks, args=(1.0,))
        via_shm = map_chunk_arrays(
            _chunk_checksum, volume, chunks, args=(1.0,), workers=2
        )
        assert via_shm == serial

    def test_non_contiguous_input(self):
        base = np.arange(2 * 24 * 24 * 24, dtype=np.float64).reshape(2, 24, 24, 24)
        view = base[1]  # non-owning slice of a larger allocation
        chunks = plan_chunks(view.shape, 12)
        serial = map_chunk_arrays(_chunk_checksum, view, chunks, args=(2.0,))
        via_shm = map_chunk_arrays(
            _chunk_checksum, view, chunks, args=(2.0,), workers=2
        )
        assert via_shm == serial
