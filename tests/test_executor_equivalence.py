"""Worker byte-identity: in-process and process-pool runs produce the
same bits.

Paper Sec. III-D: chunk parallelism must not change the bitstream — the
chunks are independent and results are concatenated deterministically.
These tests pin that contract for every baseline codec tag and for the
shared-memory volume the pool tasks read;
``tests/test_parallel_default.py`` covers the SPERR tiers, the modes and
``workers=None``.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.core import PweMode, compress, decompress
from repro.core.chunking import plan_chunks
from repro.core.parallel import SharedArray, robust_chunk_map
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


def _region_bytes(arr: np.ndarray, bounds, scale: float) -> bytes:
    return (arr[tuple(slice(a, b) for a, b in bounds)] * scale).tobytes()


def _chunk_checksum(item: tuple, scale: float) -> bytes:
    """Picklable probe: byte-exact view of the chunk a task received."""
    ref, bounds = item
    return SharedArray.call(ref, _region_bytes, bounds, scale)


class TestSharedMemoryPath:
    def test_process_workers_see_exact_chunk_bytes(self, volume):
        chunks = plan_chunks(volume.shape, 20)
        serial = [_region_bytes(volume, c.bounds, 1.0) for c in chunks]
        with SharedArray(volume.shape, volume.dtype) as shared:
            np.copyto(shared.array, volume)
            via_shm, notes = robust_chunk_map(
                partial(_chunk_checksum, scale=1.0),
                [(shared.ref, c.bounds) for c in chunks],
                workers=2,
            )
        assert via_shm == serial
        assert notes == []

    def test_non_contiguous_input(self):
        base = np.arange(2 * 24 * 24 * 24, dtype=np.float64).reshape(2, 24, 24, 24)
        view = base[1, :, ::-1]  # non-owning, negatively strided view
        mode = PweMode(1e-2)
        serial = compress(view, mode, chunk_shape=12, workers=1).payload
        pooled = compress(view, mode, chunk_shape=12, workers=2).payload
        assert pooled == serial
