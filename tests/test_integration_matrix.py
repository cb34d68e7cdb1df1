"""Integration matrix: the PWE guarantee across every configuration axis.

Each axis of the public API is exercised in combination — wavelet
choice, rank, chunking, workers, lossless method, q-factor — on small
inputs, asserting the one invariant that defines SPERR.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.modes import PweMode
from repro.datasets import spectral_field


def _field(rank: int) -> np.ndarray:
    shape = {1: (60,), 2: (18, 14), 3: (10, 12, 8)}[rank]
    return spectral_field(shape, slope=2.5, seed=rank)


@pytest.mark.parametrize("wavelet", ["cdf97", "cdf53", "haar"])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_wavelet_rank_matrix(wavelet, rank):
    data = _field(rank)
    t = repro.tolerance_from_idx(data, 13)
    res = repro.compress(data, PweMode(t), wavelet=wavelet)
    recon = repro.decompress(res.payload)
    assert np.abs(recon - data).max() <= t


@pytest.mark.parametrize("lossless_method", ["auto", "stored", "huffman", "rc"])
def test_lossless_method_matrix(lossless_method):
    data = _field(2)
    t = repro.tolerance_from_idx(data, 13)
    res = repro.compress(data, PweMode(t), lossless_method=lossless_method)
    recon = repro.decompress(res.payload)
    assert np.abs(recon - data).max() <= t


@pytest.mark.parametrize(
    "workers", [pytest.param(None, id="serial"), pytest.param(2, id="process")]
)
@pytest.mark.parametrize("chunk", [6, (9, 7)])
def test_chunk_executor_matrix(workers, chunk):
    data = _field(2)
    t = repro.tolerance_from_idx(data, 13)
    res = repro.compress(data, PweMode(t), chunk_shape=chunk, workers=workers)
    recon = repro.decompress(res.payload, workers=workers)
    assert np.abs(recon - data).max() <= t


@pytest.mark.parametrize("q_factor", [1.0, 1.5, 2.5])
@pytest.mark.parametrize("levels", [None, 1])
def test_q_levels_matrix(q_factor, levels):
    data = _field(3)
    t = repro.tolerance_from_idx(data, 13)
    res = repro.compress(data, PweMode(t, q_factor=q_factor), levels=levels)
    recon = repro.decompress(res.payload)
    assert np.abs(recon - data).max() <= t


@pytest.mark.parametrize("idx", [2, 13, 26])
def test_tolerance_extremes(idx):
    data = _field(3)
    t = repro.tolerance_from_idx(data, idx)
    res = repro.compress(data, PweMode(t))
    recon = repro.decompress(res.payload)
    assert np.abs(recon - data).max() <= t
    # looser tolerance can never cost more bits
    if idx > 2:
        loose = repro.compress(data, PweMode(repro.tolerance_from_idx(data, 2)))
        assert loose.nbytes <= res.nbytes
