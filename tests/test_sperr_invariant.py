"""The paper's core claim, as executable properties.

SPERR's defining guarantee (Sec. IV): for any input and any positive
tolerance t, the reconstruction never deviates from the original by more
than t at any point.  These hypothesis tests throw arbitrary fields,
shapes, tolerances, q-factors, and chunkings at the full pipeline.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core.modes import PweMode, SizeMode

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _field(seed: int, shape: tuple[int, ...], scale: float, roughness: float) -> np.ndarray:
    g = np.random.default_rng(seed)
    base = g.standard_normal(shape)
    if roughness < 1.0 and all(n >= 4 for n in shape):
        from scipy.ndimage import gaussian_filter

        base = gaussian_filter(base, sigma=1.0 / max(roughness, 0.1))
    return scale * base


@_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    shape=st.sampled_from([(64,), (129,), (16, 24), (13, 17), (8, 8, 8), (6, 10, 7)]),
    idx=st.integers(min_value=1, max_value=28),
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
    roughness=st.sampled_from([0.2, 1.0]),
)
def test_pwe_guarantee_holds(seed, shape, idx, scale, roughness):
    data = _field(seed, shape, scale, roughness)
    rng = float(data.max() - data.min())
    if rng == 0.0:
        return
    t = rng / 2**idx
    result = repro.compress(data, PweMode(t))
    recon = repro.decompress(result.payload)
    assert np.abs(recon - data).max() <= t, "PWE guarantee violated"


@_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    q_factor=st.floats(min_value=1.0, max_value=3.0),
)
def test_pwe_guarantee_holds_for_any_q_factor(seed, q_factor):
    """Sec. IV-D: the q/t balance shifts storage, never the guarantee."""
    data = _field(seed, (12, 12, 12), 1.0, 1.0)
    t = float(data.max() - data.min()) / 2**16
    result = repro.compress(data, PweMode(t, q_factor=q_factor))
    recon = repro.decompress(result.payload)
    assert np.abs(recon - data).max() <= t


@_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    chunk=st.integers(min_value=5, max_value=20),
)
def test_pwe_guarantee_holds_under_chunking(seed, chunk):
    data = _field(seed, (24, 24), 1.0, 0.2)
    rng = float(data.max() - data.min())
    if rng == 0.0:
        return
    t = rng / 2**14
    result = repro.compress(data, PweMode(t), chunk_shape=chunk)
    recon = repro.decompress(result.payload)
    assert np.abs(recon - data).max() <= t


@_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    bpp=st.floats(min_value=0.5, max_value=12.0),
)
def test_size_mode_respects_budget(seed, bpp):
    """Size-bounded termination: output never exceeds the requested rate
    (plus the fixed container header amortized over the chunk)."""
    data = _field(seed, (16, 16, 16), 1.0, 1.0)
    result = repro.compress(data, SizeMode(bpp=bpp))
    container_overhead_bits = 8.0 * 120 / data.size
    assert result.bpp <= bpp + container_overhead_bits + 0.05
    recon = repro.decompress(result.payload)
    assert recon.shape == data.shape
    assert np.all(np.isfinite(recon))


def test_decompress_is_deterministic(smooth_field):
    t = repro.tolerance_from_idx(smooth_field, 18)
    payload = repro.compress(smooth_field, PweMode(t)).payload
    a = repro.decompress(payload)
    b = repro.decompress(payload)
    np.testing.assert_array_equal(a, b)


def test_compress_is_deterministic(smooth_field):
    t = repro.tolerance_from_idx(smooth_field, 18)
    p1 = repro.compress(smooth_field, PweMode(t)).payload
    p2 = repro.compress(smooth_field, PweMode(t)).payload
    assert p1 == p2
