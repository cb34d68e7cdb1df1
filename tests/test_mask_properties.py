"""Property test: every codec restores masks and dtypes exactly.

Hypothesis sweeps random shapes, dtypes, mask patterns (including the
all-NaN and single-valid-sample edge cases), and PWE levels through all
five codecs, asserting the input-hardening contract:

* the output dtype is *bit-exactly* the input dtype;
* NaN/+Inf/-Inf land exactly where they were in the input — nowhere
  else, never dropped;
* valid samples obey the requested point-wise tolerance.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.compressors import ALL_COMPRESSORS
from repro.compressors.base import PsnrMode, psnr_target_for_idx
from repro.core.modes import PweMode

_SLACK = 1.0 + 1e-9
_PWE_LEVELS = (1e-2, 1e-4)


def _container_codec(name: str) -> str:
    """The ``compress(codec=...)`` value behind a registry name."""
    return {"sperr": "quality", "szx-like": "fast"}.get(name, name)


@st.composite
def masked_arrays(draw):
    """A small array with a drawn non-finite pattern."""
    ndim = draw(st.integers(1, 3))
    shape = tuple(
        draw(st.lists(st.integers(2, 8), min_size=ndim, max_size=ndim))
    )
    if math.prod(shape) > 256:
        shape = tuple(min(s, 4) for s in shape)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    data = rng.normal(size=shape)

    pattern = draw(
        st.sampled_from(
            ["none", "scattered", "block", "inf_mix", "all_nan", "single_valid"]
        )
    )
    flat = data.reshape(-1)
    if pattern == "scattered":
        k = draw(st.integers(1, max(1, flat.size // 4)))
        idx = rng.choice(flat.size, size=k, replace=False)
        flat[idx] = np.nan
    elif pattern == "block":
        cut = tuple(slice(0, max(1, s // 2)) for s in shape)
        data[cut] = np.nan
    elif pattern == "inf_mix":
        flat[0] = np.inf
        flat[-1] = -np.inf
        if flat.size > 2:
            flat[flat.size // 2] = np.nan
    elif pattern == "all_nan":
        flat[:] = np.nan
    elif pattern == "single_valid":
        keep = draw(st.integers(0, flat.size - 1))
        value = flat[keep]
        flat[:] = np.nan
        flat[keep] = value
    return data.astype(dtype), pattern


@pytest.mark.parametrize("name", sorted(ALL_COMPRESSORS))
@given(case=masked_arrays(), level=st.sampled_from(_PWE_LEVELS))
@settings(max_examples=25, deadline=None)
def test_roundtrip_preserves_dtype_and_mask(name, case, level):
    data, pattern = case
    mode = (
        PsnrMode(psnr_target_for_idx(16))
        if name == "tthresh-like"
        else PweMode(level)
    )
    payload = repro.compress(data, mode, codec=_container_codec(name)).payload
    out = repro.decompress(payload)

    assert out.dtype == data.dtype, f"dtype drift on pattern={pattern}"
    assert out.shape == data.shape
    assert np.array_equal(np.isnan(out), np.isnan(data))
    assert np.array_equal(np.isposinf(out), np.isposinf(data))
    assert np.array_equal(np.isneginf(out), np.isneginf(data))

    valid = np.isfinite(data)
    assert np.isfinite(out[valid]).all(), "unflagged non-finite output"
    if isinstance(mode, PweMode) and valid.any():
        err = np.abs(
            out[valid].astype(np.float64) - data[valid].astype(np.float64)
        ).max()
        assert err <= level * _SLACK, f"PWE {err:g} > {level:g} ({pattern})"
