"""Property-based round-trip sweep across every codec.

Hypothesis drives random shapes (1-D to 3-D), dtypes, data characters,
and tolerances through SPERR and the four baseline reimplementations,
asserting the three contracts the paper's pipeline rests on:

* **error bound** — PWE-mode codecs reconstruct within the requested
  point-wise tolerance, whatever the input looks like;
* **container identity** — parsing a container and rebuilding it from
  its parts reproduces the payload byte for byte;
* **truncation** — a payload cut at any point either raises a
  :class:`~repro.errors.ReproError` (plain decode *and* salvage, when
  the framing itself is gone) or salvages to a correctly shaped
  :class:`~repro.core.container.DecodeResult` — never an unchecked
  exception, never a wrong-shaped array.

The sweep is budgeted to stay well under a minute: arrays are capped at
a few hundred points and example counts are modest; the seeds Hypothesis
prints on failure reproduce any case exactly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compressors import ALL_COMPRESSORS
from repro.compressors.base import PsnrMode
from repro.core import PweMode, compress, decompress
from repro.core.container import DecodeResult, build_container, parse_container
from repro.errors import ReproError

#: Per-point tolerance slack: float64 accumulation in the inverse
#: transform can graze the bound by a few ulps.
_SLACK = 1.0 + 1e-9

_PWE_CODECS = ("sperr", "sz-like", "zfp-like", "mgard-like", "szx-like")


@st.composite
def arrays(draw):
    """A small random array: 1-3 dims, mixed dtype and data character."""
    ndim = draw(st.integers(1, 3))
    shape = tuple(
        draw(st.lists(st.integers(1, 10), min_size=ndim, max_size=ndim))
    )
    if math.prod(shape) > 400:
        shape = tuple(min(s, 5) for s in shape)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    kind = draw(st.sampled_from(["normal", "constant", "ramp", "spiky"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if kind == "constant":
        data = np.full(shape, float(rng.normal()))
    elif kind == "ramp":
        data = np.arange(math.prod(shape), dtype=np.float64).reshape(shape)
    elif kind == "spiky":
        data = rng.normal(size=shape)
        flat = data.reshape(-1)
        n_spikes = max(1, flat.size // 10)
        flat[rng.integers(0, flat.size, size=n_spikes)] *= 100.0
    else:
        data = rng.normal(size=shape)
    return np.ascontiguousarray(data.astype(dtype))


tolerances = st.sampled_from([1e-1, 1e-2, 1e-3])


@pytest.mark.parametrize("name", _PWE_CODECS)
@settings(max_examples=25, deadline=None)
@given(data=arrays(), tol=tolerances)
def test_pwe_bound_holds(name, data, tol):
    """Every PWE-mode codec honors the point-wise bound on any input."""
    comp = ALL_COMPRESSORS[name]()
    out = comp.decompress(comp.compress(data, PweMode(tol)))
    assert out.shape == data.shape
    worst = float(np.max(np.abs(out - np.asarray(data, dtype=np.float64))))
    assert worst <= tol * _SLACK, f"{name}: max err {worst} > tolerance {tol}"


@settings(max_examples=25, deadline=None)
@given(data=arrays(), psnr=st.sampled_from([40.0, 60.0]))
def test_psnr_mode_roundtrip(data, psnr):
    """The PSNR-bounded baseline reconstructs shape-true, finite output."""
    comp = ALL_COMPRESSORS["tthresh-like"]()
    out = comp.decompress(comp.compress(data, PsnrMode(psnr)))
    assert out.shape == data.shape
    assert np.all(np.isfinite(out))


@pytest.mark.parametrize("codec", ["quality", "fast"])
@settings(max_examples=25, deadline=None)
@given(data=arrays(), tol=tolerances)
def test_container_reparse_identity(codec, data, tol):
    """parse -> build reproduces the container payload byte for byte,
    codec tags and mask field included."""
    payload = compress(data, PweMode(tol), codec=codec).payload
    p = parse_container(payload)
    rebuilt = build_container(
        p.rank, p.dtype, p.mode_code, p.shape, p.chunks, p.streams,
        codec_tags=p.codec_tags, mask_blob=p.mask_blob,
    )
    assert rebuilt == payload


@settings(max_examples=30, deadline=None)
@given(data=arrays(), tol=tolerances, frac=st.floats(0.0, 1.0, exclude_max=True))
def test_truncation_contract(data, tol, frac):
    """A truncated container is rejected cleanly or salvaged shape-true."""
    payload = compress(data, PweMode(tol)).payload
    cut = payload[: int(frac * len(payload))]
    with pytest.raises(ReproError):
        decompress(cut)
    try:
        result = decompress(cut, on_error="salvage")
    except ReproError:
        return  # framing itself unreadable: a clean rejection is the contract
    assert isinstance(result, DecodeResult)
    assert result.data.shape == data.shape


# ---------------------------------------------------------------------------
# SZx-style fast tier + adaptive dispatch properties.


@st.composite
def masked_arrays(draw):
    """A small array with optional NaN/Inf holes punched into it."""
    data = np.array(draw(arrays()))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_bad = draw(st.integers(0, max(1, data.size // 4)))
    if n_bad and data.size > 1:
        flat = data.reshape(-1)
        idx = rng.choice(data.size, size=min(n_bad, data.size - 1), replace=False)
        fills = rng.choice([np.nan, np.inf, -np.inf], size=idx.size)
        flat[idx] = fills
    return data


def _ulp_edge_case() -> np.ndarray:
    """float32 ramp to ~383 with one Inf: a stray Inf used to disable
    the float32 ULP tightening, letting the cast on decode push the
    error just past the bound (found by Hypothesis)."""
    data = np.arange(384, dtype=np.float32).reshape(6, 8, 8)
    data.reshape(-1)[326] = np.inf
    return data


@settings(max_examples=25, deadline=None)
@given(data=masked_arrays(), tol=tolerances)
@example(data=_ulp_edge_case(), tol=1e-3).via('discovered failure')
def test_szx_mask_and_dtype_exact(data, tol):
    """szx-like preserves dtype and reproduces NaN/Inf holes exactly."""
    comp = ALL_COMPRESSORS["szx-like"]()
    out = comp.decompress(comp.compress(data, PweMode(tol)))
    assert out.dtype == data.dtype
    assert out.shape == data.shape
    bad = ~np.isfinite(data)
    # Non-finite samples come back bit-true (NaN as NaN, signed Inf as is).
    np.testing.assert_array_equal(bad, ~np.isfinite(out))
    np.testing.assert_array_equal(data[bad], out[bad])
    if bad.all():
        return
    worst = float(
        np.max(
            np.abs(
                out[~bad].astype(np.float64) - data[~bad].astype(np.float64)
            )
        )
    )
    assert worst <= tol * _SLACK


@settings(max_examples=25, deadline=None)
@given(data=arrays(), tol=tolerances, frac=st.floats(0.0, 1.0, exclude_max=True))
def test_szx_frame_truncation_raises(data, tol, frac):
    """A truncated szx-like frame always raises a library error."""
    comp = ALL_COMPRESSORS["szx-like"]()
    payload = comp.compress(data, PweMode(tol))
    cut = payload[: int(frac * len(payload))]
    with pytest.raises(ReproError):
        comp.decompress(cut)


@pytest.mark.parametrize("codec", ["quality", "fast", "adaptive"])
@settings(max_examples=15, deadline=None)
@given(data=arrays(), tol=tolerances)
def test_codec_policies_hold_pwe_bound(codec, data, tol):
    """Every codec= policy reconstructs within the point-wise bound."""
    payload = compress(data, PweMode(tol), codec=codec).payload
    out = decompress(payload)
    assert out.shape == data.shape
    assert out.dtype == data.dtype
    worst = float(
        np.max(
            np.abs(
                np.asarray(out, dtype=np.float64)
                - np.asarray(data, dtype=np.float64)
            )
        )
    )
    assert worst <= tol * _SLACK


@settings(max_examples=20, deadline=None)
@given(data=arrays(), tol=tolerances, frac=st.floats(0.0, 1.0, exclude_max=True))
def test_fast_truncation_contract(data, tol, frac):
    """Truncated mixed-codec containers reject cleanly or salvage."""
    payload = compress(data, PweMode(tol), codec="fast").payload
    cut = payload[: int(frac * len(payload))]
    with pytest.raises(ReproError):
        decompress(cut)
    try:
        result = decompress(cut, on_error="salvage")
    except ReproError:
        return
    assert isinstance(result, DecodeResult)
    assert result.data.shape == data.shape
