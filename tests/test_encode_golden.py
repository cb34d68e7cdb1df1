"""Golden encode fixtures: ``repro.compress`` bytes pinned on disk.

Each case compresses a deterministic input (integer-seeded PCG64 draws
and cumulative sums only, so the input is bit-stable across platforms)
and compares the payload with ``tests/data/v2/encode_<case>.sperr``
in-process (``workers=None``) and on a two-process pool.  The cases cover the SPERR tier's modes and chunk
layouts — PWE and size mode over stacked groups, single-chunk PSNR,
ragged 1-D/2-D/3-D grids whose edge chunks form singleton shape groups,
the adaptive router, a float32 input carrying NaN/Inf samples, and
single 32³ and (32, 32, 16) chunks with three wavelet levels — so any
change to the stage kernels that moves a byte fails here.

``tests/data/encode_<case>.sperr`` are the same cases as written with
chunk header version 1 (tensor-product wavelet layout).  Nothing writes
that version any more; those files are decode-only oracles, pinned by
``tests/test_decode_golden.py`` and ``tests/test_chunk_versions.py``.

Regenerate (only after an intentional format change) with::

    PYTHONPATH=src python - <<'PY'
    import sys; sys.path.insert(0, "tests")
    from test_encode_golden import CASES, GOLDEN, encode_case
    for name in CASES:
        (GOLDEN / f"encode_{name}.sperr").write_bytes(encode_case(name, None))
    PY
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import PsnrMode, PweMode, SizeMode

DATA = Path(__file__).parent / "data"
#: Goldens of the current writer (chunk header version 2).
GOLDEN = DATA / "v2"

#: ``workers`` settings by the execution they select.
WORKERS = [pytest.param(None, id="serial"), pytest.param(2, id="process")]


def _smooth(shape: tuple[int, ...], seed: int) -> np.ndarray:
    """Random-walk field: cumulative sums of seeded normals along every axis."""
    out = np.random.default_rng(seed).standard_normal(shape)
    for axis in range(len(shape)):
        out = np.cumsum(out, axis=axis)
    return out


def _masked_f32(shape: tuple[int, ...], seed: int) -> np.ndarray:
    out = _smooth(shape, seed).astype(np.float32)
    flat = out.reshape(-1)
    flat[::37] = np.nan
    flat[5::101] = np.inf
    flat[11::149] = -np.inf
    return out


#: name -> (input factory, mode, compress keywords)
CASES = {
    "pwe": (lambda: _smooth((16, 16, 16), 1), PweMode(0.5), {"chunk_shape": 8}),
    "size": (lambda: _smooth((16, 16, 16), 2), SizeMode(2.0), {"chunk_shape": 8}),
    "psnr": (lambda: _smooth((16, 16, 16), 3), PsnrMode(50.0), {}),
    "ragged1d": (lambda: _smooth((37,), 4), PweMode(0.05), {"chunk_shape": 8}),
    "ragged2d": (lambda: _smooth((23, 19), 5), PweMode(0.1), {"chunk_shape": 8}),
    "ragged3d": (lambda: _smooth((13, 11, 9), 6), PweMode(0.2), {"chunk_shape": 4}),
    # 5 chunks route to sperr (one stacked group), 3 to szx
    "adaptive": (
        lambda: _smooth((16, 16, 16), 7),
        PweMode(0.002),
        {"chunk_shape": 8, "codec": "adaptive"},
    ),
    "masked_f32": (
        lambda: _masked_f32((12, 12, 12), 8),
        PweMode(0.25),
        {"chunk_shape": 8},
    ),
    # one 32³ chunk: 3 wavelet levels on every axis
    "cube32": (lambda: _smooth((32, 32, 32), 9), PweMode(0.5), {"chunk_shape": 32}),
    # one (32, 32, 16) chunk: axis depths 3, 3, 2
    "slab": (
        lambda: _smooth((32, 32, 16), 10),
        PweMode(0.4),
        {"chunk_shape": (32, 32, 16)},
    ),
}


def encode_case(name: str, workers: int | None) -> bytes:
    make, mode, kwargs = CASES[name]
    return repro.compress(make(), mode, workers=workers, **kwargs).payload


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_payload_matches_golden(name, workers):
    golden = (GOLDEN / f"encode_{name}.sperr").read_bytes()
    assert encode_case(name, workers) == golden


def _check_within_bound(name: str, payload: bytes) -> None:
    make, mode, _ = CASES[name]
    data = make()
    recon = repro.decompress(payload)
    assert recon.dtype == data.dtype and recon.shape == data.shape
    finite = np.isfinite(data)
    np.testing.assert_array_equal(np.isnan(recon), np.isnan(data))
    np.testing.assert_array_equal(recon[np.isinf(data)], data[np.isinf(data)])
    if isinstance(mode, PweMode):
        err = np.abs(recon[finite].astype(np.float64) - data[finite])
        assert err.max() <= mode.tolerance


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_decodes_within_bound(name):
    _check_within_bound(name, (GOLDEN / f"encode_{name}.sperr").read_bytes())


@pytest.mark.parametrize("name", sorted(CASES))
def test_version1_golden_decodes_within_bound(name):
    _check_within_bound(name, (DATA / f"encode_{name}.sperr").read_bytes())
