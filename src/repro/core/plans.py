"""Cached codec plans: memoized per-shape immutable coder state.

Chunked compression (paper Sec. III-D) runs the same per-shape setup —
wavelet decomposition schedules, SPECK partition geometry, ZFP block
scan tables, the adaptive router's sample indices — once per chunk even
though every same-shaped chunk needs the identical immutable object.
Each builder is a :func:`functools.lru_cache`, so N same-shaped chunks
pay the setup cost once, which is where a large share of multi-chunk
throughput lives (cuSZ+ and the ETH parallel framework make the same
observation for their codecs).

Everything cached here is *shape-derived and immutable*: nothing depends
on chunk data, so sharing across chunks, threads, and repeated calls is
safe and cannot change any bitstream.  Two threads that miss on the
same key at once may both build the plan; either copy is equal, so the
only cost is the duplicate build.  Each process-pool worker builds its
own caches on first use.

The builders import their target modules lazily, which keeps this
module import-cycle-free (it is imported by the wavelet, SPECK,
and ZFP layers, all of which ``repro.core`` itself imports).
"""

from __future__ import annotations

from functools import lru_cache

__all__ = [
    "wavelet_plan",
    "speck_geometry",
    "zfp_scan_order",
    "cache_stats",
    "clear_plan_caches",
]


def wavelet_plan(
    shape: tuple[int, ...], wavelet: str = "cdf97", levels: int | None = None
):
    """Cached :class:`~repro.wavelets.dwt.WaveletPlan` for ``shape``."""
    return _wavelet_plan(tuple(shape), wavelet, levels)


@lru_cache(maxsize=64)
def _wavelet_plan(shape: tuple[int, ...], wavelet: str, levels: int | None):
    from ..wavelets.dwt import WaveletPlan

    return WaveletPlan.create(shape, wavelet=wavelet, levels=levels)


def speck_geometry(shape: tuple[int, ...]):
    """Cached :class:`~repro.speck.geometry.Geometry` for ``shape``."""
    return _speck_geometry(tuple(shape))


@lru_cache(maxsize=32)
def _speck_geometry(shape: tuple[int, ...]):
    from ..speck.geometry import Geometry

    return Geometry(shape)


@lru_cache(maxsize=8)
def zfp_scan_order(ndim: int):
    """Cached ``(permutation, inverse_permutation)`` for the ZFP-like codec."""
    import numpy as np

    from ..compressors.zfplike.transform import permutation

    perm = permutation(ndim)
    inv = np.argsort(perm)
    perm.setflags(write=False)
    inv.setflags(write=False)
    return perm, inv


def _builders() -> dict:
    # The adaptive router's sample index is built (and cached) next to
    # the constants it depends on.
    from .adaptive import _sample_index

    return {
        "wavelet_plans": _wavelet_plan,
        "speck_geometries": _speck_geometry,
        "zfp_scan_orders": zfp_scan_order,
        "sample_indices": _sample_index,
    }


def cache_stats() -> dict:
    """``hits``/``misses``/``maxsize``/``currsize`` of every plan cache, by name."""
    return {name: f.cache_info()._asdict() for name, f in _builders().items()}


def clear_plan_caches() -> None:
    """Empty every plan cache and reset its counters (benches use this to
    measure cold setup)."""
    for f in _builders().values():
        f.cache_clear()
