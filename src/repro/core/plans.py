"""Cached codec plans: memoized per-shape immutable coder state.

Chunked compression (paper Sec. III-D) runs the same per-shape setup —
wavelet decomposition schedules, SPECK partition geometry, ZFP block
scan tables — once per chunk even though every same-shaped chunk needs
the identical immutable object.  This module provides a small LRU cache
layer so N same-shaped chunks pay the setup cost once, which is where a
large share of multi-chunk throughput lives (cuSZ+ and the ETH parallel
framework make the same observation for their codecs).

Everything cached here is *shape-derived and immutable*: nothing depends
on chunk data, so sharing across chunks, threads, and repeated calls is
safe and cannot change any bitstream.  Each process-pool worker builds
its own caches on first use.

The accessor functions import their target modules lazily, which keeps
this module import-cycle-free (it is imported by the wavelet, SPECK,
and ZFP layers, all of which ``repro.core`` itself imports).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable

from ..errors import InvalidArgumentError

__all__ = [
    "PlanCache",
    "wavelet_plan",
    "speck_geometry",
    "zfp_scan_order",
    "cache_stats",
    "clear_plan_caches",
]


class PlanCache:
    """Thread-safe LRU cache with hit/miss/eviction counters.

    Values are built by the ``factory`` passed to :meth:`get` and must be
    immutable (they are shared between callers and threads).
    """

    def __init__(self, maxsize: int = 64, name: str = "plans") -> None:
        if maxsize < 1:
            raise InvalidArgumentError("maxsize must be at least 1")
        self.maxsize = maxsize
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building it on a miss.

        The factory runs under the cache lock: plan construction is quick
        and serializing it guarantees each plan is built exactly once.
        """
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                pass
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                return value
            self.misses += 1
            value = factory()
            self._entries[key] = value
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
            return value

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss/eviction counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> dict:
        """Snapshot of counters and occupancy (for benches and tests)."""
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


#: Wavelet decomposition schedules, keyed (shape, wavelet, levels, max_levels).
WAVELET_PLANS = PlanCache(maxsize=64, name="wavelet_plans")
#: SPECK partition geometries (incl. child tables), keyed by shape.
SPECK_GEOMETRIES = PlanCache(maxsize=32, name="speck_geometries")
#: ZFP total-sequency scan orders, keyed by ndim.
ZFP_SCAN_ORDERS = PlanCache(maxsize=8, name="zfp_scan_orders")
_ALL_CACHES = (WAVELET_PLANS, SPECK_GEOMETRIES, ZFP_SCAN_ORDERS)


def wavelet_plan(
    shape: tuple[int, ...],
    wavelet: str = "cdf97",
    levels: int | None = None,
    max_levels: int | None = None,
):
    """Cached :class:`~repro.wavelets.dwt.WaveletPlan` for ``shape``."""
    from ..wavelets.dwt import MAX_LEVELS, WaveletPlan

    ml = MAX_LEVELS if max_levels is None else max_levels
    key = (tuple(shape), wavelet, levels, ml)
    return WAVELET_PLANS.get(
        key,
        lambda: WaveletPlan.create(
            tuple(shape), wavelet=wavelet, max_levels=ml, levels=levels
        ),
    )


def speck_geometry(shape: tuple[int, ...]):
    """Cached :class:`~repro.speck.geometry.Geometry` for ``shape``."""
    from ..speck.geometry import Geometry

    return SPECK_GEOMETRIES.get(tuple(shape), lambda: Geometry(shape))


def zfp_scan_order(ndim: int):
    """Cached ``(permutation, inverse_permutation)`` for the ZFP-like codec."""
    import numpy as np

    from ..compressors.zfplike.transform import permutation

    def build():
        perm = permutation(ndim)
        inv = np.argsort(perm)
        perm.setflags(write=False)
        inv.setflags(write=False)
        return perm, inv

    return ZFP_SCAN_ORDERS.get(int(ndim), build)


def cache_stats() -> dict:
    """Hit/miss/eviction counters for every plan cache, by name."""
    return {cache.name: cache.stats() for cache in _ALL_CACHES}


def clear_plan_caches() -> None:
    """Empty every plan cache (used by benches to measure cold setup)."""
    for cache in _ALL_CACHES:
        cache.clear()
