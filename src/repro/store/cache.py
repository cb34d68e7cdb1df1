"""Memory-budgeted LRU cache of decoded chunks.

Repeat window reads over the same region of a store mostly hit the same
chunks; decoding a chunk costs milliseconds while copying its decoded
array out of memory costs microseconds.  :class:`DecodedChunkCache`
keeps recently decoded chunk arrays (keyed by ``(frame, chunk, level)``)
under a byte budget, evicting least-recently-used entries, so warm
window reads skip the SPECK/wavelet pipeline entirely.

Entries belong to a *tenant* (``"default"`` unless the caller names
one).  Each tenant keeps its own LRU under one uniform byte quota, and
all tenants share the global ceiling, so the service tier can give one
cache to many clients without one client's scan flushing another's hot
set (see ``docs/service.md`` for the tenancy model).  A store reading
on its own uses only the default tenant, whose quota is the ceiling:
a plain byte-budgeted LRU.

The cache is shared by every thread reading through one
:class:`~repro.store.CompressedArray`: all bookkeeping happens under a
single lock, and cached arrays are marked read-only so a hit can be
served zero-copy without risking cache poisoning through an aliased
mutation.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable

import numpy as np

from ..errors import InvalidArgumentError

__all__ = ["DecodedChunkCache", "DEFAULT_CACHE_BYTES"]

#: Default decoded-chunk cache budget per open store (64 MiB).
DEFAULT_CACHE_BYTES = 64 << 20


class _Tenant:
    """One tenant's LRU slice of a :class:`DecodedChunkCache`."""

    __slots__ = ("entries", "nbytes", "hits", "misses", "evictions")

    def __init__(self) -> None:
        self.entries: "OrderedDict[Hashable, np.ndarray]" = OrderedDict()
        self.nbytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class DecodedChunkCache:
    """Thread-safe LRU of decoded chunk arrays under a byte budget.

    ``max_bytes`` is the ceiling over all tenants; ``tenant_quota``
    (default: the ceiling) caps each tenant's resident bytes.  An insert
    first evicts the inserting tenant's own LRU entries while it is over
    its quota, then the globally least-recently-used entries while the
    ceiling is exceeded.  When the quota times the number of active
    tenants fits under the ceiling, a tenant is therefore never evicted
    by another tenant's traffic.

    ``max_bytes=0`` (or ``tenant_quota=0``) disables the cache: every
    :meth:`get` misses and :meth:`put` is a no-op, which is the
    reference behaviour the equivalence tests compare against.
    """

    def __init__(
        self, max_bytes: int = DEFAULT_CACHE_BYTES, *, tenant_quota: int | None = None
    ) -> None:
        if max_bytes < 0:
            raise InvalidArgumentError("cache budget must be non-negative")
        self.max_bytes = int(max_bytes)
        self.tenant_quota = self.max_bytes if tenant_quota is None else int(tenant_quota)
        if self.tenant_quota < 0:
            raise InvalidArgumentError("tenant quota must be non-negative")
        self._lock = threading.Lock()
        self._tenants: dict[str, _Tenant] = {}
        # Recency across tenants, oldest first: (tenant, key) -> None.
        self._order: "OrderedDict[tuple[str, Hashable], None]" = OrderedDict()
        self._nbytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def enabled(self) -> bool:
        """True when the ceiling and the tenant quota are both non-zero."""
        return min(self.max_bytes, self.tenant_quota) > 0

    @property
    def nbytes(self) -> int:
        """Current resident bytes (always ``<= max_bytes``)."""
        with self._lock:
            return self._nbytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._order)

    def get(self, key: Hashable, tenant: str = "default") -> np.ndarray | None:
        """Look up a decoded chunk of ``tenant``; a hit moves it to MRU.

        Returns the cached (read-only) array or ``None`` on a miss.  A
        lookup never creates a tenant record: a tenant with nothing
        resident has none, whatever names the callers send.
        """
        with self._lock:
            state = self._tenants.get(tenant)
            arr = None if state is None else state.entries.get(key)
            if arr is None:
                self.misses += 1
                if state is not None:
                    state.misses += 1
                return None
            state.entries.move_to_end(key)
            self._order.move_to_end((tenant, key))
            self.hits += 1
            state.hits += 1
            return arr

    def contains(self, key: Hashable, tenant: str = "default") -> bool:
        """True when ``key`` is resident in ``tenant``'s slice.

        Read-only: unlike :meth:`get` it counts no hit or miss, leaves
        the LRU order as it is and creates no tenant record, so a
        residency probe does not show up as cache traffic.
        """
        with self._lock:
            state = self._tenants.get(tenant)
            return state is not None and key in state.entries

    def _unlink(self, state: _Tenant, tenant: str, key: Hashable) -> None:
        arr = state.entries.pop(key)
        del self._order[(tenant, key)]
        state.nbytes -= arr.nbytes
        self._nbytes -= arr.nbytes

    def _evict(self, tenant: str, key: Hashable) -> None:
        """Evict one entry; a tenant's record goes with its last entry."""
        state = self._tenants[tenant]
        self._unlink(state, tenant, key)
        state.evictions += 1
        self.evictions += 1
        if not state.entries:
            del self._tenants[tenant]

    def put(self, key: Hashable, arr: np.ndarray, tenant: str = "default") -> bool:
        """Insert a decoded chunk for ``tenant``, evicting LRU entries.

        Arrays larger than the tenant quota or the ceiling are not
        cached (they would evict everything and then be evicted
        themselves on the next insert).  The stored array is marked
        read-only; callers must treat hits as immutable.  Returns True
        when the entry resides in the cache on return.
        """
        if not self.enabled or arr.nbytes > min(self.max_bytes, self.tenant_quota):
            return False
        arr.setflags(write=False)
        with self._lock:
            state = self._tenants.get(tenant)
            if state is None:
                state = self._tenants[tenant] = _Tenant()
            elif key in state.entries:
                self._unlink(state, tenant, key)
            state.entries[key] = arr
            self._order[(tenant, key)] = None
            state.nbytes += arr.nbytes
            self._nbytes += arr.nbytes
            while state.nbytes > self.tenant_quota:
                self._evict(tenant, next(iter(state.entries)))
            while self._nbytes > self.max_bytes:
                self._evict(*next(iter(self._order)))
            return True

    def clear(self) -> None:
        """Drop every entry and tenant record (budget, quota and the
        global counters are kept)."""
        with self._lock:
            self._tenants.clear()
            self._order.clear()
            self._nbytes = 0

    def stats(self) -> dict:
        """Global hit/miss/eviction counters and residency, plus a
        breakdown under ``"tenants"`` of every tenant with resident
        entries (its counters start when its record does)."""
        with self._lock:
            tenants = {
                t: {
                    "entries": len(s.entries),
                    "nbytes": s.nbytes,
                    "hits": s.hits,
                    "misses": s.misses,
                    "evictions": s.evictions,
                }
                for t, s in self._tenants.items()
            }
            counters = {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._order),
                "nbytes": self._nbytes,
            }
        return {
            **counters,
            "max_bytes": self.max_bytes,
            "tenant_quota": self.tenant_quota,
            "tenants": tenants,
        }
