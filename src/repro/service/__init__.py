"""Async compression service tier: the system's network front door.

``repro.service`` turns the library into a server: an asyncio TCP
service (:class:`CompressionService`) speaking a CRC-framed,
length-prefixed binary protocol (:mod:`repro.service.protocol`) that
exposes window reads over a :class:`~repro.store.CompressedArray` plus
stateless compress/decompress, with

* same-chunk request **coalescing** (concurrent window reads touching a
  chunk decode it once per batch),
* **admission control** and explicit backpressure errors instead of
  unbounded queues,
* a **multi-tenant** decoded-chunk cache (one
  :class:`~repro.store.DecodedChunkCache` with a uniform per-tenant
  quota under a global ceiling),
* request-level telemetry threaded through :mod:`repro.obs`.

Clients: :class:`ServiceClient` (blocking) and
:class:`AsyncServiceClient` (asyncio, pipelined).  Start a server from
Python via :func:`serve_in_thread`, or from the shell via
``sperr serve``.  The protocol and operational semantics are specified
in ``docs/service.md``.
"""

from .client import AsyncServiceClient, BackpressureError, ServiceClient, ServiceError
from .protocol import (
    DEFAULT_MAX_PAYLOAD,
    MAX_HEADER_BYTES,
    PROTOCOL_VERSION,
    Message,
    encode_message,
    parse_message,
)
from .server import CompressionService, ServiceConfig, ServiceHandle, serve_in_thread

__all__ = [
    "CompressionService",
    "ServiceConfig",
    "ServiceHandle",
    "serve_in_thread",
    "ServiceClient",
    "AsyncServiceClient",
    "ServiceError",
    "BackpressureError",
    "Message",
    "encode_message",
    "parse_message",
    "PROTOCOL_VERSION",
    "MAX_HEADER_BYTES",
    "DEFAULT_MAX_PAYLOAD",
]
