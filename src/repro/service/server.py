"""Asyncio compression service over :mod:`repro.store` and the codec pipeline.

:class:`CompressionService` is the repo's front door: a stdlib-only
asyncio TCP server speaking the length-prefixed protocol of
:mod:`repro.service.protocol`, exposing

* ``read_window`` / ``info`` over an open :class:`~repro.store.CompressedArray`,
* stateless ``compress`` / ``decompress`` through :func:`repro.compress`
  and :func:`repro.decompress`,
* ``stats`` (request counters, latency percentiles, tenant cache state)
  and ``ping``.

Three service-tier mechanisms sit between the socket and the store:

* **Request batching.**  Concurrent window reads that need a decode
  drain into one batch; within a batch every distinct
  ``(frame, chunk, level)`` is decoded once and fanned back out to
  every request that touches it (a batch-local overlay in front of the
  tenant's cache), so N clients hammering the same region cost one
  decode per chunk, not N.  A read whose chunks are all resident in
  its tenant's cache slice has nothing to merge: it skips the queue and
  the ``batch_hold_s`` wait and runs at once on the worker pool as a
  batch of one (``budget=`` reads always queue).
* **Admission control.**  Per-tenant in-flight caps and a global
  pending cap; a request over either limit is answered immediately with
  a structured ``backpressure`` error (plus a ``retry_after_ms`` hint)
  instead of being queued without bound — peak memory stays a function
  of the caps, not of client enthusiasm.
* **Multi-tenant caching.**  Decoded chunks live in one
  :class:`~repro.store.DecodedChunkCache` (one LRU per tenant under a
  uniform byte quota and a global ceiling) routed through
  ``read_window``'s per-call cache override, so one tenant's scan cannot
  evict another tenant's within-quota hot set.

Every request is tagged with a trace id, echoed as ``trace_id`` in the
header of its response, and, when a :mod:`repro.obs`
trace is active, the worker-side spans (``service.compress``,
``service.batch.read`` wrapping the store's own ``store.read_window`` /
``store.chunk.decode`` spans) and service counters land in it, giving
request-level stage attribution with the same tooling as the pipeline.
See ``docs/service.md`` for the protocol and semantics.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .. import obs
from ..core import CODEC_POLICIES, PsnrMode, PweMode, SizeMode, compress, decompress
from ..errors import (
    IntegrityError,
    InvalidArgumentError,
    ReproError,
    StreamFormatError,
)
from ..store import DEFAULT_CACHE_BYTES, DecodedChunkCache, open_store
from .protocol import (
    DEFAULT_MAX_PAYLOAD,
    ERR_BACKPRESSURE,
    ERR_BAD_REQUEST,
    ERR_CORRUPT,
    ERR_INTERNAL,
    ERR_NOT_FOUND,
    ERR_PROTOCOL,
    KIND_NAMES,
    MSG_COMPRESS,
    MSG_DECOMPRESS,
    MSG_ERROR,
    MSG_INFO,
    MSG_OK,
    MSG_PING,
    MSG_READ_WINDOW,
    MSG_STATS,
    PRELUDE_SIZE,
    REQUEST_KINDS,
    Message,
    array_from_wire,
    array_to_wire,
    encode_message,
    parse_message,
    parse_prelude,
    unpack_window,
)

__all__ = ["ServiceConfig", "CompressionService", "ServiceHandle", "serve_in_thread"]

#: Per-op latency samples kept for the stats percentiles.
LATENCY_WINDOW = 4096


@dataclass
class ServiceConfig:
    """Tunable limits and policies of a :class:`CompressionService`.

    The defaults are sized for a single-host deployment; the test suite
    and the load generator shrink them to force the interesting regimes
    (tiny queues for backpressure, zero quotas for cold-cache
    coalescing).
    """

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is on ServiceHandle/address
    #: Frame payload cap enforced before any allocation.
    max_payload_bytes: int = DEFAULT_MAX_PAYLOAD
    #: Per-tenant concurrent admitted requests before backpressure.
    max_inflight_per_tenant: int = 8
    #: Global admitted-but-unfinished request cap before backpressure.
    max_pending: int = 64
    #: Max window reads coalesced into one decode batch.
    max_batch: int = 32
    #: Optional gathering delay after a batch's first request; >0 trades
    #: a little latency for deterministic coalescing of a burst.  Only
    #: reads that need a decode wait for it: a read whose chunks are all
    #: resident in its tenant's cache slice skips the queue and the hold.
    batch_hold_s: float = 0.0
    #: Global ceiling of the tenant-partitioned decoded-chunk cache.
    cache_bytes: int = DEFAULT_CACHE_BYTES
    #: Quota of every tenant (None = the global ceiling, i.e. no partition).
    tenant_quota_bytes: int | None = None
    #: Worker threads shared by compress/decompress/batch jobs.
    workers: int = 4
    #: Seconds a peer may take to deliver a frame body after its
    #: prelude; a mid-frame stall is cut off instead of pinning state.
    body_timeout_s: float = 30.0
    #: Retry hint (ms) attached to backpressure errors.
    retry_after_ms: int = 50


class _BatchOverlay:
    """Batch-local decode dedup in front of one tenant's cache slice.

    ``get`` serves chunks already decoded by an earlier request in the
    same batch (the coalescing fan-out); ``put`` publishes a fresh
    decode to both the batch and ``tenant``'s slice of the service's
    cache.  Not thread-safe — each batch runs on one worker thread.
    """

    __slots__ = ("shared", "cache", "tenant", "service")

    def __init__(
        self,
        shared: dict,
        cache: DecodedChunkCache,
        tenant: str,
        service: "CompressionService",
    ) -> None:
        self.shared = shared
        self.cache = cache
        self.tenant = tenant
        self.service = service

    def get(self, key):
        arr = self.shared.get(key)
        if arr is not None:
            self.service._count("coalesced_chunk_hits")
            obs.add_counter("service.chunk.coalesced")
            return arr
        return self.cache.get(key, self.tenant)

    def put(self, key, arr) -> bool:
        self.shared[key] = arr
        self.service._count("chunk_decodes")
        obs.add_counter("service.chunk.decodes")
        return self.cache.put(key, arr, self.tenant)


@dataclass
class _ReadRequest:
    """One admitted window read; ``future`` is set when it queues."""

    msg: Message
    tenant: str
    trace_id: str
    window: tuple | None
    frame: int
    level: int
    budget: int | None
    future: asyncio.Future | None = None


class CompressionService:
    """The asyncio server; see the module docstring for the design.

    ``store_path=None`` runs a store-less service: ``compress`` /
    ``decompress`` / ``ping`` / ``stats`` work, ``read_window`` and
    ``info`` answer with a structured ``not_found`` error.
    """

    def __init__(self, store_path=None, *, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        if self.config.max_inflight_per_tenant < 1:
            raise InvalidArgumentError("max_inflight_per_tenant must be >= 1")
        if self.config.max_pending < 1:
            raise InvalidArgumentError("max_pending must be >= 1")
        if self.config.max_batch < 1:
            raise InvalidArgumentError("max_batch must be >= 1")
        # The store's own cache is disabled: all caching goes through
        # the service's cache so residency is accounted per tenant.
        self._arr = (
            open_store(store_path, cache_bytes=0) if store_path is not None else None
        )
        self.cache = DecodedChunkCache(
            self.config.cache_bytes, tenant_quota=self.config.tenant_quota_bytes
        )
        self._server: asyncio.base_events.Server | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._batcher: asyncio.Task | None = None
        self._read_queue: asyncio.Queue[_ReadRequest] | None = None
        self._conn_ids = itertools.count(1)
        self._conn_tasks: set[asyncio.Task] = set()
        # Admission bookkeeping lives on the event-loop thread only.
        self._tenant_inflight: dict[str, int] = {}
        self._inflight_total = 0
        # Counters/latencies are touched from worker threads too.
        self._stats_lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._latencies: dict[str, deque] = {}
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` the server is bound to (after :meth:`start`)."""
        if self._server is None:
            raise InvalidArgumentError("service is not started")
        return self._server.sockets[0].getsockname()[:2]

    @property
    def store(self):
        """The served :class:`~repro.store.CompressedArray` (or None)."""
        return self._arr

    async def start(self) -> tuple[str, int]:
        """Bind the listener, spin up workers, and return the address."""
        if self._server is not None:
            raise InvalidArgumentError("service already started")
        self._loop = asyncio.get_running_loop()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-service"
        )
        self._read_queue = asyncio.Queue()
        self._batcher = asyncio.create_task(self._batch_loop())
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        return self.address

    async def stop(self) -> None:
        """Stop accepting, cancel in-flight work, and release workers."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    async def serve_forever(self) -> None:
        """Start (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        try:
            await self._server.serve_forever()
        finally:
            await self.stop()

    # -- bookkeeping -------------------------------------------------------

    def _count(self, name: str, value: int = 1) -> None:
        with self._stats_lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def _record_latency(self, op: str, seconds: float) -> None:
        with self._stats_lock:
            ring = self._latencies.get(op)
            if ring is None:
                ring = self._latencies[op] = deque(maxlen=LATENCY_WINDOW)
            ring.append(seconds)

    def counters(self) -> dict[str, int]:
        """Snapshot of the service counters."""
        with self._stats_lock:
            return dict(self._counters)

    def latency_percentiles(self) -> dict[str, dict[str, float]]:
        """Per-op ``{p50, p99, count}`` over the recent latency window."""
        with self._stats_lock:
            snapshot = {op: list(ring) for op, ring in self._latencies.items()}
        out = {}
        for op, values in snapshot.items():
            if not values:
                continue
            values.sort()
            out[op] = {
                "p50_ms": 1e3 * _percentile(values, 0.50),
                "p99_ms": 1e3 * _percentile(values, 0.99),
                "max_ms": 1e3 * values[-1],
                "count": len(values),
            }
        return out

    def stats(self) -> dict:
        """The ``stats`` endpoint's document (JSON-safe)."""
        return {
            "counters": self.counters(),
            "latency": self.latency_percentiles(),
            "cache": self.cache.stats(),
            "inflight": self._inflight_total,
            "has_store": self._arr is not None,
            "limits": {
                "max_inflight_per_tenant": self.config.max_inflight_per_tenant,
                "max_pending": self.config.max_pending,
                "max_batch": self.config.max_batch,
                "max_payload_bytes": self.config.max_payload_bytes,
            },
        }

    # -- connection handling ----------------------------------------------

    async def _read_frame(self, reader: asyncio.StreamReader) -> Message:
        """Read and parse one frame from the stream, bounded end to end."""
        prelude = await reader.readexactly(PRELUDE_SIZE)
        # Validates magic/version and caps both lengths *before* the
        # body is read, so a forged length cannot drive the allocation.
        _kind, _rid, header_len, payload_len, _crc = parse_prelude(
            prelude, max_payload=self.config.max_payload_bytes
        )
        body = await asyncio.wait_for(
            reader.readexactly(header_len + payload_len),
            timeout=self.config.body_timeout_s,
        )
        return parse_message(
            prelude + body, max_payload=self.config.max_payload_bytes
        )

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn_id = next(self._conn_ids)
        write_lock = asyncio.Lock()
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    msg = await self._read_frame(reader)
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                    BrokenPipeError,
                ):
                    break  # clean or abrupt client close
                except asyncio.TimeoutError:
                    self._count("protocol_errors")
                    await self._send(
                        writer, write_lock,
                        _error(0, ERR_PROTOCOL, "frame body timed out"),
                        f"{conn_id:x}-0",
                    )
                    break
                except ReproError as exc:
                    # Framing is lost after a malformed prelude/frame:
                    # answer with a structured protocol error, then
                    # close rather than misparse subsequent bytes.
                    self._count("protocol_errors")
                    obs.add_counter("service.protocol_errors")
                    await self._send(
                        writer, write_lock,
                        _error(0, ERR_PROTOCOL, str(exc)), f"{conn_id:x}-0",
                    )
                    break
                t = asyncio.get_running_loop().create_task(
                    self._serve_request(msg, conn_id, writer, write_lock)
                )
                self._conn_tasks.add(t)
                t.add_done_callback(self._conn_tasks.discard)
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _send(self, writer, write_lock, msg: Message, trace_id: str) -> None:
        """Write one response frame, its header stamped with ``trace_id``."""
        msg.header["trace_id"] = trace_id
        data = encode_message(msg, max_payload=self.config.max_payload_bytes)
        async with write_lock:
            writer.write(data)
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # -- request dispatch --------------------------------------------------

    async def _serve_request(
        self, msg: Message, conn_id: int, writer, write_lock
    ) -> None:
        loop = asyncio.get_running_loop()
        t0 = loop.time()
        op = KIND_NAMES.get(msg.kind, f"kind_{msg.kind}")
        tenant = msg.header.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant or len(tenant) > 128:
            tenant = "default"
        trace_id = f"{conn_id:x}-{msg.request_id:x}"
        self._count("requests_total")
        self._count(f"requests.{op}")
        obs.add_counter("service.requests")
        obs.add_counter(f"service.requests.{op}")

        if msg.kind not in REQUEST_KINDS:
            self._count("responses_error")
            await self._send(
                writer, write_lock,
                _error(msg.request_id, ERR_BAD_REQUEST,
                       f"unknown request kind {msg.kind}"),
                trace_id,
            )
            return

        # Cheap control-plane ops bypass admission so health stays
        # observable while the data plane is saturated.
        if msg.kind in (MSG_PING, MSG_STATS, MSG_INFO):
            response = self._handle_control(msg)
            self._count("responses_error" if response.kind == MSG_ERROR
                        else "responses_ok")
            await self._send(writer, write_lock, response, trace_id)
            self._record_latency(op, loop.time() - t0)
            return

        # Admission control: explicit rejection beats unbounded queues.
        inflight = self._tenant_inflight.get(tenant, 0)
        if (
            self._inflight_total >= self.config.max_pending
            or inflight >= self.config.max_inflight_per_tenant
        ):
            self._count("backpressure_rejects")
            obs.add_counter("service.backpressure")
            await self._send(
                writer, write_lock,
                _error(
                    msg.request_id, ERR_BACKPRESSURE,
                    f"tenant {tenant!r}: {inflight} in flight "
                    f"(cap {self.config.max_inflight_per_tenant}), "
                    f"{self._inflight_total} pending globally "
                    f"(cap {self.config.max_pending})",
                    retry_after_ms=self.config.retry_after_ms,
                ),
                trace_id,
            )
            return

        self._tenant_inflight[tenant] = inflight + 1
        self._inflight_total += 1
        try:
            response = await self._handle_data(msg, tenant, trace_id)
            response = self._response_within_cap(response, msg.request_id)
            self._count("responses_error" if response.kind == MSG_ERROR
                        else "responses_ok")
            # The send stays inside the admission window: a pipelining
            # client that stops reading pins its in-flight slots (new
            # requests get backpressure) instead of letting completed
            # payloads pile up in blocked send tasks without bound.
            await self._send_response(
                writer, write_lock, response, msg.request_id, trace_id
            )
        finally:
            self._tenant_inflight[tenant] -= 1
            if self._tenant_inflight[tenant] <= 0:
                del self._tenant_inflight[tenant]
            self._inflight_total -= 1
        self._record_latency(op, loop.time() - t0)

    def _response_within_cap(self, response: Message, request_id: int) -> Message:
        """Replace a response whose payload exceeds the frame cap.

        ``MAX_DECODE_POINTS`` admits windows far larger than the default
        payload cap, so an oversized result is a legitimate-request
        outcome; it must surface as a structured error, not as an
        ``encode_message`` failure that would black-hole the request.
        """
        if len(response.payload) <= self.config.max_payload_bytes:
            return response
        self._count("oversized_responses")
        return _error(
            request_id, ERR_BAD_REQUEST,
            f"response payload is {len(response.payload)} bytes, above the "
            f"{self.config.max_payload_bytes}-byte frame cap; request a "
            f"smaller window or raise max_payload_bytes",
        )

    async def _send_response(
        self, writer, write_lock, response: Message, request_id: int,
        trace_id: str,
    ) -> None:
        """Send a response; on encoding failure reply with ERR_INTERNAL.

        Last-resort boundary: the client must always get *some* frame
        for its request id, or it hangs waiting on a response that was
        never written.
        """
        try:
            await self._send(writer, write_lock, response, trace_id)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # client went away; nothing left to tell it
        except Exception as exc:  # noqa: BLE001 - encoding failed
            self._count("internal_errors")
            await self._send(
                writer, write_lock,
                _error(request_id, ERR_INTERNAL,
                       f"response encoding failed: {type(exc).__name__}: {exc}"),
                trace_id,
            )

    def _handle_control(self, msg: Message) -> Message:
        """ping / stats / info — answered inline on the event loop."""
        if msg.kind == MSG_PING:
            return Message(MSG_OK, msg.request_id, {"pong": True})
        if msg.kind == MSG_STATS:
            return Message(MSG_OK, msg.request_id, self.stats())
        if self._arr is None:
            return _error(msg.request_id, ERR_NOT_FOUND, "no store is attached")
        info = dict(self._arr.info())
        info["shape"] = list(info["shape"])
        info["max_payload_bytes"] = self.config.max_payload_bytes
        return Message(MSG_OK, msg.request_id, info)

    async def _handle_data(
        self, msg: Message, tenant: str, trace_id: str
    ) -> Message:
        loop = asyncio.get_running_loop()
        try:
            if msg.kind == MSG_COMPRESS:
                return await loop.run_in_executor(
                    self._pool, self._do_compress, msg, trace_id
                )
            if msg.kind == MSG_DECOMPRESS:
                return await loop.run_in_executor(
                    self._pool, self._do_decompress, msg, trace_id
                )
            return await self._enqueue_read(msg, tenant, trace_id)
        except ReproError as exc:
            return _error_from_exception(msg.request_id, exc)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 - last-resort boundary
            self._count("internal_errors")
            return _error(
                msg.request_id, ERR_INTERNAL, f"{type(exc).__name__}: {exc}"
            )

    # -- compress / decompress workers ------------------------------------

    def _do_compress(self, msg: Message, trace_id: str) -> Message:
        with obs.span("service.compress", trace_id=trace_id):
            data = array_from_wire(msg.header, msg.payload)
            mode = _mode_from_header(msg.header)
            chunk = msg.header.get("chunk")
            if chunk is not None and not (
                isinstance(chunk, int) and not isinstance(chunk, bool)
                and 0 < chunk <= 4096
            ):
                raise InvalidArgumentError(f"bad chunk spec {chunk!r}")
            codec = msg.header.get("codec", "quality")
            if codec not in CODEC_POLICIES:
                raise InvalidArgumentError(f"bad codec spec {codec!r}")
            result = compress(data, mode, chunk_shape=chunk, codec=codec)
            header = {
                "nbytes": result.nbytes,
                "bpp": result.bpp,
                "n_outliers": result.n_outliers,
            }
            return Message(MSG_OK, msg.request_id, header, result.payload)

    def _do_decompress(self, msg: Message, trace_id: str) -> Message:
        with obs.span("service.decompress", trace_id=trace_id):
            out = decompress(bytes(msg.payload))
            header, payload = array_to_wire(out)
            return Message(MSG_OK, msg.request_id, header, payload)

    # -- window-read batching ----------------------------------------------

    async def _enqueue_read(
        self, msg: Message, tenant: str, trace_id: str
    ) -> Message:
        if self._arr is None:
            return _error(msg.request_id, ERR_NOT_FOUND, "no store is attached")
        header = msg.header
        window = unpack_window(header.get("window"))
        frame = header.get("frame", 0)
        level = header.get("level", 0)
        budget = header.get("budget")
        for name, value in (("frame", frame), ("level", level)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidArgumentError(f"{name} must be an integer")
        if budget is not None and (
            isinstance(budget, bool) or not isinstance(budget, int)
        ):
            raise InvalidArgumentError("budget must be an integer byte count")
        req = _ReadRequest(
            msg=msg,
            tenant=tenant,
            trace_id=trace_id,
            window=window,
            frame=frame,
            level=level,
            budget=budget,
        )
        loop = asyncio.get_running_loop()
        if self._is_resident(req):
            # Nothing to decode, so nothing to merge: skip the queue and
            # the hold.  Still on the pool, not the loop: a masked frame
            # may decode its mask and a large window is a large copy.  A
            # chunk evicted since the check is decoded by this read.
            self._count("resident_reads")
            obs.add_counter("service.reads.resident")
            [(_req, response)] = await loop.run_in_executor(
                self._pool, self._process_batch, [req]
            )
            return response
        req.future = loop.create_future()
        await self._read_queue.put(req)
        return await req.future

    def _is_resident(self, req: _ReadRequest) -> bool:
        """True when every chunk ``req`` touches is in its tenant's slice.

        A request the geometry rejects is not resident: it queues and
        fails in ``read_window`` with the error it always got.
        """
        if req.budget is not None:
            return False
        try:
            chunks = self._arr.chunks_for_window(req.window, frame=req.frame)
        except ReproError:
            return False
        return all(
            self.cache.contains((req.frame, i, req.level), req.tenant)
            for i in chunks
        )

    async def _batch_loop(self) -> None:
        """Drain the read queue into batches and run them on the pool."""
        loop = asyncio.get_running_loop()
        while True:
            batch = [await self._read_queue.get()]
            if self.config.batch_hold_s > 0:
                await asyncio.sleep(self.config.batch_hold_s)
            while (
                len(batch) < self.config.max_batch
                and not self._read_queue.empty()
            ):
                batch.append(self._read_queue.get_nowait())
            self._count("batches")
            self._count("batched_reads", len(batch))
            obs.add_counter("service.batches")
            try:
                results = await loop.run_in_executor(
                    self._pool, self._process_batch, batch
                )
            except asyncio.CancelledError:
                for req in batch:
                    if not req.future.done():
                        req.future.cancel()
                raise
            except Exception as exc:  # noqa: BLE001 - keep the loop alive
                for req in batch:
                    if not req.future.done():
                        req.future.set_result(
                            _error(
                                req.msg.request_id, ERR_INTERNAL,
                                f"{type(exc).__name__}: {exc}",
                            )
                        )
                continue
            for req, response in results:
                if not req.future.done():
                    req.future.set_result(response)

    def _process_batch(
        self, batch: list[_ReadRequest]
    ) -> list[tuple[_ReadRequest, Message]]:
        """Serve one batch of window reads on a worker thread.

        Requests run sequentially over a batch-local chunk overlay: the
        first request to touch a chunk decodes it (and publishes it to
        its tenant's cache slice); every later same-chunk request in the
        batch is a coalesced hit.  Results are byte-identical to direct
        ``read_window`` calls because the overlay serves the exact
        decoded arrays the store itself caches.
        """
        shared: dict = {}
        out = []
        for req in batch:
            try:
                with obs.span(
                    "service.batch.read",
                    trace_id=req.trace_id,
                    tenant=req.tenant,
                    batch_size=len(batch),
                ):
                    overlay = _BatchOverlay(shared, self.cache, req.tenant, self)
                    arr = self._arr.read_window(
                        req.window,
                        frame=req.frame,
                        level=req.level,
                        budget=req.budget,
                        cache=overlay,
                    )
                header, payload = array_to_wire(arr)
                out.append(
                    (req, Message(MSG_OK, req.msg.request_id, header, payload))
                )
            except ReproError as exc:
                out.append((req, _error_from_exception(req.msg.request_id, exc)))
            except Exception as exc:  # noqa: BLE001 - isolate batch items
                self._count("internal_errors")
                out.append(
                    (
                        req,
                        _error(
                            req.msg.request_id, ERR_INTERNAL,
                            f"{type(exc).__name__}: {exc}",
                        ),
                    )
                )
        return out


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[int(idx)]


def _error(request_id: int, code: str, message: str, **extra) -> Message:
    """Build a structured MSG_ERROR response."""
    header = {"code": code, "message": message}
    header.update(extra)
    return Message(MSG_ERROR, request_id, header)


def _error_from_exception(request_id: int, exc: ReproError) -> Message:
    """Map a library exception onto a wire error code."""
    if isinstance(exc, InvalidArgumentError):
        code = ERR_BAD_REQUEST
    elif isinstance(exc, (IntegrityError, StreamFormatError)):
        code = ERR_CORRUPT
    else:
        code = ERR_INTERNAL
    return _error(request_id, code, str(exc))


def _mode_from_header(header: dict):
    """Decode a compression-mode spec from a request header.

    ``{"mode": {"kind": "pwe"|"bpp"|"psnr", "value": number}}``.
    """
    spec = header.get("mode")
    if not isinstance(spec, dict):
        raise InvalidArgumentError("compress request needs a mode object")
    kind = spec.get("kind")
    value = spec.get("value")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InvalidArgumentError(f"bad mode value {value!r}")
    if kind == "pwe":
        return PweMode(float(value))
    if kind == "bpp":
        return SizeMode(bpp=float(value))
    if kind == "psnr":
        return PsnrMode(float(value))
    raise InvalidArgumentError(f"unknown mode kind {kind!r}")


class ServiceHandle:
    """A running service on a background thread (tests, benchmarks, CLI).

    Created by :func:`serve_in_thread`; exposes the bound address and a
    blocking :meth:`stop`.
    """

    def __init__(self, service: CompressionService, loop, thread) -> None:
        self.service = service
        self._loop = loop
        self._thread = thread
        self.host, self.port = service.address

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the server and join its event-loop thread."""
        if self._thread is None:
            return
        asyncio.run_coroutine_threadsafe(
            self.service.stop(), self._loop
        ).result(timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        self._loop.close()
        self._thread = None

    def __enter__(self) -> "ServiceHandle":
        """Context-manager entry (the server is already running)."""
        return self

    def __exit__(self, *exc) -> bool:
        """Stop the server on context exit."""
        self.stop()
        return False


def serve_in_thread(
    store_path=None, *, config: ServiceConfig | None = None
) -> ServiceHandle:
    """Start a :class:`CompressionService` on a daemon thread.

    Returns once the listener is bound; the returned
    :class:`ServiceHandle` carries ``host``/``port`` and stops the
    server cleanly (usable as a context manager).
    """
    service = CompressionService(store_path, config=config)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    startup_error: list[BaseException] = []

    def runner() -> None:
        asyncio.set_event_loop(loop)

        async def boot():
            try:
                await service.start()
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                startup_error.append(exc)
            finally:
                started.set()

        loop.run_until_complete(boot())
        if not startup_error:
            loop.run_forever()

    thread = threading.Thread(target=runner, daemon=True, name="repro-service")
    thread.start()
    started.wait(10.0)
    if startup_error:
        thread.join(1.0)
        loop.close()
        raise startup_error[0]
    return ServiceHandle(service, loop, thread)
