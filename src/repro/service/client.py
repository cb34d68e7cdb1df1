"""Client library for the compression service (sync + asyncio).

:class:`ServiceClient` is the blocking client: one socket, one request
in flight at a time, exactly what a script or a load-generator thread
needs.  :class:`AsyncServiceClient` speaks the same protocol over an
asyncio connection and supports pipelining — requests are correlated by
request id, so many coroutines can share one connection.

Both clients translate ``MSG_ERROR`` responses into
:class:`ServiceError` (with the structured ``code``), and backpressure
rejections into the :class:`BackpressureError` subclass carrying the
server's ``retry_after_ms`` hint, so callers can branch on the class::

    try:
        window = client.read_window((slice(0, 32), slice(0, 32), 7))
    except BackpressureError as exc:
        time.sleep(exc.retry_after_ms / 1e3)
"""

from __future__ import annotations

import asyncio
import socket
import threading

import numpy as np

from ..errors import ReproError, StreamFormatError
from .protocol import (
    DEFAULT_MAX_PAYLOAD,
    ERR_BACKPRESSURE,
    MSG_COMPRESS,
    MSG_DECOMPRESS,
    MSG_ERROR,
    MSG_INFO,
    MSG_OK,
    MSG_PING,
    MSG_READ_WINDOW,
    MSG_STATS,
    PRELUDE_SIZE,
    Message,
    array_from_wire,
    array_to_wire,
    encode_message,
    parse_message,
    parse_prelude,
    pack_window,
)

__all__ = ["ServiceClient", "AsyncServiceClient", "ServiceError", "BackpressureError"]


class ServiceError(ReproError):
    """A structured error response from the service.

    ``trace_id`` is the server's id for the request (``None`` when the
    response carried none), matching the ``trace_id`` of its spans.
    """

    def __init__(
        self,
        code: str,
        message: str,
        retry_after_ms: int = 0,
        trace_id: str | None = None,
    ) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code
        self.retry_after_ms = retry_after_ms
        self.trace_id = trace_id


class BackpressureError(ServiceError):
    """The server rejected the request under admission control."""


def _error_from_response(msg: Message, default_code: str) -> ServiceError:
    """The exception an error response stands for."""
    code = str(msg.header.get("code", default_code))
    detail = str(msg.header.get("message", ""))
    retry = msg.header.get("retry_after_ms", 0)
    retry = int(retry) if isinstance(retry, (int, float)) else 0
    trace_id = msg.header.get("trace_id")
    trace_id = trace_id if isinstance(trace_id, str) else None
    cls = BackpressureError if code == ERR_BACKPRESSURE else ServiceError
    return cls(code, detail, retry_after_ms=retry, trace_id=trace_id)


def _raise_for_error(msg: Message) -> Message:
    """Translate an error response into an exception; pass OK through."""
    if msg.kind == MSG_ERROR:
        raise _error_from_response(msg, "internal")
    if msg.kind != MSG_OK:
        raise StreamFormatError(
            f"unexpected response kind {msg.kind} from service"
        )
    return msg


def _read_window_header(window, frame, level, budget, tenant) -> dict:
    header = {
        "window": pack_window(window),
        "frame": int(frame),
        "level": int(level),
        "tenant": tenant,
    }
    if budget is not None:
        header["budget"] = int(budget)
    return header


def _compress_header(
    data, mode_kind, mode_value, chunk, tenant, codec
) -> tuple[dict, bytes]:
    header, payload = array_to_wire(data)
    header["mode"] = {"kind": mode_kind, "value": float(mode_value)}
    header["tenant"] = tenant
    if chunk is not None:
        header["chunk"] = int(chunk)
    if codec != "quality":
        header["codec"] = str(codec)
    return header, payload


class ServiceClient:
    """Blocking client: one request in flight per connection.

    Thread-safe for callers that share one instance (a lock serializes
    the socket); the load generator gives each worker its own client
    instead, which is also the higher-throughput pattern.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        tenant: str = "default",
        timeout: float = 30.0,
        max_payload: int = DEFAULT_MAX_PAYLOAD,
    ) -> None:
        self.tenant = tenant
        self.max_payload = max_payload
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._lock = threading.Lock()
        self._next_id = 0

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServiceClient":
        """Context-manager entry."""
        return self

    def __exit__(self, *exc) -> bool:
        """Close the connection on context exit."""
        self.close()
        return False

    def _recv_exactly(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            piece = self._sock.recv(min(remaining, 1 << 20))
            if not piece:
                raise StreamFormatError(
                    "service connection closed mid-response"
                )
            chunks.append(piece)
            remaining -= len(piece)
        return b"".join(chunks)

    def _request(self, kind: int, header: dict, payload: bytes = b"") -> Message:
        with self._lock:
            if self._sock is None:
                raise StreamFormatError("client is closed")
            # Skip 0 on wrap: rid 0 is reserved for connection-level
            # protocol errors.
            self._next_id = (self._next_id % 0xFFFFFFFF) + 1
            request_id = self._next_id
            frame = encode_message(
                Message(kind, request_id, header, payload),
                max_payload=self.max_payload,
            )
            self._sock.sendall(frame)
            prelude = self._recv_exactly(PRELUDE_SIZE)
            _k, _rid, header_len, payload_len, _crc = parse_prelude(
                prelude, max_payload=self.max_payload
            )
            body = self._recv_exactly(header_len + payload_len)
        response = parse_message(prelude + body, max_payload=self.max_payload)
        if response.request_id not in (request_id, 0):
            raise StreamFormatError(
                f"response correlates to request {response.request_id}, "
                f"expected {request_id}"
            )
        return _raise_for_error(response)

    def ping(self) -> bool:
        """Round-trip a ping; True when the server answered."""
        return bool(self._request(MSG_PING, {}).header.get("pong"))

    def info(self) -> dict:
        """The served store's geometry/summary document."""
        return self._request(MSG_INFO, {"tenant": self.tenant}).header

    def stats(self) -> dict:
        """Service counters, latency percentiles, and cache state."""
        return self._request(MSG_STATS, {}).header

    def read_window(
        self,
        window=None,
        *,
        frame: int = 0,
        level: int = 0,
        budget: int | None = None,
    ) -> np.ndarray:
        """Decode a window of the served store (see
        :meth:`repro.store.CompressedArray.read_window`)."""
        msg = self._request(
            MSG_READ_WINDOW,
            _read_window_header(window, frame, level, budget, self.tenant),
        )
        return array_from_wire(msg.header, msg.payload)

    def compress(
        self,
        data: np.ndarray,
        *,
        pwe: float | None = None,
        bpp: float | None = None,
        psnr: float | None = None,
        chunk: int | None = None,
        codec: str = "quality",
    ) -> bytes:
        """Compress an array server-side; returns the container payload.

        ``codec`` selects the routing policy (``quality`` / ``fast`` /
        ``adaptive``, see :data:`repro.CODEC_POLICIES`); non-quality
        policies need a PWE mode.
        """
        kind, value = _pick_mode(pwe, bpp, psnr)
        header, payload = _compress_header(
            data, kind, value, chunk, self.tenant, codec
        )
        return bytes(self._request(MSG_COMPRESS, header, payload).payload)

    def decompress(self, payload: bytes) -> np.ndarray:
        """Decompress a container payload server-side."""
        msg = self._request(
            MSG_DECOMPRESS, {"tenant": self.tenant}, bytes(payload)
        )
        return array_from_wire(msg.header, msg.payload)


def _pick_mode(pwe, bpp, psnr) -> tuple[str, float]:
    given = [(k, v) for k, v in (("pwe", pwe), ("bpp", bpp), ("psnr", psnr))
             if v is not None]
    if len(given) != 1:
        raise ReproError("give exactly one of pwe=, bpp=, psnr=")
    return given[0]


class AsyncServiceClient:
    """Asyncio client with request pipelining over one connection.

    A background reader task dispatches responses to their awaiting
    requests by request id, so any number of coroutines may issue
    requests concurrently on one instance.  Use ``await
    AsyncServiceClient.connect(host, port)`` to build one.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        tenant: str = "default",
        max_payload: int = DEFAULT_MAX_PAYLOAD,
    ) -> None:
        self.tenant = tenant
        self.max_payload = max_payload
        self._reader = reader
        self._writer = writer
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._write_lock = asyncio.Lock()
        self._reader_task = asyncio.get_event_loop().create_task(
            self._read_loop()
        )

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        tenant: str = "default",
        max_payload: int = DEFAULT_MAX_PAYLOAD,
    ) -> "AsyncServiceClient":
        """Open a connection and return a ready client."""
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, tenant=tenant, max_payload=max_payload)

    async def close(self) -> None:
        """Cancel the reader task and close the connection."""
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        self._fail_pending(StreamFormatError("client closed"))

    async def __aenter__(self) -> "AsyncServiceClient":
        """Async context-manager entry."""
        return self

    async def __aexit__(self, *exc) -> bool:
        """Close the connection on context exit."""
        await self.close()
        return False

    def _fail_pending(self, exc: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    async def _read_loop(self) -> None:
        try:
            while True:
                prelude = await self._reader.readexactly(PRELUDE_SIZE)
                _k, _rid, header_len, payload_len, _crc = parse_prelude(
                    prelude, max_payload=self.max_payload
                )
                body = await self._reader.readexactly(header_len + payload_len)
                msg = parse_message(
                    prelude + body, max_payload=self.max_payload
                )
                future = self._pending.pop(msg.request_id, None)
                if future is not None and not future.done():
                    future.set_result(msg)
                elif msg.request_id == 0:
                    # Connection-level protocol error: fail everything.
                    self._fail_pending(_error_from_response(msg, "protocol"))
        except asyncio.CancelledError:
            raise
        except asyncio.IncompleteReadError:
            self._fail_pending(StreamFormatError("service closed the connection"))
        except Exception as exc:  # noqa: BLE001 - fan the failure out
            self._fail_pending(
                exc if isinstance(exc, ReproError)
                else StreamFormatError(f"client reader failed: {exc}")
            )

    async def _request(
        self, kind: int, header: dict, payload: bytes = b""
    ) -> Message:
        # Skip 0 on wrap: rid 0 is reserved for connection-level
        # protocol errors (a rid-0 frame fails *all* pending requests).
        self._next_id = (self._next_id % 0xFFFFFFFF) + 1
        request_id = self._next_id
        frame = encode_message(
            Message(kind, request_id, header, payload),
            max_payload=self.max_payload,
        )
        future: asyncio.Future = asyncio.get_event_loop().create_future()
        self._pending[request_id] = future
        async with self._write_lock:
            self._writer.write(frame)
            await self._writer.drain()
        return _raise_for_error(await future)

    async def ping(self) -> bool:
        """Round-trip a ping; True when the server answered."""
        return bool((await self._request(MSG_PING, {})).header.get("pong"))

    async def info(self) -> dict:
        """The served store's geometry/summary document."""
        return (await self._request(MSG_INFO, {"tenant": self.tenant})).header

    async def stats(self) -> dict:
        """Service counters, latency percentiles, and cache state."""
        return (await self._request(MSG_STATS, {})).header

    async def read_window(
        self,
        window=None,
        *,
        frame: int = 0,
        level: int = 0,
        budget: int | None = None,
    ) -> np.ndarray:
        """Decode a window of the served store."""
        msg = await self._request(
            MSG_READ_WINDOW,
            _read_window_header(window, frame, level, budget, self.tenant),
        )
        return array_from_wire(msg.header, msg.payload)

    async def compress(
        self,
        data: np.ndarray,
        *,
        pwe: float | None = None,
        bpp: float | None = None,
        psnr: float | None = None,
        chunk: int | None = None,
        codec: str = "quality",
    ) -> bytes:
        """Compress an array server-side; returns the container payload.

        ``codec`` selects the routing policy (``quality`` / ``fast`` /
        ``adaptive``); non-quality policies need a PWE mode.
        """
        kind, value = _pick_mode(pwe, bpp, psnr)
        header, payload = _compress_header(
            data, kind, value, chunk, self.tenant, codec
        )
        return bytes(
            (await self._request(MSG_COMPRESS, header, payload)).payload
        )

    async def decompress(self, payload: bytes) -> np.ndarray:
        """Decompress a container payload server-side."""
        msg = await self._request(
            MSG_DECOMPRESS, {"tenant": self.tenant}, bytes(payload)
        )
        return array_from_wire(msg.header, msg.payload)
