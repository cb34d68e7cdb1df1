"""Compression service: protocol contract, endpoints, structured errors.

Three layers of coverage:

* the wire protocol in isolation — encode/parse round-trips (a
  Hypothesis property over every message kind), strict rejection of
  unknown versions, forged lengths, flipped bits, truncation;
* the protocol under the ``tests/fault_harness.py`` operators — every
  corruption of a valid frame either parses or raises a
  :class:`~repro.errors.ReproError`, with bounded allocations and no
  hangs;
* a live in-process server — every endpoint through both clients,
  structured error codes for bad requests, and raw-socket abuse
  (garbage bytes, mid-frame stalls) answered with protocol errors
  instead of hangs or tracebacks.

Concurrency behaviour (coalescing, backpressure, tenant isolation) is
pinned separately in ``test_service_concurrency.py``.
"""

from __future__ import annotations

import asyncio
import re
import socket
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fault_harness import FAULT_OPERATORS, fuzz_decoder
from repro import compress, decompress, obs
from repro.core.modes import PweMode
from repro.errors import (
    AllocationLimitError,
    IntegrityError,
    InvalidArgumentError,
    ReproError,
    StreamFormatError,
)
from repro.service import (
    AsyncServiceClient,
    BackpressureError,
    Message,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    encode_message,
    parse_message,
    serve_in_thread,
)
from repro.service.protocol import (
    FRAME_MAGIC,
    MSG_COMPRESS,
    MSG_ERROR,
    MSG_OK,
    MSG_PING,
    MSG_READ_WINDOW,
    MSG_STATS,
    PRELUDE_SIZE,
    PROTOCOL_VERSION,
    REQUEST_KINDS,
    RESPONSE_KINDS,
    array_from_wire,
    array_to_wire,
    pack_window,
    unpack_window,
)
from repro.store import write_store

PWE = 1e-3


def _field(shape=(32, 32, 32), seed=3):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 2.0 * np.pi, shape[0])
    base = np.add.outer(np.sin(x), np.cos(x))
    for _ in range(len(shape) - 2):
        base = np.multiply.outer(base, np.cos(x))
    return base + 0.05 * rng.standard_normal(shape)


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("service") / "store.rps"
    write_store(path, _field(), PweMode(PWE), chunk_shape=16)
    return path


@pytest.fixture(scope="module")
def server(store_path):
    with serve_in_thread(store_path) as handle:
        yield handle


@pytest.fixture()
def client(server):
    with ServiceClient(server.host, server.port) as c:
        yield c


# -- protocol unit tests ---------------------------------------------------


class TestProtocolFrames:
    def _frame(self, **kw) -> bytes:
        msg = Message(
            kw.get("kind", MSG_READ_WINDOW),
            kw.get("request_id", 7),
            kw.get("header", {"window": [[0, 8], None, 3], "frame": 0}),
            kw.get("payload", b"\x01\x02\x03\x04" * 8),
        )
        return encode_message(msg)

    def test_roundtrip(self):
        frame = self._frame()
        msg = parse_message(frame)
        assert msg.kind == MSG_READ_WINDOW and msg.request_id == 7
        assert msg.header["window"] == [[0, 8], None, 3]
        assert msg.payload == b"\x01\x02\x03\x04" * 8
        assert msg.kind_name == "read_window"

    def test_bad_magic_rejected(self):
        frame = bytearray(self._frame())
        frame[0:2] = b"ZZ"
        with pytest.raises(StreamFormatError, match="magic"):
            parse_message(bytes(frame))

    def test_unknown_version_rejected(self):
        frame = bytearray(self._frame())
        frame[2] = PROTOCOL_VERSION + 1
        with pytest.raises(StreamFormatError, match="version"):
            parse_message(bytes(frame))

    def test_forged_header_length_capped_before_allocation(self):
        frame = bytearray(self._frame())
        struct.pack_into("<I", frame, 8, 1 << 31)
        with pytest.raises(AllocationLimitError):
            parse_message(bytes(frame))

    def test_forged_payload_length_capped_before_allocation(self):
        frame = bytearray(self._frame())
        struct.pack_into("<Q", frame, 12, 1 << 60)
        with pytest.raises(AllocationLimitError):
            parse_message(bytes(frame))

    def test_truncation_and_trailing_bytes_rejected(self):
        frame = self._frame()
        with pytest.raises(StreamFormatError, match="truncated"):
            parse_message(frame[: len(frame) - 3])
        with pytest.raises(StreamFormatError, match="trailing"):
            parse_message(frame + b"\x00")

    def test_payload_bit_flip_caught_by_crc(self):
        frame = bytearray(self._frame())
        frame[-1] ^= 0x40
        with pytest.raises(IntegrityError, match="CRC"):
            parse_message(bytes(frame))

    def test_non_object_header_rejected(self):
        header = b"[1,2,3]"
        import zlib

        crc = zlib.crc32(b"", zlib.crc32(header))
        prelude = struct.pack(
            "<2sBBIIQI", FRAME_MAGIC, PROTOCOL_VERSION, MSG_PING, 1,
            len(header), 0, crc,
        )
        with pytest.raises(StreamFormatError, match="not an object"):
            parse_message(prelude + header)

    def test_encoder_enforces_caps(self):
        with pytest.raises(InvalidArgumentError):
            encode_message(Message(MSG_PING, 1, {}, b"x" * 64), max_payload=32)
        with pytest.raises(InvalidArgumentError):
            encode_message(Message(999, 1))
        with pytest.raises(InvalidArgumentError):
            encode_message(Message(MSG_PING, 1 << 33))


class TestWindowMarshalling:
    @pytest.mark.parametrize(
        "window",
        [
            None,
            (slice(0, 8), slice(None), 3),
            (slice(None, 5), 0),
            (slice(2, None),),
            5,
        ],
    )
    def test_roundtrip(self, window):
        spec = pack_window(window)
        out = unpack_window(spec)
        want = window
        if want is not None and not isinstance(want, tuple):
            want = (want,)
        if want is None:
            assert out is None
        else:
            norm = tuple(
                slice(w.start, w.stop) if isinstance(w, slice) else int(w)
                for w in want
            )
            assert out == norm

    def test_strided_window_rejected(self):
        with pytest.raises(InvalidArgumentError, match="step"):
            pack_window((slice(0, 8, 2),))

    @pytest.mark.parametrize(
        "spec",
        ["0:8", [True], [[0, 8, 1]], [[0.5, 8]], [{}], [[0, True]]],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(StreamFormatError):
            unpack_window(spec)

    def test_axis_cap(self):
        with pytest.raises(StreamFormatError, match="axes"):
            unpack_window([None] * 65)


class TestArrayMarshalling:
    @pytest.mark.parametrize(
        "arr",
        [
            np.arange(24, dtype=np.float64).reshape(2, 3, 4),
            np.float32(3.5).reshape(()),  # 0-D: integer-index windows
            np.zeros((0, 5), dtype=np.int64),  # zero extent: empty windows
            np.arange(7, dtype=np.int32),
        ],
    )
    def test_roundtrip(self, arr):
        header, payload = array_to_wire(arr)
        out = array_from_wire(header, payload)
        assert out.dtype == arr.dtype and out.shape == arr.shape
        np.testing.assert_array_equal(out, arr)
        assert out.flags.writeable  # a private copy, not the wire buffer

    def test_unlisted_dtype_rejected_both_ways(self):
        with pytest.raises(InvalidArgumentError):
            array_to_wire(np.zeros(4, dtype=np.float16))
        with pytest.raises(StreamFormatError):
            array_from_wire({"shape": [4], "dtype": "object"}, b"\x00" * 32)

    def test_declared_bytes_must_match(self):
        with pytest.raises(StreamFormatError, match="carries"):
            array_from_wire({"shape": [4], "dtype": "float64"}, b"\x00" * 31)

    def test_huge_shape_rejected_before_allocation(self):
        with pytest.raises(AllocationLimitError):
            array_from_wire(
                {"shape": [1 << 20, 1 << 20, 1 << 20], "dtype": "float64"}, b""
            )

    def test_negative_extent_rejected(self):
        with pytest.raises(StreamFormatError):
            array_from_wire({"shape": [-1, 4], "dtype": "float64"}, b"")

    def test_overflowing_shape_product_rejected(self):
        # int64-accumulated products wrap ([2**32, 2**32] -> 0) and would
        # slip past the decode-point cap; the check must be exact.
        with pytest.raises(AllocationLimitError):
            array_from_wire(
                {"shape": [1 << 32, 1 << 32], "dtype": "float64"}, b""
            )


# -- fault injection over the frame parser ---------------------------------


class TestProtocolFaults:
    def _valid_frame(self) -> bytes:
        data = np.arange(512, dtype=np.float64).reshape(8, 8, 8)
        header, payload = array_to_wire(data)
        header["mode"] = {"kind": "pwe", "value": PWE}
        return encode_message(Message(MSG_COMPRESS, 42, header, payload))

    def test_all_operators_respect_error_contract(self):
        report = fuzz_decoder(
            lambda b: parse_message(b),
            self._valid_frame(),
            n=400,
            n_ops=2,
            time_limit=5.0,
        )
        assert report.ok, report.summary()
        assert report.n_rejected > 0  # corruption is actually detected

    @pytest.mark.parametrize("op", sorted(FAULT_OPERATORS))
    def test_each_operator_individually(self, op):
        report = fuzz_decoder(
            lambda b: parse_message(b),
            self._valid_frame(),
            n=100,
            operators=[op],
            time_limit=5.0,
        )
        assert report.ok, f"{op}: {report.summary()}"


# -- hypothesis properties -------------------------------------------------

_kinds = st.sampled_from(sorted(REQUEST_KINDS | RESPONSE_KINDS))
_headers = st.dictionaries(
    st.text(min_size=1, max_size=12),
    st.one_of(
        st.integers(-(10**9), 10**9),
        st.text(max_size=16),
        st.none(),
        st.lists(st.integers(0, 255), max_size=4),
    ),
    max_size=5,
)


class TestProtocolProperties:
    @given(
        kind=_kinds,
        request_id=st.integers(0, 0xFFFFFFFF),
        header=_headers,
        payload=st.binary(max_size=256),
    )
    @settings(max_examples=120, deadline=None)
    def test_encode_parse_roundtrip(self, kind, request_id, header, payload):
        msg = Message(kind, request_id, header, payload)
        out = parse_message(encode_message(msg))
        assert out.kind == kind
        assert out.request_id == request_id
        assert out.header == header
        assert out.payload == payload

    @given(
        version=st.integers(0, 255).filter(lambda v: v != PROTOCOL_VERSION),
        payload=st.binary(max_size=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_unknown_versions_always_rejected(self, version, payload):
        frame = bytearray(encode_message(Message(MSG_PING, 1, {}, payload)))
        frame[2] = version
        with pytest.raises(StreamFormatError, match="version"):
            parse_message(bytes(frame))

    @given(data=st.binary(max_size=2 * PRELUDE_SIZE))
    @settings(max_examples=120, deadline=None)
    def test_arbitrary_bytes_never_escape_error_contract(self, data):
        try:
            parse_message(data)
        except ReproError:
            pass


# -- live server: endpoints and structured errors --------------------------


class TestServerEndpoints:
    def test_ping_info_stats(self, client):
        assert client.ping() is True
        info = client.info()
        assert info["shape"] == [32, 32, 32]
        assert info["n_frames"] == 1
        stats = client.stats()
        assert stats["counters"]["requests_total"] >= 2
        assert "cache" in stats and "limits" in stats

    @pytest.mark.parametrize(
        "window",
        [None, (slice(0, 20), slice(4, 28), slice(None)), (slice(1, 9), 3, 5), 0],
    )
    def test_read_window_matches_direct(self, client, server, window):
        got = client.read_window(window)
        want = server.service.store.read_window(window)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_read_budget_forwarded(self, client):
        # A tiny positive budget yields a coarse same-shape result ...
        window = (slice(0, 32), slice(0, 32), slice(0, 32))
        coarse = client.read_window(window, budget=64)
        assert coarse.shape == (32, 32, 32)
        # ... and an invalid budget comes back as a structured rejection.
        with pytest.raises(ServiceError) as err:
            client.read_window(window, budget=0)
        assert err.value.code == "bad_request"

    def test_compress_decompress_roundtrip(self, client):
        data = _field((24, 24), seed=11)
        payload = client.compress(data, pwe=PWE)
        assert decompress(payload).shape == (24, 24)
        out = client.decompress(payload)
        assert out.shape == data.shape
        assert np.max(np.abs(out - data)) <= PWE * 1.0001

    def test_compress_matches_local_pipeline(self, client):
        data = _field((16, 16, 16), seed=5)
        remote = client.decompress(client.compress(data, pwe=PWE, chunk=8))
        local = decompress(compress(data, PweMode(PWE), chunk_shape=8).payload)
        assert remote.tobytes() == local.tobytes()

    def test_bad_frame_index_is_structured(self, client):
        with pytest.raises(ServiceError) as err:
            client.read_window(None, frame=99)
        assert err.value.code == "bad_request"
        assert not isinstance(err.value, BackpressureError)

    def test_bad_window_is_structured(self, client):
        # Strided windows are rejected client-side, before the wire.
        with pytest.raises(InvalidArgumentError, match="contiguous"):
            client.read_window((slice(0, 8, 2),))
        # A malformed spec smuggled past the client helpers is rejected
        # server-side with a structured error, not a dropped connection.
        with pytest.raises(ServiceError) as err:
            client._request(MSG_READ_WINDOW, {"window": [[0, 8, 1]]})
        assert err.value.code in ("bad_request", "corrupt")
        assert client.ping()  # connection survives a rejected request

    def test_corrupt_decompress_payload_is_structured(self, client):
        good = client.compress(_field((16, 16), seed=2), pwe=PWE)
        bad = bytearray(good)
        bad[len(bad) // 2] ^= 0xFF
        with pytest.raises(ServiceError) as err:
            client.decompress(bytes(bad))
        assert err.value.code in ("corrupt", "bad_request")
        assert client.ping()

    def test_bad_mode_and_chunk_are_structured(self, client):
        data = _field((16, 16), seed=2)
        with pytest.raises(ServiceError) as err:
            client.compress(data, pwe=PWE, chunk=-4)
        assert err.value.code == "bad_request"
        with pytest.raises(ReproError):
            client.compress(data)  # no mode given: rejected client-side

    def test_compress_accepts_only_routing_policies(self, client):
        data = _field((16, 16), seed=2)
        for codec in ("zfp-like", "turbo"):
            with pytest.raises(ServiceError) as err:
                client.compress(data, pwe=PWE, codec=codec)
            assert err.value.code == "bad_request"
        assert client.ping()

    def test_unknown_request_kind_is_structured(self, client):
        with pytest.raises(ServiceError) as err:
            client._request(77, {})
        assert err.value.code == "bad_request"

    def test_storeless_service(self):
        with serve_in_thread(None) as handle:
            with ServiceClient(handle.host, handle.port) as c:
                assert c.ping()
                with pytest.raises(ServiceError) as err:
                    c.info()
                assert err.value.code == "not_found"
                with pytest.raises(ServiceError) as err:
                    c.read_window(None)
                assert err.value.code == "not_found"
                data = _field((16, 16), seed=9)
                out = c.decompress(c.compress(data, pwe=PWE))
                assert np.max(np.abs(out - data)) <= PWE * 1.0001


class TestServerProtocolAbuse:
    def test_garbage_bytes_get_protocol_error_then_close(self, server):
        with socket.create_connection(
            (server.host, server.port), timeout=10.0
        ) as sock:
            sock.sendall(b"GET / HTTP/1.1\r\n\r\n" + b"\x00" * PRELUDE_SIZE)
            response = b""
            while len(response) < PRELUDE_SIZE:
                piece = sock.recv(4096)
                if not piece:
                    break
                response += piece
            while True:  # drain until the server closes
                piece = sock.recv(4096)
                if not piece:
                    break
                response += piece
        msg = parse_message(response)
        assert msg.kind == MSG_ERROR
        assert msg.request_id == 0  # connection-level, not request-level
        assert msg.header["code"] == "protocol"

    def test_oversized_declared_payload_rejected_without_allocation(self, server):
        frame = bytearray(encode_message(Message(MSG_PING, 3)))
        struct.pack_into("<Q", frame, 12, 1 << 62)
        with socket.create_connection(
            (server.host, server.port), timeout=10.0
        ) as sock:
            sock.sendall(bytes(frame))
            response = sock.recv(1 << 16)
        msg = parse_message(response)
        assert msg.kind == MSG_ERROR and msg.header["code"] == "protocol"

    def test_mid_frame_stall_times_out(self, store_path):
        config = ServiceConfig(body_timeout_s=0.2)
        with serve_in_thread(store_path, config=config) as handle:
            frame = encode_message(Message(MSG_PING, 1))
            with socket.create_connection(
                (handle.host, handle.port), timeout=10.0
            ) as sock:
                # Claim a 64-byte header, deliver only the prelude, stall.
                stalled = bytearray(frame[:PRELUDE_SIZE])
                struct.pack_into("<I", stalled, 8, 64)
                sock.sendall(bytes(stalled))
                response = sock.recv(1 << 16)
            msg = parse_message(response)
            assert msg.kind == MSG_ERROR
            assert "timed out" in msg.header["message"]
            # The server is still fine for well-behaved clients.
            with ServiceClient(handle.host, handle.port) as c:
                assert c.ping()


class TestResponsePayloadCap:
    """Responses above ``max_payload_bytes`` must come back as structured
    errors — never as an encode failure that black-holes the request
    (the client would hang on a response frame that is never written)."""

    CAP = 64 << 10  # the full 32^3 float64 store is 256 KiB, 4x over

    def test_oversized_read_response_is_structured(self, store_path):
        config = ServiceConfig(max_payload_bytes=self.CAP)
        with serve_in_thread(store_path, config=config) as handle:
            with ServiceClient(handle.host, handle.port) as c:
                with pytest.raises(ServiceError) as err:
                    c.read_window(None)
                assert err.value.code == "bad_request"
                assert "cap" in str(err.value)
                # The connection survives, and reads that fit still work.
                small = c.read_window((slice(0, 8), slice(0, 8), slice(0, 8)))
                assert small.shape == (8, 8, 8)
                counters = c.stats()["counters"]
                assert counters["oversized_responses"] >= 1
                assert counters.get("internal_errors", 0) == 0

    def test_oversized_decompress_response_is_structured(self):
        config = ServiceConfig(max_payload_bytes=self.CAP)
        with serve_in_thread(None, config=config) as handle:
            # The request (compressed payload) fits under the cap; the
            # decompressed response (128 KiB raw) does not.
            data = _field((128, 128), seed=4)
            payload = compress(data, PweMode(PWE)).payload
            assert len(payload) <= self.CAP
            with ServiceClient(handle.host, handle.port) as c:
                with pytest.raises(ServiceError) as err:
                    c.decompress(payload)
                assert err.value.code == "bad_request"
                assert c.ping()

    def test_pipelined_oversized_reads_all_resolve(self, store_path):
        # Regression: an unanswered oversized read left the async
        # client's future pending forever.
        config = ServiceConfig(max_payload_bytes=self.CAP)
        with serve_in_thread(store_path, config=config) as handle:

            async def drive():
                async with await AsyncServiceClient.connect(
                    handle.host, handle.port
                ) as client:
                    async def read(window):
                        try:
                            return await client.read_window(window)
                        except ServiceError as exc:
                            return exc

                    small = (slice(0, 8), slice(0, 8), slice(0, 8))
                    return await asyncio.wait_for(
                        asyncio.gather(read(None), read(small), read(None)),
                        timeout=30.0,
                    )

            big1, small, big2 = asyncio.run(drive())
            for err in (big1, big2):
                assert isinstance(err, ServiceError)
                assert err.code == "bad_request"
            assert small.shape == (8, 8, 8)


class TestRequestIdWrap:
    """Request ids skip 0 on wrap: rid 0 is the connection-level error
    channel, and an echo of it would be ambiguous (async clients fail
    *all* pending requests on a rid-0 error frame)."""

    def test_sync_client_skips_zero(self, client):
        client._next_id = 0xFFFFFFFF
        assert client.ping()
        assert client._next_id == 1
        assert client.ping()  # and keeps counting normally
        assert client._next_id == 2

    def test_async_client_skips_zero(self, server):
        async def drive():
            async with await AsyncServiceClient.connect(
                server.host, server.port
            ) as c:
                c._next_id = 0xFFFFFFFF
                ok = await c.ping()
                return ok, c._next_id

        ok, next_id = asyncio.run(drive())
        assert ok is True
        assert next_id == 1


class TestAsyncClient:
    def test_pipelined_requests_on_one_connection(self, server):
        direct = server.service.store

        async def drive():
            async with await AsyncServiceClient.connect(
                server.host, server.port
            ) as client:
                windows = [
                    (slice(0, 16), slice(0, 16), slice(0, 16)),
                    (slice(8, 24), slice(8, 24), slice(8, 24)),
                    (slice(0, 32), slice(0, 8), 3),
                    None,
                ]
                results = await asyncio.gather(
                    client.ping(),
                    *[client.read_window(w) for w in windows],
                )
                return windows, results

        windows, results = asyncio.run(drive())
        assert results[0] is True
        for window, got in zip(windows, results[1:]):
            want = direct.read_window(window)
            assert got.tobytes() == want.tobytes()

    def test_async_errors_are_structured(self, server):
        async def drive():
            async with await AsyncServiceClient.connect(
                server.host, server.port
            ) as client:
                with pytest.raises(ServiceError) as err:
                    await client.read_window(None, frame=99)
                return err.value.code

        assert asyncio.run(drive()) == "bad_request"


class TestTraceIds:
    """Every response header carries the server's ``conn-request`` trace
    id, so a slow or refused request can be matched to its spans."""

    TRACE_ID = r"[0-9a-f]+-[0-9a-f]+"

    def _check(self, trace_id, request_id) -> str:
        assert isinstance(trace_id, str)
        conn, rid = trace_id.split("-")
        assert re.fullmatch(self.TRACE_ID, trace_id)
        assert int(rid, 16) == request_id
        return conn

    def test_ok_read_and_control_responses(self, server):
        with ServiceClient(server.host, server.port) as c, \
                ServiceClient(server.host, server.port) as other:
            with obs.trace("trace-ids") as tracer:
                msg = c._request(
                    MSG_READ_WINDOW, {"window": pack_window(None), "frame": 0}
                )
            conn = self._check(msg.header["trace_id"], msg.request_id)
            ping = c._request(MSG_PING, {})
            assert self._check(ping.header["trace_id"], ping.request_id) == conn
            stats = c._request(MSG_STATS, {})
            assert self._check(stats.header["trace_id"], stats.request_id) == conn
            pong = other._request(MSG_PING, {})
            assert self._check(pong.header["trace_id"], pong.request_id) != conn
        # The worker-side span of the read carries the same id.
        spans = tracer.report().find("service.batch.read")
        assert [s.attrs["trace_id"] for s in spans] == [msg.header["trace_id"]]

    def test_bad_request_error_carries_trace_id(self, client):
        with pytest.raises(ServiceError) as err:
            client.read_window(None, frame=99)
        assert err.value.code == "bad_request"
        self._check(err.value.trace_id, client._next_id)

    def test_backpressure_reject_carries_trace_id(self, store_path):
        config = ServiceConfig(
            max_inflight_per_tenant=1, max_pending=4, batch_hold_s=0.2,
            cache_bytes=0,
        )

        async def drive(handle):
            async with await AsyncServiceClient.connect(
                handle.host, handle.port
            ) as c:
                return await asyncio.gather(
                    *[c.read_window((slice(0, 16),) * 3) for _ in range(3)],
                    return_exceptions=True,
                )

        with serve_in_thread(store_path, config=config) as handle:
            results = asyncio.run(drive(handle))
        rejects = [r for r in results if isinstance(r, BackpressureError)]
        assert rejects and len(rejects) < len(results)
        conns = {
            r.trace_id.split("-")[0] for r in rejects
            if re.fullmatch(self.TRACE_ID, r.trace_id)
        }
        assert len(conns) == 1  # all on the one connection
        rids = sorted(int(r.trace_id.split("-")[1], 16) for r in rejects)
        assert len(set(rids)) == len(rejects) and set(rids) <= {1, 2, 3}
