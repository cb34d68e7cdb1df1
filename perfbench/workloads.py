"""The three workloads: inputs from the seed, the measured loop, the checks.

Each workload builds its inputs from ``seed`` alone and hands the program
only the generated arrays.  ``setup`` is what the run times as
``setup_s`` (it is repeated and the median reported); ``run`` is the
measured loop and returns :class:`Samples`.  Output checks happen
outside the timed regions: a wrong output, a raised error and a
backpressure reject all count as a failed op.

Every workload reports every end-to-end metric, so each records
latencies under three op classes -- ``compress``, ``decompress`` and
``read``.  Where a workload has no separate op of a class it files the
op that plays that role under both (see README.md, "End-to-end
metrics").

Every workload times the host-speed probe (``hostspeed.py``) between
its ops, never inside one, and rescales each op by the probes nearest
to it when the loop ends.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro.core import clear_plan_caches
from repro.datasets.fields import get_field
from repro.datasets.scenarios import get_scenario
from repro.service import AsyncServiceClient, ServiceConfig, serve_in_thread
from repro.store import StoreWriter, open_store, write_store

from hostspeed import HostSpeed


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _digest(arr) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(arr), digest_size=16).digest()


@dataclass
class Samples:
    """What one measured loop observed.

    ``intervals``/``raw_bytes`` are per op class, an interval being the
    ``(start, end)`` clock readings of one op (for a service request,
    from when it was due).  ``ops`` holds the interval of each timed op
    (a compress or decompress, a store read, a service request); their
    summed length is the loop's traced wall time.  :meth:`rescale` fills
    ``scaled`` and ``ops_scaled`` with the same durations at the
    reference host speed.
    """

    intervals: dict = field(default_factory=lambda: defaultdict(list))
    raw_bytes: dict = field(default_factory=lambda: defaultdict(list))
    scaled: dict = field(default_factory=dict)
    bits_per_point: list = field(default_factory=list)
    ops: list = field(default_factory=list)
    ops_scaled: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    lag_s: list = field(default_factory=list)
    service_stats: tuple = ()
    #: ``(request, output)`` pairs whose check runs after the loop.
    outputs: list = field(default_factory=list)

    def add(self, op: str, t0: float, t1: float, nbytes: int) -> None:
        self.intervals[op].append((t0, t1))
        self.raw_bytes[op].append(nbytes)

    def latency(self, op: str) -> list[float]:
        """Measured durations of the ops of one class."""
        return [t1 - t0 for t0, t1 in self.intervals[op]]

    def rescale(self, hs: HostSpeed, k: int) -> None:
        def scaled(intervals):
            return [(t1 - t0) * hs.scale(t0, t1, k) for t0, t1 in intervals]

        self.scaled = {op: scaled(iv) for op, iv in self.intervals.items()}
        self.ops_scaled = scaled(self.ops)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)


class Workload:
    """Base class: subclasses set the class attributes and the hooks."""

    name = ""
    loop = ""
    setup_repeats = 5
    #: Probe samples an op's rescaling is the median of.
    probe_k = 10

    def __init__(self, seed: int, *, work_dir: Path, tiny: bool = False, fault=None):
        self.seed = int(seed)
        self.work_dir = Path(work_dir)
        self.tiny = tiny
        #: Test hook: called on every output before it is checked.
        self.fault = fault
        self.hs = HostSpeed()

    def _observe(self, out):
        return out if self.fault is None else self.fault(out)

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def prepare(self) -> None:
        """Reference decodes for the checks; neither timed nor traced."""

    def run(self, seconds: float) -> Samples:
        raise NotImplementedError

    def check(self, s: Samples) -> None:
        """Checks deferred past the loop; neither timed nor traced."""


class RoundtripQuality(Workload):
    """Closed loop, one caller: compress then decompress one field."""

    name = "roundtrip-quality"
    loop = "closed loop, 1 caller"

    def __init__(self, seed, **kwargs):
        super().__init__(seed, **kwargs)
        self.shape = (32,) * 3 if self.tiny else (128,) * 3
        self.chunk = 16 if self.tiny else 32

    def setup(self) -> None:
        clear_plan_caches()
        self.field = get_field("miranda_density", self.shape, seed=self.seed)
        self.mode = repro.PweMode(1e-3 * float(np.ptp(self.field)))
        # The first call per chunk shape builds the wavelet and SPECK plans.
        warm = self.field[(slice(0, self.chunk),) * 3]
        repro.decompress(repro.compress(warm, self.mode).payload)

    def run(self, seconds: float) -> Samples:
        s = Samples()
        nbytes = self.field.nbytes
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not s.attempted:
            s.attempted += 1
            self.hs.probe(5)
            t0 = time.perf_counter()
            try:
                result = repro.compress(self.field, self.mode, chunk_shape=self.chunk)
            except repro.ReproError as exc:
                s.fail(f"compress raised {exc!r}")
                continue
            t1 = time.perf_counter()
            s.attempted += 1
            self.hs.probe(5)
            t2 = time.perf_counter()
            try:
                out = repro.decompress(result.payload)
            except repro.ReproError as exc:
                s.fail(f"decompress raised {exc!r}")
                continue
            t3 = time.perf_counter()
            s.add("compress", t0, t1, nbytes)
            s.add("decompress", t2, t3, nbytes)
            s.add("read", t2, t3, nbytes)
            s.ops += [(t0, t1), (t2, t3)]
            s.bits_per_point.append(8.0 * len(result.payload) / self.field.size)
            self._check(self._observe(out), s)
        self.hs.probe(5)
        s.rescale(self.hs, self.probe_k)
        return s

    def _check(self, out: np.ndarray, s: Samples) -> None:
        if out.shape != self.field.shape or out.dtype != self.field.dtype:
            s.fail(f"decoded {out.shape} {out.dtype}")
            return
        err = float(np.max(np.abs(out - self.field)))
        if not err <= self.mode.tolerance:
            s.fail(f"max |err| {err:.3e} > tol {self.mode.tolerance:.3e}")


class StoreWindowReads(Workload):
    """Closed loop, one caller: random cube windows from a one-frame store."""

    name = "store-window-reads"
    loop = "closed loop, 1 caller"

    def __init__(self, seed, **kwargs):
        super().__init__(seed, **kwargs)
        self.shape = (32,) * 3 if self.tiny else (128,) * 3
        self.chunk = 16 if self.tiny else 32
        self.window = 8 if self.tiny else 32
        self.writes: list[tuple[float, float]] = []

    def setup(self) -> None:
        self.field = get_field("miranda_density", self.shape, seed=self.seed)
        self.mode = repro.PweMode(1e-3 * float(np.ptp(self.field)))
        self.tmp = tempfile.TemporaryDirectory(dir=self.work_dir)
        path = Path(self.tmp.name) / "store"
        t0 = time.perf_counter()
        self.written = write_store(path, self.field, self.mode, chunk_shape=self.chunk)
        self.writes.append((t0, time.perf_counter()))
        # A quarter of the decoded frame: most 8-chunk windows miss.
        self.arr = open_store(path, cache_bytes=self.field.nbytes // 4)

    def teardown(self) -> None:
        self.tmp.cleanup()

    def prepare(self) -> None:
        self.reference = repro.decompress(self.written.payload)
        self.stored_bits = 8.0 * self.arr.info()["payload_bytes"] / self.field.size

    def run(self, seconds: float) -> Samples:
        s = Samples()
        reference = self.reference
        for t0, t1 in self.writes:
            s.add("compress", t0, t1, self.field.nbytes)
        s.bits_per_point.append(self.stored_bits)
        rng = np.random.default_rng(self.seed)
        span = [n - self.window + 1 for n in self.shape]
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not s.attempted:
            lo = rng.integers(0, span)
            window = tuple(slice(int(a), int(a) + self.window) for a in lo)
            s.attempted += 1
            self.hs.probe()
            t0 = time.perf_counter()
            try:
                out = self.arr.read_window(window)
            except repro.ReproError as exc:
                s.fail(f"read_window raised {exc!r}")
                continue
            t1 = time.perf_counter()
            s.add("read", t0, t1, out.nbytes)
            s.add("decompress", t0, t1, out.nbytes)
            s.ops.append((t0, t1))
            out = self._observe(out)
            if out.tobytes() != np.ascontiguousarray(reference[window]).tobytes():
                s.fail(f"window {window} differs from the full decode")
        self.hs.probe(5)
        s.rescale(self.hs, self.probe_k)
        return s


@dataclass
class _Request:
    kind: str  # read / compress / decompress
    frame: int = 0
    window: tuple = ()


class ServiceMixed(Workload):
    """Open loop: Poisson arrivals at a fixed offered rate over <= nproc
    pipelined connections to an in-process server.

    The load generator times one host-speed probe in a gap between
    arrivals when no request is in flight and the next one is due at
    least :attr:`PROBE_GAP_S` later: the server is idle then, so the
    probe times the host and not a wait for the interpreter lock, and it
    ends before the next request is due.
    """

    name = "service-mixed"
    #: Offered load in requests per second, far below the ~60 requests/s
    #: this mix saturates at on a 2-CPU host: at higher rates enough reads
    #: queue behind a compress that read p90 sits on the edge between
    #: reads that waited and reads that did not (see README.md).
    RATE = 8.0
    loop = f"open loop, Poisson {RATE:g} req/s"
    PROBE_GAP_S = 0.02
    STORE_SCENARIOS = ("smooth-3d-64", "masked-3d-64")
    STORE_CHUNK = 16
    #: One chunk each: a hot read then costs the same whichever window
    #: it asks for, so the p50 read falls inside the cache-hit reads
    #: rather than on the edge between two kinds of hot read.
    HOT_WINDOWS = (
        (0, (slice(0, 16), slice(0, 16), slice(0, 16))),
        (1, (slice(16, 32), slice(16, 32), slice(0, 16))),
    )

    def __init__(self, seed, **kwargs):
        super().__init__(seed, **kwargs)
        self.n_conn = max(1, min(2, nproc()))
        self.shape = (32,) * 3
        self.chunk = 16

    def setup(self) -> None:
        self.tmp = tempfile.TemporaryDirectory(dir=self.work_dir)
        path = Path(self.tmp.name) / "store"
        frames = [
            np.asarray(get_scenario(n).build(), dtype=np.float64)
            for n in self.STORE_SCENARIOS
        ]
        with StoreWriter(path, repro.PweMode(1e-3), chunk_shape=self.STORE_CHUNK) as w:
            self.frame_payloads = [w.append(f).payload for f in frames]
        self.frame_shape = frames[0].shape
        # Half smooth, half noisy: at 1e-5 of the range adaptive routes
        # the smooth chunks to szx and the noisy ones to sperr.
        self.field = get_field("miranda_density", self.shape, seed=self.seed).copy()
        rng = np.random.default_rng(self.seed)
        half = self.shape[0] // 2
        spread = float(np.ptp(self.field))
        self.field[half:] += rng.normal(0.0, 0.5 * spread, size=self.field[half:].shape)
        self.tol = 1e-5 * float(np.ptp(self.field))
        # The decompress requests send this payload back.  It holds sperr
        # and szx chunks, so both decoders run; a second, quality-mode
        # payload decoded in 26 ms against this one's 16 ms, and the
        # median decompress then fell between the two.
        self.payload = repro.compress(
            self.field, repro.PweMode(self.tol), chunk_shape=self.chunk, codec="adaptive",
        ).payload
        # One decoded chunk is 32 KiB; ten of the store's sixteen fit, so
        # the hot windows mostly hit while cold windows still evict.
        chunk_bytes = 8 * self.STORE_CHUNK ** 3
        config = ServiceConfig(
            workers=self.n_conn,
            cache_bytes=10 * chunk_bytes,
            batch_hold_s=0.002,
            max_inflight_per_tenant=64,
            max_pending=128,
        )
        self.handle = serve_in_thread(path, config=config)
        self.aloop = asyncio.new_event_loop()
        self.clients = self.aloop.run_until_complete(self._connect())

    async def _connect(self) -> list:
        return list(await asyncio.gather(*(
            AsyncServiceClient.connect(self.handle.host, self.handle.port)
            for _ in range(self.n_conn)
        )))

    def teardown(self) -> None:
        for c in self.clients:
            self.aloop.run_until_complete(c.close())
        self.aloop.close()
        self.handle.stop()
        self.tmp.cleanup()

    def _plan(self, seconds: float) -> list[tuple[float, list[_Request]]]:
        """Arrivals ``(due_s, requests)``: 70% reads (hot windows arrive
        as one request per connection at once, so batches coalesce),
        15% compress, 15% decompress, at Poisson times."""
        rng = np.random.default_rng(self.seed)
        n = max(8, round(self.RATE * seconds))
        n_compress = n_decompress = round(0.15 * n)
        n_reads = n - n_compress - n_decompress
        n_hot = round(n_reads * 4 / 7 / self.n_conn)
        n_cold = n_reads - n_hot * self.n_conn
        kinds = ["hot"] * n_hot + ["cold"] * n_cold
        kinds += ["compress"] * n_compress + ["decompress"] * n_decompress
        rng.shuffle(kinds)
        # n uniform arrival times, sorted: a Poisson process given its count.
        due = np.sort(rng.uniform(0.0, seconds, size=len(kinds)))
        plan = []
        for t, kind in zip(due, kinds):
            if kind == "hot":
                frame, window = self.HOT_WINDOWS[int(rng.integers(2))]
                reqs = [_Request("read", frame, window)] * self.n_conn
            elif kind == "cold":
                # Half-extent cubes at seeded offsets off the chunk grid:
                # all eight chunks of the frame, some cached and some not.
                k = self.frame_shape[0] // 2
                lo = rng.integers(1, self.frame_shape[0] - k, size=3)
                window = tuple(slice(int(a), int(a) + k) for a in lo)
                reqs = [_Request("read", int(rng.integers(2)), window)]
            elif kind == "compress":
                reqs = [_Request("compress")]
            else:
                reqs = [_Request("decompress")]
            plan.append((float(t), reqs))
        return plan

    async def _issue(self, client, req: _Request, due: float, s: Samples):
        try:
            if req.kind == "read":
                out = await client.read_window(req.window, frame=req.frame)
            elif req.kind == "compress":
                out = await client.compress(
                    self.field, pwe=self.tol, chunk=self.chunk, codec="adaptive"
                )
            else:
                out = await client.decompress(self.payload)
        except Exception as exc:  # noqa: BLE001 - any error is a failed op
            s.fail(f"{req.kind} raised {exc!r}")
            return
        finally:
            self.in_flight -= 1
            if not self.in_flight:
                self.idle.set()
        done = time.perf_counter()
        nbytes = self.field.nbytes if req.kind != "read" else out.nbytes
        s.add(req.kind, due, done, nbytes)
        s.ops.append((due, done))
        out = self._observe(out)
        s.outputs.append((req, out if req.kind == "compress" else _digest(out)))

    async def _drive(self, plan, s: Samples) -> None:
        tasks = []
        t0 = time.perf_counter()
        for k, (due_s, reqs) in enumerate(plan):
            due = t0 + due_s
            delay = due - time.perf_counter()
            if delay > self.PROBE_GAP_S:
                try:
                    await asyncio.wait_for(self.idle.wait(), delay - self.PROBE_GAP_S)
                    self.hs.probe()
                except asyncio.TimeoutError:
                    pass
                delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            s.lag_s.append(max(0.0, time.perf_counter() - due))
            for j, req in enumerate(reqs):
                client = self.clients[(k + j) % self.n_conn]
                s.attempted += 1
                self.in_flight += 1
                self.idle.clear()
                tasks.append(asyncio.ensure_future(self._issue(client, req, due, s)))
        await asyncio.wait_for(asyncio.gather(*tasks), timeout=120.0)

    def prepare(self) -> None:
        self.frames = [repro.decompress(p) for p in self.frame_payloads]
        self.decoded = _digest(repro.decompress(self.payload))

    def run(self, seconds: float) -> Samples:
        s = Samples()
        plan = self._plan(seconds)
        self.in_flight = 0
        self.idle = asyncio.Event()
        self.idle.set()
        before = self.aloop.run_until_complete(self.clients[0].stats())
        self.hs.probe(5)
        self.aloop.run_until_complete(self._drive(plan, s))
        self.hs.probe(5)
        after = self.aloop.run_until_complete(self.clients[0].stats())
        s.service_stats = (before, after)
        s.rescale(self.hs, self.probe_k)
        return s

    def check(self, s: Samples) -> None:
        """Reads and decompresses against the prepared decodes; each
        distinct compress payload is decoded once against the bound."""
        frames, decoded = self.frames, self.decoded
        verdict: dict[bytes, str | None] = {}
        for req, out in s.outputs:
            if req.kind == "read":
                if out != _digest(frames[req.frame][req.window]):
                    s.fail(f"read {req.frame} {req.window} differs from the full decode")
            elif req.kind == "decompress":
                if out != decoded:
                    s.fail("decompress of the set-up payload differs")
            else:
                key = _digest(np.frombuffer(out, dtype=np.uint8))
                if key not in verdict:
                    verdict[key] = self._check_payload(out)
                    s.bits_per_point.append(8.0 * len(out) / self.field.size)
                if verdict[key]:
                    s.fail(verdict[key])

    def _check_payload(self, payload: bytes) -> str | None:
        try:
            back = repro.decompress(payload)
        except repro.ReproError as exc:
            return f"compress payload does not decode: {exc!r}"
        if back.shape != self.field.shape:
            return f"compress payload decodes to {back.shape}"
        err = float(np.max(np.abs(back - self.field)))
        return None if err <= self.tol else f"compress payload max |err| {err:.3e} > {self.tol:.3e}"


WORKLOADS = {w.name: w for w in (RoundtripQuality, StoreWindowReads, ServiceMixed)}
