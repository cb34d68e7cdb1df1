"""Observability layer: span nesting, counters, worker merge, exporters.

Covers the contracts the instrumentation relies on: spans nest and land
in completion order, counters agree with the bytes the pipeline actually
emitted, process-worker traces merge deterministically, the disabled
path stays cheap, and the Chrome exporter's output is pinned by a golden
snapshot.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core import PweMode, compress, decompress
from repro.obs.trace import _NOOP

GOLDEN = Path(__file__).parent / "data" / "golden_trace.json"


@pytest.fixture
def volume():
    rng = np.random.default_rng(42)
    return rng.normal(size=(16, 16, 16))


def _golden_report() -> obs.TraceReport:
    """A hand-built report with fixed values (no clocks, no pids)."""
    spans = (
        obs.Span(
            name="speck.encode",
            start_us=1100.0,
            dur_us=200.0,
            cpu_us=190.5,
            pid=1234,
            tid=7,
            depth=1,
            attrs={"q": 0.5, "nbits": 1024},
        ),
        obs.Span(
            name="chunk.compress",
            start_us=1000.0,
            dur_us=500.0,
            cpu_us=450.0,
            pid=1234,
            tid=7,
            depth=0,
            attrs={"shape": [8, 8]},
        ),
    )
    return obs.TraceReport(
        name="golden",
        spans=spans,
        counters={"speck.bits": 1024, "container.bytes": 128},
    )


class TestSpans:
    def test_nesting_depths_and_completion_order(self):
        with obs.trace("t") as tracer:
            with obs.span("outer"):
                with obs.span("mid"):
                    with obs.span("inner"):
                        pass
        report = tracer.report()
        order = [(s.name, s.depth) for s in report.spans]
        # children finish (and are appended) before their parents
        assert order == [("inner", 2), ("mid", 1), ("outer", 0)]

    def test_span_timing_and_containment(self):
        with obs.trace("t") as tracer:
            with obs.span("outer"):
                with obs.span("inner"):
                    time.sleep(0.01)
        inner, outer = tracer.report().spans
        assert inner.dur_us >= 10_000  # the sleep
        assert outer.start_us <= inner.start_us
        assert outer.end_us >= inner.end_us
        assert inner.pid == os.getpid()

    def test_set_and_add_from_inside_span(self):
        with obs.trace("t") as tracer:
            with obs.span("s", chunk=3) as sp:
                sp.set(nbits=17).add("bits", 17)
        report = tracer.report()
        assert report.spans[0].attrs == {"chunk": 3, "nbits": 17}
        assert report.counters == {"bits": 17}

    def test_trace_stacking_restores_previous(self):
        with obs.trace("outer") as outer:
            with obs.span("before"):
                pass
            with obs.trace("inner") as inner:
                with obs.span("shadowed"):
                    pass
            with obs.span("after"):
                pass
        assert [s.name for s in outer.report().spans] == ["before", "after"]
        assert [s.name for s in inner.report().spans] == ["shadowed"]
        assert not obs.is_active()

    def test_report_helpers(self):
        with obs.trace("t") as tracer:
            for _ in range(3):
                with obs.span("work"):
                    pass
        report = tracer.report()
        assert report.stage_calls() == {"work": 3}
        assert set(report.stage_totals()) == {"work"}
        assert len(report.find("work")) == 3
        assert report.find("absent") == []
        assert report.wall_seconds() >= 0.0


class TestDisabledPath:
    def test_noop_singleton_when_inactive(self):
        assert not obs.is_active()
        assert obs.active_tracer() is None
        sp = obs.span("anything", chunk=1)
        assert sp is _NOOP
        with sp as inner:
            inner.set(a=1).add("c", 2)  # all no-ops, nothing raises
        obs.add_counter("c", 5)  # no-op

    def test_wrap_worker_identity_when_inactive(self):
        f = len
        assert obs.wrap_worker(f) is f

    def test_absorb_passthrough(self):
        assert obs.absorb_result(41) == 41
        traced = obs.TracedResult(value="v", spans=[], counters={"c": 1})
        # inactive: value unwrapped, spans dropped
        assert obs.absorb_result(traced) == "v"

    def test_disabled_overhead_guard(self):
        """50k disabled span() calls must stay far below a generous bound.

        The bound is absolute and loose (CI machines vary); the point is
        to catch the no-op path growing real work, not to microbenchmark.
        """
        t0 = time.perf_counter()
        for i in range(50_000):
            with obs.span("hot", chunk=i):
                pass
        elapsed = time.perf_counter() - t0
        assert elapsed < 2.0, f"disabled span path took {elapsed:.2f}s / 50k calls"


class TestPipelineCounters:
    def test_counters_match_emitted_bytes(self, volume):
        with obs.trace("t") as tracer:
            result = compress(volume, PweMode(1e-2))
        counters = tracer.report().counters
        assert counters["container.bytes"] == len(result.payload)
        assert counters["speck.bits"] == sum(r.speck_nbits for r in result.reports)
        assert counters["outlier.count"] == result.n_outliers
        assert counters["chunk.bytes"] <= len(result.payload)

    def test_compress_trace_kwarg_attaches_report(self, volume):
        result = compress(volume, PweMode(1e-2), trace=True)
        assert result.trace is not None
        names = {s.name for s in result.trace.spans}
        assert {"wavelet.forward", "speck.encode", "lossless.encode"} <= names
        assert not obs.is_active()

    def test_compress_without_trace_has_none(self, volume):
        assert compress(volume, PweMode(1e-2)).trace is None

    def test_decompress_spans(self, volume):
        payload = compress(volume, PweMode(1e-2)).payload
        with obs.trace("t") as tracer:
            out = decompress(payload)
        assert out.shape == volume.shape
        names = {s.name for s in tracer.report().spans}
        assert {"sperr.decompress", "container.parse", "speck.decode"} <= names


class TestWorkerMerge:
    def test_process_worker_merge_is_deterministic(self, volume):
        def run():
            with obs.trace("t") as tracer:
                result = compress(
                    volume, PweMode(1e-2), chunk_shape=8, workers=2
                )
            report = tracer.report()
            key = [
                (s.name, s.depth, s.attrs.get("worker_item"))
                for s in report.spans
            ]
            return result.payload, key, report

        payload_a, key_a, report_a = run()
        payload_b, key_b, _ = run()
        assert payload_a == payload_b
        assert key_a == key_b, "merged span sequence must not depend on scheduling"
        # worker spans really came from other processes and are tagged
        worker_spans = [
            s for s in report_a.spans if s.attrs.get("worker_item") is not None
        ]
        # One stacked span per shape group per task: two tasks of four
        # same-shaped chunks, every chunk coded exactly once.
        stacks = report_a.find("chunk.compress")
        assert [s.attrs["lanes"] for s in stacks] == [4, 4]
        assert sorted(s.attrs["worker_item"] for s in stacks) == [0, 1]
        assert worker_spans and all(s.pid != os.getpid() for s in worker_spans)
        # worker counters folded into the parent totals
        assert report_a.counters["chunk.bytes"] > 0


class TestExporters:
    def test_chrome_trace_structure(self, volume):
        with obs.trace("t") as tracer:
            compress(volume, PweMode(1e-2))
        doc = obs.chrome_trace(tracer.report())
        events = doc["traceEvents"]
        assert events, "trace must contain events"
        assert {e["ph"] for e in events} <= {"X", "C"}
        xs = [e for e in events if e["ph"] == "X"]
        assert min(e["ts"] for e in xs) == 0.0  # normalized to trace start
        assert all(e["dur"] >= 0 for e in xs)
        names = {e["name"] for e in xs}
        assert "speck.encode" in names

    def test_write_chrome_trace_round_trips(self, volume, tmp_path):
        with obs.trace("t") as tracer:
            compress(volume, PweMode(1e-2))
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(tracer.report(), path)
        doc = json.loads(path.read_text())
        assert doc["otherData"]["trace_name"] == "t"
        assert doc["traceEvents"]

    def test_format_stage_table(self, volume):
        with obs.trace("t") as tracer:
            compress(volume, PweMode(1e-2))
        table = obs.format_stage_table(tracer.report())
        assert "speck.encode" in table
        assert "wall ms" in table
        assert "container.bytes" in table

    def test_golden_chrome_trace_snapshot(self):
        """The exporter's byte-exact output is pinned by a golden file.

        The report is hand-built from fixed values, so any change to
        event layout, rounding, ordering, or key names shows up as a
        diff against ``tests/data/golden_trace.json``.
        """
        got = obs.to_json(_golden_report())
        assert got == GOLDEN.read_text(), (
            "Chrome trace output changed; if intentional, regenerate the "
            "golden file with: PYTHONPATH=src python -c \"from tests.test_obs "
            "import _regen_golden; _regen_golden()\""
        )


def _regen_golden() -> None:
    """Rewrite the golden snapshot from the current exporter."""
    GOLDEN.write_text(obs.to_json(_golden_report()))
