"""Pipeline observability: nested spans, counters, and trace export.

A zero-dependency tracing/metrics subsystem for the compression stack.
Instrumentation is disabled by default — :func:`span` and
:func:`add_counter` are no-ops until a :class:`trace` is active — so the
hot path pays nothing when nobody is measuring.  When a trace *is*
active, every stage of compress/decompress (wavelet transform, SPECK
coding, outlier passes, lossless backend, container framing) records a
:class:`Span` with wall and CPU time plus byte/bit counters; spans
recorded by thread workers land in the same collector, and spans from
process workers are shipped back with each result and merged in
deterministic submission order.

Typical use::

    from repro import obs
    from repro.obs.export import write_chrome_trace, format_stage_table

    with obs.trace("sperr.compress") as tracer:
        result = repro.compress(data, mode, chunk_shape=32)
    report = tracer.report()
    print(format_stage_table(report))
    write_chrome_trace(report, "out.json")   # chrome://tracing loadable

The CLI exposes the same machinery as ``sperr compress --trace out.json``;
``bench_fig6_time_breakdown`` consumes :meth:`TraceReport.stage_totals`
instead of hand-rolled timers, and ``perfbench/run.py --trace 1`` builds
its per-layer split from the same spans.  See ``docs/observability.md``.
"""

from .export import chrome_trace, format_stage_table, to_json, write_chrome_trace
from .trace import (
    Span,
    TracedResult,
    TraceReport,
    Tracer,
    absorb_result,
    active_tracer,
    add_counter,
    is_active,
    span,
    trace,
    wrap_worker,
)

__all__ = [
    "Span",
    "Tracer",
    "TraceReport",
    "TracedResult",
    "trace",
    "span",
    "add_counter",
    "is_active",
    "active_tracer",
    "wrap_worker",
    "absorb_result",
    "chrome_trace",
    "to_json",
    "write_chrome_trace",
    "format_stage_table",
]
