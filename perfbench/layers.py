"""Per-layer split for the traced run.

The benchmark measures the program from outside.  For the layer split it
wraps the public functions each layer exposes, under the name the caller
actually looks up: ``repro.core.pipeline`` imported ``dwt_forward`` by
name, so the wrapper replaces ``repro.core.pipeline.dwt_forward``, while
``repro.core.container`` calls ``lossless.compress`` through the module,
so the wrapper replaces ``repro.lossless.compress``.  Each wrapper opens a
``repro.obs`` span, so the spans the program already emits at the same
boundaries (``outlier.locate`` inside the batched compress path,
``container.verify``, ``store.chunk.decode``, ...) land in the same
trace with a consistent nesting depth.  A layer's self time is the
duration of its spans minus the part covered by their direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager

from repro import obs

#: Lossless backend method tags (the first byte of every lossless payload).
LOSSLESS_TAGS = {
    0: "stored",
    1: "rle",
    2: "huffman",
    3: "rle_huffman",
    4: "lz77",
    5: "ac",
    6: "rc",
}

#: Layers that report a self time, in print order.
SELF_TIME_LAYERS = (
    "wavelets.forward",
    "wavelets.inverse",
    "quant",
    "speck.encode",
    "speck.decode",
    "outlier.locate",
    "outlier.encode",
    "outlier.apply",
    "lossless.encode",
    "lossless.decode",
    "container.build",
    "container.parse",
    "adaptive.dispatch",
    "szx.encode",
    "szx.decode",
    "store.read_window",
    "store.append",
    "protocol.encode",
    "protocol.parse",
)


def _count_speck_bytes(args, kwargs, out):
    obs.add_counter("bench.speck.decode.bytes_in", len(args[0]))


def _count_lossless_tag(args, kwargs, out):
    obs.add_counter(f"bench.lossless.tag.{LOSSLESS_TAGS.get(out[0], 'other')}")


def _count_lossless_out(args, kwargs, out):
    obs.add_counter("bench.lossless.decode.bytes_out", len(out))


def _count_frame_bytes(args, kwargs, out):
    obs.add_counter("bench.protocol.bytes", len(out))


#: ``(module, attribute, layer, counter hook)``.  ``attribute`` may be
#: ``Class.method``.  Each entry is the name a caller looks up at call
#: time, so the wrapper sees every call that path makes.
WRAP_TARGETS = (
    # batched compress path (core.batch imported the kernels by name)
    ("repro.core.batch", "forward_batch", "wavelets.forward", None),
    ("repro.core.batch", "inverse_batch", "wavelets.inverse", None),
    ("repro.core.batch", "encode_coefficients_batch", "speck.encode", None),
    # serial chunk pipeline (compress of single chunks, every decode)
    ("repro.core.pipeline", "dwt_forward", "wavelets.forward", None),
    ("repro.core.pipeline", "dwt_inverse", "wavelets.inverse", None),
    ("repro.core.pipeline", "encode_coefficients", "speck.encode", None),
    ("repro.core.pipeline", "decode_coefficients", "speck.decode", _count_speck_bytes),
    ("repro.core.pipeline", "locate_outliers", "outlier.locate", None),
    ("repro.core.pipeline", "encode_outliers", "outlier.encode", None),
    ("repro.outlier.coder", "OutlierCoder.apply", "outlier.apply", None),
    # coefficient quantization, looked up in repro.speck by the SPECK
    # entry points (the outlier coder's own quantizer stays in outlier)
    ("repro.speck", "integerize", "quant", None),
    ("repro.speck", "integerize_batch", "quant", None),
    ("repro.speck", "dequantize", "quant", None),
    ("repro.speck", "dequantize_batch", "quant", None),
    # lossless backend, called through the package module everywhere
    ("repro.lossless", "compress", "lossless.encode", _count_lossless_tag),
    ("repro.lossless", "decompress", "lossless.decode", _count_lossless_out),
    # container framing
    ("repro.core.container", "build_container", "container.build", None),
    ("repro.core.container", "parse_container", "container.parse", None),
    ("repro.store.writer", "parse_container", "container.parse", None),
    # fast tier: dispatch and the szx kernels (imported lazily by name
    # from the codec module at call time)
    ("repro.core.container", "choose_codecs", "adaptive.dispatch", None),
    ("repro.compressors.szxlike.codec", "encode_chunks", "szx.encode", None),
    ("repro.compressors.szxlike.codec", "decode_chunk", "szx.decode", None),
    # store
    ("repro.store.reader", "CompressedArray.read_window", "store.read_window", None),
    ("repro.store.writer", "StoreWriter.append", "store.append", None),
    # service wire protocol, on both sides of the socket
    ("repro.service.server", "encode_message", "protocol.encode", _count_frame_bytes),
    ("repro.service.server", "array_to_wire", "protocol.encode", None),
    ("repro.service.server", "parse_message", "protocol.parse", None),
    ("repro.service.server", "parse_prelude", "protocol.parse", None),
    ("repro.service.server", "array_from_wire", "protocol.parse", None),
    ("repro.service.client", "encode_message", "protocol.encode", _count_frame_bytes),
    ("repro.service.client", "array_to_wire", "protocol.encode", None),
    ("repro.service.client", "parse_message", "protocol.parse", None),
    ("repro.service.client", "parse_prelude", "protocol.parse", None),
    ("repro.service.client", "array_from_wire", "protocol.parse", None),
)

#: Spans ``repro.obs`` already emits, mapped onto the same layers.  They
#: nest inside the wrappers (or stand alone where the work is inline, as
#: in the batched outlier pass), so their self time must land in a layer
#: too.  Orchestration spans (``sperr.compress``, ``chunk.decompress``,
#: ``service.batch.read``, ...) are deliberately unmapped: their self
#: time is what ``unattributed_frac`` reports.
OBS_SPANS = {
    "wavelet.forward": "wavelets.forward",
    "wavelet.inverse": "wavelets.inverse",
    "speck.encode": "speck.encode",
    "speck.decode": "speck.decode",
    "outlier.locate": "outlier.locate",
    "outlier.encode": "outlier.encode",
    "outlier.apply": "outlier.apply",
    "lossless.encode": "lossless.encode",
    "lossless.decode": "lossless.decode",
    "container.build": "container.build",
    "container.parse": "container.parse",
    "container.verify": "container.parse",
    "container.assemble": "container.parse",
    "adaptive.dispatch": "adaptive.dispatch",
    "szx.encode": "szx.encode",
    "stored.encode": "szx.encode",
    "store.read_window": "store.read_window",
    "store.chunk.decode": "store.read_window",
    "store.write_frame": "store.append",
}

_WRAPPER_PREFIX = "bench:"


def _resolve(module_name: str, attribute: str):
    """Return ``(owner, name)`` so ``getattr(owner, name)`` is the target."""
    owner = importlib.import_module(module_name)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _make_wrapper(fn, span_name: str, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(span_name):
            out = fn(*args, **kwargs)
            if hook is not None:
                hook(args, kwargs, out)
        return out

    return wrapper


@contextmanager
def wrappers_installed():
    """Install every :data:`WRAP_TARGETS` wrapper; restore on exit.

    A target missing from the program is reported on stderr and skipped,
    so the benchmark still runs against a commit that moved a function;
    that layer then reads low and the report says why.
    """
    installed = []
    try:
        for module_name, attribute, layer, hook in WRAP_TARGETS:
            try:
                owner, name = _resolve(module_name, attribute)
                original = owner.__dict__[name]
            except (ImportError, AttributeError, KeyError):
                print(f"perfbench: wrap target {module_name}.{attribute} "
                      f"not found; layer {layer} may read low", file=sys.stderr)
                continue
            setattr(owner, name, _make_wrapper(original, _WRAPPER_PREFIX + layer, hook))
            installed.append((owner, name, original))
        yield
    finally:
        for owner, name, original in reversed(installed):
            setattr(owner, name, original)


def _layer_of(span_name: str) -> str | None:
    if span_name.startswith(_WRAPPER_PREFIX):
        return span_name[len(_WRAPPER_PREFIX):]
    return OBS_SPANS.get(span_name)


def self_times(spans) -> list[tuple[object, float]]:
    """``(span, self seconds)`` for every span.

    Spans are grouped per recording thread and nested by the depth
    ``repro.obs`` records, so a span's direct children are exactly the
    spans opened one level deeper while it was live.
    """
    by_thread = defaultdict(list)
    for s in spans:
        by_thread[(s.pid, s.tid)].append(s)
    child_us: dict[int, float] = defaultdict(float)
    for group in by_thread.values():
        group.sort(key=lambda s: (s.start_us, s.depth))
        stack = []
        for s in group:
            while stack and stack[-1].depth >= s.depth:
                stack.pop()
            if stack:
                child_us[id(stack[-1])] += s.dur_us
            stack.append(s)
    return [(s, max(0.0, s.dur_us - child_us[id(s)]) / 1e6) for s in spans]


def layer_split(report, main_tid: int | None = None) -> dict:
    """Aggregate a :class:`repro.obs.TraceReport` into layer totals.

    Returns ``self_s`` (layer -> seconds), ``calls`` (layer -> wrapper
    calls), ``counters`` (the trace counters), ``other_self_s`` (self
    time of unmapped spans) and, when ``main_tid`` is given,
    ``off_main_self_s``: layer self time recorded on other threads (the
    in-process server's threads).
    """
    self_s = {layer: 0.0 for layer in SELF_TIME_LAYERS}
    calls: dict[str, int] = defaultdict(int)
    other = 0.0
    off_main = 0.0
    for span, seconds in self_times(report.spans):
        layer = _layer_of(span.name)
        if layer is None:
            other += seconds
            continue
        self_s[layer] = self_s.get(layer, 0.0) + seconds
        if span.name.startswith(_WRAPPER_PREFIX):
            calls[layer] += 1
        if main_tid is not None and span.tid != main_tid:
            off_main += seconds
    return {
        "self_s": self_s,
        "calls": dict(calls),
        "counters": dict(report.counters),
        "other_self_s": other,
        "off_main_self_s": off_main,
    }
