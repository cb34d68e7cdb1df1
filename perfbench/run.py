"""Benchmark entry point: one workload per process, or all, or a steadiness pass.

    python3 perfbench/run.py --workload roundtrip-quality --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --steady 10 --seconds 30

``--trace 0`` times the loop untraced and reports the end-to-end
metrics; ``--trace 1`` runs the loop untraced for half the time and
traced for the other half and reports the per-layer metrics.  Each
metric is printed with its unit and sample count; the last line of
standard output is the JSON result.  Timings are reported at the
reference host speed of ``hostspeed.py``; the table beside them shows
the measured value.  The exit code is non-zero when any
op failed or the program cannot be imported.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_tmp"
WORKLOAD_NAMES = ("roundtrip-quality", "store-window-reads", "service-mixed")


def _percentile(values, q: float) -> float | None:
    """Linear-interpolated percentile (numpy's default), None when empty."""
    if not values:
        return None
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _ms(value):
    return None if value is None else 1e3 * value


def end_to_end(s, setup_s: list[float], lat: dict) -> dict:
    """``name -> (value, unit, samples)`` for every end-to-end metric,
    from the op durations ``lat`` (op class -> seconds)."""

    def rate(op):
        rates = [b / t / 1e6 for b, t in zip(s.raw_bytes[op], lat.get(op, ())) if t > 0]
        return _percentile(rates, 50), "MB/s", len(rates)

    reads = lat.get("read", [])
    return {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "compress_MBps": rate("compress"),
        "decompress_MBps": rate("decompress"),
        "bits_per_point": (_percentile(s.bits_per_point, 50), "bits", len(s.bits_per_point)),
        "read_p50_ms": (_ms(_percentile(reads, 50)), "ms", len(reads)),
        "read_p90_ms": (_ms(_percentile(reads, 90)), "ms", len(reads)),
        # ru_maxrss is KiB on Linux.
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB", 1),
    }


def per_layer(split: dict, setup_split: dict, plain, traced) -> dict:
    """``name -> (value, unit, samples)`` for every per-layer metric."""
    from layers import LOSSLESS_TAGS, SELF_TIME_LAYERS

    self_s, calls, c = split["self_s"], split["calls"], split["counters"]
    n_ops = len(traced.ops)
    out = {}
    for layer in SELF_TIME_LAYERS:
        if layer != "store.append":
            out[f"{layer}.self_s"] = (self_s[layer], "s", calls.get(layer, 0))
    # The store is written during set-up, so the writer's layer is
    # measured over the traced set-up rather than the loop.
    out["store.append.self_s"] = (
        setup_split["self_s"]["store.append"], "s", setup_split["calls"].get("store.append", 0)
    )
    wavelet_calls = calls.get("wavelets.forward", 0) + calls.get("wavelets.inverse", 0)
    out["wavelets.calls"] = (wavelet_calls, "count", wavelet_calls)
    out["speck.decode.bytes_in"] = (c.get("bench.speck.decode.bytes_in", 0), "bytes", calls.get("speck.decode", 0))
    out["outlier.count"] = (c.get("outlier.count", 0), "count", n_ops)
    out["lossless.decode.bytes_out"] = (c.get("bench.lossless.decode.bytes_out", 0), "bytes", calls.get("lossless.decode", 0))
    for tag in LOSSLESS_TAGS.values():
        out[f"lossless.tag.{tag}"] = (c.get(f"bench.lossless.tag.{tag}", 0), "chunks", calls.get("lossless.encode", 0))
    for route in ("sperr", "szx", "stored"):
        out[f"adaptive.route.{route}"] = (c.get(f"adaptive.route.{route}", 0), "chunks", calls.get("adaptive.dispatch", 0))
    reads = calls.get("store.read_window", 0)
    hits, misses = c.get("store.cache.hits", 0), c.get("store.cache.misses", 0)
    out["store.chunks_per_read"] = (c.get("store.chunks.requested", 0) / reads if reads else 0.0, "chunks", reads)
    out["store.cache.hits"] = (hits, "count", reads)
    out["store.cache.misses"] = (misses, "count", reads)
    out["store.cache.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio", hits + misses)
    out["store.cache.lookups"] = (hits + misses, "count", reads)
    out["protocol.bytes"] = (c.get("bench.protocol.bytes", 0), "bytes", calls.get("protocol.encode", 0))

    delta = defaultdict(float)
    if traced.service_stats:
        before, after = traced.service_stats
        for key in ("batches", "batched_reads", "coalesced_chunk_hits", "backpressure_rejects"):
            delta[key] = after["counters"].get(key, 0) - before["counters"].get(key, 0)
        for key in ("hits", "misses"):
            delta[key] = after["cache"].get(key, 0) - before["cache"].get(key, 0)
    lookups = delta["coalesced_chunk_hits"] + delta["hits"] + delta["misses"]
    out["service.batches"] = (delta["batches"], "count", 2 if traced.service_stats else 0)
    out["service.batch_size.mean"] = (
        delta["batched_reads"] / delta["batches"] if delta["batches"] else 0.0, "reads", delta["batches"]
    )
    out["service.coalesced_ratio"] = (
        delta["coalesced_chunk_hits"] / lookups if lookups else 0.0, "ratio", lookups
    )
    out["service.chunk_lookups"] = (lookups, "count", lookups)
    out["service.backpressure_rejects"] = (delta["backpressure_rejects"], "count", n_ops)
    wall = sum(t1 - t0 for t0, t1 in traced.ops)
    out["service.wait_s"] = (
        wall - split["off_main_self_s"] if traced.service_stats else 0.0, "s", n_ops
    )
    attributed = sum(self_s.values())
    out["unattributed_frac"] = ((wall - attributed) / wall if wall else 0.0, "ratio", n_ops)
    # Both halves rescaled to the reference host speed, so a change of
    # host speed between them does not read as tracing overhead.
    plain_op, traced_op = _percentile(plain.ops_scaled, 50), _percentile(traced.ops_scaled, 50)
    out["trace_overhead_frac"] = (
        traced_op / plain_op - 1.0 if plain_op and traced_op else 0.0, "ratio", len(plain.ops) + n_ops
    )
    lag = _ms(_percentile(traced.lag_s, 90))
    out["loadgen.lag_p90_ms"] = (lag or 0.0, "ms", len(traced.lag_s))
    return out


def host_line(loadavg) -> str:
    import numpy

    load = " ".join(f"{x:.2f}" for x in loadavg)
    return (f"host: nproc {len(os.sched_getaffinity(0))}, python {platform.python_version()}, "
            f"numpy {numpy.__version__}, loadavg {load}")


def measure(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False, fault=None):
    """Run one workload; returns ``(metrics, measured, attempted, failed,
    errors)``: ``metrics`` at the reference host speed, ``measured`` the
    same metrics from the measured clock (None for the traced pass)."""
    from repro import obs

    import layers
    from workloads import WORKLOADS

    WORK_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[name](seed, work_dir=WORK_DIR, tiny=tiny, fault=fault)
    setups = []
    try:
        for i in range(wl.setup_repeats):
            if i:
                wl.teardown()
            wl.hs.probe(5)
            t0 = time.perf_counter()
            wl.setup()
            setups.append((t0, time.perf_counter()))
        wl.hs.probe(5)
        setup_s = [(t1 - t0) * wl.hs.scale(t0, t1, 10) for t0, t1 in setups]
        wl.prepare()
        if not trace:
            s = wl.run(seconds)
            wl.check(s)
            measured = end_to_end(s, [t1 - t0 for t0, t1 in setups],
                                  {op: s.latency(op) for op in s.intervals})
            return (end_to_end(s, setup_s, s.scaled), measured,
                    s.attempted, s.failed, s.errors)
        plain = wl.run(seconds / 2)
        wl.check(plain)
        wl.teardown()
        with layers.wrappers_installed():
            with obs.trace("setup") as setup_tracer:
                wl.setup()
            wl.prepare()
            with obs.trace("loop") as loop_tracer:
                traced = wl.run(seconds / 2)
        wl.check(traced)
        split = layers.layer_split(loop_tracer.report(), main_tid=threading.get_ident())
        setup_split = layers.layer_split(setup_tracer.report())
        metrics = per_layer(split, setup_split, plain, traced)
        return (metrics, None, plain.attempted + traced.attempted,
                plain.failed + traced.failed, plain.errors + traced.errors)
    finally:
        wl.teardown()


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def report(name: str, seed: int, seconds: float, trace: bool, metrics: dict, measured,
           attempted: int, failed: int, errors: list, loadavg) -> dict:
    """Print the human-readable table and return the JSON result."""
    from workloads import WORKLOADS

    print(f"workload {name} ({WORKLOADS[name].loop}), seed {seed}, "
          f"{seconds:g} s, trace {int(trace)}")
    print(host_line(loadavg))
    if measured:
        print(f"  {'':32s} {'at ref speed':>14s} {'':8s} {'':8s} {'measured':>14s}")
    for metric, (value, unit, n) in metrics.items():
        line = f"  {metric:32s} {_fmt(value):>14s} {unit:8s} n={_fmt(n):6s}"
        if measured:
            line += f" {_fmt(measured[metric][0]):>14s}"
        print(line)
    print(f"  ops attempted {attempted}, failed {failed}")
    for err in errors:
        print(f"perfbench: failed op: {err}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u, _n) in metrics.items()},
    }


def _subprocess_run(name: str, seed: int, seconds: float, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process (so peak RSS is per workload)."""
    worst = 0
    for name in WORKLOAD_NAMES:
        code, out = _subprocess_run(name, seed, seconds, trace)
        sys.stdout.write(out)
        worst = max(worst, code)
    return worst


def steady(rounds: int, seconds: float, base_seed: int, trace: int, names) -> int:
    """Run the workloads ``rounds`` times in alternating order, each round
    on a new seed; report median, quartiles and (Q3-Q1)/median per metric
    and flag spreads over the metric's bound in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict = defaultdict(lambda: defaultdict(list))
    failed = 0
    for r in range(rounds):
        order = names if r % 2 == 0 else names[::-1]
        for name in order:
            code, out = _subprocess_run(name, base_seed + r, seconds, trace)
            result = json.loads(out.strip().splitlines()[-1]) if out.strip() else None
            if code or result is None or not result["correct"]:
                failed += 1
                print(f"round {r} {name}: exit {code}", file=sys.stderr)
                continue
            for metric, v in result["metrics"].items():
                values[name][metric].append(v["value"])
            print(f"round {r} seed {base_seed + r} {name}: ok", file=sys.stderr)
    over = 0
    for name in names:
        print(f"{name}:")
        for metric, vals in values[name].items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and spread > bound:
                flag = "  OVER BOUND"
                over += metric != "setup_s"
            elif bound is not None and spread > bound / 3:
                flag = "  over bound/3"
            print(f"  {metric:32s} median {_fmt(med):>12s}  q1 {_fmt(q1):>12s}  "
                  f"q3 {_fmt(q3):>12s}  spread {spread:.4f}"
                  + (f"  bound {bound}" if bound is not None else "") + flag)
    return 1 if over or failed else 0


def main(argv=None, *, tiny: bool = False, fault=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="ROUNDS", default=0,
                        help="steadiness pass: ROUNDS runs of every workload")
    args = parser.parse_args(argv)
    loadavg = os.getloadavg()

    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import numpy  # noqa: F401

        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2

    if args.steady:
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        return steady(args.steady, args.seconds, args.seed, args.trace, names)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    metrics, measured, attempted, failed, errors = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), tiny=tiny, fault=fault
    )
    result = report(args.workload, args.seed, args.seconds, bool(args.trace),
                    metrics, measured, attempted, failed, errors, loadavg)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
