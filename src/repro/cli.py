"""Command-line interface: ``sperr compress|decompress|info|store|serve``.

Mirrors the ergonomics of the real SPERR command-line tool: an input
array (``.npy``) is compressed under either a point-wise error tolerance
(``--pwe`` or the ``--idx`` label of Table I) or a target bitrate
(``--bpp``), producing a self-contained ``.sperr`` container.  Beyond
single files, ``sperr store`` builds and queries sharded random-access
stores and ``sperr serve`` exposes a store over the async compression
service (``docs/service.md``).
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from .core import PweMode, SizeMode, compress, decompress, tolerance_from_idx
from .errors import InvalidArgumentError, ReproError, StreamFormatError, UnsupportedModeError

__all__ = ["main", "build_parser", "EXIT_ERROR", "EXIT_BAD_ARGS", "EXIT_CORRUPT"]

#: Exit codes: 1 = generic library error, 2 = bad arguments, 3 = corrupt
#: or unreadable stream.  Scripts can branch on them without parsing text.
EXIT_ERROR = 1
EXIT_BAD_ARGS = 2
EXIT_CORRUPT = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sperr",
        description="SPERR (pure-Python reproduction): lossy scientific data "
        "compression with a point-wise error guarantee.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compress", help="compress a .npy array into a .sperr container")
    c.add_argument("input", help="input array (.npy, 1-D to 3-D float data)")
    c.add_argument("output", help="output container path")
    bound = c.add_mutually_exclusive_group(required=True)
    bound.add_argument("--pwe", type=float, help="absolute point-wise error tolerance")
    bound.add_argument(
        "--idx", type=int, help="tolerance label: t = Range / 2**idx (Table I)"
    )
    bound.add_argument("--bpp", type=float, help="target bitrate (bits per point)")
    c.add_argument("--chunk", type=int, default=None, help="cubic chunk extent")
    c.add_argument(
        "--mode", default="quality", choices=("quality", "fast", "adaptive"),
        help="codec routing policy: quality = SPERR everywhere, fast = the "
        "SZx-style tier everywhere, adaptive = per-chunk dispatch "
        "(fast/adaptive need --pwe or --idx)",
    )
    c.add_argument(
        "--wavelet", default="cdf97", choices=("cdf97", "cdf53", "haar"),
        help="wavelet filter (default cdf97)",
    )
    c.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for chunked compression; 1 runs in-process "
        "(default: one per CPU for volumes of 4 MiB or more with two chunks "
        "per worker, in-process otherwise)",
    )
    c.add_argument("--verbose", action="store_true", help="print a cost summary")
    c.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a Chrome trace_event JSON of the per-stage spans to PATH "
        "(load it in chrome://tracing or Perfetto)",
    )

    d = sub.add_parser("decompress", help="reconstruct a .npy array from a container")
    d.add_argument("input", help="input .sperr container")
    d.add_argument("output", help="output array path (.npy)")
    d.add_argument(
        "--salvage", action="store_true",
        help="recover every intact chunk of a damaged container instead of "
        "failing; damaged chunks are filled with --fill-value",
    )
    d.add_argument(
        "--fill-value", type=float, default=None,
        help="fill for unrecoverable chunks in --salvage mode (default NaN); "
        "only valid together with --salvage",
    )
    d.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a Chrome trace_event JSON of the per-stage spans to PATH",
    )

    i = sub.add_parser("info", help="summarize a .sperr container")
    i.add_argument("input", help="input .sperr container")

    pk = sub.add_parser(
        "pack", help="compress several .npy snapshots into one time-series archive"
    )
    pk.add_argument("inputs", nargs="+", help="input arrays (.npy), one per frame")
    pk.add_argument("output", help="output archive path")
    pk_bound = pk.add_mutually_exclusive_group(required=True)
    pk_bound.add_argument("--pwe", type=float, help="absolute PWE tolerance (all frames)")
    pk_bound.add_argument(
        "--idx", type=int, help="per-frame tolerance label: t = Range / 2**idx"
    )
    pk.add_argument("--chunk", type=int, default=None, help="cubic chunk extent")

    ex = sub.add_parser("extract", help="decompress one frame of an archive")
    ex.add_argument("input", help="input time-series archive")
    ex.add_argument("index", type=int, help="frame index (negative counts from the end)")
    ex.add_argument("output", help="output array path (.npy)")

    st = sub.add_parser(
        "store", help="build and query a random-access compressed-array store"
    )
    st_sub = st.add_subparsers(dest="store_command", required=True)

    sb = st_sub.add_parser(
        "build", help="compress .npy arrays into a sharded store directory"
    )
    sb.add_argument("inputs", nargs="+", help="input arrays (.npy), one per frame")
    sb.add_argument("store", help="output store directory")
    sb_bound = sb.add_mutually_exclusive_group(required=True)
    sb_bound.add_argument("--pwe", type=float, help="absolute point-wise error tolerance")
    sb_bound.add_argument(
        "--idx", type=int, help="tolerance label: t = Range / 2**idx (first frame)"
    )
    sb_bound.add_argument("--bpp", type=float, help="target bitrate (bits per point)")
    sb.add_argument("--chunk", type=int, default=None, help="cubic chunk extent")
    sb.add_argument(
        "--mode", default="quality", choices=("quality", "fast", "adaptive"),
        help="codec routing policy per chunk (fast/adaptive need --pwe/--idx)",
    )
    sb.add_argument(
        "--wavelet", default="cdf97", choices=("cdf97", "cdf53", "haar"),
        help="wavelet filter (default cdf97)",
    )
    sb.add_argument(
        "--shard-size", type=int, default=None,
        help="shard rotation threshold in bytes (default 4 MiB)",
    )
    sb.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for chunked compression; 1 runs in-process "
        "(default: one per CPU for volumes of 4 MiB or more with two chunks "
        "per worker, in-process otherwise)",
    )

    sg = st_sub.add_parser(
        "get", help="decode a window of a store into a .npy array"
    )
    sg.add_argument("store", help="store directory")
    sg.add_argument("output", help="output array path (.npy)")
    sg.add_argument(
        "--window", default=None, metavar="SPEC",
        help="comma-separated per-axis selection, e.g. '8:40,0:32,:' or '7,:,:' "
        "(default: the full array)",
    )
    sg.add_argument("--frame", type=int, default=0, help="frame index (default 0)")
    sg.add_argument(
        "--level", type=int, default=0,
        help="coarsening level: skip this many inverse wavelet levels (default 0)",
    )
    sg.add_argument(
        "--budget", type=int, default=None,
        help="cap decoded compressed bytes for this read (SPECK truncation)",
    )
    sg.add_argument(
        "--salvage", action="store_true",
        help="fill damaged chunks with --fill-value instead of failing",
    )
    sg.add_argument(
        "--fill-value", type=float, default=None,
        help="fill for damaged chunks in --salvage mode (default NaN)",
    )
    sg.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for chunk decoding (default: in-process)",
    )
    sg.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a Chrome trace_event JSON of the read's spans to PATH",
    )

    si = st_sub.add_parser("info", help="summarize a store directory")
    si.add_argument("store", help="store directory")

    sv = sub.add_parser(
        "serve",
        help="serve a store over the async compression service "
        "(window reads, compress, decompress)",
    )
    sv.add_argument(
        "store", nargs="?", default=None,
        help="store directory to serve (omit for a store-less "
        "compress/decompress service)",
    )
    sv.add_argument("--host", default="127.0.0.1", help="bind address")
    sv.add_argument(
        "--port", type=int, default=9876,
        help="bind port (0 = ephemeral; default 9876)",
    )
    sv.add_argument(
        "--workers", type=int, default=4,
        help="worker threads for decode/compress jobs (default 4)",
    )
    sv.add_argument(
        "--cache-bytes", type=int, default=None,
        help="global decoded-chunk cache ceiling in bytes (default 64 MiB)",
    )
    sv.add_argument(
        "--tenant-quota", type=int, default=None,
        help="per-tenant cache quota in bytes (default: the ceiling)",
    )
    sv.add_argument(
        "--max-inflight", type=int, default=8,
        help="per-tenant in-flight request cap before backpressure",
    )
    sv.add_argument(
        "--max-pending", type=int, default=64,
        help="global admitted-request cap before backpressure",
    )
    sv.add_argument(
        "--batch-hold-ms", type=float, default=0.0,
        help="gathering delay per read batch (coalescing window, ms)",
    )

    cmp_ = sub.add_parser(
        "compare",
        help="run the paper's comparison suite (SPERR vs SZ/ZFP/TTHRESH/MGARD-like) "
        "on a .npy array",
    )
    cmp_.add_argument("input", help="input array (.npy)")
    cmp_.add_argument(
        "--idx", type=int, default=16, help="tolerance label: t = Range / 2**idx"
    )
    cmp_.add_argument(
        "--compressors",
        default="sperr,sz-like,zfp-like,mgard-like",
        help="comma-separated subset of: sperr, sz-like, zfp-like, tthresh-like, mgard-like",
    )

    sc = sub.add_parser(
        "scorecard",
        help="run the codec x scenario robustness matrix and print the table",
    )
    sc.add_argument(
        "--full", action="store_true",
        help="run every registered scenario (default: the tier-1 smoke subset)",
    )
    sc.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the scorecard as JSON to PATH (the CI artifact)",
    )
    sc.add_argument(
        "--codecs", default=None,
        help="comma-separated codec subset, incl. 'adaptive' for the "
        "dispatching pipeline row (default: every codec + adaptive)",
    )
    return parser


@contextlib.contextmanager
def _maybe_trace(path: str | None, name: str):
    """Collect a span trace around the wrapped block and write it to
    ``path`` as Chrome trace JSON; no-op context when ``path`` is None."""
    if path is None:
        yield None
        return
    from . import obs

    with obs.trace(name) as tracer:
        yield tracer
    obs.write_chrome_trace(tracer.report(), path)


def _cmd_compress(args: argparse.Namespace) -> int:
    data = np.load(args.input)
    if args.bpp is not None:
        mode: PweMode | SizeMode = SizeMode(bpp=args.bpp)
    elif args.idx is not None:
        mode = PweMode(tolerance_from_idx(data, args.idx))
    else:
        mode = PweMode(args.pwe)
    with _maybe_trace(args.trace, "sperr.cli.compress") as tracer:
        result = compress(
            data,
            mode,
            chunk_shape=args.chunk,
            wavelet=args.wavelet,
            workers=args.workers,
            codec=args.mode,
        )
    with open(args.output, "wb") as f:
        f.write(result.payload)
    if args.verbose:
        print(f"input:    {data.shape} {data.dtype} ({data.nbytes} bytes)")
        print(f"output:   {result.nbytes} bytes ({result.bpp:.3f} bpp)")
        print(f"ratio:    {data.nbytes / result.nbytes:.1f}x")
        print(f"chunks:   {len(result.reports)}")
        print(f"outliers: {result.n_outliers}")
        if tracer is not None:
            from . import obs

            print(obs.format_stage_table(tracer.report()))
    return 0


def _cmd_decompress(args: argparse.Namespace) -> int:
    if args.fill_value is not None and not args.salvage:
        raise InvalidArgumentError("--fill-value requires --salvage")
    with open(args.input, "rb") as f:
        payload = f.read()
    with _maybe_trace(args.trace, "sperr.cli.decompress"):
        if args.salvage:
            fill = float("nan") if args.fill_value is None else args.fill_value
            result = decompress(payload, on_error="salvage", fill_value=fill)
            report = result.report
            if not report.ok:
                print(f"salvage: {report.summary()}", file=sys.stderr)
                for note in report.notes:
                    print(f"salvage: {note}", file=sys.stderr)
            out = result.data
        else:
            out = decompress(payload)
    np.save(args.output, out)
    return 0


_MODE_NAMES = {0: "PWE-bounded", 1: "size-bounded", 2: "PSNR-bounded"}


def _cmd_info(args: argparse.Namespace) -> int:
    from .core.adaptive import CODEC_NAMES
    from .core.container import parse_framing
    from .core.mask import decode_mask, mask_summary

    with open(args.input, "rb") as f:
        payload = f.read()
    framing, parsed = parse_framing(payload)
    npoints = int(np.prod(parsed.shape))
    if parsed.mode_code is None:
        print(f"format:   {framing} (retired framing, read-only)")
        mode = "not recorded by this framing"
    else:
        crc_note = "CRC-protected" if parsed.format_version >= 2 else "no checksums"
        print(f"format:   v{parsed.format_version} ({framing}, {crc_note})")
        mode = _MODE_NAMES.get(parsed.mode_code, f"code {parsed.mode_code}")
    print(f"shape:    {parsed.shape}")
    print(f"dtype:    {parsed.dtype}")
    print(f"mode:     {mode}")
    print(f"chunks:   {len(parsed.chunks)}")
    counts = {n: 0 for n in CODEC_NAMES.values()}
    for t in parsed.codec_tags:
        counts[CODEC_NAMES[t]] += 1
    routed = ", ".join(f"{n}={c}" for n, c in counts.items() if c)
    print(f"codecs:   {routed}")
    print(f"size:     {len(payload)} bytes ({8.0 * len(payload) / npoints:.3f} bpp)")
    if parsed.mask_blob is not None:
        counts = mask_summary(decode_mask(parsed.mask_blob, npoints))
        print(
            f"mask:     {counts['masked']}/{npoints} samples non-finite "
            f"(NaN {counts['nan']}, +Inf {counts['pos_inf']}, "
            f"-Inf {counts['neg_inf']}); {len(parsed.mask_blob)}-byte RLE blob"
        )
    else:
        print("mask:     none (fully finite input)")
    return 0


def _cmd_scorecard(args: argparse.Namespace) -> int:
    import json

    from .analysis import format_scorecard, run_scorecard
    from .compressors import ALL_COMPRESSORS

    codecs = None
    if args.codecs:
        known = set(ALL_COMPRESSORS) | {"adaptive"}
        codecs = [n.strip() for n in args.codecs.split(",") if n.strip()]
        unknown = [n for n in codecs if n not in known]
        if unknown:
            print(
                f"error: unknown compressor(s) {unknown}; choose from "
                f"{sorted(known)}",
                file=sys.stderr,
            )
            return EXIT_BAD_ARGS
    card = run_scorecard(smoke_only=not args.full, codecs=codecs)
    print(format_scorecard(card))
    if args.json:
        with open(args.json, "w") as f:
            json.dump(card.to_dict(), f, indent=2)
        print(f"wrote {args.json}")
    return EXIT_ERROR if card.n_failed else 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .analysis import format_table, rd_point
    from .compressors import ALL_COMPRESSORS

    data = np.load(args.input)
    names = [n.strip() for n in args.compressors.split(",") if n.strip()]
    rows = []
    for name in names:
        if name not in ALL_COMPRESSORS:
            print(
                f"error: unknown compressor {name!r}; choose from "
                f"{sorted(ALL_COMPRESSORS)}",
                file=sys.stderr,
            )
            return EXIT_BAD_ARGS
        comp = ALL_COMPRESSORS[name]()
        p = rd_point(comp, data, args.idx)
        rows.append(
            [
                name,
                f"{p.bpp:.2f}",
                f"{p.psnr_db:.1f}",
                f"{p.gain:.2f}",
                f"{p.max_err:.3e}",
                "yes" if p.satisfied else "NO",
                f"{p.compress_seconds:.2f}s",
            ]
        )
    print(f"comparison at idx={args.idx} (t = Range / 2**{args.idx}):\n")
    print(
        format_table(
            ["compressor", "bpp", "PSNR dB", "gain", "max err", "bound ok", "time"],
            rows,
        )
    )
    return 0


def _parse_window(spec: str | None):
    """Parse a ``--window`` spec like ``"8:40,0:32,:"`` into slices/ints.

    Components are comma-separated; each is ``:``, ``a:b`` (either side
    optional, Python semantics), or a bare integer index.
    """
    if spec is None:
        return None
    window = []
    for part in spec.split(","):
        part = part.strip()
        if ":" in part:
            pieces = part.split(":")
            if len(pieces) != 2:
                raise InvalidArgumentError(
                    f"bad window component {part!r} (use 'a:b', ':' or an index)"
                )
            try:
                lo = int(pieces[0]) if pieces[0] else None
                hi = int(pieces[1]) if pieces[1] else None
            except ValueError:
                raise InvalidArgumentError(f"bad window component {part!r}") from None
            window.append(slice(lo, hi))
        else:
            try:
                window.append(int(part))
            except ValueError:
                raise InvalidArgumentError(f"bad window component {part!r}") from None
    return tuple(window)


def _cmd_store(args: argparse.Namespace) -> int:
    from .store import StoreWriter, open_store

    if args.store_command == "build":
        frames = [np.load(path) for path in args.inputs]
        if args.bpp is not None:
            mode: PweMode | SizeMode = SizeMode(bpp=args.bpp)
        elif args.idx is not None:
            mode = PweMode(tolerance_from_idx(frames[0], args.idx))
        else:
            mode = PweMode(args.pwe)
        kwargs = {}
        if args.shard_size is not None:
            kwargs["shard_bytes"] = args.shard_size
        with StoreWriter(
            args.store,
            mode,
            chunk_shape=args.chunk,
            wavelet=args.wavelet,
            workers=args.workers,
            codec=args.mode,
            **kwargs,
        ) as writer:
            total = 0
            for frame in frames:
                total += writer.append(frame).nbytes
        raw = sum(f.nbytes for f in frames)
        print(
            f"stored {len(frames)} frame(s): {raw} -> {total} payload bytes "
            f"({raw / total:.1f}x)"
        )
        return 0

    if args.store_command == "get":
        if args.fill_value is not None and not args.salvage:
            raise InvalidArgumentError("--fill-value requires --salvage")
        arr = open_store(args.store, workers=args.workers)
        window = _parse_window(args.window)
        kwargs = {
            "frame": args.frame,
            "level": args.level,
            "budget": args.budget,
        }
        with _maybe_trace(args.trace, "sperr.cli.store.get"):
            if args.salvage:
                fill = float("nan") if args.fill_value is None else args.fill_value
                result = arr.read_window(
                    window, on_error="salvage", fill_value=fill, **kwargs
                )
                if not result.report.ok:
                    print(f"salvage: {result.report.summary()}", file=sys.stderr)
                    for note in result.report.notes:
                        print(f"salvage: {note}", file=sys.stderr)
                out = result.data
            else:
                out = arr.read_window(window, **kwargs)
        np.save(args.output, out)
        print(f"wrote {out.shape} {out.dtype} to {args.output}")
        return 0

    info = open_store(args.store, cache_bytes=0).info()
    print(f"shape:     {info['shape']}")
    print(f"dtype:     {info['dtype']}")
    mode_name = _MODE_NAMES.get(info["mode_code"], f"code {info['mode_code']}")
    print(f"mode:      {mode_name}")
    print(f"wavelet:   {info['wavelet']} (levels: {info['levels'] or 'auto'})")
    print(f"frames:    {info['n_frames']}")
    print(f"chunks:    {info['n_chunks']} per frame (max level {info['max_level']})")
    print(f"shards:    {info['n_shards']}")
    print(f"payload:   {info['payload_bytes']} bytes")
    routed = ", ".join(f"{n}={c}" for n, c in info["codec_counts"].items() if c)
    print(f"codecs:    {routed}")
    if info.get("masked_frames"):
        print(
            f"masks:     frames {info['masked_frames']} carry non-finite "
            f"samples ({info['mask_bytes']} mask bytes)"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import CompressionService, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_inflight_per_tenant=args.max_inflight,
        max_pending=args.max_pending,
        batch_hold_s=args.batch_hold_ms / 1e3,
    )
    if args.cache_bytes is not None:
        config.cache_bytes = args.cache_bytes
    if args.tenant_quota is not None:
        config.tenant_quota_bytes = args.tenant_quota
    service = CompressionService(args.store, config=config)

    async def run() -> None:
        host, port = await service.start()
        target = args.store if args.store is not None else "(no store)"
        print(f"serving {target} on {host}:{port} - ctrl-c to stop")
        await service.serve_forever()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        print("\nstopped")
    return 0


def _cmd_pack(args: argparse.Namespace) -> int:
    from .core import compress_frames

    frames = [np.load(path) for path in args.inputs]
    if args.idx is not None:
        modes = [PweMode(tolerance_from_idx(f, args.idx)) for f in frames]
    else:
        modes = [PweMode(args.pwe)] * len(frames)
    payload, results = compress_frames(frames, modes, chunk_shape=args.chunk)
    with open(args.output, "wb") as f:
        f.write(payload)
    raw = sum(fr.nbytes for fr in frames)
    print(
        f"packed {len(frames)} frames: {raw} -> {len(payload)} bytes "
        f"({raw / len(payload):.1f}x)"
    )
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    from .core import decompress_frame

    with open(args.input, "rb") as f:
        payload = f.read()
    np.save(args.output, decompress_frame(payload, args.index))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "compress":
            return _cmd_compress(args)
        if args.command == "decompress":
            return _cmd_decompress(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "pack":
            return _cmd_pack(args)
        if args.command == "extract":
            return _cmd_extract(args)
        if args.command == "store":
            return _cmd_store(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "scorecard":
            return _cmd_scorecard(args)
        return _cmd_info(args)
    except (InvalidArgumentError, UnsupportedModeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS
    except StreamFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
