"""Ablation: the lossless final pass (the paper's ZSTD stage, Sec. V).

SPECK output is entropy-dense, so the final lossless pass buys only a
small, data-dependent saving — this bench measures each coder `auto`
prices on real SPERR chunk streams, checks that every payload decodes to
the chunk stream, and confirms `auto` never loses to any of them.
"""

from __future__ import annotations

from common import emit, quick_mode
from repro import lossless
from repro.analysis import banner, format_table
from repro.core import PweMode, compress_chunk, tolerance_from_idx
from repro.datasets import miranda_viscosity, s3d_ch4


def test_ablation_lossless_backend(benchmark):
    shape = (16, 16, 16) if quick_mode() else (32, 32, 32)
    cases = {
        "Visc idx=12": (miranda_viscosity(shape), 12),
        "Visc idx=24": (miranda_viscosity(shape), 24),
        "CH4 idx=12": (s3d_ch4(shape), 12),
    }
    methods = ("stored", "huffman", "lz77", "rc", "auto")

    sizes: dict[tuple[str, str], int] = {}
    raw_sizes: dict[str, int] = {}
    decoded_ok: dict[tuple[str, str], bool] = {}

    def run():
        for label, (data, idx) in cases.items():
            stream, _ = compress_chunk(data, PweMode(tolerance_from_idx(data, idx)))
            raw_sizes[label] = len(stream)
            for method in methods:
                payload = lossless.compress(stream, method=method)
                sizes[(label, method)] = len(payload)
                decoded_ok[(label, method)] = lossless.decompress(payload) == stream
        return sizes

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for label in cases:
        raw = raw_sizes[label]
        row = [label, raw] + [
            f"{100 * (1 - sizes[(label, m)] / raw):+.1f}%" for m in methods
        ]
        rows.append(row)
        for m in methods:
            assert decoded_ok[(label, m)], f"{label}: {m} does not round-trip"
            # auto picks the best candidate it prices
            assert sizes[(label, "auto")] <= sizes[(label, m)]

    emit(
        "ablation_lossless",
        banner(f"Ablation: lossless backend saving on SPERR chunk streams ({shape})")
        + "\n"
        + format_table(["case", "raw bytes"] + [f"{m} saving" for m in methods], rows)
        + "\n(paper uses ZSTD here; savings on entropy-dense SPECK output are "
        "expected to be small)",
    )
