"""Command-line interface round trips."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import EXIT_BAD_ARGS, EXIT_CORRUPT, build_parser, main
from repro.core import parse_container
from repro.core.progressive import decompress_multires, truncate
from repro.datasets import spectral_field
from repro.errors import StreamFormatError


@pytest.fixture
def npy_field(tmp_path):
    data = spectral_field((16, 16, 16), slope=3.0, seed=5)
    path = tmp_path / "field.npy"
    np.save(path, data)
    return path, data


class TestCli:
    def test_compress_decompress_idx(self, npy_field, tmp_path, capsys):
        path, data = npy_field
        out = tmp_path / "field.sperr"
        back = tmp_path / "back.npy"
        assert main(["compress", str(path), str(out), "--idx", "12", "--verbose"]) == 0
        printed = capsys.readouterr().out
        assert "bpp" in printed and "ratio" in printed
        assert main(["decompress", str(out), str(back)]) == 0
        recon = np.load(back)
        t = (data.max() - data.min()) / 2**12
        assert np.abs(recon - data).max() <= t

    def test_compress_pwe_flag(self, npy_field, tmp_path):
        path, data = npy_field
        out = tmp_path / "f.sperr"
        t = float(data.max() - data.min()) / 2**10
        assert main(["compress", str(path), str(out), "--pwe", str(t)]) == 0
        assert out.stat().st_size > 0

    def test_compress_bpp_flag(self, npy_field, tmp_path):
        path, data = npy_field
        out = tmp_path / "f.sperr"
        assert main(["compress", str(path), str(out), "--bpp", "2.0"]) == 0
        assert out.stat().st_size * 8 <= data.size * 2.3

    def test_chunked_with_workers(self, npy_field, tmp_path):
        path, data = npy_field
        out = tmp_path / "f.sperr"
        back = tmp_path / "b.npy"
        assert main([
            "compress", str(path), str(out), "--idx", "10", "--chunk", "8",
            "--workers", "2",
        ]) == 0
        assert main(["decompress", str(out), str(back)]) == 0
        t = (data.max() - data.min()) / 2**10
        assert np.abs(np.load(back) - data).max() <= t

    def test_info(self, npy_field, tmp_path, capsys):
        path, _ = npy_field
        out = tmp_path / "f.sperr"
        main(["compress", str(path), str(out), "--idx", "10"])
        assert main(["info", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "(16, 16, 16)" in printed
        assert "PWE-bounded" in printed

    def test_info_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.sperr"
        bad.write_bytes(b"not a container")
        assert main(["info", str(bad)]) == EXIT_CORRUPT
        assert "error" in capsys.readouterr().err

    def test_info_reports_format_version(self, npy_field, tmp_path, capsys):
        path, _ = npy_field
        out = tmp_path / "f.sperr"
        main(["compress", str(path), str(out), "--idx", "10"])
        capsys.readouterr()
        assert main(["info", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "v4" in printed and "CRC-protected" in printed

    def test_error_path_returns_bad_args(self, npy_field, tmp_path, capsys):
        path, _ = npy_field
        out = tmp_path / "f.sperr"
        assert main(["compress", str(path), str(out), "--pwe", "-1.0"]) == EXIT_BAD_ARGS
        assert "error" in capsys.readouterr().err

    def test_decompress_corrupt_returns_corrupt_code(self, npy_field, tmp_path, capsys):
        path, _ = npy_field
        out = tmp_path / "f.sperr"
        main(["compress", str(path), str(out), "--idx", "10"])
        payload = bytearray(out.read_bytes())
        payload[len(payload) // 2] ^= 0xFF
        out.write_bytes(bytes(payload))
        capsys.readouterr()
        code = main(["decompress", str(out), str(tmp_path / "b.npy")])
        assert code == EXIT_CORRUPT
        err = capsys.readouterr().err
        assert err.startswith("error:") and "\n" not in err.rstrip("\n")

    def test_decompress_salvage_recovers(self, npy_field, tmp_path, capsys):
        path, data = npy_field
        out = tmp_path / "f.sperr"
        back = tmp_path / "b.npy"
        main(["compress", str(path), str(out), "--idx", "10", "--chunk", "8"])
        payload = bytearray(out.read_bytes())
        payload[-20] ^= 0xFF  # damage the last chunk's stream
        out.write_bytes(bytes(payload))
        capsys.readouterr()
        assert main(["decompress", str(out), str(back), "--salvage"]) == 0
        err = capsys.readouterr().err
        assert "salvage" in err
        recon = np.load(back)
        assert recon.shape == data.shape
        assert np.isnan(recon).any() and not np.isnan(recon).all()

    def test_decompress_salvage_fill_value(self, npy_field, tmp_path, capsys):
        path, _ = npy_field
        out = tmp_path / "f.sperr"
        back = tmp_path / "b.npy"
        main(["compress", str(path), str(out), "--idx", "10", "--chunk", "8"])
        payload = bytearray(out.read_bytes())
        payload[-20] ^= 0xFF
        out.write_bytes(bytes(payload))
        assert main([
            "decompress", str(out), str(back), "--salvage", "--fill-value", "-7.5",
        ]) == 0
        recon = np.load(back)
        assert (recon == -7.5).any() and not np.isnan(recon).any()

    def test_fill_value_requires_salvage(self, npy_field, tmp_path, capsys):
        path, _ = npy_field
        out = tmp_path / "f.sperr"
        back = tmp_path / "b.npy"
        main(["compress", str(path), str(out), "--idx", "10"])
        capsys.readouterr()
        code = main(["decompress", str(out), str(back), "--fill-value", "0"])
        assert code == EXIT_BAD_ARGS
        assert "--salvage" in capsys.readouterr().err

    def test_truncated_container_returns_corrupt_code(
        self, npy_field, tmp_path, capsys
    ):
        path, _ = npy_field
        out = tmp_path / "f.sperr"
        main(["compress", str(path), str(out), "--idx", "10"])
        out.write_bytes(out.read_bytes()[: out.stat().st_size // 2])
        capsys.readouterr()
        assert main(["decompress", str(out), str(tmp_path / "b.npy")]) == EXIT_CORRUPT
        assert main(["info", str(out)]) == EXIT_CORRUPT

    def test_salvage_on_clean_container_returns_zero(self, npy_field, tmp_path):
        path, data = npy_field
        out = tmp_path / "f.sperr"
        back = tmp_path / "b.npy"
        main(["compress", str(path), str(out), "--idx", "10", "--chunk", "8"])
        assert main(["decompress", str(out), str(back), "--salvage"]) == 0
        recon = np.load(back)
        assert recon.shape == data.shape and not np.isnan(recon).any()

    def test_compress_trace_writes_chrome_json(self, npy_field, tmp_path, capsys):
        path, _ = npy_field
        out = tmp_path / "f.sperr"
        trace = tmp_path / "trace.json"
        assert main([
            "compress", str(path), str(out), "--idx", "10",
            "--trace", str(trace), "--verbose",
        ]) == 0
        assert "stage" in capsys.readouterr().out  # --verbose prints the table
        doc = json.loads(trace.read_text())
        events = doc["traceEvents"]
        assert events and {e["ph"] for e in events} <= {"X", "C"}
        assert "speck.encode" in {e["name"] for e in events}

    def test_decompress_trace_writes_chrome_json(self, npy_field, tmp_path):
        path, _ = npy_field
        out = tmp_path / "f.sperr"
        back = tmp_path / "b.npy"
        trace = tmp_path / "trace.json"
        main(["compress", str(path), str(out), "--idx", "10"])
        assert main(["decompress", str(out), str(back), "--trace", str(trace)]) == 0
        names = {e["name"] for e in json.loads(trace.read_text())["traceEvents"]}
        assert "sperr.decompress" in names

    def test_parser_requires_bound(self, npy_field, tmp_path):
        path, _ = npy_field
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compress", str(path), "out.sperr"])

    def test_pack_extract_round_trip(self, tmp_path, capsys):
        frames = []
        paths = []
        for i in range(3):
            f = spectral_field((12, 12), slope=2.0, seed=i)
            p = tmp_path / f"frame{i}.npy"
            np.save(p, f)
            frames.append(f)
            paths.append(str(p))
        archive = tmp_path / "run.sperrs"
        assert main(["pack", *paths, str(archive), "--idx", "12"]) == 0
        assert "packed 3 frames" in capsys.readouterr().out
        out = tmp_path / "frame.npy"
        assert main(["extract", str(archive), "1", str(out)]) == 0
        recon = np.load(out)
        t = (frames[1].max() - frames[1].min()) / 2**12
        assert np.abs(recon - frames[1]).max() <= t
        # negative index pulls the final frame
        assert main(["extract", str(archive), "-1", str(out)]) == 0
        t2 = (frames[2].max() - frames[2].min()) / 2**12
        assert np.abs(np.load(out) - frames[2]).max() <= t2

    def test_extract_bad_index(self, tmp_path, capsys):
        p = tmp_path / "f.npy"
        np.save(p, spectral_field((8, 8), slope=2.0, seed=0))
        archive = tmp_path / "a.sperrs"
        main(["pack", str(p), str(archive), "--idx", "8"])
        capsys.readouterr()
        assert main(["extract", str(archive), "5", str(tmp_path / "o.npy")]) == EXIT_BAD_ARGS
        assert "error" in capsys.readouterr().err

    def test_compare_subcommand(self, npy_field, capsys):
        path, _ = npy_field
        assert main([
            "compare", str(path), "--idx", "10",
            "--compressors", "sperr,zfp-like",
        ]) == 0
        printed = capsys.readouterr().out
        assert "sperr" in printed and "zfp-like" in printed
        assert "bound ok" in printed

    def test_compare_unknown_compressor_rejected(self, npy_field, capsys):
        path, _ = npy_field
        assert main(["compare", str(path), "--compressors", "gzip"]) == EXIT_BAD_ARGS
        assert "unknown compressor" in capsys.readouterr().err

    def test_wavelet_choice(self, npy_field, tmp_path):
        path, data = npy_field
        out = tmp_path / "f.sperr"
        back = tmp_path / "b.npy"
        assert main([
            "compress", str(path), str(out), "--idx", "10", "--wavelet", "cdf53",
        ]) == 0
        assert main(["decompress", str(out), str(back)]) == 0
        t = (data.max() - data.min()) / 2**10
        assert np.abs(np.load(back) - data).max() <= t


DATA = Path(__file__).parent / "data"

#: Every retired framing fixture -> the magic ``info`` must name.
LEGACY = {
    "chnk": "CHNK",
    "chk2": "CHK2",
    "chk2_sperr": "CHK2",
    "chk3": "CHK3",
    "chk3_szx": "CHK3",
    "mskw": "MSKW",
    "szxf": "SZXF",
}


class TestLegacyFramings:
    """``info`` reads the retired framings ``decompress`` reads
    (``tests/test_legacy_formats.py`` checks those decodes); the
    container-only readers still reject them."""

    @pytest.mark.parametrize("name", sorted(LEGACY))
    def test_info_names_the_framing(self, name, capsys):
        expected = np.load(DATA / f"legacy_{name}.npy")
        assert main(["info", str(DATA / f"legacy_{name}.bin")]) == 0
        printed = capsys.readouterr().out
        assert f"format:   {LEGACY[name]} (retired framing, read-only)" in printed
        assert f"shape:    {expected.shape}" in printed
        assert f"dtype:    {expected.dtype}" in printed
        assert "mode:     not recorded" in printed

    @pytest.mark.parametrize("name", ["chk2", "mskw"])
    def test_retired_framings_record_no_mode(self, name):
        # the MSKW fixture holds a PSNR-targeted tile, which mode code 0
        # would have reported as PWE-bounded
        from repro.core.container import parse_framing

        framing, parsed = parse_framing((DATA / f"legacy_{name}.bin").read_bytes())
        assert framing == LEGACY[name]
        assert parsed.mode_code is None

    @pytest.mark.parametrize("name", sorted(LEGACY))
    def test_container_readers_reject_legacy(self, name):
        payload = (DATA / f"legacy_{name}.bin").read_bytes()
        for reader in (
            parse_container,
            lambda p: truncate(p, 0.5),
            lambda p: decompress_multires(p, 1),
        ):
            with pytest.raises(StreamFormatError, match="bad magic"):
                reader(payload)
