"""Documentation contract: every public item is documented.

Deliverable (e) requires doc comments on every public item; this test
makes the requirement executable — each package's ``__all__`` symbols
must carry docstrings, and the repo-level documents must exist and
cross-reference each other.
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

PACKAGES = [
    "repro",
    "repro.bitstream",
    "repro.lossless",
    "repro.wavelets",
    "repro.quant",
    "repro.speck",
    "repro.outlier",
    "repro.core",
    "repro.compressors",
    "repro.metrics",
    "repro.datasets",
    "repro.analysis",
    "repro.obs",
    "repro.store",
    "repro.service",
]


class TestDocstrings:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_package_docstring(self, package):
        module = importlib.import_module(package)
        assert module.__doc__ and len(module.__doc__.strip()) > 10, package

    @pytest.mark.parametrize("package", PACKAGES)
    def test_public_symbols_documented(self, package):
        module = importlib.import_module(package)
        exported = getattr(module, "__all__", [])
        undocumented = []
        for name in exported:
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(name)
        assert not undocumented, f"{package}: undocumented {undocumented}"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_public_classes_document_public_methods(self, package):
        module = importlib.import_module(package)
        missing = []
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if not inspect.isclass(obj):
                continue
            for mname, method in inspect.getmembers(obj, inspect.isfunction):
                if mname.startswith("_"):
                    continue
                if method.__qualname__.split(".")[0] != obj.__name__:
                    continue  # inherited
                if not (method.__doc__ and method.__doc__.strip()):
                    missing.append(f"{name}.{mname}")
        assert not missing, f"{package}: undocumented methods {missing}"


class TestRepoDocuments:
    @pytest.mark.parametrize(
        "name",
        ["README.md", "DESIGN.md", "EXPERIMENTS.md",
         "docs/algorithms.md", "docs/architecture.md", "docs/file-format.md",
         "docs/api.md", "docs/observability.md", "docs/store.md",
         "docs/robustness.md", "docs/service.md", "docs/adaptive.md",
         "benchmarks/README.md"],
    )
    def test_document_exists_and_substantial(self, name):
        path = ROOT / name
        assert path.exists(), name
        assert len(path.read_text()) > 800, f"{name} looks like a stub"

    def test_readme_references_key_documents(self):
        readme = (ROOT / "README.md").read_text()
        assert "DESIGN.md" in readme
        assert "EXPERIMENTS.md" in readme

    def test_experiments_covers_every_figure(self):
        text = (ROOT / "EXPERIMENTS.md").read_text()
        for item in ["Table I"] + [f"Fig. {i}" for i in range(1, 12)]:
            assert item in text, f"EXPERIMENTS.md missing {item}"

    def test_design_has_experiment_index(self):
        text = (ROOT / "DESIGN.md").read_text()
        assert "Experiment index" in text
        for bench in ("bench_fig8", "bench_fig9", "bench_fig11"):
            assert bench in text


def _magic_constants() -> dict[str, bytes]:
    """Every magic-bytes constant in the package, keyed by its location.

    Module attributes whose name contains ``MAGIC`` count when they are
    bytes, or dicts/tuples of bytes (``_MAGIC_BY_VERSION``,
    ``LEGACY_MAGICS``).
    """
    import pkgutil

    import repro

    found: dict[str, bytes] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for attr, value in vars(module).items():
            if "MAGIC" not in attr:
                continue
            if isinstance(value, dict):
                value = tuple(value.values())
            values = value if isinstance(value, tuple) else (value,)
            for i, v in enumerate(values):
                if isinstance(v, bytes):
                    found[f"{info.name}.{attr}[{i}]"] = v
    return found


class TestFormatDocument:
    """``docs/file-format.md`` must track the code's format constants."""

    TEXT = (ROOT / "docs" / "file-format.md").read_text()

    def test_scan_finds_every_format_family(self):
        magics = set(_magic_constants().values())
        for expected in (
            b"SPRRPY4\x00", b"SPRRIDX3", b"SPRRSHD1", b"RAW1", b"SZX1",
            b"MSK1", b"SZLK", b"ZFPL", b"TTHL", b"MGDL", b"SPRRTS1\x00",
            b"CHNK", b"CHK2", b"CHK3", b"MSKW", b"SZXF",
        ):
            assert expected in magics, expected

    def test_every_magic_is_documented(self):
        missing = {
            where: magic
            for where, magic in _magic_constants().items()
            if f"`{magic.decode('ascii').replace(chr(0), chr(92) + '0')}`"
            not in self.TEXT
        }
        assert not missing, f"docs/file-format.md lacks magics {missing}"

    def test_every_codec_tag_is_documented(self):
        import re

        from repro.core.adaptive import CODEC_NAMES

        for tag, name in CODEC_NAMES.items():
            row = rf"^\| {tag} \| `{re.escape(name)}` \|"
            assert re.search(row, self.TEXT, re.M), (tag, name)
        rows = re.findall(r"^\| (\d+) \| `", self.TEXT, re.M)
        assert sorted(map(int, rows)) == sorted(CODEC_NAMES)

    def test_no_second_format_document(self):
        assert not (ROOT / "docs" / "format.md").exists()
