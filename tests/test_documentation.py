"""Documentation contract: every public item is documented.

Deliverable (e) requires doc comments on every public item; this test
makes the requirement executable — each package's ``__all__`` symbols
must carry docstrings, the repo-level documents must exist and
cross-reference each other, and every repo path or ``repro.*`` name a
document puts in backticks must still exist.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
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
    def test_packages_lists_every_subpackage(self):
        """Every shipped subpackage is held to the docstring contract, so
        an undocumented or test-only package cannot ship unnoticed."""
        import repro

        found = {
            f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__) if m.ispkg
        }
        assert set(PACKAGES) == {"repro"} | found

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
        from repro.core.adaptive import CODEC_NAMES

        for tag, name in CODEC_NAMES.items():
            row = rf"^\| {tag} \| `{re.escape(name)}` \|"
            assert re.search(row, self.TEXT, re.M), (tag, name)
        rows = re.findall(r"^\| (\d+) \| `", self.TEXT, re.M)
        assert sorted(map(int, rows)) == sorted(CODEC_NAMES)

    def test_one_written_layout_per_artifact(self, tmp_path):
        """The magic table marks exactly one container row and one store
        index row ``written``, and those are the magics the writers emit."""
        import numpy as np

        import repro
        from repro.store import write_store

        rows = re.findall(
            r"^\| `([^`]+)` \| (container|store index) v\d[^|]*\| ([^|]+?) \|",
            self.TEXT,
            re.M,
        )
        assert len(rows) == 7, rows  # four container and three index versions
        written = {
            artifact: [m for m, a, status in rows if (a, status) == (artifact, "written")]
            for artifact in ("container", "store index")
        }

        def as_doc(magic: bytes) -> str:
            return magic.decode("ascii").replace("\0", "\\0")

        data = np.linspace(0.0, 1.0, 4096).reshape(16, 16, 16)
        payload = repro.compress(data, repro.PweMode(1e-3)).payload
        write_store(tmp_path / "s", data, repro.PweMode(1e-3))
        index = (tmp_path / "s" / "index.bin").read_bytes()
        assert written == {
            "container": [as_doc(payload[:8])],
            "store index": [as_doc(index[:8])],
        }

    def test_no_second_format_document(self):
        assert not (ROOT / "docs" / "format.md").exists()


class TestLosslessDocument:
    """``docs/lossless.md``'s tag table must track the encoders."""

    TEXT = (ROOT / "docs" / "lossless.md").read_text()

    def test_decode_only_rows_are_the_tags_nothing_emits(self):
        from repro import lossless

        rows = re.findall(r"^\| (\d+) +\| `[^`]+` +\| ([^|]+?) +\|", self.TEXT, re.M)
        assert sorted(int(tag) for tag, _ in rows) == list(range(7))
        decode_only = {int(tag) for tag, by in rows if by.startswith("decode only")}
        data = bytes(range(256)) * 4 + b"\0" * 2048
        emitted = {
            lossless.compress(data, method=m)[0]
            for m in lossless.METHODS
            if m != "auto"
        }
        assert decode_only == set(range(7)) - emitted == {1, 3, 5}


#: Documents whose backticked references must resolve.
#: ``perfbench/README.md`` is left out: it describes the benchmark and is
#: edited only together with the benchmark's code, so it may lag the
#: package it measures (its "Existing bench scripts" section, for one).
REFERENCING_DOCS = (
    "README.md",
    "DESIGN.md",
    *sorted(f"docs/{p.name}" for p in (ROOT / "docs").glob("*.md")),
    "benchmarks/README.md",
    ".claude/skills/verify/SKILL.md",
)

_BACKTICKED = re.compile(r"`([^`\n]+)`")
_REPO_PATH = re.compile(
    r"(?<![\w./-])(?:src|tests|benchmarks|perfbench|docs|examples)/[\w./*{},<>-]*"
)
_DOTTED_NAME = re.compile(r"(?<![\w./-])repro(?:\.[\w{},]+)+")


def _expand_braces(ref: str) -> list[str]:
    """``docs/{a,b}.md`` -> ``["docs/a.md", "docs/b.md"]`` (nesting-free)."""
    m = re.search(r"\{([^{}]*)\}", ref)
    if m is None:
        return [ref]
    return [
        out
        for alt in m.group(1).split(",")
        for out in _expand_braces(ref[: m.start()] + alt + ref[m.end() :])
    ]


def _path_exists(ref: str) -> bool:
    # ``<name>`` placeholders and ``*`` globs match any existing file.
    return any(ROOT.glob(re.sub(r"<[^>]*>", "*", ref).rstrip("/")))


def _name_resolves(ref: str) -> bool:
    try:
        pkgutil.resolve_name(ref)  # import the module prefix, getattr the rest
    except (ImportError, AttributeError, ValueError):
        return False
    return True


def _references(doc: str) -> list[tuple[str, bool]]:
    """Every backticked repo path / ``repro.*`` name in ``doc``, resolved."""
    out = []
    for span in _BACKTICKED.findall((ROOT / doc).read_text()):
        for token in _REPO_PATH.findall(span):
            out += [(ref, _path_exists(ref)) for ref in _expand_braces(token)]
        for token in _DOTTED_NAME.findall(span):
            out += [(ref, _name_resolves(ref)) for ref in _expand_braces(token)]
    return out


class TestReferencesResolve:
    """Docs drift fails here: a moved file or renamed symbol breaks the
    backticked reference that names it."""

    @pytest.mark.parametrize("doc", REFERENCING_DOCS)
    def test_backticked_references_resolve(self, doc):
        stale = sorted({ref for ref, ok in _references(doc) if not ok})
        assert not stale, f"{doc} names missing paths/symbols: {stale}"

    def test_scan_sees_references(self):
        # Guards the regexes: a scan that silently matches nothing would
        # pass every document.
        refs = [r for doc in REFERENCING_DOCS for r in _references(doc)]
        assert len(refs) > 150
        assert ("tests/test_documentation.py", True) in refs
        assert ("repro.analysis.timing.STAGE_SPANS", True) in refs
