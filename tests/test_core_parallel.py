"""The chunk-parallel map (OpenMP substitute, Sec. III-D)."""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import container, parallel
from repro.core.parallel import robust_chunk_map, shutdown_pools
from repro.errors import InvalidArgumentError

#: ``workers`` settings by the execution they select.
WORKERS = [pytest.param(None, id="serial"), pytest.param(2, id="process")]


def _square(x: int) -> int:
    return x * x


def _die_in_worker(x: int, parent: int) -> int:
    """Square ``x`` in the parent; kill any pool worker that runs it."""
    if os.getpid() != parent:
        os._exit(1)
    return x * x


def _slow_in_worker(x: int, parent: int) -> int:
    """Square ``x``; item 1 stalls whenever a pool worker runs it."""
    if x == 1 and os.getpid() != parent:
        time.sleep(0.6)
    return x * x


class TestChunkMap:
    """The order-preserving map every chunk fan-out runs through."""

    @pytest.mark.parametrize("workers", WORKERS)
    def test_preserves_order(self, workers):
        items = list(range(20))
        out, _notes = robust_chunk_map(_square, items, workers=workers)
        assert out == [x * x for x in items]

    def test_process_executor(self):
        out, _notes = robust_chunk_map(_square, [1, 2, 3], workers=2)
        assert out == [1, 4, 9]

    def test_empty_input(self):
        assert robust_chunk_map(_square, []) == ([], [])

    def test_single_item_stays_serial(self):
        assert robust_chunk_map(_square, [7], workers=8) == ([49], [])

    def test_unknown_executor_rejected(self):
        """``workers`` is the only parallelism setting."""
        data = np.zeros(4)
        with pytest.raises(TypeError):
            repro.compress(
                data, repro.PweMode(1e-2), chunk_shape=2, executor="process"
            )

    def test_one_pool_per_worker_count(self):
        """Maps with fewer items than workers reuse the ``workers`` pool
        instead of building one pool per item count."""
        shutdown_pools()
        robust_chunk_map(_square, [1, 2], workers=3)
        robust_chunk_map(_square, [1, 2, 3, 4], workers=3)
        assert list(parallel._POOLS) == [3]
        shutdown_pools()

    def test_invalid_workers_rejected(self):
        with pytest.raises(InvalidArgumentError):
            robust_chunk_map(_square, [1, 2], workers=0)

    def test_exceptions_propagate(self):
        with pytest.raises(ZeroDivisionError):
            robust_chunk_map(partial(divmod, 1), [1, 0], workers=2)


class TestRobustChunkMap:
    @pytest.mark.parametrize("workers", WORKERS)
    def test_clean_run_matches_chunk_map(self, workers):
        items = list(range(12))
        out, notes = robust_chunk_map(_square, items, workers=workers)
        assert out == [x * x for x in items]
        assert notes == []

    def test_func_exceptions_propagate_serial(self):
        def boom(x):
            raise RuntimeError("chunk failed")

        with pytest.raises(RuntimeError):
            robust_chunk_map(boom, [1, 2])

    def test_timeout_degrades_to_serial(self):
        """A task slower than the timeout is retried on a fresh pool and
        finally run in the parent, with every degradation recorded."""
        out, notes = robust_chunk_map(
            partial(_slow_in_worker, parent=os.getpid()),
            [0, 1, 2],
            workers=2,
            timeout=0.15,
        )
        assert out == [0, 1, 4]
        assert any("timeout" in n for n in notes)
        assert any("serial" in n for n in notes)

    def test_unknown_executor_rejected(self):
        with pytest.raises(TypeError):
            robust_chunk_map(_square, [1], executor="process")


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the dying job reaches pool workers through a forked module",
)
class TestBrokenWorkers:
    """A pool worker that dies mid-job degrades to in-process execution
    and is reported, for compress and decode alike."""

    def test_chunk_map_falls_back(self):
        out, notes = robust_chunk_map(
            partial(_die_in_worker, parent=os.getpid()), [1, 2, 3], workers=2
        )
        assert out == [1, 4, 9]
        assert any("broken process pool" in n for n in notes)
        assert any("serial" in n for n in notes)

    @staticmethod
    def _kill_workers(monkeypatch, name):
        """Make ``container.<name>`` kill any pool worker that calls it.

        Pools fork lazily from the patched module, so the live pools
        are shut down first.
        """
        original = getattr(container, name)
        parent = os.getpid()

        def dying(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(1)
            return original(*args, **kwargs)

        shutdown_pools()
        monkeypatch.setattr(container, name, dying)

    def test_compress_falls_back(self, monkeypatch):
        data = np.random.default_rng(3).normal(size=(16, 16, 16))
        mode = repro.PweMode(1e-2)
        expected = repro.compress(data, mode, chunk_shape=8).payload
        self._kill_workers(monkeypatch, "_compress_stack_job")
        result = repro.compress(data, mode, chunk_shape=8, workers=2)
        assert result.payload == expected
        kinds = [note.kind for note in result.notes]
        assert "pool_fallback" in kinds
        assert any("serial" in note.detail for note in result.notes)

    def test_decompress_falls_back(self, monkeypatch):
        data = np.random.default_rng(4).normal(size=(16, 16, 16))
        payload = repro.compress(data, repro.PweMode(1e-2), chunk_shape=8).payload
        expected = repro.decompress(payload)
        self._kill_workers(monkeypatch, "decode_tagged_chunk")
        result = repro.decompress(payload, workers=2, on_error="salvage")
        np.testing.assert_array_equal(result.data, expected)
        assert result.report.ok
        assert any("broken process pool" in n for n in result.report.notes)
        np.testing.assert_array_equal(repro.decompress(payload, workers=2), expected)


#: A pool forked by a plain map, then pooled shared-memory tasks.
_FORK_FIRST = """
from functools import partial
import numpy as np
from repro.core.parallel import SharedArray, robust_chunk_map

robust_chunk_map(abs, [-1, -2, -3, -4], workers=2)
for _ in range(40):
    with SharedArray((4,), np.float64) as shared:
        robust_chunk_map(
            partial(SharedArray.call, shared.ref, np.copyto), [1.0, 2.0], workers=2
        )
"""


def test_pool_forked_first_shares_the_resource_tracker():
    """Workers forked before any shared array exists still register
    with the parent's resource tracker: none of them starts its own,
    which would report the parent's segments as leaked and unlink them
    a second time at exit."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _FORK_FIRST],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "resource_tracker" not in proc.stderr
