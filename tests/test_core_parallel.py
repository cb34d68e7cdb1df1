"""The chunk-parallel executor (OpenMP substitute, Sec. III-D)."""

from __future__ import annotations

import time

import pytest

from repro.core.parallel import EXECUTORS, default_workers, robust_chunk_map
from repro.errors import InvalidArgumentError


def _square(x: int) -> int:
    return x * x


class TestChunkMap:
    """The order-preserving map every chunk fan-out runs through."""

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_preserves_order(self, executor):
        items = list(range(20))
        out, _notes = robust_chunk_map(_square, items, executor=executor, workers=4)
        assert out == [x * x for x in items]

    def test_process_executor(self):
        out, _notes = robust_chunk_map(
            _square, [1, 2, 3], executor="process", workers=2
        )
        assert out == [1, 4, 9]

    def test_empty_input(self):
        assert robust_chunk_map(_square, []) == ([], [])

    def test_single_item_stays_serial(self):
        assert robust_chunk_map(_square, [7], executor="thread", workers=8) == ([49], [])

    def test_unknown_executor_rejected(self):
        with pytest.raises(InvalidArgumentError):
            robust_chunk_map(_square, [1], executor="openmp")

    def test_invalid_workers_rejected(self):
        with pytest.raises(InvalidArgumentError):
            robust_chunk_map(_square, [1, 2], executor="thread", workers=0)

    def test_exceptions_propagate(self):
        def boom(x):
            raise ValueError("chunk failed")

        with pytest.raises(ValueError):
            robust_chunk_map(boom, [1, 2], executor="thread", workers=2)

    def test_executor_registry(self):
        assert set(EXECUTORS) == {"serial", "thread", "process", "batch"}

    def test_batch_degrades_to_serial_loop(self):
        out = robust_chunk_map(_square, [1, 2, 3], executor="batch")
        assert out == ([1, 4, 9], [])

    def test_default_workers_leaves_headroom(self):
        """Sec. V-D: leave a few cores for system processes."""
        import os

        assert default_workers() == max(1, (os.cpu_count() or 1) - 1)


class TestRobustChunkMap:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_clean_run_matches_chunk_map(self, executor):
        items = list(range(12))
        out, notes = robust_chunk_map(_square, items, executor=executor, workers=4)
        assert out == [x * x for x in items]
        assert notes == []

    def test_func_exceptions_propagate_serial(self):
        def boom(x):
            raise RuntimeError("chunk failed")

        with pytest.raises(RuntimeError):
            robust_chunk_map(boom, [1, 2], executor="serial")

    def test_timeout_degrades_to_serial(self):
        """A task slower than the timeout is retried and finally run
        serially, with every degradation recorded in the notes."""
        calls = []

        def slow_once(x):
            calls.append(x)
            if x == 1 and calls.count(1) <= 2:
                time.sleep(0.6)
            return x * x

        out, notes = robust_chunk_map(
            slow_once, [0, 1, 2], executor="thread", workers=2, timeout=0.15
        )
        assert out == [0, 1, 4]
        assert any("timeout" in n for n in notes)
        assert any("serial" in n for n in notes)

    def test_unknown_executor_rejected(self):
        with pytest.raises(InvalidArgumentError):
            robust_chunk_map(_square, [1], executor="openmp")
