"""Chunk-level parallel execution — the OpenMP substitute.

Real SPERR parallelizes with OpenMP threads over chunks (paper
Sec. III-D).  The Python reproduction offers the same embarrassingly
parallel structure with three executors:

* ``serial``  — deterministic in-process loop (the baseline for the
  strong-scaling study);
* ``thread``  — ``concurrent.futures.ThreadPoolExecutor``; numpy releases
  the GIL in the heavy kernels so threads do overlap;
* ``process`` — ``ProcessPoolExecutor`` for full core isolation;
* ``batch``   — in-process, one stacked call per group of same-shaped
  chunks.  Only SPERR compression has stacked kernels
  (:func:`repro.core.pipeline.compress_stack`, grouped by the
  container); every map in this module treats ``batch`` as ``serial``,
  so it is always safe to request.

Two throughput mechanisms back the executors:

* **persistent pools** — thread/process pools are created once per
  ``(kind, workers)`` and reused across calls, so repeated compressions
  (the in-situ pattern) stop paying pool spin-up per volume;
* **zero-copy chunk dispatch** — :func:`map_chunk_arrays` places the
  volume in POSIX shared memory once and hands workers
  ``(shm_name, shape, dtype, bounds)`` descriptors instead of pickled
  chunk arrays, eliminating the per-chunk float64 round-trip through
  the pickle pipe.

All executors produce byte-identical results: the work functions are
deterministic and results are returned in input order.  The degree of
parallelism is bounded by the number of chunks, exactly the limitation
Sec. III-D concedes.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    TimeoutError as FuturesTimeoutError,
)
from multiprocessing import shared_memory
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from ..errors import InvalidArgumentError
from ..obs import absorb_result, wrap_worker

__all__ = [
    "map_chunk_arrays",
    "robust_chunk_map",
    "EXECUTORS",
    "default_workers",
    "get_pool",
    "shutdown_pools",
]

T = TypeVar("T")
R = TypeVar("R")

EXECUTORS = ("serial", "thread", "process", "batch")

_POOLS: dict[tuple[str, int], Any] = {}
_POOL_LOCK = threading.Lock()


def default_workers() -> int:
    """Leave a core for system processes, as the paper's Sec. V-D advises."""
    return max(1, (os.cpu_count() or 1) - 1)


def get_pool(kind: str, workers: int):
    """Persistent executor pool, created once per ``(kind, workers)``.

    Pools outlive individual map calls so process workers
    are forked (and modules imported) exactly once per session.
    """
    if kind not in ("thread", "process"):
        raise InvalidArgumentError(f"no pool for executor kind {kind!r}")
    if workers < 1:
        raise InvalidArgumentError("workers must be at least 1")
    key = (kind, workers)
    with _POOL_LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            cls = ThreadPoolExecutor if kind == "thread" else ProcessPoolExecutor
            pool = cls(max_workers=workers)
            _POOLS[key] = pool
        return pool


def _discard_pool(kind: str, workers: int) -> None:
    """Drop a broken pool so the next call builds a fresh one."""
    with _POOL_LOCK:
        pool = _POOLS.pop((kind, workers), None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Shut down every persistent pool (registered as an atexit hook)."""
    with _POOL_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_pools)


def _pool_map(kind: str, workers: int, func, items) -> list:
    """Map through a persistent pool, recycling it if it breaks."""
    pool = get_pool(kind, workers)
    try:
        return list(pool.map(func, items))
    except BrokenExecutor:
        _discard_pool(kind, workers)
        raise


def robust_chunk_map(
    func: Callable[[T], R],
    items: Sequence[T],
    *,
    executor: str = "serial",
    workers: int | None = None,
    timeout: float | None = None,
    max_rounds: int = 2,
) -> tuple[list[R], list[str]]:
    """Apply ``func`` to every item, preserving order, degrading
    instead of failing.

    Results are returned in input order regardless of completion order,
    mirroring SPERR's deterministic concatenation of chunk bitstreams.
    For the ``process`` executor ``func`` must be picklable (a
    module-level callable or a ``functools.partial`` of one).
    Exceptions raised by ``func`` itself propagate unchanged, but
    *infrastructure* failures are absorbed: a task that exceeds
    ``timeout`` seconds or dies with its pool is retried on a fresh pool
    (up to ``max_rounds`` parallel attempts total) and finally re-run
    serially.  Every degradation is recorded in the returned notes list
    so callers can surface it (e.g. in a
    :class:`~repro.core.container.DecodeReport`) rather than losing the
    whole volume to one broken worker.

    Returns ``(results, notes)``; ``notes`` is empty on a clean run.
    """
    if executor not in EXECUTORS:
        raise InvalidArgumentError(
            f"unknown executor {executor!r}; choose from {EXECUTORS}"
        )
    if workers is not None and workers < 1:
        raise InvalidArgumentError("workers must be at least 1")
    notes: list[str] = []
    if executor in ("serial", "batch") or len(items) <= 1 or (workers or 2) == 1:
        return [func(item) for item in items], notes

    traced = False
    if executor == "process":
        wrapped = wrap_worker(func)
        if wrapped is not func:
            func, traced = wrapped, True

    n = min(workers or default_workers(), len(items))
    results: list[Any] = [None] * len(items)
    pending = list(range(len(items)))
    for round_no in range(max_rounds):
        if not pending:
            break
        try:
            pool = get_pool(executor, n)
            futures = {i: pool.submit(func, items[i]) for i in pending}
        except (BrokenExecutor, RuntimeError) as exc:
            notes.append(
                f"{executor} pool unavailable ({type(exc).__name__}: {exc}); "
                f"falling back to serial for {len(pending)} chunks"
            )
            _discard_pool(executor, n)
            break
        failed: list[int] = []
        broken = False
        for i, fut in futures.items():
            try:
                results[i] = fut.result(timeout=timeout)
            except FuturesTimeoutError:
                fut.cancel()
                failed.append(i)
                notes.append(
                    f"chunk {i} exceeded the {timeout}s task timeout "
                    f"(round {round_no + 1})"
                )
            except BrokenExecutor as exc:
                failed.append(i)
                broken = True
                notes.append(
                    f"chunk {i} lost to a broken {executor} pool "
                    f"({type(exc).__name__})"
                )
        if failed and (broken or timeout is not None):
            # A timed-out task may still be wedging a worker; recycle so
            # the retry round starts from a clean pool.
            _discard_pool(executor, n)
        pending = failed
    if pending:
        notes.append(
            f"degraded to serial execution for chunks {sorted(pending)}"
        )
        for i in pending:
            results[i] = func(items[i])
    if traced:
        # Merge worker spans in item order regardless of completion
        # order, so repeated runs produce identical trace sequences.
        results = [absorb_result(r, worker_item=i) for i, r in enumerate(results)]
    return results, notes


def _shm_apply(job: tuple) -> Any:
    """Worker side of the zero-copy path: slice the shared volume and run.

    ``job`` is ``(func, shm_name, shape, dtype_str, bounds, args)``; the
    chunk is copied out of shared memory (workers never write the shared
    segment) and handed to ``func``.  Pool workers share the parent's
    resource-tracker process, so the attach here adds no extra tracking
    and the parent's ``unlink`` is the single point of cleanup.
    """
    func, name, shape, dtype_str, bounds, args = job
    shm = shared_memory.SharedMemory(name=name)
    try:
        arr = np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=shm.buf)
        part = arr[tuple(slice(a, b) for a, b in bounds)].copy()
    finally:
        shm.close()
    return func(part, *args)


def map_chunk_arrays(
    func: Callable[..., R],
    data: np.ndarray,
    chunks: Sequence,
    *,
    args: tuple = (),
    executor: str = "serial",
    workers: int | None = None,
) -> list[R]:
    """Apply ``func(chunk_array, *args)`` to every chunk of ``data``.

    ``chunks`` is a sequence of :class:`~repro.core.chunking.Chunk`.
    With the ``serial`` and ``thread`` executors each chunk is a
    contiguous copy sliced in-process.  With the ``process`` executor the
    volume is written to POSIX shared memory once and workers receive
    ``(shm_name, shape, dtype, bounds)`` descriptors — no pickling of
    chunk arrays — so ``func`` (and everything in ``args``) must be
    picklable.  Output is byte-identical across executors.
    """
    if executor not in EXECUTORS:
        raise InvalidArgumentError(
            f"unknown executor {executor!r}; choose from {EXECUTORS}"
        )
    if workers is not None and workers < 1:
        raise InvalidArgumentError("workers must be at least 1")
    data = np.asarray(data)
    if not chunks:
        return []

    if executor != "process" or len(chunks) <= 1 or (workers or 2) == 1:
        parts = (np.ascontiguousarray(data[c.slices()]) for c in chunks)
        if executor == "thread" and len(chunks) > 1 and (workers or 2) != 1:
            n = min(workers or default_workers(), len(chunks))
            return _pool_map("thread", n, lambda part: func(part, *args), list(parts))
        return [func(part, *args) for part in parts]

    n = min(workers or default_workers(), len(chunks))
    wrapped = wrap_worker(func)
    shm = shared_memory.SharedMemory(create=True, size=max(1, data.nbytes))
    try:
        shared = np.ndarray(data.shape, dtype=data.dtype, buffer=shm.buf)
        np.copyto(shared, data)
        del shared  # release the buffer export so close() succeeds
        jobs = [
            (wrapped, shm.name, data.shape, data.dtype.str, c.bounds, args)
            for c in chunks
        ]
        results = _pool_map("process", n, _shm_apply, jobs)
    finally:
        shm.close()
        shm.unlink()
    if wrapped is not func:
        results = [absorb_result(r, worker_item=i) for i, r in enumerate(results)]
    return results
