"""Chunk-level parallel execution — the OpenMP substitute.

Real SPERR parallelizes with OpenMP threads over chunks (paper
Sec. III-D).  Here the one setting is ``workers``:

* ``workers=None`` or ``1`` — every chunk runs in the calling process,
  in order;
* ``workers=N >= 2`` — chunks fan out over a persistent
  ``ProcessPoolExecutor`` of ``N`` workers.

Two throughput mechanisms back the pool:

* **persistent pools** — one pool per worker count, created once and
  reused across calls, so repeated compressions (the in-situ pattern)
  stop paying pool spin-up per volume;
* **zero-copy chunk dispatch** — :func:`map_chunk_arrays` places the
  volume in POSIX shared memory once and hands workers
  ``(shm_name, shape, dtype, bounds)`` descriptors instead of pickled
  chunk arrays, eliminating the per-chunk float64 round-trip through
  the pickle pipe.

Both compress and decode map through :func:`robust_chunk_map`, so they
share one timeout/retry/serial-fallback policy and one worker-trace
merge.  Every setting produces byte-identical results: the work
functions are deterministic and results are returned in input order.
The degree of parallelism is bounded by the number of chunks, exactly
the limitation Sec. III-D concedes.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    TimeoutError as FuturesTimeoutError,
)
from functools import partial
from multiprocessing import shared_memory
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from ..errors import InvalidArgumentError
from ..obs import absorb_result, wrap_worker

__all__ = [
    "map_chunk_arrays",
    "robust_chunk_map",
    "get_pool",
    "shutdown_pools",
]

T = TypeVar("T")
R = TypeVar("R")

_POOLS: dict[int, ProcessPoolExecutor] = {}
_POOL_LOCK = threading.Lock()


def get_pool(workers: int) -> ProcessPoolExecutor:
    """Persistent process pool, created once per worker count.

    Pools outlive individual map calls so workers are forked (and
    modules imported) exactly once per session.
    """
    if workers < 1:
        raise InvalidArgumentError("workers must be at least 1")
    with _POOL_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = _POOLS[workers] = ProcessPoolExecutor(max_workers=workers)
        return pool


def _discard_pool(workers: int) -> None:
    """Drop a broken pool so the next call builds a fresh one."""
    with _POOL_LOCK:
        pool = _POOLS.pop(workers, None)
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


def _in_process(workers: int | None, n_items: int) -> bool:
    """Validate ``workers``; true when the items run in the caller."""
    if workers is not None and workers < 1:
        raise InvalidArgumentError("workers must be at least 1")
    return workers is None or workers == 1 or n_items <= 1


def robust_chunk_map(
    func: Callable[[T], R],
    items: Sequence[T],
    *,
    workers: int | None = None,
    timeout: float | None = None,
    max_rounds: int = 2,
) -> tuple[list[R], list[str]]:
    """Apply ``func`` to every item, preserving order, degrading
    instead of failing.

    Results are returned in input order regardless of completion order,
    mirroring SPERR's deterministic concatenation of chunk bitstreams.
    With ``workers >= 2`` the items run on the persistent process pool,
    so ``func`` must be picklable (a module-level callable or a
    ``functools.partial`` of one).  Exceptions raised by ``func`` itself
    propagate unchanged, but *infrastructure* failures are absorbed: a
    task that exceeds ``timeout`` seconds or dies with its pool is
    retried on a fresh pool (up to ``max_rounds`` parallel attempts
    total) and finally re-run in the calling process.  Every degradation
    is recorded in the returned notes list so callers can surface it
    (in a :class:`~repro.core.container.DecodeReport` or
    ``CompressionResult.notes``) rather than losing the whole volume to
    one broken worker.

    Returns ``(results, notes)``; ``notes`` is empty on a clean run.
    """
    notes: list[str] = []
    if _in_process(workers, len(items)):
        return [func(item) for item in items], notes

    wrapped = wrap_worker(func)
    traced = wrapped is not func
    func = wrapped
    results: list[Any] = [None] * len(items)
    pending = list(range(len(items)))
    for round_no in range(max_rounds):
        if not pending:
            break
        try:
            pool = get_pool(workers)
            futures = {i: pool.submit(func, items[i]) for i in pending}
        except (BrokenExecutor, RuntimeError) as exc:
            notes.append(
                f"process pool unavailable ({type(exc).__name__}: {exc}); "
                f"falling back to serial for {len(pending)} chunks"
            )
            _discard_pool(workers)
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
                    f"chunk {i} lost to a broken process pool "
                    f"({type(exc).__name__})"
                )
        if failed and (broken or timeout is not None):
            # A timed-out task may still be wedging a worker; recycle so
            # the retry round starts from a clean pool.
            _discard_pool(workers)
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


def _shm_apply(func: Callable[..., R], args: tuple, job: tuple) -> R:
    """Worker side of the zero-copy path: slice the shared volume and run.

    ``job`` is ``(shm_name, shape, dtype_str, bounds)``; the chunk is
    copied out of shared memory (workers never write the shared segment)
    and handed to ``func(chunk, *args)``.  Pool workers share the
    parent's resource-tracker process, so the attach here adds no extra
    tracking and the parent's ``unlink`` is the single point of cleanup.
    """
    name, shape, dtype_str, bounds = job
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
    workers: int | None = None,
) -> tuple[list[R], list[str]]:
    """Apply ``func(chunk_array, *args)`` to every chunk of ``data``.

    ``chunks`` is a sequence of :class:`~repro.core.chunking.Chunk`.
    In-process, each chunk is a contiguous copy sliced from ``data``.
    With ``workers >= 2`` the volume is written to POSIX shared memory
    once and :func:`robust_chunk_map` hands the pool
    ``(shm_name, shape, dtype, bounds)`` descriptors — no pickling of
    chunk arrays — so ``func`` (and everything in ``args``) must be
    picklable.  Returns ``(results, notes)`` like
    :func:`robust_chunk_map`; output is byte-identical for every
    ``workers``.
    """
    data = np.asarray(data)
    if _in_process(workers, len(chunks)):
        results = [
            func(np.ascontiguousarray(data[c.slices()]), *args) for c in chunks
        ]
        return results, []

    shm = shared_memory.SharedMemory(create=True, size=max(1, data.nbytes))
    try:
        shared = np.ndarray(data.shape, dtype=data.dtype, buffer=shm.buf)
        np.copyto(shared, data)
        del shared  # release the buffer export so close() succeeds
        jobs = [(shm.name, data.shape, data.dtype.str, c.bounds) for c in chunks]
        return robust_chunk_map(
            partial(_shm_apply, func, args), jobs, workers=workers
        )
    finally:
        shm.close()
        shm.unlink()
