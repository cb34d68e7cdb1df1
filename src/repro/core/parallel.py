"""Chunk-level parallel execution — the OpenMP substitute.

Real SPERR parallelizes with OpenMP threads over chunks (paper
Sec. III-D).  Here the one setting is ``workers``:

* ``workers=1`` — every chunk runs in the calling process, in order;
* ``workers=N >= 2`` — the chunks are cut into at most ``N`` contiguous
  groups (:func:`split_groups`), one task per group on a persistent
  ``ProcessPoolExecutor`` of ``N`` workers;
* ``workers=None`` — :func:`resolve_workers` picks: one process per CPU
  in ``os.sched_getaffinity(0)`` for a whole-volume compress or
  decompress of at least :data:`AUTO_MIN_BYTES` with at least
  :data:`AUTO_MIN_CHUNKS_PER_WORKER` chunks per worker, called from the
  main thread; in-process otherwise.  Store window reads and the
  service's request threads never start a pool on their own.

Each task runs the in-process code on its group, so the pooled path
keeps the per-shape-group stacked kernels: in-process is the same code
with one group.  Arrays never travel through the pickle pipe: the
volume a compress reads and the decoded chunks a decompress writes live
in POSIX shared memory (:class:`SharedArray`), and tasks carry only its
name, shape and dtype.  Pools are created once per worker count and
reused across calls, so repeated compressions (the in-situ pattern)
stop paying pool spin-up per volume.

Compress and decode both map through :func:`robust_chunk_map`, so they
share one timeout/retry/serial-fallback policy and one worker-trace
merge.  Every setting produces byte-identical results: the work
functions are deterministic and results are returned in input order.
The degree of parallelism is bounded by the number of chunks, exactly
the limitation Sec. III-D concedes.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    TimeoutError as FuturesTimeoutError,
)
from multiprocessing import shared_memory
from typing import Any, Callable, Sequence, TypeVar

import numpy as np

from ..errors import InvalidArgumentError
from ..obs import absorb_result, wrap_worker

__all__ = [
    "AUTO_MIN_BYTES",
    "AUTO_MIN_CHUNKS_PER_WORKER",
    "SharedArray",
    "get_pool",
    "resolve_workers",
    "robust_chunk_map",
    "shutdown_pools",
    "split_groups",
]

T = TypeVar("T")
R = TypeVar("R")

#: Parallel attempts :func:`robust_chunk_map` makes before it re-runs
#: the remaining items in the calling process.
MAX_ROUNDS = 2

#: ``workers=None`` keeps volumes smaller than this in-process.  Set from
#: the alternating-pairs crossover table in EXPERIMENTS.md
#: ("Parallelism"), 2-CPU host, chunk 32: two processes lost every pair
#: at 48³ float64 (0.84 MiB), won 11 of 14 at 64³ (2 MiB), and won every
#: pair of compress and decompress from 96³ (6.75 MiB) up.
AUTO_MIN_BYTES = 4 << 20

#: ``workers=None`` gives every pool worker at least this many chunks,
#: so a task's stacked kernels still see a stack.
AUTO_MIN_CHUNKS_PER_WORKER = 2

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


def _check_workers(workers: int | None) -> None:
    if workers is not None and workers < 1:
        raise InvalidArgumentError("workers must be at least 1")


def resolve_workers(workers: int | None, nbytes: int, n_chunks: int) -> int:
    """The process count a whole-volume compress or decompress uses.

    An explicit ``workers`` is kept as given.  ``None`` means one
    process per CPU in ``os.sched_getaffinity(0)``, capped so every
    worker gets :data:`AUTO_MIN_CHUNKS_PER_WORKER` chunks, for volumes
    of at least :data:`AUTO_MIN_BYTES` (``nbytes``) called from the
    main thread; otherwise 1 (in-process).  Threads never start a pool
    on their own: forking a process that runs other threads is unsafe,
    and a threaded caller (the service) already parallelises across
    requests.
    """
    _check_workers(workers)
    if workers is not None:
        return workers
    if (
        nbytes < AUTO_MIN_BYTES
        or threading.current_thread() is not threading.main_thread()
    ):
        return 1
    cpus = len(os.sched_getaffinity(0))
    return max(1, min(cpus, n_chunks // AUTO_MIN_CHUNKS_PER_WORKER))


def split_groups(n: int, parts: int) -> list[range]:
    """Cut ``range(n)`` into ``min(parts, n)`` contiguous groups whose
    sizes differ by at most one (the larger ones first)."""
    parts = max(1, min(parts, n))
    base, extra = divmod(n, parts)
    groups, start = [], 0
    for g in range(parts):
        stop = start + base + (g < extra)
        groups.append(range(start, stop))
        start = stop
    return groups


def robust_chunk_map(
    func: Callable[[T], R],
    items: Sequence[T],
    *,
    workers: int | None = None,
    timeout: float | None = None,
) -> tuple[list[R], list[str]]:
    """Apply ``func`` to every item, preserving order, degrading
    instead of failing.

    Results are returned in input order regardless of completion order,
    mirroring SPERR's deterministic concatenation of chunk bitstreams.
    ``workers=None`` or ``1`` (or a single item) runs in the calling
    process.  With ``workers >= 2`` each item is one task on the
    persistent process pool, so ``func`` must be picklable (a
    module-level callable or a ``functools.partial`` of one).
    Exceptions raised by ``func`` itself propagate unchanged, but
    *infrastructure* failures are absorbed: a task that exceeds
    ``timeout`` seconds or dies with its pool is retried on a fresh
    pool (up to :data:`MAX_ROUNDS` parallel attempts total) and finally
    re-run in the calling process, so ``func`` must be safe to run
    twice.  Every degradation is recorded in the returned notes list so
    callers can surface it (in a
    :class:`~repro.core.container.DecodeReport` or
    ``CompressionResult.notes``) rather than losing the whole volume to
    one broken worker.

    Returns ``(results, notes)``; ``notes`` is empty on a clean run.
    """
    _check_workers(workers)
    notes: list[str] = []
    if workers is None or workers == 1 or len(items) <= 1:
        return [func(item) for item in items], notes

    wrapped = wrap_worker(func)
    traced = wrapped is not func
    func = wrapped
    results: list[Any] = [None] * len(items)
    pending = list(range(len(items)))
    for round_no in range(MAX_ROUNDS):
        if not pending:
            break
        try:
            pool = get_pool(workers)
            futures = {i: pool.submit(func, items[i]) for i in pending}
        except (BrokenExecutor, RuntimeError) as exc:
            notes.append(
                f"process pool unavailable ({type(exc).__name__}: {exc}); "
                f"falling back to serial for {len(pending)} tasks"
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
                    f"task {i} exceeded the {timeout}s task timeout "
                    f"(round {round_no + 1})"
                )
            except BrokenExecutor as exc:
                failed.append(i)
                broken = True
                notes.append(
                    f"task {i} lost to a broken process pool "
                    f"({type(exc).__name__})"
                )
        if failed and (broken or timeout is not None):
            # A timed-out task may still be wedging a worker; recycle so
            # the retry round starts from a clean pool.
            _discard_pool(workers)
        pending = failed
    if pending:
        notes.append(
            f"degraded to serial execution for tasks {sorted(pending)}"
        )
        for i in pending:
            results[i] = func(items[i])
    if traced:
        # Merge worker spans in item order regardless of completion
        # order, so repeated runs produce identical trace sequences.
        results = [absorb_result(r, worker_item=i) for i, r in enumerate(results)]
    return results, notes


class SharedArray:
    """A numpy array in POSIX shared memory, for pool tasks to read or
    write by name.

    The creating process owns the segment: :meth:`close` (or leaving the
    ``with`` block) drops :attr:`array` and unlinks the segment, so the
    caller must hold no other view of it by then.  Tasks reach it
    through :meth:`call`, which attaches by :attr:`ref`.  Pool workers
    share the parent's resource-tracker process, so an attach adds no
    tracking and the owner's ``unlink`` is the one point of cleanup;
    workers only ever ``close()`` their mapping.
    """

    def __init__(self, shape: tuple[int, ...], dtype) -> None:
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        self._shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
        #: ``(name, shape, dtype_str)``: all a task needs to attach.
        self.ref = (self._shm.name, tuple(shape), dtype.str)
        self.array: np.ndarray | None = np.ndarray(
            shape, dtype=dtype, buffer=self._shm.buf
        )

    def __enter__(self) -> "SharedArray":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Release and unlink the segment (idempotent)."""
        if self.array is None:
            return
        self.array = None
        try:
            self._shm.close()
        except BufferError:
            # Views held by a propagating exception's frames: the
            # mapping goes with them; the name is unlinked regardless.
            pass
        finally:
            self._shm.unlink()

    @staticmethod
    def call(ref: tuple, func: Callable[..., R], *args, **kwargs) -> R:
        """Run ``func(array, *args, **kwargs)`` on the shared array named
        by ``ref``.

        ``func`` must not return views of the array: the mapping is
        closed when it returns.
        """
        name, shape, dtype_str = ref
        shm = shared_memory.SharedMemory(name=name)
        try:
            return func(
                np.ndarray(shape, dtype=np.dtype(dtype_str), buffer=shm.buf),
                *args,
                **kwargs,
            )
        finally:
            try:
                shm.close()
            except BufferError:
                # An exception from ``func`` holds views in its frames;
                # the mapping goes with them once it is handled.
                pass
