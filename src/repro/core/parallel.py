"""Deterministic tile fan-out over ``concurrent.futures`` backends.

The tiled execution engine (:mod:`repro.core.planner`) splits a query
batch into independent row tiles; this module runs the per-tile work
either serially, across a thread pool (NumPy kernels release the GIL,
so bound passes overlap), or across a process pool (requires the tile
function to be picklable).  Whatever the backend, results are assembled
**by tile index**, so answers are bit-identical to the serial order —
parallelism never changes an answer, only the wall clock.

Every work unit passes through a resilience checkpoint (site
``"parallel.tile"``): injected faults fire there, and the active
cooperative deadline is charged one unit.  Worker failures are
recovered, not propagated: a tile that dies with
:class:`repro.errors.WorkerCrashError`, and every tile stranded by a
``BrokenProcessPool``, is retried serially in the parent (with fault
injection suppressed — the harness models transient faults).  Because
results are keyed by tile index, recovered runs return bit-identical
answers; the recovery counters surface in ``Engine.stats()["faults"]``.
"""

from __future__ import annotations

import concurrent.futures
from concurrent.futures.process import BrokenProcessPool
import os
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from ..config import EXECUTION
from ..errors import QueryError, ResourceLimitError, WorkerCrashError
from ..resilience import checkpoint
from ..resilience import faults as _faults

__all__ = ["map_ordered", "map_tiles", "resolve_workers", "tile_ranges"]

T = TypeVar("T")

_BACKENDS = ("serial", "thread", "process")

TILE_SITE = "parallel.tile"


def resolve_workers(
    workers: Optional[int] = None,
    *,
    strict: bool = False,
    what: str = "worker pool",
) -> int:
    """Worker count: the explicit value, else config, else CPU count —
    clamped to ``EXECUTION.max_workers`` when that cap is set.

    Explicit non-positive requests (``workers <= 0``, or a non-positive
    ``EXECUTION.parallel_workers``) are configuration errors and raise
    :class:`repro.errors.QueryError` instead of being silently maxed up
    to one worker.

    ``strict=True`` turns the cap from a clamp into an admission check:
    an explicit request above ``EXECUTION.max_workers`` raises
    :class:`repro.errors.ResourceLimitError` instead of being quietly
    reduced.  The cluster layer resolves its shard count this way — a
    topology the operator capped out must be rejected at construction,
    not silently reshaped.
    """
    explicit = workers if workers is not None else EXECUTION.parallel_workers
    if explicit is None:
        count = os.cpu_count() or 1
    else:
        count = int(explicit)
        if count <= 0:
            raise QueryError(
                f"worker count must be a positive integer, got {explicit!r}"
            )
    cap = EXECUTION.max_workers
    if cap is not None:
        cap = int(cap)
        if cap <= 0:
            raise QueryError(
                f"EXECUTION.max_workers must be a positive integer or None, "
                f"got {EXECUTION.max_workers!r}"
            )
        if strict and explicit is not None and count > cap:
            raise ResourceLimitError(
                f"{what} requests {count} workers but EXECUTION.max_workers "
                f"caps fan-out at {cap}",
                what=what,
            )
        count = min(count, cap)
    return max(1, count)


def tile_ranges(m: int, rows_per_tile: int) -> List[Tuple[int, int]]:
    """Half-open row ranges ``[(lo, hi), ...]`` covering ``m`` rows.

    ``m == 0`` yields a single empty range so callers still produce a
    (zero-row) result block of the right type.
    """
    rows = max(1, int(rows_per_tile))
    if m <= 0:
        return [(0, 0)]
    return [(lo, min(lo + rows, m)) for lo in range(0, m, rows)]


def _checked_call(fn: Callable[..., T], index: int, args: Tuple) -> T:
    """One work unit behind its resilience checkpoint.

    Module-level (not a closure) so the process backend can pickle it;
    ``fn`` travels as an ordinary argument.
    """
    checkpoint(TILE_SITE, index)
    return fn(*args)


def _collected_call(
    collectors: Tuple, fn: Callable[..., T], index: int, args: Tuple
) -> T:
    """:func:`_checked_call` under the submitting thread's fault-stats
    collectors, so events fired inside pool worker threads are still
    attributed to the engine that issued the query."""
    with _faults.adopting(collectors):
        return _checked_call(fn, index, args)


def _map_argtuples(
    fn: Callable[..., T],
    argtuples: Sequence[Tuple],
    backend: Optional[str],
    workers: Optional[int],
) -> List[T]:
    """Shared runner behind :func:`map_tiles` / :func:`map_ordered`:
    ``[fn(*args) for args in argtuples]`` under the chosen backend, with
    results ordered by position regardless of completion order.  ``fn``
    is submitted through the picklable :func:`_checked_call` shim, so
    picklable functions stay process-backend compatible."""
    if backend is None:
        backend = EXECUTION.parallel_backend
    if backend not in _BACKENDS:
        raise QueryError(
            f"unknown parallel backend {backend!r}; expected one of {_BACKENDS}"
        )
    n_workers = resolve_workers(workers)
    if backend == "serial" or n_workers == 1 or len(argtuples) <= 1:
        return [_checked_call(fn, i, args) for i, args in enumerate(argtuples)]
    pool_cls = (
        concurrent.futures.ThreadPoolExecutor
        if backend == "thread"
        else concurrent.futures.ProcessPoolExecutor
    )
    results: List[T] = [None] * len(argtuples)  # type: ignore[list-item]
    done = [False] * len(argtuples)
    crashes = 0
    pool_broke = False
    # Thread-pool workers adopt this thread's per-engine fault-stats
    # collectors; process children keep their own (their counters are
    # process-local and unreachable from the parent either way).
    collectors = (
        _faults.current_collectors() if backend == "thread" else ()
    )
    try:
        with pool_cls(max_workers=min(n_workers, len(argtuples))) as pool:
            futures = {
                pool.submit(_collected_call, collectors, fn, i, args): i
                for i, args in enumerate(argtuples)
            }
            for fut in concurrent.futures.as_completed(futures):
                i = futures[fut]
                try:
                    results[i] = fut.result()
                    done[i] = True
                except WorkerCrashError:
                    # A single tile died inside its worker; the pool is
                    # still healthy.  Leave the tile for serial retry.
                    crashes += 1
                except BrokenProcessPool:
                    # A worker process died hard; every not-yet-done
                    # tile is stranded.  Fall through to serial retry.
                    pool_broke = True
    except BrokenProcessPool:
        pool_broke = True
    missing = [i for i, ok in enumerate(done) if not ok]
    if crashes:
        _faults._record("worker_crashes", crashes)
    if pool_broke:
        _faults._record("pools_broken")
    if missing:
        _faults._record("tiles_retried", len(missing))
        # Serial retry in the parent, with fault injection suppressed
        # (transient-fault model).  Deadline checkpoints stay live.
        with _faults.suppressed():
            for i in missing:
                results[i] = _checked_call(fn, i, argtuples[i])
                done[i] = True
    return results


def map_ordered(
    fn: Callable[..., T],
    items: Sequence,
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> List[T]:
    """``[fn(item) for item in items]`` under the chosen backend.

    The task-shaped sibling of :func:`map_tiles`: where tiles are
    contiguous row ranges of one query matrix, items are arbitrary
    independent units of work.  Results are ordered by
    item position regardless of completion order, so every backend
    returns identical output.
    """
    return _map_argtuples(fn, [(item,) for item in items], backend, workers)


def map_tiles(
    fn: Callable[[int, int], T],
    tiles: Sequence[Tuple[int, int]],
    backend: Optional[str] = None,
    workers: Optional[int] = None,
) -> List[T]:
    """``[fn(lo, hi) for (lo, hi) in tiles]`` under the chosen backend.

    ``backend=None`` reads :data:`repro.config.EXECUTION`.  The output
    list is ordered by tile position regardless of completion order, so
    all backends are interchangeable.  The process backend requires
    ``fn`` (and everything it closes over) to be picklable; the planner
    therefore defaults to threads for its model-object workloads.
    Failed tiles (worker crashes, broken process pools) are retried
    serially in the parent — see the module docstring.
    """
    return _map_argtuples(fn, list(tiles), backend, workers)
