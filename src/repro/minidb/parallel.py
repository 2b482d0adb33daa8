"""The persistent shard-execution worker pool.

One :class:`ShardWorkerPool` serves a whole :class:`~repro.minidb.engine.
Database`: it is forked lazily on the first parallel dispatch and then
reused across queries, replacing the fork-per-query pool that previously
lived inside the window operator. Workers inherit the database (catalog,
tables, statistics) through ``fork``; nothing engine-sized is ever
pickled.

What *does* travel is deliberately small and closure-free:

* **task → worker**: the pickled *logical* plan plus planner options
  (closures in physical plans cannot cross a process boundary), the walk
  index of the segment to execute, one morsel (a shard spec for the
  segment's base scan), and the effective batch size;
* **worker → parent**: the morsel's output rows plus per-node execution
  counters in ``segment.walk()`` order.

The worker re-plans the logical payload against its fork-inherited
catalog — the planner is deterministic, so the physical shape matches
the parent's pre-shard plan exactly — and caches the result per payload,
so a query dispatched as many morsels plans once per worker, not once
per morsel. Stored tables inside logical plans are pickled *by name*
(``persistent_id``) and resolved against the worker's catalog.

Staleness is handled at the parent: the pool records a fingerprint of
(catalog version, stats version, table versions, worker count, shard
threshold) at spawn, and :meth:`Database.shard_pool` respawns the pool
when the fingerprint moves. A spawn therefore happens once per *database
state*, not once per query; ``Database.pool_spawns`` / ``pool_reuses``
pin that invariant in tests.

Worker count comes from ``REPRO_WORKERS`` (0 or unset disables).
"""

from __future__ import annotations

import io
import multiprocessing
import os
import pickle
import queue
from typing import Any, Sequence

from repro.minidb.plan.shard import segment_scan
from repro.minidb.vector import forced_batch_size, materialize

__all__ = [
    "ShardDispatchError",
    "ShardWorkerPool",
    "configured_worker_count",
    "dumps_plan",
    "loads_plan",
]

#: Seconds the parent waits for one morsel result before declaring the
#: pool wedged and falling back to serial execution.
RESULT_TIMEOUT = 60.0

#: Per-worker cap on cached re-planned payloads.
_WORKER_PLAN_CACHE = 16


class ShardDispatchError(RuntimeError):
    """A worker reported an error (or timed out) during a dispatch."""


def configured_worker_count() -> int:
    """Shard-pool size from ``REPRO_WORKERS``; 0 (the default) disables.

    Junk values disable; a positive integer pins the count. Unlike the
    retired fork-per-query pool, parallelism is opt-in: unset means
    serial.
    """
    env = os.environ.get("REPRO_WORKERS")
    if env is None:
        return 0
    try:
        return max(0, int(env.strip()))
    except ValueError:
        return 0


# ---------------------------------------------------------------------------
# Logical-plan payloads (tables pickled by name)
# ---------------------------------------------------------------------------


class _PlanPickler(pickle.Pickler):
    """Pickles stored tables by name; the worker resolves them against
    its fork-inherited catalog, so row data never crosses the pipe."""

    def persistent_id(self, obj: Any) -> Any:
        from repro.minidb.table import Table

        if isinstance(obj, Table):
            return ("minidb-table", obj.name)
        return None


class _PlanUnpickler(pickle.Unpickler):
    def __init__(self, file: io.BytesIO, catalog: Any) -> None:
        super().__init__(file)
        self._catalog = catalog

    def persistent_load(self, pid: Any) -> Any:
        kind, name = pid
        if kind != "minidb-table":
            raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")
        return self._catalog.table(name)


def dumps_plan(logical: Any, options: Any) -> bytes:
    buffer = io.BytesIO()
    _PlanPickler(buffer).dump((logical, options))
    return buffer.getvalue()


def loads_plan(payload: bytes, catalog: Any) -> tuple[Any, Any]:
    return _PlanUnpickler(io.BytesIO(payload), catalog).load()


# ---------------------------------------------------------------------------
# Worker loop
# ---------------------------------------------------------------------------


def _plan_payload(database: Any, payload: bytes) -> Any:
    """Re-plan a pickled logical plan into the parent's pre-shard shape."""
    from dataclasses import replace

    from repro.minidb.optimizer.planner import Planner

    logical, options = loads_plan(payload, database.catalog)
    # The worker must reproduce the serial plan the parent sharded, so
    # the shard pass itself is disabled here; segment walk indices refer
    # to the unwrapped tree.
    options = replace(options, shard_parallel=False)
    planner = Planner(database.catalog, database.stats,
                      database.cost_model, options)
    return planner.plan(logical)


def _worker_main(worker_id: int, database: Any,
                 tasks: "multiprocessing.Queue",
                 results: "multiprocessing.Queue") -> None:
    storage = getattr(database, "storage", None)
    if storage is not None:
        # Own read-only descriptor + empty buffer pool: the worker
        # re-reads pages honestly instead of trusting fork-copied
        # frames, and can never write to the shared files.
        storage.reopen_worker()
    plans: dict[bytes, Any] = {}
    while True:
        task = tasks.get()
        if task is None:
            return
        (task_id, payload, segment_index, shard_spec, batch_size,
         visible_count) = task
        try:
            root = plans.get(payload)
            if root is None:
                root = _plan_payload(database, payload)
                if len(plans) >= _WORKER_PLAN_CACHE:
                    plans.pop(next(iter(plans)))
                plans[payload] = root
            segment = list(root.walk())[segment_index]
            scan = segment_scan(segment)
            segment.reset_metrics()
            scan.shard = shard_spec
            # Snapshot dispatches bound the scan to the pinned row
            # prefix; the worker's fork copy always holds at least that
            # many rows (the pool fingerprint includes table versions,
            # so a pool never predates the snapshot's epoch).
            scan.visible_count = visible_count
            try:
                with forced_batch_size(batch_size):
                    rows = materialize(segment)
            finally:
                scan.shard = None
                scan.visible_count = None
            stats = [(node.actual_rows, node.actual_batches,
                      getattr(node, "input_rows", 0),
                      getattr(node, "sorted_rows", 0))
                     for node in segment.walk()]
            results.put((task_id, worker_id, "ok", rows, stats))
        except BaseException as error:  # noqa: BLE001 — relayed to parent
            results.put((task_id, worker_id, "error",
                         f"{type(error).__name__}: {error}", None))


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------


class ShardWorkerPool:
    """A fixed set of forked workers pulling morsels off a shared queue.

    The shared task queue *is* the work-stealing mechanism: morsels are
    not pre-assigned, so a worker that finishes its expected share early
    simply pulls (steals) the next pending morsel. A morsel counts as
    stolen when it was executed by a worker other than its round-robin
    home (``task_id % workers``).
    """

    def __init__(self, database: Any, workers: int,
                 fingerprint: tuple) -> None:
        storage = getattr(database, "storage", None)
        if storage is not None:
            # Workers re-read pages from the file; make sure every
            # dirty frame is visible there before the fork happens.
            storage.flush_for_fork()
        context = multiprocessing.get_context("fork")
        self.workers = workers
        self.fingerprint = fingerprint
        self.alive = True
        self._tasks: multiprocessing.Queue = context.Queue()
        self._results: multiprocessing.Queue = context.Queue()
        self._processes = [
            context.Process(target=_worker_main,
                            args=(index, database, self._tasks,
                                  self._results),
                            daemon=True)
            for index in range(workers)]
        for process in self._processes:
            process.start()

    def dispatch(self, tasks: Sequence[tuple],
                 timeout: float = RESULT_TIMEOUT) -> list[tuple]:
        """Run *tasks* across the pool; returns results in task order.

        Each result is ``(worker_id, rows, stats)``. Any worker error or
        timeout raises :class:`ShardDispatchError`; the caller must then
        discard the pool (its queues may hold stale results).
        """
        if not self.alive:
            raise ShardDispatchError("pool is closed")
        for task in tasks:
            self._tasks.put(task)
        collected: dict[int, tuple] = {}
        for _ in range(len(tasks)):
            try:
                (task_id, worker_id, status,
                 payload, stats) = self._results.get(timeout=timeout)
            except queue.Empty:
                raise ShardDispatchError(
                    f"no result within {timeout:.0f}s "
                    f"({len(collected)}/{len(tasks)} morsels done)"
                ) from None
            if status != "ok":
                raise ShardDispatchError(f"worker {worker_id}: {payload}")
            collected[task_id] = (worker_id, payload, stats)
        return [collected[index] for index in range(len(tasks))]

    def close(self) -> None:
        """Terminate the workers; idempotent, never raises."""
        if not self.alive:
            return
        self.alive = False
        try:
            for _ in self._processes:
                self._tasks.put(None)
        except Exception:  # noqa: BLE001 — queue may already be broken
            pass
        for process in self._processes:
            process.join(timeout=1.0)
            if process.is_alive():
                process.terminate()
        self._tasks.close()
        self._results.close()
