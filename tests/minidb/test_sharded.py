"""End-to-end pins for shard-parallel query execution.

Determinism: for a fixed query, the result (rows AND order) and the
per-operator EXPLAIN ANALYZE row counts are identical across every
worker-count × batch-size combination. Pool lifecycle: the worker pool
is forked once per database *state* and reused across queries, with a
respawn when the data changes. Fallbacks: an Exchange without a usable
pool degrades to serial pass-through, never to an error.
"""

import pytest

from repro.minidb import Database, SqlType, TableSchema
from repro.minidb.codegen import CompiledSpineOp
from repro.minidb.plan import shard
from repro.minidb.plan.shard import ExchangeOp
from repro.minidb.vector import forced_batch_size, materialize

SCHEMA = TableSchema.of(("epc", SqlType.VARCHAR),
                        ("rtime", SqlType.TIMESTAMP),
                        ("val", SqlType.INTEGER))

WINDOW_SQL = """
    select epc, rtime, val,
           sum(val) over (partition by epc order by rtime asc
               range between 50 preceding and current row) as recent,
           count(*) over (partition by epc order by rtime asc
               rows between unbounded preceding and current row) as seq
    from reads"""

FILTER_SQL = "select epc, rtime, val from reads where val >= 40"

WORKER_COUNTS = (0, 1, 2, 4)
BATCH_SIZES = (0, 1, 7)


def big_rows(partitions=64, per_partition=80):
    return [(f"epc{p:03d}", t * 5, (p * 37 + t * 11) % 97)
            for p in range(partitions) for t in range(per_partition)]


def make_db(rows):
    db = Database()
    db.create_table("reads", SCHEMA)
    db.load("reads", rows)
    return db


def run_with_counters(db, sql):
    """(rows, per-operator actual_rows) — Exchange and CompiledSpine
    wrappers excluded so serial, sharded, and compiled plans line up
    node for node."""
    plan = db.plan(sql)
    rows = materialize(plan)
    counters = [(type(node).__name__, node.actual_rows)
                for node in plan.walk()
                if not isinstance(node, (ExchangeOp, CompiledSpineOp))]
    return rows, counters


@pytest.mark.parametrize("sql", [WINDOW_SQL, FILTER_SQL],
                         ids=["window", "filter"])
def test_determinism_across_workers_and_batches(sql, monkeypatch):
    rows = big_rows()
    assert len(rows) >= shard.SHARD_ROW_THRESHOLD
    reference = None
    for workers in WORKER_COUNTS:
        monkeypatch.setenv("REPRO_WORKERS", str(workers))
        db = make_db(rows)
        try:
            for batch_size in BATCH_SIZES:
                with forced_batch_size(batch_size):
                    out, counters = run_with_counters(db, sql)
                if reference is None:
                    reference = (out, counters)
                    continue
                assert out == reference[0], (workers, batch_size)
                assert counters == reference[1], (workers, batch_size)
        finally:
            db.close()


def test_pool_spawned_once_and_reused(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.setattr(shard, "SHARD_ROW_THRESHOLD", 50)
    db = make_db(big_rows(partitions=10, per_partition=30))
    try:
        for _ in range(3):
            result, metrics = db.execute_with_metrics(FILTER_SQL)
        assert db.pool_spawns == 1
        assert db.pool_reuses >= 2
        assert metrics.sharded_segments == 1
        assert metrics.shard_workers == 2
        assert metrics.shard_morsels >= 2
        assert sum(metrics.shard_rows) == len(result.rows)
    finally:
        db.close()


def test_pool_respawns_after_mutation(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.setattr(shard, "SHARD_ROW_THRESHOLD", 50)
    rows = big_rows(partitions=10, per_partition=30)
    db = make_db(rows)
    try:
        before = db.execute(FILTER_SQL)
        assert db.pool_spawns == 1
        extra = ("epc999", 1, 99)
        db.load("reads", [extra])
        after = db.execute(FILTER_SQL)
        # Fork-time snapshots are stale after the insert: a fresh pool
        # must serve the second query, and it must see the new row.
        assert db.pool_spawns == 2
        assert len(after.rows) == len(before.rows) + 1
        assert extra in after.rows
    finally:
        db.close()


def test_unarmed_or_disabled_exchange_falls_back(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.setattr(shard, "SHARD_ROW_THRESHOLD", 50)
    rows = big_rows(partitions=10, per_partition=30)
    serial_db = make_db(rows)
    monkeypatch.setenv("REPRO_WORKERS", "0")
    expected = serial_db.execute(FILTER_SQL).rows
    monkeypatch.setenv("REPRO_WORKERS", "2")
    db = make_db(rows)
    try:
        plan = db.plan(FILTER_SQL)
        exchange = next(node for node in plan.walk()
                        if isinstance(node, ExchangeOp))
        # Knob flipped off between planning and execution: shard_pool()
        # returns None and the armed Exchange passes rows through.
        monkeypatch.setenv("REPRO_WORKERS", "0")
        plan.reset_metrics()
        assert materialize(plan) == expected
        assert exchange.workers_used == 0
        assert db.pool_spawns == 0
        # Detached (never armed) Exchange behaves the same way.
        monkeypatch.setenv("REPRO_WORKERS", "2")
        exchange.database = None
        exchange.payload = None
        plan.reset_metrics()
        assert materialize(plan) == expected
        assert exchange.workers_used == 0
    finally:
        db.close()
        serial_db.close()


def test_below_threshold_plans_stay_serial(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "2")
    db = make_db(big_rows(partitions=4, per_partition=10))
    try:
        plan = db.plan(WINDOW_SQL)
        assert not any(isinstance(node, ExchangeOp)
                       for node in plan.walk())
        assert db.pool_spawns == 0
    finally:
        db.close()
