"""Shard-parallel execution must be invisible.

The persistent worker pool partitions eligible plan segments across the
base scan and merges shard outputs in deterministic order; results must
be byte-identical to the serial path, and the path must degrade
gracefully (small inputs, REPRO_WORKERS unset / 0 / junk).
"""

from repro.minidb import Database, SqlType, TableSchema
from repro.minidb.parallel import configured_worker_count
from repro.minidb.plan import shard

SCHEMA = TableSchema.of(("g", SqlType.VARCHAR),
                        ("t", SqlType.TIMESTAMP),
                        ("v", SqlType.INTEGER))

WINDOW_SQL = """
    select g, t, v,
           sum(v) over (partition by g order by t asc
               range between 100 preceding and current row) as recent,
           max(v) over (partition by g order by t asc
               rows between 1 preceding and 1 preceding) as prev
    from w"""

FILTER_SQL = "select g, t, v from w where v >= 40"


def make_db(rows):
    db = Database()
    db.create_table("w", SCHEMA)
    db.load("w", rows)
    return db


def big_rows(partitions=40, per_partition=200):
    return [(f"g{p:02d}", t * 7, (p * 31 + t) % 97)
            for p in range(partitions) for t in range(per_partition)]


def run(rows, sql, monkeypatch, workers, threshold=None):
    if workers is None:
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
    else:
        monkeypatch.setenv("REPRO_WORKERS", str(workers))
    if threshold is not None:
        monkeypatch.setattr(shard, "SHARD_ROW_THRESHOLD", threshold)
    db = make_db(rows)
    try:
        return db.execute(sql)
    finally:
        db.close()


def test_sharded_window_matches_serial(monkeypatch):
    rows = big_rows()
    serial = run(rows, WINDOW_SQL, monkeypatch, workers=None)
    sharded = run(rows, WINDOW_SQL, monkeypatch, workers=2, threshold=64)
    assert sharded.rows == serial.rows


def test_sharded_filter_matches_serial(monkeypatch):
    rows = big_rows()
    serial = run(rows, FILTER_SQL, monkeypatch, workers=None)
    sharded = run(rows, FILTER_SQL, monkeypatch, workers=2, threshold=64)
    assert sharded.rows == serial.rows


def test_small_input_stays_serial(monkeypatch):
    rows = big_rows(partitions=4, per_partition=10)
    assert len(rows) < shard.SHARD_ROW_THRESHOLD
    serial = run(rows, WINDOW_SQL, monkeypatch, workers=None)
    sharded = run(rows, WINDOW_SQL, monkeypatch, workers=2)
    assert sharded.rows == serial.rows


def test_env_zero_disables_workers(monkeypatch):
    rows = big_rows(partitions=8, per_partition=20)
    serial = run(rows, WINDOW_SQL, monkeypatch, workers=None)
    disabled = run(rows, WINDOW_SQL, monkeypatch, workers=0, threshold=1)
    assert disabled.rows == serial.rows


def test_worker_count_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert configured_worker_count() == 3
    monkeypatch.setenv("REPRO_WORKERS", "not-a-number")
    assert configured_worker_count() == 0
    monkeypatch.setenv("REPRO_WORKERS", "-2")
    assert configured_worker_count() == 0
    monkeypatch.delenv("REPRO_WORKERS")
    # Opt-in: unset means serial, unlike the retired fork-per-query pool.
    assert configured_worker_count() == 0


def test_retired_alias_is_ignored(monkeypatch):
    # REPRO_PARALLEL configured the retired fork-per-query pool; it no
    # longer sets the worker count.
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    monkeypatch.setenv("REPRO_PARALLEL", "2")
    assert configured_worker_count() == 0
