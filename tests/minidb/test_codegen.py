"""Pins for the query-compilation layer (``REPRO_CODEGEN=1``).

The contract under test: compiled execution is an invisible
optimization. For every query, the rows (values AND order), the
per-operator EXPLAIN ANALYZE counters, and raised errors are
byte-identical to the interpreted vectorized path — across worker
counts and batch sizes, through NULL-heavy data, and for plans that
only partially fuse. The generated source itself is observable through
``explain_codegen`` and registered with ``linecache`` so tracebacks
into kernels resolve to real lines.
"""

import linecache

import pytest

from repro.errors import TypeMismatchError
from repro.minidb import Database, SqlType, TableSchema
from repro.minidb.codegen import (
    CompiledSpineOp,
    clear_cache,
    forced_codegen,
)
from repro.minidb.plan.shard import ExchangeOp
from repro.minidb.vector import forced_batch_size, materialize

SCHEMA = TableSchema.of(("id", SqlType.INTEGER),
                        ("epc", SqlType.VARCHAR),
                        ("rtime", SqlType.TIMESTAMP),
                        ("loc", SqlType.VARCHAR),
                        ("qty", SqlType.INTEGER))

DIM_SCHEMA = TableSchema.of(("loc", SqlType.VARCHAR),
                            ("zone", SqlType.VARCHAR))

CODEGEN_MODES = (False, True)
WORKER_COUNTS = (0, 2)
BATCH_SIZES = (0, 1, 7)

QUERIES = [
    "select id, qty from reads where rtime < 6000 and qty > 10"
    " and loc != 'L0'",
    "select id, qty + 1, qty / 2 from reads where qty >= 0 or rtime < 50",
    "select r.epc, d.zone from reads r, dim d"
    " where r.loc = d.loc and r.rtime < 7000",
    "select r.id, d.zone from reads r left join dim d"
    " on r.loc = d.loc and d.zone != 'Z1' where r.qty > 30",
    "select id from reads where loc in ('L1', 'L2')"
    " and qty not in (5, 7)",
]

FILTER_SQL = QUERIES[0]


def big_rows(n=6000):
    # Deterministic pseudo-data with NULL qty every 7th row and NULL
    # loc every 11th: chunk boundaries land inside NULL runs at batch
    # sizes 1 and 7.
    rows = []
    for i in range(n):
        qty = None if i % 7 == 0 else (i * 13) % 41
        loc = None if i % 11 == 0 else f"L{i % 8}"
        rows.append((i, f"E{i % 100:03d}", (i * 17) % 9973, loc, qty))
    return rows


def make_db(rows=None):
    db = Database()
    db.create_table("reads", SCHEMA)
    db.load("reads", big_rows() if rows is None else rows)
    db.create_table("dim", DIM_SCHEMA)
    db.load("dim", [(f"L{i}", None if i == 3 else f"Z{i % 3}")
                    for i in range(6)])
    return db


def run_with_counters(db, sql):
    """(rows, per-operator counters) — Exchange and CompiledSpine
    wrappers excluded so interpreted and compiled plans line up node
    for node."""
    plan = db.plan(sql)
    rows = materialize(plan)
    counters = [(type(node).__name__, node.actual_rows,
                 node.actual_batches, getattr(node, "input_rows", 0))
                for node in plan.walk()
                if not isinstance(node, (ExchangeOp, CompiledSpineOp))]
    return rows, counters


@pytest.mark.parametrize("sql", QUERIES,
                         ids=["filter", "arith", "join", "leftjoin", "in"])
def test_parity_matrix(sql, monkeypatch):
    """Rows and EXPLAIN ANALYZE row counts are identical across
    codegen × workers × batch size; the full batch counters are
    identical between codegen on and off within each (workers, batch
    size) cell — including batch size 0, where compiled plans fall
    back to the interpreted scalar path (zero batches either way)."""
    reference_rows = None
    reference_row_counts = None
    reference_counters = {}
    for workers in WORKER_COUNTS:
        monkeypatch.setenv("REPRO_WORKERS", str(workers))
        for enabled in CODEGEN_MODES:
            db = make_db()
            try:
                for batch_size in BATCH_SIZES:
                    with forced_codegen(enabled), \
                            forced_batch_size(batch_size):
                        rows, counters = run_with_counters(db, sql)
                    key = (workers, enabled, batch_size)
                    row_counts = [entry[:2] for entry in counters]
                    if reference_rows is None:
                        reference_rows = rows
                        reference_row_counts = row_counts
                    else:
                        assert rows == reference_rows, key
                        assert row_counts == reference_row_counts, key
                    cell = (workers, batch_size)
                    if cell not in reference_counters:
                        reference_counters[cell] = counters
                    else:
                        assert counters == reference_counters[cell], key
            finally:
                db.close()


def test_null_ordering_edge_cases():
    """NULL operands in every fused position: comparisons, logical
    connectives, IN lists, join keys, and left-join pads."""
    rows = [(1, "E1", 10, None, None),
            (2, "E2", None, "L1", 0),
            (3, None, 30, "L3", 5),
            (4, "E4", 40, "L9", None),
            (5, "E5", 50, "L1", 41)]
    for sql in [
        "select id from reads where qty > 0 or rtime < 20",
        "select id from reads where qty <= 41 and rtime >= 10",
        "select id, qty / 2 from reads where loc in ('L1', 'L9')",
        "select r.id, d.zone from reads r left join dim d"
        " on r.loc = d.loc where r.id >= 1",
        "select r.id, d.zone from reads r, dim d where r.loc = d.loc",
    ]:
        expected = None
        for enabled in CODEGEN_MODES:
            db = make_db(rows)
            try:
                with forced_codegen(enabled), forced_batch_size(2):
                    got = db.execute(sql).rows
            finally:
                db.close()
            if expected is None:
                expected = got
            else:
                assert got == expected, sql


def test_exception_parity_division_by_zero():
    """A raising operand raises identically under compilation, even on
    the short-circuited side of a conjunction."""
    db = make_db([(1, "E1", 10, "L1", 5)])
    try:
        sql = "select id from reads where rtime < 100 and qty / 0 > 1"
        for enabled in CODEGEN_MODES:
            with forced_codegen(enabled), pytest.raises(TypeMismatchError):
                db.execute(sql)
    finally:
        db.close()


def test_wrapper_present_and_linecache():
    """Fused plans carry a CompiledSpineOp whose kernel compiles under
    a stable virtual filename registered with linecache."""
    db = make_db()
    try:
        with forced_codegen(True):
            plan = db.plan(FILTER_SQL)
        wrappers = [node for node in plan.walk()
                    if isinstance(node, CompiledSpineOp)]
        assert wrappers, "no compiled pipeline planned"
        wrapper = wrappers[0]
        assert wrapper.filename.startswith("<minidb-codegen-")
        assert wrapper.kernel.__code__.co_filename == wrapper.filename
        lines = linecache.getlines(wrapper.filename)
        assert lines and "".join(lines) == wrapper.source_text
        assert "def _fused_kernel" in wrapper.source_text
    finally:
        db.close()


def test_disabled_by_default(monkeypatch):
    monkeypatch.delenv("REPRO_CODEGEN", raising=False)
    db = make_db()
    try:
        plan = db.plan(FILTER_SQL)
        assert not any(isinstance(node, CompiledSpineOp)
                       for node in plan.walk())
    finally:
        db.close()


def test_explain_codegen():
    db = make_db()
    try:
        with forced_codegen(True):
            text = db.explain_codegen(FILTER_SQL)
        assert "-- pipeline 0:" in text
        assert "def _fused_kernel" in text
        with forced_codegen(False):
            text = db.explain_codegen(FILTER_SQL)
        assert "no compiled pipelines" in text
    finally:
        db.close()


def test_source_dump_hook(tmp_path, monkeypatch):
    """REPRO_CODEGEN_DUMP writes each freshly compiled kernel to disk."""
    monkeypatch.setenv("REPRO_CODEGEN_DUMP", str(tmp_path))
    clear_cache()
    db = make_db()
    try:
        with forced_codegen(True):
            plan = db.plan(FILTER_SQL)
        wrapper = next(node for node in plan.walk()
                       if isinstance(node, CompiledSpineOp))
        stem = wrapper.filename.strip("<>")
        dumped = tmp_path / f"{stem}.py"
        assert dumped.read_text() == wrapper.source_text
    finally:
        db.close()


def test_partial_fusion_falls_back():
    """Plans with unfusable operators (aggregation) still fuse the
    scan→filter spine underneath and agree with the interpreter."""
    sql = ("select loc, count(*) from reads where qty > 5"
           " group by loc order by loc asc")
    expected = None
    for enabled in CODEGEN_MODES:
        db = make_db()
        try:
            with forced_codegen(enabled), forced_batch_size(7):
                got = db.execute(sql).rows
                if enabled:
                    plan = db.plan(sql)
                    assert any(isinstance(node, CompiledSpineOp)
                               for node in plan.walk())
        finally:
            db.close()
        if expected is None:
            expected = got
        else:
            assert got == expected


def test_compiled_plan_survives_append():
    """The prepared-plan cache keeps serving the compiled plan across
    appends (the fingerprint covers the codegen knob, not the data)."""
    db = make_db()
    try:
        with forced_codegen(True):
            _, first = db.execute_with_metrics(FILTER_SQL)
            assert first.fused_pipelines > 0
            db.append("reads", [(10_001, "E001", 123, "L1", 39)])
            result, metrics = db.execute_with_metrics(FILTER_SQL)
        assert metrics.plan_cache_hits == 1
        assert metrics.fused_pipelines > 0
        assert any(row[0] == 10_001 for row in result.rows)
    finally:
        db.close()


def test_codegen_cache_hit_on_replan():
    """Identical plans compile once: the second planning of the same
    query hits the source-keyed kernel cache."""
    clear_cache()
    db = make_db()
    try:
        with forced_codegen(True):
            _, first = db.execute_with_metrics(FILTER_SQL)
            db.plan_cache.clear()
            _, second = db.execute_with_metrics(FILTER_SQL)
        assert first.codegen_cache_misses >= 1
        assert first.compile_ms > 0
        assert second.codegen_cache_hits >= 1
        assert second.codegen_cache_misses == 0
    finally:
        db.close()


def test_fingerprint_keyed_on_codegen_knob():
    """Toggling REPRO_CODEGEN must not serve a stale interpreted plan
    from the prepared-plan cache (or vice versa)."""
    db = make_db()
    try:
        with forced_codegen(False):
            _, off = db.execute_with_metrics(FILTER_SQL)
            assert off.fused_pipelines == 0
        with forced_codegen(True):
            _, on = db.execute_with_metrics(FILTER_SQL)
            assert on.plan_cache_hits == 0
            assert on.fused_pipelines > 0
    finally:
        db.close()
