"""Join-back under a rule whose FROM is a derived view.

The §6.3 missing rule reads ``case_with_pallet``: case reads plus
"expected" case reads copied from the pallet's reads. Cleansing keeps
such a copied read when the case went missing at one stop but was seen
with its pallet later, so the cleansed table holds a row that is not a
raw case read. The join-back strategy restricts the rule chain to the
EPCs with a read matching the query's σ_s; that list must count the
view's rows too, or an EPC whose only matching read is a copied one
drops out of the answer.
"""

import pytest

from repro.minidb import Database, SqlType, TableSchema
from repro.minidb.vector import materialize
from repro.rewrite import DeferredCleansingEngine
from repro.sqlts import RuleRegistry
from repro.workloads.rules import case_with_pallet_view

READS = TableSchema.of(("epc", SqlType.VARCHAR),
                       ("rtime", SqlType.TIMESTAMP),
                       ("reader", SqlType.VARCHAR),
                       ("biz_loc", SqlType.VARCHAR),
                       ("biz_step", SqlType.VARCHAR))
PARENT = TableSchema.of(("parent_epc", SqlType.VARCHAR),
                        ("child_epc", SqlType.VARCHAR))
STEPS = TableSchema.of(("biz_step", SqlType.VARCHAR),
                       ("type", SqlType.VARCHAR))

MISSING_R1 = """
DEFINE missing_rule_r1 ON caser FROM case_with_pallet
CLUSTER BY epc SEQUENCE BY rtime
AS (X, A, Y)
WHERE A.is_pallet = 1 AND
      ((X.is_pallet = 0 AND A.biz_loc = X.biz_loc
        AND A.rtime - X.rtime < 60 seconds)
       OR
       (Y.is_pallet = 0 AND A.biz_loc = Y.biz_loc
        AND Y.rtime - A.rtime < 60 seconds))
ACTION MODIFY A.has_case_nearby = 1
"""
MISSING_R2 = """
DEFINE missing_rule_r2 ON caser CLUSTER BY epc SEQUENCE BY rtime
AS (A, *B)
WHERE A.is_pallet = 0 OR
      (A.has_case_nearby = 0 AND B.has_case_nearby = 1)
ACTION KEEP A
"""


@pytest.fixture
def engine():
    """Case c1 rides pallet p1 through L1 → L2 → L3 but is not read at
    L2 (t=500); case c2 is read everywhere on its own."""
    db = Database()
    db.create_table("caser", READS)
    db.create_table("palletr", READS)
    db.create_table("parent", PARENT)
    db.create_table("steps", STEPS)
    db.load("caser", [("c1", 100, "r1", "L1", "s1"),
                      ("c1", 900, "r3", "L3", "s3"),
                      ("c2", 2000, "r1", "L1", "s1"),
                      ("c2", 2500, "r2", "L2", "s2")])
    db.load("palletr", [("p1", 100, "r1", "L1", "s1"),
                        ("p1", 500, "r2", "L2", "s2"),
                        ("p1", 900, "r3", "L3", "s3")])
    db.load("parent", [("p1", "c1")])
    db.load("steps", [("s1", "receiving"), ("s2", "shipping"),
                      ("s3", "receiving")])
    db.create_index("caser", "rtime")
    registry = RuleRegistry(db)
    registry.define_view("case_with_pallet", case_with_pallet_view())
    registry.define(MISSING_R1)
    registry.define(MISSING_R2)
    yield DeferredCleansingEngine(db, registry)
    db.close()


def joinback_answers(engine, sql):
    """Rows of every join-back candidate (plain and with pushed
    dimensions), by label."""
    result = engine.rewrite(sql, strategies={"joinback"})
    return {candidate.label: sorted(materialize(candidate.physical))
            for candidate in result.candidates}


def test_copied_read_counts_for_the_relevant_sequences(engine):
    sql = ("select epc, rtime, biz_loc from caser"
           " where rtime >= 400 and rtime <= 600")
    naive = engine.execute(sql, strategies={"naive"}).rows
    # The expected read at L2 is inserted from the pallet's read.
    assert naive == [("c1", 500, "L2")]
    assert joinback_answers(engine, sql) == {"joinback": naive}


def test_copied_read_counts_under_a_pushed_dimension(engine):
    sql = ("select c.epc, c.rtime from caser c, steps s"
           " where c.biz_step = s.biz_step and s.type = 'shipping'"
           " and c.rtime <= 1000")
    naive = engine.execute(sql, strategies={"naive"}).rows
    assert naive == [("c1", 500)]
    got = joinback_answers(engine, sql)
    assert set(got) == {"joinback", "joinback+1dims"}
    assert all(rows == naive for rows in got.values())
