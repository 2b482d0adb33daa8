"""Prepared cleansed queries: the rewrite engine's decision memo.

A repeated statement under an unchanged rule set and plan fingerprint
builds and plans only the remembered winning candidate; anything that
moves the fingerprint or the rule set races every candidate again.
"""

from __future__ import annotations

import pytest

import repro.rewrite.engine as rewrite_engine
from repro.datagen import GeneratorConfig
from repro.minidb.codegen import codegen_enabled, forced_codegen
from repro.minidb.parallel import configured_worker_count
from repro.minidb.sqlparse import parse_select
from repro.minidb.vector import forced_encoding
from repro.rewrite import DeferredCleansingEngine
from repro.rewrite.cache import CacheOptions
from repro.workloads import Workbench
from repro.workloads.rules import rule_texts

CONFIG = GeneratorConfig(anomaly_percent=20.0, scale=6, stores=10,
                         warehouses=5, distribution_centers=3,
                         locations_per_site=10, products=50,
                         manufacturers=10)


@pytest.fixture
def bench():
    # Rules kept in memory only: no rules-table write moves the plan
    # fingerprint, so only the registry version can invalidate.
    bench = Workbench.create(CONFIG, ()).with_rules(("reader", "duplicate"))
    yield bench
    bench.database.close()


def counts(engine):
    return engine.decision_hits, engine.decision_misses


def test_repeat_replays_only_the_winner(bench):
    engine = bench.engine
    sql = bench.q2(0.1)
    cold = engine.rewrite(sql)
    assert len(cold.candidates) > 2
    warm = engine.rewrite(sql)
    assert counts(engine) == (1, 1)
    assert [c.label for c in warm.candidates] == [cold.chosen.label]
    assert warm.strategy == cold.strategy
    assert warm.physical.estimated_cost == cold.physical.estimated_cost


def test_metrics_report_memo_hits_and_misses(bench):
    sql = bench.q1(0.1)
    _, cold, _ = bench.engine.execute_with_metrics(sql)
    _, warm, _ = bench.engine.execute_with_metrics(sql)
    assert (cold.plan_cache_hits, cold.plan_cache_misses) == (0, 1)
    assert (warm.plan_cache_hits, warm.plan_cache_misses) == (1, 0)


def test_text_and_statement_share_one_entry(bench):
    engine = bench.engine
    sql = bench.q2_prime(0.1)
    engine.rewrite(sql)
    engine.rewrite(parse_select(sql))
    assert counts(engine) == (1, 1)
    assert len(engine._decisions) == 1


def test_hit_explain_matches_cold_winner_and_ast_is_untouched(bench):
    engine = bench.engine
    sql = bench.q2(0.1)
    cold = engine.rewrite(sql).physical.explain()
    statement = bench.database.plan_cache.parsed(sql)
    assert statement is not None
    before = statement.to_sql()
    warm = engine.rewrite(sql).physical.explain()
    assert engine.decision_hits == 1
    assert warm == cold
    assert bench.database.plan_cache.parsed(sql) is statement
    assert statement.to_sql() == before


def test_strategy_restriction_is_part_of_the_key(bench):
    engine = bench.engine
    sql = bench.q1(0.1)
    engine.rewrite(sql)
    forced = engine.rewrite(sql, {"joinback"})
    assert forced.strategy == "joinback"
    assert counts(engine) == (0, 2)


def _invalidate_define(bench):
    bench.registry.define(rule_texts(bench.data)["replacing"][0])


def _invalidate_drop(bench):
    bench.registry.drop("duplicate_rule")


def _invalidate_view(bench):
    bench.registry.define_view("extra_view", "select epc from caser")


def _invalidate_index(bench):
    bench.database.run("create index on caser (reader)")


def _invalidate_stats(bench):
    bench.database.analyze("caser")


@pytest.mark.parametrize("change", [
    _invalidate_define, _invalidate_drop, _invalidate_view,
    _invalidate_index, _invalidate_stats,
], ids=["define", "drop", "view", "create-index", "stats"])
def test_catalog_and_rule_changes_invalidate(bench, change):
    engine = bench.engine
    sql = bench.q1(0.1)
    engine.rewrite(sql)
    engine.rewrite(sql)
    assert counts(engine) == (1, 1)
    change(bench)
    engine.rewrite(sql)
    assert counts(engine) == (1, 2)
    engine.rewrite(sql)
    assert counts(engine) == (2, 2)


def test_workers_codegen_and_encode_invalidate(bench, monkeypatch):
    engine = bench.engine
    sql = bench.q1(0.1)
    engine.rewrite(sql)
    workers = configured_worker_count()
    monkeypatch.setenv("REPRO_WORKERS", "0" if workers >= 2 else "2")
    engine.rewrite(sql)
    assert counts(engine) == (0, 2)
    monkeypatch.setenv("REPRO_WORKERS", str(workers))
    engine.rewrite(sql)
    assert counts(engine) == (1, 2)
    with forced_codegen(not codegen_enabled()):
        engine.rewrite(sql)
    assert counts(engine) == (1, 3)
    with forced_encoding(not bench.database._encode_resolved()):
        engine.rewrite(sql)
    assert counts(engine) == (1, 4)


def test_unproducible_label_falls_back_to_the_race(bench):
    engine = bench.engine
    sql = bench.q1(0.1)
    cold = engine.rewrite(sql)
    key = next(iter(engine._decisions))
    engine._decisions[key] = "joinback+9dims"
    again = engine.rewrite(sql)
    assert counts(engine) == (0, 2)
    assert [c.label for c in again.candidates] \
        == [c.label for c in cold.candidates]
    assert engine._decisions[key] == cold.chosen.label


def test_region_cache_results_are_never_stored(bench):
    engine = DeferredCleansingEngine(bench.database, bench.registry,
                                     cache=CacheOptions())
    sql = bench.q1(0.1)
    assert engine.rewrite(sql).strategy == "cached"
    assert engine.rewrite(sql).strategy == "cached"
    assert len(engine._decisions) == 0
    assert counts(engine) == (0, 0)


def test_memo_is_lru_bounded(bench, monkeypatch):
    monkeypatch.setattr(rewrite_engine, "DECISION_MEMO_SIZE", 2)
    engine = bench.engine
    first, second, third = (bench.q1(0.05), bench.q1(0.1), bench.q1(0.2))
    for sql in (first, second, first, third):
        engine.rewrite(sql)
    assert len(engine._decisions) == 2
    assert counts(engine) == (1, 3)
    engine.rewrite(first)
    assert counts(engine) == (2, 3)
    engine.rewrite(second)
    assert counts(engine) == (2, 4)


def test_rows_after_append_match_a_fresh_engine(bench):
    engine = bench.engine
    sql = bench.q2(0.5)
    engine.execute(sql)
    shifted = [(epc, rtime + 1, reader, loc, step)
               for epc, rtime, reader, loc, step
               in bench.data.case_reads[:200]]
    bench.database.append("caser", shifted)
    result, metrics, _ = engine.execute_with_metrics(sql)
    assert metrics.plan_cache_hits == 1
    fresh = DeferredCleansingEngine(bench.database, bench.registry)
    assert result.canonical() == fresh.execute(sql).canonical()
    assert result.canonical() == fresh.execute(
        sql, {"naive"}).canonical()
