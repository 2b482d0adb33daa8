"""Ablation benchmarks for the design choices DESIGN.md calls out.

These do not correspond to paper figures; they isolate the mechanisms
the paper credits for the rewrites' performance:

* order sharing between the cleansing window and q1's analytic window;
* the improved join-back (filtering joined-back rows by ec);
* cost-based dimension pushdown vs push-none / push-all;
* sliding-frame window aggregation vs naive per-row rescan.
"""

import pytest
from conftest import once

from repro.minidb import PlannerOptions
from repro.rewrite import DeferredCleansingEngine
from repro.rewrite.strategies import joinback_subplan


class TestOrderSharing:
    @pytest.mark.parametrize("sharing", [True, False])
    def test_q1_expanded(self, benchmark, db10_reader_only, sharing):
        bench = db10_reader_only
        sql = bench.q1(0.10)
        result = bench.engine.rewrite(sql, strategies={"expanded"})
        options = PlannerOptions(order_sharing=sharing)
        benchmark.group = "ablation-order-sharing"

        def run():
            plan = bench.database.plan(result.chosen.logical, options)
            return list(plan.rows())

        once(benchmark, run)

    def test_sharing_removes_a_sort(self, benchmark, db10_reader_only):
        bench = db10_reader_only
        sql = bench.q1(0.10)
        result = bench.engine.rewrite(sql, strategies={"expanded"})

        def sort_counts():
            counts = []
            for sharing in (True, False):
                options = PlannerOptions(order_sharing=sharing)
                plan = bench.database.plan(result.chosen.logical, options)
                list(plan.rows())
                from repro.minidb.engine import ExecutionMetrics
                counts.append(
                    ExecutionMetrics.from_plan(plan).sort_operators)
            return counts

        shared, unshared = once(benchmark, sort_counts)
        assert shared < unshared


class TestJoinbackEcFilter:
    @pytest.mark.parametrize("use_ec", [True, False])
    def test_rows_cleansed(self, benchmark, db10_reader_only, use_ec):
        """The improved join-back (§5.3) pulls back only rows passing ec;
        the plain variant pulls entire sequences."""
        bench = db10_reader_only
        result = bench.engine.rewrite(bench.q1(0.10),
                                      strategies={"joinback"})
        ec = result.analysis.ec_conjuncts if use_ec else None
        rules = bench.registry.rules_for("caser")
        s_conjuncts = result.context.s_conjuncts
        benchmark.group = "ablation-joinback-ec"

        def run():
            subplan = joinback_subplan(bench.database, bench.registry,
                                       rules, "caser", s_conjuncts, ec)
            return len(bench.database.execute(subplan))

        rows = once(benchmark, run)
        assert rows > 0

    def test_ec_reduces_joined_back_rows(self, db10_reader_only):
        bench = db10_reader_only
        result = bench.engine.rewrite(bench.q1(0.10),
                                      strategies={"joinback"})
        rules = bench.registry.rules_for("caser")
        s_conjuncts = result.context.s_conjuncts

        def rows_with(ec):
            subplan = joinback_subplan(bench.database, bench.registry,
                                       rules, "caser", s_conjuncts, ec)
            return len(bench.database.execute(subplan))

        improved = rows_with(result.analysis.ec_conjuncts)
        plain = rows_with(None)
        assert improved < plain


class TestJoinPushdownHeuristic:
    def test_candidate_costs_are_ranked(self, benchmark, db10_reader_only):
        """The m+1/n+1 enumeration must cover push-none..push-all and the
        chosen candidate must be the cost minimum."""
        bench = db10_reader_only
        sql = bench.q2(0.40)
        # A fresh engine races every candidate; the shared one may
        # replay a remembered winner.
        engine = DeferredCleansingEngine(bench.database, bench.registry)

        def decide():
            return engine.rewrite(sql)

        result = once(benchmark, decide)
        joinback_labels = [c.label for c in result.candidates
                           if c.strategy == "joinback"]
        assert "joinback" in joinback_labels
        assert any("+1dims" in label for label in joinback_labels)
        best = min(result.candidates, key=lambda c: c.cost)
        assert result.chosen.label == best.label

    @pytest.mark.parametrize("label", ["joinback", "joinback+1dims"])
    def test_execute_candidates(self, benchmark, db10_reader_only, label):
        bench = db10_reader_only
        sql = bench.q2(0.40)
        engine = DeferredCleansingEngine(bench.database, bench.registry)
        result = engine.rewrite(sql, strategies={"joinback"})
        candidate = {c.label: c for c in result.candidates}[label]
        benchmark.group = "ablation-join-pushdown"
        once(benchmark, lambda: list(candidate.physical.rows()))


class TestWindowExecution:
    @pytest.mark.parametrize("naive", [False, True])
    def test_sliding_vs_naive(self, benchmark, db10_reader_only, naive):
        """Sliding-frame aggregation vs per-row frame rescan on a real
        cleansing workload (the reader rule's RANGE window)."""
        bench = db10_reader_only
        sql = bench.q1(0.20)
        result = bench.engine.rewrite(sql, strategies={"naive"})
        options = PlannerOptions(naive_windows=naive)
        benchmark.group = "ablation-window-exec"

        def run():
            plan = bench.database.plan(result.chosen.logical, options)
            return len(list(plan.rows()))

        assert once(benchmark, run) >= 0
