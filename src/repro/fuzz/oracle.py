"""The differential oracle: one case, every execution path, one diff.

The paper's correctness claims (Theorem behind Q_e, §5.3's join-back
argument, Definition 2's position preservation) all reduce to a single
testable property: every strategy answers exactly ``Q[C_1..C_n]``. The
oracle executes one :class:`~repro.fuzz.cases.FuzzCase` through each
path and diffs canonicalized row bags against the naive strategy
(cleanse everything, then query — the executable definition of
``Q[C_1..C_n]``):

========================  =============================================
``expanded``              Q_e when feasible (skipped when the Figure 4
                          analysis is infeasible, as the paper allows)
``joinback``              Q_j (always applicable)
``chosen``                the engine's cost-based pick
``cached-cold``           region cache enabled, first execution
                          (materializes the region)
``cached-warm``           second execution served from the region
``cached-invalidated``    third execution after a table-version bump
                          (must not serve the stale region)
``eager``                 materialize Φ_C(R) up front, query the copy
``plan-cache``            the eager query re-run through the prepared-
                          plan cache (hit must reproduce the miss)
``prepared``              the cleansed query run twice on one engine
                          over a prefix of the rows: the repeat must
                          replay the remembered rewrite decision (a
                          memo hit) and match naive; after an append
                          it must still match; after the rest is
                          appended and the last rule dropped and
                          redefined, the re-run must race again (a
                          memo miss)
``parallel``              naive re-run with shard-parallel execution
                          forced on (threshold lowered, 2 workers)
``vectorized``            naive re-run under batch execution with a
                          small odd batch size (stressing chunk
                          boundaries); metrics must show batches ran
``encoded``               naive re-run with encoded execution forced on
                          (``REPRO_ENCODE=1``) over batch size 7 —
                          dictionary/RLE kernels, code-range compares
                          and run-skipping filters must reproduce the
                          plain rows; in memory mode a non-empty scan
                          must report encoded columns in its metrics
``compiled``              naive re-run with query compilation forced on
                          (``REPRO_CODEGEN=1``) and batch size 7; when
                          the planner fused a spine, metrics must show
                          a compiled pipeline actually ran, and a plan
                          with a CASE action filter must fuse at least
                          one of them
``sharded``               naive re-run with the shard pool (2 workers)
                          *and* batch size 7 together; metrics must
                          show at least one Exchange dispatched
``incremental``           load a prefix, warm the region cache, then
                          interleave ``Database.append`` chunks with
                          queries: after every append the cached
                          engine (patching or invalidating as it sees
                          fit) must agree with a fresh naive run over
                          the same table state
``disk``                  naive re-run against ``storage=disk``: build
                          on disk, checkpoint, close, reopen with a
                          4-page buffer pool, zone-map pruning forced
                          on and a 2-page readahead window, then
                          query — every row is re-decoded from its
                          on-disk representation with the fast-path
                          machinery live; counters must prove pages
                          faulted through the pool
``served``                the cleansed query executed over the wire: a
                          loopback ``repro.server`` session declares
                          the case's rules in HELLO and runs the query
                          through the asyncio front end, the bounded
                          executor, and two JSON frame round trips —
                          framing, value encoding, and the serving
                          execution path must all preserve the answer
========================  =============================================

The baseline itself is computed with batch execution disabled
(``REPRO_BATCH_SIZE=0``), so every comparison is simultaneously a
strategy diff and a batch-vs-tuple-at-a-time executor diff.

Each label diffs as a bag (duplicates matter); any mismatch — or any
unexpected exception — becomes a :class:`Divergence`. Errors never
abort the sweep: one broken path still reports the others.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.errors import RewriteError
from repro.fuzz.cases import READS_COLUMNS, FuzzCase
from repro.minidb.codegen import CompiledSpineOp, forced_codegen
from repro.minidb.engine import Database
from repro.minidb.expressions import Case
from repro.minidb.schema import Column, TableSchema
from repro.minidb.plan.physical import FilterOp
from repro.minidb.plan.shard import ExchangeOp
from repro.minidb.types import SqlType
from repro.minidb.vector import forced_batch_size, forced_encoding
from repro.rewrite.cache import CacheOptions
from repro.rewrite.eager import materialize_cleansed
from repro.rewrite.engine import DeferredCleansingEngine
from repro.sqlts.registry import RuleRegistry

__all__ = ["ALL_LABELS", "Divergence", "OracleReport", "run_case",
           "build_database", "forced_parallel_windows"]

#: Every comparison the oracle can run, in execution order.
ALL_LABELS = ("expanded", "joinback", "chosen", "cached-cold",
              "cached-warm", "cached-invalidated", "eager", "plan-cache",
              "prepared", "parallel", "vectorized", "encoded", "compiled",
              "sharded", "incremental", "disk", "served")

_READS_SCHEMA = TableSchema.of(
    ("epc", SqlType.VARCHAR),
    ("rtime", SqlType.TIMESTAMP),
    ("reader", SqlType.VARCHAR),
    ("biz_loc", SqlType.VARCHAR),
    ("biz_step", SqlType.VARCHAR),
)


@dataclass
class Divergence:
    """One strategy disagreeing with the naive baseline."""

    label: str
    #: "rows" (bag mismatch) or "error" (unexpected exception).
    kind: str
    detail: str = ""
    missing: list[tuple] = field(default_factory=list)
    unexpected: list[tuple] = field(default_factory=list)

    def summary(self) -> str:
        if self.kind == "error":
            return f"{self.label}: raised {self.detail}"
        return (f"{self.label}: {len(self.missing)} missing, "
                f"{len(self.unexpected)} unexpected rows")


@dataclass
class OracleReport:
    """The outcome of one differential sweep."""

    case: FuzzCase
    baseline: tuple[tuple, ...] = ()
    #: label -> "ok" | "skipped: <why>" | "DIVERGED".
    results: dict[str, str] = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def diverged_labels(self) -> set[str]:
        return {divergence.label for divergence in self.divergences}

    def summary(self) -> str:
        if self.ok:
            return f"{self.case.describe()}: all strategies agree"
        parts = "; ".join(d.summary() for d in self.divergences)
        return f"{self.case.describe()}: DIVERGED — {parts}"


def build_database(case: FuzzCase,
                   reads_rows: Sequence[tuple] | None = None,
                   storage: str | None = None,
                   buffer_pages: int | None = None,
                   storage_path: str | None = None,
                   ) -> tuple[Database, RuleRegistry]:
    """A fresh database + registry holding exactly the case's data.

    *reads_rows* overrides the reads-table contents (the ``incremental``
    label loads a prefix and streams the rest in via appends).
    *storage*/*buffer_pages*/*storage_path* select the storage backend
    (the ``disk`` label pins ``storage="disk"`` with a tiny pool;
    everything else follows the ambient ``REPRO_STORAGE`` default).
    """
    db = Database(storage=storage, buffer_pages=buffer_pages,
                  storage_path=storage_path)
    db.create_table("caser", _READS_SCHEMA)
    db.load("caser",
            case.reads_rows if reads_rows is None else reads_rows)
    for column in ("epc", "rtime", "biz_loc", "biz_step"):
        db.create_index("caser", column)
    seen: set[str] = set()
    for dimension in case.query.dimensions:
        if dimension.name in seen:
            continue
        seen.add(dimension.name)
        schema = TableSchema(Column(name, SqlType(type_value))
                             for name, type_value in dimension.schema)
        db.create_table(dimension.name, schema)
        db.load(dimension.name, dimension.rows)
        db.create_index(dimension.name, dimension.dim_key)
    registry = RuleRegistry(db)
    for text in case.rules:
        registry.define(text)
    return db, registry


@contextlib.contextmanager
def forced_parallel_windows(workers: int = 2,
                            threshold: int = 1) -> Iterator[None]:
    """Force shard-parallel execution on for a block.

    Fuzz datasets sit far below ``SHARD_ROW_THRESHOLD``, so the
    threshold is lowered and the worker count pinned via
    ``REPRO_WORKERS`` for the duration; both are restored afterwards.
    (The name predates the shard executor, when only windows went
    parallel; it is kept because regression files import it.)
    """
    from repro.minidb.plan import shard

    saved_threshold = shard.SHARD_ROW_THRESHOLD
    saved_env = os.environ.get("REPRO_WORKERS")
    shard.SHARD_ROW_THRESHOLD = threshold
    os.environ["REPRO_WORKERS"] = str(workers)
    try:
        yield
    finally:
        shard.SHARD_ROW_THRESHOLD = saved_threshold
        if saved_env is None:
            os.environ.pop("REPRO_WORKERS", None)
        else:
            os.environ["REPRO_WORKERS"] = saved_env


def _diff(baseline: Sequence[tuple],
          got: Sequence[tuple]) -> tuple[list[tuple], list[tuple]]:
    """Bag difference: (rows only in baseline, rows only in got)."""
    expected, actual = Counter(baseline), Counter(got)
    missing = sorted((expected - actual).elements(), key=repr)
    unexpected = sorted((actual - expected).elements(), key=repr)
    return missing, unexpected


def run_case(case: FuzzCase,
             labels: Sequence[str] | None = None) -> OracleReport:
    """Differentially execute *case*; *labels* restricts the sweep
    (the shrinker re-checks only the originally diverged paths)."""
    wanted = set(ALL_LABELS if labels is None else labels)
    report = OracleReport(case=case)
    sql = case.query.sql("caser")

    db, registry = build_database(case)
    engine = DeferredCleansingEngine(db, registry)
    # Genuine tuple-at-a-time interpreted reference: batch execution and
    # query compilation both pinned off, whatever the ambient env says.
    with forced_codegen(False), forced_batch_size(0):
        report.baseline = engine.execute(
            sql, strategies={"naive"}).canonical()

    def compare(label: str, execute: Callable[[], tuple[tuple, ...]],
                ) -> None:
        if label not in wanted:
            return
        try:
            got = execute()
        except RewriteError as error:
            # Infeasibility is a legitimate outcome (Q_e = null), not a
            # divergence; the strategy simply has nothing to check.
            report.results[label] = f"skipped: {error}"
            return
        except Exception as error:  # noqa: BLE001 — the whole point
            report.results[label] = "DIVERGED"
            report.divergences.append(Divergence(
                label=label, kind="error",
                detail=f"{type(error).__name__}: {error}"))
            return
        if got == report.baseline:
            report.results[label] = "ok"
            return
        missing, unexpected = _diff(report.baseline, got)
        report.results[label] = "DIVERGED"
        report.divergences.append(Divergence(
            label=label, kind="rows", missing=missing,
            unexpected=unexpected))

    compare("expanded", lambda: engine.execute(
        sql, strategies={"expanded"}).canonical())
    compare("joinback", lambda: engine.execute(
        sql, strategies={"joinback"}).canonical())
    compare("chosen", lambda: engine.execute(sql).canonical())

    if wanted & {"cached-cold", "cached-warm", "cached-invalidated"}:
        cached_db, cached_registry = build_database(case)
        cached_engine = DeferredCleansingEngine(
            cached_db, cached_registry, cache=CacheOptions())
        compare("cached-cold", lambda: cached_engine.execute(
            sql).canonical())
        compare("cached-warm", lambda: cached_engine.execute(
            sql).canonical())

        if "cached-invalidated" in wanted and case.reads_rows:
            # Race the warm path against a table-version bump: mutate
            # the source table after the region was cached, then query
            # again. The stale region must be dropped, so the cached
            # engine must agree with a fresh naive run over the *new*
            # table state (not the original baseline).
            try:
                probe = dict(zip(READS_COLUMNS, case.reads_rows[0]))
                probe["rtime"] = probe["rtime"] + 1
                cached_db.table("caser").insert(probe)
                cached_db.analyze("caser")
                fresh = DeferredCleansingEngine(cached_db, cached_registry)
                expected = fresh.execute(
                    sql, strategies={"naive"}).canonical()
                got = cached_engine.execute(sql).canonical()
            except Exception as error:  # noqa: BLE001
                report.results["cached-invalidated"] = "DIVERGED"
                report.divergences.append(Divergence(
                    label="cached-invalidated", kind="error",
                    detail=f"{type(error).__name__}: {error}"))
            else:
                if got == expected:
                    report.results["cached-invalidated"] = "ok"
                else:
                    missing, unexpected = _diff(expected, got)
                    report.results["cached-invalidated"] = "DIVERGED"
                    report.divergences.append(Divergence(
                        label="cached-invalidated", kind="rows",
                        missing=missing, unexpected=unexpected))

    if wanted & {"eager", "plan-cache"}:
        eager_db, eager_registry = build_database(case)
        eager_sql = case.query.sql("caser_clean")

        def eager() -> tuple[tuple, ...]:
            materialize_cleansed(eager_db, eager_registry, "caser",
                                 "caser_clean")
            return eager_db.execute(eager_sql).canonical()

        compare("eager", eager)

        def plan_cache_hit() -> tuple[tuple, ...]:
            if "caser_clean" not in eager_db.catalog:
                raise RewriteError("eager path skipped; nothing to re-run")
            result, metrics = eager_db.execute_with_metrics(eager_sql)
            if metrics.plan_cache_hits == 0:
                raise AssertionError(
                    "prepared-plan cache did not serve the repeated query")
            return result.canonical()

        compare("plan-cache", plan_cache_hit)

    def prepared() -> tuple[tuple, ...]:
        # Rewrite-decision replay: the remembered winner must stay a
        # correct rewrite as rows arrive, and a rule-set change must
        # force a fresh race. Mid-stream answers are diffed against a
        # naive run over the same table state (as in ``incremental``);
        # the final state holds exactly the case's rows, so compare()
        # also diffs the last answer against the global baseline.
        rows = list(case.reads_rows)
        if not rows:
            raise RewriteError("empty dataset; nothing to stream")
        split = max(1, (2 * len(rows)) // 3)
        prep_db, prep_registry = build_database(case,
                                                reads_rows=rows[:split])
        prep_engine = DeferredCleansingEngine(prep_db, prep_registry)

        def run(expect: str | None) -> tuple[tuple, ...]:
            result, metrics, _ = prep_engine.execute_with_metrics(sql)
            outcome = {(1, 0): "hit", (0, 1): "miss"}.get(
                (metrics.plan_cache_hits, metrics.plan_cache_misses))
            if outcome is None:
                raise RewriteError("query bypasses the decision memo")
            if expect is not None and outcome != expect:
                raise AssertionError(
                    f"rewrite decision memo {outcome}, expected {expect}")
            return result.canonical()

        def check(got: tuple[tuple, ...], stage: str) -> None:
            fresh = DeferredCleansingEngine(prep_db, prep_registry)
            expected = fresh.execute(sql, strategies={"naive"}).canonical()
            if got != expected:
                missing, unexpected = _diff(expected, got)
                raise AssertionError(
                    f"prepared answer diverged {stage}: {len(missing)} "
                    f"missing, {len(unexpected)} unexpected rows vs "
                    "naive over the same state")

        run("miss")
        check(run("hit"), "on the replayed decision")
        remainder = rows[split:]
        mid = (len(remainder) + 1) // 2
        if remainder[:mid]:
            prep_db.append("caser", remainder[:mid])
            check(run(None), "after an append")
        if remainder[mid:]:
            prep_db.append("caser", remainder[mid:])
        last = prep_registry.rules_for("caser")[-1]
        prep_registry.drop(last.name)
        prep_registry.define(last.rule)
        return run("miss")

    compare("prepared", prepared)

    def parallel() -> tuple[tuple, ...]:
        parallel_db, parallel_registry = build_database(case)
        parallel_engine = DeferredCleansingEngine(parallel_db,
                                                  parallel_registry)
        try:
            with forced_parallel_windows():
                return parallel_engine.execute(
                    sql, strategies={"naive"}).canonical()
        finally:
            parallel_db.close()

    compare("parallel", parallel)

    def vectorized() -> tuple[tuple, ...]:
        vector_db, vector_registry = build_database(case)
        vector_engine = DeferredCleansingEngine(vector_db, vector_registry)
        # Batch size 7: small and odd, so chunk boundaries land mid-way
        # through partitions, join probes, and selection vectors.
        with forced_batch_size(7):
            result, metrics, _ = vector_engine.execute_with_metrics(
                sql, strategies={"naive"})
        # An empty result can ride an empty index range that emits no
        # batches at all; only a non-empty result proves batches flowed.
        if result.rows and metrics.batches == 0:
            raise AssertionError(
                "vectorized strategy executed zero batches — the batch "
                "path did not run")
        return result.canonical()

    compare("vectorized", vectorized)

    def encoded() -> tuple[tuple, ...]:
        from repro.minidb.plan.physical import SeqScan

        enc_db, enc_registry = build_database(case)
        enc_engine = DeferredCleansingEngine(enc_db, enc_registry)
        # Encoded columnar execution over batch size 7: dictionary code
        # mapping, code-range compares, RLE run-skipping and encoded
        # join probes must agree with the plain interpreted baseline.
        with forced_encoding(True), forced_batch_size(7):
            result, metrics, choice = enc_engine.execute_with_metrics(
                sql, strategies={"naive"})
        # Metrics must prove encoded columns actually flowed — but only
        # when a SeqScan ran over the in-memory columnar cache (the
        # disk label's zone-pruned scan path bypasses it, and an empty
        # result can ride an index range that never scans).
        scanned = any(isinstance(node, SeqScan)
                      for node in choice.chosen.physical.walk())
        if (enc_db.storage is None and scanned and result.rows
                and metrics.encoded_columns == 0):
            raise AssertionError(
                "encoded strategy reported zero encoded columns — the "
                "encoded execution path did not run")
        return result.canonical()

    compare("encoded", encoded)

    def compiled() -> tuple[tuple, ...]:
        codegen_db, codegen_registry = build_database(case)
        codegen_engine = DeferredCleansingEngine(codegen_db,
                                                 codegen_registry)
        # Compiled kernels over batch size 7: fused spines must agree
        # with the interpreted baseline at awkward chunk boundaries.
        with forced_codegen(True), forced_batch_size(7):
            result, metrics, choice = codegen_engine.execute_with_metrics(
                sql, strategies={"naive"})
        # Not every plan fuses (uncovered operators fall back to the
        # interpreter) — but when the planner DID wrap a spine, metrics
        # reporting zero fused pipelines would mean the label silently
        # re-tested the interpreted path.
        planned = any(isinstance(node, CompiledSpineOp)
                      for node in choice.chosen.physical.walk())
        if planned and metrics.fused_pipelines == 0:
            raise AssertionError(
                "compiled strategy planned a fused spine but metrics "
                "recorded zero fused pipelines")
        # The Φ_C action filters (CASE WHEN c THEN FALSE ELSE TRUE END)
        # have emit forms, so the label must run them compiled.
        nodes = list(choice.chosen.physical.walk())
        fused = {id(op) for node in nodes
                 if isinstance(node, CompiledSpineOp) for op in node.fused}
        case_filters = [node for node in nodes
                        if isinstance(node, FilterOp)
                        and any(isinstance(expr, Case)
                                for expr in node.predicate.walk())]
        if case_filters and not any(id(node) in fused
                                    for node in case_filters):
            raise AssertionError(
                "compiled strategy left every CASE action filter "
                "interpreted")
        return result.canonical()

    compare("compiled", compiled)

    def sharded() -> tuple[tuple, ...]:
        shard_db, shard_registry = build_database(case)
        shard_engine = DeferredCleansingEngine(shard_db, shard_registry)
        # Shard pool and batch path together: 2 workers over key-mode
        # morsels, with batch size 7 forcing awkward chunk boundaries
        # inside each worker as well.
        try:
            with forced_parallel_windows(workers=2, threshold=1), \
                    forced_batch_size(7):
                result, metrics, choice = shard_engine.execute_with_metrics(
                    sql, strategies={"naive"})
        finally:
            shard_db.close()
        # Not every plan can shard (an equality conjunct may become an
        # IndexRangeScan, which has no SeqScan spine) — but when the
        # planner DID wrap a segment, a silent serial fallback here
        # would mean the label never exercises the pool.
        planned = any(isinstance(node, ExchangeOp)
                      for node in choice.chosen.physical.walk())
        if planned and metrics.sharded_segments == 0:
            raise AssertionError(
                "sharded strategy dispatched zero Exchange segments — "
                "the shard pool did not run")
        return result.canonical()

    compare("sharded", sharded)

    def incremental() -> tuple[tuple, ...]:
        # Streaming replay: load a prefix, warm the region cache, then
        # feed the remaining rows through Database.append in two chunks,
        # re-querying after each. The cached engine is free to patch or
        # invalidate; either way every intermediate answer must match a
        # fresh naive run over the SAME table state (same object — the
        # appended rows sit at the end, so a rebuilt full-load database
        # would not be tie-order comparable). The final state holds
        # exactly the case's rows, so the last answer is also diffed
        # against the global baseline by compare().
        rows = list(case.reads_rows)
        if not rows:
            raise RewriteError("empty dataset; nothing to stream")
        split = max(1, (2 * len(rows)) // 3)
        inc_db, inc_registry = build_database(case,
                                              reads_rows=rows[:split])
        inc_engine = DeferredCleansingEngine(inc_db, inc_registry,
                                             cache=CacheOptions())
        fresh = DeferredCleansingEngine(inc_db, inc_registry)
        got = inc_engine.execute(sql).canonical()
        remainder = rows[split:]
        mid = (len(remainder) + 1) // 2
        for chunk in (remainder[:mid], remainder[mid:]):
            if not chunk:
                continue
            inc_db.append("caser", chunk)
            got = inc_engine.execute(sql).canonical()
            expected = fresh.execute(sql, strategies={"naive"}).canonical()
            if got != expected:
                missing, unexpected = _diff(expected, got)
                raise AssertionError(
                    "incremental answer diverged mid-stream: "
                    f"{len(missing)} missing, {len(unexpected)} "
                    "unexpected rows vs naive over the same state")
        return got

    compare("incremental", incremental)

    def disk() -> tuple[tuple, ...]:
        # Out-of-core replay: build the database on disk, checkpoint
        # and close it, then reopen with a 4-page buffer pool — the
        # query faults every page back in and re-decodes each row from
        # its on-disk representation (nothing can be served from
        # build-time cache frames). The reopened database runs with the
        # fast disk path forced live: zone-map pruning on (any page the
        # zone maps skip must not change the answer) and a 2-page
        # readahead window (prefetched bytes must decode identically to
        # demand reads). Must be byte-identical to the in-memory
        # baseline.
        tmp = tempfile.mkdtemp(prefix="repro-fuzz-disk-")
        saved_prune = os.environ.get("REPRO_ZONE_PRUNE")
        os.environ["REPRO_ZONE_PRUNE"] = "1"
        try:
            build_db, _ = build_database(case, storage="disk",
                                         buffer_pages=4,
                                         storage_path=tmp)
            build_db.shutdown()  # checkpoint: pages + manifest durable
            disk_db = Database(storage="disk", storage_path=tmp,
                               buffer_pages=4, readahead=2)
            try:
                disk_registry = RuleRegistry(disk_db)
                for text in case.rules:
                    disk_registry.define(text)
                disk_engine = DeferredCleansingEngine(disk_db,
                                                      disk_registry)
                with forced_codegen(False), forced_batch_size(0):
                    result = disk_engine.execute(
                        sql, strategies={"naive"}).canonical()
                counters = disk_db.storage.counters
            finally:
                disk_db.shutdown()
        finally:
            if saved_prune is None:
                os.environ.pop("REPRO_ZONE_PRUNE", None)
            else:
                os.environ["REPRO_ZONE_PRUNE"] = saved_prune
            shutil.rmtree(tmp, ignore_errors=True)
        if case.reads_rows and counters["pages_read"] == 0:
            raise AssertionError(
                "disk strategy never faulted a page through the buffer "
                "pool — the storage path did not run")
        return result

    compare("disk", disk)

    def served() -> tuple[tuple, ...]:
        # Wire replay: host the case's database behind a loopback
        # server, declare the cleansing rules in HELLO, and run the
        # cleansed query through the full serving stack — frame
        # encode/decode both ways, the session worker, admission
        # control, and the executor's exclusive cleansed path. The
        # rows crossing the wire as JSON must restore byte-identically.
        from repro.server import ServerClient, serve_loopback

        serve_db, _ = build_database(case)
        try:
            with serve_loopback(serve_db) as handle, \
                    ServerClient(*handle.address) as client:
                client.hello(rules=list(case.rules))
                return client.query(sql, cleansed=True).canonical()
        finally:
            serve_db.shutdown()

    compare("served", served)
    return report
