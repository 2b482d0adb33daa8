"""The workloads of the benchmark: ``selective-zipf`` and
``durable-ingest`` are on the record (listed in ``BENCHMARK.json``),
``fig-grid`` is runnable but off the record (see ``README.md``).

Each workload class sets up the system several times (the median is
``setup_s``), runs its timed loop, and then checks every answer outside
the timed region. The databases are RFIDGen's at the seed of record,
:data:`DATA_SEED`, whatever ``--seed`` says: RFIDGen draws 20-80 cases
per pallet, so at scale 12 other seeds give 18.0k-22.4k case reads, and
that alone moved fig-grid latencies by a third. ``--seed`` seeds every
choice the load generator makes: cut offsets, the Zipf pool and its
draws, query windows.

* :class:`FigGrid` -- the paper's §6 figure points, one closed-loop
  client in-process on memory storage.
* :class:`SelectiveZipf` -- Zipf(1) requests over a pool of selective
  queries; the engine picks the strategy.
* :class:`DurableIngest` -- open-loop appends beside closed-loop cleansed
  queries, served over the wire (``serve_in_thread``) on disk storage.
"""

from __future__ import annotations

import bisect
import collections
import contextlib
import dataclasses
import gc
import math
import os
import random
import resource
import shutil
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.datagen import GeneratorConfig
from repro.datagen.generator import GeneratedData, RFIDGen
from repro.datagen.loader import load_into_database
from repro.minidb.engine import Database
from repro.minidb.sqlparse import parse_select
from repro.minidb.types import DAY
from repro.minidb.vector import forced_batch_size, forced_encoding
from repro.rewrite.engine import DeferredCleansingEngine
from repro.server import ServerClient, ServerError, serve_in_thread
from repro.workloads import (
    STANDARD_RULE_ORDER,
    Workbench,
    make_registry,
    q2_prime_sql,
    q2_sql,
    rule_texts,
    timestamp_for_fraction_above,
)

from spans import Tracer

#: RFIDGen seed of every database (the paper's default, whose db-10
#: shows the standing join-back divergence).
DATA_SEED = 20060912
#: Every run times at least this many queries, so at least ten samples
#: lie beyond ``query_p90_ms``.
MIN_QUERIES = 100
#: Set-up is repeated this many times per run (unless a workload says
#: otherwise); ``setup_s`` is the median.
SETUP_ROUNDS = 3
THREE_RULES = ("reader", "duplicate", "replacing")
_STRATEGY = {"q_e": "expanded", "q_j": "joinback", "q_n": "naive"}
#: Wrong answers the program is known to give and which stay standing:
#: join-back (q_j) drops rows that the naive rewrite keeps once the
#: ``missing`` rule is active. They are counted as failed operations but
#: do not make a run incorrect; any other mismatch does.
KNOWN_DIVERGENCES = (
    {"variant": "q_j", "rule": "missing",
     "what": "join-back drops rows naive keeps under the missing rule"},
)


def canonical(rows) -> list[str]:
    """Order-free, exact form of a result for comparison."""
    return sorted(map(repr, rows))


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of *values* (non-empty)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


@contextlib.contextmanager
def scalar_reference() -> Iterator[None]:
    """The scalar reference executor: tuple-at-a-time, plain columns."""
    with forced_batch_size(0), forced_encoding(False):
        yield


def dirty_scan(database: Database) -> None:
    """Warm-up: one dirty scan per table, which fills lazy caches."""
    for name in database.catalog.table_names():
        database.execute(f"select * from {name}")


def busiest_dc(data: GeneratedData, lo: int) -> str:
    """The distribution centre with the most case reads at rtime >= lo."""
    site_of = {gln: site for gln, site, _ in data.location_rows
               if site.startswith("distribution center")}
    counts = collections.Counter(
        site_of[row[3]] for row in data.case_reads
        if row[3] in site_of and row[1] >= lo)
    if not counts:
        return sorted(set(site_of.values()))[-1]
    return min(counts, key=lambda site: (-counts[site], site))


def q2_for(bench: Workbench, selectivity: float) -> tuple[str, str]:
    """q2 at *selectivity* on the distribution centre with the most case
    reads inside its window (the default site can have none there)."""
    cut = timestamp_for_fraction_above(bench.case_rtimes(), selectivity)
    site = busiest_dc(bench.data, cut)
    return bench.q2(selectivity, site=site), site


class CleansedReference:
    """Answers ``Q(Phi_C(R))`` with the scalar reference executor.

    ``Phi_C(caser)`` is materialized once by the naive rewrite of
    ``select * from caser`` under the scalar executor, loaded into its
    own database beside the other tables, and every query then runs
    there, again on the scalar executor. *source* is a database already
    holding *data* to cleanse from (one is loaded when omitted).
    """

    def __init__(self, data: GeneratedData, rule_names: tuple[str, ...],
                 source: Database | None = None) -> None:
        self.data = data
        self.rule_names = rule_names
        self._source = source
        self._database: Database | None = None
        self._answers: dict[str, list[str]] = {}

    def answer(self, sql: str) -> list[str]:
        cached = self._answers.get(sql)
        if cached is not None:
            return cached
        with scalar_reference():
            if self._database is None:
                base = self._source or load_into_database(self.data)
                engine = DeferredCleansingEngine(
                    base, make_registry(None, self.data, self.rule_names))
                cleansed = engine.execute(
                    "select epc, rtime, reader, biz_loc, biz_step "
                    "from caser", {"naive"}).rows
                self._database = load_into_database(
                    dataclasses.replace(self.data, case_reads=cleansed))
            answer = canonical(
                self._database.execute(parse_select(sql)).rows)
        self._answers[sql] = answer
        return answer


def dirty_reference(database: Database, sql: str) -> list[str]:
    """*sql* on the raw table under the scalar reference executor (a
    parsed statement bypasses the prepared-plan cache)."""
    with scalar_reference():
        return canonical(database.execute(parse_select(sql)).rows)


@dataclasses.dataclass
class Sample:
    latency: float
    traced: bool
    #: What was asked (grid point and variant, pool text, query name), so
    #: traced and untraced requests can be compared like for like.
    key: str = ""


class Workload:
    """Shared run state: samples, failures, set-up rounds and tracing."""

    name = ""
    setup_rounds_wanted = SETUP_ROUNDS

    def __init__(self, seed: int, seconds: float, scale: int,
                 tracer: Tracer | None, work_dir: Path,
                 perturb_reference: bool = False) -> None:
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.tracer = tracer
        self.work_dir = work_dir
        self.perturb_reference = perturb_reference
        self.rng = random.Random(seed)
        self.queries: list[Sample] = []
        self.appends: list[Sample] = []
        self.attempted = 0
        self.failures: list[dict[str, Any]] = []
        self.setup_rounds: list[dict[str, float]] = []
        self.timed_seconds = 0.0
        self.peak_rss_mb = 0.0
        self.info: dict[str, Any] = {}

    # -- helpers ----------------------------------------------------------

    def config(self, anomaly_percent: float) -> GeneratorConfig:
        return GeneratorConfig(scale=self.scale, seed=DATA_SEED,
                               anomaly_percent=anomaly_percent)

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time one set-up phase into the current round (and trace it)."""
        span = (self.tracer.span(f"setup.{name}")
                if self.tracer is not None
                else contextlib.nullcontext())
        start = time.perf_counter()
        with span:
            yield
        round_ = self.setup_rounds[-1]
        round_[name] = round_.get(name, 0.0) + time.perf_counter() - start

    def setup_all(self) -> None:
        for index in range(self.setup_rounds_wanted):
            if index:
                self.teardown()
                gc.collect()
            self.setup_rounds.append({})
            root = (self.tracer.span("setup", root=True)
                    if self.tracer is not None else contextlib.nullcontext())
            start = time.perf_counter()
            with root:
                self.setup()
            self.setup_rounds[-1]["total"] = time.perf_counter() - start
        gc.collect()

    def traced(self, index: int) -> bool:
        """The traced run alternates traced and untraced requests."""
        return self.tracer is not None and index % 2 == 1

    def request(self, index: int, key: str, call: Callable[[], Any],
                **attrs: Any) -> Any:
        """Run one in-process query, timing it; None if it raised."""
        traced = self.traced(index)
        span = (self.tracer.span("request", root=True, **attrs) if traced
                else contextlib.nullcontext())
        self.attempted += 1
        start = time.perf_counter()
        try:
            with span:
                result = call()
        except Exception as error:  # noqa: BLE001 — counted, run goes on
            self.fail("exception", f"{type(error).__name__}: {error}",
                      **attrs)
            return None
        self.queries.append(Sample(time.perf_counter() - start, traced, key))
        return result

    def fail(self, kind: str, detail: str, known: bool = False,
             **context: Any) -> None:
        self.failures.append({"kind": kind, "detail": detail[:300],
                              "known": known, **context})

    def check(self, got: list[str], want: list[str], known: bool = False,
              **context: Any) -> None:
        """Compare a result with its reference; a mismatch is a failure."""
        if self.perturb_reference and not self.info.get("perturbed"):
            want = want + ["'perturbed reference row'"]
            self.info["perturbed"] = True
        if got != want:
            missing = sorted(set(want) - set(got))[:3]
            extra = sorted(set(got) - set(want))[:3]
            self.fail("wrong_answer",
                      f"{len(got)} rows vs {len(want)} in the reference; "
                      f"missing {missing}, extra {extra}", known=known,
                      **context)

    def mark_peak_rss(self) -> None:
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- subclass contract ------------------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built (before the next round)."""

    def run(self) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        raise NotImplementedError

    def storage_layer(self, spans: list) -> dict[str, float]:
        """Storage and server metrics of the timed loop (*spans*: the
        traced run's spans outside set-up)."""
        return {}

    def execute(self) -> None:
        try:
            self.setup_all()
            self.run()
            self.mark_peak_rss()
            self.verify()
        finally:
            self.teardown()


# ----------------------------------------------------------------------
# fig-grid
# ----------------------------------------------------------------------

#: (database, rule set, selectivities, variants) per block of §6.
FIG_BLOCKS = (
    ("db-10", ("reader",), (0.40,), ("q", "q_e", "q_j", "q_n")),
    ("db-10", STANDARD_RULE_ORDER, (0.10, 0.40), ("q_j", "q_n")),
    ("db-40", THREE_RULES, (0.10,), ("q_e", "q_j", "q_n")),
)
FIG_QUERIES = ("q1", "q2", "q2_prime")
#: Each pass shifts every selectivity by up to this much (one point).
CUT_JITTER = 0.01


class FigGrid(Workload):
    """Fig 7/8 (db-10, reader rule), Fig 9a/b (db-10, five rules) and
    Fig 9c/d (db-40, three rules), every variant on every point."""

    name = "fig-grid"

    def setup(self) -> None:
        self.data: dict[str, GeneratedData] = {}
        self.databases: dict[str, Database] = {}
        for label, anomaly in (("db-10", 10.0), ("db-40", 40.0)):
            with self.phase("generate"):
                self.data[label] = RFIDGen(self.config(anomaly)).generate()
            with self.phase("load"):
                self.databases[label] = load_into_database(self.data[label])
        self.benches: dict[tuple, Workbench] = {}
        with self.phase("rules"):
            for label, rules, _, _ in FIG_BLOCKS:
                data = self.data[label]
                registry = make_registry(None, data, rules)
                self.benches[label, rules] = Workbench(
                    data.config, data, self.databases[label], registry,
                    DeferredCleansingEngine(self.databases[label], registry))
        with self.phase("warmup"):
            for database in self.databases.values():
                dirty_scan(database)

    def teardown(self) -> None:
        self.benches = {}
        self.databases = {}

    def pass_points(self, used: set[str]) -> list[list[dict[str, Any]]]:
        """One pass over the grid, every cut shifted by a fresh offset:
        per point, one request per variant."""
        points = []
        for label, rules, selectivities, variants in FIG_BLOCKS:
            bench = self.benches[label, rules]
            for selectivity in selectivities:
                for query in FIG_QUERIES:
                    while True:
                        shifted = selectivity + self.rng.uniform(
                            -CUT_JITTER, CUT_JITTER)
                        site = None
                        if query == "q2":
                            sql, site = q2_for(bench, shifted)
                        else:
                            sql = getattr(bench, query)(shifted)
                        key = f"{label}|{rules}|{sql}"
                        if key not in used:
                            used.add(key)
                            break
                    point = f"{label}/{len(rules)}r/{query}@{selectivity:.0%}"
                    points.append([{
                        "bench": bench, "label": label, "rules": rules,
                        "point": point, "query": query, "sql": sql,
                        "variant": variant, "site": site}
                        for variant in variants])
        return points

    def _request(self, index: int, request: dict[str, Any], pass_no: int,
                 latencies: dict[str, list[float]]) -> None:
        bench, variant, sql = (request["bench"], request["variant"],
                               request["sql"])
        if variant == "q":
            def call():
                return bench.database.execute(sql)
        else:
            def call():
                return bench.engine.execute(sql, {_STRATEGY[variant]})
        result = self.request(index, f"{request['point']} {variant}", call,
                              point=request["point"], variant=variant)
        if result is not None:
            self.results.append((request, pass_no, canonical(result.rows)))
            latencies.setdefault(f"{request['point']} {variant}", []).append(
                self.queries[-1].latency * 1000.0)

    def run(self) -> None:
        """Whole points, pass after pass, until the run has lasted
        ``seconds`` and sent ``MIN_QUERIES`` queries."""
        used: set[str] = set()
        self.results: list[tuple[dict[str, Any], int, list[str]]] = []
        latencies: dict[str, list[float]] = {}
        index = 0
        passes = 0
        done = False
        while not done:
            points = self.pass_points(used)
            gc.collect()
            start = time.perf_counter()
            for point in points:
                if (self.timed_seconds + time.perf_counter() - start
                        >= self.seconds and index >= MIN_QUERIES):
                    done = True
                    break
                for request in point:
                    self._request(index, request, passes, latencies)
                    index += 1
            self.timed_seconds += time.perf_counter() - start
            passes += 1
        self.info["passes"] = passes
        self.info["median_ms_by_point"] = {
            key: statistics.median(values)
            for key, values in latencies.items()}
        self.info["sites"] = sorted({
            f"{request['point']}: {request['site']}"
            for request, _, _ in self.results if request["site"]})

    def verify(self) -> None:
        references: dict[tuple, CleansedReference] = {}
        naive: dict[tuple, list[str]] = {}
        empty_q2 = set()
        for request, pass_no, rows in self.results:
            if request["variant"] == "q_n":
                naive[pass_no, request["label"], request["rules"],
                      request["sql"]] = rows
        for request, pass_no, rows in self.results:
            label, rules, sql = (request["label"], request["rules"],
                                 request["sql"])
            variant = request["variant"]
            context = {"point": request["point"], "variant": variant,
                       "pass": pass_no}
            if variant == "q":
                self.check(rows, dirty_reference(
                    self.benches[label, rules].database, sql), **context)
            elif variant == "q_n":
                reference = references.get((label, rules))
                if reference is None:
                    reference = references[label, rules] = \
                        CleansedReference(self.data[label], rules,
                                          self.databases[label])
                self.check(rows, reference.answer(sql), **context)
                if request["query"] == "q2" and not rows:
                    empty_q2.add(request["point"])
            else:
                want = naive.get((pass_no, label, rules, sql))
                if want is None:
                    self.fail("unchecked", "no q_n answer in this pass",
                              **context)
                    continue
                known = any(variant == entry["variant"]
                            and entry["rule"] in rules
                            for entry in KNOWN_DIVERGENCES)
                self.check(rows, want, known=known, **context)
        self.info["q2_empty_points"] = sorted(empty_q2)


# ----------------------------------------------------------------------
# selective-zipf
# ----------------------------------------------------------------------

ZIPF_POOL = 128
ZIPF_SELECTIVITY = (0.002, 0.02)
#: Fractional part of the golden ratio: rank r's selectivity sits at
#: frac(r * GOLDEN) of the range, and the request sequence walks the
#: Zipf CDF in golden-ratio steps, so every seed gives the popular ranks
#: the same kind of query and every rank its expected share of requests.
GOLDEN = 0.6180339887498949


class SelectiveZipf(Workload):
    """Engine-chosen strategies on selective queries with repeats."""

    name = "selective-zipf"
    #: A set-up takes well under a second here, shorter than the host's
    #: speed swings, so more rounds are needed for a steady median.
    setup_rounds_wanted = 7

    def setup(self) -> None:
        with self.phase("generate"):
            self.data = RFIDGen(self.config(10.0)).generate()
        with self.phase("load"):
            self.database = load_into_database(self.data)
        with self.phase("rules"):
            registry = make_registry(None, self.data, THREE_RULES)
            self.engine = DeferredCleansingEngine(self.database, registry)
        with self.phase("warmup"):
            dirty_scan(self.database)

    def teardown(self) -> None:
        self.database = self.engine = None

    def make_pool(self) -> list[tuple[str, str]]:
        """Rank r: q1, q2, q2' in turn; ranks 2, 6, 10, ... dirty ``q``
        (a quarter of the pool, a quarter of the requests, which puts the
        median inside the cleansed-q1 cluster, not at its edge);
        selectivity at frac(r * GOLDEN) of the range plus a seeded jitter
        of under one rank's spacing."""
        bench = Workbench(self.data.config, self.data, self.database,
                          self.engine.registry, self.engine)
        low, high = ZIPF_SELECTIVITY
        pool: list[tuple[str, str]] = []
        for rank in range(ZIPF_POOL):
            query = ("q1", "q2", "q2_prime")[rank % 3]
            kind = "dirty" if rank % 4 == 1 else "cleansed"
            position = (rank * GOLDEN + self.rng.random() / ZIPF_POOL) % 1.0
            selectivity = low + (high - low) * position
            if query == "q2":
                sql, _ = q2_for(bench, selectivity)
            else:
                sql = getattr(bench, query)(selectivity)
            pool.append((kind, sql))
        return pool

    def requests(self, pool: list[tuple[str, str]]) -> Iterator[tuple[str, str]]:
        """Endless Zipf(1) draws over *pool* (rank 1 = pool[0])."""
        cumulative, total = [], 0.0
        for rank in range(1, len(pool) + 1):
            total += 1.0 / rank
            cumulative.append(total)
        point = self.rng.random()
        while True:
            point = (point + GOLDEN) % 1.0
            yield pool[min(len(pool) - 1,
                           bisect.bisect(cumulative, point * total))]

    def run(self) -> None:
        pool = self.make_pool()
        draws = self.requests(pool)
        self.results: list[tuple[str, str, list[str]]] = []
        gc.collect()
        start = time.perf_counter()
        index = 0
        while time.perf_counter() - start < self.seconds \
                or index < MIN_QUERIES:
            kind, sql = next(draws)
            if kind == "dirty":
                def call(sql=sql):
                    return self.database.execute(sql)
            else:
                def call(sql=sql):
                    return self.engine.execute(sql)
            result = self.request(index, f"{kind} {sql}", call, request=kind)
            if result is not None:
                self.results.append((kind, sql, canonical(result.rows)))
            index += 1
        self.timed_seconds = time.perf_counter() - start
        self.info["pool"] = len(pool)
        self.info["distinct_requested"] = len(
            {(kind, sql) for kind, sql, _ in self.results})

    def verify(self) -> None:
        reference = CleansedReference(self.data, THREE_RULES, self.database)
        dirty: dict[str, list[str]] = {}
        for kind, sql, rows in self.results:
            if kind == "dirty":
                if sql not in dirty:
                    dirty[sql] = dirty_reference(self.database, sql)
                self.check(rows, dirty[sql], request=kind)
            else:
                self.check(rows, reference.answer(sql), request=kind)


# ----------------------------------------------------------------------
# durable-ingest
# ----------------------------------------------------------------------

#: Share of db-10's case reads (the oldest, by rtime) loaded at set-up.
BASE_SHARE = 0.70
#: Open-loop append schedule: batches per second and reads per batch.
#: At scale 12 the newest 30% (~6.6k reads) last about 47 s at this rate.
APPEND_RATE = 10.0
APPEND_BATCH = 14
#: Each query looks back a seeded number of days in this range from the
#: newest acknowledged read; the final check uses the middle value.
WINDOW_DAYS = (5, 9)
SHED_ATTEMPTS = 20


def durable_queries(site: str, newest: int,
                    days: int) -> list[tuple[str, str]]:
    lo = newest - days * DAY
    return [
        ("q2", q2_sql(lo, site)),
        ("q2_prime", q2_prime_sql(lo)),
        ("loc_count", f"select biz_loc, count(*) as reads from caser "
                      f"where rtime >= {lo} and rtime <= {newest} "
                      f"group by biz_loc"),
    ]


class DurableIngest(Workload):
    """Served appends (open loop) beside cleansed queries (closed loop)."""

    name = "durable-ingest"

    def setup(self) -> None:
        with self.phase("generate"):
            self.data = RFIDGen(self.config(10.0)).generate()
            reads = sorted(self.data.case_reads,
                           key=lambda row: (row[1], row[0]))
            cut = round(len(reads) * BASE_SHARE)
            self.base_reads, self.new_reads = reads[:cut], reads[cut:]
        self.db_path = self.work_dir / f"db-{os.getpid()}-{len(self.setup_rounds)}"
        shutil.rmtree(self.db_path, ignore_errors=True)
        with self.phase("load"):
            self.database = Database(storage="disk",
                                     storage_path=str(self.db_path))
            load_into_database(
                dataclasses.replace(self.data, case_reads=self.base_reads),
                self.database)
        with self.phase("warmup"):
            dirty_scan(self.database)
        with self.phase("server"):
            self.handle = serve_in_thread(self.database)
            self.query_client = ServerClient(*self.handle.address)
            self.append_client = ServerClient(*self.handle.address)
        texts = rule_texts(self.data)
        self.rule_texts = [text for name in THREE_RULES
                           for text in texts[name]]
        with self.phase("rules"):
            self.query_client.hello_with_retry(self.rule_texts)
            self.append_client.hello_with_retry()

    def teardown(self) -> None:
        for name in ("query_client", "append_client"):
            client = self.__dict__.pop(name, None)
            if client is not None:
                client.close()
        handle = self.__dict__.pop("handle", None)
        if handle is not None:
            handle.stop()
        database = self.__dict__.pop("database", None)
        if database is not None:
            database.shutdown()
            shutil.rmtree(self.db_path, ignore_errors=True)

    # -- timed loop -------------------------------------------------------

    def _appender(self, start: float, stop: threading.Event) -> None:
        batches = [self.new_reads[offset:offset + APPEND_BATCH]
                   for offset in range(0, len(self.new_reads),
                                       APPEND_BATCH)]
        for index, batch in enumerate(batches):
            due = start + index / APPEND_RATE
            delay = due - time.perf_counter()
            if delay > 0 and stop.wait(delay):
                return
            if stop.is_set():
                return
            self.lateness.append(time.perf_counter() - due)
            traced = self.traced(index)
            span = (self.tracer.span("client.append", root=True)
                    if traced else contextlib.nullcontext())
            self.append_attempted += 1
            try:
                with span as opened:
                    with (self.tracer.handoff("append", opened) if traced
                          else contextlib.nullcontext()):
                        self.append_client.append_with_retry(
                            "caser", batch, attempts=SHED_ATTEMPTS)
            except Exception as error:  # noqa: BLE001 — counted, loop goes on
                self.fail("append_error", f"{type(error).__name__}: {error}")
                continue
            self.appends.append(Sample(time.perf_counter() - due, traced))
            self.acked.extend(batch)
            self.newest = max(self.newest, batch[-1][1])

    def _query(self, index: int, sql: str, name: str) -> None:
        traced = self.traced(index)
        span = (self.tracer.span("client.query", root=True, query=name)
                if traced else contextlib.nullcontext())
        self.attempted += 1
        start = time.perf_counter()
        try:
            with span as opened:
                with (self.tracer.handoff("query", opened) if traced
                      else contextlib.nullcontext()):
                    self.query_client.query_with_retry(
                        sql, cleansed=True, attempts=SHED_ATTEMPTS)
        except Exception as error:  # noqa: BLE001 — counted, loop goes on
            self.fail("query_error", f"{type(error).__name__}: {error}",
                      query=name)
            return
        self.queries.append(Sample(time.perf_counter() - start, traced,
                                   name))

    def run(self) -> None:
        self.site = busiest_dc(self.data, self.new_reads[0][1])
        self.acked: list[tuple] = []
        self.lateness: list[float] = []
        self.append_attempted = 0
        self.newest = self.base_reads[-1][1]
        counters = self.database.storage.counters
        sheds = self.handle.server.shed_count
        stop = threading.Event()
        gc.collect()
        start = time.perf_counter()
        appender = threading.Thread(target=self._appender,
                                    args=(start, stop), name="appender")
        appender.start()
        try:
            index = 0
            while time.perf_counter() - start < self.seconds \
                    or index < MIN_QUERIES:
                name, sql = durable_queries(
                    self.site, self.newest,
                    self.rng.randint(*WINDOW_DAYS))[index % 3]
                self._query(index, sql, name)
                index += 1
            self.timed_seconds = time.perf_counter() - start
        finally:
            stop.set()
            appender.join()
        self.attempted += self.append_attempted
        after = self.database.storage.counters
        self.storage_delta = {name: after[name] - counters[name]
                              for name in after}
        self.sheds = self.handle.server.shed_count - sheds
        if len(self.acked) == len(self.new_reads):
            self.fail("input_exhausted",
                      "every new read was appended before the run ended")
        self.info.update(site=self.site, rate_per_s=APPEND_RATE,
                         batch_rows=APPEND_BATCH,
                         appended_rows=len(self.acked),
                         window_days=list(WINDOW_DAYS))

    def disk_bytes_per_row(self) -> float:
        size = sum(entry.stat().st_size for entry in os.scandir(self.db_path)
                   if entry.is_file())
        rows = sum(len(table) for table in self.database.catalog)
        return size / rows

    def verify(self) -> None:
        self.info["disk_bytes_per_row"] = self.disk_bytes_per_row()
        expected = self.base_reads + self.acked
        self.attempted += 1
        count = self.query_client.query_with_retry(
            "select count(*) from caser", attempts=SHED_ATTEMPTS).rows[0][0]
        if count != len(expected):
            self.fail("wrong_answer", f"caser holds {count} rows, expected "
                      f"{len(self.base_reads)} + {len(self.acked)} acked")
        reference = CleansedReference(
            dataclasses.replace(self.data, case_reads=expected), THREE_RULES)
        for name, sql in durable_queries(self.site, self.newest,
                                         sum(WINDOW_DAYS) // 2):
            self.attempted += 1
            try:
                rows = self.query_client.query_with_retry(
                    sql, cleansed=True, attempts=SHED_ATTEMPTS).rows
            except ServerError as error:
                self.fail("query_error", str(error), query=name)
                continue
            self.check(canonical(rows), reference.answer(sql),
                       query=f"final {name}")

    def storage_layer(self, spans: list) -> dict[str, float]:
        delta = self.storage_delta
        lookups = delta["buffer_hits"] + delta["buffer_misses"]
        checkpoints = [span.duration for span in spans
                       if span.name == "checkpoint"]
        return {
            "storage.pages_read": delta["pages_read"],
            "storage.pages_written": delta["pages_written"],
            "storage.pages_evicted": delta["pages_evicted"],
            "storage.buffer_hit_ratio": (delta["buffer_hits"] / lookups
                                         if lookups else 0.0),
            "storage.wal_bytes_per_row": (delta["wal_bytes"] / len(self.acked)
                                          if self.acked else 0.0),
            "storage.wal_syncs": delta["wal_syncs"],
            "storage.checkpoints": delta["checkpoints"],
            "storage.checkpoint_ms": (statistics.mean(checkpoints) * 1000.0
                                      if checkpoints else 0.0),
            "server.sheds": self.sheds,
            "loadgen.late_ms": (percentile(self.lateness, 0.9) * 1000.0
                                if self.lateness else 0.0),
        }


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (FigGrid, SelectiveZipf, DurableIngest)}
