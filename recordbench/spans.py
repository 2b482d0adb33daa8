"""Spans recorded around the calls into each layer's public functions.

Nothing under ``src/`` knows about this module. :func:`install` patches a
handful of public entry points (``Database.plan``, ``Database.execute``,
``Database.append``, ``DeferredCleansingEngine.rewrite`` and
``.execute``, ``DiskStorage.checkpoint`` and the ``parse_select`` names
the engines call) with wrappers that open a span, call the original and
close the span. ``DeferredCleansingEngine.execute`` and
``Database.execute`` run in decomposed form while tracing
(parse -> rewrite -> materialize, plan -> materialize) so each step gets
its own span. A wrapper records only inside a traced request, one the
benchmark opened with a root span; any other call goes straight through,
which is how the traced run interleaves untraced requests to measure the
tracing overhead.

Spans stay in memory (``Tracer.spans``) and are written once, at the end
of the run, by :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    request_id: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part covered by child spans."""
        return self.duration - self.child_time


class Tracer:
    """An in-memory span recorder, shared by every thread of the run.

    Each thread keeps its own stack of open spans, so a span's parent is
    the innermost open span of the same thread. A request that crosses a
    thread (a wire request served on a server pool thread) is linked by
    :meth:`handoff`: the client thread names its open span under a key,
    and the first span the serving thread opens with that key as its
    ``link`` becomes its child. Each key has at most one request in
    flight, because each benchmark connection is strictly
    request/response.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._local = threading.local()
        self._handoffs: dict[str, Span] = {}
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self, link: str | None = None) -> bool:
        """Whether a span opened now, on this thread, would be recorded."""
        return bool(self._stack()) or (link is not None
                                       and link in self._handoffs)

    @contextlib.contextmanager
    def span(self, name: str, link: str | None = None, root: bool = False,
             **attrs: Any) -> Iterator[Span | None]:
        """Record a span if inside a traced request (or *root* is set)."""
        if not (root or self.active(link)):
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and link is not None:
            parent = self._handoffs.get(link)
        with self._lock:
            span_id = next(self._ids)
            request_id = (parent.request_id if parent is not None
                          else next(self._requests))
        span = Span(span_id, parent.span_id if parent else None,
                    request_id, name, time.perf_counter(), attrs=attrs)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                with self._lock:
                    parent.child_time += span.duration
            self.spans.append(span)

    @contextlib.contextmanager
    def handoff(self, key: str, span: Span | None) -> Iterator[None]:
        """Make *span* the parent of the next span linked to *key*."""
        if span is None:
            yield
            return
        self._handoffs[key] = span
        try:
            yield
        finally:
            self._handoffs.pop(key, None)

    def dump(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span.span_id, "parent": span.parent_id,
                    "request": span.request_id, "name": span.name,
                    "start": span.start, "end": span.end,
                    "self_ms": span.self_time * 1000.0,
                    **({"attrs": span.attrs} if span.attrs else {}),
                }, default=str) + "\n")


def _encode_counters() -> tuple[int, int]:
    from repro.minidb.vector import encode_stats

    encoded, fallbacks, _ = encode_stats()
    return encoded, fallbacks


def _traced_materialize(tracer: Tracer, plan, variant: str | None):
    """Run *plan* under an ``exec`` span carrying the executor counters."""
    from repro.minidb.engine import ExecutionMetrics
    from repro.minidb.vector import materialize

    encoded_before, fallbacks_before = _encode_counters()
    with tracer.span("exec", variant=variant) as span:
        rows = materialize(plan)
    metrics = ExecutionMetrics.from_plan(plan)
    encoded_after, fallbacks_after = _encode_counters()
    span.attrs.update(
        rows_sorted=metrics.rows_sorted,
        sort_ops=metrics.sort_operators,
        rows_emitted=metrics.rows_emitted,
        batches=metrics.batches,
        filter_in=metrics.filter_input_rows,
        filter_out=metrics.filter_output_rows,
        fused_pipelines=metrics.fused_pipelines,
        encoded_columns=encoded_after - encoded_before,
        decode_fallbacks=fallbacks_after - fallbacks_before)
    return rows


_STRATEGY_VARIANT = {"naive": "q_n", "expanded": "q_e", "joinback": "q_j",
                     "cached": "q_e", "passthrough": "q"}


def install(tracer: Tracer) -> "contextlib.ExitStack":
    """Patch the layer entry points; closing the stack restores them."""
    import repro.minidb.engine as minidb_engine
    import repro.rewrite.engine as rewrite_engine
    from repro.minidb.engine import Database
    from repro.minidb.result import ResultSet
    from repro.minidb.storage.backend import DiskStorage
    from repro.rewrite.engine import DeferredCleansingEngine

    restore = contextlib.ExitStack()

    def patch(owner, name, make):
        original = getattr(owner, name)
        setattr(owner, name, make(original))
        restore.callback(setattr, owner, name, original)

    def parse_wrapper(original):
        def parse_select(text):
            if not tracer.active():
                return original(text)
            with tracer.span("parse"):
                return original(text)
        return parse_select

    patch(minidb_engine, "parse_select", parse_wrapper)
    patch(rewrite_engine, "parse_select", parse_wrapper)

    def plan_wrapper(original):
        def plan(self, query, options=None):
            if not tracer.active():
                return original(self, query, options)
            hits, misses = self.plan_cache.hits, self.plan_cache.misses
            with tracer.span("plan") as span:
                result = original(self, query, options)
            span.attrs.update(cache_hits=self.plan_cache.hits - hits,
                              cache_misses=self.plan_cache.misses - misses)
            return result
        return plan

    patch(Database, "plan", plan_wrapper)

    def db_execute_wrapper(original):
        def execute(self, query, options=None):
            if not tracer.active():
                return original(self, query, options)
            plan = self.plan(query, options)
            rows = _traced_materialize(tracer, plan, "q")
            return ResultSet([out.name for out in plan.schema], rows)
        return execute

    patch(Database, "execute", db_execute_wrapper)

    def append_wrapper(original):
        def append(self, name, rows):
            if not tracer.active("append"):
                return original(self, name, rows)
            with tracer.span("append", link="append") as span:
                appended = original(self, name, rows)
            span.attrs["rows"] = appended
            return appended
        return append

    patch(Database, "append", append_wrapper)

    def checkpoint_wrapper(original):
        def checkpoint(self):
            if not tracer.active():
                return original(self)
            with tracer.span("checkpoint"):
                return original(self)
        return checkpoint

    patch(DiskStorage, "checkpoint", checkpoint_wrapper)

    def rewrite_wrapper(original):
        def rewrite(self, query, strategies=None):
            if not tracer.active():
                return original(self, query, strategies)
            with tracer.span("rewrite") as span:
                result = original(self, query, strategies)
            span.attrs.update(candidates=len(result.candidates),
                              chosen=result.chosen.label)
            return result
        return rewrite

    patch(DeferredCleansingEngine, "rewrite", rewrite_wrapper)

    def engine_execute_wrapper(original):
        def execute(self, query, strategies=None):
            if not tracer.active("query"):
                return original(self, query, strategies)
            with tracer.span("engine.execute", link="query"):
                statement = (rewrite_engine.parse_select(query)
                             if isinstance(query, str) else query)
                result = self.rewrite(statement, strategies)
                plan = result.physical
                rows = _traced_materialize(
                    tracer, plan, _STRATEGY_VARIANT.get(result.strategy))
            return ResultSet([f.name for f in plan.schema], rows)
        return execute

    patch(DeferredCleansingEngine, "execute", engine_execute_wrapper)
    return restore


#: ``rewrite.chosen.<label>`` metric suffixes, one per candidate label
#: the engine can produce; anything else counts as ``other``.
CHOSEN_LABELS = ("passthrough", "naive", "expanded", "expanded_1dims",
                 "expanded_2dims", "expanded_3dims", "expanded_4dims",
                 "joinback", "joinback_1dims", "joinback_2dims",
                 "joinback_3dims", "joinback_4dims", "other")
EXEC_VARIANTS = ("q", "q_e", "q_j", "q_n")
_EXEC_COUNTERS = ("rows_sorted", "sort_ops", "rows_emitted", "batches",
                  "decode_fallbacks", "encoded_columns", "fused_pipelines")


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def query_layers(spans: list[Span], traced_queries: int) -> dict[str, float]:
    """Parse, rewrite, plan and executor metrics, per traced query.

    Times are self times in milliseconds, averaged over every traced
    query of the run (a query that never reaches a layer adds 0);
    ``exec.ms.<variant>`` averages over the traced queries of that
    variant. Counts are per traced query too, except the
    ``rewrite.chosen.*`` totals.
    """
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    metrics: dict[str, float] = {}

    def self_ms(name: str) -> float:
        return _per(sum(span.self_time for span in by_name.get(name, ()))
                    * 1000.0, traced_queries)

    for layer in ("parse", "plan"):
        metrics[f"{layer}.ms"] = self_ms(layer)
        metrics[f"{layer}.calls"] = _per(len(by_name.get(layer, ())),
                                         traced_queries)
    rewrites = by_name.get("rewrite", [])
    metrics["rewrite.ms"] = self_ms("rewrite")
    metrics["rewrite.candidates"] = _per(
        sum(span.attrs["candidates"] for span in rewrites), len(rewrites))
    chosen = {label: 0 for label in CHOSEN_LABELS}
    for span in rewrites:
        label = span.attrs["chosen"].replace("+", "_")
        chosen[label if label in chosen else "other"] += 1
    metrics.update({f"rewrite.chosen.{label}": count
                    for label, count in chosen.items()})
    plans = by_name.get("plan", [])
    hits = sum(span.attrs["cache_hits"] for span in plans)
    lookups = hits + sum(span.attrs["cache_misses"] for span in plans)
    metrics["plan.cache_hit_ratio"] = _per(hits, lookups)
    execs = by_name.get("exec", [])
    metrics["exec.ms"] = self_ms("exec")
    for variant in EXEC_VARIANTS:
        of_variant = [span for span in execs
                      if span.attrs["variant"] == variant]
        metrics[f"exec.ms.{variant}"] = _per(
            sum(span.self_time for span in of_variant) * 1000.0,
            len(of_variant))
    for counter in _EXEC_COUNTERS:
        metrics[f"exec.{counter}"] = _per(
            sum(span.attrs[counter] for span in execs), traced_queries)
    filtered = sum(span.attrs["filter_in"] for span in execs)
    metrics["exec.filter_density"] = _per(
        sum(span.attrs["filter_out"] for span in execs), filtered)
    return metrics


def served_layers(spans: list[Span]) -> dict[str, float]:
    """Append and server metrics from the wire workload's spans."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    metrics: dict[str, float] = {}
    appends = [span for span in spans if span.name == "append"]
    metrics["append.ms"] = _per(
        sum(span.self_time for span in appends) * 1000.0, len(appends))
    metrics["append.rows"] = _per(
        sum(span.attrs["rows"] for span in appends), len(appends))
    for op, inner in (("query", "engine.execute"), ("append", "append")):
        overheads = [
            span.duration - sum(child.duration
                                for child in children.get(span.span_id, ())
                                if child.name == inner)
            for span in spans if span.name == f"client.{op}"]
        metrics[f"server.overhead_ms.{op}"] = _per(
            sum(overheads) * 1000.0, len(overheads))
    return metrics


def span_summary(spans) -> dict[str, dict[str, float]]:
    """Per span name: how many, and their total and self milliseconds."""
    summary: dict[str, dict[str, float]] = {}
    for span in spans:
        entry = summary.setdefault(span.name, {"count": 0, "total_ms": 0.0,
                                               "self_ms": 0.0})
        entry["count"] += 1
        entry["total_ms"] += span.duration * 1000.0
        entry["self_ms"] += span.self_time * 1000.0
    return summary
