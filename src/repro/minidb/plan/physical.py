"""Physical (executable) plan operators.

Operators are pull-based and support two execution surfaces:

* ``batches()`` — the vectorized path: yields :class:`RowBatch` columnar
  chunks. Hot operators (scan, filter, project, hash join, semi join,
  sort, aggregate, distinct, union, limit) implement it natively,
  evaluating whole chunks through batch-compiled expressions
  (:meth:`Expr.bind_batch`) instead of calling a closure per row.
* ``rows()`` — a thin tuple-at-a-time adapter kept for compatibility:
  under batch execution it re-yields batch rows; with
  ``REPRO_BATCH_SIZE=0`` it runs the original ``scalar_rows()``
  implementations, which are retained verbatim as the reference
  interpreter (and as the honest "before" side of the vectorization
  benchmarks).

Each operator carries:

* ``schema`` — its output :class:`PlanSchema`;
* ``estimated_rows`` / ``estimated_cost`` — filled in by the planner's
  cost model and surfaced through EXPLAIN (the rewrite engine compares
  root costs of candidate rewrites, as the paper does with DB2's
  estimates);
* ``ordering`` — the output order the operator *guarantees*, as a tuple
  of ``(column position, ascending)`` pairs. The planner uses it to skip
  redundant sorts (the paper's "order sharing" between cleansing windows
  and query windows);
* ``actual_rows`` / ``actual_batches`` — incremented during execution,
  for EXPLAIN-ANALYZE style inspection and for the benchmark harness's
  work metrics. Both paths produce identical ``actual_rows`` totals.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import ExecutionError
from repro.minidb.expressions import BatchBound, Expr
from repro.minidb.index import IndexRange, SortedIndex
from repro.minidb.plan.planschema import PlanSchema
from repro.minidb.storage.heap import DiskRowStore
from repro.minidb.storage.zones import pruning_enabled
from repro.minidb.table import Table
from repro.minidb.types import sort_key_column
from repro.minidb.vector import (
    DEFAULT_BATCH_SIZE,
    ENCODED_TYPES,
    DictColumn,
    RLEColumn,
    RowBatch,
    batch_execution_enabled,
    concat_columns,
    configured_batch_size,
    record_encoded_columns,
)

__all__ = [
    "PhysicalNode",
    "SeqScan",
    "IndexRangeScan",
    "FilterOp",
    "ProjectOp",
    "HashJoinOp",
    "NestedLoopJoinOp",
    "SemiJoinOp",
    "SortOp",
    "AggregateOp",
    "DistinctOp",
    "UnionAllOp",
    "LimitOp",
    "Ordering",
]

#: A guaranteed output order: ((column position, ascending), ...).
Ordering = tuple[tuple[int, bool], ...]


def _resolve_batch_size(size: int | None) -> int:
    """The effective chunk size for one ``batches()`` invocation."""
    if size is not None and size > 0:
        return size
    return configured_batch_size() or DEFAULT_BATCH_SIZE


class PhysicalNode:
    """Base class for executable operators.

    The hierarchy is slotted: plans for large queries allocate thousands
    of nodes, and per-row inner loops read operator attributes, so the
    fixed layout saves both memory and a dict lookup per access.
    """

    __slots__ = ("schema", "ordering", "estimated_rows", "estimated_cost",
                 "actual_rows", "actual_batches")

    schema: PlanSchema
    ordering: Ordering
    estimated_rows: float
    estimated_cost: float

    def __init__(self) -> None:
        self.ordering = ()
        self.estimated_rows = 0.0
        self.estimated_cost = 0.0
        self.actual_rows = 0
        self.actual_batches = 0

    def inputs(self) -> Sequence["PhysicalNode"]:
        return ()

    def scalar_rows(self) -> Iterator[tuple]:
        """Tuple-at-a-time implementation (the reference interpreter)."""
        raise NotImplementedError

    def rows(self) -> Iterator[tuple]:
        """Yield output tuples under the configured execution mode."""
        if not batch_execution_enabled():
            yield from self.scalar_rows()
            return
        for batch in self.batches():
            yield from batch.rows()

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        """Yield output as columnar chunks.

        Operators without a native vectorized implementation chunk
        their ``scalar_rows()`` stream, so a mixed plan still moves
        batches end to end.
        """
        size = _resolve_batch_size(size)
        width = len(self.schema)
        chunk: list[tuple] = []
        for row in self.scalar_rows():
            chunk.append(row)
            if len(chunk) >= size:
                self.actual_batches += 1
                yield RowBatch.from_rows(chunk, width)
                chunk = []
        if chunk:
            self.actual_batches += 1
            yield RowBatch.from_rows(chunk, width)

    def label(self) -> str:
        return type(self).__name__

    def explain(self, depth: int = 0, analyze: bool = False) -> str:
        """Render this subtree as indented EXPLAIN text.

        With ``analyze=True`` (after executing the plan) each line also
        reports the rows the operator actually produced, EXPLAIN ANALYZE
        style.
        """
        line = (f"{'  ' * depth}{self.label()}  "
                f"[rows={self.estimated_rows:.0f} "
                f"cost={self.estimated_cost:.0f}]")
        if analyze:
            line += f" (actual rows={self.actual_rows})"
        parts = [line]
        parts.extend(child.explain(depth + 1, analyze)
                     for child in self.inputs())
        return "\n".join(parts)

    def walk(self) -> Iterator["PhysicalNode"]:
        yield self
        for child in self.inputs():
            yield from child.walk()

    def reset_metrics(self) -> None:
        """Zero the per-execution counters across the whole subtree.

        Prepared plans are re-executed; without a reset, ``actual_rows``
        and ``sorted_rows`` would accumulate across runs and corrupt
        :class:`ExecutionMetrics`.
        """
        for node in self.walk():
            node.actual_rows = 0
            node.actual_batches = 0
            if hasattr(node, "sorted_rows"):
                node.sorted_rows = 0
            if hasattr(node, "input_rows"):
                node.input_rows = 0
            if hasattr(node, "kernel_runs"):  # codegen.CompiledSpineOp
                node.kernel_runs = 0
            if hasattr(node, "workers_used"):  # ExchangeOp
                node.workers_used = 0
                node.morsel_count = 0
                node.steal_count = 0
                node.per_shard_rows = []


class SeqScan(PhysicalNode):
    """Full scan of a stored table in insertion order.

    ``shard`` restricts the scan to one morsel of a shard-parallel
    dispatch (see ``plan.shard``): either a contiguous row range
    ``("block", lo, hi)`` or a key-value set ``("key", position,
    values)``. Pool workers set it around each morsel execution; it is
    always None in serial plans.

    ``visible_count``/``visible_rows`` pin the scan to an MVCC
    snapshot (see ``minidb.snapshot``). With ``visible_count`` set the
    scan reads only positions below the bound — appends only extend
    the row store, so the bounded prefix is exactly the pinned epoch.
    ``visible_rows`` additionally redirects the scan to a frozen row
    prefix when the live store was rewritten (``replace_rows``/drop)
    after the snapshot was pinned. Both are None for live execution.
    """

    __slots__ = ('table', 'shard', 'prune', 'visible_count',
                 'visible_rows')

    def __init__(self, table: Table, schema: PlanSchema) -> None:
        super().__init__()
        self.table = table
        self.schema = schema
        self.shard: tuple | None = None
        #: Zone-pruning conjuncts ``(column position, op, literal)``
        #: attached by the planner; consulted only for disk-backed
        #: tables, where page zone maps can disprove whole pages.
        self.prune: list[tuple] = []
        self.visible_count: int | None = None
        self.visible_rows = None

    def _source_rows(self):
        """The row sequence this scan reads (live store or frozen)."""
        if self.visible_rows is not None:
            return self.visible_rows
        return self.table.rows

    def _pruned_source(self):
        """Page runs surviving zone pruning, or None when inapplicable.

        Both the scalar and the batch path route through this, so the
        two execute identically (same pages skipped, same actual_rows)
        and EXPLAIN ANALYZE parity between them is preserved. Detached
        snapshots never use live pages: the frozen prefix is a plain
        list, so pruning is skipped rather than consulting pages that
        may already describe rewritten data.
        """
        if not self.prune or not pruning_enabled():
            return None
        if self.visible_rows is not None:
            return None
        store = self.table.rows
        if not isinstance(store, DiskRowStore):
            return None
        return store.pruned_pages(self.prune)

    def _pruned_rows(self, pages) -> Iterator[list]:
        """Per-page row runs from *pages*, snapshot- and shard-restricted."""
        shard = self.shard
        bound = self.visible_count
        for start, rows in pages:
            if bound is not None:
                # Page start offsets are stable under append, so the
                # snapshot bound clips each run positionally.
                if start >= bound:
                    continue
                if start + len(rows) > bound:
                    rows = rows[:bound - start]
            if shard is None:
                selected = rows
            elif shard[0] == "block":
                _, lo, hi = shard
                selected = rows[max(0, lo - start):
                                max(0, hi - start)]
            else:
                _, position, values = shard
                selected = [row for row in rows
                            if row[position] in values]
            if selected:
                yield selected

    def _shard_rows(self, rows, bound: int | None) -> Iterator[tuple]:
        kind = self.shard[0]
        if kind == "block":
            _, lo, hi = self.shard
            if bound is not None:
                hi = min(hi, bound)
            yield from rows[lo:hi]
            return
        _, position, values = self.shard
        source = rows if bound is None else islice(iter(rows), bound)
        for row in source:
            if row[position] in values:
                yield row

    def scalar_rows(self) -> Iterator[tuple]:
        pages = self._pruned_source()
        if pages is not None:
            for selected in self._pruned_rows(pages):
                for row in selected:
                    self.actual_rows += 1
                    yield row
            return
        rows = self._source_rows()
        bound = self.visible_count
        if self.shard is not None:
            source = self._shard_rows(rows, bound)
        elif bound is None:
            source = rows
        else:
            # Never iterate the live store unbounded under a snapshot:
            # list iterators observe concurrent appends, so the bound
            # must be enforced even when it equals len(rows) right now.
            source = islice(iter(rows), bound)
        for row in source:
            self.actual_rows += 1
            yield row

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        size = _resolve_batch_size(size)
        pages = self._pruned_source()
        if pages is not None:
            # Transpose surviving page runs directly instead of going
            # through ``columnar()``: the column cache would fetch every
            # page and defeat the pruning.
            pending: list[tuple] = []
            for selected in self._pruned_rows(pages):
                pending.extend(selected)
                while len(pending) >= size:
                    chunk, pending = pending[:size], pending[size:]
                    yield self._row_chunk_batch(chunk)
            if pending:
                yield self._row_chunk_batch(pending)
            return
        if self.visible_rows is not None:
            yield from self._frozen_batches(size)
            return
        columns = self.table.encoded_columnar()
        encoded = sum(1 for column in columns
                      if isinstance(column, ENCODED_TYPES))
        if encoded:
            record_encoded_columns(encoded)
        bound = self.visible_count
        if self.shard is not None:
            yield from self._shard_batches(columns, size, bound)
            return
        total = len(self.table.rows) if bound is None else bound
        for lo in range(0, total, size):
            hi = min(lo + size, total)
            self.actual_rows += hi - lo
            self.actual_batches += 1
            yield RowBatch([column[lo:hi] for column in columns], hi - lo)

    def _frozen_batches(self, size: int) -> Iterator[RowBatch]:
        """Batch path over a detached snapshot's frozen row prefix.

        The frozen prefix is a plain row list from a retired epoch, so
        the columnar cache (which reflects the live store) cannot be
        used; rows are transposed per chunk instead, shard-restricted
        the same way the live paths are.
        """
        rows = self.visible_rows
        total = len(rows)
        if self.visible_count is not None:
            total = min(total, self.visible_count)
        if self.shard is None:
            for lo in range(0, total, size):
                chunk = rows[lo:min(lo + size, total)]
                if chunk:
                    yield self._row_chunk_batch(chunk)
            return
        if self.shard[0] == "block":
            _, shard_lo, shard_hi = self.shard
            shard_hi = min(shard_hi, total)
            for lo in range(shard_lo, shard_hi, size):
                chunk = rows[lo:min(lo + size, shard_hi)]
                if chunk:
                    yield self._row_chunk_batch(chunk)
            return
        _, position, values = self.shard
        selected = [row for row in rows[:total]
                    if row[position] in values]
        for lo in range(0, len(selected), size):
            yield self._row_chunk_batch(selected[lo:lo + size])

    def _row_chunk_batch(self, chunk: list[tuple]) -> RowBatch:
        self.actual_rows += len(chunk)
        self.actual_batches += 1
        return RowBatch([list(column) for column in zip(*chunk)],
                        len(chunk))

    def _shard_batches(self, columns: list[list], size: int,
                       bound: int | None) -> Iterator[RowBatch]:
        kind = self.shard[0]
        if kind == "block":
            _, shard_lo, shard_hi = self.shard
            if bound is not None:
                shard_hi = min(shard_hi, bound)
            for lo in range(shard_lo, shard_hi, size):
                hi = min(lo + size, shard_hi)
                self.actual_rows += hi - lo
                self.actual_batches += 1
                yield RowBatch([column[lo:hi] for column in columns],
                               hi - lo)
            return
        _, position, values = self.shard
        key_column = columns[position] if columns else []
        if bound is not None:
            key_column = key_column[:bound]
        selected = [i for i, value in enumerate(key_column)
                    if value in values]
        for lo in range(0, len(selected), size):
            chunk = selected[lo:lo + size]
            self.actual_rows += len(chunk)
            self.actual_batches += 1
            yield RowBatch([column.take(chunk)
                            if isinstance(column, ENCODED_TYPES)
                            else [column[i] for i in chunk]
                            for column in columns], len(chunk))

    def label(self) -> str:
        suffix = "" if self.shard is None else f" shard={self.shard[0]}"
        return f"SeqScan({self.table.name}){suffix}"


class IndexRangeScan(PhysicalNode):
    """Range scan through a sorted index; output is ordered by the key.

    ``visible_count``/``visible_rows`` pin the scan to an MVCC
    snapshot, mirroring :class:`SeqScan`. With only ``visible_count``
    set, index entries at positions past the bound (appended after the
    pin) are skipped — the index yields in key order, so later
    positions are interleaved and must be filtered, not truncated.
    With ``visible_rows`` set (the store was rewritten after the pin)
    the live index no longer describes the frozen prefix, so the scan
    filters and sorts the frozen rows directly, reproducing the index's
    output order exactly: equal keys come out in position order both
    ways (``bisect_right`` insertion and a stable sort agree).
    """

    __slots__ = ('table', 'index', 'key_range', 'visible_count',
                 'visible_rows')

    def __init__(self, table: Table, schema: PlanSchema,
                 index: SortedIndex, key_range: IndexRange) -> None:
        super().__init__()
        self.table = table
        self.schema = schema
        self.index = index
        self.key_range = key_range
        key_position = table.schema.position_of(index.column)
        self.ordering = ((key_position, True),)
        self.visible_count: int | None = None
        self.visible_rows = None

    def _detached_rows(self) -> list[tuple]:
        key_position = self.table.schema.position_of(self.index.column)
        source = islice(iter(self.visible_rows), self.visible_count)
        selected = [row for row in source
                    if self.key_range.contains(row[key_position])]
        selected.sort(key=lambda row: row[key_position])
        return selected

    def scalar_rows(self) -> Iterator[tuple]:
        if self.visible_rows is not None:
            for row in self._detached_rows():
                self.actual_rows += 1
                yield row
            return
        table_rows = self.table.rows
        bound = self.visible_count
        for position in self.index.scan(self.key_range):
            if bound is not None and position >= bound:
                continue
            self.actual_rows += 1
            yield table_rows[position]

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        size = _resolve_batch_size(size)
        if self.visible_rows is not None:
            rows = self._detached_rows()
            for lo in range(0, len(rows), size):
                chunk = rows[lo:lo + size]
                self.actual_rows += len(chunk)
                self.actual_batches += 1
                yield RowBatch([list(column) for column in zip(*chunk)],
                               len(chunk))
            return
        columns = self.table.columnar()
        positions = self.index.scan(self.key_range)
        if self.visible_count is not None:
            positions = filter(self.visible_count.__gt__, positions)
        while chunk := list(islice(positions, size)):
            yield self._gather(columns, chunk)

    def _gather(self, columns: list[list], positions: list[int]) -> RowBatch:
        self.actual_rows += len(positions)
        self.actual_batches += 1
        return RowBatch([[column[p] for p in positions]
                         for column in columns], len(positions))

    def label(self) -> str:
        return (f"IndexRangeScan({self.table.name}.{self.index.column} "
                f"{self.key_range!r})")


class FilterOp(PhysicalNode):
    """Keeps rows where the bound predicate evaluates to TRUE.

    The batch path evaluates the predicate over a whole chunk and keeps
    the surviving positions (a selection vector); ``input_rows`` records
    how many rows the predicate saw, so :class:`ExecutionMetrics` can
    report selection-vector density.
    """

    __slots__ = ('child', 'predicate', '_bound', '_batch_bound', 'input_rows')

    def __init__(self, child: PhysicalNode, predicate: Expr,
                 bound: Callable[[tuple], Any]) -> None:
        super().__init__()
        self.child = child
        self.predicate = predicate
        self._bound = bound
        self._batch_bound: BatchBound = predicate.bind_batch(
            child.schema.resolver())
        self.input_rows = 0
        self.schema = child.schema
        self.ordering = child.ordering

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.child,)

    def scalar_rows(self) -> Iterator[tuple]:
        bound = self._bound
        for row in self.child.rows():
            if bound(row) is True:
                self.actual_rows += 1
                yield row

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        batch_bound = self._batch_bound
        for batch in self.child.batches(size):
            self.input_rows += batch.length
            values = batch_bound(batch)
            if isinstance(values, RLEColumn):
                # Run-wise selection: rejected runs are skipped without
                # inspecting a single row, surviving runs pass through
                # as contiguous slices of the input batch.
                yield from self._run_batches(batch, values)
                continue
            if isinstance(values, DictColumn):
                # One truth test per distinct value, then a code lookup
                # per row instead of an identity check per row.
                truth = [value is True for value in values.values]
                selected = [i for i, code in enumerate(values.codes)
                            if truth[code]]
            else:
                selected = [i for i, value in enumerate(values)
                            if value is True]
            if not selected:
                continue
            out = batch if len(selected) == batch.length \
                else batch.take(selected)
            self.actual_rows += out.length
            self.actual_batches += 1
            yield out

    def _run_batches(self, batch: RowBatch,
                     values: RLEColumn) -> Iterator[RowBatch]:
        spans: list[list[int]] = []
        for start, length, value in values.runs():
            if value is not True:
                continue
            if spans and spans[-1][1] == start:
                spans[-1][1] = start + length
            else:
                spans.append([start, start + length])
        if len(spans) == 1 and spans[0][0] == 0 \
                and spans[0][1] == batch.length:
            self.actual_rows += batch.length
            self.actual_batches += 1
            yield batch
            return
        for lo, hi in spans:
            out = batch.slice(lo, hi)
            self.actual_rows += out.length
            self.actual_batches += 1
            yield out

    def label(self) -> str:
        return f"Filter({self.predicate.to_sql()})"


class ProjectOp(PhysicalNode):
    """Computes the output row from bound expressions.

    ``passthrough`` maps output positions to input positions for items
    that are plain column references; it is used to translate the input's
    ordering property through the projection, and lets the batch path
    reuse the child's column lists without copying. ``item_exprs`` (the
    unbound select-list expressions) enables batch compilation of the
    computed items; without it the batch path evaluates the row-bound
    closures elementwise.
    """

    __slots__ = ('child', '_bound_items', '_batch_items', 'item_exprs',
                 'passthrough')

    def __init__(self, child: PhysicalNode, schema: PlanSchema,
                 bound_items: Sequence[Callable[[tuple], Any]],
                 passthrough: dict[int, int],
                 item_exprs: Sequence[Expr] | None = None) -> None:
        super().__init__()
        self.child = child
        self.schema = schema
        self._bound_items = list(bound_items)
        # Kept unbound for the codegen emitter (and for EXPLAIN CODEGEN).
        self.item_exprs = list(item_exprs) if item_exprs is not None else None
        self.passthrough = dict(passthrough)
        self._batch_items: list[tuple[str, Any]] | None = None
        if item_exprs is not None:
            resolver = child.schema.resolver()
            items: list[tuple[str, Any]] = []
            for out_position, expr in enumerate(item_exprs):
                if out_position in passthrough:
                    items.append(("col", passthrough[out_position]))
                else:
                    items.append(("expr", expr.bind_batch(resolver)))
            self._batch_items = items
        ordering: list[tuple[int, bool]] = []
        inverse = {inp: out for out, inp in passthrough.items()}
        for position, ascending in child.ordering:
            if position not in inverse:
                break
            ordering.append((inverse[position], ascending))
        self.ordering = tuple(ordering)

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.child,)

    def scalar_rows(self) -> Iterator[tuple]:
        bound_items = self._bound_items
        for row in self.child.rows():
            self.actual_rows += 1
            yield tuple(item(row) for item in bound_items)

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        batch_items = self._batch_items
        for batch in self.child.batches(size):
            if batch_items is None:
                in_rows = batch.rows()
                columns = [[item(row) for row in in_rows]
                           for item in self._bound_items]
            else:
                columns = [batch.columns[payload] if kind == "col"
                           else payload(batch)
                           for kind, payload in batch_items]
            self.actual_rows += batch.length
            self.actual_batches += 1
            yield RowBatch(columns, batch.length)

    def label(self) -> str:
        return f"Project({', '.join(f.display() for f in self.schema)})"


class HashJoinOp(PhysicalNode):
    """Equi-join: builds a hash table on the right input.

    ``residual`` (if any) is applied to joined rows for non-equi
    conjuncts. Left join emits left rows with NULL padding when no match
    survives the residual. The batch path extracts join-key columns per
    chunk (a direct column reference for the common plain-column keys)
    and probes row-wise over the materialized chunk rows.
    """

    __slots__ = ('left', 'right', '_left_keys', '_right_keys', 'kind',
                 '_residual', 'residual_expr', '_batch_left_keys',
                 '_batch_right_keys', 'left_key_exprs', 'right_key_exprs')

    def __init__(self, left: PhysicalNode, right: PhysicalNode,
                 schema: PlanSchema,
                 left_keys: Sequence[Callable[[tuple], Any]],
                 right_keys: Sequence[Callable[[tuple], Any]],
                 kind: str,
                 residual: Callable[[tuple], Any] | None,
                 residual_expr: Expr | None,
                 left_key_exprs: Sequence[Expr] | None = None,
                 right_key_exprs: Sequence[Expr] | None = None) -> None:
        super().__init__()
        self.left = left
        self.right = right
        self.schema = schema
        self._left_keys = list(left_keys)
        self._right_keys = list(right_keys)
        self.kind = kind
        self._residual = residual
        self.residual_expr = residual_expr
        self._batch_left_keys: list[BatchBound] | None = None
        self._batch_right_keys: list[BatchBound] | None = None
        # Kept unbound for the codegen emitter.
        self.left_key_exprs = (list(left_key_exprs)
                               if left_key_exprs is not None else None)
        self.right_key_exprs = (list(right_key_exprs)
                                if right_key_exprs is not None else None)
        if left_key_exprs is not None:
            resolver = left.schema.resolver()
            self._batch_left_keys = [expr.bind_batch(resolver)
                                     for expr in left_key_exprs]
        if right_key_exprs is not None:
            resolver = right.schema.resolver()
            self._batch_right_keys = [expr.bind_batch(resolver)
                                      for expr in right_key_exprs]
        self.ordering = left.ordering  # probe side preserves its order

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.left, self.right)

    def scalar_rows(self) -> Iterator[tuple]:
        table: dict[tuple, list[tuple]] = {}
        right_keys = self._right_keys
        for row in self.right.rows():
            key = tuple(key(row) for key in right_keys)
            if any(part is None for part in key):
                continue
            table.setdefault(key, []).append(row)
        left_keys = self._left_keys
        residual = self._residual
        null_pad = (None,) * len(self.right.schema)
        for left_row in self.left.rows():
            key = tuple(key(left_row) for key in left_keys)
            matched = False
            if not any(part is None for part in key):
                for right_row in table.get(key, ()):
                    joined = left_row + right_row
                    if residual is not None and residual(joined) is not True:
                        continue
                    matched = True
                    self.actual_rows += 1
                    yield joined
            if not matched and self.kind == "left":
                self.actual_rows += 1
                yield left_row + null_pad

    @staticmethod
    def _key_columns(batch: RowBatch,
                     batch_keys: list[BatchBound] | None,
                     row_keys: list[Callable[[tuple], Any]]) -> list[list]:
        if batch_keys is not None:
            return [key(batch) for key in batch_keys]
        in_rows = batch.rows()
        return [[key(row) for row in in_rows] for key in row_keys]

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        size = _resolve_batch_size(size)
        table: dict[tuple, list[tuple]] = {}
        for right_batch in self.right.batches(size):
            right_rows = right_batch.rows()
            key_columns = self._key_columns(right_batch,
                                            self._batch_right_keys,
                                            self._right_keys)
            for i in range(right_batch.length):
                key = tuple(column[i] for column in key_columns)
                if any(part is None for part in key):
                    continue
                table.setdefault(key, []).append(right_rows[i])
        residual = self._residual
        null_pad = (None,) * len(self.right.schema)
        pad_left = self.kind == "left"
        width = len(self.schema)
        single = len(self._left_keys) == 1
        for left_batch in self.left.batches(size):
            left_rows = left_batch.rows()
            key_columns = self._key_columns(left_batch,
                                            self._batch_left_keys,
                                            self._left_keys)
            out: list[tuple] = []
            if single:
                key_column = key_columns[0]
                if isinstance(key_column, DictColumn):
                    # Probe the hash table once per distinct key value,
                    # then walk codes: per row it's one list index, not
                    # a hash probe. NULL (code 0) maps to no matches.
                    buckets = [() if value is None
                               else table.get((value,), ())
                               for value in key_column.values]
                    per_row = key_column.codes
                else:
                    buckets = None
                    per_row = key_column
                for i, part in enumerate(per_row):
                    matched = False
                    candidates = buckets[part] if buckets is not None \
                        else (table.get((part,), ())
                              if part is not None else ())
                    if candidates:
                        for right_row in candidates:
                            joined = left_rows[i] + right_row
                            if residual is not None \
                                    and residual(joined) is not True:
                                continue
                            matched = True
                            out.append(joined)
                    if not matched and pad_left:
                        out.append(left_rows[i] + null_pad)
            else:
                for i in range(left_batch.length):
                    key = tuple(column[i] for column in key_columns)
                    matched = False
                    if not any(part is None for part in key):
                        for right_row in table.get(key, ()):
                            joined = left_rows[i] + right_row
                            if residual is not None \
                                    and residual(joined) is not True:
                                continue
                            matched = True
                            out.append(joined)
                    if not matched and pad_left:
                        out.append(left_rows[i] + null_pad)
            if out:
                self.actual_rows += len(out)
                self.actual_batches += 1
                yield RowBatch.from_rows(out, width)

    def label(self) -> str:
        return f"HashJoin[{self.kind}]"


class NestedLoopJoinOp(PhysicalNode):
    """Fallback join for non-equi or cross joins (right side buffered)."""

    __slots__ = ('left', 'right', '_condition', 'condition_expr', 'kind')

    def __init__(self, left: PhysicalNode, right: PhysicalNode,
                 schema: PlanSchema,
                 condition: Callable[[tuple], Any] | None,
                 condition_expr: Expr | None,
                 kind: str) -> None:
        super().__init__()
        self.left = left
        self.right = right
        self.schema = schema
        self._condition = condition
        self.condition_expr = condition_expr
        self.kind = kind
        self.ordering = left.ordering

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.left, self.right)

    def scalar_rows(self) -> Iterator[tuple]:
        right_rows = list(self.right.rows())
        condition = self._condition
        null_pad = (None,) * len(self.right.schema)
        for left_row in self.left.rows():
            matched = False
            for right_row in right_rows:
                joined = left_row + right_row
                if condition is not None and condition(joined) is not True:
                    continue
                matched = True
                self.actual_rows += 1
                yield joined
            if not matched and self.kind == "left":
                self.actual_rows += 1
                yield left_row + null_pad

    def label(self) -> str:
        condition = (self.condition_expr.to_sql()
                     if self.condition_expr is not None else "TRUE")
        return f"NestedLoopJoin[{self.kind}]({condition})"


class SemiJoinOp(PhysicalNode):
    """Filters left rows by membership of a key in the right input.

    NOT IN follows SQL semantics: if the right side contains any NULL,
    no row qualifies; left keys that are NULL never qualify.
    """

    __slots__ = ('left', 'right', 'left_expr', '_bound_left', '_batch_left',
                 'negated')

    def __init__(self, left: PhysicalNode, right: PhysicalNode,
                 left_expr: Expr,
                 bound_left: Callable[[tuple], Any],
                 negated: bool) -> None:
        super().__init__()
        self.left = left
        self.right = right
        self.left_expr = left_expr
        self._bound_left = bound_left
        self._batch_left: BatchBound = left_expr.bind_batch(
            left.schema.resolver())
        self.negated = negated
        self.schema = left.schema
        self.ordering = left.ordering

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.left, self.right)

    def scalar_rows(self) -> Iterator[tuple]:
        members: set = set()
        saw_null = False
        for row in self.right.rows():
            value = row[0]
            if value is None:
                saw_null = True
            else:
                members.add(value)
        if self.negated and saw_null:
            return
        bound_left = self._bound_left
        negated = self.negated
        for row in self.left.rows():
            value = bound_left(row)
            if value is None:
                continue
            if (value in members) != negated:
                self.actual_rows += 1
                yield row

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        members: set = set()
        saw_null = False
        for right_batch in self.right.batches(size):
            column = right_batch.columns[0] if right_batch.columns else ()
            for value in column:
                if value is None:
                    saw_null = True
                else:
                    members.add(value)
        if self.negated and saw_null:
            return
        batch_left = self._batch_left
        negated = self.negated
        for batch in self.left.batches(size):
            values = batch_left(batch)
            selected = [i for i, value in enumerate(values)
                        if value is not None
                        and (value in members) != negated]
            if not selected:
                continue
            out = batch if len(selected) == batch.length \
                else batch.take(selected)
            self.actual_rows += out.length
            self.actual_batches += 1
            yield out

    def label(self) -> str:
        keyword = "NOT IN" if self.negated else "IN"
        return f"SemiJoin({self.left_expr.to_sql()} {keyword} ...)"


class SortOp(PhysicalNode):
    """Full sort; NULLs order first on every ascending key (and last on
    descending keys, since a descending pass is the reverse of the
    ascending order).

    Sort keys are computed exactly once per input row per key into
    decorated arrays, then the row order is obtained by stable
    multi-pass index sorts over those arrays — the key expressions are
    never re-evaluated during comparisons. With ``key_exprs`` the batch
    path extracts key columns through the vectorized expression
    compiler.
    """

    __slots__ = ('child', '_keys', '_batch_keys', 'sorted_rows')

    def __init__(self, child: PhysicalNode,
                 keys: Sequence[tuple[Callable[[tuple], Any], bool]],
                 ordering: Ordering,
                 key_exprs: Sequence[Expr] | None = None) -> None:
        super().__init__()
        self.child = child
        self._keys = list(keys)
        self._batch_keys: list[BatchBound] | None = None
        if key_exprs is not None:
            resolver = child.schema.resolver()
            self._batch_keys = [expr.bind_batch(resolver)
                                for expr in key_exprs]
        self.schema = child.schema
        self.ordering = ordering
        self.sorted_rows = 0

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.child,)

    def _sorted_order(self, count: int,
                      decorated: list[list]) -> list[int]:
        """Row order from precomputed per-key sort-key arrays.

        Stable multi-key sort: apply keys from last to first, exactly as
        the historical per-pass row sorts did.
        """
        order = list(range(count))
        for keyed, (_, ascending) in zip(reversed(decorated),
                                         reversed(self._keys)):
            order.sort(key=keyed.__getitem__, reverse=not ascending)
        return order

    def _sorted_rows(self, buffered: list[tuple],
                     collected: list[RowBatch] | None = None) -> list[tuple]:
        if not buffered:
            return buffered
        if self._batch_keys is not None:
            if collected:
                # Column-wise concat keeps dictionary codes intact, so
                # sorted-dictionary keys sort by raw integer codes.
                big = concat_columns(collected, len(self.schema))
            else:
                big = RowBatch.from_rows(buffered, len(self.schema))
            decorated = [sort_key_column(batch_key(big))
                         for batch_key in self._batch_keys]
        else:
            decorated = [sort_key_column([key(row) for row in buffered])
                         for key, _ in self._keys]
        order = self._sorted_order(len(buffered), decorated)
        return [buffered[i] for i in order]

    def scalar_rows(self) -> Iterator[tuple]:
        buffered = list(self.child.rows())
        self.sorted_rows = len(buffered)
        if buffered:
            decorated = [sort_key_column([key(row) for row in buffered])
                         for key, _ in self._keys]
            order = self._sorted_order(len(buffered), decorated)
            buffered = [buffered[i] for i in order]
        for row in buffered:
            self.actual_rows += 1
            yield row

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        size = _resolve_batch_size(size)
        buffered: list[tuple] = []
        collected: list[RowBatch] = []
        for batch in self.child.batches(size):
            collected.append(batch)
            buffered.extend(batch.rows())
        self.sorted_rows = len(buffered)
        buffered = self._sorted_rows(buffered, collected)
        width = len(self.schema)
        for lo in range(0, len(buffered), size):
            chunk = buffered[lo:lo + size]
            self.actual_rows += len(chunk)
            self.actual_batches += 1
            yield RowBatch.from_rows(chunk, width)

    def label(self) -> str:
        body = ", ".join(f"#{position}{'' if asc else ' DESC'}"
                         for position, asc in self.ordering)
        return f"Sort({body})"


class _AggState:
    """Accumulator for one aggregate call within one group."""

    __slots__ = ("name", "distinct", "count", "total", "extreme", "seen")

    def __init__(self, name: str, distinct: bool) -> None:
        self.name = name
        self.distinct = distinct
        self.count = 0
        self.total: Any = None
        self.extreme: Any = None
        self.seen: set | None = set() if distinct else None

    def add(self, value: Any) -> None:
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        if self.name in ("sum", "avg"):
            self.total = value if self.total is None else self.total + value
        elif self.name == "min":
            if self.extreme is None or value < self.extreme:
                self.extreme = value
        elif self.name == "max":
            if self.extreme is None or value > self.extreme:
                self.extreme = value

    def result(self) -> Any:
        if self.name == "count":
            return self.count
        if self.name == "sum":
            return self.total
        if self.name == "avg":
            if self.count == 0:
                return None
            return self.total / self.count
        return self.extreme


def _plain_values(column: Any) -> list:
    """A column's values as a list. Reading values is what an aggregate
    does with its input, so an encoded column counts no decode
    fallback here."""
    if type(column) is DictColumn:
        values = column.values
        return [values[code] for code in column.codes]
    if type(column) is RLEColumn:
        return column.decode_quiet()
    return column


def _group_numbers(key_columns: list, length: int,
                   index: dict[Any, int]) -> list[int]:
    """Each row's group number; groups not yet in *index* (key -> number,
    the bare value for a single key) join it in first-seen row order."""
    number = index.setdefault
    if not key_columns:
        return [number((), 0)] * length
    if len(key_columns) == 1 and type(key_columns[0]) is DictColumn:
        # One number per distinct code, then a lookup per row.
        codes, values = key_columns[0].codes, key_columns[0].values
        by_code = {code: number(values[code], len(index))
                   for code in dict.fromkeys(codes)}
        return list(map(by_code.__getitem__, codes))
    if len(key_columns) == 1:
        keys = _plain_values(key_columns[0])
    else:
        keys = list(zip(*map(_plain_values, key_columns)))
    for key in dict.fromkeys(keys):
        number(key, len(index))
    return list(map(index.__getitem__, keys))


class _AggColumns:
    """Accumulators for one aggregate call across every group, one slot
    per group number: the batch path feeds them whole columns.

    Each group's values are folded in row order, exactly as
    :class:`_AggState` folds them, so float sums match bit for bit.
    """

    __slots__ = ("name", "counts", "values", "seen")

    def __init__(self, name: str, distinct: bool) -> None:
        self.name = name
        self.counts: list[int] = []
        #: Running total (sum/avg) or extreme (min/max) per group.
        self.values: list[Any] = []
        self.seen: list[set] | None = [] if distinct else None

    def grow(self, groups: int) -> None:
        extra = groups - len(self.counts)
        if extra > 0:
            self.counts.extend([0] * extra)
            self.values.extend([None] * extra)
            if self.seen is not None:
                self.seen.extend(set() for _ in range(extra))

    def add_rows(self, gids: list[int]) -> None:
        """``count(*)``: every row counts."""
        counts = self.counts
        for g, rows in Counter(gids).items():
            counts[g] += rows

    def add_column(self, gids: list[int], column: Any) -> None:
        pairs: Iterable[tuple[int, Any]] = zip(gids, _plain_values(column))
        if self.seen is not None:
            fresh = []
            for g, value in pairs:
                seen = self.seen[g]
                if value is not None and value not in seen:
                    seen.add(value)
                    fresh.append((g, value))
            pairs = fresh
        counts, values, name = self.counts, self.values, self.name
        if name in ("sum", "avg"):
            for g, value in pairs:
                if value is not None:
                    counts[g] += 1
                    total = values[g]
                    values[g] = value if total is None else total + value
        elif name == "min":
            for g, value in pairs:
                if value is not None:
                    extreme = values[g]
                    if extreme is None or value < extreme:
                        values[g] = value
        elif name == "max":
            for g, value in pairs:
                if value is not None:
                    extreme = values[g]
                    if extreme is None or value > extreme:
                        values[g] = value
        else:
            for g, value in pairs:
                if value is not None:
                    counts[g] += 1

    def results(self) -> list:
        """The aggregate's value for every group, by group number."""
        if self.name == "count":
            return self.counts
        if self.name == "avg":
            return [None if count == 0 else total / count
                    for total, count in zip(self.values, self.counts)]
        return self.values


class AggregateOp(PhysicalNode):
    """Hash aggregation: group keys followed by aggregate results.

    Aggregate specs are ``(name, bound_argument_or_None, distinct)``;
    ``count(*)`` passes a None argument and counts every row. The batch
    path numbers each chunk's rows by group (first-seen order) in one
    pass over the key columns, then folds each argument column into
    per-group accumulators in one pass per aggregate.
    """

    __slots__ = ('child', '_group_keys', '_aggregate_specs',
                 '_batch_group_keys', '_batch_arguments')

    def __init__(self, child: PhysicalNode, schema: PlanSchema,
                 group_keys: Sequence[Callable[[tuple], Any]],
                 aggregate_specs: Sequence[
                     tuple[str, Callable[[tuple], Any] | None, bool]],
                 group_exprs: Sequence[Expr] | None = None,
                 argument_exprs: Sequence[Expr | None] | None = None,
                 ) -> None:
        super().__init__()
        self.child = child
        self.schema = schema
        self._group_keys = list(group_keys)
        self._aggregate_specs = list(aggregate_specs)
        self._batch_group_keys: list[BatchBound] | None = None
        self._batch_arguments: list[BatchBound | None] | None = None
        if group_exprs is not None:
            resolver = child.schema.resolver()
            self._batch_group_keys = [expr.bind_batch(resolver)
                                      for expr in group_exprs]
        if argument_exprs is not None:
            resolver = child.schema.resolver()
            self._batch_arguments = [
                expr.bind_batch(resolver) if expr is not None else None
                for expr in argument_exprs]

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.child,)

    def scalar_rows(self) -> Iterator[tuple]:
        groups: dict[tuple, list[_AggState]] = {}
        group_keys = self._group_keys
        specs = self._aggregate_specs
        for row in self.child.rows():
            key = tuple(key(row) for key in group_keys)
            states = groups.get(key)
            if states is None:
                states = [_AggState(name, distinct)
                          for name, _, distinct in specs]
                groups[key] = states
            for state, (name, argument, _) in zip(states, specs):
                if argument is None:  # count(*)
                    state.count += 1
                else:
                    state.add(argument(row))
        if not groups and not group_keys:
            # Global aggregate over an empty input yields one row.
            states = [_AggState(name, distinct) for name, _, distinct in specs]
            groups[()] = states
        for key, states in groups.items():
            self.actual_rows += 1
            yield key + tuple(state.result() for state in states)

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        size = _resolve_batch_size(size)
        specs = self._aggregate_specs
        states = [_AggColumns(name, distinct) for name, _, distinct in specs]
        # Group key (the bare value for a single key) -> group number.
        index: dict[Any, int] = {}
        for batch in self.child.batches(size):
            if self._batch_group_keys is not None:
                key_columns = [key(batch)
                               for key in self._batch_group_keys]
            else:
                in_rows = batch.rows()
                key_columns = [[key(row) for row in in_rows]
                               for key in self._group_keys]
            argument_columns: list[Any] = []
            for position, (name, argument, _) in enumerate(specs):
                if argument is None:
                    argument_columns.append(None)
                elif self._batch_arguments is not None \
                        and self._batch_arguments[position] is not None:
                    argument_columns.append(
                        self._batch_arguments[position](batch))
                else:
                    in_rows = batch.rows()
                    argument_columns.append(
                        [argument(row) for row in in_rows])
            gids = _group_numbers(key_columns, batch.length, index)
            for state, column in zip(states, argument_columns):
                state.grow(len(index))
                if column is None:  # count(*)
                    state.add_rows(gids)
                else:
                    state.add_column(gids, column)
        if not index and not self._group_keys:
            # Global aggregate over an empty input yields one row.
            index[()] = 0
        for state in states:
            state.grow(len(index))
        if len(self._group_keys) == 1:
            key_columns = [list(index)]
        else:
            key_columns = [list(column) for column in zip(*index)]
        columns = key_columns + [state.results() for state in states]
        total = len(index)
        for lo in range(0, total, size):
            hi = min(lo + size, total)
            self.actual_rows += hi - lo
            self.actual_batches += 1
            yield RowBatch([column[lo:hi] for column in columns], hi - lo)

    def label(self) -> str:
        return (f"Aggregate(groups={len(self._group_keys)}, "
                f"aggs={len(self._aggregate_specs)})")


class DistinctOp(PhysicalNode):
    """Whole-row duplicate elimination preserving first occurrence."""

    __slots__ = ('child',)

    def __init__(self, child: PhysicalNode) -> None:
        super().__init__()
        self.child = child
        self.schema = child.schema
        self.ordering = child.ordering

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.child,)

    def scalar_rows(self) -> Iterator[tuple]:
        seen: set[tuple] = set()
        for row in self.child.rows():
            if row in seen:
                continue
            seen.add(row)
            self.actual_rows += 1
            yield row

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        seen: set[tuple] = set()
        for batch in self.child.batches(size):
            keep: list[int] = []
            for i, row in enumerate(batch.rows()):
                if row in seen:
                    continue
                seen.add(row)
                keep.append(i)
            if not keep:
                continue
            out = batch if len(keep) == batch.length else batch.take(keep)
            self.actual_rows += out.length
            self.actual_batches += 1
            yield out

    def label(self) -> str:
        return "Distinct"


class UnionAllOp(PhysicalNode):
    """Concatenation of two inputs."""

    __slots__ = ('left', 'right')

    def __init__(self, left: PhysicalNode, right: PhysicalNode) -> None:
        super().__init__()
        if len(left.schema) != len(right.schema):
            raise ExecutionError("UNION arity mismatch")
        self.left = left
        self.right = right
        self.schema = left.schema

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.left, self.right)

    def scalar_rows(self) -> Iterator[tuple]:
        for row in self.left.rows():
            self.actual_rows += 1
            yield row
        for row in self.right.rows():
            self.actual_rows += 1
            yield row

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        for side in (self.left, self.right):
            for batch in side.batches(size):
                self.actual_rows += batch.length
                self.actual_batches += 1
                yield batch

    def label(self) -> str:
        return "UnionAll"


class PassThroughOp(PhysicalNode):
    """Re-labels a child's output schema without touching rows.

    Used for derived-table / CTE aliasing (LogicalRequalify): positions
    and values are unchanged, only qualifiers differ.
    """

    __slots__ = ('child', 'name')

    def __init__(self, child: PhysicalNode, schema: PlanSchema,
                 name: str) -> None:
        super().__init__()
        self.child = child
        self.schema = schema
        self.name = name
        self.ordering = child.ordering

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.child,)

    def scalar_rows(self) -> Iterator[tuple]:
        return self.child.rows()

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        return self.child.batches(size)

    def label(self) -> str:
        return f"As({self.name})"


class LimitOp(PhysicalNode):
    """Stops after *count* rows."""

    __slots__ = ('child', 'count')

    def __init__(self, child: PhysicalNode, count: int) -> None:
        super().__init__()
        self.child = child
        self.count = count
        self.schema = child.schema
        self.ordering = child.ordering

    def scalar_rows(self) -> Iterator[tuple]:
        if self.count <= 0:
            return
        emitted = 0
        for row in self.child.rows():
            self.actual_rows += 1
            yield row
            emitted += 1
            if emitted >= self.count:
                return

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        if self.count <= 0:
            return
        remaining = self.count
        for batch in self.child.batches(size):
            if batch.length == 0:
                continue
            out = batch if batch.length <= remaining \
                else batch.head(remaining)
            remaining -= out.length
            self.actual_rows += out.length
            self.actual_batches += 1
            yield out
            if remaining == 0:
                return

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.child,)

    def label(self) -> str:
        return f"Limit({self.count})"
