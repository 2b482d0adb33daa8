"""The SQL/OLAP window-function executor.

This operator implements the construct the paper's cleansing rules
compile into: scalar aggregates over ROWS/RANGE frames within
``PARTITION BY epc ORDER BY rtime`` sequences, evaluated in a single
pass over sorted data.

Execution outline (the batch path, :meth:`WindowOp.batches`):

1. buffer the input and concatenate it column-wise (dictionary codes
   stay intact); sort by (partition keys, order keys) with a stable
   multi-pass index sort over precomputed key columns, unless the
   planner proved the input already carries that order (``presorted`` —
   the paper's "order sharing" optimization); then arrange every column
   into that order once;
2. find the partition spans once: a single key compares neighbouring
   values without building a tuple per row, and a sorted-dictionary key
   compares its integer codes;
3. compute each function's output column in one pass over the whole
   sorted input:

   * ``lag``/``lead`` and one-row ``ROWS`` frames of ``min``/``max``
     (``start == end``, e.g. every singleton reference's ``rows between
     1 preceding and 1 preceding``) are a shifted copy of the argument
     column, with NULL written where the source row falls outside the
     partition;
   * every other frame (the set reference's ``RANGE BETWEEN 1 FOLLOWING
     AND n FOLLOWING`` existential ``max`` among them) computes its
     frame bounds with two monotone pointers and aggregates
     incrementally — running counters for count/sum/avg, a monotonic
     deque for min/max — in one sliding loop that resets at each
     partition start, so the input costs O(n) per function;

4. slice the whole output columns (the input's plus one per function)
   into batches of the requested size.

The tuple-at-a-time path (:meth:`WindowOp.scalar_rows`) keeps the
per-partition evaluation (:meth:`WindowOp._evaluate`) as the reference
the batch kernels are tested against. A ``naive`` mode re-scans the
frame for every row, one partition at a time on both paths; it exists
only for the ablation benchmark contrasting the two strategies.

Partitions are independent, so the whole operator parallelizes per
sequence. That no longer happens here: the planner's shard pass
(``plan.shard``) wraps eligible window pipelines in an Exchange, which
runs this operator per cluster-key morsel inside the database's
persistent worker pool — replacing the fork-per-query pool this module
used to spawn. ``parallel_workers`` is kept as the per-execution
metric: the Exchange sets it to the pool size it used, and serial
executions zero it.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterator, Sequence

from repro.errors import ExecutionError
from repro.minidb.expressions import UNBOUNDED, BatchBound, Expr, WindowFrame
from repro.minidb.plan.physical import (Ordering, PhysicalNode,
                                        _resolve_batch_size)
from repro.minidb.plan.planschema import PlanSchema
from repro.minidb.types import sort_key, sort_key_column
from repro.minidb.vector import (ENCODED_TYPES, DictColumn, RowBatch,
                                 concat_columns)

__all__ = ["WindowOp", "WindowFuncSpec"]


class WindowFuncSpec:
    """One window function, bound and ready to execute."""

    __slots__ = ("name", "argument", "frame", "has_order", "count_star",
                 "offset")

    def __init__(self, name: str, argument: Callable[[tuple], Any] | None,
                 frame: WindowFrame | None, has_order: bool,
                 offset: int = 1) -> None:
        self.name = name
        self.argument = argument
        self.frame = frame
        self.has_order = has_order
        self.count_star = name == "count" and argument is None
        self.offset = offset


class _SumState:
    """Incremental count/sum/avg over a sliding frame."""

    __slots__ = ("values", "lo", "count", "total")

    def __init__(self) -> None:
        self.values: list[Any] = []
        self.lo = 0
        self.count = 0
        self.total: Any = 0

    def add(self, value: Any) -> None:
        self.values.append(value)
        if value is not None:
            self.count += 1
            self.total += value

    def advance_lo(self, lo: int) -> None:
        while self.lo < lo:
            value = self.values[self.lo]
            if value is not None:
                self.count -= 1
                self.total -= value
            self.lo += 1


class _ExtremeState:
    """Incremental min/max via a monotonic deque of (index, value).

    The frame only ever advances (adds on the right, evicts on the
    left), so the deque front always holds the current extreme.
    """

    __slots__ = ("entries", "is_min")

    def __init__(self, is_min: bool) -> None:
        self.entries: deque[tuple[int, Any]] = deque()
        self.is_min = is_min

    def add(self, index: int, value: Any) -> None:
        if value is None:
            return
        if self.is_min:
            while self.entries and self.entries[-1][1] >= value:
                self.entries.pop()
        else:
            while self.entries and self.entries[-1][1] <= value:
                self.entries.pop()
        self.entries.append((index, value))

    def advance_lo(self, lo: int) -> None:
        while self.entries and self.entries[0][0] < lo:
            self.entries.popleft()

    def result(self) -> Any:
        return self.entries[0][1] if self.entries else None


class WindowOp(PhysicalNode):
    """Physical window operator; see module docstring."""

    __slots__ = ("child", "_partition_keys", "_order_keys", "functions",
                 "presorted", "naive", "sorted_rows",
                 "parallel_workers", "_batch_partition", "_batch_order",
                 "_batch_arguments")

    def __init__(self, child: PhysicalNode, schema: PlanSchema,
                 partition_keys: Sequence[Callable[[tuple], Any]],
                 order_keys: Sequence[tuple[Callable[[tuple], Any], bool]],
                 functions: Sequence[WindowFuncSpec],
                 presorted: bool,
                 ordering: Ordering,
                 naive: bool = False,
                 partition_exprs: Sequence[Expr] | None = None,
                 order_exprs: Sequence[Expr] | None = None,
                 argument_exprs: Sequence[Expr | None] | None = None,
                 ) -> None:
        super().__init__()
        self.child = child
        self.schema = schema
        self._partition_keys = list(partition_keys)
        self._order_keys = list(order_keys)
        self.functions = list(functions)
        self._batch_partition: list[BatchBound] | None = None
        self._batch_order: list[BatchBound] | None = None
        self._batch_arguments: list[BatchBound | None] | None = None
        if partition_exprs is not None or order_exprs is not None \
                or argument_exprs is not None:
            resolver = child.schema.resolver()
            if partition_exprs is not None:
                self._batch_partition = [expr.bind_batch(resolver)
                                         for expr in partition_exprs]
            if order_exprs is not None:
                self._batch_order = [expr.bind_batch(resolver)
                                     for expr in order_exprs]
            if argument_exprs is not None:
                self._batch_arguments = [
                    expr.bind_batch(resolver) if expr is not None else None
                    for expr in argument_exprs]
        self.presorted = presorted
        self.ordering = ordering
        self.naive = naive
        self.sorted_rows = 0
        #: Pool size actually used by the last execution (0 = serial);
        #: surfaced through ``ExecutionMetrics`` so tests and the fuzz
        #: oracle can assert the parallel path really ran.
        self.parallel_workers = 0
        for spec in self.functions:
            if spec.frame is not None and spec.frame.mode == "range" \
                    and len(self._order_keys) != 1:
                raise ExecutionError(
                    "RANGE frames require exactly one ORDER BY key")

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.child,)

    def label(self) -> str:
        flags = []
        if self.presorted:
            flags.append("presorted")
        if self.naive:
            flags.append("naive")
        suffix = f" [{', '.join(flags)}]" if flags else ""
        return f"Window({len(self.functions)} fns){suffix}"

    # ------------------------------------------------------------------

    def scalar_rows(self) -> Iterator[tuple]:
        self.parallel_workers = 0
        buffered = list(self.child.rows())
        if not self.presorted:
            self.sorted_rows = len(buffered)
            for key, ascending in reversed(self._order_keys):
                buffered.sort(key=lambda row: sort_key(key(row)),
                              reverse=not ascending)
            if self._partition_keys:
                buffered.sort(key=lambda row: tuple(
                    sort_key(key(row)) for key in self._partition_keys))
        partitions = list(self._partitions(buffered))
        for partition in partitions:
            computed = [self._evaluate(spec, partition)
                        for spec in self.functions]
            for row_index, row in enumerate(partition):
                self.actual_rows += 1
                yield row + tuple(column[row_index] for column in computed)

    # -- vectorized path ----------------------------------------------

    def _eval_columns(self, big: RowBatch,
                      batch_bounds: list[BatchBound] | None,
                      row_bounds: Sequence[Callable[[tuple], Any]],
                      ) -> list[list]:
        if batch_bounds is not None:
            return [bound(big) for bound in batch_bounds]
        in_rows = big.rows()
        return [[bound(row) for row in in_rows] for bound in row_bounds]

    def _sort_order(self, total: int, partition_columns: list[list],
                    order_columns: list[list]) -> list[int]:
        """Row order by (partition keys, order keys).

        Stable multi-pass index sort over precomputed key arrays: order
        keys last-to-first, then the partition key (bare values for a
        single key, a tuple per row only for composite keys), matching
        the scalar path's per-pass row sorts.
        """
        order = list(range(total))
        for column, (_, ascending) in zip(reversed(order_columns),
                                          reversed(self._order_keys)):
            keyed = sort_key_column(column)
            order.sort(key=keyed.__getitem__, reverse=not ascending)
        if len(partition_columns) == 1:
            keyed = sort_key_column(partition_columns[0])
            order.sort(key=keyed.__getitem__)
        elif partition_columns:
            composite = list(zip(*[sort_key_column(column)
                                   for column in partition_columns]))
            order.sort(key=composite.__getitem__)
        return order

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        self.parallel_workers = 0
        size = _resolve_batch_size(size)
        width_in = len(self.child.schema)
        collected = list(self.child.batches(size))
        total = sum(batch.length for batch in collected)
        if not self.presorted:
            self.sorted_rows = total
        if not total:
            return
        # Column-wise concat keeps dictionary codes intact: sort keys and
        # partition boundaries on a sorted-dictionary column compare ints.
        big = concat_columns(collected, width_in)
        del collected
        partition_columns = self._eval_columns(
            big, self._batch_partition, self._partition_keys)
        order_columns = self._eval_columns(
            big, self._batch_order, [key for key, _ in self._order_keys])
        argument_columns: list[list | None] = []
        for index, spec in enumerate(self.functions):
            if spec.argument is None:
                argument_columns.append(None)
            elif self._batch_arguments is not None \
                    and self._batch_arguments[index] is not None:
                argument_columns.append(self._batch_arguments[index](big))
            else:
                argument_columns.append(
                    [spec.argument(row) for row in big.rows()])
        order = None if self.presorted else \
            self._sort_order(total, partition_columns, order_columns)
        # Every column is arranged (decoded, and gathered into sorted
        # order) once, however many roles it plays: a bare column
        # argument is the very list of the input column it names.
        arranged: dict[int, tuple[Any, list]] = {}

        def arrange(column: Any) -> list:
            entry = arranged.get(id(column))
            if entry is None:
                plain = column.decode() \
                    if isinstance(column, ENCODED_TYPES) else column
                if order is not None:
                    plain = [plain[i] for i in order]
                entry = arranged[id(column)] = (column, plain)
            return entry[1]

        out_columns = [arrange(column) for column in big.columns]
        spans = self._spans(total, partition_columns, order, arrange)
        order_values = arrange(order_columns[0]) if order_columns else None
        for index, spec in enumerate(self.functions):
            arguments = argument_columns[index]
            out_columns.append(self._window_column(
                spec, spans, total, order_values,
                None if arguments is None else arrange(arguments)))
        for lo in range(0, total, size):
            hi = min(lo + size, total)
            chunk = out_columns if lo == 0 and hi == total else \
                [column[lo:hi] for column in out_columns]
            self.actual_rows += hi - lo
            self.actual_batches += 1
            yield RowBatch(chunk, hi - lo)

    def _spans(self, total: int, partition_columns: list[list],
               order: list[int] | None,
               arrange: Callable[[Any], list]) -> list[tuple[int, int]]:
        """Contiguous ``(start, end)`` spans of equal partition keys.

        A single key compares neighbouring values directly (a sorted
        dictionary compares its integer codes, which are equal exactly
        when the values are); only composite keys build a tuple per row.
        Equality is the scalar path's tuple equality: identical or ``==``.
        """
        if not partition_columns:
            return [(0, total)]
        if len(partition_columns) > 1:
            keys: list = list(zip(*[arrange(column)
                                    for column in partition_columns]))
        else:
            column = partition_columns[0]
            if type(column) is DictColumn and column.sorted:
                keys = column.codes
                if order is not None:
                    keys = [keys[i] for i in order]
            else:
                keys = arrange(column)
        starts = [0]
        starts += [index for index, (previous, current)
                   in enumerate(zip(keys, keys[1:]), 1)
                   if current != previous and current is not previous]
        return list(zip(starts, starts[1:] + [total]))

    def _window_column(self, spec: WindowFuncSpec,
                       spans: list[tuple[int, int]], total: int,
                       order_values: list | None,
                       arguments: list | None) -> list:
        """One function's output column over the whole sorted input."""
        name = spec.name
        if name == "row_number":
            numbers: list[int] = []
            for start, end in spans:
                numbers.extend(range(1, end - start + 1))
            return numbers
        if name in ("lag", "lead"):
            if arguments is None:
                raise ExecutionError(f"{name}() requires an argument")
            return _shifted(arguments, spans,
                            -spec.offset if name == "lag" else spec.offset)
        if self.naive:
            # The ablation keeps its per-row rescan, one partition at a
            # time through the scalar reference.
            out: list = []
            for start, end in spans:
                out.extend(self._evaluate_naive(
                    spec, end - start,
                    None if order_values is None
                    else order_values[start:end],
                    None if arguments is None else arguments[start:end]))
            return out
        frame = spec.frame
        if name in ("min", "max") and frame is not None \
                and frame.mode == "rows" and frame.start == frame.end \
                and frame.start != UNBOUNDED:
            # A one-row frame holds exactly the row at that offset.
            return _shifted(arguments, spans, int(frame.start))
        los, his = self._frame_columns(spec, spans, total, order_values)
        if name in ("min", "max"):
            return _extreme_column(name == "min", spans, los, his,
                                   arguments)
        return _sum_column(spec, spans, los, his, arguments)

    def _frame_columns(self, spec: WindowFuncSpec,
                       spans: list[tuple[int, int]], total: int,
                       order_values: list | None,
                       ) -> tuple[list[int], list[int]]:
        """Inclusive frame bounds ``(los, his)`` for every row.

        Absolute row indices, with the pointers reset at each partition
        start; both are nondecreasing within a partition and an empty
        frame has ``lo > hi`` (the semantics of :meth:`_frame_bounds`).
        """
        los = [0] * total
        his = [0] * total
        frame = spec.frame
        if frame is None and not spec.has_order:
            for start, end in spans:
                los[start:end] = [start] * (end - start)
                his[start:end] = [end - 1] * (end - start)
            return los, his
        if frame is None:
            # RANGE UNBOUNDED PRECEDING .. CURRENT ROW: the frame ends
            # with the current row's last peer.
            values = order_values
            for start, end in spans:
                hi = start
                for index in range(start, end):
                    if hi < index:
                        hi = index
                    while hi + 1 < end and values[hi + 1] == values[index]:
                        hi += 1
                    los[index] = start
                    his[index] = hi
            return los, his
        low, high = frame.start, frame.end
        if frame.mode == "rows":
            low = None if low == UNBOUNDED else int(low)
            high = None if high == UNBOUNDED else int(high)
            for start, end in spans:
                last = end - 1
                for index in range(start, end):
                    los[index] = start if low is None \
                        else max(start, index + low)
                    his[index] = last if high is None \
                        else min(last, index + high)
            return los, his
        values = _ascending(order_values, self._order_keys[0][1])
        for start, end in spans:
            first, stop = _non_null_block(values, start, end)
            lo = first
            hi = first - 1
            for index in range(start, end):
                center = values[index]
                if center is None:
                    # NULL keys are one peer group of their own.
                    if index < first:
                        los[index], his[index] = start, first - 1
                    else:
                        los[index], his[index] = stop, end - 1
                    continue
                if low == UNBOUNDED:
                    los[index] = start
                else:
                    low_value = center + low
                    while lo < stop and values[lo] < low_value:
                        lo += 1
                    los[index] = lo
                if high == UNBOUNDED:
                    his[index] = end - 1
                else:
                    high_value = center + high
                    while hi + 1 < stop and values[hi + 1] <= high_value:
                        hi += 1
                    his[index] = hi
        return los, his

    def _partitions(self, rows: list[tuple]) -> Iterator[list[tuple]]:
        if not rows:
            return
        if not self._partition_keys:
            yield rows
            return
        keys = self._partition_keys
        start = 0
        current = tuple(key(rows[0]) for key in keys)
        for index in range(1, len(rows)):
            candidate = tuple(key(rows[index]) for key in keys)
            if candidate != current:
                yield rows[start:index]
                start = index
                current = candidate
        yield rows[start:]

    # ------------------------------------------------------------------

    def _order_values(self, partition: list[tuple]) -> list[Any]:
        """The first order key's values, in partition order."""
        key, _ = self._order_keys[0]
        return [key(row) for row in partition]

    def _frame_bounds(self, spec: WindowFuncSpec, size: int,
                      order_values: list[Any] | None,
                      ) -> Iterator[tuple[int, int]]:
        """Yield inclusive (lo, hi) frame indices for each row in order.

        Both bounds are monotonically nondecreasing across rows, which the
        incremental aggregation relies on. An empty frame is signalled by
        lo > hi.
        """
        frame = spec.frame
        if frame is None:
            if not spec.has_order:
                for _ in range(size):
                    yield 0, size - 1
                return
            # Default frame: RANGE UNBOUNDED PRECEDING .. CURRENT ROW,
            # which includes the full peer group of the current row.
            values = order_values if order_values is not None else []
            hi = 0
            for index in range(size):
                if hi < index:
                    hi = index
                while hi + 1 < size and values[hi + 1] == values[index]:
                    hi += 1
                yield 0, hi
            return
        if frame.mode == "rows":
            for index in range(size):
                lo = 0 if frame.start == UNBOUNDED \
                    else max(0, index + int(frame.start))
                hi = size - 1 if frame.end == UNBOUNDED \
                    else min(size - 1, index + int(frame.end))
                yield lo, hi
            return
        # RANGE mode with value offsets on a single numeric order key,
        # normalized to ascend. NULL keys sort first (ascending) or last
        # (descending); rows with a NULL key form their own peer group,
        # and value-bounded frames of non-NULL rows never include them.
        assert order_values is not None
        values = _ascending(order_values, self._order_keys[0][1])
        first, stop = _non_null_block(values, 0, size)
        lo = first
        hi = first - 1
        for index in range(size):
            center = values[index]
            if center is None:
                yield (0, first - 1) if index < first else (stop, size - 1)
                continue
            if frame.start == UNBOUNDED:
                target_lo = 0
            else:
                low_value = center + frame.start
                while lo < stop and values[lo] < low_value:
                    lo += 1
                target_lo = lo
            if frame.end == UNBOUNDED:
                target_hi = size - 1
            else:
                high_value = center + frame.end
                while hi + 1 < stop and values[hi + 1] <= high_value:
                    hi += 1
                target_hi = hi
            yield target_lo, target_hi

    # ------------------------------------------------------------------

    def _evaluate(self, spec: WindowFuncSpec,
                  partition: list[tuple]) -> list[Any]:
        """Window column for one partition (the scalar reference)."""
        size = len(partition)
        if spec.name == "row_number":
            return list(range(1, size + 1))
        if spec.name in ("lag", "lead"):
            argument = spec.argument
            if argument is None:
                raise ExecutionError(f"{spec.name}() requires an argument")
            values = [argument(row) for row in partition]
            offset = spec.offset
            if offset == 0:
                return values
            padding = [None] * min(offset, size)
            if spec.name == "lag":
                return padding + values[:size - offset]
            return values[offset:] + padding
        order_values = self._order_values(partition) \
            if self._order_keys else None
        arguments = None if spec.count_star \
            else [spec.argument(row) for row in partition]
        if self.naive:
            return self._evaluate_naive(spec, size, order_values, arguments)
        return self._evaluate_sliding(spec, size, order_values, arguments)

    def _evaluate_sliding(self, spec: WindowFuncSpec, size: int,
                          order_values: list[Any] | None,
                          arguments: list[Any] | None) -> list[Any]:
        results: list[Any] = []
        bounds = self._frame_bounds(spec, size, order_values)
        if spec.name in ("min", "max"):
            state = _ExtremeState(is_min=spec.name == "min")
            added = -1
            for lo, hi in bounds:
                while added < hi:
                    added += 1
                    state.add(added, arguments[added])
                state.advance_lo(min(lo, added + 1))
                if lo > hi:
                    results.append(None)
                else:
                    results.append(state.result())
            return results
        state = _SumState()
        added = -1
        for lo, hi in bounds:
            while added < hi:
                added += 1
                if spec.count_star:
                    state.add(1)
                else:
                    state.add(arguments[added])
            state.advance_lo(min(lo, added + 1))
            if lo > hi:
                results.append(0 if spec.name == "count" else None)
                continue
            if spec.name == "count":
                results.append((hi - lo + 1) if spec.count_star
                               else state.count)
            elif spec.name == "sum":
                results.append(state.total if state.count else None)
            else:  # avg
                results.append(state.total / state.count
                               if state.count else None)
        return results

    def _evaluate_naive(self, spec: WindowFuncSpec, size: int,
                        order_values: list[Any] | None,
                        arguments: list[Any] | None) -> list[Any]:
        """Reference implementation: rescan the frame for every row."""
        results: list[Any] = []
        for lo, hi in self._frame_bounds(spec, size, order_values):
            if lo > hi:
                results.append(0 if spec.name == "count" else None)
                continue
            if spec.count_star:
                results.append(hi - lo + 1)
                continue
            window = [value for value in arguments[lo:hi + 1]
                      if value is not None]
            if spec.name == "count":
                results.append(len(window))
            elif not window:
                results.append(None)
            elif spec.name == "sum":
                results.append(sum(window))
            elif spec.name == "avg":
                results.append(sum(window) / len(window))
            elif spec.name == "min":
                results.append(min(window))
            else:
                results.append(max(window))
        return results


# -- whole-input kernels -----------------------------------------------


def _shifted(values: list, spans: list[tuple[int, int]],
             offset: int) -> list:
    """``values[i + offset]`` for every row ``i``, NULL where that row
    falls outside ``i``'s partition: lag/lead and one-row frames.

    One whole-column slice, then NULL written over the first (or last)
    ``|offset|`` rows of each partition.
    """
    if offset == 0:
        return values
    total = len(values)
    distance = abs(offset)
    if distance >= total:
        return [None] * total
    if offset < 0:
        out = [None] * distance + values[:total - distance]
        if distance == 1:
            for start, _ in spans:
                out[start] = None
        else:
            for start, end in spans:
                for index in range(start, min(start + distance, end)):
                    out[index] = None
        return out
    out = values[distance:] + [None] * distance
    if distance == 1:
        for _, end in spans:
            out[end - 1] = None
    else:
        for start, end in spans:
            for index in range(max(end - distance, start), end):
                out[index] = None
    return out


def _extreme_column(is_min: bool, spans: list[tuple[int, int]],
                    los: list[int], his: list[int],
                    arguments: list) -> list:
    """Sliding min/max: a monotonic deque of ``(index, value)`` that
    resets at each partition start; the front is the frame's extreme."""
    out: list = [None] * len(los)
    entries: deque[tuple[int, Any]] = deque()
    for start, end in spans:
        entries.clear()
        added = start - 1
        for index in range(start, end):
            lo = los[index]
            hi = his[index]
            while added < hi:
                added += 1
                value = arguments[added]
                if value is None:
                    continue
                if is_min:
                    while entries and entries[-1][1] >= value:
                        entries.pop()
                else:
                    while entries and entries[-1][1] <= value:
                        entries.pop()
                entries.append((added, value))
            while entries and entries[0][0] < lo:
                entries.popleft()
            if lo <= hi and entries:
                out[index] = entries[0][1]
    return out


def _sum_column(spec: WindowFuncSpec, spans: list[tuple[int, int]],
                los: list[int], his: list[int],
                arguments: list | None) -> list:
    """Sliding count/sum/avg: running counters that reset at each
    partition start, adding rows on the right and dropping on the left."""
    name = spec.name
    count_star = spec.count_star
    out: list = [0 if name == "count" else None] * len(los)
    for start, end in spans:
        count = 0
        running: Any = 0
        added = start - 1
        dropped = start
        for index in range(start, end):
            lo = los[index]
            hi = his[index]
            while added < hi:
                added += 1
                value = 1 if count_star else arguments[added]
                if value is not None:
                    count += 1
                    running += value
            limit = min(lo, added + 1)
            while dropped < limit:
                value = 1 if count_star else arguments[dropped]
                if value is not None:
                    count -= 1
                    running -= value
                dropped += 1
            if lo > hi:
                continue
            if name == "count":
                out[index] = (hi - lo + 1) if count_star else count
            elif name == "sum":
                out[index] = running if count else None
            else:  # avg
                out[index] = running / count if count else None
    return out


def _ascending(values: list, ascending: bool) -> list:
    """Order-key values normalized to ascend (descending keys negate)."""
    if ascending:
        return values
    return [None if value is None else -value for value in values]


def _non_null_block(values: list, start: int, end: int) -> tuple[int, int]:
    """``[first, stop)``: the non-NULL run of one sorted partition.

    NULL keys lead an ascending partition and trail a descending one.
    """
    first = start
    while first < end and values[first] is None:
        first += 1
    stop = end
    if first == start:
        while stop > start and values[stop - 1] is None:
            stop -= 1
    return first, stop
