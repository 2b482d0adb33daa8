"""Parity of the hash aggregate's batch path with its row path.

``AggregateOp.batches`` numbers each chunk's rows by group and folds
whole argument columns into per-group accumulators; ``scalar_rows``
folds one row at a time into per-group states. Both must produce the
same groups, in the same first-seen order, with bit-identical values
(float sums fold in row order on both paths).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minidb.expressions import ColumnRef
from repro.minidb.plan.physical import AggregateOp, PhysicalNode
from repro.minidb.plan.planschema import Field, PlanSchema
from repro.minidb.types import SqlType
from repro.minidb.vector import DictColumn, RLEColumn, RowBatch

FIELDS = PlanSchema([Field("g", SqlType.VARCHAR),
                     Field("h", SqlType.INTEGER),
                     Field("v", SqlType.DOUBLE),
                     Field("i", SqlType.INTEGER)])

AGGREGATES = [("count", None, False), ("count", "v", False),
              ("count", "i", True), ("sum", "v", False),
              ("sum", "i", True), ("avg", "v", False), ("avg", "i", False),
              ("min", "v", False), ("max", "i", False),
              ("min", "g", False), ("max", "g", True)]


class Source(PhysicalNode):
    """Serves fixed (plain or encoded) columns in batches."""

    def __init__(self, columns: list, length: int) -> None:
        super().__init__()
        self.schema = FIELDS
        self.columns = columns
        self.length = length

    def scalar_rows(self):
        yield from RowBatch(self.columns, self.length).rows()

    def batches(self, size=None):
        size = size or 1024
        for lo in range(0, self.length, size):
            hi = min(lo + size, self.length)
            yield RowBatch([piece[lo:hi] for piece in self.columns], hi - lo)


def encode(values: list, encoding: str):
    if encoding == "rle":
        return RLEColumn.from_values(values)
    if encoding == "dict":
        distinct = sorted(value for value in dict.fromkeys(values)
                          if value is not None)
        codes = {value: code for code, value in enumerate(distinct, start=1)}
        return DictColumn([0 if value is None else codes[value]
                           for value in values], [None] + distinct,
                          is_sorted=True)
    return values


def aggregate(rows, keys, encoding):
    columns = [list(values) for values in zip(*rows)] if rows \
        else [[], [], [], []]
    columns[0] = encode(columns[0], encoding)
    columns[2] = encode(columns[2], encoding)
    resolver = FIELDS.resolver()
    group_exprs = [ColumnRef(name) for name in keys]
    argument_exprs = [ColumnRef(argument) if argument else None
                      for _, argument, _ in AGGREGATES]
    specs = [(name, expr.bind(resolver) if expr else None, distinct)
             for (name, _, distinct), expr
             in zip(AGGREGATES, argument_exprs)]
    schema = PlanSchema([Field(name, SqlType.VARCHAR) for name in keys]
                        + [Field(f"a{n}", SqlType.DOUBLE)
                           for n in range(len(AGGREGATES))])
    return AggregateOp(Source(columns, len(rows)), schema,
                       [expr.bind(resolver) for expr in group_exprs], specs,
                       group_exprs=group_exprs,
                       argument_exprs=argument_exprs)


def exact(rows):
    """Rows with floats by their repr, so -0.0 and 0.0 differ."""
    return [tuple(repr(value) if isinstance(value, float) else value
                  for value in row) for row in rows]


rows_strategy = st.lists(
    st.tuples(st.one_of(st.none(), st.sampled_from(["a", "b", "c"])),
              st.one_of(st.none(), st.integers(0, 2)),
              st.one_of(st.none(), st.sampled_from(
                  [0.1, 0.2, 0.7, -0.0, 0.0, 1e16, 1.0, 3.0])),
              st.one_of(st.none(), st.integers(-2, 2))),
    max_size=40)


@settings(max_examples=80, deadline=None)
@given(rows=rows_strategy,
       keys=st.sampled_from([(), ("g",), ("h",), ("g", "h"), ("v",)]),
       encoding=st.sampled_from(["plain", "dict", "rle"]),
       size=st.sampled_from([1, 3, 1024]))
def test_batch_path_matches_row_path(rows, keys, encoding, size):
    expected = exact(aggregate(rows, keys, encoding).scalar_rows())
    op = aggregate(rows, keys, encoding)
    got = [row for batch in op.batches(size) for row in batch.rows()]
    assert exact(got) == expected
    assert op.actual_rows == len(expected)


@pytest.mark.parametrize("size", [1, 1024])
def test_global_aggregate_of_no_rows_is_one_row(size):
    op = aggregate([], (), "plain")
    got = [row for batch in op.batches(size) for row in batch.rows()]
    assert got == [(0, 0, 0, None, None, None, None, None, None, None, None)]


def test_grouped_aggregate_of_no_rows_is_empty():
    assert list(aggregate([], ("g",), "plain").batches(8)) == []
