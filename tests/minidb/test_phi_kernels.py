"""Parity of the Φ_C batch kernels with their references.

The cleansing chain every rule compiles into is a sort, window and
action-filter pipeline. Its batch path runs whole-input kernels: one
pass per window function over the whole sorted input (a shifted copy
for one-row frames and lag/lead, one partition-resetting sliding loop
for every other frame), and a batch kernel for CASE. The scalar path
stays as the reference: ``WindowOp`` keeps its per-partition
``scalar_rows`` evaluation (sliding and naive), and every expression
keeps its row-bound ``bind`` closure. These property
tests pin the batch kernels, and the CASE emit forms the query
compiler fuses, to those references.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TypeMismatchError
from repro.minidb.codegen import forced_codegen
from repro.minidb.codegen.pipeline import _KERNEL_NAMESPACE
from repro.minidb.expressions import (
    UNBOUNDED,
    BinaryOp,
    Case,
    ColumnRef,
    EmitContext,
    IsNull,
    WindowFrame,
    column,
    lit,
)
from repro.minidb.plan.physical import PhysicalNode
from repro.minidb.plan.planschema import Field, PlanSchema
from repro.minidb.plan.window import WindowFuncSpec, WindowOp
from repro.minidb.types import SqlType, sort_key
from repro.minidb.vector import DictColumn, RLEColumn, RowBatch

# -- window functions ----------------------------------------------------

WINDOW_FIELDS = PlanSchema([Field("g", SqlType.VARCHAR),
                            Field("t", SqlType.INTEGER),
                            Field("v", SqlType.INTEGER)])


class Source(PhysicalNode):
    """Serves fixed (plain or encoded) columns in batches."""

    def __init__(self, columns: list, length: int) -> None:
        super().__init__()
        self.schema = WINDOW_FIELDS
        self.columns = columns
        self.length = length

    def scalar_rows(self):
        yield from RowBatch(self.columns, self.length).rows()

    def batches(self, size=None):
        size = size or 1024
        for lo in range(0, self.length, size):
            hi = min(lo + size, self.length)
            yield RowBatch([piece[lo:hi] for piece in self.columns], hi - lo)


def dictionary(values: list, ordered: bool) -> DictColumn:
    """Dictionary-encode *values*; ``ordered=False`` keeps first-seen
    order, leaving the dictionary unsorted (codes are not comparable)."""
    distinct = [value for value in dict.fromkeys(values) if value is not None]
    if ordered:
        distinct.sort()
    codes = {value: code for code, value in enumerate(distinct, start=1)}
    return DictColumn([0 if value is None else codes[value]
                       for value in values], [None] + distinct,
                      is_sorted=ordered)


def window_op(rows, name, argument, frame, offset, descending, presorted,
              key_encoding, rle_argument, naive=False) -> WindowOp:
    columns = [list(values) for values in zip(*rows)] if rows \
        else [[], [], []]
    if key_encoding != "plain":
        columns[0] = dictionary(columns[0], key_encoding == "sorted-dict")
    if rle_argument:
        columns[2] = RLEColumn.from_values(columns[2])
    source = Source(columns, len(rows))
    resolver = WINDOW_FIELDS.resolver()
    g, t = ColumnRef("g"), ColumnRef("t")
    arg = ColumnRef(argument) if argument is not None else None
    spec = WindowFuncSpec(name, arg.bind(resolver) if arg else None, frame,
                          has_order=True, offset=offset)
    return WindowOp(source, WINDOW_FIELDS.append(Field("w", SqlType.DOUBLE)),
                    [g.bind(resolver)], [(t.bind(resolver), not descending)],
                    [spec], presorted=presorted, ordering=(), naive=naive,
                    partition_exprs=[g], order_exprs=[t],
                    argument_exprs=[arg])


def sort_like_the_operator(rows, descending):
    rows = sorted(rows, key=lambda row: sort_key(row[1]), reverse=descending)
    return sorted(rows, key=lambda row: sort_key(row[0]))


def batch_rows(op, size):
    return [row for batch in op.batches(size) for row in batch.rows()]


offsets = st.one_of(st.integers(-3, 3), st.just(UNBOUNDED))
rows_strategy = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "d", None]),
              st.one_of(st.none(), st.integers(-4, 8)),
              st.one_of(st.none(), st.integers(-5, 5))),
    max_size=24)


@st.composite
def window_calls(draw):
    """(name, argument, frame, offset) covering every kernel path."""
    kind = draw(st.sampled_from(["shift", "one-row", "rows", "range",
                                 "default", "count-star", "row-number"]))
    aggregate = st.sampled_from(["min", "max", "sum", "avg", "count"])
    if kind == "shift":
        return (draw(st.sampled_from(["lag", "lead"])),
                draw(st.sampled_from(["v", "t"])), None,
                draw(st.integers(0, 3)))
    if kind == "one-row":
        at = draw(st.integers(-3, 3))
        return (draw(aggregate), "v", WindowFrame("rows", at, at), 1)
    if kind == "count-star":
        mode = draw(st.sampled_from(["rows", "range"]))
        return ("count", None,
                WindowFrame(mode, draw(offsets), draw(offsets)), 1)
    if kind == "row-number":
        return ("row_number", None, None, 1)
    if kind == "default":
        return (draw(aggregate), "v", None, 1)
    return (draw(aggregate), "v",
            WindowFrame(kind, draw(offsets), draw(offsets)), 1)


@settings(max_examples=300, deadline=None)
@given(rows=rows_strategy, call=window_calls(), descending=st.booleans(),
       presorted=st.booleans(),
       key_encoding=st.sampled_from(["plain", "sorted-dict",
                                     "unsorted-dict"]),
       rle_argument=st.booleans(), size=st.sampled_from([1, 3, 1024]))
def test_window_batch_path_matches_scalar_and_naive(
        rows, call, descending, presorted, key_encoding, rle_argument, size):
    if presorted:
        rows = sort_like_the_operator(rows, descending)
    name, argument, frame, offset = call
    args = (rows, name, argument, frame, offset, descending, presorted,
            key_encoding, rle_argument)
    reference = list(window_op(*args).scalar_rows())
    naive = list(window_op(*args, naive=True).scalar_rows())
    assert reference == naive
    assert batch_rows(window_op(*args), size) == reference
    assert batch_rows(window_op(*args, naive=True), size) == reference


@pytest.mark.parametrize("name,frame,offset,expected", [
    # Partitions a=[1,2,3], b=[4] (sizes 3 and 1), offsets beyond both.
    ("lag", None, 2, [None, None, 1, None]),
    ("lead", None, 3, [None, None, None, None]),
    ("max", WindowFrame("rows", -1, -1), 1, [None, 1, 2, None]),
    ("min", WindowFrame("rows", 2, 2), 1, [3, None, None, None]),
    ("sum", WindowFrame("rows", 0, 0), 1, [1, 2, 3, 4]),
    ("avg", WindowFrame("rows", 1, 1), 1, [2.0, 3.0, None, None]),
    ("count", WindowFrame("rows", -1, -1), 1, [0, 1, 1, 0]),
])
def test_one_row_frames_and_short_partitions(name, frame, offset, expected):
    rows = [("a", 1, 1), ("a", 2, 2), ("a", 3, 3), ("b", 1, 4)]
    for presorted in (True, False):
        op = window_op(rows, name, "v", frame, offset, False, presorted,
                       "sorted-dict", False)
        got = [row[-1] for row in batch_rows(op, 2)]
        assert got == expected
        assert [type(value) for value in got] \
            == [type(value) for value in expected]


def test_descending_range_frame_with_null_keys():
    """NULL order keys trail a descending partition and form their own
    peer group; they are never compared with numbers."""
    rows = [("a", None, 1), ("a", 5, 2), ("a", 7, 3), ("a", None, 4)]
    frame = WindowFrame("range", -1, 3)
    op = window_op(rows, "sum", "v", frame, 1, True, False, "plain", False)
    assert list(op.scalar_rows()) == [("a", 7, 3, 5), ("a", 5, 2, 2),
                                      ("a", None, 1, 5), ("a", None, 4, 5)]
    assert batch_rows(op, 1024) == list(op.scalar_rows())


def test_descending_default_frame_on_text_key():
    """Peers only need equality, so a DESC text order key works."""
    rows = [("a", None, 1), ("b", None, 2), ("b", None, 3)]
    resolver = WINDOW_FIELDS.resolver()
    g, v = ColumnRef("g"), ColumnRef("v")
    spec = WindowFuncSpec("sum", v.bind(resolver), None, has_order=True)
    op = WindowOp(Source([list(values) for values in zip(*rows)], 3),
                  WINDOW_FIELDS.append(Field("w", SqlType.INTEGER)), [],
                  [(g.bind(resolver), False)], [spec], presorted=False,
                  ordering=(), order_exprs=[g], argument_exprs=[v])
    expected = [("b", None, 2, 5), ("b", None, 3, 5), ("a", None, 1, 6)]
    assert list(op.scalar_rows()) == expected
    assert batch_rows(op, 2) == expected


# -- CASE ----------------------------------------------------------------

EXPR_FIELDS = PlanSchema([Field("x", SqlType.INTEGER),
                          Field("y", SqlType.INTEGER),
                          Field("s", SqlType.VARCHAR),
                          Field("b", SqlType.BOOLEAN)])
x, y, s, b = column("x"), column("y"), column("s"), column("b")


def div(left, right):
    return BinaryOp("/", left, right)


EXPRESSIONS = [
    # Action filter and existential flag shapes.
    Case(((BinaryOp("=", x, y), lit(False)),), lit(True)),
    Case(((b, lit(1)),), lit(0)),
    Case(((BinaryOp(">", x, lit(None)), lit(1)),), lit(2)),
    # Several WHENs, no ELSE, column and computed branches.
    Case(((BinaryOp(">", x, lit(0)), lit("pos")),
          (BinaryOp("<", x, lit(0)), lit("neg"))), lit("zero")),
    Case(((BinaryOp(">", x, lit(0)), y),)),
    Case(((IsNull(b), y), (b, x)), BinaryOp("+", x, y)),
    Case(((BinaryOp("=", s, lit("a")), lit("A")),), s),
    # Raising branches and conditions, evaluated only where reached.
    Case(((BinaryOp("!=", x, lit(0)), div(lit(10), x)),)),
    Case(((BinaryOp("=", x, lit(0)), lit(0)),
          (BinaryOp(">", div(lit(10), x), lit(1)), lit(1))), x),
    Case(((BinaryOp("=", y, lit(0)), lit(None)),), div(x, y)),
    Case(((b, div(x, y)),), lit(-1)),
    # Nested: a CASE inside a comparison.
    BinaryOp("=", Case(((BinaryOp(">", x, lit(2)), y),), lit(1)), lit(1)),
]

expr_rows = st.lists(
    st.tuples(st.one_of(st.none(), st.integers(-3, 3)),
              st.one_of(st.none(), st.integers(-3, 3)),
              st.one_of(st.none(), st.sampled_from(["a", "ab", "Ba", "b"])),
              st.one_of(st.none(), st.booleans())),
    min_size=1, max_size=20)


def outcome(thunk):
    try:
        return "ok", list(thunk())
    except TypeMismatchError as error:
        return "error", str(error)


def encode_batch(rows, encoding):
    columns = [list(values) for values in zip(*rows)]
    if encoding == "dict":
        columns = [dictionary(values, ordered=position != 3)
                   for position, values in enumerate(columns)]
    elif encoding == "rle":
        columns = [RLEColumn.from_values(values) for values in columns]
    return RowBatch(columns, len(rows))


def emitted(expr, truth=False):
    """The expression's emit form as a row function."""
    ctx = EmitContext(lambda qualifier, name:
                      f"_row[{EXPR_FIELDS.resolve(qualifier, name)}]")
    body = expr.emit_truth(ctx) if truth else expr.emit_value(ctx)
    return eval(f"lambda _row: {body}", dict(_KERNEL_NAMESPACE))


@settings(max_examples=60, deadline=None)
@given(rows=expr_rows, encoding=st.sampled_from(["plain", "dict", "rle"]))
@pytest.mark.parametrize("expr", EXPRESSIONS, ids=str)
def test_batch_kernel_and_emit_forms_match_bind(expr, rows, encoding):
    resolver = EXPR_FIELDS.resolver()
    bound = expr.bind(resolver)
    reference = outcome(lambda: [bound(row) for row in rows])
    batch = encode_batch(rows, encoding)
    assert outcome(lambda: expr.bind_batch(resolver)(batch)) == reference
    value_form, truth_form = emitted(expr), emitted(expr, truth=True)
    assert outcome(lambda: [value_form(row) for row in rows]) == reference
    truths = outcome(lambda: [truth_form(row) for row in rows])
    if reference[0] == "ok":
        reference = "ok", [value is True for value in reference[1]]
    assert truths == reference


def test_guarded_division_never_raises():
    expr = Case(((BinaryOp("!=", x, lit(0)), div(lit(10), x)),))
    rows = [(0, None, None, None), (5, None, None, None),
            (None, None, None, None), (0, None, None, None)]
    resolver = EXPR_FIELDS.resolver()
    for encoding in ("plain", "dict", "rle"):
        batch = encode_batch(rows, encoding)
        assert list(expr.bind_batch(resolver)(batch)) == [None, 2, None,
                                                          None]
    assert [emitted(expr)(row) for row in rows] == [None, 2, None, None]


def test_case_kernel_maps_dictionary_values(monkeypatch):
    """A one-WHEN literal CASE over a dictionary condition stays a
    dictionary: one truth test per distinct value."""
    monkeypatch.delenv("REPRO_VECTOR_FALLBACK", raising=False)
    expr = Case(((BinaryOp("=", s, lit("a")), lit(False)),), lit(True))
    rows = [(None, None, "a", None), (None, None, "b", None),
            (None, None, None, None), (None, None, "a", None)]
    result = expr.bind_batch(EXPR_FIELDS.resolver())(
        encode_batch(rows, "dict"))
    assert isinstance(result, DictColumn)
    assert list(result) == [False, True, True, False]


def test_vector_fallback_routes_case_elementwise(monkeypatch):
    monkeypatch.setenv("REPRO_VECTOR_FALLBACK", "1")
    resolver = EXPR_FIELDS.resolver()
    for expr in (EXPRESSIONS[0], EXPRESSIONS[3]):
        assert expr.bind_batch(resolver).__name__ == "elementwise"
    monkeypatch.delenv("REPRO_VECTOR_FALLBACK")
    for expr in (EXPRESSIONS[0], EXPRESSIONS[3]):
        assert expr.bind_batch(resolver).__name__ != "elementwise"


def test_cleansed_action_filter_runs_in_a_fused_spine():
    from repro.minidb import Database, SqlType as T, TableSchema
    from repro.rewrite import DeferredCleansingEngine
    from repro.sqlts import RuleRegistry

    db = Database()
    db.create_table("caser", TableSchema.of(
        ("epc", T.VARCHAR), ("rtime", T.TIMESTAMP), ("reader", T.VARCHAR),
        ("biz_loc", T.VARCHAR), ("biz_step", T.VARCHAR)))
    db.load("caser", [("e1", 10, "r1", "L1", "s"), ("e1", 20, "r1", "L1", "s"),
                      ("e2", 10, "r2", "L2", "s")])
    registry = RuleRegistry(db)
    registry.define("""
        DEFINE duplicate_rule ON caser CLUSTER BY epc SEQUENCE BY rtime
        AS (A, B) WHERE A.biz_loc = B.biz_loc AND B.rtime - A.rtime < 60 seconds
        ACTION DELETE B""")
    engine = DeferredCleansingEngine(db, registry)
    sql = "select epc, rtime from caser where rtime <= 15"
    try:
        with forced_codegen(True):
            result = engine.rewrite(sql, strategies={"naive"})
            text = db.explain_codegen(result.chosen.logical)
            rows = engine.execute(sql, strategies={"naive"}).rows
        assert any(line.startswith("#   Filter(") and "CASE WHEN" in line
                   for line in text.splitlines())
        assert sorted(rows) == [("e1", 10), ("e2", 10)]
    finally:
        db.close()
