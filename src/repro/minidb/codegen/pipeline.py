"""Fusing physical-plan spines into generated Python kernels.

``apply_codegen`` walks a freshly lowered plan (before the shard
post-pass) and replaces every maximal fusible spine with a
:class:`CompiledSpineOp`. A spine is a chain of Filter / Project /
PassThrough operators with at most one hash join in the middle::

    Top := (Filter | Project | PassThrough)*
           (HashJoin (Filter | Project | PassThrough)*)?
           Source

The wrapper keeps the original subtree as its ``child`` (EXPLAIN, walk
indices and the shard segment discovery are unchanged), but executes a
single generated loop per column chunk instead of pulling a
:class:`RowBatch` through every operator. Expressions are emitted via
:meth:`Expr.emit_value` / :meth:`Expr.emit_truth`; any node without an
emitter (scalar functions, subqueries, …) simply ends the spine
there — the operators outside the kernel keep running interpreted, so
window rule chains, sorts and aggregates become chunk *sources* feeding
a compiled spine above them.

Per-operator ``actual_rows`` / ``input_rows`` counters are maintained
inside the kernel with per-chunk flushes, so EXPLAIN ANALYZE output is
identical to the interpreted batch path. The generated source is
deterministic for a plan shape, which makes it the compile-cache key
(see ``cache``) and keeps parent and fork-pool workers byte-identical:
workers re-plan the payload with the same knobs and land on the same
kernel for their shard morsels.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterator, Sequence

from repro.errors import PlanningError
from repro.minidb.codegen.cache import compiled_kernel
from repro.minidb.codegen.knobs import codegen_enabled
from repro.minidb.expressions import EmitContext, EmitUnsupported, _arith
from repro.minidb.plan.physical import (
    FilterOp,
    HashJoinOp,
    PassThroughOp,
    PhysicalNode,
    ProjectOp,
    _resolve_batch_size,
)
from repro.minidb.plan.shard import _SPINE_CHILD
from repro.minidb.types import sql_and, sql_or
from repro.minidb.vector import (RowBatch, configured_batch_size,
                                 decode_batch)

__all__ = ["CompiledSpineOp", "FAULT_ENV", "apply_codegen"]

#: Shared with the rewrite-layer fault (``repro.rewrite.expanded``); the
#: value ``codegen`` selects the emitter fault instead (strict
#: comparisons weakened to inclusive ones), giving the fuzz oracle a
#: codegen-only bug to catch.
FAULT_ENV = "REPRO_FUZZ_INJECT_BUG"


def _fault_active() -> bool:
    return os.environ.get(FAULT_ENV, "") == "codegen"


def _sql_div(left: Any, right: Any) -> Any:
    return _arith("/", left, right)


#: Runtime helpers injected into every kernel's module globals.
_KERNEL_NAMESPACE = {
    "RowBatch": RowBatch,
    "_sql_and": sql_and,
    "_sql_or": sql_or,
    "_sql_div": _sql_div,
}

_CHILD_ATTRS = ("child", "left", "right")


# ---------------------------------------------------------------------------
# Spine matching


def _emits(emit: Callable[[EmitContext], None]) -> bool:
    """Whether *emit* succeeds against a probe context."""
    ctx = EmitContext(lambda qualifier, name: "_probe")
    try:
        emit(ctx)
    except EmitUnsupported:
        return False
    return True


def _supported_filter(op: FilterOp) -> bool:
    return _emits(lambda ctx: op.predicate.emit_truth(ctx))


def _supported_project(op: ProjectOp) -> bool:
    if op.item_exprs is None:
        return False

    def run(ctx: EmitContext) -> None:
        for position, expr in enumerate(op.item_exprs):
            if position not in op.passthrough:
                expr.emit_value(ctx)

    return _emits(run)


def _supported_join(op: HashJoinOp) -> bool:
    if op.kind not in ("inner", "left"):
        return False
    if op.left_key_exprs is None or op.right_key_exprs is None:
        return False
    if op._residual is not None and op.residual_expr is None:
        return False

    def run(ctx: EmitContext) -> None:
        for expr in op.left_key_exprs:
            expr.emit_value(ctx)
        if op.residual_expr is not None:
            op.residual_expr.emit_truth(ctx)

    return _emits(run)


def _match_spine(node: PhysicalNode):
    """``(fused ops top→down, chunk source, the join or None)``.

    Only operators whose expressions all have emitters are taken; the
    first unsupported operator becomes the chunk source (the fallback
    rule — it and everything below it stay interpreted).
    """
    ops: list[PhysicalNode] = []
    join: HashJoinOp | None = None
    current = node
    while True:
        if isinstance(current, FilterOp) and _supported_filter(current):
            ops.append(current)
            current = current.child
            continue
        if isinstance(current, PassThroughOp):
            ops.append(current)
            current = current.child
            continue
        if isinstance(current, ProjectOp) and _supported_project(current):
            ops.append(current)
            current = current.child
            continue
        if isinstance(current, HashJoinOp) and join is None \
                and _supported_join(current):
            join = current
            ops.append(current)
            current = current.left
            continue
        break
    return ops, current, join


# ---------------------------------------------------------------------------
# Kernel emission


class _SpineEmitter:
    """Emits one generator function fusing ``ops`` over source chunks.

    Shape of the generated code: the region between the chunk source and
    the join (or the whole spine when there is none) runs as selection-
    vector comprehensions over the source columns; the join and the
    region above it run as a row loop over the surviving positions,
    probing the prebuilt hash table and appending output values column
    by column. Counter updates are accumulated in locals and flushed to
    the wrapped operators once per chunk, reproducing the interpreted
    batch path's EXPLAIN ANALYZE numbers exactly.
    """

    def __init__(self, ops: Sequence[PhysicalNode], source: PhysicalNode,
                 join: HashJoinOp | None) -> None:
        self.ops = list(ops)
        self.source = source
        self.join = join
        self.ctx = EmitContext(flip_comparisons=_fault_active())
        self.used_columns: set[int] = set()
        self.touched_ops: set[int] = set()
        self.sel_counter = 0

    # -- row environments over the source chunk ------------------------

    def _read(self, entry: tuple[str, Any]) -> str:
        kind, payload = entry
        if kind == "col":
            self.used_columns.add(payload)
            return f"_s{payload}[_i]"
        return payload

    def _env_resolver(self, schema, env: list) -> Callable:
        base = schema.resolver()

        def resolve(qualifier: str | None, name: str) -> str:
            return self._read(env[base(qualifier, name)])

        return resolve

    def _code_resolver(self, schema, env: list[str]) -> Callable:
        base = schema.resolver()

        def resolve(qualifier: str | None, name: str) -> str:
            return env[base(qualifier, name)]

        return resolve

    def _op_ref(self, index: int) -> str:
        self.touched_ops.add(index)
        return f"_op{index}"

    # -- emission -------------------------------------------------------

    def emit(self) -> str:
        ops, join = self.ops, self.join
        join_index = ops.index(join) if join is not None else None
        below = ops if join is None else ops[join_index + 1:]
        upper = [] if join is None else ops[:join_index]

        body: list[str] = []
        env: list[tuple[str, Any]] = [
            ("col", position) for position in range(len(self.source.schema))]
        sel: str | None = None

        base = len(ops) - 1
        for offset, op in enumerate(reversed(below)):
            index = base - offset
            if isinstance(op, PassThroughOp):
                continue
            if isinstance(op, FilterOp):
                sel = self._emit_filter(body, op, index, env, sel)
            else:
                env = self._emit_project(body, op, index, env, sel)

        if join is None:
            self._emit_output(body, env, sel)
        else:
            self._emit_join_region(body, upper, join, join_index, env, sel)

        return self._assemble(body)

    def _emit_filter(self, body: list[str], op: FilterOp, index: int,
                     env: list, sel: str | None) -> str:
        self.ctx.resolve_column = self._env_resolver(op.child.schema, env)
        condition = op.predicate.emit_truth(self.ctx)
        self.sel_counter += 1
        new_sel = f"_sel{self.sel_counter}"
        iterator = "range(_n)" if sel is None else sel
        input_expr = "_n" if sel is None else f"len({sel})"
        ref = self._op_ref(index)
        body.append(f"{new_sel} = [_i for _i in {iterator} if {condition}]")
        body.append(f"{ref}.input_rows += {input_expr}")
        body.append(f"if not {new_sel}:")
        body.append("    continue")
        body.append(f"{ref}.actual_rows += len({new_sel})")
        body.append(f"{ref}.actual_batches += 1")
        return new_sel

    def _emit_project(self, body: list[str], op: ProjectOp, index: int,
                      env: list, sel: str | None) -> list:
        self.ctx.resolve_column = self._env_resolver(op.child.schema, env)
        new_env: list[tuple[str, Any]] = []
        for position, expr in enumerate(op.item_exprs):
            if position in op.passthrough:
                new_env.append(env[op.passthrough[position]])
            else:
                new_env.append(("expr", expr.emit_value(self.ctx)))
        rows_expr = "_n" if sel is None else f"len({sel})"
        ref = self._op_ref(index)
        body.append(f"{ref}.actual_rows += {rows_expr}")
        body.append(f"{ref}.actual_batches += 1")
        return new_env

    def _emit_output(self, body: list[str], env: list,
                     sel: str | None) -> None:
        columns: list[str] = []
        for entry in env:
            kind, payload = entry
            if kind == "col" and sel is None:
                self.used_columns.add(payload)
                columns.append(f"_s{payload}")
            else:
                iterator = "range(_n)" if sel is None else sel
                columns.append(f"[{self._read(entry)} for _i in {iterator}]")
        length = "_n" if sel is None else f"len({sel})"
        body.append(f"yield RowBatch([{', '.join(columns)}], {length})")

    # -- the join + everything above it ---------------------------------

    def _upper_stages(self, upper: Sequence[PhysicalNode],
                      join_index: int) -> tuple[list, str]:
        """Stage plan for the row-loop region, with shared count vars."""
        stages: list[tuple] = []
        gvars = 1  # _g0 counts rows the join emits (matches + pads)
        current = "_g0"
        base = join_index - 1
        for offset, op in enumerate(reversed(upper)):
            index = base - offset
            if isinstance(op, PassThroughOp):
                continue
            if isinstance(op, FilterOp):
                out = f"_g{gvars}"
                gvars += 1
                stages.append(("filter", index, op, current, out))
                current = out
            else:
                stages.append(("project", index, op, current, current))
        return stages, current

    def _expand_branch(self, stages: list, joined_env: list[str],
                       indent: str) -> list[str]:
        lines: list[str] = []
        env = joined_env
        for kind, _index, op, _gin, gout in stages:
            if kind == "filter":
                self.ctx.resolve_column = self._code_resolver(
                    op.child.schema, env)
                condition = op.predicate.emit_truth(self.ctx)
                lines.append(f"{indent}if not {condition}:")
                lines.append(f"{indent}    continue")
                lines.append(f"{indent}{gout} += 1")
            else:
                self.ctx.resolve_column = self._code_resolver(
                    op.child.schema, env)
                new_env: list[str] = []
                for position, expr in enumerate(op.item_exprs):
                    if position in op.passthrough:
                        new_env.append(env[op.passthrough[position]])
                    else:
                        new_env.append(expr.emit_value(self.ctx))
                env = new_env
        for position, code in enumerate(env):
            lines.append(f"{indent}_a{position}({code})")
        return lines

    def _emit_join_region(self, body: list[str],
                          upper: Sequence[PhysicalNode], join: HashJoinOp,
                          join_index: int, env: list,
                          sel: str | None) -> None:
        stages, final_count = self._upper_stages(upper, join_index)
        count_vars = ["_g0"] + [stage[4] for stage in stages
                                if stage[0] == "filter"]
        width = len(self.ops[0].schema)

        for var in count_vars:
            body.append(f"{var} = 0")
        for position in range(width):
            body.append(f"_o{position} = []")
            body.append(f"_a{position} = _o{position}.append")

        self.ctx.resolve_column = self._env_resolver(join.left.schema, env)
        key_codes = [expr.emit_value(self.ctx)
                     for expr in join.left_key_exprs]

        left_codes = [self._read(entry) for entry in env]
        right_width = len(join.right.schema)
        match_env = left_codes + [f"_r[{p}]" for p in range(right_width)]
        pad_env = left_codes + ["None"] * right_width

        residual = None
        if join.residual_expr is not None:
            self.ctx.resolve_column = self._code_resolver(
                join.schema, match_env)
            residual = join.residual_expr.emit_truth(self.ctx)

        iterator = "range(_n)" if sel is None else sel
        body.append(f"for _i in {iterator}:")
        if len(key_codes) == 1:
            body.append(f"    _k = {key_codes[0]}")
            body.append("    _rs = None if _k is None else _ht.get(_k)")
        else:
            for i, code in enumerate(key_codes):
                body.append(f"    _k{i} = {code}")
            null_check = " or ".join(f"_k{i} is None"
                                     for i in range(len(key_codes)))
            key_tuple = ", ".join(f"_k{i}" for i in range(len(key_codes)))
            body.append(f"    _rs = None if {null_check} "
                        f"else _ht.get(({key_tuple}))")
        left_join = join.kind == "left"
        if left_join:
            body.append("    _matched = False")
        body.append("    if _rs:")
        body.append("        for _r in _rs:")
        if residual is not None:
            body.append(f"            if not {residual}:")
            body.append("                continue")
        if left_join:
            body.append("            _matched = True")
        body.append("            _g0 += 1")
        body.extend(self._expand_branch(stages, match_env, " " * 12))
        if left_join:
            body.append("    if not _matched:")
            body.append("        _g0 += 1")
            body.extend(self._expand_branch(stages, pad_env, " " * 8))

        join_ref = self._op_ref(join_index)
        body.append(f"{join_ref}.actual_rows += _g0")
        body.append("if _g0:")
        body.append(f"    {join_ref}.actual_batches += 1")
        for kind, index, _op, gin, gout in stages:
            ref = self._op_ref(index)
            if kind == "filter":
                body.append(f"{ref}.input_rows += {gin}")
                body.append(f"{ref}.actual_rows += {gout}")
                body.append(f"if {gout}:")
                body.append(f"    {ref}.actual_batches += 1")
            else:
                body.append(f"if {gin}:")
                body.append(f"    {ref}.actual_rows += {gin}")
                body.append(f"    {ref}.actual_batches += 1")
        body.append(f"if not {final_count}:")
        body.append("    continue")
        columns = ", ".join(f"_o{p}" for p in range(width))
        body.append(f"yield RowBatch([{columns}], {final_count})")

    # -- assembly -------------------------------------------------------

    def _assemble(self, body: list[str]) -> str:
        lines = ["# fused spine (top to bottom):"]
        for op in self.ops:
            lines.append(f"#   {op.label()}")
        lines.append(f"# chunk source: {self.source.label()}")
        lines.append("def _fused_kernel(_source, _nodes, _tables):")
        if self.join is not None:
            lines.append("    _ht = _tables[0]")
        for index in sorted(self.touched_ops):
            lines.append(f"    _op{index} = _nodes[{index}]")
        lines.append("    for _b in _source:")
        lines.append("        _n = _b.length")
        lines.append("        if not _n:")
        lines.append("            continue")
        lines.append("        _c = _b.columns")
        for position in sorted(self.used_columns):
            lines.append(f"        _s{position} = _c[{position}]")
        for line in body:
            lines.append(f"        {line}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The compiled operator


def _build_hash_table(join: HashJoinOp, size: int) -> dict:
    """Build the probe table off the (interpreted) build side.

    Mirrors :meth:`HashJoinOp.batches`: NULL key parts never match.
    Single-key tables are keyed on the bare value so the generated probe
    can skip the per-row tuple allocation.
    """
    table: dict = {}
    single = len(join._right_keys) == 1
    for right_batch in join.right.batches(size):
        right_rows = right_batch.rows()
        key_columns = HashJoinOp._key_columns(
            right_batch, join._batch_right_keys, join._right_keys)
        if single:
            column = key_columns[0]
            for i in range(right_batch.length):
                part = column[i]
                if part is None:
                    continue
                table.setdefault(part, []).append(right_rows[i])
        else:
            for i in range(right_batch.length):
                key = tuple(column[i] for column in key_columns)
                if any(part is None for part in key):
                    continue
                table.setdefault(key, []).append(right_rows[i])
    return table


class CompiledSpineOp(PhysicalNode):
    """Executes a fused spine through a generated kernel.

    ``child`` is the original (still fully wired) top operator of the
    fused subtree: EXPLAIN renders the real operators, plan walks keep
    their indices (the shard layer depends on that), and per-operator
    counters keep reporting through the wrapped nodes. Execution never
    pulls through ``child`` — the kernel reads source chunks directly.
    """

    __slots__ = ("child", "fused", "source", "join", "kernel",
                 "source_text", "filename", "kernel_runs")

    def __init__(self, child: PhysicalNode, fused: Sequence[PhysicalNode],
                 source: PhysicalNode, join: HashJoinOp | None,
                 kernel: Callable, source_text: str,
                 filename: str) -> None:
        super().__init__()
        self.child = child
        self.fused = list(fused)
        self.source = source
        self.join = join
        self.kernel = kernel
        self.source_text = source_text
        self.filename = filename
        self.kernel_runs = 0
        self.schema = child.schema
        self.ordering = child.ordering
        self.estimated_rows = child.estimated_rows
        self.estimated_cost = child.estimated_cost

    def inputs(self) -> Sequence[PhysicalNode]:
        return (self.child,)

    # The wrapper's counters mirror its top fused operator, which the
    # kernel maintains at the interpreted flush points — so EXPLAIN
    # ANALYZE output is identical whichever execution mode (compiled
    # batches or the scalar fallback below) actually ran. Writes are
    # dropped: reset_metrics and shard-stat merges reach the real
    # operator through the plan walk anyway.
    @property
    def actual_rows(self) -> int:
        return self.child.actual_rows

    @actual_rows.setter
    def actual_rows(self, value: int) -> None:
        pass

    @property
    def actual_batches(self) -> int:
        return self.child.actual_batches

    @actual_batches.setter
    def actual_batches(self, value: int) -> None:
        pass

    def scalar_rows(self) -> Iterator[tuple]:
        # REPRO_BATCH_SIZE=0 disables batch execution entirely; the
        # original operator subtree is still wired below, so scalar
        # demand runs it interpreted (zero batches, scalar counters)
        # exactly as if the wrapper were absent.
        if configured_batch_size() == 0:
            yield from self.child.scalar_rows()
            return
        for batch in self.batches():
            yield from batch.rows()

    def batches(self, size: int | None = None) -> Iterator[RowBatch]:
        size = _resolve_batch_size(size)
        tables = []
        if self.join is not None:
            tables.append(_build_hash_table(self.join, size))
        self.kernel_runs += 1
        # Maximal fallback at the encoding boundary: generated kernels
        # index columns positionally and re-emit them wholesale, so an
        # encoded scan is decoded to plain lists before it reaches the
        # kernel — compiled results stay byte-identical to interpreted.
        source = map(decode_batch, self.source.batches(size))
        yield from self.kernel(source, self.fused, tables)

    def label(self) -> str:
        return (f"CompiledSpine[{len(self.fused)} ops, "
                f"{self.filename}]")


#: The shard layer walks spines through wrapper ``child`` links.
_SPINE_CHILD[CompiledSpineOp] = "child"


# ---------------------------------------------------------------------------
# The planner pass


def apply_codegen(root: PhysicalNode) -> PhysicalNode:
    """Replace fusible spines in *root* with compiled wrappers.

    Runs at the end of ``Planner.plan_unsharded`` — before the shard
    post-pass, so Exchange segment walk indices computed by the parent
    match what pool workers re-plan.
    """
    if not codegen_enabled():
        return root
    return _rewrite(root)


def _rewrite(node: PhysicalNode) -> PhysicalNode:
    wrapper = _try_fuse(node)
    if wrapper is not None:
        return wrapper
    for attribute in _CHILD_ATTRS:
        child = getattr(node, attribute, None)
        if isinstance(child, PhysicalNode):
            rewritten = _rewrite(child)
            if rewritten is not child:
                setattr(node, attribute, rewritten)
    return node


def _try_fuse(node: PhysicalNode) -> CompiledSpineOp | None:
    ops, source, join = _match_spine(node)
    if not any(isinstance(op, (FilterOp, ProjectOp, HashJoinOp))
               for op in ops):
        return None
    try:
        source_text = _SpineEmitter(ops, source, join).emit()
    except (EmitUnsupported, PlanningError):
        return None
    # Recurse below the fusion boundary: the chunk source and the join
    # build side may themselves contain fusible spines (a second join
    # becomes a stacked wrapper feeding this kernel chunks).
    new_source = _rewrite(source)
    if new_source is not source:
        bottom = ops[-1]
        setattr(bottom, "left" if bottom is join else "child", new_source)
    if join is not None:
        new_right = _rewrite(join.right)
        if new_right is not join.right:
            join.right = new_right
    kernel, filename = compiled_kernel(source_text, _KERNEL_NAMESPACE)
    return CompiledSpineOp(node, ops, new_source, join, kernel,
                           source_text, filename)
