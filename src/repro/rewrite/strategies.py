"""Construction of the cleansed-reads-table subplans for each rewrite
strategy (naive, expanded, join-back), including multi-rule chains and
rules whose FROM input is a derived view over the reads table.

All builders return a logical plan producing exactly the reads table's
columns; the engine splices it into the user query via ``table_plans``.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import RewriteError
from repro.minidb.engine import Database
from repro.minidb.expressions import (
    ColumnRef,
    Expr,
    InSubquery,
    and_all,
)
from repro.minidb.plan.builder import build_plan
from repro.minidb.plan.logical import (
    LogicalDistinct,
    LogicalFilter,
    LogicalNode,
    LogicalProject,
    LogicalScan,
    LogicalSemiJoin,
    LogicalUnion,
)
from repro.rewrite.context import DimensionJoin
from repro.sqlts.compiler import CompiledRule
from repro.sqlts.registry import RuleRegistry

__all__ = [
    "naive_subplan",
    "expanded_subplan",
    "joinback_subplan",
    "validate_rule_keys",
]


def validate_rule_keys(rules: Sequence[CompiledRule]) -> tuple[str, str]:
    """All rules of one application must share cluster/sequence keys."""
    if not rules:
        raise RewriteError("no cleansing rules to apply")
    ckey = rules[0].rule.cluster_key
    skey = rules[0].rule.sequence_key
    for compiled in rules[1:]:
        if compiled.rule.cluster_key != ckey \
                or compiled.rule.sequence_key != skey:
            raise RewriteError(
                "rules applied together must share CLUSTER BY and "
                f"SEQUENCE BY keys; {compiled.name!r} differs")
    return ckey, skey


def _reads_columns(database: Database, table_name: str) -> list[str]:
    return list(database.table(table_name).schema.names)


def _project_to_reads(plan: LogicalNode, columns: list[str]) -> LogicalNode:
    return LogicalProject(plan, [(ColumnRef(name), name)
                                 for name in columns])


def _dim_semi_join(database: Database, plan: LogicalNode,
                   dimension: DimensionJoin) -> LogicalNode:
    """Attach ``R.K IN (SELECT Kd FROM D WHERE S_d)`` as a semi-join."""
    conjunct = dimension.in_conjunct()
    subplan = build_plan(conjunct.subquery, database.catalog)
    return LogicalSemiJoin(plan, subplan, conjunct.operand)


def _filter_conjuncts(database: Database, plan: LogicalNode,
                      conjuncts: Sequence[Expr]) -> LogicalNode:
    """Filter *plan* by *conjuncts*, planning IN-subqueries as semi-joins."""
    plain: list[Expr] = []
    for conjunct in conjuncts:
        if isinstance(conjunct, InSubquery):
            subplan = build_plan(conjunct.subquery, database.catalog)
            plan = LogicalSemiJoin(plan, subplan, conjunct.operand,
                                   conjunct.negated)
        else:
            plain.append(conjunct)
    predicate = and_all(plain)
    if predicate is not None:
        plan = LogicalFilter(plan, predicate)
    return plan


def _safe_guards(guards: Sequence[Expr],
                 modified_columns: set[str]) -> list[Expr]:
    """Guard conjuncts that survive earlier rules' MODIFY actions and
    contain no subqueries (they are re-applied over derived inputs)."""
    safe = []
    for guard in guards:
        if any(isinstance(node, InSubquery) for node in guard.walk()):
            continue
        touched = {ref.name for ref in guard.referenced_columns()}
        if touched & modified_columns:
            continue
        safe.append(guard)
    return safe


def _chain_rules(database: Database, registry: RuleRegistry,
                 rules: Sequence[CompiledRule],
                 stream: LogicalNode,
                 guards: Sequence[Expr],
                 seqlist_builder: Callable[[], LogicalNode] | None,
                 cluster_key: str) -> LogicalNode:
    """Apply Φ_C1 ... Φ_Cn in creation order over *stream*.

    Rules whose FROM differs from their ON table get their input view
    instantiated with the cleansed-so-far stream substituted for the ON
    table (§4.2's ON/FROM separation). The view's extra branches are
    restricted by the still-valid guard conjuncts, and — for join-back —
    by a fresh semi-join against the relevant-sequence list, matching the
    paper's "join-back is also performed on both tables".
    """
    modified: set[str] = set()
    for compiled in rules:
        rule = compiled.rule
        if rule.from_table != rule.on_table:
            view = registry.view(rule.from_table)
            if view is None:
                raise RewriteError(
                    f"rule {compiled.name!r} takes input from "
                    f"{rule.from_table!r}, which is neither its ON table "
                    "nor a registered rule-input view")
            view_plan = build_plan(view, database.catalog,
                                   table_plans={rule.on_table: stream})
            safe = _safe_guards(guards, modified)
            guarded: LogicalNode = view_plan
            predicate = and_all(safe)
            if predicate is not None:
                guarded = LogicalFilter(guarded, predicate)
            if seqlist_builder is not None:
                guarded = LogicalSemiJoin(guarded, seqlist_builder(),
                                          ColumnRef(cluster_key))
            stream = compiled.apply(guarded)
        else:
            stream = compiled.apply(stream)
        modified.update(rule.action.assignments)
    return stream


def naive_subplan(database: Database, registry: RuleRegistry,
                  rules: Sequence[CompiledRule],
                  table_name: str) -> LogicalNode:
    """Q_n: cleanse the entire reads table before the query runs."""
    ckey, _ = validate_rule_keys(rules)
    stream: LogicalNode = LogicalScan(database.table(table_name))
    stream = _chain_rules(database, registry, rules, stream, guards=[],
                          seqlist_builder=None, cluster_key=ckey)
    return _project_to_reads(stream, _reads_columns(database, table_name))


def expanded_subplan(database: Database, registry: RuleRegistry,
                     rules: Sequence[CompiledRule],
                     table_name: str,
                     ec_conjuncts: Sequence[Expr],
                     pushed_dimensions: Sequence[DimensionJoin] = (),
                     ) -> LogicalNode:
    """Q_e: σ_s'(Φ_Cn(...Φ_C1(σ_ec(R)))) with optional pushed dimensions.

    The residual σ_s' lives in the rewritten outer statement; this
    subplan covers σ_ec and the rule chain.
    """
    ckey, _ = validate_rule_keys(rules)
    base: LogicalNode = LogicalScan(database.table(table_name))
    predicate = and_all(list(ec_conjuncts))
    if predicate is not None:
        base = LogicalFilter(base, predicate)
    for dimension in pushed_dimensions:
        base = _dim_semi_join(database, base, dimension)
    stream = _chain_rules(database, registry, rules, base,
                          guards=list(ec_conjuncts), seqlist_builder=None,
                          cluster_key=ckey)
    return _project_to_reads(stream, _reads_columns(database, table_name))


def joinback_subplan(database: Database, registry: RuleRegistry,
                     rules: Sequence[CompiledRule],
                     table_name: str,
                     s_conjuncts: Sequence[Expr],
                     ec_conjuncts: Sequence[Expr] | None,
                     pushed_dimensions: Sequence[DimensionJoin] = (),
                     ) -> LogicalNode:
    """Q_j: σ_s'(Φ_C(σ_ec(R) ⋉_ckey Π_ckey(σ_s(R) [⋉ dims]))).

    ``ec_conjuncts`` of None means the plain join-back (no expanded
    condition available); otherwise the improved variant filters the
    joined-back rows by ec first (§5.3).

    Under shard-parallel execution the semi-join's probe side (the
    σ_ec(R) scan feeding the rule chain) lies on the shard spine and is
    partitioned by cluster key, while the relevant-sequence list on the
    build side is a broadcast subtree: every worker evaluates it in
    full, so per-shard membership checks see the complete key set and
    the merged output matches the serial plan row for row.

    A rule whose FROM is a derived view (§4.2) can put rows into the
    cleansed table that are not reads of R — the missing rule's expected
    case reads, copied from pallet reads. The relevant-sequence list
    therefore also takes the keys of σ_s over each such view
    instantiated on R, so an EPC whose only σ_s-matching row is such a
    copy still counts.
    """
    ckey, _ = validate_rule_keys(rules)
    table = database.table(table_name)
    views = {compiled.rule.from_table: registry.view(compiled.rule.from_table)
             for compiled in rules
             if compiled.rule.from_table != compiled.rule.on_table}

    def relevant_keys(source: LogicalNode) -> LogicalNode:
        inner = _filter_conjuncts(database, source, s_conjuncts)
        for dimension in pushed_dimensions:
            inner = _dim_semi_join(database, inner, dimension)
        return LogicalProject(inner, [(ColumnRef(ckey), ckey)])

    def seqlist() -> LogicalNode:
        keys = relevant_keys(LogicalScan(table))
        for view in filter(None, views.values()):
            keys = LogicalUnion(
                keys, relevant_keys(build_plan(view, database.catalog)),
                all_rows=True)
        return LogicalDistinct(keys)

    base: LogicalNode = LogicalScan(table)
    guards: list[Expr] = []
    if ec_conjuncts is not None:
        predicate = and_all(list(ec_conjuncts))
        if predicate is not None:
            base = LogicalFilter(base, predicate)
        guards = list(ec_conjuncts)
    base = LogicalSemiJoin(base, seqlist(), ColumnRef(ckey))
    stream = _chain_rules(database, registry, rules, base, guards=guards,
                          seqlist_builder=seqlist, cluster_key=ckey)
    return _project_to_reads(stream, _reads_columns(database, table_name))
