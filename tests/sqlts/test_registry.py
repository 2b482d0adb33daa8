"""Rule registry tests: ordering, persistence, views."""

import pytest

from repro.errors import RuleError
from repro.minidb import Database
from repro.sqlts import RuleRegistry
from repro.sqlts.registry import RULES_TABLE


def rule_text(name, table="t"):
    return f"""
        DEFINE {name} ON {table} CLUSTER BY k SEQUENCE BY s
        AS (A, B) WHERE A.x = B.x ACTION DELETE B"""


class TestOrdering:
    def test_rules_apply_in_creation_order(self):
        registry = RuleRegistry()
        registry.define(rule_text("second_alpha"))
        registry.define(rule_text("first_alpha"))
        names = [compiled.name for compiled in registry.rules_for("t")]
        assert names == ["second_alpha", "first_alpha"]

    def test_rules_for_filters_by_table(self):
        registry = RuleRegistry()
        registry.define(rule_text("r1", table="t"))
        registry.define(rule_text("r2", table="u"))
        assert [c.name for c in registry.rules_for("t")] == ["r1"]
        assert registry.tables_with_rules() == {"t", "u"}

    def test_duplicate_name_rejected(self):
        registry = RuleRegistry()
        registry.define(rule_text("r1"))
        with pytest.raises(RuleError, match="already defined"):
            registry.define(rule_text("r1"))

    def test_drop_and_clear(self):
        registry = RuleRegistry()
        registry.define(rule_text("r1"))
        registry.drop("r1")
        assert len(registry) == 0
        with pytest.raises(RuleError):
            registry.drop("r1")
        registry.define(rule_text("r2"))
        registry.clear()
        assert len(registry) == 0

    def test_rule_lookup(self):
        registry = RuleRegistry()
        registry.define(rule_text("r1"))
        assert registry.rule("R1").name == "r1"
        with pytest.raises(RuleError):
            registry.rule("nope")


class TestPersistence:
    def test_rules_table_created_and_populated(self):
        db = Database()
        registry = RuleRegistry(db)
        registry.define(rule_text("r1"))
        rows = db.execute(
            f"select rule_name, sql_template, created_at from {RULES_TABLE}")
        assert len(rows) == 1
        name, template, created = rows.rows[0]
        assert name == "r1"
        assert "{input}" in template
        assert created == 1

    def test_creation_counter_increments(self):
        db = Database()
        registry = RuleRegistry(db)
        registry.define(rule_text("r1"))
        registry.define(rule_text("r2"))
        created = db.execute(
            f"select created_at from {RULES_TABLE} order by created_at asc")
        assert created.column("created_at") == [1, 2]

    def test_drop_then_redefine_leaves_one_row(self):
        db = Database()
        registry = RuleRegistry(db)
        registry.define(rule_text("r1"))
        registry.define(rule_text("r2"))
        registry.drop("r1")
        registry.define(rule_text("r1"))
        rows = db.execute(
            f"select rule_name, created_at from {RULES_TABLE}").rows
        assert sorted(rows) == [("r1", 3), ("r2", 2)]

    def test_clear_empties_rules_table(self):
        db = Database()
        registry = RuleRegistry(db)
        registry.define(rule_text("r1"))
        registry.define(rule_text("r2"))
        registry.clear()
        assert len(registry) == 0
        assert len(db.execute(f"select rule_name from {RULES_TABLE}")) == 0

    def test_version_bumps_on_every_rule_set_change(self):
        registry = RuleRegistry()
        versions = [registry.version]
        registry.define(rule_text("r1"))
        versions.append(registry.version)
        registry.define_view("v", "select a from t")
        versions.append(registry.version)
        registry.drop("r1")
        versions.append(registry.version)
        registry.clear()
        versions.append(registry.version)
        assert versions == sorted(set(versions))
        registry.rules_for("t")
        assert registry.version == versions[-1]

    def test_existing_rules_table_reused(self):
        db = Database()
        RuleRegistry(db)
        RuleRegistry(db)  # second registry must not recreate the table
        assert RULES_TABLE in db.catalog


class TestViews:
    def test_view_round_trip(self):
        registry = RuleRegistry()
        registry.define_view("v", "select a from t")
        assert registry.view("V") is not None
        assert registry.view_sql("v") == "select a from t"
        assert registry.view("missing") is None
