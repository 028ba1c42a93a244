"""Schema, constraint, plan, and validity checks."""

import pytest

from wspkit.core import (
    Plan,
    WorkflowSchema,
    at_most,
    disequality,
    equality,
    is_valid_plan,
    per_user,
    satisfies,
    validate_schema,
)
from wspkit.errors import DomainError


class TestSatisfies:
    def test_uncovered_scope_is_vacuous(self):
        assert satisfies(Plan({"s1": "u1"}), disequality("s1", "s3"))

    def test_running_example_equality(self, wstar_plan):
        assert satisfies(wstar_plan, equality("s1", "s2"))

    def test_violated_disequality(self):
        assert not satisfies(Plan({"s1": "u1", "s3": "u1"}), disequality("s1", "s3"))


class TestIsValidPlan:
    def test_unique_plan_is_valid(self, wstar, wstar_plan):
        assert is_valid_plan(wstar, wstar_plan)

    def test_authorization_violation(self, wstar):
        verdict = is_valid_plan(wstar, Plan({"s1": "u2", "s2": "u2", "s3": "u6"}))
        assert not verdict
        assert any(v.check == "authorized" and "s2" in v.detail
                   for v in verdict.violations)

    def test_empty_schema_empty_plan(self):
        schema = WorkflowSchema((), (), {})
        assert is_valid_plan(schema, Plan({}))

    def test_missing_task_reported(self, wstar):
        verdict = is_valid_plan(wstar, Plan({"s1": "u1"}))
        assert any(v.check == "complete" for v in verdict.violations)


class TestConstraintInstance:
    def test_peruser_bounds_validated(self):
        with pytest.raises(DomainError):
            per_user(3, 2, ("a", "b", "c"))

    def test_atmost_requires_positive_bound(self):
        with pytest.raises(DomainError):
            at_most(0, ("a", "b"))

    def test_scope_set_keeps_first_occurrence_order(self):
        c = per_user(1, 2, ("b", "a", "b", "c"))
        assert c.scope_set == ("b", "a", "c")
        assert c.arity == 3

    def test_scope_set_computed_once(self):
        c = per_user(1, 2, ("b", "a", "b", "c"))
        fresh = per_user(1, 2, ("b", "a", "b", "c"))
        text, key = repr(c), hash(c)
        assert c.scope_set is c.scope_set
        assert c == fresh and fresh == c
        assert hash(c) == key == hash(fresh)
        assert repr(c) == text == repr(fresh)
        assert "scope_set=" not in repr(c)


class TestValidateSchema:
    def test_running_example_clean(self, wstar):
        assert validate_schema(wstar).clean

    def test_unknown_scope_task(self):
        schema = WorkflowSchema(("a",), ("u",), {"a": {"u"}},
                                (disequality("a", "ghost"),))
        report = validate_schema(schema)
        assert any("ghost" in e for e in report.errors)

    def test_empty_authorization_warns(self):
        schema = WorkflowSchema(("a",), ("u",), {"a": set()})
        report = validate_schema(schema)
        assert report.warnings and not report.errors


class TestSchemaIndexes:
    def test_computed_once_and_read_only(self, wstar):
        assert wstar.task_index is wstar.task_index
        assert wstar.user_index is wstar.user_index
        assert dict(wstar.task_index) == {"s1": 0, "s2": 1, "s3": 2}
        assert wstar.user_index["u6"] == 5
        with pytest.raises(TypeError):
            wstar.task_index["s4"] = 3

    def test_equality_hashing_and_repr_unchanged(self, wstar):
        fresh = WorkflowSchema(wstar.tasks, wstar.users, wstar.auth, wstar.constraints)
        text = repr(fresh)
        assert wstar.task_index and wstar.user_index  # fills the caches
        assert wstar == fresh and fresh == wstar
        assert repr(wstar) == text
        assert "index" not in repr(wstar)
        # the auth mapping is unhashable, so schemas never were hashable
        for schema in (wstar, fresh):
            with pytest.raises(TypeError):
                hash(schema)
