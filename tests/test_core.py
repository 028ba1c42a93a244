"""Schema, constraint, plan, and validity checks."""

import builtins
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import wspkit
from wspkit.core import (
    ConstraintInstance,
    Plan,
    WorkflowSchema,
    at_most,
    disequality,
    equality,
    is_valid_plan,
    per_user,
    satisfies,
    separation,
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

    def test_peruser_dedup_keys_count_repeats(self):
        plain = per_user(1, 2, ("a", "b", "c"))
        repeated = per_user(1, 2, ("a", "b", "c", "a"))
        assert plain.dedup_key() == per_user(1, 2, ("c", "a", "b")).dedup_key()
        assert repeated.dedup_key() == per_user(1, 2, ("a", "c", "a", "b")).dedup_key()
        assert plain.dedup_key() != repeated.dedup_key()
        assert plain.dedup_key() != per_user(1, 3, ("a", "b", "c")).dedup_key()
        assert plain.dedup_key() != at_most(1, ("a", "b", "c")).dedup_key()

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

    def test_equality_hash_and_repr_ignore_scope_set(self):
        c = disequality("a", "b")
        assert c == ConstraintInstance("neq", (), ("a", "b"), None)
        assert hash(c) == hash(("neq", (), ("a", "b"), None))
        assert repr(c) == ("ConstraintInstance(kind='neq', params=(), "
                           "scope=('a', 'b'), scope_sets=None)")
        compared = [f.name for f in dataclasses.fields(c) if f.compare]
        assert compared == ["kind", "params", "scope", "scope_sets"]

    @pytest.mark.parametrize("name", ["kind", "params", "scope", "scope_sets",
                                      "scope_set"])
    def test_assignment_raises(self, name):
        c = per_user(1, 2, ("a", "b"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, name, ())
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(c, name)

    def test_no_other_attributes(self):
        c = per_user(1, 2, ("a", "b"))
        with pytest.raises(dataclasses.FrozenInstanceError, match="'other'"):
            c.other = ()
        with pytest.raises(dataclasses.FrozenInstanceError, match="'other'"):
            del c.other
        assert not hasattr(c, "__dict__")

    @pytest.mark.parametrize("c", [
        equality("a", "a"), disequality("a", "b"), per_user(1, 2, ("b", "a", "b")),
        separation(("a", "b"), ("b", "c")),
    ], ids=["eq", "neq", "peruser", "sep"])
    def test_replace_and_pickle_round_trip(self, c):
        for copy in (dataclasses.replace(c), pickle.loads(pickle.dumps(c))):
            assert copy == c and hash(copy) == hash(c) and repr(copy) == repr(c)
            assert copy.scope_set == c.scope_set

    def test_replace_revalidates(self):
        c = per_user(1, 2, ("a", "b"))
        assert dataclasses.replace(c, scope=("c",)).scope_set == ("c",)
        with pytest.raises(DomainError, match="rising from 1"):
            dataclasses.replace(c, params=(2, 1))

    def test_pair_scope_set(self):
        assert equality("a", "a").scope_set == ("a",)
        assert equality("a", "b").scope_set == ("a", "b")

    def test_sets_scope_is_the_union_of_the_sets(self):
        c = separation(("a", "b"), ("b", "c"))
        assert c.scope == c.scope_set == ("a", "b", "c")
        assert c.scope_sets == (("a", "b"), ("b", "c"))

    def test_arguments_stored_as_tuples(self):
        c = ConstraintInstance("atmost", [1], ["a", "b"])
        assert c.params == (1,) and c.scope == ("a", "b")
        assert hash(c) == hash(at_most(1, ("a", "b")))
        s = ConstraintInstance("sep", scope_sets=[["a"], ["b"]])
        assert s == separation(("a",), ("b",))
        assert hash(s) == hash(separation(("a",), ("b",)))

    @pytest.mark.parametrize("args,message", [
        (("nope", (), ("a", "b")), "unknown constraint kind 'nope'"),
        (("neq", (1,), ("a", "b")), "neq takes 0 integer bounds rising from 1, got (1,)"),
        (("atmost", (0,), ("a",)), "atmost takes 1 integer bounds rising from 1, got (0,)"),
        (("atmost", (), ("a",)), "atmost takes 1 integer bounds rising from 1, got ()"),
        (("peruser", (3, 2), ("a",)),
         "peruser takes 2 integer bounds rising from 1, got (3, 2)"),
        (("eq", (), ("a",)), "eq takes exactly two tasks"),
        (("neq", (), ("a", "b", "c")), "neq takes exactly two tasks"),
        (("atleast", (1,), ()), "atleast requires a nonempty scope"),
        (("sep", (), ()), "sep requires two nonempty task sets"),
        (("bind", (), (), (("a",), ())), "bind requires two nonempty task sets"),
        (("sep", (), (), (("a",), ("b",), ("c",))), "sep requires two nonempty task sets"),
        (("neq", (), ("a", "b"), (("x",), ("y",))), "neq takes a scope, not task sets"),
        (("atmost", (1,), ("a",), (("a",), ("b",))), "atmost takes a scope, not task sets"),
        (("sep", (), ("a",), (("b",), ("c",))), "sep takes its scope from its two task sets"),
    ])
    def test_domain_error_messages(self, args, message):
        with pytest.raises(DomainError) as info:
            ConstraintInstance(*args)
        assert str(info.value) == message

    def test_sets_kind_accepts_its_own_scope(self):
        c = separation(("a",), ("b", "a"))
        assert ConstraintInstance("sep", (), ("a", "b"), (("a",), ("b", "a"))) == c


class TestPlanCheckImports:
    def test_is_valid_plan_runs_no_import(self, monkeypatch):
        tasks = [f"t{i}" for i in range(241)]
        constraints = [disequality(a, b) for a, b in zip(tasks, tasks[1:])]
        schema = WorkflowSchema(tasks, ("u", "v"), {t: {"u", "v"} for t in tasks},
                                constraints)
        plan = Plan({t: "uv"[i % 2] for i, t in enumerate(tasks)})
        imports = []
        real = builtins.__import__

        def counted(*args, **kwargs):
            imports.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", counted)
        verdict = is_valid_plan(schema, plan)
        assert satisfies(plan, constraints[0])
        monkeypatch.undo()
        assert len(constraints) == 240 and verdict
        assert imports == []

    @pytest.mark.parametrize("first,second", [
        ("wspkit.constraints", "wspkit.core"), ("wspkit.core", "wspkit.constraints"),
    ])
    def test_either_module_imports_first(self, first, second):
        script = (
            f"import {first}, {second}\n"
            "from wspkit.core import Plan, WorkflowSchema, disequality, "
            "is_valid_plan, satisfies\n"
            "c = disequality('a', 'b')\n"
            "schema = WorkflowSchema(('a', 'b'), ('u', 'v'), "
            "{'a': {'u'}, 'b': {'v'}}, (c,))\n"
            "assert satisfies(Plan({'a': 'u', 'b': 'v'}), c)\n"
            "assert not satisfies(Plan({'a': 'u', 'b': 'u'}), c)\n"
            "assert is_valid_plan(schema, Plan({'a': 'u', 'b': 'v'}))\n"
            "assert not is_valid_plan(schema, Plan({'a': 'u', 'b': 'u'}))\n"
        )
        src = str(Path(wspkit.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0, done.stderr


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

    def test_sort_puts_unknown_names_last_by_name(self, wstar):
        assert wstar.sort_tasks(["zz", "s3", "a0", "s1"]) == ("s1", "s3", "a0", "zz")
        assert wstar.sort_users(iter(["u6", "x", "u1", "b"])) == ("u1", "u6", "b", "x")
        assert wstar.sort_users(frozenset({"u5", "u2"})) == ("u2", "u5")
        assert wstar.sort_tasks(("s2", "s1", "s2")) == ("s1", "s2", "s2")
        assert wstar.sort_users(()) == ()

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
