"""Schema, constraint, plan, and validity checks."""

import ast
import builtins
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wspkit
from wspkit import formats
from wspkit.core import (
    ConstraintInstance,
    SchemaReport,
    Verdict,
    Violation,
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
from wspkit.kernel import extend_partial_plan, kernelize, lift_plan
from wspkit.reductions import gen_random_instance
from wspkit.solver import SolveOutcome, assign_blocks, project, solve_bruteforce, solve_fpt


class TestSatisfies:
    def test_uncovered_scope_is_vacuous(self):
        assert satisfies({"s1": "u1"}, disequality("s1", "s3"))

    def test_running_example_equality(self, wstar_plan):
        assert satisfies(wstar_plan, equality("s1", "s2"))

    def test_violated_disequality(self):
        assert not satisfies({"s1": "u1", "s3": "u1"}, disequality("s1", "s3"))


class TestIsValidPlan:
    def test_unique_plan_is_valid(self, wstar, wstar_plan):
        assert is_valid_plan(wstar, wstar_plan)

    def test_authorization_violation(self, wstar):
        verdict = is_valid_plan(wstar, {"s1": "u2", "s2": "u2", "s3": "u6"})
        assert not verdict
        assert any(v.check == "authorized" and "s2" in v.detail
                   for v in verdict.violations)

    def test_empty_schema_empty_plan(self):
        schema = WorkflowSchema((), (), {})
        assert is_valid_plan(schema, {})

    def test_missing_task_reported(self, wstar):
        verdict = is_valid_plan(wstar, {"s1": "u1"})
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
        plan = {t: "uv"[i % 2] for i, t in enumerate(tasks)}
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
            "from wspkit.core import WorkflowSchema, disequality, "
            "is_valid_plan, satisfies\n"
            "c = disequality('a', 'b')\n"
            "schema = WorkflowSchema(('a', 'b'), ('u', 'v'), "
            "{'a': {'u'}, 'b': {'v'}}, (c,))\n"
            "assert satisfies({'a': 'u', 'b': 'v'}, c)\n"
            "assert not satisfies({'a': 'u', 'b': 'u'}, c)\n"
            "assert is_valid_plan(schema, {'a': 'u', 'b': 'v'})\n"
            "assert not is_valid_plan(schema, {'a': 'u', 'b': 'u'})\n"
        )
        src = str(Path(wspkit.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0, done.stderr


class TestPlanIsAMapping:
    """A plan is any task -> user mapping, and the plans wspkit returns are dicts."""

    @pytest.mark.parametrize("plan", [
        {"s1": "u1", "s2": "u1", "s3": "u6"}, {"s1": "u1", "s2": "u4", "s3": "u1"},
        {"s1": "u2"}, {"s1": "u1", "x": "u9"}, {},
    ])
    def test_a_read_only_view_reads_as_its_dict(self, wstar, plan):
        view = MappingProxyType(plan)
        assert is_valid_plan(wstar, view) == is_valid_plan(wstar, plan)
        assert [satisfies(view, c) for c in wstar.constraints] == [
            satisfies(plan, c) for c in wstar.constraints]
        assert (formats.serialize_plan(view, wstar.tasks)
                == formats.serialize_plan(plan, wstar.tasks))

    def test_lifting_reads_a_read_only_view(self, wstar):
        result = kernelize(wstar)
        plan = {"s1": "u1", "s3": "u6"}
        assert lift_plan(result, MappingProxyType(plan)) == lift_plan(result, plan)

    def test_returned_plans_are_dicts(self, wstar):
        result = kernelize(wstar)
        plans = [
            solve_fpt(wstar).plan, solve_bruteforce(wstar).plan,
            *project(wstar, {"s1", "s3"}), lift_plan(result, solve_fpt(result.schema).plan),
            formats.parse_plan("s1 u1\n"), assign_blocks(wstar, {"s1": 0, "s2": 0, "s3": 1}),
            extend_partial_plan(result.schema, {}, result.representatives),
        ]
        assert [type(p) for p in plans] == [dict] * len(plans)

    def test_outcome_and_verdict_derive_their_verdicts(self):
        assert [f.name for f in dataclasses.fields(SolveOutcome)] == ["plan", "stats"]
        assert SolveOutcome(None).status == "unsatisfiable"
        assert not SolveOutcome(None).satisfiable
        assert SolveOutcome({}).satisfiable and SolveOutcome({}).status == "satisfiable"
        assert [f.name for f in dataclasses.fields(Verdict)] == ["violations"]
        assert Verdict(()) and not Verdict((Violation("complete", "task a is unassigned"),))

    def test_core_imports_no_other_wspkit_module(self):
        tree = ast.parse(Path(wspkit.core.__file__).read_text())
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
        names |= {node.module for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module}
        assert {n for n in names if n.split(".")[0] == "wspkit"} == {"wspkit.errors"}


class TestValidateSchema:
    def test_running_example_clean(self, wstar):
        assert validate_schema(wstar) == SchemaReport((), ())

    def test_empty_authorization_warns(self):
        schema = WorkflowSchema(("a",), ("u",), {"a": set()})
        report = validate_schema(schema)
        assert report.warnings and not report.errors


ALL_KINDS = ["eq", "neq", "bind", "sep", "atmost", "atleast", "peruser"]


def refusal(tasks, users, auth, constraints=()):
    """The text of the DomainError that building the schema raises."""
    with pytest.raises(DomainError) as caught:
        WorkflowSchema(tasks, users, auth, constraints)
    return str(caught.value)


class TestWellFormed:
    def test_unknown_scope_task(self):
        assert refusal(("a",), ("u",), {"a": {"u"}}, (disequality("a", "ghost"),)) == (
            "invalid instance: constraint #0 (neq a ghost) names unknown tasks: ['ghost']")

    def test_authorization_for_unknown_tasks(self):
        assert refusal(("a",), ("u",), {"a": {"u"}, "c": set(), "b": {"u"}}) == (
            "invalid instance: authorization for unknown tasks: ['b', 'c']")

    def test_every_fault_in_order(self):
        text = refusal(("a", "b", "a"), ("u", "u"), {"a": {"v"}, "x": {"u"}},
                       (disequality("a", "ghost"), at_most(1, ("b",)),
                        separation(("y",), ("a", "z"))))
        assert text == (
            "invalid instance: duplicate task identifiers; duplicate user identifiers; "
            "authorization of a names unknown users: ['v']; "
            "authorization for unknown tasks: ['x']; "
            "constraint #0 (neq a ghost) names unknown tasks: ['ghost']; "
            "constraint #2 (sep {y} {a,z}) names unknown tasks: ['y', 'z']")

    def test_missing_authorization_is_empty(self):
        schema = WorkflowSchema(("a", "b"), ("u",), {"a": {"u"}})
        assert schema.auth["b"] == frozenset()

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10**6), k=st.integers(2, 6), n=st.integers(1, 5),
           m=st.integers(0, 6), fault=st.sampled_from(
               ["user", "scope", "auth", "task", "duplicate-user"]),
           data=st.data())
    def test_one_injected_fault_is_named(self, seed, k, n, m, fault, data):
        schema = gen_random_instance(k, n, m, ALL_KINDS, seed)
        assert validate_schema(schema).errors == ()
        tasks, users = schema.tasks, schema.users
        auth, constraints = dict(schema.auth), schema.constraints
        t = data.draw(st.sampled_from(tasks))
        if fault == "user":
            auth[t] = auth[t] | {"zz"}
            named = f"authorization of {t} names unknown users: ['zz']"
        elif fault == "scope":
            constraints += (disequality(t, "ghost"),)
            named = f"constraint #{m} (neq {t} ghost) names unknown tasks: ['ghost']"
        elif fault == "auth":
            auth["ghost"] = frozenset(users[:1])
            named = "authorization for unknown tasks: ['ghost']"
        elif fault == "task":
            tasks += (t,)
            named = "duplicate task identifiers"
        else:
            users += (data.draw(st.sampled_from(users)),)
            named = "duplicate user identifiers"
        assert refusal(tasks, users, auth, constraints) == "invalid instance: " + named


class TestSchemaIndexes:
    def test_sort_puts_unknown_names_last_by_name(self, wstar):
        assert wstar.sort_tasks(["zz", "s3", "a0", "s1"]) == ("s1", "s3", "a0", "zz")
        assert wstar.sort_users(iter(["u6", "x", "u1", "b"])) == ("u1", "u6", "b", "x")
        assert wstar.sort_users(frozenset({"u5", "u2"})) == ("u2", "u5")
        assert wstar.sort_tasks(("s2", "s1", "s2")) == ("s1", "s2", "s2")
        assert wstar.sort_users(()) == ()

    def test_equality_hashing_and_repr_unchanged(self, wstar):
        fresh = WorkflowSchema(wstar.tasks, wstar.users, wstar.auth, wstar.constraints)
        text = repr(fresh)
        assert wstar._task_positions and wstar._user_positions  # fills the caches
        assert wstar == fresh and fresh == wstar
        assert repr(wstar) == text
        assert "index" not in repr(wstar)
        # the auth mapping is unhashable, so schemas never were hashable
        for schema in (wstar, fresh):
            with pytest.raises(TypeError):
                hash(schema)
