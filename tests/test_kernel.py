"""Equality elimination, user marking, kernelization, and plan lifting."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wspkit.core import (
    Plan,
    WorkflowSchema,
    at_most,
    disequality,
    equality,
    is_valid_plan,
    per_user,
    separation,
)
from wspkit.errors import ClassificationError, ContractError, DomainError
from wspkit.kernel import (
    REDUCED,
    TRIVIALLY_UNSAT,
    eliminate_equalities,
    extend_partial_plan,
    kernelize,
    lift_plan,
    mark_users,
    merge_tasks,
)
from wspkit.solver import solve_bruteforce


class TestMergeTasks:
    def test_running_example_merge(self, wstar):
        reduced, record = merge_tasks(wstar, "s1", "s2")
        assert reduced.tasks == ("s1", "s3")
        assert reduced.auth["s1"] == {"u1"}
        assert record.intersected_auth == {"u1"}
        # the explicit equality is dropped, both disequalities survive
        assert [c.kind for c in reduced.constraints] == ["neq", "neq"]
        assert all(c.scope == ("s1", "s3") for c in reduced.constraints)

    def test_empty_intersection_allowed(self):
        schema = WorkflowSchema(
            ("a", "b"), ("u", "v"), {"a": {"u"}, "b": {"v"}},
            (equality("a", "b"),),
        )
        reduced, _ = merge_tasks(schema, "a", "b")
        assert reduced.auth["a"] == frozenset()

    def test_peruser_scope_keeps_multiplicity(self):
        schema = WorkflowSchema(
            ("a", "b", "x"), ("u",), {t: {"u"} for t in "abx"},
            (per_user(1, 2, ("a", "b", "x")),),
        )
        reduced, _ = merge_tasks(schema, "a", "b")
        (c,) = reduced.constraints
        assert c.scope == ("a", "a", "x")
        assert c.scope_set == ("a", "x")

    def test_self_merge_rejected(self, wstar):
        with pytest.raises(DomainError):
            merge_tasks(wstar, "s1", "s1")


class TestEliminateEqualities:
    def test_running_example(self, wstar):
        result = eliminate_equalities(wstar)
        assert result.schema.tasks == ("s1", "s3")
        assert result.schema.auth["s1"] == {"u1"}
        assert [(r.surviving, r.absorbed) for r in result.merges] == [("s1", "s2")]

    def test_fixpoint_without_equalities(self):
        schema = WorkflowSchema(
            ("a", "b"), ("u", "v"), {"a": {"u"}, "b": {"v"}},
            (disequality("a", "b"),),
        )
        result = eliminate_equalities(schema)
        assert result.schema is schema or result.schema.tasks == schema.tasks
        assert result.merges == ()

    def test_merge_chain(self):
        schema = WorkflowSchema(
            ("s1", "s2", "s3"), ("u", "v", "w"),
            {"s1": {"u", "v"}, "s2": {"u", "w"}, "s3": {"u", "v", "w"}},
            (equality("s1", "s2"), equality("s2", "s3")),
        )
        result = eliminate_equalities(schema)
        assert result.schema.tasks == ("s1",)
        assert result.schema.auth["s1"] == {"u"}
        orig = solve_bruteforce(schema)
        merged = solve_bruteforce(result.schema)
        assert orig.satisfiable == merged.satisfiable

    def test_rejects_non_regular_kind(self):
        schema = WorkflowSchema(
            ("a", "b", "c"), ("u",), {t: {"u"} for t in "abc"},
            (at_most(2, ("a", "b", "c")),),
        )
        with pytest.raises(ClassificationError):
            eliminate_equalities(schema)


class TestMarkUsers:
    def test_running_example_after_merge(self, wstar):
        merged = eliminate_equalities(wstar).schema
        result = mark_users(merged)
        assert set(result.marked) == {"u1", "u6"}
        assert result.hard == ()
        assert dict(result.representatives) == {"s1": "u1", "s3": "u6"}

    def test_hall_violator_marks_shared_user(self):
        schema = WorkflowSchema(
            ("a", "b"), ("u1", "u2"), {"a": {"u1"}, "b": {"u1"}}
        )
        result = mark_users(schema)
        assert result.marked == ("u1",)
        assert set(result.hard) == {"a", "b"}

    def test_diagonal_sdr(self):
        tasks = tuple(f"t{i}" for i in range(4))
        users = tuple(f"u{i}" for i in range(4))
        schema = WorkflowSchema(
            tasks, users, {t: {u} for t, u in zip(tasks, users)}
        )
        result = mark_users(schema)
        assert set(result.marked) == set(users)
        assert result.hard == ()

    def test_marks_at_most_one_user_per_task(self):
        schema = WorkflowSchema(
            ("a", "b", "c"), tuple(f"u{i}" for i in range(8)),
            {"a": {"u0", "u1"}, "b": {"u0"}, "c": {"u5", "u6", "u7"}},
        )
        result = mark_users(schema)
        assert len(result.marked) <= 3


class TestKernelize:
    def test_running_example(self, wstar):
        result = kernelize(wstar)
        assert result.verdict == REDUCED
        assert result.schema.tasks == ("s1", "s3")
        assert set(result.schema.users) == {"u1", "u6"}
        assert len(result.schema.users) <= len(result.schema.tasks)

    def test_empty_authorization_is_trivially_unsat(self):
        schema = WorkflowSchema(("a",), ("u",), {"a": set()})
        assert kernelize(schema).verdict == TRIVIALLY_UNSAT

    def test_rejects_atmost(self):
        schema = WorkflowSchema(
            ("a", "b", "c"), ("u",), {t: {"u"} for t in "abc"},
            (at_most(2, ("a", "b", "c")),),
        )
        with pytest.raises(ClassificationError):
            kernelize(schema)

    def test_idempotent_on_reduced_output(self, wstar):
        once = kernelize(wstar)
        twice = kernelize(once.schema)
        assert twice.schema.tasks == once.schema.tasks
        assert twice.schema.users == once.schema.users
        assert twice.merge_log == ()

    def test_never_grows(self, wstar):
        result = kernelize(wstar)
        assert len(result.schema.tasks) <= len(wstar.tasks)
        assert len(result.schema.users) <= len(result.schema.tasks)
        assert len(result.schema.constraints) <= len(wstar.constraints)

    def test_merged_peruser_weight_preserves_satisfiability(self):
        # merging forces three of the four scope positions onto one task;
        # with an upper bound of 2 per user the instance must stay
        # unsatisfiable after reduction
        schema = WorkflowSchema(
            ("t1", "t2", "t3", "t4"), ("u1", "u2"),
            {t: {"u1", "u2"} for t in ("t1", "t2", "t3", "t4")},
            (
                equality("t1", "t2"),
                equality("t1", "t3"),
                per_user(1, 2, ("t1", "t2", "t3", "t4")),
            ),
        )
        assert not solve_bruteforce(schema).satisfiable
        result = kernelize(schema)
        if result.verdict == REDUCED:
            assert not solve_bruteforce(result.schema).satisfiable


    def test_peruser_repeats_survive_dedup(self):
        # after merging c into a, peruser {a,c,b} becomes (a,a,b), which
        # must not be dropped as a duplicate of peruser {a,b}
        schema = WorkflowSchema(
            ("a", "b", "c"), ("u",), {t: {"u"} for t in "abc"},
            (
                equality("a", "c"),
                per_user(1, 2, ("a", "b")),
                per_user(1, 2, ("a", "c", "b")),
            ),
        )
        assert not solve_bruteforce(schema).satisfiable
        result = kernelize(schema)
        assert len(result.schema.constraints) == 2
        if result.verdict == REDUCED:
            assert not solve_bruteforce(result.schema).satisfiable


@st.composite
def merged_peruser_schemas(draw):
    """peruser scopes fed by an equality chain, each with a twin that names
    one more chain task: merging the chain turns the twin's extra task into
    a repeat, so the pair stays distinct only as multisets."""
    k = draw(st.integers(2, 5))
    tasks = tuple(f"t{i}" for i in range(k))
    users = ("u1", "u2", "u3")[: draw(st.integers(1, 3))]
    auth = {t: draw(st.sets(st.sampled_from(users), min_size=1)) for t in tasks}
    chain = draw(st.permutations(tasks))[: draw(st.integers(2, k))]
    constraints = [equality(x, y) for x, y in zip(chain, chain[1:])]
    for _ in range(draw(st.integers(1, 2))):
        scope = draw(st.lists(st.sampled_from(tasks), min_size=1, max_size=3))
        t_high = draw(st.integers(1, 3))
        constraints.append(per_user(1, t_high, scope))
        constraints.append(per_user(1, t_high, scope + [draw(st.sampled_from(chain))]))
    return WorkflowSchema(tasks, users, auth, tuple(draw(st.permutations(constraints))))


@settings(max_examples=200, deadline=None)
@given(schema=merged_peruser_schemas())
def test_kernel_preserves_verdict_under_merged_peruser(schema):
    expected = solve_bruteforce(schema).satisfiable
    result = kernelize(schema)
    if result.verdict == TRIVIALLY_UNSAT:
        assert not expected
        return
    reduced = solve_bruteforce(result.schema)
    assert reduced.satisfiable == expected
    if reduced.satisfiable:
        assert is_valid_plan(schema, lift_plan(result, reduced.plan))


class TestExtendPartialPlan:
    def test_padding_from_empty_partial(self, wstar):
        result = kernelize(wstar)
        plan = extend_partial_plan(
            result.schema, Plan({}), result.representatives
        )
        assert plan is not None
        assert dict(plan.items()) == {"s1": "u1", "s3": "u6"}

    def test_unauthorized_partial_rejected(self, wstar):
        result = kernelize(wstar)
        plan = extend_partial_plan(
            result.schema, Plan({"s1": "u6"}), result.representatives
        )
        assert plan is None

    def test_dead_end_rejected(self):
        schema = WorkflowSchema(
            ("a", "b"), ("u",), {"a": {"u"}, "b": {"u"}},
            (disequality("a", "b"),),
        )
        plan = extend_partial_plan(schema, Plan({"a": "u", "b": "u"}), {})
        assert plan is None


class TestLiftPlan:
    def test_running_example(self, wstar):
        result = kernelize(wstar)
        reduced_plan = Plan({"s1": "u1", "s3": "u6"})
        lifted = lift_plan(result, reduced_plan)
        assert dict(lifted.items()) == {"s1": "u1", "s2": "u1", "s3": "u6"}
        assert is_valid_plan(wstar, lifted)

    def test_identity_without_merges(self):
        schema = WorkflowSchema(("a",), ("u",), {"a": {"u"}})
        result = kernelize(schema)
        lifted = lift_plan(result, Plan({"a": "u"}))
        assert dict(lifted.items()) == {"a": "u"}

    def test_three_way_chain(self):
        schema = WorkflowSchema(
            ("s1", "s2", "s3"), ("u", "v"),
            {t: {"u", "v"} for t in ("s1", "s2", "s3")},
            (equality("s1", "s2"), equality("s2", "s3")),
        )
        result = kernelize(schema)
        reduced_plan = solve_bruteforce(result.schema).plan
        lifted = lift_plan(result, reduced_plan)
        assert len({u for _, u in lifted.items()}) == 1
        assert is_valid_plan(schema, lifted)

    def test_invalid_input_rejected(self, wstar):
        result = kernelize(wstar)
        with pytest.raises(ContractError):
            lift_plan(result, Plan({"s1": "u1", "s3": "u1"}))
