"""Equality elimination, user marking, kernelization, and plan lifting."""

import random
import time
from itertools import combinations, product
from typing import Optional
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wspkit import constraints, kernel
from wspkit.constraints import classification, eligible_set, required_additions
from wspkit.core import (
    EQ2,
    ConstraintInstance,
    Plan,
    WorkflowSchema,
    at_least,
    at_most,
    binding,
    disequality,
    equality,
    is_valid_plan,
    per_user,
    separation,
)
from wspkit.errors import ClassificationError, ContractError, DeadEndError, DomainError
from wspkit.formats import serialize_instance, serialize_kernel_log
from wspkit.kernel import (
    REDUCED,
    TRIVIALLY_UNSAT,
    EqualityEliminationResult,
    MarkingResult,
    MergeRecord,
    eliminate_equalities,
    extend_partial_plan,
    kernelize,
    lift_plan,
    mark_users,
)
from wspkit.matching import hall_violator, maximum_matching
from wspkit.solver import solve_bruteforce, solve_fpt


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

    def test_merge_log_lists_each_group_in_task_order(self):
        # t0, t1 and t2 share a user in every valid plan, whatever order the
        # equalities are read in; the log lists t1 before t2, each with t0's
        # users intersected with those of the group's tasks so far
        schema = WorkflowSchema(
            ("t0", "t1", "t2"), ("u", "v", "w"),
            {"t0": {"u", "v", "w"}, "t1": {"u", "v"}, "t2": {"u", "w"}},
            (equality("t0", "t2"), equality("t2", "t1")),
        )
        assert serialize_kernel_log(kernelize(schema)) == (
            "MERGES\nt1 -> t0 : u v\nt2 -> t0 : u\nMARKED\nu\nHARD\n\nREPS\nt0 u\n"
        )

    def test_dead_end_returns_the_input_unmerged(self):
        # the equalities put a and b on one user, where neq a b has no
        # eligible superset of its singleton
        schema = WorkflowSchema(
            ("a", "b", "c"), ("u",), {t: {"u"} for t in "abc"},
            (equality("a", "c"), disequality("a", "b"), equality("c", "b")),
        )
        result = eliminate_equalities(schema)
        assert result.schema is schema
        assert result.merges == ()
        assert result.unsatisfiable
        reduced = kernelize(schema)
        assert reduced.verdict == TRIVIALLY_UNSAT
        assert serialize_instance(reduced.schema) == (
            "tasks: a b c\nusers: \nauth a: \nauth b: \nauth c: \n"
            "constraint eq a c\nconstraint neq a b\nconstraint eq c b\n"
        )
        assert serialize_kernel_log(reduced) == "MERGES\nMARKED\n\nHARD\n\nREPS\n"


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

    def test_two_violators_in_one_pass(self):
        # matching in task order leaves c and d unmatched; the removal loop
        # takes the violator {a, c} of u3 first and {b, d} of u1 second
        schema = WorkflowSchema(
            ("a", "b", "c", "d", "e"), ("u1", "u2", "u3", "u4"),
            {"a": {"u3"}, "b": {"u1"}, "c": {"u3"}, "d": {"u1"}, "e": {"u2", "u4"}},
        )
        loop = scanning_mark_users(schema)
        assert loop.hard == ("a", "c", "b", "d")
        assert loop.marked == ("u3", "u1", "u2")
        with mock.patch.object(kernel, "maximum_matching",
                               wraps=kernel.maximum_matching) as matchings:
            result = mark_users(schema)
        assert matchings.call_count == 1
        assert result.hard == ("a", "b", "c", "d")
        assert result.marked == ("u1", "u3", "u2")
        assert dict(result.representatives) == {"e": "u2"}

    def test_representatives_are_the_matchings_partners(self):
        # t2, t3 and t4 share u0 and u1. The removal loop's last round
        # matches t0 and t1 to u2 and u3 afresh and gives t0 u3 and t1 u2;
        # the one maximum matching of all five tasks gives t0 u2 and t1 u3
        schema = WorkflowSchema(
            ("t0", "t1", "t2", "t3", "t4"), ("u0", "u1", "u2", "u3"),
            {"t0": {"u0", "u1", "u2", "u3"}, "t1": {"u0", "u2", "u3"}, "t2": {"u1"},
             "t3": {"u0", "u1"}, "t4": {"u0"}},
        )
        loop = scanning_mark_users(schema)
        assert dict(loop.representatives) == {"t0": "u3", "t1": "u2"}
        result = mark_users(schema)
        assert result.hard == loop.hard == ("t2", "t3", "t4")
        assert dict(result.representatives) == {"t0": "u2", "t1": "u3"}
        assert result.marked == ("u0", "u1", "u2", "u3")
        log = serialize_kernel_log(kernelize(schema))
        assert log.endswith("MARKED\nu0 u1 u2 u3\nHARD\nt2 t3 t4\nREPS\nt0 u2\nt1 u3\n")

    @pytest.mark.parametrize("auth, constraint", [
        # dropping zz would leave a with no user and call the instance
        # reduced, with an empty auth line for a
        ({"a": {"zz"}, "b": {"u"}}, disequality("a", "b")),
        # marking never reads a trivially unsatisfiable instance
        ({"a": {"zz"}, "b": set()}, disequality("a", "b")),
        # the merge intersects zz away before marking
        ({"a": {"u"}, "b": {"u", "zz"}}, equality("a", "b")),
    ], ids=["marked", "trivially-unsat", "merged-away"])
    def test_schema_naming_an_unknown_user_is_refused_when_built(self, auth, constraint):
        task = "a" if "zz" in auth["a"] else "b"
        with pytest.raises(DomainError) as caught:
            WorkflowSchema(("a", "b"), ("u",), auth, (constraint,))
        assert str(caught.value) == (
            f"invalid instance: authorization of {task} names unknown users: ['zz']")

    def test_refusal_names_every_task_and_its_unknown_users(self):
        with pytest.raises(DomainError) as caught:
            WorkflowSchema(("a", "b", "c"), ("u",),
                           {"a": {"u"}, "b": {"zz", "u", "yy"}, "c": {"xx"}})
        assert str(caught.value) == (
            "invalid instance: authorization of b names unknown users: ['yy', 'zz']; "
            "authorization of c names unknown users: ['xx']")


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

    def test_trivially_unsat_kernel_keeps_tasks_and_deduplicated_constraints(self):
        # the merge empties a's authorization; neq c b becomes a duplicate
        # of neq a c, and neq a c is also declared twice
        schema = WorkflowSchema(
            ("a", "b", "c"), ("u", "v", "w"),
            {"a": {"u"}, "b": {"v", "w"}, "c": {"u", "w"}},
            (disequality("a", "c"), equality("a", "b"), disequality("c", "b"),
             disequality("a", "c")),
        )
        result = kernelize(schema)
        assert result.verdict == TRIVIALLY_UNSAT
        assert serialize_instance(result.schema) == (
            "tasks: a c\nusers: \nauth a: \nauth c: \nconstraint neq a c\n"
        )
        assert serialize_kernel_log(result) == (
            "MERGES\nb -> a : \nMARKED\n\nHARD\n\nREPS\n"
        )

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

    def test_permuted_peruser_scopes_dedup_to_one(self):
        schema = WorkflowSchema(
            ("a", "b", "c"), ("u", "v", "w"), {t: {"u", "v", "w"} for t in "abc"},
            (
                per_user(1, 2, ("a", "b", "c")),
                per_user(1, 2, ("c", "a", "b")),
                per_user(1, 2, ("a", "b", "c", "a")),
                per_user(1, 2, ("b", "a", "c", "a")),
            ),
        )
        result = kernelize(schema)
        assert result.merge_log == ()
        assert result.schema.constraints == schema.constraints[::2]


@st.composite
def merged_peruser_schemas(draw):
    """peruser scopes fed by an equality chain, each with a twin that names
    one more chain task: merging the chain turns the twin's extra task into
    a repeat, so the pair stays distinct only as multisets. Some also hold
    an intersection-closed peruser with a lower bound of 2 or 3 over a
    scope that repeats a task, whose closures take whole multiplicity
    classes."""
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
    if draw(st.booleans()):
        scope = draw(st.lists(st.sampled_from(tasks), min_size=1, max_size=7))
        t_low = draw(st.integers(2, 3))
        c = per_user(t_low, t_low + draw(st.integers(0, 3)),
                     scope + [draw(st.sampled_from(scope))])
        assume(classification(c) == (True, True))
        constraints.append(c)
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

    def test_block_closure_needs_a_second_pass(self):
        # eq b c meets the block only after eq a b has added b to it
        schema = WorkflowSchema(
            ("a", "b", "c", "d"), ("u", "v"), {t: {"u", "v"} for t in "abcd"},
            (equality("b", "c"), equality("a", "b")),
        )
        plan = extend_partial_plan(schema, Plan({"a": "u"}), {"d": "v"})
        assert plan is not None
        assert dict(plan.items()) == {"a": "u", "b": "u", "c": "u", "d": "v"}

    @pytest.mark.parametrize("partial", [{"a": "u", "c": "v"}, {"c": "v", "a": "u"}])
    def test_blocks_claiming_one_task_rejected(self, partial):
        schema = WorkflowSchema(
            ("a", "b", "c"), ("u", "v"), {t: {"u", "v"} for t in "abc"},
            (equality("a", "b"), equality("c", "b")),
        )
        assert extend_partial_plan(schema, Plan(partial), {}) is None


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


# Reference implementations. Each is the straightforward form of a kernel
# phase that the library replaced with a faster one giving the same output.


def _merged(
    c: ConstraintInstance, survivor: str, absorbed: str
) -> Optional[ConstraintInstance]:
    """The constraint after the merge, or None for an equality between the two."""
    if c.kind == EQ2 and set(c.scope) == {survivor, absorbed}:
        return None

    def sub(seq):
        return [survivor if t == absorbed else t for t in seq]

    if c.scope_sets is not None:
        return ConstraintInstance(c.kind, c.params, scope_sets=map(sub, c.scope_sets))
    return ConstraintInstance(c.kind, c.params, sub(c.scope))


def merge_tasks(schema, survivor, absorbed):
    """Merge two tasks forced to share a user, rebuilding the schema.

    The absorbed task is replaced by the survivor in every scope, the
    survivor's authorization becomes the intersection, and an explicit
    equality between the two is dropped.
    """
    if survivor == absorbed:
        raise DomainError("cannot merge a task with itself")
    if survivor not in schema.auth or absorbed not in schema.auth:
        raise DomainError("both tasks must belong to the schema")
    new_auth = schema.auth[survivor] & schema.auth[absorbed]
    merged = (_merged(c, survivor, absorbed) for c in schema.constraints)
    auth = {t: (new_auth if t == survivor else schema.auth[t])
            for t in schema.tasks if t != absorbed}
    reduced = WorkflowSchema(
        tasks=tuple(t for t in schema.tasks if t != absorbed),
        users=schema.users,
        auth=auth,
        constraints=tuple(c for c in merged if c is not None),
    )
    return reduced, MergeRecord(survivor, absorbed, new_auth)


def grouped_merges(schema, merges):
    """The merges listed by group: the survivors in task order, each with
    its absorbed tasks in task order, and each record's users the
    survivor's authorization in the input intersected with those of the
    group's tasks so far."""
    survivor = {record.absorbed: record.surviving for record in merges}

    def root(t):
        while t in survivor:
            t = survivor[t]
        return t

    groups = {}
    for t in schema.tasks:
        groups.setdefault(root(t), []).append(t)
    grouped = []
    for first, (_, *absorbed) in groups.items():
        users = schema.auth[first]
        for t in absorbed:
            users = users & schema.auth[t]
            grouped.append(MergeRecord(first, t, users))
    return tuple(grouped)


def restart_scan_eliminate_equalities(schema):
    """Merge at the first ineligible (task, constraint) pair in declaration
    order, rebuild the schema with merge_tasks, and rescan from the start.
    A dead end returns the input unmerged; otherwise the merges come back
    grouped by survivor (see grouped_merges)."""
    kernel._check_kinds(schema)
    merges = []
    current = schema
    changed = True
    while changed:
        changed = False
        for s in current.tasks:
            for c in current.constraints:
                if s not in c.scope_set or eligible_set(c, {s}):
                    continue
                try:
                    additions = required_additions(c, {s})
                except DeadEndError:
                    return EqualityEliminationResult(schema, (), unsatisfiable=True)
                partner = current.sort_tasks(additions)[0]
                current, record = merge_tasks(current, s, partner)
                merges.append(record)
                changed = True
                break
            if changed:
                break
    return EqualityEliminationResult(current, grouped_merges(schema, merges))


def recursive_matching(left, adj):
    """Augmenting paths by recursion, left vertices and neighbors in order."""
    match_right = {}

    def augment(x, seen):
        for y in adj.get(x, ()):
            if y in seen:
                continue
            seen.add(y)
            if y not in match_right or augment(match_right[y], seen):
                match_right[y] = x
                return True
        return False

    for x in left:
        augment(x, set())
    return {x: y for y, x in match_right.items()}


def scanning_mark_users(schema):
    """User marking by repeated Hall-violator removal: rebuild every
    adjacency list from schema.users, match afresh, and remove the violator
    reachable from the first unmatched task, until the matching is complete."""

    def first_violator(left, matching, adj):
        """Left vertices reachable by alternating paths from the first
        unmatched left vertex; None if the matching covers left."""
        unmatched = [x for x in left if x not in matching]
        if not unmatched:
            return None
        match_right = {y: x for x, y in matching.items()}
        frontier = [unmatched[0]]
        reach_left = {unmatched[0]}
        reach_right = set()
        while frontier:
            x = frontier.pop()
            for y in adj.get(x, ()):
                if y in reach_right:
                    continue
                reach_right.add(y)
                x2 = match_right[y]
                if x2 not in reach_left:
                    reach_left.add(x2)
                    frontier.append(x2)
        return frozenset(reach_left)

    remaining_tasks = list(schema.tasks)
    remaining_users = list(schema.users)
    marked, hard = [], []
    while True:
        user_set = set(remaining_users)
        adj = {t: [u for u in schema.users if u in schema.auth[t] and u in user_set]
               for t in remaining_tasks}
        matching = recursive_matching(remaining_tasks, adj)
        violator = first_violator(remaining_tasks, matching, adj)
        if violator is None:
            reps = {t: matching[t] for t in remaining_tasks}
            marked.extend(reps[t] for t in remaining_tasks)
            return MarkingResult(tuple(marked), tuple(hard), reps)
        violator_users = set()
        for t in schema.sort_tasks(violator):
            violator_users |= set(adj[t])
        marked.extend(schema.sort_users(violator_users))
        remaining_users = [u for u in remaining_users if u not in violator_users]
        user_set = set(remaining_users)
        still = []
        for t in remaining_tasks:
            if schema.auth[t] & user_set:
                still.append(t)
            else:
                hard.append(t)
        remaining_tasks = still


def reference_kernelize(schema):
    with mock.patch.object(kernel, "eliminate_equalities",
                           restart_scan_eliminate_equalities), \
            mock.patch.object(kernel, "mark_users", scanning_mark_users):
        return kernel.kernelize(schema)


@st.composite
def closed_kind_schemas(draw):
    """Regular intersection-closed instances: equality chains mixed with
    every closed kind, including self-equalities, equalities among tasks
    that other kinds' merges absorb, and peruser scopes with repeated
    tasks."""
    k = draw(st.integers(2, 8))
    tasks = tuple(f"t{i}" for i in range(k))
    users = tuple(f"u{i}" for i in range(draw(st.integers(1, 4))))
    auth = {t: draw(st.sets(st.sampled_from(users))) for t in tasks}
    task = st.sampled_from(tasks)
    scope = st.lists(task, min_size=1, max_size=4, unique=True)
    constraints = []
    for _ in range(draw(st.integers(0, 2))):
        chain = draw(st.permutations(tasks))[: draw(st.integers(2, k))]
        constraints += [equality(x, y) for x, y in zip(chain, chain[1:])]
    constraints += draw(st.lists(st.one_of(
        st.builds(equality, task, task),
        st.builds(disequality, task, task),
        st.builds(separation, scope, scope),
        st.builds(at_most, st.just(1), scope),
        st.builds(at_least, st.integers(1, 2), scope),
        st.builds(lambda a, b: binding((a,), (b,)), task, task),
        st.builds(per_user, st.just(1), st.integers(1, 3),
                  st.lists(task, min_size=1, max_size=5)),
    ), max_size=6))
    return WorkflowSchema(tasks, users, auth, tuple(draw(st.permutations(constraints))))


@settings(max_examples=300, deadline=None)
@given(schema=closed_kind_schemas())
def test_kernel_phases_match_reference_implementations(schema):
    fast = eliminate_equalities(schema)
    slow = restart_scan_eliminate_equalities(schema)
    assert fast.merges == slow.merges
    assert fast.unsatisfiable == slow.unsatisfiable
    assert serialize_instance(fast.schema) == serialize_instance(slow.schema)
    assert (fast.schema is schema) == (slow.schema is schema)
    assert_same_kernel(schema, kernelize(schema), reference_kernelize(schema))


def assert_same_marking(schema, fast, slow):
    """The removal loop's hard tasks and violator users, with hard in task
    order and marked as the violator users in user order followed by the
    representatives in task order. The representatives are the partners of
    the tasks outside hard in the first-fit matching: a system of distinct
    representatives that avoids every violator user."""
    hard = set(slow.hard)
    assert fast.hard == tuple(t for t in schema.tasks if t in hard)
    violators = set(slow.marked) - set(slow.representatives.values())
    reps = tuple(fast.representatives.values())
    assert fast.marked == schema.sort_users(violators) + reps
    adj = {t: [u for u in schema.users if u in schema.auth[t]] for t in schema.tasks}
    first_fit = recursive_matching(schema.tasks, adj)
    assert list(fast.representatives.items()) == [
        (t, first_fit[t]) for t in schema.tasks if t not in hard]
    assert len(set(reps)) == len(reps)
    assert all(u in schema.auth[t] and u not in violators
               for t, u in fast.representatives.items())


def assert_same_kernel(schema, fast, slow):
    """The removal loop's kernel but for the representatives: the same
    verdict, merges, tasks and constraints, and as users the violator users
    and the representatives in user order, with the merged authorization
    restricted to them."""
    assert fast.verdict == slow.verdict
    assert fast.merge_log == slow.merge_log
    assert fast.schema.tasks == slow.schema.tasks
    assert fast.schema.constraints == slow.schema.constraints
    if fast.verdict == TRIVIALLY_UNSAT:
        assert serialize_instance(fast.schema) == serialize_instance(slow.schema)
        assert fast.marked == fast.hard == () and not fast.representatives
        return
    assert_same_marking(fast.schema, fast, slow)
    violators = set(slow.marked) - set(slow.representatives.values())
    kept = violators | set(fast.representatives.values())
    assert fast.schema.users == tuple(u for u in schema.users if u in kept)
    merged = eliminate_equalities(schema).schema
    assert dict(fast.schema.auth) == {t: merged.auth[t] & kept for t in merged.tasks}


@st.composite
def clustered_schemas(draw, max_tasks=30):
    """Up to max_tasks tasks in clusters, each authorized within a few users
    drawn from up to 30: a cluster with fewer users than tasks is a Hall
    violator, and disjoint violators take the removal loop several rounds."""
    k = draw(st.integers(1, max_tasks))
    tasks = tuple(f"t{i}" for i in range(k))
    users = tuple(f"u{i}" for i in range(draw(st.integers(1, 30))))
    order = draw(st.permutations(tasks))
    auth = {}
    while order:
        size = draw(st.integers(1, 6))
        cluster, order = order[:size], order[size:]
        width = min(draw(st.integers(1, len(cluster) + 1)), len(users))
        pool = draw(st.lists(st.sampled_from(users), min_size=width, max_size=width,
                             unique=True))
        for t in cluster:
            auth[t] = draw(st.sets(st.sampled_from(pool), min_size=1))
    return WorkflowSchema(tasks, users, auth)


@settings(max_examples=200, deadline=None)
@given(schema=clustered_schemas())
def test_one_pass_marking_matches_removal_loop(schema):
    with mock.patch.object(kernel, "maximum_matching",
                           wraps=kernel.maximum_matching) as matchings:
        fast = mark_users(schema)
    slow = scanning_mark_users(schema)
    assert_same_marking(schema, fast, slow)
    assert matchings.call_count == 1
    violators = set(fast.marked) - set(fast.representatives.values())
    assert violators == {u for t in fast.hard for u in schema.auth[t]}
    assert len(violators) < len(fast.hard) or not fast.hard
    result = kernelize(schema)
    assert_same_kernel(schema, result, reference_kernelize(schema))
    assert len(result.schema.users) <= len(result.schema.tasks)


@st.composite
def small_clustered_closed_schemas(draw):
    """Clustered authorizations of at most 7 tasks under neq, sep, peruser
    1 h, atmost 1 and eq: small regular intersection-closed instances whose
    kernels often have hard tasks."""
    schema = draw(clustered_schemas(max_tasks=7))
    task = st.sampled_from(schema.tasks)
    scope = st.lists(task, min_size=1, max_size=4, unique=True)
    constraints = draw(st.lists(st.one_of(
        st.builds(disequality, task, task),
        st.builds(separation, scope, scope),
        st.builds(per_user, st.just(1), st.integers(1, 3),
                  st.lists(task, min_size=1, max_size=5)),
        st.builds(at_most, st.just(1), scope),
        st.builds(equality, task, task),
    ), max_size=6))
    return WorkflowSchema(schema.tasks, schema.users, schema.auth, tuple(constraints))


@settings(max_examples=150, deadline=None)
@given(schema=small_clustered_closed_schemas())
def test_representatives_certify_the_kernel(schema):
    expected = solve_bruteforce(schema).satisfiable
    result = kernelize(schema)
    if result.verdict == TRIVIALLY_UNSAT:
        assert not expected
        return
    reduced = result.schema
    outcome = solve_bruteforce(reduced)
    assert outcome.satisfiable == expected
    if outcome.satisfiable:
        assert is_valid_plan(schema, lift_plan(result, outcome.plan))
    # the extension lemma: the instance is satisfiable iff some authorized
    # assignment of the hard tasks, all to violator users, extends to a
    # valid plan through the representatives
    extended = None
    for users in product(*(reduced.sort_users(reduced.auth[t]) for t in result.hard)):
        partial = Plan(dict(zip(result.hard, users)))
        extended = extend_partial_plan(reduced, partial, result.representatives)
        if extended is not None:
            break
    assert (extended is not None) == expected
    if extended is not None:
        assert is_valid_plan(schema, lift_plan(result, extended))


@st.composite
def bipartite_graphs(draw):
    left = [f"x{i}" for i in range(draw(st.integers(0, 9)))]
    right = [f"y{i}" for i in range(draw(st.integers(0, 9)))]
    adj = {}
    for x in left:
        # some left vertices have no entry, and neighbors may repeat
        if right and draw(st.booleans()):
            adj[x] = draw(st.lists(st.sampled_from(right), max_size=2 * len(right)))
    return left, adj


@settings(max_examples=500, deadline=None)
@given(graph=bipartite_graphs())
def test_iterative_matching_matches_recursive(graph):
    assert list(maximum_matching(*graph).items()) == list(recursive_matching(*graph).items())


@settings(max_examples=500, deadline=None)
@given(graph=bipartite_graphs())
def test_hall_violator_is_the_deficient_set(graph):
    left, adj = graph
    matching = maximum_matching(left, adj)
    violator = hall_violator(left, matching, adj)
    unmatched = {x for x in left if x not in matching}
    assert (violator is None) == (not unmatched)
    if violator is None:
        return
    assert unmatched <= violator
    match_right = {y: x for x, y in matching.items()}
    neighbors = {y for x in violator for y in adj.get(x, ())}
    assert all(match_right.get(y) in violator for y in neighbors)
    assert len(neighbors) < len(violator)


def count_worklist(monkeypatch):
    """Count equality elimination's work: ineligible_singletons calls, and
    eligibility checks and required additions through the kernel."""
    calls = {"singletons": 0, "checks": 0, "additions": 0}

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(kernel, "ineligible_singletons",
                        counted("singletons", kernel.ineligible_singletons))
    monkeypatch.setattr(kernel, "eligible_set", counted("checks", eligible_set))
    monkeypatch.setattr(kernel, "required_additions",
                        counted("additions", required_additions))
    return calls


def test_elimination_checks_each_pair_a_bounded_number_of_times(monkeypatch):
    # 400 tasks in 8 random equality trees, plus disequalities and peruser
    # scopes across trees. A rescan after every merge re-checks all the
    # pairs before the merge point, which grows quadratically.
    rng = random.Random(8)
    tasks = [f"t{i}" for i in range(400)]
    trees = [tasks[g::8] for g in range(8)]
    constraints = [equality(tree[rng.randrange(i)], tree[i])
                   for tree in trees for i in range(1, len(tree))]
    for _ in range(6):
        a, b, c = (rng.choice(tree) for tree in rng.sample(trees, 3))
        constraints += [disequality(a, b), per_user(1, 3, (a, b, c))]
    rng.shuffle(constraints)
    schema = WorkflowSchema(tasks, ("u",), {t: {"u"} for t in tasks}, constraints)
    calls = count_worklist(monkeypatch)
    result = eliminate_equalities(schema)
    assert len(result.merges) == 400 - 8
    assert not result.unsatisfiable
    # every merge is an eq merge: no eligibility check, no required additions
    assert calls["checks"] == calls["additions"] == 0
    assert calls["singletons"] <= 2 * sum(c.arity for c in constraints if c.kind != EQ2)


def test_elimination_without_ineligible_pairs_pops_nothing(monkeypatch):
    # Every singleton is eligible for neq and sep over two or more tasks and
    # for peruser with t_low = 1 and no repeats, so no pair is ever queued.
    rng = random.Random(3)
    tasks = [f"t{i}" for i in range(60)]
    constraints = []
    for _ in range(40):
        a, b, c = rng.sample(tasks, 3)
        constraints += [disequality(a, b), separation((a,), (b, c)),
                        per_user(1, rng.randint(1, 3), (a, b, c))]
    schema = WorkflowSchema(tasks, ("u", "v"), {t: {"u", "v"} for t in tasks},
                            constraints)
    calls = count_worklist(monkeypatch)
    result = eliminate_equalities(schema)
    assert result.schema is schema
    assert result.merges == ()
    assert calls["additions"] == calls["checks"] == 0
    assert calls["singletons"] == len(constraints)


@pytest.mark.parametrize("make", [
    lambda tasks: at_most(1, tasks),
    lambda tasks: per_user(len(tasks), len(tasks), tasks),
], ids=["atmost-1", "peruser-k-k"])
def test_whole_scope_closure_merges_in_polynomial_checks(monkeypatch, make):
    # Every eligible superset of a singleton is the whole scope. Searching
    # scope subsets by size would check 2^29 sets before the first merge.
    tasks = tuple(f"t{i}" for i in range(30))
    schema = WorkflowSchema(tasks, ("u", "v"), {t: {"u", "v"} for t in tasks},
                            (make(tasks),))
    calls = 0

    def counted(c, block):
        nonlocal calls
        calls += 1
        return eligible_set(c, block)

    monkeypatch.setattr(constraints, "eligible_set", counted)
    monkeypatch.setattr(kernel, "eligible_set", counted)
    result = kernelize(schema)
    assert len(result.merge_log) == 29
    assert result.schema.tasks == ("t0",)
    assert calls <= 4 * len(tasks)


SCALE_TASKS = tuple(f"t{i}" for i in range(10_000))
HALF = SCALE_TASKS[:5_000]


@pytest.mark.parametrize("constraints, kept", [
    ([equality(a, b) for a, b in zip(SCALE_TASKS, SCALE_TASKS[1:])], ("t0",)),
    ([equality(b, a) for a, b in zip(SCALE_TASKS, SCALE_TASKS[1:])][::-1], ("t0",)),
    ([at_most(1, SCALE_TASKS)], ("t0",)),
    ([per_user(10_000, 10_000, SCALE_TASKS)], ("t0",)),
    ([equality(a, b) for a, b in zip(HALF, HALF[1:])]
     + [at_least(2, SCALE_TASKS), separation(SCALE_TASKS[::2], SCALE_TASKS[1::2])],
     ("t0",) + SCALE_TASKS[5_000:]),
], ids=["eq-chain", "eq-chain-reversed", "atmost-1", "peruser-r-r", "half-eq-atleast-sep"])
def test_elimination_scales_to_ten_thousand_tasks(monkeypatch, constraints, kept):
    # Rewriting every constraint that names the absorbed task at each merge
    # made the atmost, peruser and half-chain families quadratic; the two
    # chains, declared in either order, time the eq path.
    schema = WorkflowSchema(SCALE_TASKS, ("u", "v"),
                            {t: {"u", "v"} for t in SCALE_TASKS}, constraints)
    calls = count_worklist(monkeypatch)
    start = time.perf_counter()
    result = kernelize(schema)
    elapsed = time.perf_counter() - start
    assert len(result.merge_log) == len(SCALE_TASKS) - len(kept)
    assert result.schema.tasks == kept
    others = sum(c.kind != EQ2 for c in constraints)
    assert calls["singletons"] <= 2 * others
    assert calls["additions"] <= 2 * others
    assert elapsed < 2


def merge_shaped_schema(seed, groups, pigeonhole):
    """240 tasks over 600 users in `groups` random equality trees, with
    neq, sep and peruser 1 h constraints across trees. The pigeonhole
    variant makes the trees pairwise neq and authorizes the first task of
    each for the same groups - 1 users only."""
    rng = random.Random(seed)
    tasks = [f"t{i}" for i in range(240)]
    users = [f"u{i}" for i in range(600)]
    shuffled = rng.sample(tasks, len(tasks))
    trees = [shuffled[g::groups] for g in range(groups)]
    auth = {t: set(rng.sample(users, 12)) for t in tasks}
    constraints = [equality(tree[i], rng.choice(tree[:i]))
                   for tree in trees for i in range(1, len(tree))]
    for _ in range(15):
        picked = [rng.choice(tree) for tree in rng.sample(trees, rng.randint(2, 4))]
        kind = rng.choice(("neq", "sep", "peruser"))
        if kind == "neq":
            constraints.append(disequality(*picked[:2]))
        elif kind == "sep":
            split = rng.randint(1, len(picked) - 1)
            constraints.append(separation(picked[:split], picked[split:]))
        else:
            constraints.append(per_user(1, rng.randint(1, 3), picked))
    if pigeonhole:
        core = set(rng.sample(users, groups - 1))
        for tree in trees:
            auth[tree[0]] = core
        constraints += [disequality(rng.choice(a), rng.choice(b))
                        for a, b in combinations(trees, 2)]
    rng.shuffle(constraints)
    return WorkflowSchema(tasks, users, auth, constraints)


@pytest.mark.parametrize("pigeonhole", [False, True], ids=["planted", "pigeonhole"])
@pytest.mark.parametrize("groups", [6, 7, 8])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_elimination_matches_restart_scan_on_merge_shaped_schemas(seed, groups, pigeonhole):
    schema = merge_shaped_schema(seed, groups, pigeonhole)
    fast = eliminate_equalities(schema)
    slow = restart_scan_eliminate_equalities(schema)
    assert len(fast.merges) == 240 - groups
    assert fast.merges == slow.merges
    assert fast.unsatisfiable == slow.unsatisfiable
    assert serialize_instance(fast.schema) == serialize_instance(slow.schema)


class TestStaleHeapEntries:
    """Pairs that a heap of (task, constraint) entries once held after
    they stopped being current; the merges must still match the rescan."""

    def eliminate(self, tasks, constraints):
        schema = WorkflowSchema(tasks, ("u",), {t: {"u"} for t in tasks}, constraints)
        result = eliminate_equalities(schema)
        slow = restart_scan_eliminate_equalities(schema)
        assert result.merges == slow.merges
        assert result.unsatisfiable == slow.unsatisfiable
        assert serialize_instance(result.schema) == serialize_instance(slow.schema)
        return result

    def test_queued_task_absorbed_by_an_equality(self):
        # eq(b, c) is queued at b, then a absorbs b through eq(a, b)
        result = self.eliminate(("a", "b", "c"),
                                (equality("b", "c"), equality("a", "b")))
        assert [r[:2] for r in result.merges] == [("a", "b"), ("a", "c")]

    def test_queued_task_absorbed_from_another_kind(self):
        # atmost 1 {b, c} is queued at b; its rewrite queues it again at a
        result = self.eliminate(("a", "b", "c"),
                                (at_most(1, ("b", "c")), equality("a", "b")))
        assert [r[:2] for r in result.merges] == [("a", "b"), ("a", "c")]
        assert result.schema.tasks == ("a",)

    def test_queued_task_made_eligible_by_a_rewrite(self):
        # both copies are queued at a; the first merge leaves each over {a}
        # alone, where {a} is eligible, while a is still in the schema
        result = self.eliminate(("a", "b"),
                                (at_most(1, ("b", "a")), at_most(1, ("b", "a"))))
        assert [r[:2] for r in result.merges] == [("a", "b")]
        assert not result.unsatisfiable

    def test_two_equalities_over_one_pair(self):
        result = self.eliminate(("a", "b"),
                                (equality("a", "b"), equality("b", "a")))
        assert [r[:2] for r in result.merges] == [("a", "b")]
        assert result.schema.constraints == ()

    @pytest.mark.parametrize("constraints, fault", [
        ((equality("x", "y"), equality("a", "b")),
         "constraint #0 (eq x y) names unknown tasks: ['x', 'y']"),
        ((equality("a", "x"),), "constraint #0 (eq a x) names unknown tasks: ['x']"),
        ((equality("b", "x"), equality("a", "b")),
         "constraint #0 (eq b x) names unknown tasks: ['x']"),
        ((disequality("a", "ghost"), equality("a", "b")),
         "constraint #0 (neq a ghost) names unknown tasks: ['ghost']"),
        ((at_most(2, ("a", "b", "ghost")),),
         "constraint #0 (atmost 2 {a,b,ghost}) names unknown tasks: ['ghost']"),
    ], ids=["outside", "declared", "rewritten", "untouched", "not-closed"])
    def test_constraint_naming_a_task_outside_the_schema(self, constraints, fault):
        with pytest.raises(DomainError) as caught:
            WorkflowSchema(("a", "b"), ("u",), {"a": {"u"}, "b": {"u"}}, constraints)
        assert str(caught.value) == "invalid instance: " + fault


def test_merge_record_fields_by_name_and_position():
    schema = WorkflowSchema(("a", "b"), ("u", "v"), {"a": {"u", "v"}, "b": {"u"}},
                            (equality("a", "b"),))
    (record,) = eliminate_equalities(schema).merges
    surviving, absorbed, intersected = record
    assert (surviving, absorbed, intersected) == ("a", "b", frozenset({"u"}))
    assert (record.surviving, record.absorbed, record.intersected_auth) == tuple(record)
    assert record == MergeRecord("a", "b", frozenset({"u"}))


def chained_authorization(k):
    """t0: u0 and ti: u(i-1) ui. Matching tasks in order, each new task
    first tries the user of its predecessor, so the augmenting-path search
    runs as deep as the chain before it succeeds."""
    tasks = tuple(f"t{i}" for i in range(k))
    users = tuple(f"u{i}" for i in range(k))
    auth = {t: {users[max(i - 1, 0)], users[i]} for i, t in enumerate(tasks)}
    return WorkflowSchema(tasks, users, auth)


def test_kernelize_long_chained_authorization():
    schema = chained_authorization(3000)
    result = kernelize(schema)
    assert result.verdict == REDUCED
    assert len(result.schema.users) <= len(result.schema.tasks) == 3000
    assert dict(result.representatives) == dict(zip(schema.tasks, schema.users))


def test_stray_task_sets_cannot_hide_a_disequality():
    # A neq that carried stray scope_sets used to reach dedup_key, which read
    # the sets: kernelize kept one of three pairwise neq over a, b, c with the
    # same stray sets, and the two-user instance became satisfiable.
    pairs = (("a", "b"), ("b", "c"), ("a", "c"))
    for pair in pairs:
        with pytest.raises(DomainError, match="neq takes a scope, not task sets"):
            ConstraintInstance("neq", scope=pair, scope_sets=(("x",), ("y",)))
    schema = WorkflowSchema(("a", "b", "c"), ("u", "v"),
                            {t: {"u", "v"} for t in "abc"},
                            tuple(disequality(*pair) for pair in pairs))
    result = kernelize(schema)
    assert len(result.schema.constraints) == 3
    kernel_satisfiable = (result.verdict != TRIVIALLY_UNSAT
                          and solve_fpt(result.schema).satisfiable)
    assert not solve_fpt(schema).satisfiable
    assert kernel_satisfiable == solve_fpt(schema).satisfiable
