"""Equality elimination, user marking, kernelization, and plan lifting."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wspkit import kernel
from wspkit.constraints import eligible_set, required_additions
from wspkit.core import (
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
from wspkit.formats import serialize_instance
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


# Reference implementations. Each is the straightforward form of a kernel
# phase that the library replaced with a faster one giving the same output.


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
    merged = (kernel._merged(c, survivor, absorbed) for c in schema.constraints)
    auth = {t: (new_auth if t == survivor else schema.auth[t])
            for t in schema.tasks if t != absorbed}
    reduced = WorkflowSchema(
        tasks=tuple(t for t in schema.tasks if t != absorbed),
        users=schema.users,
        auth=auth,
        constraints=tuple(c for c in merged if c is not None),
    )
    return reduced, MergeRecord(survivor, absorbed, new_auth)


def restart_scan_eliminate_equalities(schema):
    """Merge at the first ineligible (task, constraint) pair in declaration
    order, rebuild the schema with merge_tasks, and rescan from the start."""
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
                    return EqualityEliminationResult(
                        current, tuple(merges), unsatisfiable=True
                    )
                partner = current.sort_tasks(additions)[0]
                current, record = merge_tasks(current, s, partner)
                merges.append(record)
                changed = True
                break
            if changed:
                break
    return EqualityEliminationResult(current, tuple(merges))


def recursive_matching(left, right, adj):
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
    """User marking that rebuilds every adjacency list from schema.users."""
    remaining_tasks = list(schema.tasks)
    remaining_users = list(schema.users)
    marked, hard = [], []
    while True:
        user_set = set(remaining_users)
        adj = {t: [u for u in schema.users if u in schema.auth[t] and u in user_set]
               for t in remaining_tasks}
        matching = recursive_matching(remaining_tasks, remaining_users, adj)
        violator = hall_violator(remaining_tasks, matching, adj)
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
    every closed kind, including peruser scopes with repeated tasks."""
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
    fast = kernelize(schema)
    slow = reference_kernelize(schema)
    assert fast.verdict == slow.verdict
    assert fast.merge_log == slow.merge_log
    assert fast.marked == slow.marked
    assert fast.hard == slow.hard
    assert list(fast.representatives.items()) == list(slow.representatives.items())
    assert serialize_instance(fast.schema) == serialize_instance(slow.schema)


@st.composite
def bipartite_graphs(draw):
    left = [f"x{i}" for i in range(draw(st.integers(0, 9)))]
    right = [f"y{i}" for i in range(draw(st.integers(0, 9)))]
    adj = {}
    for x in left:
        # some left vertices have no entry, and neighbors may repeat
        if right and draw(st.booleans()):
            adj[x] = draw(st.lists(st.sampled_from(right), max_size=2 * len(right)))
    return left, right, adj


@settings(max_examples=500, deadline=None)
@given(graph=bipartite_graphs())
def test_iterative_matching_matches_recursive(graph):
    assert list(maximum_matching(*graph).items()) == list(recursive_matching(*graph).items())


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
    calls = 0

    def counted(c, block):
        nonlocal calls
        calls += 1
        return eligible_set(c, block)

    monkeypatch.setattr(kernel, "eligible_set", counted)
    result = eliminate_equalities(schema)
    assert len(result.merges) == 400 - 8
    assert not result.unsatisfiable
    assert calls <= 2 * sum(c.arity for c in constraints)


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
