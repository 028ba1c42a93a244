"""FPT solver, brute-force oracle, projection, and block assignment."""

import pytest

from wspkit.constraints import eligible_partition
from wspkit.core import (
    WorkflowSchema,
    disequality,
    is_valid_plan,
)
from wspkit.errors import DomainError, ResourceLimitError
from wspkit.kernel import REDUCED, kernelize, lift_plan
from wspkit.matching import maximum_matching
from wspkit.partitions import growth_strings
from wspkit.reductions import gen_random_instance
from wspkit.solver import (
    assign_blocks,
    project,
    solve_bruteforce,
    solve_fpt,
)


def blocks(*groups):
    """The labelling that puts each group of tasks in its own block."""
    return {t: i for i, g in enumerate(groups) for t in g}


ALL_KINDS = ["eq", "neq", "bind", "sep", "atmost", "atleast", "peruser"]


def reference_plan(schema):
    """solve_fpt's contract, restated without solver code.

    The plan is that of the first partition, in growth-string order, that
    is eligible for every constraint and whose blocks match injectively to
    users; blocks are matched in order of their first task, each trying
    its common users in declaration order. None if there is no such
    partition.
    """
    tasks = schema.tasks
    for code in growth_strings(len(tasks)):
        label = dict(zip(tasks, code))
        if not all(eligible_partition(c, label) for c in schema.constraints):
            continue
        # growth-string block numbers follow the order of first tasks
        block_ids = list(range(max(code, default=-1) + 1))
        adj = {
            b: [u for u in schema.users
                if all(u in schema.auth[t] for t in tasks if label[t] == b)]
            for b in block_ids
        }
        matching = maximum_matching(block_ids, adj)
        if len(matching) == len(block_ids):
            return {t: matching[label[t]] for t in tasks}
    return None


def pigeonhole(k):
    """k pairwise-distinct tasks and k - 1 users: unsatisfiable."""
    tasks = tuple(f"t{i}" for i in range(k))
    users = tuple(f"u{i}" for i in range(k - 1))
    return WorkflowSchema(
        tasks, users, {t: set(users) for t in tasks},
        tuple(disequality(a, b) for i, a in enumerate(tasks) for b in tasks[i + 1:]),
    )


def random_schema(seed, max_tasks):
    return gen_random_instance(
        num_tasks=2 + seed % (max_tasks - 1),
        num_users=2 + seed % 6,
        num_constraints=seed % 7,
        kinds=ALL_KINDS,
        seed=seed,
    )


class TestSolveFpt:
    def test_running_example(self, wstar, wstar_plan):
        outcome = solve_fpt(wstar)
        assert outcome.satisfiable
        assert dict(outcome.plan.items()) == dict(wstar_plan.items())

    def test_empty_schema(self):
        outcome = solve_fpt(WorkflowSchema((), (), {}))
        assert outcome.satisfiable
        assert dict(outcome.plan.items()) == {}

    def test_matching_impossible(self):
        schema = WorkflowSchema(
            ("a", "b"), ("u1",), {"a": {"u1"}, "b": {"u1"}},
            (disequality("a", "b"),),
        )
        assert not solve_fpt(schema).satisfiable

    def test_node_budget(self):
        schema = pigeonhole(10)
        nodes = solve_fpt(schema).stats.partitions_examined
        assert not solve_fpt(schema, plan_cap=nodes).satisfiable
        with pytest.raises(ResourceLimitError,
                           match=rf"more than {nodes - 1} nodes \(node budget plan_cap\)"):
            solve_fpt(schema, plan_cap=nodes - 1)

    @pytest.mark.parametrize("k", [10, 16])
    def test_pigeonhole_nodes(self, k):
        # the more-blocks-than-users prune settles it, not Bell(k) leaves
        outcome = solve_fpt(pigeonhole(k))
        assert not outcome.satisfiable
        assert outcome.stats.partitions_examined < k * k
        assert outcome.stats.matchings_attempted == 0

    def test_authorization_prune(self):
        # task i may take only user i: every shared block is pruned at once
        k = 8
        tasks = tuple(f"t{i}" for i in range(k))
        schema = WorkflowSchema(tasks, tuple(f"u{i}" for i in range(k)),
                                {t: {f"u{i}"} for i, t in enumerate(tasks)})
        outcome = solve_fpt(schema)
        assert outcome.satisfiable
        assert outcome.stats.partitions_examined == k * (k + 1) // 2
        assert outcome.stats.matchings_attempted == 1

    def test_thousands_of_tasks(self):
        # a disequality chain: the search alternates two blocks to depth k
        k = 3000
        tasks = tuple(f"t{i}" for i in range(k))
        users = ("u", "v", "w")
        schema = WorkflowSchema(
            tasks, users, {t: set(users) for t in tasks},
            tuple(disequality(a, b) for a, b in zip(tasks, tasks[1:])),
        )
        outcome = solve_fpt(schema)
        assert outcome.satisfiable
        assert is_valid_plan(schema, outcome.plan)
        assert {u for _, u in outcome.plan.items()} == {"u", "v"}


class TestSolveFptContract:
    """solve_fpt returns the plan of the first eligible, matchable partition
    in growth-string order; any faster search must keep that plan."""

    @staticmethod
    def check(schema):
        outcome = solve_fpt(schema)
        expected = reference_plan(schema)
        assert outcome.satisfiable == (expected is not None)
        if expected is not None:
            assert dict(outcome.plan.items()) == expected

    @pytest.mark.parametrize("seed", range(120))
    def test_random_instances(self, seed):
        self.check(random_schema(seed, max_tasks=7))

    @pytest.mark.parametrize("seed", range(0, 120, 8))
    def test_no_users(self, seed):
        schema = random_schema(seed, max_tasks=7)
        self.check(WorkflowSchema(schema.tasks, (), {}, schema.constraints))

    @pytest.mark.parametrize("users", [(), ("u1", "u2")])
    def test_no_tasks(self, users):
        self.check(WorkflowSchema((), users, {}))


class TestSolveBruteforce:
    def test_running_example(self, wstar, wstar_plan):
        outcome = solve_bruteforce(wstar)
        assert dict(outcome.plan.items()) == dict(wstar_plan.items())

    def test_unsatisfiable_empty_auth(self):
        schema = WorkflowSchema(("a",), ("u",), {"a": set()})
        assert not solve_bruteforce(schema).satisfiable

    def test_node_cap(self, wstar):
        with pytest.raises(ResourceLimitError):
            solve_bruteforce(wstar, plan_cap=2)

    def test_many_tasks(self):
        # one search level per task: the search keeps its own stack
        k = 3000
        tasks = tuple(f"t{i}" for i in range(k))
        schema = WorkflowSchema(tasks, ("u1", "u2"), {t: {"u2"} for t in tasks})
        outcome = solve_bruteforce(schema)
        assert outcome.satisfiable
        assert dict(outcome.plan.items()) == {t: "u2" for t in tasks}


class TestNodeBudget:
    @pytest.mark.parametrize("solve", [solve_fpt, solve_bruteforce], ids=["fpt", "brute"])
    def test_negative_budget_refused(self, wstar, solve):
        with pytest.raises(DomainError, match=r"^plan_cap must be at least 0, got -3$"):
            solve(wstar, plan_cap=-3)

    def test_negative_budget_refused_by_projection(self, wstar):
        with pytest.raises(DomainError, match=r"^plan_cap must be at least 0, got -1$"):
            project(wstar, {"s1"}, plan_cap=-1)

    @pytest.mark.parametrize("solve", [solve_fpt, solve_bruteforce], ids=["fpt", "brute"])
    def test_zero_budget_decides_the_empty_schema(self, solve):
        outcome = solve(WorkflowSchema((), ("u",), {}), plan_cap=0)
        assert outcome.satisfiable
        assert dict(outcome.plan.items()) == {}


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_instances(self, seed):
        schema = gen_random_instance(
            num_tasks=2 + seed % 5,
            num_users=1 + seed % 7,
            num_constraints=seed % 6,
            kinds=["eq", "neq", "bind", "sep", "atmost", "atleast", "peruser"],
            seed=seed,
        )
        fpt = solve_fpt(schema)
        brute = solve_bruteforce(schema)
        assert fpt.satisfiable == brute.satisfiable
        for outcome in (fpt, brute):
            if outcome.satisfiable:
                assert is_valid_plan(schema, outcome.plan)

    @pytest.mark.parametrize("seed", range(160))
    def test_random_instances_up_to_nine_tasks(self, seed):
        schema = gen_random_instance(
            num_tasks=2 + seed % 8,
            num_users=2 + (seed // 8) % 6,
            num_constraints=(seed // 3) % 6,
            kinds=ALL_KINDS,
            seed=seed,
            density=0.7,
        )
        fpt = solve_fpt(schema)
        assert fpt.satisfiable == solve_bruteforce(schema).satisfiable
        if fpt.satisfiable:
            assert is_valid_plan(schema, fpt.plan)

    @pytest.mark.parametrize("seed", range(20))
    def test_kernel_preserves_status(self, seed):
        schema = gen_random_instance(
            num_tasks=2 + seed % 5,
            num_users=2 + seed % 8,
            num_constraints=seed % 5,
            kinds=["eq", "neq", "sep", ("peruser", (1, 2))],
            seed=seed,
        )
        result = kernelize(schema)
        orig = solve_bruteforce(schema)
        if result.verdict != REDUCED:
            assert not orig.satisfiable
            return
        reduced = solve_fpt(result.schema)
        assert reduced.satisfiable == orig.satisfiable
        if reduced.satisfiable:
            assert is_valid_plan(schema, lift_plan(result, reduced.plan))


class TestProject:
    def test_running_example(self, wstar):
        plans = project(wstar, {"s2", "s3"})
        assert len(plans) == 1
        assert dict(plans[0].items()) == {"s2": "u1", "s3": "u6"}

    def test_empty_target_on_satisfiable(self, wstar):
        plans = project(wstar, set())
        assert len(plans) == 1 and dict(plans[0].items()) == {}

    def test_full_target_yields_all_valid_plans(self, wstar, wstar_plan):
        plans = project(wstar, set(wstar.tasks))
        assert [dict(p.items()) for p in plans] == [dict(wstar_plan.items())]

    def test_unknown_task_rejected(self, wstar):
        with pytest.raises(DomainError):
            project(wstar, {"nope"})


class TestAssignBlocks:
    def test_merged_running_example(self, wstar):
        merged = kernelize(wstar).schema
        plan = assign_blocks(merged, blocks({"s1"}, {"s3"}))
        assert dict(plan.items()) == {"s1": "u1", "s3": "u6"}

    def test_empty_intersection_block(self):
        schema = WorkflowSchema(("a", "b"), ("u", "v"),
                                {"a": {"u"}, "b": {"v"}})
        assert assign_blocks(schema, blocks({"a", "b"})) is None

    def test_single_block_common_user(self):
        schema = WorkflowSchema(("a", "b"), ("u", "v"),
                                {"a": {"u", "v"}, "b": {"v"}})
        plan = assign_blocks(schema, blocks({"a", "b"}))
        assert dict(plan.items()) == {"a": "v", "b": "v"}

    def test_missing_task_label(self):
        schema = WorkflowSchema(("a", "b"), ("u",), {"a": {"u"}, "b": {"u"}})
        with pytest.raises(DomainError, match="'b'"):
            assign_blocks(schema, {"a": 0, "c": 0})

    def test_keys_outside_schema_ignored(self):
        schema = WorkflowSchema(("a", "b"), ("u", "v"),
                                {"a": {"u"}, "b": {"u", "v"}})
        plan = assign_blocks(schema, {"ghost": 0, "b": 1, "a": 0})
        assert dict(plan.items()) == {"a": "u", "b": "v"}

    def test_blocks_matched_in_order_of_first_task(self):
        schema = WorkflowSchema(("a", "b"), ("u", "v"),
                                {"a": {"u", "v"}, "b": {"u", "v"}})
        # a's block takes u first; b's search for u then moves a onto v
        plan = assign_blocks(schema, {"b": 0, "a": 1})
        assert dict(plan.items()) == {"a": "v", "b": "u"}

    @pytest.mark.parametrize("seed", range(30))
    def test_label_types_give_the_same_plan(self, seed):
        schema = random_schema(seed, max_tasks=6)
        tasks = schema.tasks
        for code in growth_strings(len(tasks)):
            ints = dict(zip(tasks, code))
            reversed_ints = {t: -x for t, x in ints.items()}
            strs = {t: f"block {x}" for t, x in ints.items()}
            sets = {t: frozenset(s for s in tasks if ints[s] == x)
                    for t, x in ints.items()}
            plan = assign_blocks(schema, ints)
            for label in (reversed_ints, strs, sets):
                assert assign_blocks(schema, label) == plan
