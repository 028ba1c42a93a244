"""Satisfiability: FPT partition-enumeration solver, brute-force oracle, projection."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from wspkit.constraints import eligible_partition
from wspkit.core import (
    ConstraintInstance,
    Plan,
    TaskPartition,
    WorkflowSchema,
)
from wspkit.errors import DomainError, ResourceLimitError
from wspkit.matching import maximum_matching
from wspkit.partitions import bell_number, growth_strings

SATISFIABLE = "satisfiable"
UNSATISFIABLE = "unsatisfiable"

DEFAULT_TASK_CAP = 12
DEFAULT_PLAN_CAP = 10**7


@dataclass
class SolveStats:
    partitions_examined: int = 0
    matchings_attempted: int = 0
    assignments_examined: int = 0


@dataclass(frozen=True)
class SolveOutcome:
    status: str
    plan: Optional[Plan] = None
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def satisfiable(self) -> bool:
        return self.status == SATISFIABLE


def assign_blocks(
    schema: WorkflowSchema, partition: TaskPartition
) -> Optional[Plan]:
    """Injective block-to-user assignment respecting every member's authorization."""
    if partition.carrier != frozenset(schema.tasks):
        raise DomainError("partition must cover all schema tasks")
    blocks = sorted(
        (schema.sort_tasks(b) for b in partition.blocks),
        key=lambda b: schema.task_index[b[0]],
    )
    names = {i: b for i, b in enumerate(blocks)}
    adj = {}
    for i, b in names.items():
        allowed = set(schema.users)
        for t in b:
            allowed &= schema.auth[t]
        adj[i] = [u for u in schema.users if u in allowed]
    matching = maximum_matching(list(names), schema.users, adj)
    if len(matching) != len(blocks):
        return None
    assignment = {}
    for i, u in matching.items():
        for t in names[i]:
            assignment[t] = u
    return Plan(assignment)


def solve_fpt(
    schema: WorkflowSchema, task_cap: int = DEFAULT_TASK_CAP
) -> SolveOutcome:
    """Decide satisfiability by enumerating task partitions.

    Partitions are enumerated as restricted growth strings in
    lexicographic order; for each partition whose growth-string labelling
    is eligible for every constraint, an injective block-to-user matching
    is sought. The first partition admitting one yields the plan.
    """
    k = len(schema.tasks)
    if k > task_cap:
        raise ResourceLimitError(
            f"{k} tasks exceeds the cap {task_cap} "
            f"(Bell({k}) = {bell_number(k)} partitions); kernelize first"
        )
    stats = SolveStats()
    tasks = schema.tasks
    for code in growth_strings(k):
        stats.partitions_examined += 1
        label = dict(zip(tasks, code))
        if not all(eligible_partition(c, label) for c in schema.constraints):
            continue
        stats.matchings_attempted += 1
        blocks: list[set[str]] = [set() for _ in range(max(code, default=-1) + 1)]
        for t, which in zip(tasks, code):
            blocks[which].add(t)
        partition = TaskPartition(frozenset(frozenset(b) for b in blocks))
        plan = assign_blocks(schema, partition) if k else Plan({})
        if plan is not None:
            return SolveOutcome(SATISFIABLE, plan, stats)
    return SolveOutcome(UNSATISFIABLE, None, stats)


def _dfs_plans(schema: WorkflowSchema, plan_cap: int, stop_at_first: bool):
    """Depth-first enumeration of complete authorized eligible plans.

    Tasks are assigned in declaration order and users tried in declaration
    order, so complete plans are visited in lexicographic order. Branches
    are pruned once an authorization or a fully-assigned constraint fails;
    pruning never skips a valid plan, so the first plan found equals the
    first valid plan in the full lexicographic enumeration. plan_cap bounds
    the number of search nodes visited, not the raw plan space.
    """
    n, k = len(schema.users), len(schema.tasks)
    if n == 0 and k > 0:
        return [], SolveStats()
    # constraints checked as soon as their scope is fully assigned
    index = schema.task_index
    by_depth: list[list[ConstraintInstance]] = [[] for _ in range(k)]
    for c in schema.constraints:
        depth = max(index[t] for t in c.scope_set)
        by_depth[depth].append(c)
    stats = SolveStats()
    found: list[Plan] = []
    assignment: dict[str, str] = {}
    nodes = 0

    def recurse(depth: int) -> bool:
        nonlocal nodes
        if depth == k:
            stats.assignments_examined += 1
            found.append(Plan(dict(assignment)))
            return stop_at_first
        t = schema.tasks[depth]
        for u in schema.users:
            if u not in schema.auth[t]:
                continue
            nodes += 1
            if nodes > plan_cap:
                raise ResourceLimitError(
                    f"search visited more than {plan_cap} nodes"
                )
            assignment[t] = u
            # scopes at this depth are fully assigned by construction
            if all(eligible_partition(c, assignment) for c in by_depth[depth]):
                if recurse(depth + 1):
                    del assignment[t]
                    return True
            del assignment[t]
        return False

    recurse(0)
    return found, stats


def solve_bruteforce(
    schema: WorkflowSchema, plan_cap: int = DEFAULT_PLAN_CAP
) -> SolveOutcome:
    """Independent oracle: first valid plan in lexicographic order, if any."""
    found, stats = _dfs_plans(schema, plan_cap, stop_at_first=True)
    if found:
        return SolveOutcome(SATISFIABLE, found[0], stats)
    return SolveOutcome(UNSATISFIABLE, None, stats)


def project(
    schema: WorkflowSchema,
    tasks: frozenset[str] | set[str],
    plan_cap: int = DEFAULT_PLAN_CAP,
) -> tuple[Plan, ...]:
    """All restrictions to the given tasks of valid complete plans.

    Returned in a canonical order (sorted by the assigned users in task
    declaration order), without duplicates.
    """
    tasks = frozenset(tasks)
    unknown = tasks - set(schema.tasks)
    if unknown:
        raise DomainError(f"projection onto unknown tasks: {sorted(unknown)}")
    found, _ = _dfs_plans(schema, plan_cap, stop_at_first=False)
    ordered = schema.sort_tasks(tasks)
    seen: dict[tuple[str, ...], Plan] = {}
    for plan in found:
        key = tuple(plan[t] for t in ordered)
        if key not in seen:
            seen[key] = Plan({t: plan[t] for t in ordered})
    return tuple(seen[key] for key in sorted(seen))
