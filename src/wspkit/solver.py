"""Satisfiability: FPT partition search, brute-force oracle, projection.

``solve_fpt`` searches task partitions depth first, pruning prefixes that
break a completed constraint scope, a block's common authorization or the
user count, and matches each surviving partition's blocks to users.
``solve_bruteforce`` searches user assignments and is kept as an
independent oracle. Both bound their search nodes by ``plan_cap``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterator, Mapping, Optional

from wspkit.core import ConstraintInstance, Plan, WorkflowSchema, eligible_partition
from wspkit.errors import DomainError, ResourceLimitError
from wspkit.matching import maximum_matching
# Not called here: bench/tracing.py rebinds solver.growth_strings, and the
# traced benchmark reports partitions.enumerate_s only while the name exists.
from wspkit.partitions import growth_strings  # noqa: F401

DEFAULT_PLAN_CAP = 10**7


@dataclass
class SolveStats:
    # Counters of solve_fpt; solve_bruteforce leaves them at zero.
    # partitions_examined: search nodes, each the placement of a task in a block
    partitions_examined: int = 0
    matchings_attempted: int = 0


@dataclass(frozen=True)
class SolveOutcome:
    plan: Optional[Plan]
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def satisfiable(self) -> bool:
        return self.plan is not None

    @property
    def status(self) -> str:
        return "satisfiable" if self.satisfiable else "unsatisfiable"


def assign_blocks(
    schema: WorkflowSchema, label: Mapping[str, Hashable]
) -> Optional[dict[str, str]]:
    """Injective block-to-user assignment respecting every member's authorization.

    ``label`` maps every schema task to a hashable block label, as in
    ``eligible_partition``: tasks sharing a label form a block, and keys
    outside the schema are ignored. Blocks are matched in order of their
    first task, each trying its common users in declaration order, so the
    plan depends only on the partition. Returns None if no injective
    assignment exists. Raises DomainError if some schema task has no label.
    """
    blocks: dict[Hashable, list[str]] = {}
    for t in schema.tasks:
        try:
            which = label[t]
        except KeyError:
            raise DomainError(f"task {t!r} has no block label") from None
        blocks.setdefault(which, []).append(t)
    adj = {
        which: schema.sort_users(frozenset.intersection(*(schema.auth[t] for t in b)))
        for which, b in blocks.items()
    }
    matching = maximum_matching(list(blocks), adj)
    if len(matching) != len(blocks):
        return None
    return {t: u for which, u in matching.items() for t in blocks[which]}


def _constraints_by_depth(
    schema: WorkflowSchema,
) -> list[list[ConstraintInstance]]:
    """Constraints grouped by the index of their last scope task.

    A search that assigns tasks in declaration order checks each
    constraint at that depth, where its scope first becomes complete.
    """
    position = schema._task_positions.__getitem__
    by_depth: list[list[ConstraintInstance]] = [[] for _ in schema.tasks]
    for c in schema.constraints:
        by_depth[max(map(position, c.scope_set))].append(c)
    return by_depth


def _check_budget(plan_cap: int) -> None:
    if plan_cap < 0:
        raise DomainError(f"plan_cap must be at least 0, got {plan_cap}")


def _budget_exhausted(plan_cap: int) -> ResourceLimitError:
    return ResourceLimitError(
        f"search visited more than {plan_cap} nodes (node budget plan_cap)"
    )


def solve_fpt(
    schema: WorkflowSchema, plan_cap: int = DEFAULT_PLAN_CAP
) -> SolveOutcome:
    """Decide satisfiability by a depth-first search over task partitions.

    The search grows a restricted growth string one task at a time, in
    declaration order, trying the open blocks' labels and then a new one,
    so complete strings are reached in lexicographic order. A prefix is
    pruned when a constraint whose scope it completes is not eligible,
    when a block's tasks have no common authorized user, or when it would
    open more blocks than there are users. A pruned subtree holds only
    partitions that fail a constraint or admit no injective block-to-user
    matching, so the first leaf that ``assign_blocks`` can match is the
    first such partition in growth-string order, and its plan is returned.

    ``stats.partitions_examined`` counts search nodes (placements of a
    task in a block); more than ``plan_cap`` of them raise
    ResourceLimitError, and a negative ``plan_cap`` raises DomainError
    before the search starts. The search keeps its own stack, so any
    number of tasks fits.
    """
    _check_budget(plan_cap)
    tasks = schema.tasks
    k, n = len(tasks), len(schema.users)
    by_depth = _constraints_by_depth(schema)
    # auth_at[d]: the authorization of the task at depth d
    auth_at = [schema.auth[t] for t in tasks]
    nodes = matchings = 0
    label: dict[str, int] = {}
    # common[b]: the users authorized for every task of open block b
    common: list[frozenset[str]] = []
    # before[d]: common[label of task d] before task d joined it, or None
    # if task d opened the block
    before: list[Optional[frozenset[str]]] = [None] * k
    next_label = [0] * (k + 1)
    depth = 0
    while True:
        if depth < k and next_label[depth] <= min(len(common), n - 1):
            b = next_label[depth]
            next_label[depth] = b + 1
            nodes += 1
            if nodes > plan_cap:
                raise _budget_exhausted(plan_cap)
            previous = common[b] if b < len(common) else None
            users = auth_at[depth] if previous is None else previous & auth_at[depth]
            if not users:
                continue
            if previous is None:
                common.append(users)
            else:
                common[b] = users
            before[depth] = previous
            label[tasks[depth]] = b
            if all(eligible_partition(c, label) for c in by_depth[depth]):
                depth += 1
                next_label[depth] = 0
                continue
        else:
            if depth == k:
                matchings += 1
                plan = assign_blocks(schema, label)
                if plan is not None:
                    return SolveOutcome(plan, SolveStats(nodes, matchings))
            if depth == 0:
                return SolveOutcome(None, SolveStats(nodes, matchings))
            depth -= 1
        # take the task at this depth back out of its block
        if before[depth] is None:
            common.pop()
        else:
            common[label[tasks[depth]]] = before[depth]


def _dfs_plans(schema: WorkflowSchema, plan_cap: int) -> Iterator[dict[str, str]]:
    """Depth-first enumeration of complete authorized eligible plans.

    Tasks are assigned in declaration order and users tried in declaration
    order, so complete plans are yielded in lexicographic order. Branches
    are pruned once an authorization or a fully-assigned constraint fails;
    pruning never skips a valid plan, so the first plan found equals the
    first valid plan in the full lexicographic enumeration. plan_cap bounds
    the number of search nodes visited (authorized users tried), not the
    raw plan space; a negative one raises DomainError before the search
    starts. The search keeps its own stack, so any number of tasks fits.
    """
    _check_budget(plan_cap)
    tasks = schema.tasks
    k = len(tasks)
    by_depth = _constraints_by_depth(schema)
    # users_at[d]: the users authorized for the task at depth d, in order
    users_at = [schema.sort_users(schema.auth[t]) for t in tasks]
    assignment: dict[str, str] = {}
    # next_user[d]: index in users_at[d] of the next user to try
    next_user = [0] * (k + 1)
    nodes = 0
    depth = 0
    while depth >= 0:
        if depth == k:
            yield dict(assignment)
            depth -= 1
            continue
        t = tasks[depth]
        i = next_user[depth]
        if i == len(users_at[depth]):
            assignment.pop(t, None)
            depth -= 1
            continue
        next_user[depth] = i + 1
        nodes += 1
        if nodes > plan_cap:
            raise _budget_exhausted(plan_cap)
        assignment[t] = users_at[depth][i]
        # scopes at this depth are fully assigned by construction
        if all(eligible_partition(c, assignment) for c in by_depth[depth]):
            depth += 1
            next_user[depth] = 0


def solve_bruteforce(
    schema: WorkflowSchema, plan_cap: int = DEFAULT_PLAN_CAP
) -> SolveOutcome:
    """Independent oracle: first valid plan in lexicographic order, if any."""
    return SolveOutcome(next(_dfs_plans(schema, plan_cap), None))


def project(
    schema: WorkflowSchema,
    tasks: frozenset[str] | set[str],
    plan_cap: int = DEFAULT_PLAN_CAP,
) -> tuple[dict[str, str], ...]:
    """All restrictions to the given tasks of valid complete plans.

    Returned in a canonical order (sorted by the assigned users in task
    declaration order), without duplicates.
    """
    tasks = frozenset(tasks)
    unknown = tasks - set(schema.tasks)
    if unknown:
        raise DomainError(f"projection onto unknown tasks: {sorted(unknown)}")
    ordered = schema.sort_tasks(tasks)
    seen = {tuple(plan[t] for t in ordered) for plan in _dfs_plans(schema, plan_cap)}
    return tuple(dict(zip(ordered, key)) for key in sorted(seen))
