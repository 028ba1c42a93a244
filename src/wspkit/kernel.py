"""Partial kernel for regular intersection-closed instances.

Three phases. Equality elimination merges tasks until every singleton is
eligible for every constraint (its union-find fixpoint is described in
``eliminate_equalities``). User marking keeps the users that one maximum
matching covers: the Hall violators of the hard tasks and a distinct
representative of every other task. Kernelization then drops the unmarked
users and duplicate constraints, so the result has at most as many tasks
and constraints as the input and at most as many users as tasks; a
trivially unsatisfiable instance marks no user and keeps none. Plan
extension certifies the marking, closing the blocks of a plan on the hard
tasks by equality elimination; lifting replays the merges to turn a plan
of the kernel into one of the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Optional

from wspkit.constraints import classification, ineligible_singletons, required_additions
# Not called here: bench/tracing.py and tests rebind kernel.eligible_set.
from wspkit.constraints import eligible_set  # noqa: F401
from wspkit.core import (
    EQ2,
    NEQ2,
    SEP,
    ConstraintInstance,
    Plan,
    WorkflowSchema,
    describe,
    equality,
    is_valid_plan,
)
from wspkit.errors import ClassificationError, DeadEndError, DomainError
from wspkit.matching import hall_violator, maximum_matching

# kinds that are regular and intersection-closed whatever their scope
_ALWAYS_CLOSED = (EQ2, NEQ2, SEP)

REDUCED = "reduced"
TRIVIALLY_UNSAT = "trivially-unsat"


class MergeRecord(NamedTuple):
    surviving: str
    absorbed: str
    intersected_auth: frozenset[str]


@dataclass(frozen=True)
class KernelResult:
    schema: WorkflowSchema
    marked: tuple[str, ...]
    hard: tuple[str, ...]
    representatives: Mapping[str, str]
    merge_log: tuple[MergeRecord, ...]
    verdict: str  # REDUCED or TRIVIALLY_UNSAT
    # the input's users in declaration order; the reduced schema keeps
    # only the marked ones, or none for TRIVIALLY_UNSAT
    user_order: tuple[str, ...]


def _rename(c: ConstraintInstance, root: Callable[[str], str]) -> ConstraintInstance:
    """c with every task replaced by the root of its group."""
    if c.scope_sets is not None:
        return ConstraintInstance(c.kind, c.params,
                                  scope_sets=[map(root, side) for side in c.scope_sets])
    return ConstraintInstance(c.kind, c.params, map(root, c.scope))


def _check_kinds(schema: WorkflowSchema) -> None:
    for i, c in enumerate(schema.constraints):
        if c.kind in _ALWAYS_CLOSED:
            continue
        regular, closed = classification(c)
        if not regular or not closed:
            raise ClassificationError(
                f"constraint #{i} ({describe(c)}) is not "
                + ("regular" if not regular else "intersection-closed")
            )


@dataclass(frozen=True)
class EqualityEliminationResult:
    schema: WorkflowSchema
    merges: tuple[MergeRecord, ...]
    unsatisfiable: bool = False


def eliminate_equalities(schema: WorkflowSchema) -> EqualityEliminationResult:
    """Merge tasks until every singleton is eligible for every constraint.

    Every merge is forced, so the groups do not depend on merge order; a
    union-find holds them, each rooted at its first task. An ``eq`` unites
    its two tasks, and another constraint with an ineligible singleton
    unites the first such task s with the required additions of {s}. Round
    one reads every constraint as given; each later round reads, renamed to
    the roots, those naming tasks of two groups united the round before. A
    singleton with no eligible superset makes the instance trivially
    unsatisfiable and returns it unmerged. Otherwise each constraint is
    renamed once and every ``eq`` over two tasks dropped. The merge log
    lists each root's absorbed tasks in task order, each record with the
    root's authorization intersected with those of the group so far.
    Raises ClassificationError if some kind does not qualify, before any merge.
    """
    _check_kinds(schema)
    tasks = schema.tasks
    index = schema._task_positions
    # over task indices: each group's tree, and by root, the constraints
    # other than eq naming a task of its group (None off the roots), built
    # at the first union, while every group is still one task
    parent = list(range(len(tasks)))
    occurs: list[Optional[set[int]]] = []
    # the constraints naming tasks of two groups united in this round
    united: set[int] = set()
    merged = 0

    def find(j: int) -> int:
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    def unite(a: int, b: int) -> None:
        nonlocal merged
        a, b = find(a), find(b)
        if a == b:
            return
        if b < a:
            a, b = b, a
        if not merged:
            occurs.extend(set() for _ in tasks)
            for i, c in enumerate(schema.constraints):
                if c.kind != EQ2:
                    for t in c.scope_set:
                        occurs[index[t]].add(i)
        parent[b] = a
        merged += 1
        # move the smaller set into the larger: an index moves O(log m) times
        small, big = occurs[a], occurs[b]
        if len(small) > len(big):
            small, big = big, small
        occurs[a], occurs[b] = big, None
        if small:
            united.update(small & big)
            big |= small

    def root_of(t: str) -> str:
        return tasks[find(index[t])]

    def read(c: ConstraintInstance) -> None:
        if c.kind == EQ2:
            unite(index[c.scope[0]], index[c.scope[1]])
            return
        found = ineligible_singletons(c)
        if found:
            s = min(map(index.__getitem__, found))
            for t in required_additions(c, {tasks[s]}):
                unite(s, index[t])

    try:
        for c in schema.constraints:
            read(c)
        while united:
            todo, united = united, set()
            for i in todo:
                read(_rename(schema.constraints[i], root_of))
    except DeadEndError:
        return EqualityEliminationResult(schema, (), unsatisfiable=True)
    if not merged:
        return EqualityEliminationResult(schema, ())
    # every task's root, and the groups in task order
    rename = {t: root_of(t) for t in tasks}
    groups: dict[str, list[str]] = {}
    for t, r in rename.items():
        groups.setdefault(r, []).append(t)
    auth: dict[str, frozenset[str]] = {}
    merges: list[MergeRecord] = []
    for root, group in groups.items():
        users = schema.auth[root]
        for t in group[1:]:
            users = users & schema.auth[t]
            merges.append(MergeRecord(root, t, users))
        auth[root] = users
    constraints = tuple(
        c if all(rename[t] == t for t in c.scope_set) else _rename(c, rename.__getitem__)
        for c in schema.constraints if c.kind != EQ2 or c.scope[0] == c.scope[1])
    reduced = WorkflowSchema(tuple(groups), schema.users, auth, constraints)
    return EqualityEliminationResult(reduced, tuple(merges))


@dataclass(frozen=True)
class MarkingResult:
    marked: tuple[str, ...]
    hard: tuple[str, ...]
    representatives: Mapping[str, str]


def mark_users(schema: WorkflowSchema) -> MarkingResult:
    """Mark the users of the deficient set, then distinct representatives.

    One maximum matching M of the tasks, on authorization lists sorted once
    into user order, decides the marking. Its deficient set D (see
    ``hall_violator``) is the hard set; every maximum matching has the same
    one. Every user in N(D) is matched into D, and D holds an unmatched
    task, so |N(D)| < |D|; N(D) is marked. Every task outside D is matched
    outside N(D), so M restricted to those tasks is a system of distinct
    representatives that avoids N(D), and its users are marked. So the
    marked users are exactly those M covers, at most one per task.
    ``hard`` is in task order; ``marked`` is the violator users in user
    order, then the representatives in task order.
    """
    tasks, users, auth = schema.tasks, schema.users, schema.auth
    position = schema._user_positions.__getitem__
    # on task and user indices; names come back only in the result
    adj = {i: sorted(map(position, auth[t])) for i, t in enumerate(tasks)}
    left = range(len(tasks))
    matching = maximum_matching(left, adj)
    deficient = hall_violator(left, matching, adj) or frozenset()
    violators = sorted({u for i in deficient for u in adj[i]})
    reps = {tasks[i]: users[matching[i]] for i in left if i not in deficient}
    return MarkingResult(
        tuple(users[u] for u in violators) + tuple(reps.values()),
        tuple(tasks[i] for i in sorted(deficient)),
        reps,
    )


def _dedup_constraints(
    constraints: tuple[ConstraintInstance, ...]
) -> tuple[ConstraintInstance, ...]:
    kept: dict[tuple, ConstraintInstance] = {}
    for c in constraints:
        kept.setdefault(c.dedup_key(), c)
    return tuple(kept.values())


def kernelize(schema: WorkflowSchema) -> KernelResult:
    """Reduce a regular intersection-closed instance to at most k users.

    The reduced schema has k' <= k tasks, n' <= k' users, and m' <= m
    constraints, and is satisfiable iff the input is. A trivially
    unsatisfiable instance (elimination dead-ended, or a merged task has no
    authorized user) marks no user, so its kernel keeps the tasks and
    constraints and has no users. Raises ClassificationError if some
    constraint kind does not qualify.
    """
    elim = eliminate_equalities(schema)
    merged = elim.schema
    trivial = elim.unsatisfiable or any(not merged.auth[t] for t in merged.tasks)
    marking = MarkingResult((), (), {}) if trivial else mark_users(merged)
    marked = set(marking.marked)
    reduced = WorkflowSchema(
        tasks=merged.tasks,
        users=tuple(filter(marked.__contains__, merged.users)),
        auth={t: users & marked for t, users in merged.auth.items()},
        constraints=_dedup_constraints(merged.constraints),
    )
    return KernelResult(
        schema=reduced,
        marked=marking.marked,
        hard=marking.hard,
        representatives=dict(marking.representatives),
        merge_log=elim.merges,
        verdict=TRIVIALLY_UNSAT if trivial else REDUCED,
        user_order=schema.users,
    )


def extend_partial_plan(
    schema: WorkflowSchema,
    partial: Plan,
    representatives: Mapping[str, str],
) -> Optional[dict[str, str]]:
    """Extend an authorized partial plan on the hard tasks to a valid plan.

    Ties each block's later tasks to its first with ``eq`` constraints and
    lets ``eliminate_equalities`` close the blocks: for intersection-closed
    constraints a block's closure under the required additions of the
    constraints it meets ineligibly is unique. There is no extension if
    elimination dead-ends, or a group holds two blocks or a task its block's
    user is not authorized for; every other task gets its representative.
    Returns the complete plan or None. Raises DomainError if the partial
    plan names a task outside the schema, and ClassificationError if some
    kind does not qualify.
    """
    unknown = set(partial) - set(schema.tasks)
    if unknown:
        raise DomainError(f"partial plan names unknown tasks: {sorted(unknown)}")
    assignment = dict(partial)
    # each block's first task, keyed by user
    first: dict[str, str] = {}
    ties = []
    for t, u in assignment.items():
        if u not in schema.auth[t]:
            return None
        if first.setdefault(u, t) != t:
            ties.append(equality(first[u], t))
    elim = eliminate_equalities(WorkflowSchema(
        schema.tasks, schema.users, schema.auth, schema.constraints + tuple(ties)))
    if elim.unsatisfiable:
        return None
    root = {m.absorbed: m.surviving for m in elim.merges}
    # each group's user; a root's authorization is its group's common users
    owner: dict[str, str] = {}
    for t, u in assignment.items():
        group = root.get(t, t)
        if owner.setdefault(group, u) != u or u not in elim.schema.auth[group]:
            return None
    for t in schema.tasks:
        group = root.get(t, t)
        if group not in owner and t not in representatives:
            raise DomainError(f"no representative for unassigned task {t}")
        assignment[t] = owner[group] if group in owner else representatives[t]
    return assignment if is_valid_plan(schema, assignment) else None


def lift_plan(result: KernelResult, plan: Plan) -> dict[str, str]:
    """Replay the merge log backwards to recover a plan for the original schema."""
    verdict = is_valid_plan(result.schema, plan)
    if not verdict:
        raise DomainError(
            "plan is not valid for the reduced schema: "
            + "; ".join(v.detail for v in verdict.violations)
        )
    assignment = dict(plan)
    for record in reversed(result.merge_log):
        assignment[record.absorbed] = assignment[record.surviving]
    return assignment
