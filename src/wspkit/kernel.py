"""Partial kernel for regular intersection-closed instances.

Three phases: equality elimination by task merging, user marking via
systems of distinct representatives, and discarding unmarked users. The
result has at most as many tasks and constraints as the input and at most
as many users as tasks. A plan-extension procedure certifies correctness
and a lift operation replays merges to recover plans for the original
schema.

Equality elimination works from a min-heap of (task, constraint) pairs
ordered by declaration index. A merge rewrites only the constraints that
name the absorbed task and queues their pairs again; every other pair
keeps its verdict. So each merge happens at the first ineligible pair in
declaration order, exactly where a rescan of the whole schema would find
it, and the merge log is that of the rescan. The work is the total scope
size plus the rewritten scopes, not a rescan per merge. Marking sorts each
authorization list once and filters it in every Hall-violator round.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping, Optional

from wspkit.constraints import (
    classification,
    eligible_set,
    required_additions,
)
from wspkit.core import (
    EQ2,
    ConstraintInstance,
    Plan,
    WorkflowSchema,
    describe,
    is_valid_plan,
)
from wspkit.errors import ClassificationError, ContractError, DeadEndError, DomainError
from wspkit.matching import hall_violator, maximum_matching

REDUCED = "reduced"
TRIVIALLY_UNSAT = "trivially-unsat"


@dataclass(frozen=True)
class MergeRecord:
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


def _substitute(c: ConstraintInstance, old: str, new: str) -> ConstraintInstance:
    def sub(seq):
        return tuple(new if t == old else t for t in seq)

    if c.scope_sets is not None:
        return ConstraintInstance(
            c.kind, c.params, scope_sets=(sub(c.scope_sets[0]), sub(c.scope_sets[1]))
        )
    return ConstraintInstance(c.kind, c.params, scope=sub(c.scope))


def _merged(
    c: ConstraintInstance, survivor: str, absorbed: str
) -> Optional[ConstraintInstance]:
    """The constraint after the merge, or None for an equality between the two."""
    if c.kind == EQ2 and set(c.scope) == {survivor, absorbed}:
        return None
    return _substitute(c, absorbed, survivor)


def _check_kinds(schema: WorkflowSchema) -> None:
    for i, c in enumerate(schema.constraints):
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

    A min-heap holds (task, constraint) pairs by declaration index. At the
    smallest pair (s, c) whose singleton {s} is ineligible, s absorbs the
    first required addition in declaration order; only the constraints
    naming the absorbed task are rewritten, and their pairs are queued
    again. A constraint that was not rewritten keeps its verdict, so every
    merge happens at the smallest ineligible pair of the current schema,
    and the merge log is the one a rescan from the first task after each
    merge would give. At most k-1 merges happen; a pair is checked once,
    plus once after each rewrite of its constraint. A singleton with no
    eligible superset makes the instance trivially unsatisfiable.
    """
    _check_kinds(schema)
    index = schema.task_index
    auth = dict(schema.auth)
    constraints: list[Optional[ConstraintInstance]] = list(schema.constraints)
    occurs: dict[str, set[int]] = {}
    heap: list[tuple[int, int]] = []
    queued: set[tuple[int, int]] = set()
    merges: list[MergeRecord] = []

    def queue(i: int) -> None:
        for t in constraints[i].scope_set:
            occurs.setdefault(t, set()).add(i)
            if t in index and (index[t], i) not in queued:
                queued.add((index[t], i))
                heapq.heappush(heap, (index[t], i))

    def result(unsatisfiable: bool) -> EqualityEliminationResult:
        if not merges:
            return EqualityEliminationResult(schema, (), unsatisfiable)
        reduced = WorkflowSchema(
            tasks=tuple(t for t in schema.tasks if t in auth),
            users=schema.users,
            auth=auth,
            constraints=tuple(c for c in constraints if c is not None),
        )
        return EqualityEliminationResult(reduced, tuple(merges), unsatisfiable)

    for i in range(len(constraints)):
        queue(i)
    while heap:
        pair = heapq.heappop(heap)
        queued.discard(pair)
        s, c = schema.tasks[pair[0]], constraints[pair[1]]
        # an absorbed task no longer occurs in any scope
        if c is None or s not in c.scope_set or eligible_set(c, {s}):
            continue
        try:
            additions = required_additions(c, {s})
        except DeadEndError:
            return result(unsatisfiable=True)
        partner = schema.sort_tasks(additions)[0]
        if partner not in auth:
            raise DomainError("both tasks must belong to the schema")
        auth[s] = auth[s] & auth.pop(partner)
        merges.append(MergeRecord(s, partner, auth[s]))
        for i in occurs.pop(partner):
            constraints[i] = _merged(constraints[i], s, partner)
            if constraints[i] is None:
                occurs[s].discard(i)
            else:
                queue(i)
    return result(unsatisfiable=False)


@dataclass(frozen=True)
class MarkingResult:
    marked: tuple[str, ...]
    hard: tuple[str, ...]
    representatives: Mapping[str, str]


def mark_users(schema: WorkflowSchema) -> MarkingResult:
    """Mark users by repeated Hall-violator removal plus an SDR.

    Each authorization list is sorted once into user declaration order;
    every round filters those lists against the remaining users. While
    they admit no system of distinct representatives, a violator set of
    tasks is found via maximum matching; its users are marked and every
    task whose authorization is exhausted becomes hard. Finally the
    distinct representatives of the remaining (easy) tasks are marked. At
    most one user is marked per task.
    """
    index = schema.user_index
    ordered = {t: sorted((u for u in schema.auth[t] if u in index), key=index.__getitem__)
               for t in schema.tasks}
    remaining_tasks = list(schema.tasks)
    remaining_users = list(schema.users)
    marked: list[str] = []
    hard: list[str] = []
    while True:
        user_set = set(remaining_users)
        adj = {t: [u for u in ordered[t] if u in user_set] for t in remaining_tasks}
        matching = maximum_matching(remaining_tasks, remaining_users, adj)
        violator = hall_violator(remaining_tasks, matching, adj)
        if violator is None:
            reps = {t: matching[t] for t in remaining_tasks}
            for t in remaining_tasks:
                marked.append(reps[t])
            return MarkingResult(tuple(marked), tuple(hard), reps)
        violator_users = set()
        for t in schema.sort_tasks(violator):
            violator_users |= set(adj[t])
        for u in schema.sort_users(violator_users):
            marked.append(u)
        remaining_users = [u for u in remaining_users if u not in violator_users]
        user_set = set(remaining_users)
        still = []
        for t in remaining_tasks:
            if schema.auth[t] & user_set:
                still.append(t)
            else:
                hard.append(t)
        remaining_tasks = still


def _dedup_constraints(schema: WorkflowSchema) -> WorkflowSchema:
    seen: set[tuple] = set()
    kept = []
    for c in schema.constraints:
        key = c.dedup_key()
        if key in seen:
            continue
        seen.add(key)
        kept.append(c)
    if len(kept) == len(schema.constraints):
        return schema
    return WorkflowSchema(schema.tasks, schema.users, dict(schema.auth), tuple(kept))


def kernelize(schema: WorkflowSchema) -> KernelResult:
    """Reduce a regular intersection-closed instance to at most k users.

    The reduced schema has k' <= k tasks, n' <= k' users, and m' <= m
    constraints, and is satisfiable iff the input is. Raises
    ClassificationError if some constraint kind does not qualify.
    """
    elim = eliminate_equalities(schema)
    merged = _dedup_constraints(elim.schema)
    if elim.unsatisfiable or any(not merged.auth[t] for t in merged.tasks):
        # emit an unsatisfiable schema within the size bounds: same tasks
        # and constraints, no users at all
        stripped = WorkflowSchema(
            merged.tasks, (), {t: frozenset() for t in merged.tasks},
            merged.constraints,
        )
        return KernelResult(
            schema=stripped,
            marked=(),
            hard=(),
            representatives={},
            merge_log=elim.merges,
            verdict=TRIVIALLY_UNSAT,
        )
    marking = mark_users(merged)
    marked_set = set(marking.marked)
    reduced = WorkflowSchema(
        tasks=merged.tasks,
        users=tuple(u for u in merged.users if u in marked_set),
        auth={t: merged.auth[t] & marked_set for t in merged.tasks},
        constraints=merged.constraints,
    )
    return KernelResult(
        schema=reduced,
        marked=marking.marked,
        hard=marking.hard,
        representatives=dict(marking.representatives),
        merge_log=elim.merges,
        verdict=REDUCED,
    )


def extend_partial_plan(
    schema: WorkflowSchema,
    partial: Plan,
    representatives: Mapping[str, str],
) -> Optional[Plan]:
    """Extend an authorized partial plan on the hard tasks to a valid plan.

    Repeatedly absorbs required additions into ineligible blocks, rejecting
    when an addition is already assigned elsewhere or unauthorized, then
    pads the remaining tasks with their distinct representatives. Returns
    the complete plan or None if no extension exists.
    """
    assignment = dict(partial.items())
    for t, u in assignment.items():
        if u not in schema.auth[t]:
            return None
    # the partial plan's blocks, keyed by user in order of first assignment
    blocks: dict[str, set[str]] = {}
    for t, u in assignment.items():
        blocks.setdefault(u, set()).add(t)
    changed = True
    while changed:
        changed = False
        for user, block in blocks.items():
            for c in schema.constraints:
                part = block & set(c.scope_set)
                if not part or eligible_set(c, part):
                    continue
                try:
                    additions = required_additions(c, part)
                except DeadEndError:
                    return None
                for s in schema.sort_tasks(additions):
                    if s in assignment:
                        return None
                    if user not in schema.auth[s]:
                        return None
                    assignment[s] = user
                    block.add(s)
                changed = True
                break
            if changed:
                break
    for t in schema.tasks:
        if t not in assignment:
            if t not in representatives:
                raise ContractError(f"no representative for unassigned task {t}")
            assignment[t] = representatives[t]
    plan = Plan(assignment)
    if not is_valid_plan(schema, plan):
        return None
    return plan


def lift_plan(result: KernelResult, plan: Plan) -> Plan:
    """Replay the merge log backwards to recover a plan for the original schema."""
    verdict = is_valid_plan(result.schema, plan)
    if not verdict:
        raise ContractError(
            "plan is not valid for the reduced schema: "
            + "; ".join(v.detail for v in verdict.violations)
        )
    assignment = dict(plan.items())
    for record in reversed(result.merge_log):
        assignment[record.absorbed] = assignment[record.surviving]
    return Plan(assignment)
