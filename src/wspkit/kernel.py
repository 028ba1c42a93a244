"""Partial kernel for regular intersection-closed instances.

Three phases. Equality elimination merges tasks until every singleton is
eligible for every constraint (its worklist is described in
``eliminate_equalities``). User marking keeps the users that one maximum
matching covers: the Hall violators of the hard tasks and a distinct
representative of every other task. Kernelization then drops the unmarked
users and duplicate constraints, so the result has at most as many tasks
and constraints as the input and at most as many users as tasks; a
trivially unsatisfiable instance marks no user and keeps none. Plan
extension certifies the marking, and lifting replays the merges to turn a
plan of the kernel into one of the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Collection, Mapping, NamedTuple, Optional

from wspkit.constraints import (
    classification,
    eligible_set,
    ineligible_singletons,
    required_additions,
)
from wspkit.core import (
    EQ2,
    NEQ2,
    SEP,
    ConstraintInstance,
    Plan,
    WorkflowSchema,
    describe,
    is_valid_plan,
    unknown_task,
)
from wspkit.errors import ClassificationError, ContractError, DeadEndError
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


def _substitute(c: ConstraintInstance, old: str, new: str) -> ConstraintInstance:
    def sub(seq):
        return [new if t == old else t for t in seq]

    if c.scope_sets is not None:
        return ConstraintInstance(c.kind, c.params, scope_sets=map(sub, c.scope_sets))
    return ConstraintInstance(c.kind, c.params, sub(c.scope))


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

    ``ineligible[i]`` holds the tasks of constraint i whose singleton is not
    an eligible set; for an ``eq`` over two distinct tasks, its current
    endpoints, each the other's required addition. A min-heap of (task
    index, i) entries holds each constraint's smallest such task, and a
    popped entry whose task is no longer in ``ineligible[i]`` is stale and
    skipped, so the first current entry popped is the smallest ineligible
    pair of the schema. There, s absorbs the first required addition in
    declaration order, and every constraint naming the absorbed task is
    rewritten and queued again, except an ``eq`` between the two, which is
    dropped. So the merge log is the one a rescan from the first task after
    each merge would give. A singleton with no eligible superset makes the
    instance trivially unsatisfiable. Raises DomainError if a constraint
    names a task outside the schema, then ClassificationError if some
    constraint kind does not qualify, both before any merge.
    """
    tasks = schema.tasks
    index = schema.task_index
    auth = dict(schema.auth)
    constraints: list[Optional[ConstraintInstance]] = list(schema.constraints)
    # the eq constraints over two distinct tasks not yet merged; their
    # current endpoints are their ineligible tasks
    pairs: set[int] = set()
    occurs: dict[str, set[int]] = {t: set() for t in tasks}
    ineligible: dict[int, Collection[str]] = {}
    heap: list[tuple[int, int]] = []
    merges: list[MergeRecord] = []

    def queue(i: int) -> None:
        ineligible[i] = found = ineligible_singletons(constraints[i])
        if found:
            heappush(heap, (min(index[t] for t in found), i))

    def result(unsatisfiable: bool) -> EqualityEliminationResult:
        if not merges:
            return EqualityEliminationResult(schema, (), unsatisfiable)
        for i in pairs:
            constraints[i] = ConstraintInstance(EQ2, (), ineligible[i])
        reduced = WorkflowSchema(
            tasks=tuple(t for t in tasks if t in auth),
            users=schema.users,
            auth=auth,
            constraints=tuple(c for c in constraints if c is not None),
        )
        return EqualityEliminationResult(reduced, tuple(merges), unsatisfiable)

    for i, c in enumerate(constraints):
        for t in c.scope_set:
            if t not in occurs:
                raise unknown_task(i, c, t)
            occurs[t].add(i)
        if c.kind == EQ2 and c.scope[0] != c.scope[1]:
            pairs.add(i)
            ineligible[i] = c.scope
            heap.append((min(index[c.scope[0]], index[c.scope[1]]), i))
        else:
            queue(i)
    heapify(heap)  # the eq entries were appended, not pushed
    _check_kinds(schema)
    while heap:
        first, i = heappop(heap)
        s = tasks[first]
        if s not in ineligible[i]:
            continue
        if i in pairs:
            ends = ineligible[i]
            partner = ends[1] if ends[0] == s else ends[0]
        else:
            try:
                additions = required_additions(constraints[i], {s})
            except DeadEndError:
                return result(unsatisfiable=True)
            partner = schema.sort_tasks(additions)[0]
        auth[s] = merged = auth[s] & auth.pop(partner)
        merges.append(MergeRecord(s, partner, merged))
        survivor = occurs[s]
        # a dropped pair names no task, so it is in no occurs set
        for j in occurs.pop(partner):
            if j not in pairs:
                constraints[j] = _substitute(constraints[j], partner, s)
                survivor.add(j)
                queue(j)
            elif s in ineligible[j]:
                pairs.remove(j)
                constraints[j] = None
                ineligible[j] = ()
                survivor.discard(j)
            else:
                ends = ineligible[j]
                ineligible[j] = (s, ends[1]) if ends[0] == partner else (ends[0], s)
                survivor.add(j)
                # no current pair lies below s, so s is the smaller endpoint
                heappush(heap, (first, j))
    return result(unsatisfiable=False)


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
    index = schema.user_index
    adj = {t: sorted((u for u in schema.auth[t] if u in index), key=index.__getitem__)
           for t in schema.tasks}
    matching = maximum_matching(schema.tasks, adj)
    deficient = hall_violator(schema.tasks, matching, adj) or frozenset()
    violators = {u for t in deficient for u in adj[t]}
    reps = {t: matching[t] for t in schema.tasks if t not in deficient}
    return MarkingResult(
        schema.sort_users(violators) + tuple(reps.values()),
        tuple(t for t in schema.tasks if t in deficient),
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
    constraint kind does not qualify, and DomainError if a constraint
    names a task outside the schema.
    """
    elim = eliminate_equalities(schema)
    merged = elim.schema
    trivial = elim.unsatisfiable or any(not merged.auth[t] for t in merged.tasks)
    marking = MarkingResult((), (), {}) if trivial else mark_users(merged)
    marked = set(marking.marked)
    reduced = WorkflowSchema(
        tasks=merged.tasks,
        users=tuple(u for u in merged.users if u in marked),
        auth={t: merged.auth[t] & marked for t in merged.tasks},
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
) -> Optional[Plan]:
    """Extend an authorized partial plan on the hard tasks to a valid plan.

    Grows each block of the partial plan to its own fixpoint by absorbing
    the required additions of every constraint it meets ineligibly,
    rejecting when an addition is already assigned or unauthorized, then
    pads the remaining tasks with their distinct representatives. For
    intersection-closed constraints each block's closure is unique, so the
    result does not depend on the order the blocks are grown in. Returns
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
    for user, block in blocks.items():
        # an ineligible part's closure is a strict superset of it, so the
        # block is at its fixpoint once a pass over the constraints adds no task
        size = 0
        while size < len(block):
            size = len(block)
            for c in schema.constraints:
                part = block.intersection(c.scope_set)
                if not part or eligible_set(c, part):
                    continue
                try:
                    additions = required_additions(c, part)
                except DeadEndError:
                    return None
                for s in schema.sort_tasks(additions):
                    if s in assignment or user not in schema.auth[s]:
                        return None
                    assignment[s] = user
                    block.add(s)
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
