"""Eligibility interface for the constraint catalog.

Each kind supports the well-behaved operations: partition eligibility,
set eligibility, finding an eligible superset, and required additions for
intersection-closed kinds. Partition eligibility is defined once, over a
labelling of the scope: any mapping from scope tasks to hashable block
labels (a plan, a growth string, a TaskPartition), where tasks sharing a
label share a block and tasks outside the scope are ignored. Set
eligibility is closed-form per kind; the closed forms are verified against
partition enumeration in the test suite, and enumeration semantics is
authoritative where the two could diverge (notably two-set kinds with
overlapping sides).
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Hashable, Iterable, Mapping, Optional

from wspkit.core import (
    ATLEAST,
    ATMOST,
    BIND,
    EQ2,
    NEQ2,
    PERUSER,
    SEP,
    ConstraintInstance,
    TaskPartition,
)
from wspkit.errors import ContractError, DeadEndError, DomainError
from wspkit.partitions import set_partitions


def _block_count_feasible(n: int, t_low: int, t_high: int) -> bool:
    """Can n tasks be split into blocks whose sizes all lie in [t_low, t_high]?"""
    if n == 0:
        return True
    # some b >= 1 blocks with b*t_low <= n <= b*t_high
    b_min = -(-n // t_high)
    return b_min * t_low <= n


def _weight(mult: Counter, block) -> int:
    return sum(mult[t] for t in block)


def _weighted_feasible(
    weights: tuple[int, ...], t_low: int, t_high: int
) -> bool:
    """Can a multiset of task weights be grouped with every group sum in
    [t_low, t_high]? Weights arise from repeated scope tasks after merging."""
    if all(w == 1 for w in weights):
        return _block_count_feasible(len(weights), t_low, t_high)

    from functools import lru_cache

    items = tuple(sorted(weights, reverse=True))

    @lru_cache(maxsize=None)
    def solvable(remaining: tuple[int, ...]) -> bool:
        if not remaining:
            return True
        first, rest = remaining[0], remaining[1:]
        if first > t_high:
            return False
        # choose the group containing the heaviest item
        for picked in _subsets_with_sum(rest, t_low - first, t_high - first):
            leftover = list(rest)
            for w in picked:
                leftover.remove(w)
            if solvable(tuple(leftover)):
                return True
        return False

    return solvable(items)


def _subsets_with_sum(items: tuple[int, ...], lo: int, hi: int):
    """Sub-multisets of items with total in [max(lo,0), hi], smallest first."""
    n = len(items)
    seen = set()

    def rec(i: int, chosen: tuple[int, ...], total: int):
        if total > hi:
            return
        if total >= max(lo, 0) and chosen not in seen:
            seen.add(chosen)
            yield chosen
        for j in range(i, n):
            yield from rec(j + 1, chosen + (items[j],), total + items[j])

    yield from rec(0, (), 0)


def eligible_partition(c: ConstraintInstance, label: Mapping[str, Hashable]) -> bool:
    """Whether a labelling of the constraint's scope is eligible.

    ``label`` maps every scope task to a hashable block label: two scope
    tasks share a block iff their labels are equal. Anything indexable by
    task will do, such as a growth-string dict, a Plan (labels are users) or
    a TaskPartition (labels are blocks). Tasks outside the scope are
    ignored, so a partition of any superset of the scope is accepted.
    Raises DomainError if some scope task has no label.
    """
    try:
        labels = [label[t] for t in c.scope]
    except KeyError as exc:
        raise DomainError(f"scope task {exc.args[0]!r} has no label") from None
    if c.kind == EQ2:
        return labels[0] == labels[1]
    if c.kind == NEQ2:
        return labels[0] != labels[1]
    if c.kind == BIND:
        left, right = c.scope_sets
        return not {label[t] for t in left}.isdisjoint(label[t] for t in right)
    if c.kind == SEP:
        return len(set(labels)) > 1
    if c.kind == ATMOST:
        return len(set(labels)) <= c.params[0]
    if c.kind == ATLEAST:
        return len(set(labels)) >= c.params[0]
    t_low, t_high = c.params
    # scope positions, not tasks: a repeated task adds its multiplicity
    return all(t_low <= n <= t_high for n in Counter(labels).values())


def eligible_set(c: ConstraintInstance, tasks: Iterable[str]) -> bool:
    """Whether the task set occurs as a block of some eligible partition.

    The empty set is eligible by convention.
    """
    block = frozenset(tasks)
    scope = frozenset(c.scope_set)
    if not block <= scope:
        raise DomainError("task set must be a subset of the constraint scope")
    if not block:
        return True
    r = len(scope)
    if c.kind == EQ2:
        return block == scope
    if c.kind == NEQ2:
        return r == 2 and len(block) == 1
    if c.kind == BIND:
        left, right = (set(g) for g in c.scope_sets)
        if left & right:
            return True
        return bool((block & left and block & right)
                    or (left - block and right - block))
    if c.kind == SEP:
        union = set(c.scope_sets[0]) | set(c.scope_sets[1])
        return len(union) >= 2 and not union <= block
    if c.kind == ATMOST:
        t = c.params[0]
        return t >= 2 or block == scope
    if c.kind == ATLEAST:
        return 1 + (r - len(block)) >= c.params[0]
    t_low, t_high = c.params
    mult = Counter(c.scope)
    if not t_low <= _weight(mult, block) <= t_high:
        return False
    rest = tuple(mult[t] for t in mult if t not in block)
    return _weighted_feasible(rest, t_low, t_high)


def eligible_superset(
    c: ConstraintInstance, tasks: Iterable[str]
) -> Optional[frozenset[str]]:
    """Smallest eligible strict superset of an ineligible set, or None.

    Candidates are searched by size, ties broken lexicographically by
    declaration order within the scope, so the result is deterministic.
    """
    block = frozenset(tasks)
    if eligible_set(c, block):
        raise ContractError("eligible_superset called on an eligible set")
    scope = c.scope_set
    pool = [t for t in scope if t not in block]
    for extra in range(1, len(pool) + 1):
        for combo in combinations(pool, extra):
            candidate = block | frozenset(combo)
            if eligible_set(c, candidate):
                return candidate
    return None


def required_additions(
    c: ConstraintInstance, tasks: Iterable[str]
) -> frozenset[str]:
    """Tasks every eligible superset of an ineligible set must contain.

    Takes a minimal eligible superset of the given set (greedy removal in
    reverse declaration order) and returns the added tasks. For an
    intersection-closed constraint every returned task lies in all eligible
    supersets. Raises DeadEndError if no eligible superset exists.
    """
    block = frozenset(tasks)
    superset = eligible_superset(c, block)
    if superset is None:
        raise DeadEndError("ineligible set has no eligible superset")
    order = {t: i for i, t in enumerate(c.scope_set)}
    current = set(superset)
    for t in sorted(superset - block, key=lambda t: order[t], reverse=True):
        trimmed = current - {t}
        if trimmed > block and eligible_set(c, trimmed):
            current = trimmed
    return frozenset(current) - block


def enumerate_eligible_partitions(
    c: ConstraintInstance,
) -> tuple[TaskPartition, ...]:
    """All eligible partitions of the scope, by exhaustive enumeration."""
    out = []
    for blocks in set_partitions(c.scope_set):
        p = TaskPartition(frozenset(frozenset(b) for b in blocks))
        if eligible_partition(c, p):
            out.append(p)
    return tuple(out)


def enumerate_eligible_sets(c: ConstraintInstance) -> frozenset[frozenset[str]]:
    """Ground-truth eligible-set family from partition enumeration."""
    out: set[frozenset[str]] = {frozenset()}
    for p in enumerate_eligible_partitions(c):
        out.update(p.blocks)
    return frozenset(out)


def classification(c: ConstraintInstance) -> tuple[bool, Optional[bool]]:
    """(regular, intersection_closed) verdicts for a catalog constraint.

    intersection_closed is None when the constraint is not regular (the
    notion is defined only for regular constraints). Closed-form for every
    kind; the test suite checks the answers against enumeration.
    """
    r = c.arity
    if c.kind == EQ2 or c.kind == NEQ2:
        return True, True
    if c.kind == SEP:
        return True, True
    if c.kind == BIND:
        left, right = (set(g) for g in c.scope_sets)
        if left & right:
            return True, True  # trivially satisfied by any plan
        if len(left) == 1 and len(right) == 1:
            return True, True  # plain equality
        if min(len(left), len(right)) == 1:
            return True, False
        return False, None
    if c.kind == ATMOST:
        t = c.params[0]
        if t == 1 or t >= r:
            return True, True
        return False, None
    if c.kind == ATLEAST:
        t = c.params[0]
        if t <= 2 or t > r or t == r:
            return True, True
        return False, None
    t_low, t_high = c.params
    if t_low == 1:
        return True, True
    mult = Counter(c.scope)
    if any(m > 1 for m in mult.values()):
        # Repeated scope tasks weigh blocks unevenly; check closure on the
        # enumerated eligible-set family directly.
        members = tuple(mult)
        family = [
            frozenset(combo)
            for size in range(len(members) + 1)
            for combo in combinations(members, size)
            if eligible_set(c, combo)
        ]
        for b1 in family:
            for b2 in family:
                if b1 != b2 and (b1 & b2) not in family:
                    return True, False
        return True, True
    # Sizes of eligible sets; closedness depends on sizes only.
    sizes = [
        a
        for a in range(t_low, min(t_high, r) + 1)
        if _block_count_feasible(r - a, t_low, t_high)
    ]
    for a1 in sizes:
        for a2 in sizes:
            lo = max(1, a1 + a2 - r)
            hi = min(a1, a2)
            if a1 == a2:
                hi = min(hi, a1 - 1)  # two distinct sets of equal size
            for i in range(lo, hi + 1):
                if i not in sizes:
                    return True, False
    return True, True
