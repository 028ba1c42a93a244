"""Eligibility interface for the constraint catalog.

Each kind supports the well-behaved operations: partition eligibility,
set eligibility, and required additions (the closure of an ineligible set)
for intersection-closed kinds. A partition is a labelling of the scope: any
mapping from scope tasks to hashable block labels (such as a plan or a
growth-string dict), where tasks sharing a label share a block and tasks
outside the scope are ignored. Partition eligibility is defined once, over
such labellings; the enumerations return growth strings over the scope
set. Set eligibility is closed-form per kind; the closed forms
are verified against partition enumeration in the test suite, and
enumeration semantics is authoritative where the two could diverge
(notably two-set kinds with overlapping sides).
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
)
from wspkit.errors import ContractError, DeadEndError, DomainError
from wspkit.partitions import blocks, growth_strings


def _block_count_feasible(n: int, t_low: int, t_high: int) -> bool:
    """Can n tasks be split into blocks whose sizes all lie in [t_low, t_high]?"""
    if n == 0:
        return True
    # some b >= 1 blocks with b*t_low <= n <= b*t_high
    b_min = -(-n // t_high)
    return b_min * t_low <= n


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
    task will do, such as a growth-string dict or a Plan (labels are
    users). Tasks outside the scope are ignored, so a labelling of any
    superset of the scope is accepted.
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
    if not t_low <= sum(mult[t] for t in block) <= t_high:
        return False
    rest = tuple(mult[t] for t in mult if t not in block)
    return _weighted_feasible(rest, t_low, t_high)


def _exhaustive(c: ConstraintInstance) -> bool:
    """Whether c is the one closed kind without a closed form: a ``peruser``
    with t_low >= 2, a repeated task, and room for two blocks."""
    if c.kind != PERUSER:
        return False
    repeated = len(c.scope_set) < len(c.scope)
    return repeated and 2 <= c.params[0] and 2 * c.params[0] <= len(c.scope)


def _eligible_supersets(c: ConstraintInstance, block: frozenset[str]):
    """Every eligible superset of block, by exhaustive search over the
    distinct scope tasks outside it."""
    pool = [t for t in c.scope_set if t not in block]
    for size in range(len(pool) + 1):
        for extra in combinations(pool, size):
            candidate = block.union(extra)
            if eligible_set(c, candidate):
                yield candidate


def required_additions(
    c: ConstraintInstance, tasks: Iterable[str]
) -> frozenset[str]:
    """Tasks every eligible superset of an ineligible set must contain.

    Precondition: the constraint is regular and intersection-closed (the
    kernel's kind check), so the eligible supersets of the set have a least
    member, its closure. Every such kind but one has eligible sets closed
    under subsets or only the empty set and the scope, so the closure is
    the scope; the exception intersects its enumerated supersets. Raises
    ContractError on an eligible set, DeadEndError if none is a superset.
    """
    block = frozenset(tasks)
    if eligible_set(c, block):
        raise ContractError("required_additions called on an eligible set")
    if _exhaustive(c):
        supersets = list(_eligible_supersets(c, block))
    else:
        scope = frozenset(c.scope_set)
        supersets = [scope] if eligible_set(c, scope) else []
    if not supersets:
        raise DeadEndError("ineligible set has no eligible superset")
    return frozenset.intersection(*supersets) - block


def enumerate_eligible_partitions(c: ConstraintInstance) -> tuple[tuple[int, ...], ...]:
    """All eligible partitions of the scope set, each a growth string over
    ``c.scope_set``, by exhaustive enumeration in lexicographic order."""
    scope = c.scope_set
    return tuple(
        code
        for code in growth_strings(len(scope))
        if eligible_partition(c, dict(zip(scope, code)))
    )


def enumerate_eligible_sets(c: ConstraintInstance) -> frozenset[frozenset[str]]:
    """Ground-truth eligible-set family from partition enumeration."""
    scope = c.scope_set
    out: set[frozenset[str]] = {frozenset()}
    for code in enumerate_eligible_partitions(c):
        out.update(frozenset(scope[i] for i in b) for b in blocks(code))
    return frozenset(out)


def classification(c: ConstraintInstance) -> tuple[bool, Optional[bool]]:
    """(regular, intersection_closed) verdicts for a catalog constraint.

    intersection_closed is None when the constraint is not regular (the
    notion is defined only for regular constraints). Closed-form for every
    kind but a repeated-scope ``peruser`` with room for two blocks, whose
    eligible-set family is enumerated; the test suite checks the answers
    against partition enumeration.
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
    if _exhaustive(c):
        # Repeated scope tasks weigh blocks unevenly; check closure on the
        # enumerated eligible-set family directly.
        family = set(_eligible_supersets(c, frozenset()))
        return True, all((b1 & b2) in family for b1 in family for b2 in family)
    # Otherwise closed iff no proper subset of the scope is eligible: given
    # one, there are two eligible blocks that meet in a single task.
    n = len(c.scope)
    return True, not any(
        _block_count_feasible(n - a, t_low, t_high)
        for a in range(t_low, min(t_high, n - 1) + 1)
    )
