"""Set-level operations of the constraint catalog.

Partition eligibility, what each kind means, is ``core.eligible_partition``
over labellings of the scope: any mapping from scope tasks to hashable
block labels, such as a plan or a growth-string dict. This module holds
what the kernel and classification need beyond it: set eligibility, the
ineligible singletons, required additions (the closure of an ineligible
set) for intersection-closed kinds, and each kind's classification. The
enumerations return growth strings over the scope set. Set eligibility is
closed-form per kind; the closed forms are verified against partition
enumeration in the test suite, and enumeration semantics is authoritative
where the two could diverge (notably two-set kinds with overlapping sides).

Only ``peruser`` depends on how often a task repeats in its scope. Tasks of
equal multiplicity form a class and are interchangeable, so a set is
modelled by its class counts (how many tasks of each class it takes) and
its load (the sum of its tasks' multiplicities). Its routines enumerate
count vectors pruned by load: exponential in the number d of distinct
multiplicities (d <= sqrt(2 * len(scope))), not in the scope size, since
grouping weights is bin packing, which is strongly NP-hard.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Optional

from wspkit.core import (ATLEAST, ATMOST, BIND, EQ2, NEQ2, PERUSER, SEP,
                         ConstraintInstance, eligible_partition)
from wspkit.errors import DeadEndError, DomainError
from wspkit.partitions import growth_strings


# (multiplicity, number of distinct tasks), heaviest first, no empty class
Classes = tuple[tuple[int, int], ...]


def _classes(c: ConstraintInstance) -> tuple[Classes, tuple[tuple[str, ...], ...]]:
    """The classes of c's scope and the tasks of each, in scope order."""
    mult = Counter(c.scope)
    members: dict[int, list[str]] = {}
    for t in c.scope_set:
        members.setdefault(mult[t], []).append(t)
    ordered = sorted(members.items(), reverse=True)
    return tuple((w, len(ts)) for w, ts in ordered), tuple(tuple(ts) for _, ts in ordered)


def _vectors(classes: Classes, budget: int) -> Iterator[tuple[int, ...]]:
    """Every count vector of load at most budget, lazily in lexicographic
    order: raise the last coordinate that fits, zeroing those after it."""
    if budget < 0:
        return
    x = [0] * len(classes)
    load = 0
    while True:
        yield tuple(x)
        for i in reversed(range(len(classes))):
            w, n = classes[i]
            if x[i] < n and load + w <= budget:
                x[i] += 1
                load += w
                break
            load -= x[i] * w
            x[i] = 0
        else:
            return


def _closed_form(classes: Classes, t_low: int, t_high: int) -> Optional[bool]:
    """Whether the tasks of classes can be grouped, each group's load in
    [t_low, t_high], where a closed form decides it; None otherwise."""
    load = sum(w * n for w, n in classes)
    if load <= t_high:  # one group, or none
        return load == 0 or load >= t_low
    if all(t_low <= w <= t_high for w, _ in classes):  # a group per task
        return True
    if len(classes) == 1:  # b >= 1 groups of lo..hi tasks each
        (w, n), = classes
        lo, hi = -(-t_low // w), t_high // w
        return lo <= hi and -(-n // hi) * lo <= n
    if -(-load // t_high) * t_low > load:  # the fewest groups outweigh the load
        return False
    return None


def _rests(classes: Classes, t_low: int, t_high: int) -> Iterator[Classes]:
    """What each group that holds a task of the heaviest class leaves, for
    the groups whose load lies in [t_low, t_high]."""
    w, n = classes[0]
    for x in _vectors(((w, n - 1),) + classes[1:], t_high - w):
        x = (x[0] + 1,) + x[1:]
        if sum(v * j for (v, _), j in zip(classes, x)) >= t_low:
            yield tuple((v, m - j) for (v, m), j in zip(classes, x) if m > j)


def _groupable(classes: Classes, t_low: int, t_high: int, memo: dict) -> bool:
    """Can the tasks of classes be grouped, each group's load in
    [t_low, t_high]? Tries every group that holds a task of the heaviest
    class, so it decides each count vector once; memo holds those verdicts
    and is made afresh by each public call. Each group lowers the load, so
    the search runs depth first on its own stack of undecided vectors."""
    stack: list[tuple[Classes, Iterator[Classes]]] = []

    def decide(x: Classes) -> Optional[bool]:
        """x's verdict if known or in closed form, else None with x stacked."""
        if x not in memo:
            verdict = _closed_form(x, t_low, t_high)
            if verdict is None:
                stack.append((x, _rests(x, t_low, t_high)))
                return None
            memo[x] = verdict
        return memo[x]

    decide(classes)
    while stack:
        top, rests = stack[-1]
        verdict = next((v for v in map(decide, rests) if v is not False), False)
        if verdict is False:
            memo[top] = False
            stack.pop()
        elif verdict:  # a rest groups, so every vector on the stack does
            memo.update((x, True) for x, _ in stack)
            stack.clear()
    return memo[classes]


def _eligible_counts(
    classes: Classes, x: tuple[int, ...], t_low: int, t_high: int, memo: dict
) -> bool:
    """Whether a set with count vector x is a block of an eligible grouping:
    its load lies in [t_low, t_high] and the rest can be grouped."""
    load = sum(w * j for (w, _), j in zip(classes, x))
    rest = tuple((w, n - j) for (w, n), j in zip(classes, x) if n > j)
    return t_low <= load <= t_high and _groupable(rest, t_low, t_high, memo)


def _eligible_completions(
    classes: Classes, x: tuple[int, ...], t_low: int, t_high: int, memo: dict
) -> Iterator[frozenset[int]]:
    """The sets of x's incomplete classes whose raising to full count makes
    x eligible, found lazily among those whose load fits under t_high."""
    load = sum(w * j for (w, _), j in zip(classes, x))
    # raising a class is a 0/1 choice weighing its missing load
    gains = tuple((w * (n - j), 1) if j < n else (w, 0)
                  for (w, n), j in zip(classes, x))
    for picked in _vectors(gains, t_high - load):
        y = tuple(n if p else j for (_, n), j, p in zip(classes, x, picked))
        if _eligible_counts(classes, y, t_low, t_high, memo):
            yield frozenset(i for i, p in enumerate(picked) if p)


def eligible_set(c: ConstraintInstance, tasks: Iterable[str]) -> bool:
    """Whether the task set occurs as a block of some eligible partition.

    The empty set is eligible by convention. A ``peruser`` set needs a load
    within the bounds and a grouping of the rest of the scope, decided over
    class counts in time exponential only in d.
    """
    block = frozenset(tasks)
    scope = frozenset(c.scope_set)
    if not block <= scope:
        raise DomainError("task set must be a subset of the constraint scope")
    if not block:
        return True
    r = len(scope)
    if c.kind == EQ2:
        return len(block) == r
    if c.kind == NEQ2:
        return r == 2 and len(block) == 1
    if c.kind == BIND:
        left, right = (set(g) for g in c.scope_sets)
        # the block meets both sides or leaves a task of each; a task on
        # both sides does one or the other, so such a bind takes any block
        return bool((block & left and block & right)
                    or (left - block and right - block))
    if c.kind == SEP:  # the scope is the union of the two sides
        return r >= 2 and len(block) < r
    if c.kind == ATMOST:
        return c.params[0] >= 2 or len(block) == r
    if c.kind == ATLEAST:
        return 1 + (r - len(block)) >= c.params[0]
    t_low, t_high = c.params
    classes, members = _classes(c)
    x = tuple(len(block.intersection(ts)) for ts in members)
    return _eligible_counts(classes, x, t_low, t_high, {})


def ineligible_singletons(c: ConstraintInstance) -> frozenset[str]:
    """The scope tasks t whose singleton {t} is not an eligible set.

    Agrees with ``eligible_set`` on every singleton: the whole scope
    for ``eq`` over two tasks, ``neq`` and ``sep`` over fewer than two,
    ``atmost 1`` over two or more, and ``atleast t`` over fewer than t;
    for a ``bind`` with disjoint sides, the sole task of each one-task
    side; and for a ``peruser`` that repeats no task, the whole scope when
    t_low >= 2 (a singleton's load is 1, and with t_low = 1 the rest
    groups one task per group). The singletons of a repeating
    ``peruser``'s class share a count vector, so it makes one
    ``eligible_set`` check per class. Every other answer takes O(1) time.
    """
    r = len(c.scope_set)
    if c.kind == EQ2:
        bad = r == 2
    elif c.kind in (NEQ2, SEP):
        bad = r < 2
    elif c.kind == ATMOST:
        bad = c.params[0] == 1 and r >= 2
    elif c.kind == ATLEAST:
        bad = r < c.params[0]
    elif c.kind == BIND:
        left, right = (frozenset(g) for g in c.scope_sets)
        if left & right:
            return frozenset()
        return frozenset(t for side in (left, right) if len(side) == 1 for t in side)
    elif len(c.scope) == r:
        bad = c.params[0] >= 2
    else:
        return frozenset(t for ts in _classes(c)[1]
                         if not eligible_set(c, ts[:1]) for t in ts)
    return frozenset(c.scope_set) if bad else frozenset()


def required_additions(
    c: ConstraintInstance, tasks: Iterable[str]
) -> frozenset[str]:
    """Tasks every eligible superset of an ineligible set must contain.

    Precondition: the constraint is regular and intersection-closed (the
    kernel's kind check), so the eligible supersets of the set have a least
    member, its closure. For every kind but ``peruser`` the eligible sets
    are closed under subsets or are only the empty set and the scope, so
    the closure is the scope. Permuting a ``peruser`` class outside the set
    maps the closure to itself, so it is the intersection of the eligible
    sets among the at most 2^d unions of the set with whole classes (the
    set and the scope when no task repeats). Raises DomainError on an
    eligible set, DeadEndError if none is a superset.
    """
    block = frozenset(tasks)
    if eligible_set(c, block):
        raise DomainError("required_additions called on an eligible set")
    if c.kind == PERUSER:
        classes, members = _classes(c)
        x = tuple(len(block.intersection(ts)) for ts in members)
        supersets = [block.union(*(members[i] for i in raised)) for raised
                     in _eligible_completions(classes, x, *c.params, {})]
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
    return tuple(code for code in growth_strings(len(scope))
                 if eligible_partition(c, dict(zip(scope, code))))


def classification(c: ConstraintInstance) -> tuple[bool, Optional[bool]]:
    """(regular, intersection_closed) verdicts for a catalog constraint.

    intersection_closed is None when the constraint is not regular (the
    notion is defined only for regular constraints). Closed-form for every
    kind but ``peruser`` with t_low >= 2, which is closed iff no nonempty
    ineligible set z of load <= t_high is the intersection of two eligible
    sets that are z plus a task of a class z lacks two or more tasks of,
    the two tasks differing (a swap), or z with two disjoint sets of its
    incomplete classes raised to full. Without swaps, eligible sets stay
    eligible as incomplete classes shrink, so two eligible sets meeting in
    z shrink to two such completions. Count vectors are generated and
    decided lazily, so the first witness ends the search. Tests check
    against enumeration.
    """
    r = c.arity
    if c.kind in (EQ2, NEQ2, SEP):
        return True, True
    if c.kind == BIND:
        left, right = (set(g) for g in c.scope_sets)
        if left & right or len(left) == len(right) == 1:
            return True, True  # trivially satisfied by any plan, or equality
        return (True, False) if min(len(left), len(right)) == 1 else (False, None)
    if c.kind == ATMOST:
        t = c.params[0]
        return (True, True) if t == 1 or t >= r else (False, None)
    if c.kind == ATLEAST:
        t = c.params[0]
        return (True, True) if t <= 2 or t >= r else (False, None)
    t_low, t_high = c.params
    if t_low == 1:
        return True, True
    classes, _ = _classes(c)
    memo: dict = {}
    for z in _vectors(classes, t_high):
        if not any(z) or _eligible_counts(classes, z, t_low, t_high, memo):
            continue
        swaps = (z[:i] + (j + 1,) + z[i + 1:]
                 for i, ((_, n), j) in enumerate(zip(classes, z)) if j + 1 < n)
        if any(_eligible_counts(classes, y, t_low, t_high, memo) for y in swaps):
            return True, False
        raised: list[frozenset[int]] = []
        for s in _eligible_completions(classes, z, t_low, t_high, memo):
            if any(s.isdisjoint(u) for u in raised):
                return True, False
            raised.append(s)
    return True, True
