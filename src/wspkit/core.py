"""Workflow instance model: the catalog and what each kind means, schemas,
constraints, plans, validity checks."""

from __future__ import annotations

from collections import Counter
from dataclasses import FrozenInstanceError, dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Mapping, Optional

from wspkit.errors import DomainError

# The catalog's syntax, one entry per kind: kind -> (shape, number of
# integer bounds). PAIR is two tasks (``neq a b``); SETS is two nonempty task
# sets (``sep {a} {b,c}``); COUNT is the integer bounds, rising from 1, then
# one nonempty task set (``peruser 1 2 {a,b,c}``).
PAIR, SETS, COUNT = "pair", "sets", "count"
CATALOG = {
    "eq": (PAIR, 0), "neq": (PAIR, 0), "bind": (SETS, 0), "sep": (SETS, 0),
    "atmost": (COUNT, 1), "atleast": (COUNT, 1), "peruser": (COUNT, 2),
}
# the kind tags, in catalog order
EQ2, NEQ2, BIND, SEP, ATMOST, ATLEAST, PERUSER = CATALOG


def eligible_partition(c: ConstraintInstance, label: Mapping[str, Hashable]) -> bool:
    """Whether a labelling of the constraint's scope is eligible: what each
    kind means.

    ``label`` maps every scope task to a hashable block label: two scope
    tasks share a block iff their labels are equal. Any task-keyed mapping
    will do, such as a growth-string dict or a plan (labels are users).
    Tasks outside the scope are ignored, so a labelling of any superset of
    the scope is accepted.
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


@dataclass(frozen=True, slots=True, init=False)
class ConstraintInstance:
    """A catalog relation applied to a tuple of tasks.

    Repetitions in the scope are allowed (they arise from task merging).
    Set-parameterized kinds collapse repeated tasks to the scope set, and
    the user-count kinds (atmost, atleast) count distinct users, so neither
    is affected by repeats. The peruser kind counts scope positions, so a
    repeated task contributes its multiplicity to its block's load. The
    constructor checks the arguments against ``CATALOG`` and, as the class
    is frozen, stores them as tuples through its slot descriptors; a sets
    kind takes ``scope_sets`` and derives ``scope`` from them.
    """

    kind: str
    params: tuple[int, ...] = ()
    scope: tuple[str, ...] = ()
    scope_sets: Optional[tuple[tuple[str, ...], tuple[str, ...]]] = None
    # distinct scope tasks in order of first occurrence
    scope_set: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __init__(self, kind: str, params: Iterable[int] = (), scope: Iterable[str] = (),
                 scope_sets: Optional[Iterable[Iterable[str]]] = None) -> None:
        entry = CATALOG.get(kind)
        if entry is None:
            raise DomainError(f"unknown constraint kind {kind!r}")
        shape, bounds = entry
        params, scope, sets = tuple(params), tuple(scope), None
        if len(params) != bounds or bounds and not 1 <= params[0] <= params[-1]:
            raise DomainError(f"{kind} takes {bounds} integer bounds rising from 1, got {params}")
        if shape == SETS:
            sets = () if scope_sets is None else tuple(map(tuple, scope_sets))
            if len(sets) != 2 or not all(sets):
                raise DomainError(f"{kind} requires two nonempty task sets")
            scope_set = tuple(dict.fromkeys(sets[0] + sets[1]))
            if scope and scope != scope_set:
                raise DomainError(f"{kind} takes its scope from its two task sets")
            scope = scope_set
        elif scope_sets is not None:
            raise DomainError(f"{kind} takes a scope, not task sets")
        elif shape == PAIR:
            if len(scope) != 2:
                raise DomainError(f"{kind} takes exactly two tasks")
            scope_set = scope if scope[0] != scope[1] else scope[:1]
        elif not scope:
            raise DomainError(f"{kind} requires a nonempty scope")
        else:
            scope_set = tuple(dict.fromkeys(scope))
        _set_kind(self, kind)
        _set_params(self, params)
        _set_scope(self, scope)
        _set_scope_sets(self, sets)
        _set_scope_set(self, scope_set)

    @property
    def arity(self) -> int:
        return len(self.scope_set)

    def dedup_key(self) -> tuple:
        """Deduplication key: scopes as sets, but peruser scopes as multisets.

        A peruser scope that repeats a task is keyed by its (task, count)
        pairs; one that repeats none is keyed by its task set, like the
        other kinds, since each of its counts is 1. The two forms never
        compare equal, as a scope is nonempty.
        """
        if self.scope_sets is not None:
            return (self.kind, self.params, frozenset(self.scope_sets[0]),
                    frozenset(self.scope_sets[1]))
        if self.kind == PERUSER and len(self.scope) != len(self.scope_set):
            return (self.kind, self.params, frozenset(Counter(self.scope).items()))
        return (self.kind, self.params, frozenset(self.scope))


_set_kind, _set_params, _set_scope, _set_scope_sets, _set_scope_set = (
    ConstraintInstance.__dict__[name].__set__ for name in ConstraintInstance.__slots__)


def _refuse_assignment(self: ConstraintInstance, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self: ConstraintInstance, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


# Bound after the class is built, since dataclass(frozen=True) refuses a class
# that defines them; the pair it generates closes over the class from before
# slots=True rebuilt it, and raised TypeError for a name that is not a field.
ConstraintInstance.__setattr__ = _refuse_assignment
ConstraintInstance.__delattr__ = _refuse_deletion


def equality(s: str, s2: str) -> ConstraintInstance:
    return ConstraintInstance(EQ2, (), (s, s2))


def disequality(s: str, s2: str) -> ConstraintInstance:
    return ConstraintInstance(NEQ2, (), (s, s2))


def binding(ts: Iterable[str], ts2: Iterable[str]) -> ConstraintInstance:
    return ConstraintInstance(BIND, scope_sets=(ts, ts2))


def separation(ts: Iterable[str], ts2: Iterable[str]) -> ConstraintInstance:
    return ConstraintInstance(SEP, scope_sets=(ts, ts2))


def at_most(t: int, ts: Iterable[str]) -> ConstraintInstance:
    return ConstraintInstance(ATMOST, (t,), ts)


def at_least(t: int, ts: Iterable[str]) -> ConstraintInstance:
    return ConstraintInstance(ATLEAST, (t,), ts)


def per_user(t_low: int, t_high: int, ts: Iterable[str]) -> ConstraintInstance:
    return ConstraintInstance(PERUSER, (t_low, t_high), ts)


@dataclass(frozen=True)
class WorkflowSchema:
    """A workflow instance: tasks, users, authorization lists, constraints.

    Identifiers are opaque strings; all tie-breaking follows declaration
    order. Instances are immutable; transformations build new schemas.
    A schema is well-formed once built: its tasks are distinct, its users
    are distinct, the authorization lists are for its tasks and name only
    its users, and the constraints name only its tasks. A task without an
    authorization entry gets an empty list. The constructor refuses any
    other schema with one DomainError: ``invalid instance:`` and every
    fault, joined by ``; ``.
    """

    tasks: tuple[str, ...]
    users: tuple[str, ...]
    auth: Mapping[str, frozenset[str]]
    constraints: tuple[ConstraintInstance, ...] = ()

    def __post_init__(self) -> None:
        tasks, users, auth = tuple(self.tasks), tuple(self.users), self.auth
        constraints = tuple(self.constraints)
        norm = {t: frozenset(auth.get(t, ())) for t in tasks}
        object.__setattr__(self, "tasks", tasks)
        object.__setattr__(self, "users", users)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "auth", MappingProxyType(norm))
        faults: list[str] = []
        task_set, user_set = set(tasks), set(users)
        if len(task_set) != len(tasks):
            faults.append("duplicate task identifiers")
        if len(user_set) != len(users):
            faults.append("duplicate user identifiers")
        # containment is tested first; the difference is built only to report it
        for t, a in norm.items():
            if not user_set.issuperset(a):
                faults.append(f"authorization of {t} names unknown users: "
                              f"{sorted(a - user_set)}")
        if not task_set.issuperset(auth):
            faults.append(f"authorization for unknown tasks: {sorted(set(auth) - task_set)}")
        for i, c in enumerate(constraints):
            if not task_set.issuperset(c.scope_set):
                faults.append(f"constraint #{i} ({describe(c)}) names unknown tasks: "
                              f"{sorted(set(c.scope_set) - task_set)}")
        if faults:
            raise DomainError("invalid instance: " + "; ".join(faults))

    # Computed once per schema: the fields they derive from never change.
    # They serve as sort keys and as task and user indices.
    @cached_property
    def _task_positions(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.tasks)}

    @cached_property
    def _user_positions(self) -> dict[str, int]:
        return {u: i for i, u in enumerate(self.users)}

    def sort_tasks(self, tasks: Iterable[str]) -> tuple[str, ...]:
        return in_order(self._task_positions, tasks)

    def sort_users(self, users: Iterable[str]) -> tuple[str, ...]:
        return in_order(self._user_positions, users)


def in_order(positions: dict[str, int], names: Iterable[str]) -> tuple[str, ...]:
    """names sorted by their positions; names without one last, by name."""
    names = tuple(names)
    try:
        return tuple(sorted(names, key=positions.__getitem__))
    except KeyError:
        last = len(positions)
        return tuple(sorted(names, key=lambda x: (positions.get(x, last), x)))


# A (partial) plan: any mapping from tasks to the users assigned to them.
Plan = Mapping[str, str]


def satisfies(plan: Plan, c: ConstraintInstance) -> bool:
    """Whether the plan satisfies the constraint.

    A plan whose domain omits part of the scope satisfies the constraint
    vacuously; otherwise the plan's users label the scope's blocks.
    """
    for t in c.scope_set:
        if t not in plan:
            return True
    return eligible_partition(c, plan)


@dataclass(frozen=True)
class Violation:
    """One failed validity check."""

    check: str  # "complete" | "authorized" | "eligible"
    detail: str


@dataclass(frozen=True)
class Verdict:
    violations: tuple[Violation, ...] = ()

    def __bool__(self) -> bool:
        return not self.violations


def is_valid_plan(schema: WorkflowSchema, plan: Plan) -> Verdict:
    """Check completeness, authorization, and eligibility of a plan."""
    violations: list[Violation] = []
    for t in schema.tasks:
        if t not in plan:
            violations.append(Violation("complete", f"task {t} is unassigned"))
    for t, u in plan.items():
        if t not in schema.auth:
            violations.append(Violation("complete", f"unknown task {t} assigned"))
        elif u not in schema.auth[t]:
            violations.append(
                Violation("authorized", f"user {u} is not authorized for task {t}")
            )
    for i, c in enumerate(schema.constraints):
        if not satisfies(plan, c):
            violations.append(
                Violation("eligible", f"constraint #{i} ({describe(c)}) is violated")
            )
    return Verdict(tuple(violations))


def describe(c: ConstraintInstance, order: Callable = tuple) -> str:
    """The constraint in instance syntax, each task set put in ``order``."""
    shape = CATALOG[c.kind][0]
    if shape == PAIR:
        return f"{c.kind} {c.scope[0]} {c.scope[1]}"
    if shape == SETS:
        left, right = c.scope_sets
        return "%s {%s} {%s}" % (c.kind, ",".join(order(left)), ",".join(order(right)))
    return "%s %s {%s}" % (c.kind, " ".join(map(str, c.params)), ",".join(order(c.scope)))


@dataclass(frozen=True)
class SchemaReport:
    errors: tuple[str, ...]
    warnings: tuple[str, ...]


def validate_schema(schema: WorkflowSchema) -> SchemaReport:
    """Warn of trivially-unsatisfiable empty authorization lists.

    ``errors`` is always empty: a schema that is not well-formed is
    refused when it is built. Kept only because the benchmark
    (``bench/run.py``) calls it; it goes with the benchmark half of
    ROADMAP item 18.
    """
    return SchemaReport((), tuple(
        f"task {t} has an empty authorization list (instance is trivially unsatisfiable)"
        for t in schema.tasks if not schema.auth[t]))
