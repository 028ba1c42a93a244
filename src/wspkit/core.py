"""Workflow instance model: schemas, constraints, plans, validity checks."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Optional

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


def _dedup(items: Iterable[str]) -> tuple[str, ...]:
    return tuple(dict.fromkeys(items))


@dataclass(frozen=True)
class ConstraintInstance:
    """A catalog relation applied to a tuple of tasks.

    Repetitions in the scope are allowed (they arise from task merging).
    Set-parameterized kinds collapse repeated tasks to the scope set, and
    the user-count kinds (atmost, atleast) count distinct users, so neither
    is affected by repeats. The peruser kind counts scope positions, so a
    repeated task contributes its multiplicity to its block's load.
    """

    kind: str
    params: tuple[int, ...] = ()
    scope: tuple[str, ...] = ()
    scope_sets: Optional[tuple[tuple[str, ...], tuple[str, ...]]] = None
    # Cache of scope_set. Declared, so every instance holds it from __init__
    # on: a cache first added to the instance __dict__ on use (as a
    # cached_property does) made every later attribute read slower in the
    # solver's eligibility loop.
    _scope_set: Optional[tuple[str, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        entry = CATALOG.get(self.kind)
        if entry is None:
            raise DomainError(f"unknown constraint kind {self.kind!r}")
        shape, bounds = entry
        params = self.params
        if len(params) != bounds or bounds and not 1 <= params[0] <= params[-1]:
            raise DomainError(
                f"{self.kind} takes {bounds} integer bounds rising from 1, got {params}"
            )
        if shape == PAIR:
            if len(self.scope) != 2:
                raise DomainError(f"{self.kind} takes exactly two tasks")
        elif shape == SETS:
            if self.scope_sets is None or not all(self.scope_sets):
                raise DomainError(f"{self.kind} requires two nonempty task sets")
            object.__setattr__(
                self, "scope", _dedup(self.scope_sets[0] + self.scope_sets[1])
            )
        elif not self.scope:
            raise DomainError(f"{self.kind} requires a nonempty scope")

    @property
    def scope_set(self) -> tuple[str, ...]:
        """Distinct scope tasks in order of first occurrence, computed once."""
        if self._scope_set is None:
            object.__setattr__(self, "_scope_set", _dedup(self.scope))
        return self._scope_set

    @property
    def arity(self) -> int:
        return len(self.scope_set)

    def dedup_key(self) -> tuple:
        """Deduplication key: scopes as sets, but peruser scopes as multisets."""
        if self.scope_sets is not None:
            return (self.kind, self.params, frozenset(self.scope_sets[0]),
                    frozenset(self.scope_sets[1]))
        if self.kind == PERUSER:
            return (self.kind, self.params, frozenset(Counter(self.scope).items()))
        return (self.kind, self.params, frozenset(self.scope))


def equality(s: str, s2: str) -> ConstraintInstance:
    return ConstraintInstance(EQ2, scope=(s, s2))


def disequality(s: str, s2: str) -> ConstraintInstance:
    return ConstraintInstance(NEQ2, scope=(s, s2))


def binding(ts: Iterable[str], ts2: Iterable[str]) -> ConstraintInstance:
    return ConstraintInstance(BIND, scope_sets=(tuple(ts), tuple(ts2)))


def separation(ts: Iterable[str], ts2: Iterable[str]) -> ConstraintInstance:
    return ConstraintInstance(SEP, scope_sets=(tuple(ts), tuple(ts2)))


def at_most(t: int, ts: Iterable[str]) -> ConstraintInstance:
    return ConstraintInstance(ATMOST, params=(t,), scope=tuple(ts))


def at_least(t: int, ts: Iterable[str]) -> ConstraintInstance:
    return ConstraintInstance(ATLEAST, params=(t,), scope=tuple(ts))


def per_user(t_low: int, t_high: int, ts: Iterable[str]) -> ConstraintInstance:
    return ConstraintInstance(PERUSER, params=(t_low, t_high), scope=tuple(ts))


@dataclass(frozen=True)
class WorkflowSchema:
    """A workflow instance: tasks, users, authorization lists, constraints.

    Identifiers are opaque strings; all tie-breaking follows declaration
    order. Instances are immutable; transformations build new schemas.
    """

    tasks: tuple[str, ...]
    users: tuple[str, ...]
    auth: Mapping[str, frozenset[str]]
    constraints: tuple[ConstraintInstance, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "users", tuple(self.users))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        norm = {t: frozenset(self.auth.get(t, ())) for t in self.tasks}
        object.__setattr__(self, "auth", MappingProxyType(norm))

    # Computed once per schema: the fields they derive from never change.
    @cached_property
    def task_index(self) -> Mapping[str, int]:
        return MappingProxyType({t: i for i, t in enumerate(self.tasks)})

    @cached_property
    def user_index(self) -> Mapping[str, int]:
        return MappingProxyType({u: i for i, u in enumerate(self.users)})

    def sort_tasks(self, tasks: Iterable[str]) -> tuple[str, ...]:
        idx = self.task_index
        return tuple(sorted(tasks, key=lambda t: (idx.get(t, len(idx)), t)))

    def sort_users(self, users: Iterable[str]) -> tuple[str, ...]:
        idx = self.user_index
        return tuple(sorted(users, key=lambda u: (idx.get(u, len(idx)), u)))


@dataclass(frozen=True)
class Plan:
    """A (partial) assignment of tasks to users."""

    assignment: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", MappingProxyType(dict(self.assignment)))

    def __getitem__(self, task: str) -> str:
        return self.assignment[task]

    def __contains__(self, task: str) -> bool:
        return task in self.assignment

    def items(self):
        return self.assignment.items()


def satisfies(plan: Plan, c: ConstraintInstance) -> bool:
    """Whether the plan satisfies the constraint.

    A plan whose domain omits part of the scope satisfies the constraint
    vacuously; otherwise the plan's users label the scope's blocks.
    """
    from wspkit.constraints import eligible_partition

    if any(t not in plan for t in c.scope_set):
        return True
    return eligible_partition(c, plan)


@dataclass(frozen=True)
class Violation:
    """One failed validity check."""

    check: str  # "complete" | "authorized" | "eligible"
    detail: str


@dataclass(frozen=True)
class Verdict:
    valid: bool
    violations: tuple[Violation, ...] = ()

    def __bool__(self) -> bool:
        return self.valid


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
    return Verdict(not violations, tuple(violations))


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

    @property
    def clean(self) -> bool:
        return not self.errors and not self.warnings


def validate_schema(schema: WorkflowSchema) -> SchemaReport:
    """Report invariant violations and trivially-unsatisfiable warnings."""
    errors: list[str] = []
    warnings: list[str] = []
    if len(set(schema.tasks)) != len(schema.tasks):
        errors.append("duplicate task identifiers")
    if len(set(schema.users)) != len(schema.users):
        errors.append("duplicate user identifiers")
    users = set(schema.users)
    tasks = set(schema.tasks)
    for t in schema.tasks:
        bad = schema.auth[t] - users
        if bad:
            errors.append(
                f"authorization of {t} names unknown users: {sorted(bad)}"
            )
        if not schema.auth[t]:
            warnings.append(f"task {t} has an empty authorization list "
                            "(instance is trivially unsatisfiable)")
    for i, c in enumerate(schema.constraints):
        unknown = set(c.scope_set) - tasks
        if unknown:
            errors.append(
                f"constraint #{i} ({describe(c)}) names unknown tasks: {sorted(unknown)}"
            )
    return SchemaReport(tuple(errors), tuple(warnings))
