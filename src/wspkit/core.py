"""Workflow instance model: schemas, constraints, plans, partitions."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, Optional

from wspkit.errors import DomainError

# Catalog tags. Two-task kinds take a scope pair, two-set kinds a pair of
# task sets, counting kinds a single task set plus integer parameters.
EQ2 = "eq"
NEQ2 = "neq"
BIND = "bind"
SEP = "sep"
ATMOST = "atmost"
ATLEAST = "atleast"
PERUSER = "peruser"

KINDS = (EQ2, NEQ2, BIND, SEP, ATMOST, ATLEAST, PERUSER)


def _dedup(items: Iterable[str]) -> tuple[str, ...]:
    seen: dict[str, None] = {}
    for x in items:
        seen.setdefault(x)
    return tuple(seen)


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

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise DomainError(f"unknown constraint kind {self.kind!r}")
        if self.kind in (EQ2, NEQ2):
            if len(self.scope) != 2:
                raise DomainError(f"{self.kind} takes exactly two tasks")
            if self.params:
                raise DomainError(f"{self.kind} takes no parameters")
        elif self.kind in (BIND, SEP):
            if self.scope_sets is None or not all(self.scope_sets):
                raise DomainError(f"{self.kind} requires two nonempty task sets")
            if self.params:
                raise DomainError(f"{self.kind} takes no parameters")
            object.__setattr__(
                self, "scope", _dedup(self.scope_sets[0] + self.scope_sets[1])
            )
        elif self.kind in (ATMOST, ATLEAST):
            if len(self.params) != 1 or self.params[0] < 1:
                raise DomainError(f"{self.kind} requires a parameter t >= 1")
            if not self.scope:
                raise DomainError(f"{self.kind} requires a nonempty scope")
        elif self.kind == PERUSER:
            if len(self.params) != 2 or not (1 <= self.params[0] <= self.params[1]):
                raise DomainError("peruser requires 1 <= t_l <= t_r")
            if not self.scope:
                raise DomainError("peruser requires a nonempty scope")

    @property
    def scope_set(self) -> tuple[str, ...]:
        """Distinct scope tasks in order of first occurrence."""
        return _dedup(self.scope)

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

    @property
    def task_index(self) -> Mapping[str, int]:
        return {t: i for i, t in enumerate(self.tasks)}

    @property
    def user_index(self) -> Mapping[str, int]:
        return {u: i for i, u in enumerate(self.users)}

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

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(self.assignment)

    def __getitem__(self, task: str) -> str:
        return self.assignment[task]

    def __contains__(self, task: str) -> bool:
        return task in self.assignment

    def items(self):
        return self.assignment.items()


@dataclass(frozen=True)
class TaskPartition:
    """A partition of a carrier set of tasks into disjoint nonempty blocks."""

    blocks: frozenset[frozenset[str]]

    def __post_init__(self) -> None:
        blocks = frozenset(frozenset(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        total = 0
        for b in blocks:
            if not b:
                raise DomainError("partition blocks must be nonempty")
            total += len(b)
        if total != len(self.carrier):
            raise DomainError("partition blocks must be pairwise disjoint")

    @property
    def carrier(self) -> frozenset[str]:
        out: set[str] = set()
        for b in self.blocks:
            out |= b
        return frozenset(out)

    def __getitem__(self, task: str) -> frozenset[str]:
        """The block holding the task, so a partition is a block labelling."""
        for b in self.blocks:
            if task in b:
                return b
        raise KeyError(task)

    def restrict(self, carrier: Iterable[str]) -> "TaskPartition":
        """Partition induced on a subset of the carrier."""
        sub = frozenset(carrier)
        kept = frozenset(b & sub for b in self.blocks if b & sub)
        return TaskPartition(kept)

    def __len__(self) -> int:
        return len(self.blocks)


def induced_partition(plan: Plan, carrier: Iterable[str]) -> TaskPartition:
    """Group the carrier tasks by assigned user.

    Raises DomainError if some carrier task is unassigned.
    """
    groups: dict[str, set[str]] = {}
    for t in carrier:
        if t not in plan:
            raise DomainError(f"task {t!r} is not assigned by the plan")
        groups.setdefault(plan[t], set()).add(t)
    return TaskPartition(frozenset(frozenset(g) for g in groups.values()))


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


def describe(c: ConstraintInstance) -> str:
    """Short human-readable rendering of a constraint."""
    if c.kind == EQ2:
        return f"{c.scope[0]} = {c.scope[1]}"
    if c.kind == NEQ2:
        return f"{c.scope[0]} != {c.scope[1]}"
    if c.kind == BIND:
        return "bind {%s} {%s}" % (",".join(c.scope_sets[0]), ",".join(c.scope_sets[1]))
    if c.kind == SEP:
        return "sep {%s} {%s}" % (",".join(c.scope_sets[0]), ",".join(c.scope_sets[1]))
    if c.kind == ATMOST:
        return "atmost %d {%s}" % (c.params[0], ",".join(c.scope))
    if c.kind == ATLEAST:
        return "atleast %d {%s}" % (c.params[0], ",".join(c.scope))
    return "peruser %d %d {%s}" % (c.params[0], c.params[1], ",".join(c.scope))


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
