"""Line-oriented text formats: instances, plans, relation specs, MCHS, DIMACS.

Instances and plans are read and written, relation specs, MCHS and
DIMACS only read, and kernel logs only written: each writer here is one
that a ``wsp`` command prints with. The instance format is human-writable and canonical: tasks and users are
listed in declaration order, authorization lines follow task order with
users in user order, and constraints keep declaration order with scope
sets ordered by task declaration. Serializing a parsed canonical document
reproduces it byte for byte. Lines starting with '#' and blank lines are
ignored on input; serializers may emit '#' header comments.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from wspkit.core import (
    CATALOG,
    COUNT,
    PAIR,
    SETS,
    ConstraintInstance,
    Plan,
    WorkflowSchema,
    describe,
    in_order,
)
from wspkit.classify import RelationSpec, check_arity
from wspkit.errors import DomainError, ParseError
from wspkit.kernel import KernelResult
from wspkit.partitions import blocks, growth_string
from wspkit.reductions import CnfFormula, MchsInstance

_T = TypeVar("_T")


def _content_lines(text: str) -> list[str]:
    return [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]


def _build(make: Callable[..., _T], *args: object) -> _T:
    """make(*args), its DomainError raised again as a ParseError with the same text."""
    try:
        return make(*args)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def _parse_set(token: str) -> tuple[str, ...]:
    """The names of a ``{a,b}`` token: braces at both ends and nowhere else."""
    inner = token[1:-1]
    if token[:1] != "{" or token[-1:] != "}" or "{" in inner or "}" in inner:
        raise ParseError(f"expected a {{...}} task set, got {token!r}")
    inner = inner.strip()
    if not inner:
        raise ParseError("empty task set")
    names = tuple(map(str.strip, inner.split(",")))
    if "" in names:
        raise ParseError(f"empty task name in {token!r}")
    return names


def parse_constraint_line(args: Sequence[str]) -> ConstraintInstance:
    """A constraint from the tokens of its instance syntax (see ``CATALOG``)."""
    if not args:
        raise ParseError("empty constraint")
    kind = args[0]
    entry = CATALOG.get(kind)
    if entry is None:
        raise ParseError(f"unknown constraint kind {kind!r}")
    shape, bounds = entry
    arguments = bounds + 1 if shape == COUNT else 2
    if len(args) != arguments + 1:
        # a task set written with spaces splits into several tokens
        opened = next((i for i, a in enumerate(args) if "{" in a and "}" not in a), None)
        if opened is not None:
            rest = args[opened:]
            closed = next((i for i, a in enumerate(rest) if "}" in a), len(rest))
            written = " ".join(rest[:closed + 1])
            raise ParseError(f"task set {written!r} has spaces; write sets without spaces")
        raise ParseError(f"{kind} takes {arguments} arguments, got {len(args) - 1}")
    try:
        if shape == PAIR:
            return ConstraintInstance(kind, (), (args[1], args[2]))
        if shape == SETS:
            return ConstraintInstance(kind, (), (), (_parse_set(args[1]), _parse_set(args[2])))
        return ConstraintInstance(kind, tuple(map(int, args[1:-1])), _parse_set(args[-1]))
    except (ValueError, DomainError) as exc:
        raise ParseError(f"bad constraint {' '.join(args)!r}: {exc}") from exc


def parse_instance(text: str) -> WorkflowSchema:
    """A schema from instance text, in one pass over its stripped lines,
    testing the most frequent prefixes (``constraint``, ``auth``) first.
    A schema that is not well-formed raises ParseError with the text of
    the constructor's DomainError."""
    tasks: tuple[str, ...] | None = None
    users: tuple[str, ...] | None = None
    auth: dict[str, frozenset[str]] = {}
    constraints: list[ConstraintInstance] = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("constraint "):
            constraints.append(parse_constraint_line(line.split()[1:]))
        elif line.startswith("auth "):
            head, _, tail = line.partition(":")
            parts = head.split()
            if len(parts) != 2:
                raise ParseError(f"bad auth line: {line!r}")
            if parts[1] in auth:
                raise ParseError(f"repeated auth line for task {parts[1]}")
            auth[parts[1]] = frozenset(tail.split())
        elif not line or line[0] == "#":
            continue
        elif line.startswith("tasks:"):
            if tasks is not None:
                raise ParseError("repeated tasks: line")
            tasks = tuple(line.split(":", 1)[1].split())
            if "#" in line and (hashed := [t for t in tasks if t[0] == "#"]):
                raise ParseError(f"task names may not start with '#': {hashed}")
        elif line.startswith("users:"):
            if users is not None:
                raise ParseError("repeated users: line")
            users = tuple(line.split(":", 1)[1].split())
        else:
            raise ParseError(f"unrecognized line: {line!r}")
    if tasks is None or users is None:
        raise ParseError("document must declare tasks: and users:")
    return _build(WorkflowSchema, tasks, users, auth, tuple(constraints))


def serialize_instance(schema: WorkflowSchema, header: Sequence[str] = ()) -> str:
    """The schema as instance text, after one ``# `` comment line per line
    of each header string. Raises DomainError, naming them, if a task name
    is empty, starts with '#' or holds whitespace, ':', ',', '{' or '}', or
    a user name is empty or holds whitespace: ``parse_instance`` could not
    read the text back."""
    tasks, users = " ".join(schema.tasks), " ".join(schema.users)
    # a line splits back into its names iff none is empty or holds whitespace
    if (tasks.split() != [*schema.tasks] or users.split() != [*schema.users]
            or any(mark in tasks for mark in ":,{}") or tasks[:1] == "#" or " #" in tasks):
        bad_tasks = [t for t in schema.tasks if t.split() != [t] or t[:1] == "#"
                     or any(mark in t for mark in ":,{}")]
        bad_users = [u for u in schema.users if u.split() != [u]]
        raise DomainError(f"names that cannot be written: tasks {bad_tasks}, users {bad_users}")
    lines = [f"# {line}" for h in header for line in h.splitlines() or [""]]
    lines.append("tasks: " + tasks)
    lines.append("users: " + users)
    for t in schema.tasks:
        lines.append(f"auth {t}: " + " ".join(schema.sort_users(schema.auth[t])))
    order = schema.sort_tasks
    for c in schema.constraints:
        lines.append("constraint " + describe(c, order))
    return "\n".join(lines) + "\n"


def parse_plan(text: str) -> dict[str, str]:
    assignment: dict[str, str] = {}
    for line in _content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"bad plan line: {line!r}")
        task, user = parts
        if task in assignment:
            raise ParseError(f"task {task} assigned twice")
        assignment[task] = user
    return assignment


def serialize_plan(plan: Plan, task_order: Sequence[str] = ()) -> str:
    """The plan as one ``task user`` line per task, tasks in task_order and
    the rest after them by name. Raises DomainError, naming them, if a task
    name is empty, starts with '#' or holds whitespace, or a user name is
    empty or holds whitespace: ``parse_plan`` could not read the text back."""
    bad_tasks = [t for t in plan if t.split() != [t] or t[0] == "#"]
    bad_users = [u for u in dict.fromkeys(plan.values()) if u.split() != [u]]
    if bad_tasks or bad_users:
        raise DomainError(f"names that cannot be written: tasks {bad_tasks}, users {bad_users}")
    order = {t: i for i, t in enumerate(task_order)}
    return "".join(f"{t} {plan[t]}\n" for t in in_order(order, plan))


def parse_relation_spec(text: str) -> RelationSpec:
    """A relation spec: an ``arity N`` line, then one eligible partition per
    line. Raises ResourceLimitError if N exceeds the enumeration cap, before
    any partition line is read, and ParseError on a malformed line."""
    lines = _content_lines(text)
    if not lines or not lines[0].startswith("arity"):
        raise ParseError("relation spec must start with an 'arity N' line")
    try:
        keyword, number = lines[0].split()
        arity = int(number)
    except ValueError as exc:
        raise ParseError(f"bad arity line: {lines[0]!r}") from exc
    if keyword != "arity":
        raise ParseError(f"bad arity line: {lines[0]!r}")
    check_arity(arity)
    eligible = []
    for line in lines[1:]:
        # label[i]: the block holding position i + 1
        label: list[int | None] = [None] * arity
        for which, token in enumerate(line.split("|")):
            try:
                positions = [int(x) for x in _parse_set(token.strip())]
            except ValueError as exc:
                raise ParseError(f"bad position in partition line: {line!r}") from exc
            for p in positions:
                if not 1 <= p <= arity:
                    raise ParseError(f"position {p} outside 1..{arity} in {line!r}")
                if label[p - 1] is not None:
                    raise ParseError(f"position {p} in two blocks of {line!r}")
                label[p - 1] = which
        missing = [i + 1 for i, which in enumerate(label) if which is None]
        if missing:
            raise ParseError(f"positions {missing} missing from {line!r}")
        eligible.append(growth_string(label))
    return _build(RelationSpec, arity, frozenset(eligible))


def format_partition(code: Sequence[int]) -> str:
    """A growth string over positions 1..r as blocks, e.g. ``{1,2}|{3}``,
    each block sorted and blocks in order of their smallest position."""
    return "|".join(
        "{%s}" % ",".join(str(i + 1) for i in b) for b in blocks(code)
    )


def parse_mchs(text: str) -> MchsInstance:
    vertices: tuple[str, ...] | None = None
    coloring: dict[str, int] = {}
    sets: list[frozenset[str]] = []
    for line in _content_lines(text):
        if line.startswith("vertices:"):
            if vertices is not None:
                raise ParseError("repeated vertices: line")
            vertices = tuple(line.split(":", 1)[1].split())
        elif line.startswith("color "):
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(f"bad color line: {line!r}")
            if parts[1] in coloring:
                raise ParseError(f"repeated color line for vertex {parts[1]}")
            try:
                coloring[parts[1]] = int(parts[2])
            except ValueError as exc:
                raise ParseError(f"bad color line: {line!r}") from exc
        elif line.startswith("set:"):
            members = line.split(":", 1)[1].split()
            sets.append(frozenset(members))
        else:
            raise ParseError(f"unrecognized line: {line!r}")
    if vertices is None:
        raise ParseError("document must declare vertices:")
    if not coloring:
        raise ParseError("document must assign colors")
    num_colors = max(coloring.values(), default=0)
    return _build(MchsInstance, vertices, tuple(sets), num_colors, coloring)


def parse_dimacs(text: str) -> CnfFormula:
    """A CNF formula from DIMACS text; the ``p cnf`` line must count its clauses."""
    num_vars: int | None = None
    num_clauses = 0
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise ParseError(f"repeated problem line: {line!r}")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(f"bad problem line: {line!r}")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise ParseError(f"bad problem line: {line!r}") from exc
            continue
        try:
            for tok in line.split():
                lit = int(tok)
                if lit == 0:
                    if pending:
                        clauses.append(tuple(pending))
                        pending = []
                else:
                    pending.append(lit)
        except ValueError as exc:
            raise ParseError(f"bad clause line: {line!r}") from exc
    if pending:
        clauses.append(tuple(pending))
    if num_vars is None:
        raise ParseError("missing 'p cnf' problem line")
    if len(clauses) != num_clauses:
        raise ParseError(
            f"problem line declares {num_clauses} clauses, found {len(clauses)}"
        )
    return _build(CnfFormula, num_vars, tuple(clauses))


def serialize_kernel_log(result: KernelResult) -> str:
    index = {u: i for i, u in enumerate(result.user_order)} if result.merge_log else {}
    lines = ["MERGES"]
    for rec in result.merge_log:
        users = in_order(index, rec.intersected_auth)
        lines.append(f"{rec.absorbed} -> {rec.surviving} : " + " ".join(users))
    lines.append("MARKED")
    lines.append(" ".join(result.marked))
    lines.append("HARD")
    lines.append(" ".join(result.hard))
    lines.append("REPS")
    for t in result.schema.tasks:
        if t in result.representatives:
            lines.append(f"{t} {result.representatives[t]}")
    return "\n".join(lines) + "\n"
