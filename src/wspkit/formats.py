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

from typing import Sequence

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
from wspkit.classify import RelationSpec
from wspkit.errors import DomainError, ParseError
from wspkit.kernel import KernelResult
from wspkit.partitions import blocks, growth_string
from wspkit.reductions import CnfFormula, MchsInstance


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


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
        elif line.startswith("users:"):
            if users is not None:
                raise ParseError("repeated users: line")
            users = tuple(line.split(":", 1)[1].split())
        else:
            raise ParseError(f"unrecognized line: {line!r}")
    if tasks is None or users is None:
        raise ParseError("document must declare tasks: and users:")
    try:
        return WorkflowSchema(tasks, users, auth, tuple(constraints))
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def serialize_instance(schema: WorkflowSchema, header: Sequence[str] = ()) -> str:
    lines = [f"# {h}" for h in header]
    lines.append("tasks: " + " ".join(schema.tasks))
    lines.append("users: " + " ".join(schema.users))
    for t in schema.tasks:
        lines.append(f"auth {t}: " + " ".join(schema.sort_users(schema.auth[t])))
    order = schema.sort_tasks
    for c in schema.constraints:
        lines.append("constraint " + describe(c, order))
    return "\n".join(lines) + "\n"


def parse_plan(text: str) -> Plan:
    assignment: dict[str, str] = {}
    for line in _content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"bad plan line: {line!r}")
        task, user = parts
        if task in assignment:
            raise ParseError(f"task {task} assigned twice")
        assignment[task] = user
    return Plan(assignment)


def serialize_plan(plan: Plan, task_order: Sequence[str] = ()) -> str:
    order = {t: i for i, t in enumerate(task_order)}
    assignment = plan.assignment
    return "".join(f"{t} {assignment[t]}\n" for t in in_order(order, assignment))


def parse_relation_spec(text: str) -> RelationSpec:
    lines = _content_lines(text)
    if not lines or not lines[0].startswith("arity"):
        raise ParseError("relation spec must start with an 'arity N' line")
    try:
        arity = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise ParseError(f"bad arity line: {lines[0]!r}") from exc
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
    try:
        return RelationSpec(arity, frozenset(eligible))
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


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
            if len(set(vertices)) < len(vertices):
                raise ParseError(f"vertex listed twice: {line!r}")
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
    unknown = set(coloring) - set(vertices)
    if unknown:
        raise ParseError(f"color lines for unknown vertices: {sorted(unknown)}")
    num_colors = max(coloring.values(), default=0)
    try:
        return MchsInstance(vertices, tuple(sets), num_colors, coloring)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


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
    return CnfFormula(num_vars, tuple(clauses))


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
