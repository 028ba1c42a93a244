"""Line-oriented text formats: instances, plans, relation specs, MCHS, DIMACS.

The instance format is human-writable and canonical: tasks and users are
listed in declaration order, authorization lines follow task order with
users in user order, and constraints keep declaration order with scope
sets ordered by task declaration. Serializing a parsed canonical document
reproduces it byte for byte. Lines starting with '#' and blank lines are
ignored on input; serializers may emit '#' header comments.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence

from wspkit.core import (
    ConstraintInstance,
    Plan,
    WorkflowSchema,
    at_least,
    at_most,
    binding,
    disequality,
    equality,
    per_user,
    separation,
)
from wspkit.classify import RelationSpec, _canon
from wspkit.errors import DomainError, ParseError
from wspkit.kernel import KernelResult
from wspkit.reductions import CnfFormula, MchsInstance

_SET_RE = re.compile(r"\{([^{}]*)\}")


def _content_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def _parse_set(token: str) -> tuple[str, ...]:
    m = _SET_RE.fullmatch(token)
    if not m:
        raise ParseError(f"expected a {{...}} task set, got {token!r}")
    inner = m.group(1).strip()
    if not inner:
        raise ParseError("empty task set")
    return tuple(x.strip() for x in inner.split(","))


def parse_constraint_line(args: Sequence[str]) -> ConstraintInstance:
    if not args:
        raise ParseError("empty constraint")
    kind, rest = args[0], args[1:]
    try:
        if kind == "eq":
            return equality(*rest)
        if kind == "neq":
            return disequality(*rest)
        if kind in ("bind", "sep"):
            if len(rest) != 2:
                raise ParseError(f"{kind} takes two task sets")
            left, right = _parse_set(rest[0]), _parse_set(rest[1])
            return binding(left, right) if kind == "bind" else separation(left, right)
        if kind in ("atmost", "atleast"):
            if len(rest) != 2:
                raise ParseError(f"{kind} takes a bound and a task set")
            t = int(rest[0])
            scope = _parse_set(rest[1])
            return at_most(t, scope) if kind == "atmost" else at_least(t, scope)
        if kind == "peruser":
            if len(rest) != 3:
                raise ParseError("peruser takes two bounds and a task set")
            return per_user(int(rest[0]), int(rest[1]), _parse_set(rest[2]))
    except (TypeError, ValueError, DomainError) as exc:
        raise ParseError(f"bad constraint {' '.join(args)!r}: {exc}") from exc
    raise ParseError(f"unknown constraint kind {kind!r}")


def parse_instance(text: str) -> WorkflowSchema:
    tasks: tuple[str, ...] | None = None
    users: tuple[str, ...] | None = None
    auth: dict[str, frozenset[str]] = {}
    constraints: list[ConstraintInstance] = []
    for line in _content_lines(text):
        if line.startswith("tasks:"):
            tasks = tuple(line.split(":", 1)[1].split())
        elif line.startswith("users:"):
            users = tuple(line.split(":", 1)[1].split())
        elif line.startswith("auth "):
            head, _, tail = line.partition(":")
            parts = head.split()
            if len(parts) != 2:
                raise ParseError(f"bad auth line: {line!r}")
            auth[parts[1]] = frozenset(tail.split())
        elif line.startswith("constraint "):
            constraints.append(parse_constraint_line(line.split()[1:]))
        else:
            raise ParseError(f"unrecognized line: {line!r}")
    if tasks is None or users is None:
        raise ParseError("document must declare tasks: and users:")
    unknown = set(auth) - set(tasks)
    if unknown:
        raise ParseError(f"auth lines for unknown tasks: {sorted(unknown)}")
    return WorkflowSchema(tasks, users, auth, tuple(constraints))


def _fmt_set(schema: WorkflowSchema, tasks: Iterable[str]) -> str:
    return "{%s}" % ",".join(schema.sort_tasks(tasks))


def format_constraint(schema: WorkflowSchema, c: ConstraintInstance) -> str:
    if c.kind in ("eq", "neq"):
        return f"{c.kind} {c.scope[0]} {c.scope[1]}"
    if c.kind in ("bind", "sep"):
        left, right = c.scope_sets
        return f"{c.kind} {_fmt_set(schema, left)} {_fmt_set(schema, right)}"
    if c.kind in ("atmost", "atleast"):
        return f"{c.kind} {c.params[0]} {_fmt_set(schema, c.scope)}"
    return f"peruser {c.params[0]} {c.params[1]} {_fmt_set(schema, c.scope)}"


def serialize_instance(schema: WorkflowSchema, header: Sequence[str] = ()) -> str:
    lines = [f"# {h}" for h in header]
    lines.append("tasks: " + " ".join(schema.tasks))
    lines.append("users: " + " ".join(schema.users))
    for t in schema.tasks:
        lines.append(f"auth {t}: " + " ".join(schema.sort_users(schema.auth[t])))
    for c in schema.constraints:
        lines.append("constraint " + format_constraint(schema, c))
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
    items = sorted(plan.items(), key=lambda kv: (order.get(kv[0], len(order)), kv[0]))
    return "".join(f"{t} {u}\n" for t, u in items)


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
        blocks = []
        for token in line.split("|"):
            try:
                blocks.append(frozenset(int(x) for x in _parse_set(token.strip())))
            except ValueError as exc:
                raise ParseError(f"bad position in partition line: {line!r}") from exc
        eligible.append(_canon(blocks))
    try:
        return RelationSpec(arity, frozenset(eligible))
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def serialize_relation_spec(spec: RelationSpec) -> str:
    lines = [f"arity {spec.arity}"]
    rendered = []
    for part in spec.eligible_partitions:
        blocks = sorted(sorted(b) for b in part)
        rendered.append("|".join("{%s}" % ",".join(map(str, b)) for b in blocks))
    lines.extend(sorted(rendered))
    return "\n".join(lines) + "\n"


def parse_mchs(text: str) -> MchsInstance:
    vertices: tuple[str, ...] | None = None
    coloring: dict[str, int] = {}
    sets: list[frozenset[str]] = []
    for line in _content_lines(text):
        if line.startswith("vertices:"):
            vertices = tuple(line.split(":", 1)[1].split())
        elif line.startswith("color "):
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(f"bad color line: {line!r}")
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
    try:
        return MchsInstance(vertices, tuple(sets), num_colors, coloring)
    except DomainError as exc:
        raise ParseError(str(exc)) from exc


def serialize_mchs(inst: MchsInstance) -> str:
    lines = ["vertices: " + " ".join(inst.vertices)]
    for v in inst.vertices:
        lines.append(f"color {v} {inst.coloring[v]}")
    order = {v: i for i, v in enumerate(inst.vertices)}
    for e in inst.sets:
        lines.append("set: " + " ".join(sorted(e, key=order.__getitem__)))
    return "\n".join(lines) + "\n"


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


def serialize_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for cl in formula.clauses:
        lines.append(" ".join(map(str, cl)) + " 0")
    return "\n".join(lines) + "\n"


def serialize_kernel_log(result: KernelResult) -> str:
    lines = ["MERGES"]
    for rec in result.merge_log:
        lines.append(
            f"{rec.absorbed} -> {rec.surviving} : "
            + " ".join(result.schema.sort_users(rec.intersected_auth))
        )
    lines.append("MARKED")
    lines.append(" ".join(result.marked))
    lines.append("HARD")
    lines.append(" ".join(result.hard))
    lines.append("REPS")
    for t in result.schema.tasks:
        if t in result.representatives:
            lines.append(f"{t} {result.representatives[t]}")
    return "\n".join(lines) + "\n"
