"""Reference semantics for checking wspkit's answers, independent of wspkit.

Nothing here imports wspkit. Instances are read back from the same text
that wspkit is given, and plans are checked against the constraint catalog
as the README states it:

    eq s t              s and t get the same user
    neq s t             s and t get different users
    bind {A} {B}        some pair across the two sets shares a user
    sep {A} {B}         some pair across the two sets differs
    atmost t {S}        at most t distinct users on S
    atleast t {S}       at least t distinct users on S
    peruser l h {S}     every involved user does between l and h scope
                        tasks, a repeated task counting once per repetition

A constraint is a tuple ``(kind, params, sets)``: ``sets`` holds the two
single-task sides of eq/neq, the two sides of bind/sep, or the one scope of
the counting kinds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product


@dataclass(frozen=True)
class RefInstance:
    tasks: tuple[str, ...]
    users: tuple[str, ...]
    auth: dict[str, frozenset[str]]
    constraints: tuple[tuple, ...]


def _task_set(token: str) -> tuple[str, ...]:
    if not (token.startswith("{") and token.endswith("}")):
        raise ValueError(f"expected a task set, got {token!r}")
    return tuple(x.strip() for x in token[1:-1].split(","))


def parse_constraint(args: list[str]) -> tuple:
    kind, rest = args[0], args[1:]
    if kind in ("eq", "neq"):
        a, b = rest
        return (kind, (), ((a,), (b,)))
    if kind in ("bind", "sep"):
        left, right = rest
        return (kind, (), (_task_set(left), _task_set(right)))
    if kind in ("atmost", "atleast"):
        t, scope = rest
        return (kind, (int(t),), (_task_set(scope),))
    if kind == "peruser":
        low, high, scope = rest
        return (kind, (int(low), int(high)), (_task_set(scope),))
    raise ValueError(f"unknown constraint kind {kind!r}")


def parse_instance(text: str) -> RefInstance:
    tasks: tuple[str, ...] = ()
    users: tuple[str, ...] = ()
    auth: dict[str, frozenset[str]] = {}
    constraints = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("tasks:"):
            tasks = tuple(line[len("tasks:"):].split())
        elif line.startswith("users:"):
            users = tuple(line[len("users:"):].split())
        elif line.startswith("auth "):
            head, _, tail = line.partition(":")
            auth[head.split()[1]] = frozenset(tail.split())
        elif line.startswith("constraint "):
            constraints.append(parse_constraint(line.split()[1:]))
        else:
            raise ValueError(f"unrecognized line {line!r}")
    return RefInstance(
        tasks, users, {t: auth.get(t, frozenset()) for t in tasks}, tuple(constraints)
    )


def holds(c: tuple, plan: dict[str, str]) -> bool:
    """Whether a complete plan satisfies one constraint."""
    kind, params, sets = c
    if kind == "eq":
        return plan[sets[0][0]] == plan[sets[1][0]]
    if kind == "neq":
        return plan[sets[0][0]] != plan[sets[1][0]]
    if kind == "bind":
        return any(plan[a] == plan[b] for a in sets[0] for b in sets[1])
    if kind == "sep":
        return any(plan[a] != plan[b] for a in sets[0] for b in sets[1])
    assigned = [plan[t] for t in sets[0]]
    if kind == "atmost":
        return len(set(assigned)) <= params[0]
    if kind == "atleast":
        return len(set(assigned)) >= params[0]
    if kind == "peruser":
        low, high = params
        return all(low <= n <= high for n in Counter(assigned).values())
    raise ValueError(f"unknown constraint kind {kind!r}")


def plan_violations(inst: RefInstance, plan: dict[str, str]) -> list[str]:
    """Reasons the plan is not valid for the instance; empty when it is."""
    problems = [f"task {t} is unassigned" for t in inst.tasks if t not in plan]
    for t, u in plan.items():
        if t not in inst.auth:
            problems.append(f"unknown task {t} is assigned")
        elif u not in inst.auth[t]:
            problems.append(f"user {u} is not authorized for task {t}")
    if problems:
        return problems
    return [f"constraint {c} is violated" for c in inst.constraints if not holds(c, plan)]


def cnf_satisfiable(num_vars: int, clauses: list[tuple[int, ...]]) -> bool:
    """Try all 2^n assignments; bit i-1 of the mask is variable i."""
    for mask in range(1 << num_vars):
        if all(
            any(((mask >> (abs(lit) - 1)) & 1) == (lit > 0) for lit in clause)
            for clause in clauses
        ):
            return True
    return False


def mchs_satisfiable(
    classes: list[tuple[str, ...]], sets: list[frozenset[str]]
) -> bool:
    """Try every choice of one vertex per color class."""
    for choice in product(*classes):
        chosen = set(choice)
        if all(chosen & s for s in sets):
            return True
    return False
