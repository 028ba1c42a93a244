"""Seeded instance draws for the benchmark workloads.

Every generator takes a ``random.Random`` and returns a ``Draw``: what the
seed chose, plus the reference verdict. The random choices, and the
reference loops that pick a verdict, run here without wspkit. ``build``
then has wspkit make the instance from the draw, with the ``core``
constructors or a ``reductions`` mapping, and serialize it with
``formats.serialize_instance``; that text is what the workload hands back
to wspkit. Satisfiable instances are built around a planted plan and each
constraint is drawn until the planted plan satisfies it, as judged by
``reference.holds``. Unsatisfiable ones are unsatisfiable by construction
(pigeonholes) or by the exhaustive loops in ``reference``. Instances with
a random source (CNF, hitting set) are drawn until the reference verdict is
the one the workload's cycle asks for, so each cycle has a fixed verdict
mix; the draw never looks at what wspkit does.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from random import Random
from typing import Callable

from reference import cnf_satisfiable, holds, mchs_satisfiable

# Cap on rejection draws; reaching it is a generator bug, not a property
# of the seed.
DRAWS = 100_000

KINDS = ("eq", "neq", "bind", "sep", "atmost", "atleast", "peruser")


@dataclass(frozen=True)
class Draw:
    family: str
    satisfiable: bool
    make: Callable  # wsp -> wspkit.core.WorkflowSchema
    reduction: bool = False  # made by wspkit.reductions


@dataclass(frozen=True)
class Instance:
    family: str
    text: str
    satisfiable: bool


def build(draw: Draw, wsp) -> Instance:
    """Have wspkit make the drawn instance and serialize it."""
    text = wsp.formats.serialize_instance(draw.make(wsp))
    return Instance(draw.family, text, draw.satisfiable)


def _constraint(core, kind: str, params: tuple, sets: tuple):
    if kind == "eq":
        return core.equality(sets[0][0], sets[1][0])
    if kind == "neq":
        return core.disequality(sets[0][0], sets[1][0])
    if kind == "bind":
        return core.binding(*sets)
    if kind == "sep":
        return core.separation(*sets)
    if kind == "atmost":
        return core.at_most(params[0], sets[0])
    if kind == "atleast":
        return core.at_least(params[0], sets[0])
    return core.per_user(params[0], params[1], sets[0])


def _schema(family, satisfiable, tasks, users, auth, constraints) -> Draw:
    """A draw that wspkit makes with its ``core`` constructors."""
    auth = {t: frozenset(auth[t]) for t in tasks}
    constraints = tuple(constraints)

    def make(wsp):
        core = wsp.core
        made = [_constraint(core, *c) for c in constraints]
        return core.WorkflowSchema(tuple(tasks), tuple(users), auth, tuple(made))

    return Draw(family, satisfiable, make)


def _names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i}" for i in range(1, count + 1)]


def _random_constraint(rng: Random, tasks: list[str], kind: str) -> tuple:
    if kind in ("eq", "neq"):
        a, b = rng.sample(tasks, 2)
        return (kind, (), ((a,), (b,)))
    if kind in ("bind", "sep"):
        chosen = rng.sample(tasks, rng.randint(2, min(4, len(tasks))))
        split = rng.randint(1, len(chosen) - 1)
        return (kind, (), (tuple(chosen[:split]), tuple(chosen[split:])))
    scope = tuple(rng.sample(tasks, rng.randint(2, min(5, len(tasks)))))
    if kind == "peruser":
        low = rng.randint(1, 2)
        return (kind, (low, rng.randint(low, low + 2)), (scope,))
    return (kind, (rng.randint(1, len(scope)),), (scope,))


def _planted_constraint(rng: Random, draw, plan: dict[str, str]) -> tuple:
    """Draw constraints until one holds for the planted plan."""
    for _ in range(DRAWS):
        c = draw()
        if holds(c, plan):
            return c
    raise RuntimeError("no constraint satisfied by the planted plan")


# --- search: k = 7..10 tasks, every constraint kind -------------------------


def planted_search(rng: Random, k: int) -> Draw:
    """Random instance with all seven kinds, satisfied by a planted plan.

    The plan uses at least two users and fewer users than tasks, so every
    kind, including eq and peruser with a lower bound of 2, can be met.
    """
    tasks, users = _names("t", k), _names("u", k)
    chosen = rng.sample(users, rng.randint(2, k // 2 + 1))
    planned = chosen + [rng.choice(chosen) for _ in range(k - len(chosen))]
    rng.shuffle(planned)
    plan = dict(zip(tasks, planned))
    auth = {t: {plan[t]} | {u for u in users if rng.random() < 0.5} for t in tasks}
    kinds = list(KINDS) + [rng.choice(KINDS) for _ in range(k - len(KINDS))]
    rng.shuffle(kinds)
    constraints = [
        _planted_constraint(rng, lambda: _random_constraint(rng, tasks, kind), plan)
        for kind in kinds
    ]
    return _schema("planted", True, tasks, users, auth, constraints)


def pigeonhole(rng: Random, k: int) -> Draw:
    """k tasks pairwise distinct over k-1 users: unsatisfiable."""
    tasks, users = _names("t", k), _names("u", k - 1)
    pairs = list(combinations(tasks, 2))
    rng.shuffle(pairs)
    constraints = [("neq", (), ((a,), (b,))) for a, b in pairs]
    auth = {t: set(users) for t in tasks}
    return _schema("pigeonhole", False, tasks, users, auth, constraints)


def cnf(rng: Random, num_vars: int, satisfiable: bool) -> Draw:
    """sat_to_wsp of a random 3-CNF at clause ratio 4.26 with the given verdict."""
    num_clauses = round(4.26 * num_vars)
    for _ in range(DRAWS):
        clauses = [
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3))
            for _ in range(num_clauses)
        ]
        if cnf_satisfiable(num_vars, clauses) == satisfiable:
            break
    else:
        raise RuntimeError(f"no {num_vars}-variable formula with verdict {satisfiable}")
    clauses = tuple(clauses)

    def make(wsp):
        return wsp.reductions.sat_to_wsp(wsp.reductions.CnfFormula(num_vars, clauses))

    return Draw("cnf", satisfiable, make, reduction=True)


def hitting_set(
    rng: Random, colors: int, num_sets: int, gadget: str, satisfiable: bool
) -> Draw:
    """mchs_to_wsp of a random multi-colored hitting set with the given verdict.

    Three vertices per color; every set has two or three vertices.
    """
    vertices = _names("v", 3 * colors)
    coloring = {v: i // 3 + 1 for i, v in enumerate(vertices)}
    classes = [tuple(v for v in vertices if coloring[v] == j) for j in range(1, colors + 1)]
    for _ in range(DRAWS):
        sets = [frozenset(rng.sample(vertices, rng.randint(2, 3))) for _ in range(num_sets)]
        if mchs_satisfiable(classes, sets) == satisfiable:
            break
    else:
        raise RuntimeError(f"no hitting set instance with verdict {satisfiable}")
    def make(wsp):
        inst = wsp.reductions.MchsInstance(tuple(vertices), tuple(sets), colors, coloring)
        return wsp.reductions.mchs_to_wsp(inst, wsp.reductions.GADGETS[gadget])

    return Draw("mchs-" + gadget, satisfiable, make, reduction=True)


# --- kernel-merge: equality trees collapse the tasks into a few groups ------


def _group_constraint(rng: Random, kind: str, members: list[list[str]]) -> tuple:
    """A closed-kind constraint over tasks of distinct groups."""
    picked = [rng.choice(ms) for ms in rng.sample(members, rng.randint(2, min(4, len(members))))]
    if kind == "neq":
        return ("neq", (), ((picked[0],), (picked[1],)))
    if kind == "sep":
        split = rng.randint(1, len(picked) - 1)
        return ("sep", (), (tuple(picked[:split]), tuple(picked[split:])))
    return ("peruser", (1, rng.randint(1, 3)), (tuple(picked),))


def kernel_merge(
    rng: Random, num_tasks: int, num_users: int, groups: int, satisfiable: bool
) -> Draw:
    """Tasks joined into `groups` equality trees, plus neq, sep and peruser(1,h).

    Satisfiable: every group gets a planted user, with at least
    groups // 2 + 1 distinct users among them so that the cross neq and sep
    constraints can hold, and its tasks are authorized for it and a small
    group pool. Unsatisfiable
    (group pigeonhole): the groups are pairwise neq, and the first task of
    every group is authorized only for the same groups-1 core users, so
    the merged groups cannot get distinct users.
    """
    tasks, users = _names("t", num_tasks), _names("u", num_users)
    shuffled = tasks[:]
    rng.shuffle(shuffled)
    members = [shuffled[g::groups] for g in range(groups)]
    if satisfiable:
        planted = rng.sample(users, rng.randint(groups // 2 + 1, groups))
        group_user = planted + [rng.choice(planted) for _ in range(groups - len(planted))]
        rng.shuffle(group_user)
        pools = [{group_user[g], *rng.sample(users, 2)} for g in range(groups)]
    else:
        core = set(rng.sample(users, groups - 1))
        pools = [core] * groups
    auth = {}
    for g, ms in enumerate(members):
        for t in ms:
            auth[t] = pools[g] | set(rng.sample(users, 10))
    constraints = []
    for ms in members:
        for i in range(1, len(ms)):
            constraints.append(("eq", (), ((ms[i],), (rng.choice(ms[:i]),))))
    cross = [rng.choice(("neq", "sep", "peruser")) for _ in range(num_tasks // 16)]
    if satisfiable:
        plan = {t: group_user[g] for g, ms in enumerate(members) for t in ms}
        constraints += [
            _planted_constraint(rng, lambda: _group_constraint(rng, kind, members), plan)
            for kind in cross
        ]
    else:
        for ms in members:
            auth[ms[0]] = set(core)
        constraints += [
            ("neq", (), ((rng.choice(a),), (rng.choice(b),)))
            for a, b in combinations(members, 2)
        ]
        constraints += [_group_constraint(rng, kind, members) for kind in cross]
    rng.shuffle(constraints)
    family = "planted" if satisfiable else "group-pigeonhole"
    return _schema(family, satisfiable, tasks, users, auth, constraints)


# --- kernel-mark: tight authorization clusters force Hall-violator rounds ---


def kernel_mark(rng: Random, num_tasks: int, num_users: int) -> Draw:
    """Closed kinds without equalities, satisfied by a planted plan.

    About 30% of the tasks sit in clusters of c = 3..6 tasks authorized only
    within c-1 or c cluster users; the rest draw from the remaining users.
    """
    tasks, users = _names("t", num_tasks), _names("u", num_users)
    shuffled = tasks[:]
    rng.shuffle(shuffled)
    pool = users[:]
    rng.shuffle(pool)
    plan: dict[str, str] = {}
    auth: dict[str, set[str]] = {}
    clustered = shuffled[: int(0.3 * num_tasks)]
    while clustered:
        c = rng.randint(3, 6)
        cluster, clustered = clustered[:c], clustered[c:]
        width = len(cluster) - rng.randint(0, 1) or 1
        cluster_users, pool = pool[:width], pool[width:]
        for i, t in enumerate(cluster):
            plan[t] = cluster_users[i] if i < width else rng.choice(cluster_users)
            auth[t] = {plan[t]} | {u for u in cluster_users if rng.random() < 0.5}
    for t in shuffled[int(0.3 * num_tasks):]:
        plan[t] = rng.choice(pool)
        auth[t] = {plan[t], *rng.sample(pool, 8)}
    kinds = [rng.choice(("neq", "sep", "peruser")) for _ in range(num_tasks)]

    def draw(kind):
        if kind == "peruser":
            scope = tuple(rng.sample(tasks, rng.randint(2, 5)))
            return ("peruser", (1, rng.randint(1, 3)), (scope,))
        return _random_constraint(rng, tasks, kind)

    constraints = [_planted_constraint(rng, lambda: draw(kind), plan) for kind in kinds]
    return _schema("planted", True, tasks, users, auth, constraints)
