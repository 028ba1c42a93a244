"""Instance generators: hardness-reduction constructions and random schemas.

The SAT and multi-colored hitting set constructions mirror the two
polynomial parametric transformations exactly, including the parameter
counts (2n+1 tasks with two users; (l-1)m+l tasks with (l-1)m
constraints, for every l and m). They build instances and solve nothing;
the tests hold the brute-force oracles for the source problems.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from wspkit.classify import matches_ternary_condition, spec_from_constraint
from wspkit.core import (
    BIND,
    CATALOG,
    COUNT,
    PAIR,
    SETS,
    ConstraintInstance,
    WorkflowSchema,
    at_least,
    at_most,
    binding,
    describe,
)
from wspkit.errors import DomainError


@dataclass(frozen=True)
class CnfFormula:
    """A CNF formula: clauses of signed 1-based variable indices."""

    num_vars: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", tuple(tuple(cl) for cl in self.clauses))
        if self.num_vars < 1:
            raise DomainError("formula must have at least one variable")
        for cl in self.clauses:
            if not cl:
                raise DomainError("empty clause")
            for lit in cl:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise DomainError(f"literal {lit} out of range")


@dataclass(frozen=True)
class MchsInstance:
    """Multi-colored hitting set: pick one vertex per color hitting every set.

    Well-formed once built: the vertices are distinct, the coloring names
    only vertices and gives each one a color in 1..num_colors (grouping the
    color classes), no class is empty, and the sets hold only vertices."""

    vertices: tuple[str, ...]
    sets: tuple[frozenset[str], ...]
    num_colors: int
    coloring: Mapping[str, int]
    _classes: dict[int, list[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(
            self, "sets", tuple(frozenset(e) for e in self.sets)
        )
        object.__setattr__(self, "coloring", dict(self.coloring))
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            twice = [v for v, n in Counter(self.vertices).items() if n > 1]
            raise DomainError(f"vertex listed twice: {sorted(twice)}")
        if not vs.issuperset(self.coloring):
            raise DomainError(f"colors for unknown vertices: {sorted(set(self.coloring) - vs)}")
        for e in self.sets:
            if not e <= vs:
                raise DomainError(f"set member outside the vertex set: {sorted(e - vs)}")
        object.__setattr__(self, "_classes", {})
        for v in self.vertices:
            c = self.coloring.get(v)
            if c is None or not 1 <= c <= self.num_colors:
                raise DomainError(f"vertex {v} has no color in [1..{self.num_colors}]")
            self._classes.setdefault(c, []).append(v)
        empty = next(j for j in range(1, len(self._classes) + 2) if j not in self._classes)
        if empty <= self.num_colors:
            raise DomainError(f"color class {empty} is empty")
        if self.num_colors < 1:
            raise DomainError("an instance needs at least one color")

    def color_class(self, j: int) -> tuple[str, ...]:
        return tuple(self._classes.get(j, ()))


def _sat_var_tasks(i: int) -> tuple[str, str]:
    return f"x{i}", f"nx{i}"


SAT_TRUE_USER = "t"
SAT_FALSE_USER = "f"
SAT_ANCHOR_TASK = "d"


def sat_to_wsp(formula: CnfFormula) -> WorkflowSchema:
    """CNF satisfiability as a workflow instance over two users.

    Per variable, a positive and a negated task constrained to use both
    users; per clause, a lower-bound constraint over its literal tasks plus
    an anchor task only the 'false' user may perform. The instance has
    exactly 2n+1 tasks and 2 users.
    """
    n = formula.num_vars
    tasks: list[str] = []
    for i in range(1, n + 1):
        tasks.extend(_sat_var_tasks(i))
    tasks.append(SAT_ANCHOR_TASK)
    users = (SAT_TRUE_USER, SAT_FALSE_USER)
    auth = {t: frozenset(users) for t in tasks}
    auth[SAT_ANCHOR_TASK] = frozenset({SAT_FALSE_USER})
    constraints: list[ConstraintInstance] = []
    for i in range(1, n + 1):
        constraints.append(at_least(2, _sat_var_tasks(i)))
    for clause in formula.clauses:
        scope: list[str] = []
        for lit in clause:
            pos, neg = _sat_var_tasks(abs(lit))
            name = pos if lit > 0 else neg
            if name not in scope:
                scope.append(name)
        scope.append(SAT_ANCHOR_TASK)
        constraints.append(at_least(2, tuple(scope)))
    return WorkflowSchema(tuple(tasks), users, auth, tuple(constraints))


# Builders of the arity-3 catalog applications usable by the hitting-set
# construction: each maps three task names (a, b, c) to a constraint that
# is eligible for the partitions {{a,b},{c}} and {{a,c},{b}} but not for
# all-singletons.
GADGETS: dict[str, Callable[[str, str, str], ConstraintInstance]] = {
    "bind-singleton": lambda a, b, c: binding((a,), (b, c)),
    "atmost2": lambda a, b, c: at_most(2, (a, b, c)),
}


def mchs_to_wsp(
    inst: MchsInstance, gadget: Callable[[str, str, str], ConstraintInstance]
) -> WorkflowSchema:
    """Multi-colored hitting set as a workflow instance.

    Users are the vertices; one chooser task per color (authorized for its
    color class) and a chain of l-1 tasks per set, the last authorized for
    the set's members, linked by gadget constraints: (l-1)m+l tasks and
    (l-1)m constraints for every l and m. With one color there is no second
    chooser for a gadget to link, so the one chooser task s1 is authorized
    for the vertices of color 1 that lie in every set. Raises DomainError
    if the gadget does not meet the ternary eligibility condition.
    """
    sample = gadget("a", "b", "c")
    if sample.arity != 3 or not matches_ternary_condition(spec_from_constraint(sample)):
        raise DomainError(
            f"gadget {describe(sample)!r} does not meet the ternary eligibility condition"
        )
    m = len(inst.sets)
    ell = inst.num_colors
    users = inst.vertices
    all_users = frozenset(users)
    tasks: list[str] = [f"s{j}" for j in range(1, ell + 1)]
    auth: dict[str, frozenset[str]] = {
        f"s{j}": frozenset(inst.color_class(j)) for j in range(1, ell + 1)
    }
    if ell == 1:
        auth["s1"] = auth["s1"].intersection(*inst.sets)
        return WorkflowSchema(("s1",), users, auth)
    constraints: list[ConstraintInstance] = []
    for i in range(1, m + 1):
        for j in range(2, ell + 1):
            name = f"e{i}_{j}"
            tasks.append(name)
            auth[name] = frozenset(inst.sets[i - 1]) if j == ell else all_users
        constraints.append(gadget(f"e{i}_2", "s1", "s2"))
        for j in range(3, ell + 1):
            constraints.append(gadget(f"e{i}_{j}", f"e{i}_{j - 1}", f"s{j}"))
    return WorkflowSchema(tuple(tasks), users, auth, tuple(constraints))


# kind mix entries: a kind name, or (kind, params) to pin parameters
KindMix = Sequence[str | tuple[str, tuple[int, ...] | None]]


def gen_random_instance(
    num_tasks: int,
    num_users: int,
    num_constraints: int,
    kinds: KindMix,
    seed: int,
    density: float = 0.5,
) -> WorkflowSchema:
    """Deterministic pseudo-random schema; same arguments, same instance."""
    if num_tasks < 1 or num_users < 1 or num_constraints < 0:
        raise DomainError("instance dimensions must be positive")
    if not kinds:
        raise DomainError("kind mix must be nonempty")
    if not 0 <= density <= 1:
        raise DomainError(f"authorization density must lie in [0, 1], got {density}")
    rng = random.Random(seed)
    tasks = tuple(f"t{i}" for i in range(1, num_tasks + 1))
    users = tuple(f"u{i}" for i in range(1, num_users + 1))
    auth = {
        t: frozenset(u for u in users if rng.random() < density) for t in tasks
    }
    normalized = [(e, None) if isinstance(e, str) else (e[0], e[1]) for e in kinds]
    constraints = [
        _random_constraint(rng, tasks, *rng.choice(normalized))
        for _ in range(num_constraints)
    ]
    return WorkflowSchema(tasks, users, auth, tuple(constraints))


def _random_constraint(
    rng: random.Random,
    tasks: tuple[str, ...],
    kind: str,
    params: tuple[int, ...] | None,
) -> ConstraintInstance:
    entry = CATALOG.get(kind)
    if entry is None:
        raise DomainError(f"unknown kind in mix: {kind!r}")
    shape, bounds = entry
    k = len(tasks)
    if shape != COUNT and k < 2:
        raise DomainError(f"{kind} needs at least two tasks")
    if shape == PAIR:
        return ConstraintInstance(kind, scope=tuple(rng.sample(tasks, 2)))
    if shape == SETS:
        chosen = rng.sample(tasks, rng.randint(2, min(k, 4)))
        # a singleton side keeps bind regular
        split = 1 if kind == BIND else rng.randint(1, len(chosen) - 1)
        return ConstraintInstance(kind, scope_sets=(chosen[:split], chosen[split:]))
    # one bound is drawn after the scope; two bounds are drawn first, and the
    # scope holds at least as many tasks as the lower bound
    if bounds == 1:
        size = rng.randint(2, min(k, 5)) if k >= 2 else 1
        scope = tuple(rng.sample(tasks, size))
        return ConstraintInstance(kind, tuple(params or (rng.randint(1, size),)), scope)
    if not params:
        t_low = rng.randint(1, min(2, k))
        params = (t_low, rng.randint(t_low, t_low + 2))
    if params[0] > k:
        raise DomainError(f"{kind} lower bound exceeds the task count")
    low = max(2, params[0])
    size = rng.randint(low, min(k, low + 3)) if k >= 2 else 1
    return ConstraintInstance(kind, tuple(params), tuple(rng.sample(tasks, size)))
