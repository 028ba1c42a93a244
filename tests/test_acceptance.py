"""Acceptance gate: eight end-to-end criteria with explicit budgets.

Each test prints one PASS/FAIL line. Randomized suites use fixed seed
ranges so runs are reproducible; time budgets are asserted, not merely
aspirational.
"""

import random
import time
from itertools import combinations

import pytest

from wspkit import formats
from wspkit.classify import (
    is_intersection_closed,
    is_regular,
    spec_from_constraint,
)
from wspkit.cli import main as cli_main
from wspkit.constraints import (
    classification,
    eligible_set,
    required_additions,
)
from wspkit.core import (
    WorkflowSchema,
    at_least,
    at_most,
    binding,
    disequality,
    equality,
    is_valid_plan,
    per_user,
    separation,
)
from wspkit.errors import DeadEndError
from wspkit.kernel import REDUCED, kernelize, lift_plan
from wspkit.reductions import (
    GADGETS,
    CnfFormula,
    MchsInstance,
    gen_random_instance,
    mchs_to_wsp,
    sat_to_wsp,
)
from wspkit.solver import project, solve_bruteforce, solve_fpt

from oracles import solve_mchs_bruteforce, solve_sat_bruteforce
from test_constraints import enumerate_eligible_sets

NAMES = ("a", "b", "c", "d", "e", "f")


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_instance(rng: random.Random, max_tasks, max_users, kinds,
                    max_constraints=6):
    return gen_random_instance(
        num_tasks=rng.randint(2, max_tasks),
        num_users=rng.randint(1, max_users),
        num_constraints=rng.randint(0, max_constraints),
        kinds=kinds,
        seed=rng.randint(0, 10**9),
        density=rng.uniform(0.3, 0.9),
    )


CLOSED_KINDS = ["eq", "neq", "sep", ("peruser", (1, 1)), ("peruser", (1, 2)),
                ("peruser", (1, 3))]
ALL_KINDS = ["eq", "neq", "bind", "sep", "atmost", "atleast", "peruser"]


def test_criterion_1_running_example(wstar):
    start = time.monotonic()
    outcome = solve_fpt(wstar)
    want = {"s1": "u1", "s2": "u1", "s3": "u6"}
    exact = outcome.satisfiable and dict(outcome.plan.items()) == want
    plans = project(wstar, {"s2", "s3"})
    projected = ([dict(p.items()) for p in plans]
                 == [{"s2": "u1", "s3": "u6"}])
    elapsed = time.monotonic() - start
    report(
        "criterion-1 running example",
        exact and projected and elapsed < 1.0,
        f"plan match={exact}, projection match={projected}, {elapsed:.3f}s < 1s",
    )


def test_criterion_2_kernel_bounds():
    start = time.monotonic()
    rng = random.Random(2)
    violations = 0
    for _ in range(1000):
        schema = random_instance(rng, max_tasks=8, max_users=40,
                                 kinds=CLOSED_KINDS)
        result = kernelize(schema)
        k, m = len(schema.tasks), len(schema.constraints)
        k2 = len(result.schema.tasks)
        n2 = len(result.schema.users)
        m2 = len(result.schema.constraints)
        if not (k2 <= k and n2 <= k2 and m2 <= m):
            violations += 1
    elapsed = time.monotonic() - start
    report(
        "criterion-2 kernel bounds",
        violations == 0 and elapsed < 60,
        f"{violations} bound violations in 1000 instances, {elapsed:.1f}s < 60s",
    )


def test_criterion_3_kernel_correctness(tmp_path):
    start = time.monotonic()
    rng = random.Random(3)
    disagreements = 0
    for i in range(500):
        schema = random_instance(rng, max_tasks=6, max_users=10,
                                 kinds=CLOSED_KINDS)
        result = kernelize(schema)
        orig = solve_bruteforce(schema).satisfiable
        if result.verdict != REDUCED:
            if orig:
                disagreements += 1
            continue
        reduced = solve_bruteforce(result.schema)
        if reduced.satisfiable != orig:
            disagreements += 1
            continue
        if reduced.satisfiable:
            lifted = lift_plan(result, reduced.plan)
            inst = tmp_path / f"inst{i}.wsp"
            plan = tmp_path / f"plan{i}.txt"
            inst.write_text(formats.serialize_instance(schema))
            plan.write_text(formats.serialize_plan(lifted, schema.tasks))
            if cli_main(["verify", str(inst), str(plan)]) != 0:
                disagreements += 1
    elapsed = time.monotonic() - start
    report(
        "criterion-3 kernel correctness",
        disagreements == 0 and elapsed < 300,
        f"{disagreements} disagreements in 500 instances, {elapsed:.1f}s < 300s",
    )


def test_criterion_4_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(4)
    disagreements = 0
    for _ in range(500):
        schema = random_instance(rng, max_tasks=6, max_users=8,
                                 kinds=ALL_KINDS)
        if solve_fpt(schema).satisfiable != solve_bruteforce(schema).satisfiable:
            disagreements += 1
    elapsed = time.monotonic() - start
    report(
        "criterion-4 solver equivalence",
        disagreements == 0 and elapsed < 300,
        f"{disagreements} disagreements in 500 instances, {elapsed:.1f}s < 300s",
    )


def test_criterion_5_sat_reduction():
    start = time.monotonic()
    rng = random.Random(5)
    disagreements = 0
    shape_errors = 0
    for _ in range(200):
        n = rng.randint(1, 8)
        clauses = tuple(
            tuple(rng.choice((-1, 1)) * rng.randint(1, n) for _ in range(3))
            for _ in range(rng.randint(1, 12))
        )
        f = CnfFormula(n, clauses)
        schema = sat_to_wsp(f)
        if len(schema.tasks) != 2 * n + 1 or len(schema.users) != 2:
            shape_errors += 1
        got = solve_bruteforce(schema, plan_cap=10**7).satisfiable
        if got != solve_sat_bruteforce(f):
            disagreements += 1
    elapsed = time.monotonic() - start
    report(
        "criterion-5 sat reduction",
        disagreements == 0 and shape_errors == 0 and elapsed < 120,
        f"{disagreements} disagreements, {shape_errors} shape errors "
        f"in 200 formulas, {elapsed:.1f}s < 120s",
    )


def test_criterion_6_mchs_reduction():
    start = time.monotonic()
    rng = random.Random(6)
    disagreements = 0
    count_errors = 0
    for _ in range(100):
        ell = rng.randint(2, 3)
        nv = rng.randint(ell, 9)
        verts = tuple(f"v{i}" for i in range(1, nv + 1))
        coloring = {v: j + 1 for j, v in enumerate(verts[:ell])}
        for v in verts[ell:]:
            coloring[v] = rng.randint(1, ell)
        m = rng.randint(2, 5)
        sets = tuple(
            frozenset(rng.sample(verts, rng.randint(1, nv))) for _ in range(m)
        )
        inst = MchsInstance(verts, sets, ell, coloring)
        want = solve_mchs_bruteforce(inst)
        for gadget in GADGETS.values():
            schema = mchs_to_wsp(inst, gadget)
            if (len(schema.tasks) != (ell - 1) * m + ell
                    or len(schema.constraints) != (ell - 1) * m):
                count_errors += 1
            got = solve_bruteforce(schema, plan_cap=10**7).satisfiable
            if got != want:
                disagreements += 1
    elapsed = time.monotonic() - start
    report(
        "criterion-6 mchs reduction",
        disagreements == 0 and count_errors == 0 and elapsed < 300,
        f"{disagreements} disagreements, {count_errors} count errors "
        f"in 100 instances x 2 gadgets, {elapsed:.1f}s < 300s",
    )


def test_criterion_7_classification_table():
    # each row gives a constructor and the expected (regular, closed)
    # verdicts; closed is None where regularity already fails. Rows whose
    # premise needs two non-singleton sides or a slack counting bound are
    # only instantiable from arity 4 up.
    def rows(r):
        scope = NAMES[:r]
        half = r // 2
        out = [
            (f"sep-{r}", separation(scope[:half], scope[half:]), True, True),
            (f"atleast2-{r}", at_least(2, scope), True, True),
            (f"peruser-1-{r}", per_user(1, 2, scope), True, True),
            (f"bind-singleton-{r}", binding(scope[:1], scope[1:]), True, False),
        ]
        if r >= 4:
            out.append(
                (f"bind-two-sided-{r}", binding(scope[:2], scope[2:]),
                 False, None)
            )
            out.append((f"atleast3-{r}", at_least(3, scope), False, None))
            out.append((f"peruser-2-{r}", per_user(2, 3, scope), True, False))
            out.append((f"atmost-{r}", at_most(2, scope), False, None))
        return out

    start = time.monotonic()
    mismatches = []
    for r in range(3, 7):
        for name, c, want_regular, want_closed in rows(r):
            spec = spec_from_constraint(c)
            reg = is_regular(spec).regular
            closed = (is_intersection_closed(spec).intersection_closed
                      if reg else None)
            if (reg, closed) != (want_regular, want_closed):
                mismatches.append((name, reg, closed))
    elapsed = time.monotonic() - start
    report(
        "criterion-7 classification table",
        not mismatches and elapsed < 60,
        f"{len(mismatches)} mismatches {mismatches}, {elapsed:.1f}s < 60s",
    )


def test_criterion_8_well_behavedness():
    start = time.monotonic()
    instances = []
    for r in range(2, 7):
        scope = NAMES[:r]
        instances.append(equality(scope[0], scope[1]))
        instances.append(disequality(scope[0], scope[1]))
        for split in range(1, r):
            instances.append(binding(scope[:split], scope[split:]))
            instances.append(separation(scope[:split], scope[split:]))
        for t in range(1, r + 2):
            instances.append(at_most(t, scope))
            instances.append(at_least(t, scope))
        for t_low in range(1, r + 1):
            for t_high in range(t_low, r + 2):
                instances.append(per_user(t_low, t_high, scope))
    violations = 0
    for c in instances:
        truth = enumerate_eligible_sets(c)
        scope = c.scope_set
        closed = classification(c) == (True, True)
        for size in range(len(scope) + 1):
            for combo in combinations(scope, size):
                block = frozenset(combo)
                if eligible_set(c, combo) != (block in truth):
                    violations += 1
                if not closed or block in truth or size == len(scope):
                    continue
                supersets = [s for s in truth if block < s]
                try:
                    added = required_additions(c, block)
                except DeadEndError:
                    if supersets:
                        violations += 1
                    continue
                if not all(added <= s for s in supersets):
                    violations += 1
    elapsed = time.monotonic() - start
    report(
        "criterion-8 well-behavedness",
        violations == 0 and elapsed < 120,
        f"{violations} violations over {len(instances)} instances, "
        f"{elapsed:.1f}s < 120s",
    )
