"""Brute-force oracles: every valid plan, and the source problems of the
hardness reductions.

``valid_plans`` and ``project`` enumerate the plans of a schema by plain
product, sharing no search code with wspkit's solvers. The CNF and
multi-colored hitting set oracles decide those problems by plain
enumeration, so the tests can check ``sat_to_wsp`` and ``mchs_to_wsp`` end
to end.
"""

from collections.abc import Iterable, Iterator
from itertools import product

from wspkit.core import WorkflowSchema, is_valid_plan
from wspkit.errors import DomainError, ResourceLimitError
from wspkit.reductions import CnfFormula, MchsInstance


def valid_plans(schema: WorkflowSchema) -> Iterator[dict[str, str]]:
    """Every valid plan, in lexicographic order.

    Candidates assign tasks in declaration order, each trying its
    authorized users in declaration order, and every candidate is checked.
    """
    tasks = schema.tasks
    for users in product(*(schema.sort_users(schema.auth[t]) for t in tasks)):
        plan = dict(zip(tasks, users))
        if is_valid_plan(schema, plan):
            yield plan


def project(schema: WorkflowSchema, tasks: Iterable[str]) -> tuple[dict[str, str], ...]:
    """All restrictions to the given tasks of valid plans, without duplicates.

    Rows are sorted by their users in task declaration order. Raises
    DomainError if a target task is not in the schema.
    """
    tasks = frozenset(tasks)
    unknown = tasks - set(schema.tasks)
    if unknown:
        raise DomainError(f"projection onto unknown tasks: {sorted(unknown)}")
    ordered = schema.sort_tasks(tasks)
    seen = {tuple(plan[t] for t in ordered) for plan in valid_plans(schema)}
    return tuple(dict(zip(ordered, key)) for key in sorted(seen))


def solve_sat_bruteforce(formula: CnfFormula, max_vars: int = 20) -> bool:
    """Exhaustive assignment enumeration."""
    n = formula.num_vars
    if n > max_vars:
        raise ResourceLimitError(f"{n} variables exceeds the cap {max_vars}")
    for bits in product((False, True), repeat=n):
        if all(
            any(bits[abs(lit) - 1] == (lit > 0) for lit in cl)
            for cl in formula.clauses
        ):
            return True
    return False


def solve_mchs_bruteforce(inst: MchsInstance, cap: int = 10**6) -> bool:
    """Enumerate one vertex per color class and test the hitting condition."""
    classes = [inst.color_class(j) for j in range(1, inst.num_colors + 1)]
    total = 1
    for cls in classes:
        total *= len(cls)
    if total > cap:
        raise ResourceLimitError(f"{total} candidate sets exceeds the cap {cap}")
    for combo in product(*classes):
        chosen = set(combo)
        if all(chosen & e for e in inst.sets):
            return True
    return False
