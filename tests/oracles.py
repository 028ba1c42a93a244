"""Brute-force oracles for the source problems of the hardness reductions.

They decide CNF satisfiability and multi-colored hitting set by plain
enumeration, independently of wspkit's solvers, so the tests can check
``sat_to_wsp`` and ``mchs_to_wsp`` end to end.
"""

from itertools import product

from wspkit.errors import ResourceLimitError
from wspkit.reductions import CnfFormula, MchsInstance


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
