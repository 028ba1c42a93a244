"""Workflow satisfiability toolkit.

Instance model, a catalog of user-independent constraints, classification
of explicit relations (regularity, intersection-closure), a partial kernel
reducing the user set to at most the number of tasks, partition-enumeration
and brute-force solvers, and generators for the SAT and multi-colored
hitting set reductions.
"""

from wspkit.core import (
    ConstraintInstance,
    Plan,
    WorkflowSchema,
    is_valid_plan,
    satisfies,
    validate_schema,
)

__all__ = [
    "ConstraintInstance",
    "Plan",
    "WorkflowSchema",
    "is_valid_plan",
    "satisfies",
    "validate_schema",
]
