"""Workflow satisfiability toolkit.

Instance model, a catalog of user-independent constraints, classification
of relations given by their eligible partitions (regularity,
intersection-closure), a partial kernel reducing the user set to at most
the number of tasks, partition-search and brute-force solvers, and the
SAT and multi-colored hitting set reductions as pure constructions.
"""

from wspkit.core import (
    ConstraintInstance,
    WorkflowSchema,
    is_valid_plan,
    satisfies,
    validate_schema,
)

__all__ = [
    "ConstraintInstance",
    "WorkflowSchema",
    "is_valid_plan",
    "satisfies",
    "validate_schema",
]
