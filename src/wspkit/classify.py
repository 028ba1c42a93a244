"""Classification of explicitly given small-arity relations.

A relation is given as a RelationSpec: its eligible partitions of
{1,..,r}, each a restricted growth string whose index i is position i + 1,
read from a spec file or derived from a catalog constraint.
`classify_relation` decides regularity and intersection-closure in one
call, with a counterexample or witness for each "no"; a relation that is
not regular has no witness. `matches_ternary_condition` decides the
gadget condition used by the hitting-set reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from wspkit.core import ConstraintInstance
from wspkit.constraints import enumerate_eligible_partitions
from wspkit.errors import DomainError, ResourceLimitError
from wspkit.partitions import blocks, growth_string, growth_strings

ARITY_CAP = 8


@dataclass(frozen=True)
class RelationSpec:
    """An arity-r user-independent relation as its eligible partitions,
    each a restricted growth string of length r."""

    arity: int
    eligible_partitions: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "eligible_partitions", frozenset(map(tuple, self.eligible_partitions))
        )
        for code in self.eligible_partitions:
            if len(code) != self.arity or growth_string(code) != code:
                raise DomainError(
                    f"not a growth string of length {self.arity}: {code}"
                )
        if not self.eligible_partitions:
            raise DomainError("relation must be satisfiable (some eligible partition)")


def eligible_sets(spec: RelationSpec) -> frozenset[frozenset[int]]:
    """Blocks of eligible partitions, plus the empty set by convention."""
    out: set[frozenset[int]] = {frozenset()}
    for code in spec.eligible_partitions:
        out.update(frozenset(i + 1 for i in b) for b in blocks(code))
    return frozenset(out)


def classify_relation(
    spec: RelationSpec,
) -> tuple[Optional[tuple[int, ...]], Optional[tuple[frozenset[int], frozenset[int]]]]:
    """The (counterexample, witness) pair that decides both dichotomy questions.

    A relation is regular iff each partition with all blocks eligible is
    eligible; the counterexample is the failing growth string whose sorted
    blocks are lexicographically least, or None if the relation is regular.
    Intersection-closure is defined for regular relations only, so a
    relation that is not regular has no witness. For a regular one, the
    witness is the lexicographically least pair of eligible sets whose
    intersection is not eligible, or None if the relation is
    intersection-closed.
    """
    family = eligible_sets(spec)
    counterexample = min(
        (code for code in growth_strings(spec.arity)
         if code not in spec.eligible_partitions
         and all(frozenset(i + 1 for i in b) in family for b in blocks(code))),
        key=blocks, default=None)
    if counterexample is not None:
        return counterexample, None
    witness = min(
        (tuple(sorted((a, b), key=sorted))
         for a in family for b in family if (a & b) not in family),
        key=lambda pair: [sorted(s) for s in pair], default=None)
    return None, witness


def matches_ternary_condition(spec: RelationSpec) -> bool:
    """Gadget condition: {{1,2},{3}} and {{1,3},{2}} eligible, singletons not."""
    if spec.arity != 3:
        raise DomainError("the ternary condition applies to arity-3 relations only")
    eligible = spec.eligible_partitions
    return (0, 0, 1) in eligible and (0, 1, 0) in eligible and (0, 1, 2) not in eligible


def check_arity(arity: int) -> None:
    """Refuse an arity past ARITY_CAP: classifying a relation enumerates all
    Bell(arity) partitions of its positions."""
    if arity > ARITY_CAP:
        raise ResourceLimitError(f"arity {arity} exceeds the enumeration cap {ARITY_CAP}")


def spec_from_constraint(c: ConstraintInstance) -> RelationSpec:
    """RelationSpec of a catalog constraint, positions numbered by the
    declaration order of its scope set."""
    check_arity(c.arity)
    eligible = enumerate_eligible_partitions(c)
    if not eligible:
        raise DomainError("constraint is unsatisfiable; no eligible partition")
    return RelationSpec(c.arity, frozenset(eligible))
