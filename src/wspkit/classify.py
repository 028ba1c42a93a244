"""Classification of explicitly given small-arity relations.

A relation is given either as a RelationSpec (its eligible partitions of
{1,..,r}) or as a TupleTable (explicit tuples over a finite universe).
The predicates decide user-independence, regularity, intersection-closure,
and the ternary gadget condition used by the hitting-set reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from wspkit.core import ConstraintInstance
from wspkit.constraints import eligible_partition
from wspkit.errors import ClassificationError, DomainError, ResourceLimitError
from wspkit.partitions import growth_strings, set_partitions

Partition = frozenset[frozenset[int]]

DEFAULT_ARITY_CAP = 8


def _canon(blocks) -> Partition:
    return frozenset(frozenset(b) for b in blocks)


def _sort_key(part: Partition):
    return sorted(sorted(b) for b in part)


def all_partitions(r: int):
    for blocks in set_partitions(range(1, r + 1)):
        yield _canon(blocks)


@dataclass(frozen=True)
class RelationSpec:
    """An arity-r user-independent relation as its eligible partitions."""

    arity: int
    eligible_partitions: frozenset[Partition]

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "eligible_partitions",
            frozenset(_canon(p) for p in self.eligible_partitions),
        )
        ground = frozenset(range(1, self.arity + 1))
        for p in self.eligible_partitions:
            total = sum(len(b) for b in p)
            if total != self.arity or frozenset().union(*p) != ground:
                raise DomainError(f"not a partition of [1..{self.arity}]: {sorted(map(sorted, p))}")
        if not self.eligible_partitions:
            raise DomainError("relation must be satisfiable (some eligible partition)")

    def is_eligible(self, blocks) -> bool:
        return _canon(blocks) in self.eligible_partitions


@dataclass(frozen=True)
class TupleTable:
    """An explicit r-ary relation over universe {1,..,u}."""

    arity: int
    universe: int
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tuples", frozenset(tuple(t) for t in self.tuples))
        for t in self.tuples:
            if len(t) != self.arity or not all(1 <= x <= self.universe for x in t):
                raise DomainError(f"tuple out of bounds: {t}")


@dataclass(frozen=True)
class UserIndependenceResult:
    user_independent: bool
    spec: Optional[RelationSpec] = None
    witness: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None


def _pattern(t: tuple[int, ...]) -> Partition:
    groups: dict[int, set[int]] = {}
    for i, x in enumerate(t, start=1):
        groups.setdefault(x, set()).add(i)
    return _canon(groups.values())


def _canonical_tuple(part: Partition, r: int) -> tuple[int, ...]:
    """Lexicographically least tuple realizing a given equality pattern."""
    out = [0] * r
    nxt = 1
    for b in sorted(part, key=min):
        for i in b:
            out[i - 1] = nxt
        nxt += 1
    return tuple(out)


def is_user_independent(table: TupleTable) -> UserIndependenceResult:
    """Decide whether tuple membership depends only on the equality pattern.

    Requires universe >= 2 * arity so that every pattern is realizable and
    permutation closure is decidable from the table. The returned witness
    is a (member, non-member) pair with the same pattern.
    """
    r, u = table.arity, table.universe
    if u < 2 * r:
        raise DomainError(f"universe {u} too small; need at least {2 * r}")
    by_pattern: dict[Partition, list[tuple[int, ...]]] = {}
    for t in sorted(table.tuples):
        by_pattern.setdefault(_pattern(t), []).append(t)
    eligible: set[Partition] = set()
    for part in all_partitions(r):
        present = by_pattern.get(part, [])
        p = len(part)
        total = 1
        for i in range(p):  # falling factorial u * (u-1) * ...
            total *= u - i
        if not present:
            continue
        if len(present) == total:
            eligible.add(part)
            continue
        # some realization is absent: find the least one
        realized = set(present)
        missing = None
        if _canonical_tuple(part, r) not in realized:
            missing = _canonical_tuple(part, r)
        else:
            from itertools import permutations, combinations

            blocks = sorted(part, key=min)
            for users in permutations(range(1, u + 1), p):
                cand = [0] * r
                for b, usr in zip(blocks, users):
                    for i in b:
                        cand[i - 1] = usr
                if tuple(cand) not in realized:
                    missing = tuple(cand)
                    break
        return UserIndependenceResult(False, witness=(present[0], missing))
    if not eligible:
        raise DomainError("relation must be satisfiable (nonempty table)")
    return UserIndependenceResult(True, spec=RelationSpec(r, frozenset(eligible)))


def eligible_sets(spec: RelationSpec) -> frozenset[frozenset[int]]:
    """Blocks of eligible partitions, plus the empty set by convention."""
    out: set[frozenset[int]] = {frozenset()}
    for p in spec.eligible_partitions:
        out.update(p)
    return frozenset(out)


@dataclass(frozen=True)
class RegularityResult:
    regular: bool
    counterexample: Optional[Partition] = None


def is_regular(spec: RelationSpec) -> RegularityResult:
    """A relation is regular iff each partition with all blocks eligible is eligible."""
    family = eligible_sets(spec)
    best: Optional[Partition] = None
    for part in all_partitions(spec.arity):
        if part in spec.eligible_partitions:
            continue
        if all(b in family for b in part):
            if best is None or _sort_key(part) < _sort_key(best):
                best = part
    if best is not None:
        return RegularityResult(False, counterexample=best)
    return RegularityResult(True)


@dataclass(frozen=True)
class IntersectionClosureResult:
    intersection_closed: bool
    witness: Optional[tuple[frozenset[int], frozenset[int]]] = None


def is_intersection_closed(spec: RelationSpec) -> IntersectionClosureResult:
    """Closure of the eligible-set family under pairwise intersection.

    Defined for regular relations only; raises ClassificationError otherwise.
    The witness, if any, is the lexicographically least failing pair.
    """
    if not is_regular(spec).regular:
        raise ClassificationError("intersection-closure is defined for regular relations")
    family = eligible_sets(spec)
    best = None
    for a in family:
        for b in family:
            if (a & b) not in family:
                pair = tuple(sorted((a, b), key=sorted))
                key = (sorted(pair[0]), sorted(pair[1]))
                if best is None or key < best[0]:
                    best = (key, pair)
    if best is not None:
        return IntersectionClosureResult(False, witness=best[1])
    return IntersectionClosureResult(True)


def matches_ternary_condition(spec: RelationSpec) -> bool:
    """Gadget condition: {{1,2},{3}} and {{1,3},{2}} eligible, singletons not."""
    if spec.arity != 3:
        raise DomainError("the ternary condition applies to arity-3 relations only")
    p12 = _canon([{1, 2}, {3}])
    p13 = _canon([{1, 3}, {2}])
    singles = _canon([{1}, {2}, {3}])
    return (
        p12 in spec.eligible_partitions
        and p13 in spec.eligible_partitions
        and singles not in spec.eligible_partitions
    )


def spec_from_constraint(
    c: ConstraintInstance, arity_cap: int = DEFAULT_ARITY_CAP
) -> RelationSpec:
    """RelationSpec of a catalog constraint, positions numbered by the
    declaration order of its scope set."""
    scope = c.scope_set
    if len(scope) > arity_cap:
        raise ResourceLimitError(
            f"arity {len(scope)} exceeds the enumeration cap {arity_cap}"
        )
    eligible = set()
    for code in growth_strings(len(scope)):
        if eligible_partition(c, dict(zip(scope, code))):
            eligible.add(_pattern(code))
    if not eligible:
        raise DomainError("constraint is unsatisfiable; no eligible partition")
    return RelationSpec(len(scope), frozenset(eligible))
