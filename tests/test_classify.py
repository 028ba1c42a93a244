"""Classification predicates on explicit relations."""

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Optional

import pytest

from wspkit.classify import (
    RelationSpec,
    eligible_sets,
    is_intersection_closed,
    is_regular,
    matches_ternary_condition,
    spec_from_constraint,
)
from wspkit.core import (
    at_least,
    at_most,
    binding,
    disequality,
    per_user,
    separation,
)
from wspkit.errors import ClassificationError, DomainError
from wspkit.partitions import growth_string, growth_strings

NAMES = ("a", "b", "c", "d", "e", "f")


# A relation given by its tuples, and the check that it is user-independent,
# which turns such a table into the RelationSpec that classification takes.

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


def is_user_independent(table: TupleTable) -> UserIndependenceResult:
    """Decide whether tuple membership depends only on the equality pattern.

    Requires universe >= 2 * arity so that every pattern is realizable and
    permutation closure is decidable from the table. The returned witness
    is a (member, non-member) pair with the same pattern.
    """
    r, u = table.arity, table.universe
    if u < 2 * r:
        raise DomainError(f"universe {u} too small; need at least {2 * r}")
    by_pattern: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for t in sorted(table.tuples):
        by_pattern.setdefault(growth_string(t), []).append(t)
    eligible: set[tuple[int, ...]] = set()
    for code in growth_strings(r):
        present = by_pattern.get(code)
        if not present:
            continue
        nblocks = max(code, default=-1) + 1
        if len(present) == math.perm(u, nblocks):
            eligible.add(code)
            continue
        # some realization is absent: return the first, trying users in order
        realized = set(present)
        for users in permutations(range(1, u + 1), nblocks):
            missing = tuple(users[x] for x in code)
            if missing not in realized:
                return UserIndependenceResult(False, witness=(present[0], missing))
    if not eligible:
        raise DomainError("relation must be satisfiable (nonempty table)")
    return UserIndependenceResult(True, spec=RelationSpec(r, frozenset(eligible)))


class TestUserIndependence:
    def test_binary_equality_table(self):
        table = TupleTable(2, 4, frozenset((x, x) for x in range(1, 5)))
        result = is_user_independent(table)
        assert result.user_independent
        assert result.spec.eligible_partitions == frozenset({(0, 0)})

    def test_single_tuple_not_independent(self):
        result = is_user_independent(TupleTable(2, 4, frozenset({(1, 2)})))
        assert not result.user_independent
        member, missing = result.witness
        assert member in {(1, 2)} and missing not in {(1, 2)}

    def test_full_table_independent(self):
        full = frozenset((x, y) for x in range(1, 5) for y in range(1, 5))
        result = is_user_independent(TupleTable(2, 4, full))
        assert result.user_independent
        assert len(result.spec.eligible_partitions) == 2

    def test_small_universe_rejected(self):
        with pytest.raises(DomainError):
            is_user_independent(TupleTable(2, 3, frozenset({(1, 1)})))


class TestEligibleSets:
    def test_disequality(self):
        spec = spec_from_constraint(disequality("a", "b"))
        assert eligible_sets(spec) == {
            frozenset(), frozenset({1}), frozenset({2}),
        }

    def test_binding_singleton_side(self):
        spec = spec_from_constraint(binding(("a",), ("b", "c")))
        # {2,3} is absent: its only partition {{1},{2,3}} joins no pair
        # across the two sides
        assert eligible_sets(spec) == {
            frozenset(), frozenset({2}), frozenset({3}),
            frozenset({1, 2}), frozenset({1, 3}), frozenset({1, 2, 3}),
        }

    def test_single_eligible_partition(self):
        spec = RelationSpec(3, frozenset({(0, 0, 0)}))
        assert eligible_sets(spec) == {frozenset(), frozenset({1, 2, 3})}


class TestRegularity:
    @pytest.mark.parametrize("t_low,t_high", [(1, 1), (1, 3), (2, 3), (2, 4), (3, 5)])
    @pytest.mark.parametrize("arity", [3, 4, 5, 6])
    def test_peruser_always_regular(self, t_low, t_high, arity):
        spec = spec_from_constraint(per_user(t_low, t_high, NAMES[:arity]))
        assert is_regular(spec).regular

    def test_two_sided_binding_not_regular(self):
        spec = spec_from_constraint(binding(("a", "b"), ("c", "d")))
        result = is_regular(spec)
        assert not result.regular
        assert result.counterexample == (0, 1, 2, 3)

    def test_atleast_three_of_four_not_regular(self):
        spec = spec_from_constraint(at_least(3, NAMES[:4]))
        assert not is_regular(spec).regular


class TestIntersectionClosure:
    def test_disequality_closed(self):
        spec = spec_from_constraint(disequality("a", "b"))
        assert is_intersection_closed(spec).intersection_closed

    def test_binding_singleton_side_not_closed(self):
        spec = spec_from_constraint(binding(("a",), ("b", "c")))
        result = is_intersection_closed(spec)
        assert not result.intersection_closed
        assert result.witness == (frozenset({1, 2}), frozenset({1, 3}))

    def test_peruser_lower_bound_split(self):
        closed = spec_from_constraint(per_user(1, 2, NAMES[:4]))
        assert is_intersection_closed(closed).intersection_closed
        open_ = spec_from_constraint(per_user(2, 2, NAMES[:4]))
        assert not is_intersection_closed(open_).intersection_closed

    def test_requires_regularity(self):
        spec = spec_from_constraint(binding(("a", "b"), ("c", "d")))
        with pytest.raises(ClassificationError):
            is_intersection_closed(spec)


class TestTernaryCondition:
    def test_binding_gadget(self):
        spec = spec_from_constraint(binding(("a",), ("b", "c")))
        assert matches_ternary_condition(spec)

    def test_atmost_two_gadget(self):
        spec = spec_from_constraint(at_most(2, ("a", "b", "c")))
        assert matches_ternary_condition(spec)

    def test_padded_disequality_fails(self):
        # disequality on two positions with a free third one: all-singletons
        # stays eligible, so the gadget condition fails
        spec = spec_from_constraint(separation(("a",), ("b",)))
        padded = RelationSpec(
            3,
            frozenset(
                code
                for code in spec_from_constraint(per_user(1, 3, "abc")).eligible_partitions
                if growth_string(code[:2]) in spec.eligible_partitions
            ),
        )
        assert not matches_ternary_condition(padded)

    def test_wrong_arity_rejected(self):
        spec = spec_from_constraint(disequality("a", "b"))
        with pytest.raises(DomainError):
            matches_ternary_condition(spec)


class TestSpecValidation:
    def test_rejects_non_partition(self):
        with pytest.raises(DomainError):
            RelationSpec(3, frozenset({(0, 0)}))

    @pytest.mark.parametrize("code", [(1, 0, 0), (0, 2, 1), (0, 0, 0, 0)])
    def test_rejects_non_growth_string(self, code):
        with pytest.raises(DomainError):
            RelationSpec(3, frozenset({code}))

    def test_rejects_empty_family(self):
        with pytest.raises(DomainError):
            RelationSpec(2, frozenset())
