"""Eligibility interface: closed forms against enumeration ground truth."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wspkit.constraints import (
    classification,
    eligible_partition,
    eligible_set,
    eligible_superset,
    enumerate_eligible_partitions,
    enumerate_eligible_sets,
    required_additions,
)
from wspkit.core import (
    Plan,
    TaskPartition,
    at_least,
    at_most,
    binding,
    disequality,
    equality,
    per_user,
    separation,
)
from wspkit.errors import ContractError, DeadEndError, DomainError
from wspkit.partitions import growth_strings

NAMES = ("a", "b", "c", "d", "e", "f")


def blocks(*groups):
    return TaskPartition(frozenset(frozenset(g) for g in groups))


def catalog_instances(max_arity):
    """A representative instance of every kind at each arity up to the cap."""
    out = []
    for r in range(2, max_arity + 1):
        scope = NAMES[:r]
        out.append(equality(scope[0], scope[1]))
        out.append(disequality(scope[0], scope[1]))
        for split in range(1, r):
            out.append(binding(scope[:split], scope[split:]))
            out.append(separation(scope[:split], scope[split:]))
        # overlapping two-set sides
        if r >= 3:
            out.append(binding(scope[:2], scope[1:]))
            out.append(separation(scope[:2], scope[1:]))
        for t in range(1, r + 2):
            out.append(at_most(t, scope))
            out.append(at_least(t, scope))
        for t_low in range(1, r + 1):
            for t_high in range(t_low, r + 2):
                out.append(per_user(t_low, t_high, scope))
    return out


class TestEligiblePartition:
    def test_peruser_within_bounds(self):
        c = per_user(1, 2, ("a", "b", "c"))
        assert eligible_partition(c, blocks({"a", "b"}, {"c"}))

    def test_disequality_same_block(self):
        assert not eligible_partition(
            disequality("s1", "s3"), blocks({"s1", "s3"})
        )

    def test_binding_all_singletons(self):
        c = binding(("s1", "s2"), ("s3", "s4"))
        assert not eligible_partition(
            c, blocks({"s1"}, {"s2"}, {"s3"}, {"s4"})
        )

    def test_carrier_mismatch(self):
        with pytest.raises(DomainError):
            eligible_partition(disequality("a", "b"), blocks({"a"}))


# Repeated-scope constraints from TestWeightedScopes.
WEIGHTED_SCOPES = [
    per_user(t_low, t_high, scope)
    for scope in (("t1", "t1", "t1", "t2"), ("x", "x", "y", "z"), ("a", "a", "b"),
                  ("a", "b", "a", "c"), ("a", "a", "b", "b"))
    for t_low in (1, 2)
    for t_high in (t_low, t_low + 1, t_low + 2)
] + [at_most(1, ("x", "x", "y"))]


class TestLabelType:
    """Eligibility depends on which scope tasks share a label, not on the
    labels' type or on tasks outside the scope."""

    @pytest.mark.parametrize(
        "c", catalog_instances(5) + WEIGHTED_SCOPES,
        ids=lambda c: f"{c.kind}-{c.params}-{c.scope}",
    )
    def test_partition_plan_and_dict_agree(self, c):
        scope = c.scope_set
        for code in growth_strings(len(scope)):
            groups: dict[int, set[str]] = {}
            for t, which in zip(scope, code):
                groups.setdefault(which, set()).add(t)
            partition = blocks(*groups.values())
            plan = Plan({t: f"user{which}" for t, which in zip(scope, code)})
            ints = {"outside": 0, **{t: 10 * which for t, which in zip(scope, code)}}
            verdict = eligible_partition(c, partition)
            assert eligible_partition(c, plan) == verdict
            assert eligible_partition(c, ints) == verdict

    @pytest.mark.parametrize(
        "c", catalog_instances(3) + WEIGHTED_SCOPES,
        ids=lambda c: f"{c.kind}-{c.params}-{c.scope}",
    )
    def test_missing_scope_task(self, c):
        missing, *rest = c.scope_set
        for label in (Plan({t: "u" for t in rest}), {t: 0 for t in rest},
                      blocks(set(rest) | {"outside"})):
            with pytest.raises(DomainError):
                eligible_partition(c, label)

    def test_partition_of_superset_accepted(self):
        c = disequality("a", "b")
        assert eligible_partition(c, blocks({"a", "z"}, {"b"}))
        assert not eligible_partition(c, blocks({"a", "b"}, {"z"}))


class TestEligibleSet:
    def test_peruser_lower_bound(self):
        c = per_user(2, 3, NAMES[:5])
        assert not eligible_set(c, {"a"})

    def test_empty_set_always_eligible(self):
        for c in catalog_instances(4):
            assert eligible_set(c, ())

    def test_binding_singleton_side(self):
        c = binding(("a",), ("b", "c"))
        assert not eligible_set(c, {"a"})
        assert eligible_set(c, {"a", "b"})

    def test_subset_of_scope_required(self):
        with pytest.raises(DomainError):
            eligible_set(disequality("a", "b"), {"z"})


class TestClosedFormsAgainstEnumeration:
    @pytest.mark.parametrize(
        "c", catalog_instances(6), ids=lambda c: f"{c.kind}-{c.params}-{c.scope}"
    )
    def test_eligible_set_matches_ground_truth(self, c):
        truth = enumerate_eligible_sets(c)
        scope = c.scope_set
        for size in range(len(scope) + 1):
            for combo in combinations(scope, size):
                assert eligible_set(c, combo) == (frozenset(combo) in truth)

    @pytest.mark.parametrize(
        "c",
        [x for x in catalog_instances(5) if classification(x)[0]],
        ids=lambda c: f"{c.kind}-{c.params}-{c.scope}",
    )
    def test_regular_kinds_decompose_blockwise(self, c):
        truth = enumerate_eligible_sets(c)
        from wspkit.partitions import set_partitions

        for raw in set_partitions(c.scope_set):
            p = TaskPartition(frozenset(frozenset(b) for b in raw))
            assert eligible_partition(c, p) == all(b in truth for b in p.blocks)


class TestWeightedScopes:
    """Repeated scope tasks weigh per-user counting by multiplicity."""

    def test_duplicate_raises_block_load(self):
        c = per_user(1, 2, ("t1", "t1", "t1", "t2"))
        assert not eligible_partition(c, blocks({"t1", "t2"}))
        assert not eligible_set(c, {"t1"})
        # t1's block always weighs 3, so no partition is eligible at all
        assert not eligible_set(c, {"t2"})
        c2 = per_user(1, 3, ("t1", "t1", "t1", "t2"))
        assert eligible_set(c2, {"t1"})
        assert eligible_set(c2, {"t2"})
        assert not eligible_set(c2, {"t1", "t2"})

    def test_duplicate_counts_toward_lower_bound(self):
        c = per_user(2, 2, ("x", "x", "y", "z"))
        assert eligible_set(c, {"x"})
        assert eligible_set(c, {"y", "z"})
        assert not eligible_set(c, {"x", "y"})

    def test_atmost_unaffected_by_duplicates(self):
        c = at_most(1, ("x", "x", "y"))
        assert eligible_partition(c, blocks({"x", "y"}))

    def test_weighted_enumeration_agreement(self):
        for scope in (("a", "a", "b"), ("a", "b", "a", "c"), ("a", "a", "b", "b")):
            for t_low in (1, 2):
                for t_high in (t_low, t_low + 1, t_low + 2):
                    c = per_user(t_low, t_high, scope)
                    truth = enumerate_eligible_sets(c)
                    distinct = c.scope_set
                    for size in range(len(distinct) + 1):
                        for combo in combinations(distinct, size):
                            assert eligible_set(c, combo) == (
                                frozenset(combo) in truth
                            )


class TestEligibleSuperset:
    def test_equality_forced_partner(self):
        assert eligible_superset(equality("s", "t"), {"s"}) == {"s", "t"}

    def test_no_superset_for_full_scope(self):
        c = per_user(3, 3, NAMES[:4])
        assert eligible_superset(c, NAMES[:4]) is None

    def test_binding_prefers_declaration_order(self):
        c = binding(("a",), ("b", "c"))
        assert eligible_superset(c, {"a"}) == {"a", "b"}

    def test_rejects_eligible_input(self):
        with pytest.raises(ContractError):
            eligible_superset(disequality("a", "b"), {"a"})


class TestRequiredAdditions:
    def test_equality(self):
        assert required_additions(equality("s", "t"), {"s"}) == {"t"}

    def test_peruser_pads_to_lower_bound(self):
        c = per_user(2, 4, NAMES[:5])
        added = required_additions(c, {"a"})
        assert len(added) == 1 and added < set(NAMES[1:5])

    def test_dead_end_signal(self):
        with pytest.raises(DeadEndError):
            required_additions(disequality("s", "t"), {"s", "t"})

    @pytest.mark.parametrize(
        "c",
        [x for x in catalog_instances(6) if classification(x) == (True, True)],
        ids=lambda c: f"{c.kind}-{c.params}-{c.scope}",
    )
    def test_additions_lie_in_every_eligible_superset(self, c):
        truth = enumerate_eligible_sets(c)
        scope = c.scope_set
        for size in range(len(scope)):
            for combo in combinations(scope, size):
                base = frozenset(combo)
                if base in truth:
                    continue
                supersets = [s for s in truth if base < s]
                if not supersets:
                    continue
                added = required_additions(c, base)
                for s in supersets:
                    assert added <= s


@settings(max_examples=60, deadline=None)
@given(
    t_low=st.integers(1, 3),
    extra=st.integers(0, 3),
    size=st.integers(2, 6),
    data=st.data(),
)
def test_peruser_set_and_partition_consistency(t_low, extra, size, data):
    c = per_user(t_low, t_low + extra, NAMES[:size])
    parts = enumerate_eligible_partitions(c)
    family = enumerate_eligible_sets(c)
    for p in parts:
        for b in p.blocks:
            assert b in family
    if parts:
        chosen = data.draw(st.sampled_from(parts))
        assert eligible_partition(c, chosen)
