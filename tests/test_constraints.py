"""Eligibility interface: closed forms against enumeration ground truth."""

import time
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wspkit import constraints
from wspkit.constraints import (
    classification,
    eligible_partition,
    eligible_set,
    enumerate_eligible_partitions,
    ineligible_singletons,
    required_additions,
)
from wspkit.core import (
    ConstraintInstance,
    WorkflowSchema,
    at_least,
    at_most,
    binding,
    disequality,
    equality,
    per_user,
    separation,
)
from wspkit.errors import ClassificationError, DeadEndError, DomainError
from wspkit.kernel import kernelize
from wspkit.partitions import blocks as code_blocks, growth_strings

from test_kernel import _merged

NAMES = ("a", "b", "c", "d", "e", "f")


def blocks(*groups):
    """The labelling that puts each group of tasks in its own block."""
    return {t: i for i, g in enumerate(groups) for t in g}


def enumerate_eligible_sets(c: ConstraintInstance) -> frozenset[frozenset[str]]:
    """Ground-truth eligible-set family from partition enumeration."""
    scope = c.scope_set
    out: set[frozenset[str]] = {frozenset()}
    for code in enumerate_eligible_partitions(c):
        out.update(frozenset(scope[i] for i in b) for b in code_blocks(code))
    return frozenset(out)


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

# Repeated-scope peruser constraints with t_low >= 2 and room for two
# blocks, over one to three multiplicity classes: the case decided over
# class-count vectors rather than in closed form.
ENUMERATED_SCOPES = [
    per_user(t_low, t_high, tuple(scope))
    for scope in ("aaabbbccdd", "aabb", "aabbc", "aaabcc", "aaabbbc", "abab",
                  "aaabbc", "aaabbcd")
    for t_low in range(2, len(scope) // 2 + 1)
    for t_high in range(t_low, len(scope) + 1)
]


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
            plan = {t: f"user{which}" for t, which in zip(scope, code)}
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
        for label in ({t: "u" for t in rest}, {t: 0 for t in rest},
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
        scope = c.scope_set
        for code in growth_strings(len(scope)):
            assert eligible_partition(c, dict(zip(scope, code))) == all(
                frozenset(scope[i] for i in b) in truth for b in code_blocks(code)
            )


@pytest.mark.parametrize(
    "c", catalog_instances(6) + WEIGHTED_SCOPES + ENUMERATED_SCOPES,
    ids=lambda c: f"{c.kind}-{c.params}-{c.scope}",
)
def test_classification_matches_enumeration(c):
    family = enumerate_eligible_sets(c)
    scope = c.scope_set
    regular = all(
        eligible_partition(c, dict(zip(scope, code)))
        == all(frozenset(scope[i] for i in b) in family for b in code_blocks(code))
        for code in growth_strings(len(scope))
    )
    closed = all((a & b) in family for a in family for b in family) if regular else None
    assert classification(c) == (regular, closed)


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


def eligible_superset(c, tasks):
    """Reference: the smallest eligible strict superset of an ineligible
    set, or None, by trying scope subsets by size (ties broken by
    declaration order within the scope)."""
    block = frozenset(tasks)
    if eligible_set(c, block):
        raise DomainError("eligible_superset called on an eligible set")
    pool = [t for t in c.scope_set if t not in block]
    for extra in range(1, len(pool) + 1):
        for combo in combinations(pool, extra):
            candidate = block | frozenset(combo)
            if eligible_set(c, candidate):
                return candidate
    return None


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
        with pytest.raises(DomainError, match="^eligible_superset called on an eligible set$"):
            eligible_superset(disequality("a", "b"), {"a"})


class TestRequiredAdditions:
    def test_equality(self):
        assert required_additions(equality("s", "t"), {"s"}) == {"t"}

    def test_peruser_closure_is_scope(self):
        c = per_user(3, 4, NAMES[:3])
        assert required_additions(c, {"a"}) == {"b", "c"}

    def test_weighted_peruser_closure(self):
        # eligible sets: {a}, {b}, {c,d}; c alone weighs 2 < 3
        c = per_user(3, 4, tuple("aaabbbccdd"))
        assert required_additions(c, {"c"}) == {"d"}
        with pytest.raises(DeadEndError):
            required_additions(c, {"a", "b"})

    def test_dead_end_signal(self):
        with pytest.raises(DeadEndError):
            required_additions(disequality("s", "t"), {"s", "t"})

    def test_rejects_eligible_input(self):
        with pytest.raises(DomainError, match="^required_additions called on an eligible set$"):
            required_additions(disequality("a", "b"), {"a"})

    @pytest.mark.parametrize(
        "c",
        [x for x in catalog_instances(6) + WEIGHTED_SCOPES + ENUMERATED_SCOPES
         if classification(x) == (True, True)],
        ids=lambda c: f"{c.kind}-{c.params}-{c.scope}",
    )
    def test_additions_lie_in_every_eligible_superset(self, c):
        truth = enumerate_eligible_sets(c)
        scope = c.scope_set
        for size in range(len(scope) + 1):
            for combo in combinations(scope, size):
                base = frozenset(combo)
                if base in truth:
                    continue
                supersets = [s for s in truth if base < s]
                if not supersets:
                    with pytest.raises(DeadEndError):
                        required_additions(c, base)
                    continue
                closure = base | required_additions(c, base)
                assert closure == frozenset.intersection(*supersets)
                # the closure is the least eligible superset
                assert eligible_superset(c, base) == closure

    @pytest.mark.parametrize("t_low,t_high", [(2, 3), (21, 41)])
    def test_repeated_peruser_work_is_polynomial(self, monkeypatch, t_low, t_high):
        # 40 distinct tasks, one of them repeated. Enumerating the subsets
        # of the distinct tasks would take 2^40 eligibility checks; peruser
        # 2 3 is not intersection-closed, while 21 41 is and merges the 40
        # tasks into one.
        tasks = tuple(f"t{i}" for i in range(40))
        c = per_user(t_low, t_high, tasks + tasks[:1])
        schema = WorkflowSchema(tasks, ("u", "v"), {t: {"u", "v"} for t in tasks},
                                (c,))
        calls = Counter()

        def counted(name, real):
            def call(*args):
                calls[name] += 1
                return real(*args)
            return call

        monkeypatch.setattr(constraints, "_groupable",
                            counted("groupable", constraints._groupable))
        monkeypatch.setattr(constraints, "eligible_set",
                            counted("eligible_set", eligible_set))
        closed = classification(c) == (True, True)
        assert closed == (t_low == 21)
        assert calls["groupable"] <= len(c.scope) ** 2
        calls.clear()
        if closed:
            assert len(kernelize(schema).merge_log) == 39
        else:
            with pytest.raises(ClassificationError):
                kernelize(schema)
        assert calls["groupable"] + calls["eligible_set"] <= len(c.scope) ** 2


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
    scope = c.scope_set
    for code in parts:
        for b in code_blocks(code):
            assert frozenset(scope[i] for i in b) in family
    if parts:
        chosen = data.draw(st.sampled_from(parts))
        assert eligible_partition(c, dict(zip(scope, chosen)))


TASKS = ("a", "b", "c", "d", "e", "f", "g")


@st.composite
def rewritten_constraints(draw):
    """A constraint of any kind over up to seven tasks, including binds that
    are not intersection-closed, then rewritten by up to three merges as
    the kernel makes them: scopes gain repeats, and eq, neq and sep scopes
    can shrink to one task."""
    task = st.sampled_from(TASKS)
    scope = st.lists(task, min_size=1, max_size=5)
    c = draw(st.one_of(
        st.builds(equality, task, task),
        st.builds(disequality, task, task),
        st.builds(binding, scope, scope),
        st.builds(separation, scope, scope),
        st.builds(at_most, st.integers(1, 6), scope),
        st.builds(at_least, st.integers(1, 6), scope),
        st.builds(lambda t_low, extra, ts: per_user(t_low, t_low + extra, ts),
                  st.integers(1, 4), st.integers(0, 3),
                  st.lists(task, min_size=1, max_size=8)),
    ))
    for _ in range(draw(st.integers(0, 3))):
        survivor, absorbed = draw(st.lists(st.sampled_from(TASKS), min_size=2,
                                           max_size=2, unique=True))
        c = _merged(c, survivor, absorbed) or c
    return c


@settings(max_examples=300, deadline=None)
@given(c=rewritten_constraints())
def test_ineligible_singletons_match_eligible_set(c):
    assert ineligible_singletons(c) == {
        t for t in c.scope_set if not eligible_set(c, {t})}


def test_unrepeated_peruser_singletons_in_closed_form():
    # every peruser without repeats over r <= 11 tasks, t_low <= 7, t_high <= 9
    cases = 0
    for r in range(1, 12):
        scope = tuple(f"t{i}" for i in range(r))
        for t_high in range(1, 10):
            for t_low in range(1, min(7, t_high) + 1):
                c = per_user(t_low, t_high, scope)
                assert ineligible_singletons(c) == {
                    t for t in scope if not eligible_set(c, {t})}
                cases += 1
    assert cases == 462


class TestLargePeruser:
    def test_grouping_search_runs_on_its_own_stack(self):
        # 1 000 tasks repeated twice and 1 000 once: grouping the rest of
        # {h0} takes about 1 000 groups, one level of search each.
        heavy = tuple(f"h{i}" for i in range(1000))
        light = tuple(f"g{i}" for i in range(1000))
        assert eligible_set(per_user(2, 3, heavy + heavy + light), ["h0"])

    def test_classification_stops_at_the_first_witness(self, monkeypatch):
        # One task of each weight 1..16 (136 positions, 2^16 count vectors
        # of load <= 200). {w1, w2} and {w1, w3} are eligible and meet in
        # {w1}, of load 1 < 2, so the second vector already refutes.
        c = per_user(2, 200, tuple(f"w{w}" for w in range(1, 17) for _ in range(w)))
        calls = 0
        real = constraints._eligible_counts

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(constraints, "_eligible_counts", counted)
        assert classification(c) == (True, False)
        assert calls <= c.arity

    def test_classes_of_a_large_scope_take_linear_time(self):
        # 40 000 tasks, one repeated: two classes. Building each class's
        # tasks by tuple concatenation took seconds here, quadratic in r.
        tasks = tuple(f"t{i}" for i in range(40_000))
        c = per_user(1, 3, tasks + tasks[:1])
        start = time.perf_counter()
        assert ineligible_singletons(c) == frozenset()
        assert time.perf_counter() - start < 1.0
        assert constraints._classes(c) == (((2, 1), (1, 39_999)),
                                           (tasks[:1], tasks[1:]))
