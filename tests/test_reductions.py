"""Hardness-reduction generators, mini-oracles, and the random generator."""

import re

import pytest

from wspkit.core import ATLEAST, at_most, describe, disequality
from wspkit.errors import DomainError, ResourceLimitError
from wspkit.reductions import (
    GADGETS,
    CnfFormula,
    MchsInstance,
    gen_random_instance,
    mchs_to_wsp,
    sat_to_wsp,
)
from wspkit.solver import solve_bruteforce, solve_fpt

from oracles import solve_mchs_bruteforce, solve_sat_bruteforce


class TestSatToWsp:
    def test_two_variable_formula_shape(self):
        f = CnfFormula(2, ((1, -2), (2,)))
        schema = sat_to_wsp(f)
        assert len(schema.tasks) == 5
        assert schema.users == ("t", "f")
        assert len(schema.constraints) == 4
        assert all(c.kind == ATLEAST and c.params == (2,)
                   for c in schema.constraints)
        clause_scopes = [c.scope for c in schema.constraints[2:]]
        assert clause_scopes == [("x1", "nx2", "d"), ("x2", "d")]
        assert schema.auth["d"] == {"f"}

    def test_single_positive_clause_satisfiable(self):
        outcome = solve_bruteforce(sat_to_wsp(CnfFormula(1, ((1,),))))
        assert outcome.satisfiable
        assert outcome.plan["x1"] == "t"

    def test_contradiction_unsatisfiable(self):
        schema = sat_to_wsp(CnfFormula(1, ((1,), (-1,))))
        assert not solve_bruteforce(schema).satisfiable

    @pytest.mark.parametrize("seed", range(25))
    def test_equivalence_random(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(1, 5)
        clauses = tuple(
            tuple(rng.choice((-1, 1)) * rng.randint(1, n)
                  for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 8))
        )
        f = CnfFormula(n, clauses)
        assert (solve_bruteforce(sat_to_wsp(f)).satisfiable
                == solve_sat_bruteforce(f))


class TestCnfFormula:
    @pytest.mark.parametrize("num_vars, clauses, message", [
        (0, (), "formula must have at least one variable"),
        (2, ((1,), ()), "empty clause"),
        (2, ((1, 3),), "literal 3 out of range"),
        (2, ((0,),), "literal 0 out of range"),
    ], ids=["no-variables", "empty-clause", "past-range", "zero"])
    def test_malformed_formula_refused(self, num_vars, clauses, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            CnfFormula(num_vars, clauses)


class TestSatOracle:
    def test_satisfiable(self):
        assert solve_sat_bruteforce(CnfFormula(2, ((1, -2), (2,))))

    def test_unsatisfiable(self):
        assert not solve_sat_bruteforce(CnfFormula(1, ((1,), (-1,))))

    def test_variable_cap(self):
        with pytest.raises(ResourceLimitError):
            solve_sat_bruteforce(CnfFormula(25, ((1,),)), max_vars=20)


class TestGadgets:
    def test_shipped_gadgets_meet_the_ternary_condition(self):
        from wspkit.classify import matches_ternary_condition, spec_from_constraint

        assert set(GADGETS) == {"bind-singleton", "atmost2"}
        for build in GADGETS.values():
            assert matches_ternary_condition(spec_from_constraint(build("a", "b", "c")))

    def test_builders_link_their_three_tasks(self):
        assert describe(GADGETS["bind-singleton"]("x", "y", "z")) == "bind {x} {y,z}"
        assert describe(GADGETS["atmost2"]("x", "y", "z")) == "atmost 2 {x,y,z}"

    @pytest.mark.parametrize("build, text", [
        (lambda a, b, c: disequality(a, b), "neq a b"),
        (lambda a, b, c: at_most(1, (a, b, c)), "atmost 1 {a,b,c}"),
    ], ids=["neq-pair", "atmost1"])
    def test_nonconforming_gadget_rejected(self, build, text):
        with pytest.raises(DomainError, match=(
                f"^gadget '{re.escape(text)}' does not meet the ternary eligibility condition$")):
            mchs_to_wsp(two_color_instance(), build)


def two_color_instance():
    return MchsInstance(
        vertices=("a", "b", "c", "d"),
        sets=(frozenset({"a", "c"}), frozenset({"b", "d"})),
        num_colors=2,
        coloring={"a": 1, "b": 1, "c": 2, "d": 2},
    )


class TestMchsToWsp:
    def test_count_formulas(self):
        inst = two_color_instance()
        for gadget in GADGETS.values():
            schema = mchs_to_wsp(inst, gadget)
            assert len(schema.tasks) == 4  # (l-1)m + l
            assert len(schema.constraints) == 2  # (l-1)m

    def test_hittable_instance_satisfiable(self):
        inst = two_color_instance()
        for gadget in GADGETS.values():
            assert solve_bruteforce(mchs_to_wsp(inst, gadget)).satisfiable

    def test_unhittable_instance_unsatisfiable(self):
        inst = MchsInstance(
            vertices=("a", "b", "c", "d"),
            sets=(frozenset({"a"}), frozenset({"b"}), frozenset({"c"})),
            num_colors=2,
            coloring={"a": 1, "b": 1, "c": 2, "d": 2},
        )
        for gadget in GADGETS.values():
            assert not solve_bruteforce(mchs_to_wsp(inst, gadget)).satisfiable

    def test_degenerate_instances_normalized(self):
        single_set = MchsInstance(("v", "w"), (frozenset({"v"}),), 2,
                                  {"v": 1, "w": 2})
        single_color = MchsInstance(("v",), (frozenset({"v"}),) * 2, 1,
                                    {"v": 1})
        for inst in (single_set, single_color):
            schema = mchs_to_wsp(inst, GADGETS["atmost2"])
            assert (solve_bruteforce(schema).satisfiable
                    == solve_mchs_bruteforce(inst))

    @pytest.mark.parametrize("m", [0, 1])
    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_fewer_than_two_sets_use_the_construction(self, m, ell):
        import random

        rng = random.Random(10 * m + ell)
        for _ in range(20):
            verts = tuple(f"v{i}" for i in range(1, rng.randint(ell, 6) + 1))
            coloring = {v: (i % ell) + 1 for i, v in enumerate(verts)}
            sets = tuple(frozenset(rng.sample(verts, rng.randint(1, len(verts))))
                         for _ in range(m))
            inst = MchsInstance(verts, sets, ell, coloring)
            for gadget in GADGETS.values():
                schema = mchs_to_wsp(inst, gadget)
                assert len(schema.tasks) == (ell - 1) * m + ell
                assert len(schema.constraints) == (ell - 1) * m
                assert (solve_bruteforce(schema).satisfiable
                        == solve_mchs_bruteforce(inst))

    def test_one_color_builds_one_chooser(self):
        inst = MchsInstance(
            vertices=("a", "b", "c", "d"),
            sets=(frozenset({"a", "b", "c"}), frozenset({"b", "c", "d"}),
                  frozenset({"a", "c", "d"})),
            num_colors=1,
            coloring={"a": 1, "b": 1, "c": 1, "d": 1},
        )
        for gadget in GADGETS.values():
            schema = mchs_to_wsp(inst, gadget)
            assert schema.tasks == ("s1",) and schema.constraints == ()
            assert schema.users == inst.vertices
            assert schema.auth["s1"] == {"c"}

    @pytest.mark.parametrize("solve", [solve_fpt, solve_bruteforce])
    def test_one_color_agrees_with_the_oracle(self, solve):
        import random

        rng = random.Random(1)
        verdicts = set()
        for _ in range(1000):
            verts = tuple(f"v{i}" for i in range(1, rng.randint(1, 6) + 1))
            sets = tuple(frozenset(rng.sample(verts, rng.randint(0, len(verts))))
                         for _ in range(rng.randint(0, 4)))
            inst = MchsInstance(verts, sets, 1, dict.fromkeys(verts, 1))
            want = solve_mchs_bruteforce(inst)
            verdicts.add(want)
            assert solve(mchs_to_wsp(inst, GADGETS["atmost2"])).satisfiable == want
        assert verdicts == {False, True}

    def test_no_color_rejected(self):
        with pytest.raises(DomainError, match="at least one color"):
            MchsInstance((), (), 0, {})

    @pytest.mark.parametrize("vertices, sets, coloring, message", [
        (("a", "a", "b"), ("a",), {"a": 1, "b": 1}, "vertex listed twice: ['a']"),
        (("a", "b"), ("a",), {"a": 1, "b": 1, "zz": 7}, "colors for unknown vertices: ['zz']"),
        (("a", "a", "b"), ("a",), {"a": 1, "b": 1, "zz": 7}, "vertex listed twice: ['a']"),
        (("a", "b"), ("q",), {"a": 1, "zz": 1}, "colors for unknown vertices: ['zz']"),
    ], ids=["twice", "unknown", "twice-first", "unknown-before-sets"])
    def test_malformed_instance_refused_when_built(self, vertices, sets, coloring, message):
        with pytest.raises(DomainError) as info:
            MchsInstance(vertices, tuple(map(frozenset, sets)), 1, coloring)
        assert str(info.value) == message

    @pytest.mark.parametrize("vertices, sets, num_colors, coloring, message", [
        (("a", "b"), ("ac", "b"), 1, {"a": 1, "b": 1},
         "set member outside the vertex set: ['c']"),
        (("a", "b"), (), 2, {"a": 1, "b": 0}, "vertex b has no color in [1..2]"),
        (("a", "b"), (), 2, {"a": 3, "b": 1}, "vertex a has no color in [1..2]"),
        (("a", "b"), (), 2, {"a": 1}, "vertex b has no color in [1..2]"),
        (("a", "b"), (), 0, {"a": 1, "b": 1}, "vertex a has no color in [1..0]"),
        (("a", "b", "c"), (), 4, {"a": 1, "b": 2, "c": 4}, "color class 3 is empty"),
        (("a",), (), 10**9, {"a": 1}, "color class 2 is empty"),
    ], ids=["outside-member", "color-zero", "color-above", "no-color", "no-colors",
            "empty-class", "huge-color-count"])
    def test_color_faults_refused(self, vertices, sets, num_colors, coloring, message):
        with pytest.raises(DomainError) as info:
            MchsInstance(vertices, tuple(map(frozenset, sets)), num_colors, coloring)
        assert str(info.value) == message

    def test_color_classes_are_not_part_of_the_value(self):
        import dataclasses
        import pickle

        inst = MchsInstance(("a", "b", "c"), (frozenset("c"),), 2, {"a": 2, "b": 1, "c": 2})
        assert [inst.color_class(j) for j in range(4)] == [(), ("b",), ("a", "c"), ()]
        assert repr(inst) == ("MchsInstance(vertices=('a', 'b', 'c'), "
                              "sets=(frozenset({'c'}),), num_colors=2, "
                              "coloring={'a': 2, 'b': 1, 'c': 2})")
        for copy in (pickle.loads(pickle.dumps(inst)), dataclasses.replace(inst)):
            assert copy == inst and copy.color_class(2) == ("a", "c")
        recolored = dataclasses.replace(inst, coloring={"a": 1, "b": 2, "c": 2})
        assert recolored != inst and recolored.color_class(2) == ("b", "c")

    def test_many_colors_build_and_refuse_in_linear_time(self):
        import time

        n = 20000
        vertices = [f"v{i}" for i in range(n)]
        coloring = {v: i + 1 for i, v in enumerate(vertices)}
        start = time.perf_counter()
        schema = mchs_to_wsp(MchsInstance(vertices, (), n, coloring), GADGETS["atmost2"])
        assert schema.tasks[-1] == f"s{n}" and schema.auth[f"s{n}"] == {vertices[-1]}
        with pytest.raises(DomainError, match=re.escape("vertex listed twice: ['v6']")):
            MchsInstance(vertices[:-1] + vertices[6:7], (), n, coloring)
        assert time.perf_counter() - start < 2

    def test_authorization_layout(self):
        inst = MchsInstance(
            vertices=("a", "b", "c"),
            sets=(frozenset({"a"}), frozenset({"b", "c"})),
            num_colors=3,
            coloring={"a": 1, "b": 2, "c": 3},
        )
        schema = mchs_to_wsp(inst, GADGETS["bind-singleton"])
        assert schema.auth["s1"] == {"a"}
        assert schema.auth["e1_3"] == {"a"}  # last chain task gets E_1
        assert schema.auth["e1_2"] == {"a", "b", "c"}


class TestMchsOracle:
    def test_hittable(self):
        assert solve_mchs_bruteforce(two_color_instance())

    def test_single_vertex(self):
        inst = MchsInstance(("v",), (frozenset({"v"}),), 1, {"v": 1})
        assert solve_mchs_bruteforce(inst)

    def test_empty_color_class_rejected(self):
        with pytest.raises(DomainError):
            MchsInstance(("v",), (), 2, {"v": 1})


class TestGenRandomInstance:
    def test_deterministic(self):
        a = gen_random_instance(4, 6, 3, ["neq", ("peruser", (1, 2))], seed=1)
        b = gen_random_instance(4, 6, 3, ["neq", ("peruser", (1, 2))], seed=1)
        assert a == b

    def test_density_extremes(self):
        full = gen_random_instance(3, 4, 0, ["neq"], seed=0, density=1.0)
        assert all(full.auth[t] == set(full.users) for t in full.tasks)
        empty = gen_random_instance(3, 4, 0, ["neq"], seed=0, density=0.0)
        assert all(not empty.auth[t] for t in empty.tasks)
        assert not solve_bruteforce(empty).satisfiable

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            gen_random_instance(3, 3, 1, ["mystery"], seed=0)

    @pytest.mark.parametrize("args, message", [
        ((0, 3, 1, ["neq"]), "instance dimensions must be positive"),
        ((3, 0, 1, ["neq"]), "instance dimensions must be positive"),
        ((3, 3, -1, ["neq"]), "instance dimensions must be positive"),
        ((3, 3, 1, []), "kind mix must be nonempty"),
        ((1, 3, 1, ["sep"]), "sep needs at least two tasks"),
        ((2, 3, 1, [("peruser", (3, 4))]), "peruser lower bound exceeds the task count"),
    ], ids=["tasks", "users", "constraints", "kinds", "one-task", "lower-bound"])
    def test_refusal_texts(self, args, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            gen_random_instance(*args, seed=0)
