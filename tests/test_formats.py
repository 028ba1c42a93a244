"""Text formats: instances, plans, relation specs, MCHS, DIMACS, kernel logs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wspkit import formats
from wspkit.classify import spec_from_constraint
from wspkit.core import Plan, per_user
from wspkit.errors import ParseError
from wspkit.kernel import kernelize
from wspkit.reductions import CnfFormula, gen_random_instance

WSTAR_TEXT = """\
tasks: s1 s2 s3
users: u1 u2 u3 u4 u5 u6
auth s1: u1 u2 u3
auth s2: u1 u4 u5
auth s3: u1 u6
constraint eq s1 s2
constraint neq s1 s3
constraint neq s2 s3
"""


class TestInstanceFormat:
    def test_parse_running_example(self, wstar):
        assert formats.parse_instance(WSTAR_TEXT) == wstar

    def test_canonical_round_trip(self, wstar):
        assert formats.serialize_instance(wstar) == WSTAR_TEXT

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\ntasks: a\nusers: u\n\nauth a: u\n"
        schema = formats.parse_instance(text)
        assert schema.tasks == ("a",)

    def test_missing_users_line(self):
        with pytest.raises(ParseError):
            formats.parse_instance("tasks: a\nauth a: u\n")

    def test_unknown_constraint_kind(self):
        with pytest.raises(ParseError):
            formats.parse_instance(
                "tasks: a\nusers: u\nconstraint magic a\n"
            )

    def test_set_syntax(self):
        text = ("tasks: a b c\nusers: u\n"
                "constraint peruser 1 2 {a,b,c}\n"
                "constraint sep {a} {b,c}\n")
        schema = formats.parse_instance(text)
        assert schema.constraints[0].scope == ("a", "b", "c")
        assert schema.constraints[1].scope_sets == (("a",), ("b", "c"))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_generated_instances_round_trip(self, seed):
        schema = gen_random_instance(
            4, 5, 3, ["eq", "neq", "sep", "bind", "atmost", "atleast", "peruser"],
            seed=seed,
        )
        text = formats.serialize_instance(schema)
        back = formats.parse_instance(text)
        # serialization canonicalizes scope order, so compare structurally
        assert back.tasks == schema.tasks
        assert back.users == schema.users
        assert dict(back.auth) == dict(schema.auth)
        assert ([c.dedup_key() for c in back.constraints]
                == [c.dedup_key() for c in schema.constraints])
        assert formats.serialize_instance(back) == text


class TestPlanFormat:
    def test_round_trip(self, wstar_plan):
        text = formats.serialize_plan(wstar_plan, ("s1", "s2", "s3"))
        assert text == "s1 u1\ns2 u1\ns3 u6\n"
        assert dict(formats.parse_plan(text).items()) == dict(wstar_plan.items())

    def test_duplicate_assignment_rejected(self):
        with pytest.raises(ParseError):
            formats.parse_plan("a u\na v\n")


class TestRelationSpecFormat:
    def test_round_trip(self):
        spec = spec_from_constraint(per_user(1, 2, ("a", "b", "c")))
        text = formats.serialize_relation_spec(spec)
        assert formats.parse_relation_spec(text) == spec

    def test_requires_arity_line(self):
        with pytest.raises(ParseError):
            formats.parse_relation_spec("{1,2}|{3}\n")

    def test_non_integer_position(self):
        with pytest.raises(ParseError, match="x"):
            formats.parse_relation_spec("arity 2\n{1,x}\n")


class TestMchsFormat:
    def test_round_trip(self):
        text = ("vertices: a b c\ncolor a 1\ncolor b 1\ncolor c 2\n"
                "set: a c\nset: b\n")
        inst = formats.parse_mchs(text)
        assert formats.serialize_mchs(inst) == text

    def test_empty_color_class_rejected(self):
        with pytest.raises(ParseError):
            formats.parse_mchs("vertices: a\ncolor a 2\nset: a\n")

    def test_non_integer_color(self):
        with pytest.raises(ParseError, match="color a one"):
            formats.parse_mchs("vertices: a\ncolor a one\nset: a\n")


class TestDimacs:
    def test_parse(self):
        f = formats.parse_dimacs("c comment\np cnf 2 2\n1 -2 0\n2 0\n")
        assert f == CnfFormula(2, ((1, -2), (2,)))

    def test_round_trip(self):
        f = CnfFormula(3, ((1, -2, 3), (-1,)))
        assert formats.parse_dimacs(formats.serialize_dimacs(f)) == f

    def test_missing_problem_line(self):
        with pytest.raises(ParseError):
            formats.parse_dimacs("1 2 0\n")

    def test_non_integer_variable_count(self):
        with pytest.raises(ParseError, match="p cnf two 1"):
            formats.parse_dimacs("p cnf two 1\n1 0\n")


class TestKernelLog:
    def test_sections_present(self, wstar):
        text = formats.serialize_kernel_log(kernelize(wstar))
        lines = text.splitlines()
        for section in ("MERGES", "MARKED", "HARD", "REPS"):
            assert section in lines
        assert "s2 -> s1 : u1" in lines
        assert "s1 u1" in lines and "s3 u6" in lines
