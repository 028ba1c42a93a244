"""Text formats: instances, plans, relation specs, MCHS, DIMACS, kernel logs."""

import re
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wspkit import formats
from wspkit.classify import RelationSpec, spec_from_constraint
from wspkit.cli import main
from wspkit.core import (
    CATALOG,
    PAIR,
    SETS,
    ConstraintInstance,
    Plan,
    WorkflowSchema,
    at_least,
    describe,
    at_most,
    binding,
    disequality,
    equality,
    per_user,
    separation,
)
from wspkit.errors import DomainError, ParseError
from wspkit.kernel import kernelize
from wspkit.reductions import CnfFormula, MchsInstance, gen_random_instance


# Writers for the formats that wsp only reads, so the round trips can be
# tested; each is the inverse of its parser on canonical text.

def serialize_relation_spec(spec: RelationSpec) -> str:
    lines = [f"arity {spec.arity}"]
    lines.extend(sorted(formats.format_partition(code) for code in spec.eligible_partitions))
    return "\n".join(lines) + "\n"


def serialize_mchs(inst: MchsInstance) -> str:
    lines = ["vertices: " + " ".join(inst.vertices)]
    for v in inst.vertices:
        lines.append(f"color {v} {inst.coloring[v]}")
    order = {v: i for i, v in enumerate(inst.vertices)}
    for e in inst.sets:
        lines.append("set: " + " ".join(sorted(e, key=order.__getitem__)))
    return "\n".join(lines) + "\n"


def serialize_dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.num_vars} {len(formula.clauses)}"]
    for cl in formula.clauses:
        lines.append(" ".join(map(str, cl)) + " 0")
    return "\n".join(lines) + "\n"


NAMES = st.text("abcxyz019_", min_size=1, max_size=3)

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

    @pytest.mark.parametrize("text,match", [
        ("tasks: a b\ntasks: a\nusers: u\n", "repeated tasks"),
        ("tasks: a\nusers: u v\nusers: u\n", "repeated users"),
        ("tasks: a\nusers: u v\nauth a: u\nauth a: v\n", "repeated auth line for task a"),
    ], ids=["tasks", "users", "auth"])
    def test_repeated_lines_rejected(self, text, match):
        with pytest.raises(ParseError, match=match):
            formats.parse_instance(text)

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

    @pytest.mark.parametrize("token", ["{a,,b}", "{a,}", "{,a}"])
    def test_empty_task_name_rejected(self, token):
        text = f"tasks: a b\nusers: u\nconstraint atmost 1 {token}\n"
        with pytest.raises(ParseError, match=re.escape(repr(token))):
            formats.parse_instance(text)

    @pytest.mark.parametrize("line,written", [
        ("atmost 1 {a, b}", "{a, b}"),
        ("sep {a, b} {c}", "{a, b}"),
        ("bind {a} { b,c }", "{ b,c }"),
    ], ids=["atmost", "sep", "bind"])
    def test_set_written_with_spaces(self, line, written):
        text = f"tasks: a b c\nusers: u\nconstraint {line}\n"
        message = f"task set {written!r} has spaces; write sets without spaces"
        with pytest.raises(ParseError, match=re.escape(message)):
            formats.parse_instance(text)

    @pytest.mark.parametrize("text,message", [
        ("tasks: a b\ntasks: a\nusers: u\n", "repeated tasks: line"),
        ("tasks: a\nusers: u v\nusers: u\n", "repeated users: line"),
        ("tasks: a\nusers: u v\nauth a: u\nauth a: v\n",
         "repeated auth line for task a"),
        ("tasks: a\nusers: u\nauth a b: u\n", "bad auth line: 'auth a b: u'"),
        ("tasks: a\nusers: u\n  job a u\n", "unrecognized line: 'job a u'"),
        ("tasks: a\nusers: u\nconstraint\n", "unrecognized line: 'constraint'"),
        ("tasks: a\nusers: u\nauth b: u\nauth c: u\n",
         "invalid instance: authorization for unknown tasks: ['b', 'c']"),
        ("tasks: a\nauth a: u\n", "document must declare tasks: and users:"),
        ("users: u\n", "document must declare tasks: and users:"),
        ("# only a comment\n\n", "document must declare tasks: and users:"),
        ("tasks: a b\nusers: u\nconstraint neq a\n", "neq takes 2 arguments, got 1"),
        ("tasks: a\nusers: u\nconstraint atmost 0 {a}\n",
         "bad constraint 'atmost 0 {a}': atmost takes 1 integer bounds rising "
         "from 1, got (0,)"),
    ], ids=["tasks", "users", "auth", "auth-head", "unrecognized", "bare-constraint",
            "unknown-auth", "no-users", "no-tasks", "empty", "arguments", "bounds"])
    def test_parse_error_texts(self, text, message):
        with pytest.raises(ParseError) as caught:
            formats.parse_instance(text)
        assert str(caught.value) == message

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**6), data=st.data())
    def test_spliced_layout_parses_to_the_same_schema(self, seed, data):
        schema = gen_random_instance(
            5, 4, 6, ["eq", "neq", "sep", "bind", "atmost", "atleast", "peruser"],
            seed=seed,
        )
        text = formats.serialize_instance(schema)
        canonical = formats.parse_instance(text)
        spliced = []
        for line in text.splitlines():
            spliced += data.draw(st.lists(st.sampled_from(
                ["", "   ", "# note", "  # auth x: y", "#constraint neq a b"]), max_size=2))
            indent = data.draw(st.sampled_from(["", " ", "\t", "  "]))
            trail = data.draw(st.sampled_from(["", " ", "\t "]))
            spliced.append(indent + line + trail)
        newline = data.draw(st.sampled_from(["\n", "\r\n"]))
        back = formats.parse_instance(newline.join(spliced))
        assert back == canonical
        assert formats.serialize_instance(back) == text
        # serialization canonicalizes scope order, so compare structurally
        assert back.tasks == schema.tasks and dict(back.auth) == dict(schema.auth)
        assert ([c.dedup_key() for c in back.constraints]
                == [c.dedup_key() for c in schema.constraints])

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


CATALOG_TASKS = ("a", "b", "c", "d", "e")


@st.composite
def catalog_constraints(draw):
    """A constraint of any CATALOG kind, built from its shape, with every
    task set in task order; a one-set scope may repeat tasks."""
    kind = draw(st.sampled_from(list(CATALOG)))
    shape, bounds = CATALOG[kind]
    task = st.sampled_from(CATALOG_TASKS)
    if shape == PAIR:
        return ConstraintInstance(kind, scope=(draw(task), draw(task)))
    task_set = st.lists(task, min_size=1, max_size=4, unique=True).map(sorted)
    if shape == SETS:
        return ConstraintInstance(kind, scope_sets=(tuple(draw(task_set)),
                                                    tuple(draw(task_set))))
    params = draw(st.lists(st.integers(1, 6), min_size=bounds, max_size=bounds))
    scope = draw(st.lists(task, min_size=1, max_size=6).map(sorted))
    return ConstraintInstance(kind, tuple(sorted(params)), tuple(scope))


# The task-set parser as it was when it matched the token with a regex.
_SET_RE = re.compile(r"\{([^{}]*)\}")


def regex_parse_set(token: str) -> tuple[str, ...]:
    m = _SET_RE.fullmatch(token)
    if not m:
        raise ParseError(f"expected a {{...}} task set, got {token!r}")
    inner = m.group(1).strip()
    if not inner:
        raise ParseError("empty task set")
    names = tuple(x.strip() for x in inner.split(","))
    if "" in names:
        raise ParseError(f"empty task name in {token!r}")
    return names


def parse_set_outcome(parse, token: str):
    """The names parsed from token, or the text of the ParseError raised."""
    try:
        return parse(token)
    except ParseError as exc:
        return str(exc)


class TestParseSet:
    """``_parse_set`` tests its braces with string checks, as the regex did."""

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(["{", "}", ",", " ", "a", "b"]), max_size=8).map("".join))
    def test_agrees_with_the_regex(self, token):
        assert (parse_set_outcome(formats._parse_set, token)
                == parse_set_outcome(regex_parse_set, token))

    @pytest.mark.parametrize("token,outcome", [
        ("{", "expected a {...} task set, got '{'"),
        ("}", "expected a {...} task set, got '}'"),
        ("{}", "empty task set"),
        ("{ }", "empty task set"),
        ("{a{b}", "expected a {...} task set, got '{a{b}'"),
        ("a}", "expected a {...} task set, got 'a}'"),
        ("{a,}", "empty task name in '{a,}'"),
        ("{ , }", "empty task name in '{ , }'"),
        ("{a, b}", ("a", "b")),
    ])
    def test_fixed_cases(self, token, outcome):
        assert parse_set_outcome(formats._parse_set, token) == outcome
        assert parse_set_outcome(regex_parse_set, token) == outcome


class TestCatalog:
    """Every kind's syntax comes from its CATALOG shape."""

    @settings(max_examples=300, deadline=None)
    @given(c=catalog_constraints())
    def test_describe_parses_back(self, c):
        text = describe(c)
        assert formats.parse_constraint_line(text.split()) == c
        schema = WorkflowSchema(CATALOG_TASKS, (), {}, (c,))
        assert describe(c, schema.sort_tasks) == text
        assert formats.serialize_instance(schema).endswith(f"\nconstraint {text}\n")

    @settings(max_examples=50, deadline=None)
    @given(kind=st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)
           .filter(lambda kind: kind not in CATALOG))
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(DomainError, match="unknown constraint kind"):
            ConstraintInstance(kind, scope=("a", "b"))
        with pytest.raises(ParseError, match="unknown constraint kind"):
            formats.parse_constraint_line([kind, "a", "b"])
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            assert main(["classify", "--kind", kind]) == 2
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


class TestPlanFormat:
    def test_round_trip(self, wstar_plan):
        text = formats.serialize_plan(wstar_plan, ("s1", "s2", "s3"))
        assert text == "s1 u1\ns2 u1\ns3 u6\n"
        assert dict(formats.parse_plan(text).items()) == dict(wstar_plan.items())

    def test_duplicate_assignment_rejected(self):
        with pytest.raises(ParseError):
            formats.parse_plan("a u\na v\n")

    @given(tasks=st.lists(NAMES, unique=True, max_size=8), users=st.lists(NAMES, min_size=1),
           data=st.data())
    def test_random_plans_round_trip(self, tasks, users, data):
        plan = Plan({t: data.draw(st.sampled_from(users)) for t in tasks})
        order = data.draw(st.permutations(tasks))
        text = formats.serialize_plan(plan, order)
        back = formats.parse_plan(text)
        assert back == plan
        assert formats.serialize_plan(back, order) == text


class TestRelationSpecFormat:
    def test_round_trip(self):
        spec = spec_from_constraint(per_user(1, 2, ("a", "b", "c")))
        text = serialize_relation_spec(spec)
        assert formats.parse_relation_spec(text) == spec

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_catalog_specs_round_trip(self, data):
        scope = st.lists(st.sampled_from("abcde"), min_size=1, max_size=5, unique=True)
        count = st.integers(1, 6)
        c = data.draw(st.one_of(
            st.builds(equality, st.just("a"), st.sampled_from("bcde")),
            st.builds(disequality, st.just("a"), st.sampled_from("bcde")),
            st.builds(binding, scope, scope),
            st.builds(separation, scope, scope),
            st.builds(at_most, count, scope),
            st.builds(at_least, count, scope),
            st.builds(lambda low, extra, ts: per_user(low, low + extra, ts),
                      st.integers(1, 3), st.integers(0, 3),
                      st.lists(st.sampled_from("abcde"), min_size=1, max_size=6)),
        ))
        try:
            spec = spec_from_constraint(c)
        except DomainError:
            assume(False)
        assert spec.arity <= 5
        text = serialize_relation_spec(spec)
        back = formats.parse_relation_spec(text)
        assert back == spec
        assert serialize_relation_spec(back) == text

    def test_requires_arity_line(self):
        with pytest.raises(ParseError):
            formats.parse_relation_spec("{1,2}|{3}\n")

    def test_spaces_inside_a_set(self):
        # lines split on '|' only, so a set keeps its spaces; each position
        # is stripped, and a blank one is an empty name
        spec = formats.parse_relation_spec("arity 3\n{1,2}|{3}\n")
        assert formats.parse_relation_spec("arity 3\n{1, 2}|{3}\n") == spec
        with pytest.raises(ParseError, match="empty task name"):
            formats.parse_relation_spec("arity 3\n{1, ,2}|{3}\n")

    def test_non_integer_position(self):
        with pytest.raises(ParseError, match="x"):
            formats.parse_relation_spec("arity 2\n{1,x}\n")

    @pytest.mark.parametrize("line", ["{1,2}|{2,3}", "{1}|{1}|{2,3}"])
    def test_overlapping_positions(self, line):
        with pytest.raises(ParseError, match="two blocks"):
            formats.parse_relation_spec(f"arity 3\n{line}\n")

    @pytest.mark.parametrize("line", ["{1,2}", "{1}|{3}"])
    def test_missing_positions(self, line):
        with pytest.raises(ParseError, match="missing"):
            formats.parse_relation_spec(f"arity 3\n{line}\n")

    @pytest.mark.parametrize("line", ["{0}|{1,2,3}", "{1,2,3}|{4}"])
    def test_position_out_of_range(self, line):
        with pytest.raises(ParseError, match="outside"):
            formats.parse_relation_spec(f"arity 3\n{line}\n")

    def test_blocks_in_any_order(self):
        spec = formats.parse_relation_spec("arity 3\n{3}|{2,1}\n")
        assert spec.eligible_partitions == {(0, 0, 1)}
        assert serialize_relation_spec(spec) == "arity 3\n{1,2}|{3}\n"


class TestMchsFormat:
    def test_round_trip(self):
        text = ("vertices: a b c\ncolor a 1\ncolor b 1\ncolor c 2\n"
                "set: a c\nset: b\n")
        inst = formats.parse_mchs(text)
        assert serialize_mchs(inst) == text

    @given(vertices=st.lists(NAMES, unique=True, min_size=1, max_size=8), data=st.data())
    def test_random_instances_round_trip(self, vertices, data):
        drawn = data.draw(st.lists(st.integers(1, 4), min_size=len(vertices),
                                   max_size=len(vertices)))
        # renumber the colors in use to 1..l, so that no class is empty
        renumber = {c: i + 1 for i, c in enumerate(sorted(set(drawn)))}
        sets = data.draw(st.lists(st.lists(st.sampled_from(vertices), unique=True),
                                  max_size=4))
        inst = MchsInstance(vertices, sets, len(renumber),
                            {v: renumber[c] for v, c in zip(vertices, drawn)})
        text = serialize_mchs(inst)
        back = formats.parse_mchs(text)
        assert back == inst
        assert serialize_mchs(back) == text

    def test_empty_color_class_rejected(self):
        with pytest.raises(ParseError):
            formats.parse_mchs("vertices: a\ncolor a 2\nset: a\n")

    def test_non_integer_color(self):
        with pytest.raises(ParseError, match="color a one"):
            formats.parse_mchs("vertices: a\ncolor a one\nset: a\n")

    @pytest.mark.parametrize("text, match", [
        ("vertices: a b\nvertices: a\ncolor a 1\ncolor b 1\n", "repeated vertices"),
        ("vertices: a a b\ncolor a 1\ncolor b 1\n", "vertex listed twice"),
        ("vertices: a b\ncolor a 1\ncolor b 1\ncolor a 2\n",
         "repeated color line for vertex a"),
        ("vertices: a\ncolor a 1\ncolor z 1\n", "unknown vertices: \\['z'\\]"),
    ], ids=["vertices", "vertex", "color", "undeclared"])
    def test_repeated_and_undeclared_rejected(self, text, match):
        with pytest.raises(ParseError, match=match):
            formats.parse_mchs(text)


class TestDimacs:
    def test_parse(self):
        f = formats.parse_dimacs("c comment\np cnf 2 2\n1 -2 0\n2 0\n")
        assert f == CnfFormula(2, ((1, -2), (2,)))

    def test_round_trip(self):
        f = CnfFormula(3, ((1, -2, 3), (-1,)))
        assert formats.parse_dimacs(serialize_dimacs(f)) == f

    @given(num_vars=st.integers(1, 8), data=st.data())
    def test_random_formulas_round_trip(self, num_vars, data):
        literal = st.integers(1, num_vars).flatmap(lambda v: st.sampled_from((v, -v)))
        clauses = data.draw(st.lists(st.lists(literal, min_size=1, max_size=4), max_size=6))
        formula = CnfFormula(num_vars, tuple(map(tuple, clauses)))
        text = serialize_dimacs(formula)
        back = formats.parse_dimacs(text)
        assert back == formula
        assert serialize_dimacs(back) == text

    def test_missing_problem_line(self):
        with pytest.raises(ParseError):
            formats.parse_dimacs("1 2 0\n")

    def test_non_integer_variable_count(self):
        with pytest.raises(ParseError, match="p cnf two 1"):
            formats.parse_dimacs("p cnf two 1\n1 0\n")

    def test_non_integer_clause_count(self):
        with pytest.raises(ParseError, match="p cnf 2 x"):
            formats.parse_dimacs("p cnf 2 x\n1 0\n")

    def test_repeated_problem_line(self):
        with pytest.raises(ParseError, match="repeated problem line"):
            formats.parse_dimacs("p cnf 2 1\np cnf 3 2\n1 -2 0\n2 0\n")

    @pytest.mark.parametrize("declared", [0, 1, 3])
    def test_clause_count_must_agree(self, declared):
        with pytest.raises(ParseError, match=f"declares {declared} clauses, found 2"):
            formats.parse_dimacs(f"p cnf 2 {declared}\n1 -2 0\n2 0\n")


class TestKernelLog:
    def test_sections_present(self, wstar):
        text = formats.serialize_kernel_log(kernelize(wstar))
        lines = text.splitlines()
        for section in ("MERGES", "MARKED", "HARD", "REPS"):
            assert section in lines
        assert "s2 -> s1 : u1" in lines
        assert "s1 u1" in lines and "s3 u6" in lines

    @pytest.mark.parametrize("auth_c, rest", [
        ({"u3"}, "MARKED\nu2 u3\nHARD\n\nREPS\na u2\nc u3\n"),
        (set(), "MARKED\n\nHARD\n\nREPS\n"),
    ], ids=["reduced", "trivially-unsat"])
    def test_merged_users_in_input_user_order(self, auth_c, rest):
        # the reduced schema keeps only u2 and u3, or no user at all, so the
        # merged authorization is sorted by the input's user order
        users = tuple(f"u{i}" for i in range(1, 12))
        schema = WorkflowSchema(
            ("a", "b", "c"), users,
            {"a": set(users), "b": {"u2", "u9", "u10", "u11"}, "c": auth_c},
            (equality("a", "b"), disequality("a", "c")),
        )
        text = formats.serialize_kernel_log(kernelize(schema))
        assert text == "MERGES\nb -> a : u2 u9 u10 u11\n" + rest
