"""Command-line front end: subcommands, exit codes, and pipelines."""

import pytest

from wspkit import formats, kernel, solver
from wspkit.cli import main

from test_formats import serialize_relation_spec

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

UNSAT_TEXT = """\
tasks: a b
users: u1
auth a: u1
auth b: u1
constraint neq a b
"""


@pytest.fixture
def wstar_file(tmp_path):
    path = tmp_path / "wstar.wsp"
    path.write_text(WSTAR_TEXT)
    return str(path)


class TestSolve:
    def test_satisfiable_writes_plan(self, wstar_file, tmp_path, capsys):
        plan_path = tmp_path / "plan.txt"
        code = main(["solve", wstar_file, "--plan-out", str(plan_path)])
        assert code == 0
        assert plan_path.read_text() == "s1 u1\ns2 u1\ns3 u6\n"
        assert "status: satisfiable" in capsys.readouterr().out

    def test_both_engines_agree(self, wstar_file, tmp_path):
        for engine in ("fpt", "brute"):
            out = tmp_path / f"{engine}.txt"
            assert main(["solve", wstar_file, "--engine", engine,
                         "--plan-out", str(out)]) == 0
        assert (tmp_path / "fpt.txt").read_text() == (tmp_path / "brute.txt").read_text()

    def test_unsatisfiable(self, tmp_path):
        path = tmp_path / "unsat.wsp"
        path.write_text(UNSAT_TEXT)
        assert main(["solve", str(path)]) == 1

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "bad.wsp"
        path.write_text("tasks a b\n")
        assert main(["solve", str(path)]) == 2

    def test_missing_file(self):
        assert main(["solve", "/nonexistent/instance.wsp"]) == 2

    def test_task_name_starting_with_hash_refused(self, tmp_path, capsys):
        # a plan line '#a u' would read back as a comment
        path = tmp_path / "hash.wsp"
        path.write_text("tasks: #a b\nusers: u v\nauth #a: u\nauth b: v\n"
                        "constraint neq #a b\n")
        plan = tmp_path / "plan.txt"
        assert main(["solve", str(path), "--plan-out", str(plan)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: task names may not start with '#': ['#a']\n")
        assert not plan.exists()


    @pytest.mark.parametrize("engine", ["fpt", "brute"])
    def test_many_tasks_without_constraints(self, tmp_path, capsys, engine):
        k = 1500
        tasks = [f"t{i}" for i in range(k)]
        lines = ["tasks: " + " ".join(tasks), "users: u1 u2"]
        lines += [f"auth {t}: u1 u2" for t in tasks]
        path = tmp_path / "wide.wsp"
        path.write_text("\n".join(lines) + "\n")
        plan = tmp_path / "plan.txt"
        assert main(["solve", str(path), "--engine", engine,
                     "--plan-out", str(plan)]) == 0
        assert "status: satisfiable" in capsys.readouterr().out
        assert plan.read_text() == "".join(f"{t} u1\n" for t in tasks)

    @pytest.mark.parametrize("engine", ["fpt", "brute"])
    def test_node_budget(self, wstar_file, capsys, engine):
        assert main(["solve", wstar_file, "--engine", engine,
                     "--plan-cap", "1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: search visited more than 1 nodes (node budget plan_cap)\n"

    @pytest.mark.parametrize("engine", ["fpt", "brute"])
    def test_negative_node_budget(self, wstar_file, capsys, engine):
        assert main(["solve", wstar_file, "--engine", engine, "--plan-cap", "-3"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: plan_cap must be at least 0, got -3\n")

    def test_invalid_plan_is_an_error(self, wstar_file, monkeypatch, capsys):
        bad = solver.SolveOutcome({"s1": "u1", "s2": "u1", "s3": "u1"})
        monkeypatch.setattr(solver, "solve_fpt", lambda schema, plan_cap: bad)
        assert main(["solve", wstar_file]) == 2
        captured = capsys.readouterr()
        assert "status: satisfiable" not in captured.out
        assert "error: solver returned an invalid plan" in captured.err


class TestUnexpectedErrors:
    def test_solver_crash_exits_2(self, wstar_file, monkeypatch, capsys):
        def crash(schema, plan_cap):
            raise RuntimeError("boom")

        monkeypatch.setattr(solver, "solve_fpt", crash)
        assert main(["solve", wstar_file]) == 2
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert err.endswith("error: unexpected RuntimeError: boom\n")

    def test_kernel_recursion_exits_2(self, wstar_file, tmp_path, monkeypatch, capsys):
        def crash(schema):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(kernel, "kernelize", crash)
        assert main(["kernelize", wstar_file, "--out", str(tmp_path / "o.wsp")]) == 2
        assert "error: unexpected RecursionError" in capsys.readouterr().err


class TestInvalidInstance:
    @pytest.mark.parametrize("text, fault", [
        ("tasks: a b\nusers: u\nauth a: u zz\nauth b: u\n",
         "authorization of a names unknown users: ['zz']"),
        ("tasks: a b\nusers: u v\nauth a: u\nauth b: v\nconstraint neq a ghost\n",
         "constraint #0 (neq a ghost) names unknown tasks: ['ghost']"),
        ("tasks: a b a\nusers: u\nauth a: u\nauth b: u\n", "duplicate task identifiers"),
        ("tasks: a\nusers: u\nauth a: u\nauth b: u\n",
         "authorization for unknown tasks: ['b']"),
    ], ids=["unknown-user", "unknown-task", "duplicate-task", "unknown-auth"])
    @pytest.mark.parametrize("command", ["solve", "verify", "kernelize"])
    def test_exits_2_naming_the_fault(self, tmp_path, capsys, command, text, fault):
        instance, plan, out = (tmp_path / name for name in ("bad.wsp", "plan.txt", "out.wsp"))
        instance.write_text(text)
        plan.write_text("a u\nb u\n")
        argv = {"solve": ["solve", str(instance)],
                "verify": ["verify", str(instance), str(plan)],
                "kernelize": ["kernelize", str(instance), "--out", str(out)]}[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: invalid instance: {fault}\n"
        assert not out.exists()


class TestVerify:
    def test_valid_plan(self, wstar_file, tmp_path):
        plan = tmp_path / "plan.txt"
        plan.write_text("s1 u1\ns2 u1\ns3 u6\n")
        assert main(["verify", wstar_file, str(plan)]) == 0

    def test_violations_listed(self, wstar_file, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_text("s1 u1\ns2 u1\ns3 u1\n")
        assert main(["verify", wstar_file, str(plan)]) == 1
        out = capsys.readouterr().out
        assert "violation [eligible]: constraint #1 (neq s1 s3) is violated" in out.splitlines()

    def test_undeclared_task_in_plan(self, wstar_file, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_text("s1 u1\ns2 u1\ns3 u6\nx u1\n")
        assert main(["verify", wstar_file, str(plan)]) == 1
        assert capsys.readouterr().out == "violation [complete]: unknown task x assigned\n"

    def test_incomplete_plan(self, wstar_file, tmp_path, capsys):
        plan = tmp_path / "plan.txt"
        plan.write_text("s1 u1\n")
        assert main(["verify", wstar_file, str(plan)]) == 1
        assert "complete" in capsys.readouterr().out


class TestKernelize:
    def test_reduces_running_example(self, wstar_file, tmp_path, capsys):
        out = tmp_path / "reduced.wsp"
        log = tmp_path / "kernel.log"
        code = main(["kernelize", wstar_file, "--out", str(out),
                     "--log", str(log)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "users: 6 -> 2" in printed
        reduced = formats.parse_instance(out.read_text())
        assert reduced.tasks == ("s1", "s3")
        assert len(reduced.users) == 2
        assert "MERGES" in log.read_text()

    def test_dead_end_keeps_the_tasks(self, tmp_path, capsys):
        path = tmp_path / "dead.wsp"
        path.write_text("tasks: a b c\nusers: u\nauth a: u\nauth b: u\nauth c: u\n"
                        "constraint eq a c\nconstraint neq a b\nconstraint eq c b\n")
        log = tmp_path / "kernel.log"
        assert main(["kernelize", str(path), "--out", str(tmp_path / "o.wsp"),
                     "--log", str(log)]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("tasks: 3 -> 3\nusers: 1 -> 0\nconstraints: 3 -> 3\n")
        assert "verdict: trivially-unsat" in printed
        assert log.read_text() == "MERGES\nMARKED\n\nHARD\n\nREPS\n"

    def test_rejects_atmost(self, tmp_path):
        path = tmp_path / "atmost.wsp"
        path.write_text("tasks: a b c\nusers: u\nauth a: u\nauth b: u\n"
                        "auth c: u\nconstraint atmost 2 {a,b,c}\n")
        assert main(["kernelize", str(path), "--out",
                     str(tmp_path / "o.wsp")]) == 2

    def test_set_written_with_spaces(self, tmp_path, capsys):
        path = tmp_path / "spaced.wsp"
        path.write_text("tasks: a b\nusers: u\nauth a: u\nauth b: u\n"
                        "constraint sep {a} {b, a}\n")
        assert main(["kernelize", str(path), "--out", str(tmp_path / "o.wsp")]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: task set '{b, a}' has spaces; "
                                "write sets without spaces\n")

    def test_long_chained_authorization(self, tmp_path, capsys):
        # t0: u0, ti: u(i-1) ui; matching the tasks in order walks
        # augmenting paths as long as the chain
        k = 3000
        lines = ["tasks: " + " ".join(f"t{i}" for i in range(k)),
                 "users: " + " ".join(f"u{i}" for i in range(k)),
                 "auth t0: u0"]
        lines += [f"auth t{i}: u{i - 1} u{i}" for i in range(1, k)]
        path = tmp_path / "chain.wsp"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "reduced.wsp"
        assert main(["kernelize", str(path), "--out", str(out)]) == 0
        assert "verdict: reduced" in capsys.readouterr().out
        reduced = formats.parse_instance(out.read_text())
        assert len(reduced.users) <= len(reduced.tasks) == k

    def test_path_with_line_breaks_stays_in_the_header(self, tmp_path, capsys):
        path = tmp_path / "x\ntasks: z.wsp"
        path.write_text(WSTAR_TEXT)
        out = tmp_path / "reduced.wsp"
        assert main(["kernelize", str(path), "--out", str(out)]) == 0
        text = out.read_text()
        reduced = formats.parse_instance(text)
        assert reduced.tasks == ("s1", "s3")
        head, tail = str(path).split("\n")
        assert text.startswith(f"# kernelized from {head}\n# {tail}\n# verdict: reduced\n")

    def test_pipeline_kernelize_solve_verify(self, wstar_file, tmp_path):
        reduced = tmp_path / "reduced.wsp"
        assert main(["kernelize", wstar_file, "--out", str(reduced)]) == 0
        plan = tmp_path / "plan.txt"
        assert main(["solve", str(reduced), "--plan-out", str(plan)]) == 0
        assert main(["verify", str(reduced), str(plan)]) == 0


class TestClassify:
    def test_binding_singleton_side(self, capsys):
        assert main(["classify", "--constraint", "bind {1} {2,3}"]) == 0
        assert capsys.readouterr().out == (
            "arity: 3\n"
            "regular: yes\n"
            "intersection-closed: no\n"
            "  witness: [1, 2] and [1, 3]\n"
            "ternary-gadget condition: yes\n")

    def test_disequality(self, capsys):
        assert main(["classify", "--constraint", "neq 1 2"]) == 0
        out = capsys.readouterr().out
        assert "regular: yes" in out and "intersection-closed: yes" in out

    @pytest.mark.parametrize("line, out", [
        ("bind {1,2} {3,4}",
         "arity: 4\nregular: no\n  counterexample partition: {1}|{2}|{3}|{4}\n"),
        ("atmost 2 {1,2,3}",
         "arity: 3\nregular: no\n  counterexample partition: {1}|{2}|{3}\n"
         "ternary-gadget condition: yes\n"),
        ("neq 1 2", "arity: 2\nregular: yes\nintersection-closed: yes\n"),
    ], ids=["not-regular", "not-regular-ternary", "closed"])
    def test_exact_output(self, capsys, line, out):
        assert main(["classify", "--constraint", line]) == 0
        assert capsys.readouterr() == (out, "")

    @pytest.mark.parametrize("line", [
        "peruser 2 3 {1,1,2,3}", "bind {1} {1,2}", "sep {1,2} {2,3}", "bind {a,b} {c,d}",
    ])
    def test_verdicts_match_classification(self, capsys, line):
        from wspkit.constraints import classification

        assert main(["classify", "--constraint", line]) == 0
        out = capsys.readouterr().out
        regular, closed = classification(formats.parse_constraint_line(line.split()))
        assert f"regular: {'yes' if regular else 'no'}\n" in out
        if closed is None:
            assert "intersection-closed" not in out
        else:
            assert f"intersection-closed: {'yes' if closed else 'no'}\n" in out

    @pytest.mark.parametrize("line, arity", [
        ("eq 1 2", 2), ("neq 1 2", 2), ("atmost 1 {1,2,3}", 3), ("sep {1} {2,3}", 3),
        ("peruser 2 3 {1,1,2,3}", 3), ("bind {1} {1,2}", 2), ("eq 1 1", 1),
    ])
    def test_arity_counts_distinct_tasks(self, capsys, line, arity):
        assert main(["classify", "--constraint", line]) == 0
        assert capsys.readouterr().out.startswith(f"arity: {arity}\n")

    @pytest.mark.parametrize("line", [
        "eq a b", "atmost 2 {a,b,c}", "bind {a} {b,c}", "sep {a,b} {c}",
        "peruser 1 2 {a,b,c}",
    ])
    def test_same_output_as_its_spec_file(self, tmp_path, capsys, line):
        from wspkit.classify import spec_from_constraint

        assert main(["classify", "--constraint", line]) == 0
        inline = capsys.readouterr().out
        path = tmp_path / "rel.spec"
        path.write_text(serialize_relation_spec(
            spec_from_constraint(formats.parse_constraint_line(line.split()))))
        assert main(["classify", str(path)]) == 0
        assert capsys.readouterr().out == inline

    def test_two_sided_binding_spec_file(self, tmp_path, capsys):
        from wspkit.classify import spec_from_constraint
        from wspkit.core import binding

        spec = spec_from_constraint(binding(("a", "b"), ("c", "d")))
        path = tmp_path / "rel.spec"
        path.write_text(serialize_relation_spec(spec))
        assert main(["classify", str(path)]) == 0
        assert "regular: no" in capsys.readouterr().out

    def test_needs_spec_or_constraint(self, capsys):
        assert main(["classify"]) == 2

    @pytest.mark.parametrize("argv", [[], ["--constraint", ""]], ids=["none", "empty"])
    def test_needs_spec_or_constraint_message(self, capsys, argv):
        assert main(["classify", *argv]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: classify needs a spec file or --constraint\n")

    @pytest.mark.parametrize("line", ["bind {1} {2,3}", "eq 1 2", ""],
                             ids=["bind", "same-as-spec", "empty"])
    def test_spec_and_constraint_refused(self, tmp_path, capsys, line):
        path = tmp_path / "eq.spec"
        path.write_text("arity 2\n{1,2}\n")
        assert main(["classify", str(path), "--constraint", line]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: classify takes a spec file or --constraint, not both\n")

    def test_malformed_spec_position(self, tmp_path, capsys):
        path = tmp_path / "rel.spec"
        path.write_text("arity 2\n{1,x}\n")
        assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err

    @pytest.mark.parametrize("line", [
        "{1,2}|{2,3}", "{1}|{1,2}|{3}", "{1,2}", "{1}|{3}", "{1,2,3}|{4}",
    ], ids=["overlap", "repeat", "missing", "gap", "out-of-range"])
    def test_spec_positions_not_a_partition(self, tmp_path, capsys, line):
        path = tmp_path / "rel.spec"
        path.write_text(f"arity 3\n{{1,2,3}}\n{line}\n")
        assert main(["classify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_arity_cap_bounds_spec_files(self, tmp_path, capsys):
        # Bell(16) is about 10^10 partitions: without the cap this runs for hours
        path = tmp_path / "rel.spec"
        path.write_text("arity 16\n{%s}\n" % ",".join(map(str, range(1, 17))))
        assert main(["classify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: arity 16 exceeds the enumeration cap 8\n"

    @pytest.mark.parametrize("lines", [["{1}"], ["{1,x}", "{0}|{0}"], []],
                             ids=["missing-positions", "malformed", "no-partition"])
    def test_arity_cap_applies_at_the_arity_line(self, tmp_path, capsys, lines):
        path = tmp_path / "rel.spec"
        path.write_text("\n".join(["arity 100000", *lines]) + "\n")
        assert main(["classify", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: arity 100000 exceeds the enumeration cap 8\n")

    def test_arity_cap_admits_spec_at_the_cap(self, tmp_path, capsys):
        for arity in (8, 9):
            path = tmp_path / f"rel{arity}.spec"
            path.write_text("arity %d\n{%s}\n" % (arity, ",".join(map(str, range(1, arity + 1)))))
        assert main(["classify", str(tmp_path / "rel8.spec")]) == 0
        assert capsys.readouterr().err == ""
        assert main(["classify", str(tmp_path / "rel9.spec")]) == 2
        assert capsys.readouterr().err == "error: arity 9 exceeds the enumeration cap 8\n"

    @pytest.mark.parametrize("line, message", [
        ("  ", "empty constraint"),
        ("foo {1,2}", "unknown constraint kind 'foo'"),
        ("bind {1, 2} {3}", "task set '{1, 2}' has spaces; write sets without spaces"),
        ("neq 1", "neq takes 2 arguments, got 1"),
        ("atmost x {1,2,3}", "bad constraint 'atmost x {1,2,3}': "
                             "invalid literal for int() with base 10: 'x'"),
        ("peruser 3 2 {1,2,3}", "bad constraint 'peruser 3 2 {1,2,3}': "
                                "peruser takes 2 integer bounds rising from 1, got (3, 2)"),
        ("peruser 2 2 {1,1,2,2,3}", "constraint is unsatisfiable; no eligible partition"),
        ("peruser 3 {1,2,3}", "peruser takes 3 arguments, got 2"),
        ("eq 1 2 3", "eq takes 2 arguments, got 3"),
        ("sep {} {1}", "empty task set"),
        ("sep {1,2} {3", "expected a {...} task set, got '{3'"),
        ("atmost 0 {1,2}", "bad constraint 'atmost 0 {1,2}': "
                           "atmost takes 1 integer bounds rising from 1, got (0,)"),
        ("neq 1 1", "constraint is unsatisfiable; no eligible partition"),
        ("sep {1} {1}", "constraint is unsatisfiable; no eligible partition"),
    ], ids=["empty", "unknown-kind", "spaced-set", "argument-count", "non-integer",
            "falling-bounds", "unsatisfiable", "one-bound", "extra-argument", "empty-set",
            "unclosed-set", "bound-below-one", "neq-repeated-task", "sep-same-set"])
    def test_malformed_constraint(self, capsys, line, message):
        assert main(["classify", "--constraint", line]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


class TestReduce:
    def test_sat(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 2\n1 -2 0\n2 0\n")
        out = tmp_path / "inst.wsp"
        assert main(["reduce", cnf.as_posix(), "--from", "sat",
                     "--out", str(out)]) == 0
        schema = formats.parse_instance(out.read_text())
        assert len(schema.tasks) == 5 and len(schema.users) == 2

    def test_mchs_counts(self, tmp_path):
        doc = tmp_path / "h.mchs"
        doc.write_text(
            "vertices: a b c d e f\n"
            "color a 1\ncolor b 1\ncolor c 2\ncolor d 2\n"
            "color e 3\ncolor f 3\n"
            "set: a c e\nset: b d\nset: a f\nset: c\n"
        )
        out = tmp_path / "inst.wsp"
        assert main(["reduce", str(doc), "--from", "mchs",
                     "--gadget", "atmost2", "--out", str(out)]) == 0
        schema = formats.parse_instance(out.read_text())
        assert len(schema.tasks) == 11  # (l-1)m + l with l=3, m=4
        assert len(schema.constraints) == 8  # (l-1)m

    def test_mchs_one_color(self, tmp_path, capsys):
        # one chooser task, authorized for the vertices in every set
        doc = tmp_path / "h.mchs"
        doc.write_text("vertices: a b c\ncolor a 1\ncolor b 1\ncolor c 1\n"
                       "set: a b\nset: b c\n")
        out = tmp_path / "inst.wsp"
        assert main(["reduce", str(doc), "--from", "mchs",
                     "--gadget", "atmost2", "--out", str(out)]) == 0
        header = [f"# reduced from MCHS {doc} with gadget atmost2",
                  "# colors: 1 sets: 2", "# tasks: 1 constraints: 0"]
        assert out.read_text() == "\n".join(
            header + ["tasks: s1", "users: a b c", "auth s1: b"]) + "\n"
        assert capsys.readouterr().err == "\n".join(header) + "\n"

    def test_unknown_gadget(self, tmp_path):
        doc = tmp_path / "h.mchs"
        doc.write_text("vertices: a b\ncolor a 1\ncolor b 2\n"
                       "set: a\nset: b\n")
        assert main(["reduce", str(doc), "--from", "mchs",
                     "--gadget", "neq"]) == 2

    @pytest.mark.parametrize("source, text", [
        ("mchs", "vertices: a b\ncolor a one\ncolor b 2\nset: a\nset: b\n"),
        ("sat", "p cnf two 1\n1 0\n"),
        ("sat", "p cnf 2 x\n1 0\n"),
    ])
    def test_malformed_integer(self, tmp_path, capsys, source, text):
        doc = tmp_path / "input.txt"
        doc.write_text(text)
        assert main(["reduce", str(doc), "--from", source]) == 2
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err

    @pytest.mark.parametrize("source, text, message", [
        ("mchs", "vertices: a a b\ncolor a 1\ncolor b 2\nset: a\n",
         "vertex listed twice: ['a']"),
        ("mchs", "vertices: a b\nvertices: a\ncolor a 1\ncolor b 2\nset: a\n",
         "repeated vertices: line"),
        ("mchs", "vertices: a b\ncolor a 1\ncolor b 2\ncolor b 1\nset: a\n",
         "repeated color line for vertex b"),
        ("mchs", "vertices: a b\ncolor a 1\ncolor b 2\ncolor c 2\nset: a\n",
         "colors for unknown vertices: ['c']"),
        ("sat", "p cnf 2 1\np cnf 2 2\n1 0\n2 0\n",
         "repeated problem line: 'p cnf 2 2'"),
    ], ids=["vertex-twice", "vertices-line", "color-line", "undeclared", "problem-line"])
    def test_repeated_lines(self, tmp_path, capsys, source, text, message):
        doc = tmp_path / "input.txt"
        doc.write_text(text)
        assert main(["reduce", str(doc), "--from", source]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("p cnf 0 0\n", "formula must have at least one variable"),
        ("p cnf 2 1\n1 3 0\n", "literal 3 out of range"),
    ], ids=["no-variables", "past-range"])
    def test_malformed_formula(self, tmp_path, capsys, text, message):
        cnf = tmp_path / "f.cnf"
        cnf.write_text(text)
        assert main(["reduce", str(cnf), "--from", "sat"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_clause_count_disagrees(self, tmp_path, capsys):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 2\n1 0\n")
        assert main(["reduce", str(cnf), "--from", "sat"]) == 2
        err = capsys.readouterr().err
        assert err == "error: problem line declares 2 clauses, found 1\n"


class TestGenerate:
    def test_parameters_echoed(self, tmp_path):
        out = tmp_path / "gen.wsp"
        assert main(["generate", "--tasks", "4", "--users", "6",
                     "--constraints", "3", "--seed", "7",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "seed=7" in text
        schema = formats.parse_instance(text)
        assert len(schema.tasks) == 4 and len(schema.users) == 6

    @pytest.mark.parametrize("density", ["7", "-0.5", "nan"])
    def test_density_out_of_range(self, tmp_path, capsys, density):
        out = tmp_path / "gen.wsp"
        assert main(["generate", "--tasks", "3", "--users", "3", "--constraints", "1",
                     "--density", density, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        lines = captured.err.splitlines()
        assert lines == [f"error: authorization density must lie in [0, 1], got {float(density)}"]

    def test_empty_kind_mix(self, tmp_path, capsys):
        out = tmp_path / "gen.wsp"
        assert main(["generate", "--tasks", "3", "--users", "3", "--constraints", "1",
                     "--kinds", ",", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: kind mix must be nonempty\n")
        assert not out.exists()

    def test_deterministic(self, tmp_path):
        args = ["generate", "--tasks", "3", "--users", "3",
                "--constraints", "2", "--seed", "5"]
        a, b = tmp_path / "a.wsp", tmp_path / "b.wsp"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_text() == b.read_text()
