"""Command-line front end.

Exit codes: 0 = satisfiable / valid / success, 1 = unsatisfiable / invalid,
2 = error (parse failure, classification failure, bad arguments, or any
unexpected exception, so that a crash is never read as a verdict).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from pathlib import Path

from wspkit import classify as cls
from wspkit import formats, kernel, reductions, solver
from wspkit.core import CATALOG, PAIR, SETS, is_valid_plan
from wspkit.errors import ContractError, WspError
from wspkit.formats import parse_constraint_line


def _read(path: str) -> str:
    return Path(path).read_text()


def _write_out(text: str, path: str | None) -> None:
    """Write text to the file at path, or to stdout when no path is given."""
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    schema = formats.parse_instance(_read(args.instance))
    engine = solver.solve_fpt if args.engine == "fpt" else solver.solve_bruteforce
    outcome = engine(schema, plan_cap=args.plan_cap)
    if outcome.satisfiable and not is_valid_plan(schema, outcome.plan):
        raise ContractError("solver returned an invalid plan")
    print(f"status: {outcome.status}")
    if not outcome.satisfiable:
        return 1
    _write_out(formats.serialize_plan(outcome.plan, schema.tasks), args.plan_out)
    return 0


def cmd_verify(args) -> int:
    schema = formats.parse_instance(_read(args.instance))
    plan = formats.parse_plan(_read(args.plan))
    verdict = is_valid_plan(schema, plan)
    if verdict:
        print("valid")
        return 0
    for v in verdict.violations:
        print(f"violation [{v.check}]: {v.detail}")
    return 1


def cmd_kernelize(args) -> int:
    schema = formats.parse_instance(_read(args.instance))
    result = kernel.kernelize(schema)
    reduced = result.schema
    print(f"tasks: {len(schema.tasks)} -> {len(reduced.tasks)}")
    print(f"users: {len(schema.users)} -> {len(reduced.users)}")
    print(f"constraints: {len(schema.constraints)} -> {len(reduced.constraints)}")
    print(f"verdict: {result.verdict}")
    header = [
        f"kernelized from {args.instance}",
        f"verdict: {result.verdict}",
    ]
    Path(args.out).write_text(formats.serialize_instance(reduced, header))
    if args.log:
        Path(args.log).write_text(formats.serialize_kernel_log(result))
    return 0


def _spec_from_args(args) -> cls.RelationSpec:
    if args.spec:
        spec = formats.parse_relation_spec(_read(args.spec))
        cls.check_arity(spec.arity, args.arity_cap)
        return spec
    kind = args.kind
    if not kind:
        raise WspError("classify needs a spec file or --kind")
    entry = CATALOG.get(kind)
    if entry is None:
        raise WspError(f"unknown kind {kind!r}")
    shape, bounds = entry
    arity = (2 if shape == PAIR else 3) if args.arity is None else args.arity
    if arity < 1:
        raise WspError(f"--arity must be at least 1, got {arity}")
    # default bounds: 2 for one bound, 1,2 for two
    params = args.params.split(",") if args.params else ["1", "2"][2 - bounds:]
    if len(params) != bounds:
        raise WspError(f"{kind} takes {bounds} --params values, got {args.params!r}")
    if shape != SETS and args.split is not None:
        raise WspError(f"{kind} has no two task sets to split, got --split {args.split}")
    names = [str(i) for i in range(1, arity + 1)]
    if shape == PAIR:
        if arity != 2:
            raise WspError(f"{kind} has arity 2, got --arity {arity}")
        tokens = [kind, *names]
    elif shape == SETS:
        if arity < 2:
            raise WspError(f"{kind} takes two task sets, so --arity must be at least 2, "
                           f"got {arity}")
        split = 1 if args.split is None else args.split
        if not 1 <= split < arity:
            raise WspError(f"--split must lie in 1..{arity - 1}, got {split}")
        tokens = [kind,
                  "{%s}" % ",".join(names[:split]),
                  "{%s}" % ",".join(names[split:])]
    else:
        tokens = [kind, *params, "{%s}" % ",".join(names)]
    constraint = parse_constraint_line(tokens)
    return cls.spec_from_constraint(constraint, arity_cap=args.arity_cap)


def cmd_classify(args) -> int:
    spec = _spec_from_args(args)
    print(f"arity: {spec.arity}")
    reg = cls.is_regular(spec)
    print(f"regular: {'yes' if reg.regular else 'no'}")
    if not reg.regular:
        print("  counterexample partition: "
              + formats.format_partition(reg.counterexample))
    else:
        closed = cls.is_intersection_closed(spec)
        print(f"intersection-closed: {'yes' if closed.intersection_closed else 'no'}")
        if not closed.intersection_closed:
            a, b = closed.witness
            print(f"  witness: {sorted(a)} and {sorted(b)}")
    if spec.arity == 3:
        ok = cls.matches_ternary_condition(spec)
        print(f"ternary-gadget condition: {'yes' if ok else 'no'}")
    return 0


def cmd_reduce(args) -> int:
    if args.source == "sat":
        formula = formats.parse_dimacs(_read(args.input))
        schema = reductions.sat_to_wsp(formula)
        header = [
            f"reduced from CNF {args.input}",
            f"variables: {formula.num_vars} clauses: {len(formula.clauses)}",
            f"tasks: {len(schema.tasks)} (= 2n+1) users: {len(schema.users)}",
        ]
    else:
        inst = formats.parse_mchs(_read(args.input))
        gadget = reductions.GADGETS.get(args.gadget)
        if gadget is None:
            raise WspError(
                f"unknown gadget {args.gadget!r}; choose from "
                + ", ".join(sorted(reductions.GADGETS))
            )
        schema = reductions.mchs_to_wsp(inst, gadget)
        header = [
            f"reduced from MCHS {args.input} with gadget {gadget.name}",
            f"colors: {inst.num_colors} sets: {len(inst.sets)}",
            f"tasks: {len(schema.tasks)} constraints: {len(schema.constraints)}",
        ]
    _write_out(formats.serialize_instance(schema, header), args.out)
    for line in header:
        print(f"# {line}", file=sys.stderr)
    return 0


def cmd_generate(args) -> int:
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    schema = reductions.gen_random_instance(
        args.tasks, args.users, args.constraints, kinds, args.seed, args.density
    )
    header = [
        f"generated: tasks={args.tasks} users={args.users} "
        f"constraints={args.constraints}",
        f"kinds={args.kinds} density={args.density} seed={args.seed}",
    ]
    _write_out(formats.serialize_instance(schema, header), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsp", description="Workflow satisfiability toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide an instance and emit a plan")
    p.add_argument("instance")
    p.add_argument("--engine", choices=("fpt", "brute"), default="fpt")
    p.add_argument("--plan-out")
    p.add_argument("--plan-cap", type=int, default=solver.DEFAULT_PLAN_CAP,
                   help="search-node budget of either engine (default %(default)s)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check a plan against an instance")
    p.add_argument("instance")
    p.add_argument("plan")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("kernelize", help="reduce users to at most the task count")
    p.add_argument("instance")
    p.add_argument("--out", required=True)
    p.add_argument("--log")
    p.set_defaults(func=cmd_kernelize)

    p = sub.add_parser("classify", help="classify a relation")
    p.add_argument("spec", nargs="?", help="relation spec file")
    p.add_argument("--kind", help="catalog kind instead of a spec file")
    p.add_argument("--params", help="comma-separated integer parameters")
    p.add_argument("--arity", type=int, help="default 2 for two-task kinds, else 3")
    p.add_argument("--split", type=int,
                   help="left set size for two-set kinds (default 1)")
    p.add_argument("--arity-cap", type=int, default=cls.DEFAULT_ARITY_CAP,
                   help="largest arity to classify, for a spec file or --kind "
                        "(default %(default)s)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("reduce", help="build a WSP instance from SAT or MCHS")
    p.add_argument("input")
    p.add_argument("--from", dest="source", choices=("sat", "mchs"), required=True)
    p.add_argument("--gadget", default="bind-singleton")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("generate", help="generate a random instance")
    p.add_argument("--tasks", type=int, required=True)
    p.add_argument("--users", type=int, required=True)
    p.add_argument("--constraints", type=int, required=True)
    p.add_argument("--kinds", default="neq,peruser")
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (WspError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
