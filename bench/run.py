"""wspkit benchmark: three verdict-checked workloads and an outside-in layer trace.

Usage, from the repository root:

    python3 bench/run.py --workload search --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1            # every workload, one process each

Each workload runs in its own single-threaded process as a closed loop with
one caller: it decides one instance at a time, taking it from instance text
through wspkit's path to a result that the benchmark then checks against a
reference that does not use the code under test. Instances come from the
seed alone. The measured loop runs whole cycles of the workload's instance
mix until ``--seconds`` of wall time have passed. ``gc.collect()`` runs
between instances, outside the measured region. Instance and set-up times
are scaled to the machine's reference speed, measured by a calibration
slice next to them (calibration.py).

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run (see bench/README.md). A wrong verdict, an invalid plan or a
broken kernel bound makes the run exit with status 1, and so does an
instance that raises: it counts as failed. Without the wspkit sources
under src/ the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from random import Random
from time import perf_counter
from types import SimpleNamespace
from typing import Callable

import calibration
import instances as gen
from reference import parse_instance as parse_reference
from reference import plan_violations
from tracing import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"

# Set-up is repeated at least SETUPS times, and until SETUP_SECONDS have
# passed, per run; setup_s is the median. A short set-up is dominated by
# the import, whose time is noisy, so it is repeated more often.
SETUPS = 3
SETUP_SECONDS = 2.0
# The tail is the highest percentile with this many samples beyond it.
TAIL_BEYOND = 10


# --- workloads --------------------------------------------------------------


def search_cycle(rng: Random) -> list[gen.Draw]:
    """Every family with both verdicts, k = 7..9.

    Unsatisfiable instances walk all Bell(k) partitions at a steady cost;
    satisfiable ones stop early at a cost that varies widely from instance
    to instance. Satisfiable k = 10 instances and n = 4 CNF sources have
    coefficients of variation above 0.9 and swamped the run-to-run spread,
    so the largest instance is the k = 9 pigeonhole. The 7-task pigeonhole
    comes three times so that the median instance falls in a tight cluster.
    """
    return [
        gen.planted_search(rng, 7),
        gen.planted_search(rng, 8),
        gen.planted_search(rng, 9),
        gen.pigeonhole(rng, 7),
        gen.pigeonhole(rng, 7),
        gen.pigeonhole(rng, 7),
        gen.pigeonhole(rng, 8),
        gen.pigeonhole(rng, 9),
        gen.cnf(rng, 3, True),
        gen.cnf(rng, 3, False),
        gen.hitting_set(rng, 2, 5, "bind-singleton", True),
        gen.hitting_set(rng, 2, 5, "bind-singleton", False),
        gen.hitting_set(rng, 2, 6, "atmost2", True),
        gen.hitting_set(rng, 2, 6, "atmost2", False),
    ]


MERGE_TASKS, MERGE_USERS = 240, 600


def kernel_merge_cycle(rng: Random) -> list[gen.Draw]:
    return [
        gen.kernel_merge(rng, MERGE_TASKS, MERGE_USERS, groups, satisfiable)
        for satisfiable in (True, False)
        for groups in (6, 7, 8)
    ]


def kernel_mark_cycle(rng: Random) -> list[gen.Draw]:
    """Three sizes with four users per task, to show how marking scales.

    Their costs vary by about a fifth from one instance to the next, so the
    sizes are kept small enough for a run to hold about 80 of each.
    """
    return [gen.kernel_mark(rng, tasks, 4 * tasks) for tasks in (100, 175, 250)]


def solve_path(wsp, text: str):
    """parse -> validate -> solve_fpt -> verify."""
    schema = _parse_valid(wsp, text)
    outcome = wsp.solver.solve_fpt(schema)
    plan = outcome.plan if outcome.satisfiable else None
    verified = bool(wsp.core.is_valid_plan(schema, plan)) if plan is not None else None
    return SimpleNamespace(outcome=outcome, plan=plan, verified=verified)


def kernel_solve_path(wsp, text: str):
    """parse -> validate -> kernelize -> solve_fpt -> lift_plan -> verify."""
    schema = _parse_valid(wsp, text)
    kernel = wsp.kernel.kernelize(schema)
    outcome = wsp.solver.solve_fpt(kernel.schema)
    plan = wsp.kernel.lift_plan(kernel, outcome.plan) if outcome.satisfiable else None
    verified = bool(wsp.core.is_valid_plan(schema, plan)) if plan is not None else None
    return SimpleNamespace(
        schema=schema, kernel=kernel, outcome=outcome, plan=plan, verified=verified
    )


def kernelize_path(wsp, text: str):
    """parse -> validate -> kernelize -> serialize reduced instance and log."""
    schema = _parse_valid(wsp, text)
    kernel = wsp.kernel.kernelize(schema)
    header = [f"verdict: {kernel.verdict}"]
    reduced_text = wsp.formats.serialize_instance(kernel.schema, header)
    log_text = wsp.formats.serialize_kernel_log(kernel)
    return SimpleNamespace(
        schema=schema, kernel=kernel, header=header, reduced_text=reduced_text, log_text=log_text
    )


def _parse_valid(wsp, text: str):
    schema = wsp.formats.parse_instance(text)
    report = wsp.core.validate_schema(schema)
    if report.errors:
        raise ValueError("invalid instance: " + "; ".join(report.errors))
    return schema


def check_solution(wsp, inst: gen.Instance, result) -> list[str]:
    """Verdict against the reference; a plan against the reference checker."""
    found = result.outcome.satisfiable
    if found != inst.satisfiable:
        return [f"{inst.family}: wspkit says {result.outcome.status}, "
                f"reference says satisfiable={inst.satisfiable}"]
    if not found:
        return []
    problems = plan_violations(parse_reference(inst.text), dict(result.plan.items()))
    if not result.verified:
        problems.append("wspkit's own verification rejected the plan")
    return [f"{inst.family}: invalid plan: {p}" for p in problems]


def check_kernel(wsp, inst: gen.Instance, result, header=()) -> list[str]:
    """Kernel bounds, verdict, schema validity and a byte-exact round trip."""
    original, kernel = result.schema, result.kernel
    reduced = kernel.schema
    k, n, m = len(original.tasks), len(original.users), len(original.constraints)
    k2, n2, m2 = len(reduced.tasks), len(reduced.users), len(reduced.constraints)
    problems = []
    if not (k2 <= k and n2 <= k2 and m2 <= m):
        problems.append(f"kernel bound broken: k'={k2} k={k} n'={n2} m'={m2} m={m}")
    if inst.satisfiable and kernel.verdict != wsp.kernel.REDUCED:
        problems.append(f"verdict {kernel.verdict} on a satisfiable instance")
    if wsp.core.validate_schema(reduced).errors:
        problems.append("reduced schema fails validate_schema")
    text = wsp.formats.serialize_instance(reduced, header)
    if wsp.formats.serialize_instance(wsp.formats.parse_instance(text), header) != text:
        problems.append("reduced schema does not round-trip through formats")
    return [f"{inst.family}: {p}" for p in problems]


def check_kernel_solve(wsp, inst, result) -> list[str]:
    return check_kernel(wsp, inst, result) + check_solution(wsp, inst, result)


def check_kernelize(wsp, inst, result) -> list[str]:
    problems = check_kernel(wsp, inst, result, result.header)
    if result.reduced_text != wsp.formats.serialize_instance(result.kernel.schema, result.header):
        problems.append(f"{inst.family}: serialized reduced instance is not canonical")
    reduced = parse_reference(result.reduced_text)
    if inst.satisfiable and not all(reduced.auth[t] for t in reduced.tasks):
        problems.append(f"{inst.family}: a task of a satisfiable instance lost every user")
    marked_line = result.log_text.split("MARKED\n", 1)[1].split("\n", 1)[0]
    if set(marked_line.split()) != set(reduced.users):
        problems.append(f"{inst.family}: kernel log MARKED line differs from the reduced users")
    return problems


@dataclass(frozen=True)
class Workload:
    cycle: Callable
    run: Callable
    check: Callable
    # Cycles built per second of run length: about 1.25 times the rate
    # measured when the workload was defined, so the loop rarely wraps.
    cycles_per_second: float


WORKLOADS = {
    "search": Workload(search_cycle, solve_path, check_solution, 0.85),
    "kernel-merge": Workload(kernel_merge_cycle, kernel_solve_path, check_kernel_solve, 1.0),
    "kernel-mark": Workload(kernel_mark_cycle, kernelize_path, check_kernelize, 2.5),
}


# --- set-up -----------------------------------------------------------------


def import_wspkit():
    """Import wspkit afresh from this checkout's src/ directory."""
    for name in [m for m in sys.modules if m == "wspkit" or m.startswith("wspkit.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    wsp = SimpleNamespace(
        **{
            name: importlib.import_module(f"wspkit.{name}")
            for name in ("core", "formats", "kernel", "solver", "reductions")
        }
    )
    origin = Path(wsp.core.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"wspkit was imported from {origin}, not from {SRC}")
    return wsp


def draw_cycles(workload: Workload, name: str, seed: int, cycles: int) -> list:
    """The seed's random choices and reference verdicts; no wspkit code runs."""
    return [workload.cycle(Random(f"{name}:{seed}:{i}")) for i in range(cycles)]


def set_up(draws: list):
    """Import wspkit, then have it make and serialize the drawn instances.

    A calibration slice runs before the import, before each cycle's
    instances and at the end, and each part is scaled by the slices around
    it. Returns the module namespace, the instance pool, the set-up's wall
    time, its time at the reference speed, and the wall time spent making
    and serializing ``reductions`` instances.
    """
    slices, parts = [calibration.slice_seconds()], []
    start = perf_counter()
    wsp = import_wspkit()
    parts.append(perf_counter() - start)
    pool, reductions_s = [], 0.0
    for cycle in draws:
        slices.append(calibration.slice_seconds())
        start = perf_counter()
        built = []
        for draw in cycle:
            made = perf_counter()
            built.append(gen.build(draw, wsp))
            if draw.reduction:
                reductions_s += perf_counter() - made
        pool.append(built)
        parts.append(perf_counter() - start)
    slices.append(calibration.slice_seconds())
    scaled = sum(p * s for p, s in zip(parts, calibration.scales(slices)))
    return wsp, pool, sum(parts), scaled, reductions_s


# --- measurement ------------------------------------------------------------


class Run:
    """Outcome of running a list of instances through a workload's path."""

    def __init__(self) -> None:
        self.durations: list[float] = []  # checked instances only
        self.measured = 0.0  # every attempted instance
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.results: list = []
        self.slices: list[float] = []  # calibration slice before each checked instance
        self.cycle_ends: list[int] = []  # len(durations) at the end of each cycle

    def record(self, workload: Workload, wsp, inst: gen.Instance, keep: bool = False) -> bool:
        """Run one instance; check it now, or keep it for ``check_kept``.

        Returns whether the instance completed.
        """
        gc.collect()
        self.attempted += 1
        start = perf_counter()
        try:
            result = workload.run(wsp, inst.text)
        except Exception as exc:  # every exception fails the instance and the run
            self.measured += perf_counter() - start
            if self.failed == 0:
                traceback.print_exc(file=sys.stderr)
            self.failed += 1
            self.problems.append(f"{inst.family}: raised {type(exc).__name__}: {exc}")
            return False
        elapsed = perf_counter() - start
        self.measured += elapsed
        self.durations.append(elapsed)
        if keep:
            self.results.append((inst, result))
        else:
            self.problems += workload.check(wsp, inst, result)
        return True

    def check_kept(self, workload: Workload, wsp) -> None:
        for inst, result in self.results:
            self.problems += workload.check(wsp, inst, result)


def timed_loop(workload: Workload, wsp, pool, seconds: float) -> Run:
    """Whole cycles, in pool order and wrapping around, until time is up.

    The first cycle runs once before, checked but not timed, as a warm-up.
    A calibration slice runs before every timed instance.
    """
    warm_up = Run()
    for inst in pool[0]:
        warm_up.record(workload, wsp, inst)
    run = Run()
    run.attempted, run.failed, run.problems = warm_up.attempted, warm_up.failed, warm_up.problems
    start = perf_counter()
    i = 0
    while perf_counter() - start < seconds:
        for inst in pool[i % len(pool)]:
            slice_s = calibration.slice_seconds()
            if run.record(workload, wsp, inst):
                run.slices.append(slice_s)
        run.cycle_ends.append(len(run.durations))
        i += 1
    return run


def tail(durations: list[float]) -> tuple[float, float]:
    """(percentile, value) of the sample with exactly ten samples above it.

    That is the highest percentile with at least ten samples beyond it. It
    moves smoothly with the sample count. A run too short to have one
    reports its largest sample.
    """
    ordered = sorted(durations)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return 100 * rank / n, ordered[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(run: Run, setup_s: float) -> tuple[dict, list[str]]:
    """The end-to-end metrics, with instance times at the reference speed."""
    speed = calibration.scales(run.slices)
    scaled = [d * s for d, s in zip(run.durations, speed)]
    starts = [0, *run.cycle_ends[:-1]]
    rates = [
        (end - begin) / sum(scaled[begin:end])
        for begin, end in zip(starts, run.cycle_ends) if end > begin
    ]
    p, tail_s = tail(scaled)
    metrics = {
        "instances_per_s": (statistics.median(rates), "1/s"),
        "instance_ms_p50": (statistics.median(scaled) * 1000, "ms"),
        "instance_ms_tail": (tail_s * 1000, "ms"),
        "failed_share": (run.failed / run.attempted, "fraction"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [
        f"instance_ms_tail is p{p:.4g} of {len(run.durations)} samples",
        f"instances_per_s is the median over {len(rates)} cycles",
        f"calibration slices took {statistics.median(run.slices) * 1000:.4g} ms "
        f"against a reference of {calibration.REFERENCE_SECONDS * 1000:.4g} ms; "
        f"in wall time the p50 is "
        f"{statistics.median(run.durations) * 1000:.6g} ms and the whole run "
        f"made {len(run.durations) / run.measured:.6g} instances per second",
    ]
    return metrics, notes


# --- traced run -------------------------------------------------------------

COUNTERS = (
    "solver.partitions", "solver.matchings", "constraints.eligibility_checks",
    "kernel.merges", "kernel.violator_rounds", "kernel.users_marked",
    "kernel.hard_tasks", "kernel.tasks_out", "kernel.users_out",
    "kernel.constraints_out", "matching.calls",
)
LAYERS = ("formats", "core", "constraints", "kernel", "solver", "matching", "partitions")
ELIGIBILITY = (
    "constraints.eligible_partition", "constraints.eligible_set",
    "constraints.required_additions",
)
MATCHING = ("matching.maximum_matching", "matching.hall_violator")


def _solve_stat(results, field: str):
    """Sum of a SolveStats field over the solved instances; None if it is gone."""
    stats = [getattr(r.outcome, "stats", None) for r in results if hasattr(r, "outcome")]
    if not all(hasattr(s, field) for s in stats):
        return None
    return sum(getattr(s, field) for s in stats)


def _ratio(part, whole):
    """part / whole; 0 when whole is 0, None when either is gone."""
    if part is None or whole is None:
        return None
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, run: Run) -> dict:
    """Per-layer metrics from a traced pass; None marks a metric whose name is gone."""
    results = [r for _, r in run.results]
    kernels = [r.kernel for r in results if hasattr(r, "kernel")]
    partitions = _solve_stat(results, "partitions_examined")
    matchings = tracer.count("solver.assign_blocks")
    search_s = tracer.seconds("solver.solve_fpt")
    m = {
        "solver.search_s": search_s,
        "solver.partitions": partitions,
        "solver.us_per_partition": _ratio(None if search_s is None else search_s * 1e6, partitions),
        "solver.matchings": matchings,
        "solver.eligible_share": _ratio(matchings, partitions),
        "constraints.eligibility_checks": tracer.count(*ELIGIBILITY),
        "constraints.eligibility_s": tracer.seconds(*ELIGIBILITY),
        "kernel.eq_elim_s": tracer.seconds("kernel.eq_elim"),
        "kernel.merges": sum(len(k.merge_log) for k in kernels),
        "kernel.mark_s": tracer.seconds("kernel.mark"),
        "kernel.violator_rounds": (
            tracer.violators if "matching.hall_violator" in tracer.installed_names else None
        ),
        "kernel.users_marked": sum(len(k.marked) for k in kernels),
        "kernel.hard_tasks": sum(len(k.hard) for k in kernels),
        "kernel.tasks_out": sum(len(k.schema.tasks) for k in kernels),
        "kernel.users_out": sum(len(k.schema.users) for k in kernels),
        "kernel.constraints_out": sum(len(k.schema.constraints) for k in kernels),
        "kernel.lift_s": tracer.seconds("kernel.lift"),
        "matching.calls": tracer.count("matching.maximum_matching"),
        "matching.s": tracer.seconds(*MATCHING),
        "core.verify_s": tracer.seconds("core.verify"),
        "core.validate_s": tracer.seconds("core.validate"),
        "formats.parse_s": tracer.seconds("formats.parse"),
        "formats.serialize_s": tracer.seconds("formats.serialize"),
        "partitions.enumerate_s": tracer.seconds("partitions.growth_strings"),
    }
    own = tracer.self_seconds_by_layer()
    total = sum(own.values())
    for layer in LAYERS:
        m[f"self_share.{layer}"] = own.get(layer, 0.0) / total if total else 0.0
    return m


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name == "solver.us_per_partition":
        return "us"
    if name.endswith("_share") or name.startswith("self_share."):
        return "fraction"
    return "count"


def traced_record(tracer: Tracer, run: Run, workload: Workload, wsp, inst) -> None:
    with tracer.installed(wsp):
        run.record(workload, wsp, inst, keep=True)
        tracer.end_instance()


def traced_passes(workload: Workload, wsp, instances):
    """Two traced passes over the same instances.

    The per-layer metrics come from the second pass, and its counts must
    equal the first's. In the second pass each instance also runs untraced
    just before its traced run, so the overhead compares runs made close
    together in time, after the warm-up of the first pass. All runs keep
    their results until the checks at the end, because kept results change
    how often the garbage collector runs.
    """
    first_tracer, first = Tracer(), Run()
    for inst in instances:
        traced_record(first_tracer, first, workload, wsp, inst)
    tracer, run, plain = Tracer(), Run(), Run()
    for inst in instances:
        plain.record(workload, wsp, inst, keep=True)
        traced_record(tracer, run, workload, wsp, inst)
    # checks call wspkit too, so they run with the original names back
    for r in (first, plain, run):
        r.check_kept(workload, wsp)
    metrics, before = layer_metrics(tracer, run), layer_metrics(first_tracer, first)
    problems = first.problems + plain.problems + run.problems
    for name in COUNTERS:
        if metrics[name] != before[name]:
            problems.append(f"counter {name} differs between traced passes: "
                            f"{before[name]} vs {metrics[name]}")
    if run.durations and len(run.durations) == len(plain.durations):
        ratios = [t / u for t, u in zip(run.durations, plain.durations)]
        metrics["trace.overhead_share"] = statistics.median(ratios) - 1
    return metrics, problems, run, tracer


def span_notes(tracer: Tracer) -> list[str]:
    """Self time per span name, largest first, as a share of the traced path time."""
    total = sum(own for _, _, own in tracer.totals.values())
    rows = sorted(tracer.totals.items(), key=lambda item: -item[1][2])
    return [
        f"self {own / total:7.2%} calls {count:9d} total {seconds:9.4f} s  {name}"
        for name, (count, seconds, own) in rows
    ]


# --- entry point ------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    if not (SRC / "wspkit" / "__init__.py").is_file():
        print(f"no wspkit sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[name]
    cycles = max(1, math.ceil(seconds * workload.cycles_per_second))
    draws = draw_cycles(workload, name, seed, cycles)
    problems = []
    setup_times, scaled_setup_times, reduction_times, texts = [], [], [], None
    while len(setup_times) < SETUPS or sum(setup_times) < SETUP_SECONDS:
        gc.collect()
        wsp, pool, setup_time, scaled_setup_time, reduction_time = set_up(draws)
        setup_times.append(setup_time)
        scaled_setup_times.append(scaled_setup_time)
        reduction_times.append(reduction_time)
        pool_texts = [inst.text for cycle in pool for inst in cycle]
        if texts is not None and pool_texts != texts:
            problems.append("set-ups built different instance text from the same draws")
        texts = pool_texts
    setup_s = statistics.median(scaled_setup_times)
    if trace:
        traced = pool[: max(1, cycles // 4)]
        metrics, found, run, tracer = traced_passes(
            workload, wsp, [inst for cycle in traced for inst in cycle]
        )
        metrics["reductions.generate_s"] = statistics.median(reduction_times)
        problems += found
        shown = {k: (v, unit_of(k)) for k, v in metrics.items() if v is not None}
        notes = [f"traced {run.attempted} instances in {len(traced)} cycles", *span_notes(tracer)]
    else:
        run = timed_loop(workload, wsp, pool, seconds)
        problems += run.problems
        if run.durations:
            shown, notes = end_to_end(run, setup_s)
        else:
            problems.append("no instance completed")
            shown, notes = {}, []
    print(f"workload {name} seed {seed}: {run.attempted} instances, {run.failed} failed")
    for metric, (value, unit) in shown.items():
        print(f"  {metric:32s} {value:14.6g} {unit}")
    for note in notes:
        print(f"  ({note})")
    for problem in problems[:20]:
        print(f"WRONG: {problem}", file=sys.stderr)
    correct = not problems
    # failed_share is 0 whenever nothing fails, and a failure fails the
    # run, so the result line carries it as its attempted and failed counts
    # rather than as a metric.
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in shown.items() if k != "failed_share"
        },
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, child.returncode)
        if child.returncode == 2 or not lines:
            return 2
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
