"""Pinned outputs of the kernel pipeline, for changes that must keep them.

Over a few hundred seeded ``gen_random_instance`` schemas of closed kinds,
some with equalities to merge and some with more tasks than users, the
pipeline writes the instance text, parses it back, kernelizes, serializes
the reduced schema and the kernel log, solves the kernel with
``solve_fpt`` and lifts the plan; a refused schema is recorded by its
error. The SHA-256 of all of it must not depend on the hash seed and must
equal ``PINNED``. A change that restates some output on purpose updates
``PINNED`` and says so.

Run as a script (``PYTHONPATH=src python tests/test_pinned_outputs.py``)
to print the digest.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from wspkit.errors import WspError
from wspkit.formats import (
    parse_instance,
    serialize_instance,
    serialize_kernel_log,
    serialize_plan,
)
from wspkit.kernel import kernelize, lift_plan
from wspkit.reductions import gen_random_instance
from wspkit.solver import solve_fpt

# from the code at commit 630ec24
PINNED = "bb1daa71f770adb925af3fb5a5334efa7208aa9cbf0c06708f25517b2349a4ff"

SCHEMAS = 400
# regular intersection-closed kinds, then a mix that also draws kinds that
# kernelize refuses on some scopes: bind over three or more tasks, and
# atleast 3 over four or more
CLOSED = ["eq", "neq", "sep", ("atmost", (1,)), ("atleast", (2,)), ("peruser", (1, 2))]
MIXED = CLOSED + ["bind", ("atleast", (3,))]


def outputs() -> str:
    out = []
    for seed in range(SCHEMAS):
        tasks = 3 + seed % 6
        # every third schema has fewer users than tasks, so Hall violators occur
        users = tasks - 1 - seed % 2 if seed % 3 == 0 else tasks + seed % 5
        kinds = MIXED if seed % 4 == 3 else CLOSED
        density = (0.4, 0.55, 0.7, 0.85)[seed % 4]
        schema = gen_random_instance(tasks, max(users, 1), 1 + seed % 4, kinds, seed, density)
        text = serialize_instance(schema, [f"seed {seed}"])
        out.append(text)
        try:
            kernel = kernelize(parse_instance(text))
            out.append(serialize_instance(kernel.schema, [f"verdict: {kernel.verdict}"]))
            out.append(serialize_kernel_log(kernel))
            outcome = solve_fpt(kernel.schema)
            out.append(f"{outcome.status} {outcome.stats.partitions_examined}\n")
            if outcome.satisfiable:
                out.append(serialize_plan(outcome.plan, kernel.schema.tasks))
                out.append(serialize_plan(lift_plan(kernel, outcome.plan), schema.tasks))
        except WspError as exc:
            out.append(f"refused: {type(exc).__name__}: {exc}\n")
    return "".join(out)


def digest() -> str:
    return hashlib.sha256(outputs().encode()).hexdigest()


def _digest_with_hash_seed(seed: str) -> str:
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_outputs_are_pinned_across_hash_seeds():
    first, second = _digest_with_hash_seed("0"), _digest_with_hash_seed("1")
    assert first == second
    assert first == PINNED


if __name__ == "__main__":
    print(digest())
