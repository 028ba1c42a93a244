"""The machine's speed, from a fixed slice of benchmark-owned work.

On a shared host the same code runs up to about 1.8 times slower for
seconds to minutes at a time, and whole 30-second runs can fall into the
slow state. The benchmark therefore runs ``slice_seconds()`` next to the
work it measures and scales each measured time by ``REFERENCE_SECONDS``
divided by the slice time measured around it: the time the work would have
taken at the machine's reference speed. The slice checks fixed random plans
against fixed constraints of every kind with the reference checker, the
same kind of dictionary, set and generator work that wspkit does. Nothing
here imports wspkit, so a change to wspkit leaves the slice time unchanged.
"""

from __future__ import annotations

import statistics
from random import Random
from time import perf_counter

from instances import KINDS, _random_constraint
from reference import RefInstance, plan_violations

# The slice's median time on the 2.1 GHz Xeon the benchmark was defined on,
# in its fast state. Scaled times are in seconds at that speed.
REFERENCE_SECONDS = 0.0011
# Slices on each side of a measurement that its factor takes the median of.
WINDOW = 2


def _fixed_work() -> tuple[RefInstance, list[dict[str, str]]]:
    rng = Random("calibration")
    tasks = [f"t{i}" for i in range(40)]
    users = [f"u{i}" for i in range(12)]
    auth = {t: frozenset(rng.sample(users, 8)) for t in tasks}
    constraints = tuple(_random_constraint(rng, tasks, kind) for kind in KINDS * 8)
    plans = [{t: rng.choice(sorted(auth[t])) for t in tasks} for _ in range(12)]
    return RefInstance(tuple(tasks), tuple(users), auth, constraints), plans


_INSTANCE, _PLANS = _fixed_work()


def _work() -> None:
    for plan in _PLANS:
        plan_violations(_INSTANCE, plan)


def slice_seconds() -> float:
    """Wall time of one fixed slice of work.

    The work runs once untimed first, so the slice is timed with its data
    in the CPU caches whatever ran before it.
    """
    _work()
    start = perf_counter()
    _work()
    return perf_counter() - start


def scales(slices: list[float]) -> list[float]:
    """Reference-speed factor for each measurement.

    ``slices[i]`` is the slice run just before measurement ``i``; the factor
    for it uses the median of the slices from ``i - WINDOW`` to
    ``i + WINDOW``, so it sees the machine on both sides of the measurement.
    """
    return [
        REFERENCE_SECONDS / statistics.median(slices[max(0, i - WINDOW): i + WINDOW + 1])
        for i in range(len(slices))
    ]
