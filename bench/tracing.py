"""Outside-in spans around wspkit calls, for the traced benchmark run.

A ``Tracer`` rebinds module-level names of wspkit for the duration of a
``with tracer.installed(wsp):`` block and restores them afterwards. Each
call through a rebound name records a span ``[name, start, end, parent,
instance]``. Spans are kept in memory for the current instance only; when
the instance ends they are folded into per-name totals of count, duration
and self time (duration minus the time its child spans cover), so memory
stays bounded on long runs.

A name that a module no longer has is skipped, and the metrics built on it
are left out of the report.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name). The benchmark calls the public functions
# through their modules, so rebinding formats/core/kernel/solver attributes
# puts spans around its own calls; the kernel and solver entries whose
# functions are imported from other modules put spans around the calls the
# kernel and the solver make internally.
REBOUND = (
    ("formats", "parse_instance", "formats.parse"),
    ("formats", "serialize_instance", "formats.serialize"),
    ("formats", "serialize_kernel_log", "formats.serialize"),
    ("core", "validate_schema", "core.validate"),
    ("core", "is_valid_plan", "core.verify"),
    ("kernel", "kernelize", "kernel.kernelize"),
    ("kernel", "lift_plan", "kernel.lift"),
    ("kernel", "eliminate_equalities", "kernel.eq_elim"),
    ("kernel", "mark_users", "kernel.mark"),
    ("kernel", "is_valid_plan", "core.verify"),
    ("kernel", "eligible_set", "constraints.eligible_set"),
    ("kernel", "required_additions", "constraints.required_additions"),
    ("kernel", "maximum_matching", "matching.maximum_matching"),
    ("kernel", "hall_violator", "matching.hall_violator"),
    ("solver", "solve_fpt", "solver.solve_fpt"),
    ("solver", "assign_blocks", "solver.assign_blocks"),
    ("solver", "eligible_partition", "constraints.eligible_partition"),
    ("solver", "maximum_matching", "matching.maximum_matching"),
    ("solver", "growth_strings", "partitions.growth_strings"),
)

GENERATORS = {"partitions.growth_strings"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance = 0
        self.installed_names: set[str] = set()
        # span name -> [count, duration, self time]
        self.totals: dict[str, list] = {}
        # hall_violator calls that found a violator
        self.violators = 0

    def _open(self, name: str) -> list:
        span = [name, perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.instance]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if name == "matching.hall_violator" and result is not None:
                self.violators += 1
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Spans around each step of a generator, in the caller's context."""

        def traced(*args, **kwargs):
            steps = fn(*args, **kwargs)
            while True:
                span = self._open(name)
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                yield item

        return traced

    @contextmanager
    def installed(self, wsp):
        saved = []
        try:
            for module_name, attr, name in REBOUND:
                module = getattr(wsp, module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                saved.append((module, attr, fn))
                wrapper = self.wrap_generator if name in GENERATORS else self.wrap
                setattr(module, attr, wrapper(name, fn))
                self.installed_names.add(name)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def end_instance(self) -> None:
        """Fold the current instance's spans into the totals."""
        if self.stack:
            raise RuntimeError("instance ended with open spans")
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            total = self.totals.setdefault(name, [0, 0.0, 0.0])
            total[0] += 1
            total[1] += end - start
            total[2] += end - start - child[i]
        self.spans.clear()
        self.instance += 1

    def count(self, *names: str):
        """Calls through the names, or None if none of them was rebound."""
        if not any(n in self.installed_names for n in names):
            return None
        return sum(self.totals.get(n, (0, 0.0, 0.0))[0] for n in names)

    def seconds(self, *names: str):
        """Total span duration of the names, or None if none was rebound."""
        if not any(n in self.installed_names for n in names):
            return None
        return sum(self.totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Self time per layer, the layer being a span name's first part."""
        out: dict[str, float] = {}
        for name, (_, _, own) in self.totals.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own
        return out
