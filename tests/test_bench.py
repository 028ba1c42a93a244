"""The names of wspkit that the traced benchmark run reads.

``bench/tracing.py`` skips a name that a module no longer has, and
``bench/run.py`` reports a solver counter that is gone as missing, so a
renamed function or field would silently drop per-layer metrics from the
traced result. These tests fail instead.
"""

import importlib.util
from dataclasses import fields
from pathlib import Path

import pytest

from wspkit.solver import SolveStats

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, attr, span", load_tracing().REBOUND)
def test_every_rebound_name_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(f"wspkit.{module}"), attr))


def test_solve_stats_count_search_nodes():
    assert "partitions_examined" in {f.name for f in fields(SolveStats)}
