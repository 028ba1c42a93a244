"""The README's library example runs as written, and its catalog table
matches the catalog."""

import re
from pathlib import Path

from wspkit.core import CATALOG, describe, is_valid_plan
from wspkit.formats import parse_constraint_line

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert len(namespace["result"].schema.users) == 2
    assert is_valid_plan(namespace["schema"], namespace["plan"])


def catalog_rows():
    """(kind, syntax) of each row of the README's constraint catalog table."""
    section = README.read_text().split("### Constraint catalog", 1)[1].split("\n\n", 2)[1]
    return re.findall(r"^\| `([^`]*)` \| `([^`]*)` \|", section, re.M)


def test_catalog_table_lists_every_kind():
    assert [kind for kind, _ in catalog_rows()] == list(CATALOG)


def test_catalog_syntax_round_trips():
    for kind, syntax in catalog_rows():
        c = parse_constraint_line(syntax.split())
        assert c.kind == kind
        assert describe(c) == syntax
