"""The README's library example runs as written."""

import re
from pathlib import Path

from wspkit.core import is_valid_plan

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert len(namespace["result"].schema.users) == 2
    assert is_valid_plan(namespace["schema"], namespace["plan"])
