"""The README's Library example runs as written.

An example that names a function the package no longer has, or that stops
passing its own checks, fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, "the Library section holds one python example"
    return blocks[0]


def test_library_example_runs():
    namespace = {}
    exec(compile(library_example(), f"{README}:Library", "exec"), namespace)
    assert namespace["st"].k == 1000
    assert namespace["st"].solver_failures == 0
