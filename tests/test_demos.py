"""The narrative demos 01-04 run to the end without raising.

Demo 05 (about 8 s) and demo 06 (``duca run`` in a subprocess, which
``test_cli`` covers) are left out to keep the suite short.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_problem_and_validation.py",
    "02_local_subproblem.py",
    "03_reference_solutions.py",
    "04_consensus_rounds.py",
])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
