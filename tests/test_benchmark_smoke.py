"""Each benchmark workload runs once and passes its own output checks.

The benchmark wraps duca functions by name (``engine.solve_local_batch``,
``cli._solve_reference``, ``cli.MetricsCollector``, ``cli.run``, ...), so a
renamed or deleted function breaks every benchmark run.  These runs catch
that in the test suite.  Each runs in a copy of ``perfbench/`` under a
temporary directory, with ``src`` and ``demos`` linked in, so the
checkout's ``.perfbench_runs/results.jsonl`` is left alone.  One traced run
covers the names the per-layer tracer wraps.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_workload(tmp_path, workload, *extra):
    """One 0.1 s benchmark run of ``workload``; returns its JSON result line."""
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    for name in ("src", "demos"):
        (tmp_path / name).symlink_to(ROOT / name, target_is_directory=True)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0.1", *extra],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    return result


@pytest.mark.parametrize("workload", ["shipped-config", "active-coupling", "settled-wide"])
def test_workload_runs_correct(workload, tmp_path):
    result = run_workload(tmp_path, workload)
    assert result["failed"] == 0 and result["attempted"] > 0


def test_traced_workload_runs_correct(tmp_path):
    # the tracer wraps duca.engine.Mailbox and reads the return tuples of
    # oracle._al_minimize and engine.solve_local_batch
    result = run_workload(tmp_path, "shipped-config", "--trace", "1")
    assert result["failed"] == 0 and result["attempted"] > 0
