"""Shared fixtures: the cached benchmark sweep and the acceptance reporter.

The benchmark bundle runs every parameter family once (1000 rounds on the
fixed-seed 20-agent instance) and is shared session-wide so the acceptance
tests can each examine one property of the same data.  The reporter collects
one PASS/FAIL line per acceptance criterion and prints them as a terminal
summary section.
"""

import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from duca import (
    Certificate,
    MetricsCollector,
    ParamSetting,
    Variant,
    centralized_solve,
    generate_example,
    make_certificate,
    make_setting,
    random_connected_graph,
    run,
)

# Fixed-seed benchmark: 20 agents, 40 links, d=3, one coupled inequality,
# five coupled equalities, so each exchanged multiplier copy has m+p=6 reals.
BENCH_SEED = 42
BENCH_NODES = 20
BENCH_EDGES = 40
BENCH_D, BENCH_M, BENCH_P = 3, 1, 5
BENCH_ROUNDS = 1000

#: sweep tuning, chosen inside each family's validity range for speed; the
#: remaining families have no free tuning keys at rho = 1.
BENCH_TUNING = {
    Variant.PGC: {"rho_prime": 0.1},
    Variant.DPGA: {"c": 0.25},
}

#: proximal weights exercised on top of the alpha = 0 sweep
BENCH_ALPHAS = (0.1, 0.5)


@dataclass(frozen=True)
class SweepRun:
    setting: ParamSetting
    cert: Certificate
    rows: list
    seconds: float
    solver_failures: int


@pytest.fixture(scope="session")
def bench():
    """All benchmark runs: {(variant_name, alpha): SweepRun} plus a
    loose-inner-tolerance negative control for the descent check.

    The tight-tolerance runs check as they go: the engine raises on an
    uncertified solve, a broken identity or the per-round ergodic bound,
    and the collector on the descent and radius checks.
    """
    g = random_connected_graph(BENCH_NODES, BENCH_EDGES, seed=BENCH_SEED)
    pb = generate_example(BENCH_NODES, BENCH_D, BENCH_M, BENCH_P, seed=BENCH_SEED)
    core = centralized_solve(pb, tol=1e-10)
    y0 = np.ones((BENCH_NODES, pb.mp))
    x0 = np.zeros((BENCH_NODES, pb.dmax))

    def sweep(variant, alpha=0.0, tol=1e-8, check=True):
        s = make_setting(variant, g, rho=1.0, alpha=alpha,
                         tuning=BENCH_TUNING.get(variant))
        cert = make_certificate(core, pb, s, x0=x0, y0=y0)
        coll = MetricsCollector(pb, s, cert, tol_inner=tol, check=check)
        t0 = time.perf_counter()
        st = run(pb, s, BENCH_ROUNDS, x0=x0, y0=y0, hook=coll, tol_inner=tol,
                 check=check)
        return SweepRun(s, cert, coll.rows, time.perf_counter() - t0,
                        st.solver_failures)

    runs = {}
    for v in Variant:
        runs[(v.name, 0.0)] = sweep(v)
    for alpha in BENCH_ALPHAS:
        runs[("DUCA_I", alpha)] = sweep(Variant.DUCA_I, alpha=alpha)
    # unchecked: the control must be free to break descent
    loose = sweep(Variant.DUCA_I, tol=1e-2, check=False)
    return SimpleNamespace(graph=g, pb=pb, core=core, x0=x0, y0=y0,
                           runs=runs, loose=loose)


# ---------------------------------------------------------------------------
# acceptance reporting: one line per criterion, shown after the test summary

_ACCEPTANCE = {}


@pytest.fixture
def record():
    """Register an acceptance criterion outcome; returns the passed flag."""

    def _record(num: int, name: str, passed: bool, detail: str) -> bool:
        _ACCEPTANCE[num] = (name, bool(passed), detail)
        return bool(passed)

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE):
        name, passed, detail = _ACCEPTANCE[num]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{num:02d}] {status} {name} -- {detail}")
