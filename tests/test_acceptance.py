"""Acceptance suite: ten end-to-end criteria on the fixed-seed benchmark.

Each test checks one shipping criterion at its stated tolerance, registers a
PASS/FAIL line with the terminal reporter, and asserts.  The heavy sweep data
comes from the session-scoped ``bench`` fixture (tests/conftest.py).
"""

from pathlib import Path

import numpy as np

from duca import (
    Variant,
    centralized_solve,
    duality_gap_check,
    ergodic_point,
    eval_objective,
    generate_example,
    grid_oracle,
    loglog_slope,
    make_setting,
    random_connected_graph,
    run,
)
from duca.cli import main as cli_main
from duca.graphs import DOUBLE_EXCHANGE, SINGLE_EXCHANGE

from reference import grid_local, random_subproblem, solve_one

EXPERIMENT_CONFIG = Path(__file__).resolve().parent.parent / "demos" / "configs" / "experiment.yaml"

SINGLE_NAMES = tuple(v.name for v in SINGLE_EXCHANGE)
DOUBLE_NAMES = tuple(v.name for v in DOUBLE_EXCHANGE)


def _zero_alpha(bench):
    return {name: bench.runs[(name, 0.0)] for name in (v.name for v in Variant)}


def test_01_exact_per_round_identities(bench, record):
    """Cone-split and complementarity residuals stay at 1e-10 per round,
    the cumulative constraint identity at 1e-8, for every variant; every
    local solve of every sweep run is certified, since an uncertified one
    voids the eps_inner slack that the bound checks assume."""
    worst_split, worst_cum, worst_sec = 0.0, 0.0, 0.0
    for name, sr in _zero_alpha(bench).items():
        worst_split = max(worst_split, max(r.moreau_residual for r in sr.rows))
        worst_cum = max(worst_cum, sr.rows[-1].cumulative_residual)
        worst_sec = max(worst_sec, sr.seconds)
    sweep = list(bench.runs.values()) + [bench.loose]
    failures = sum(sr.solver_failures for sr in sweep)
    ok = (worst_split <= 1e-10 and worst_cum <= 1e-8 and worst_sec < 300.0
          and failures == 0)
    detail = (f"max split/complementarity residual {worst_split:.2e} (<= 1e-10), "
              f"cumulative at k=1000 {worst_cum:.2e} (<= 1e-8), "
              f"slowest variant {worst_sec:.1f}s (< 300s), "
              f"uncertified solves {failures} in {len(sweep)} runs (== 0)")
    assert record(1, "exact per-round identities", ok, detail), detail


def test_02_ergodic_feasibility_bound(bench, record):
    """Ergodic feasibility stays below its O(1/k) bound (slack >= -1e-6)
    at every round, for all variants and for the alpha=0.1 proximal run."""
    keys = [(v.name, 0.0) for v in Variant] + [("DUCA_I", 0.1)]
    worst = min(min(r.bound_fe_slack for r in bench.runs[key].rows)
                for key in keys)
    ok = worst >= -1e-6
    detail = f"min feasibility-bound slack over {len(keys)} runs x 1000 rounds: {worst:+.3e} (>= -1e-6)"
    assert record(2, "ergodic feasibility bound", ok, detail), detail


def test_03_objective_sandwich_and_descent(bench, record):
    """Ergodic objective error stays inside its two-sided O(1/k) bounds;
    the per-round descent residual stays at 1e-5 under tight inner solves
    and grows at least tenfold under a loose (1e-2) negative control."""
    keys = [(v.name, 0.0) for v in Variant] + [("DUCA_I", 0.1)]
    lo = min(min(r.bound_oe_lower_slack for r in bench.runs[key].rows)
             for key in keys)
    hi = min(min(r.bound_oe_upper_slack for r in bench.runs[key].rows)
             for key in keys)
    descent = max(max(r.lyapunov_residual for r in bench.runs[key].rows)
                  for key in keys)
    tight = max(r.lyapunov_residual for r in bench.runs[("DUCA_I", 0.0)].rows)
    loose = max(r.lyapunov_residual for r in bench.loose.rows)
    control = loose >= 10.0 * max(tight, 1e-12)
    ok = lo >= -1e-6 and hi >= -1e-6 and descent <= 1e-5 and control
    detail = (f"min lower/upper slack {lo:+.2e}/{hi:+.2e} (>= -1e-6), "
              f"max descent residual {descent:+.2e} (<= 1e-5), "
              f"loose-tolerance control {loose:+.2e} vs tight {tight:+.2e} (>= 10x)")
    assert record(3, "objective sandwich and per-round descent", ok, detail), detail


def test_04_error_decay_rate(bench, record):
    """Log-log slopes of ergodic feasibility and |objective error| over
    k in [100, 1000] are at most -0.8 for every variant."""
    worst = -np.inf
    details = []
    for name, sr in _zero_alpha(bench).items():
        fe = [r.ergodic_feasibility for r in sr.rows]
        oe = [abs(r.ergodic_objective_error) for r in sr.rows]
        s_fe = loglog_slope(fe, 100, 1000)
        s_oe = loglog_slope(oe, 100, 1000)
        worst = max(worst, s_fe, s_oe)
        details.append(f"{name} {s_fe:+.2f}/{s_oe:+.2f}")
    ok = worst <= -0.8
    detail = f"max slope {worst:+.3f} (<= -0.8); feasibility/objective: " + ", ".join(details)
    assert record(4, "O(1/k) decay rate", ok, detail), detail


def test_05_convergence_and_communication_efficiency(bench, record):
    """All variants keep improving over the last decade of rounds, and at
    equal communication volume every single-exchange variant reaches an
    objective error no worse than every double-exchange variant."""
    runs = _zero_alpha(bench)
    shrinking = {}
    for name, sr in runs.items():
        by_k = {r.k: r for r in sr.rows}
        shrinking[name] = (abs(by_k[1000].ergodic_objective_error)
                           < abs(by_k[100].ergodic_objective_error))
    # re-index by communicated reals: every run has a row at the smallest
    # final communication volume because the double-exchange per-round cost
    # is an exact multiple of the single-exchange one
    target = min(sr.rows[-1].comm_total for sr in runs.values())
    at_comm = {}
    for name, sr in runs.items():
        matches = [r for r in sr.rows if r.comm_total == target]
        assert matches, f"{name} has no row at communication volume {target}"
        at_comm[name] = abs(matches[0].ergodic_objective_error)
    worst_single = max(at_comm[n] for n in SINGLE_NAMES)
    best_double = min(at_comm[n] for n in DOUBLE_NAMES)
    ok = all(shrinking.values()) and worst_single <= best_double
    detail = (f"error shrinking k=100->1000 for all 6 variants: {all(shrinking.values())}; "
              f"at {target} reals: worst single-exchange {worst_single:.3e} "
              f"<= best double-exchange {best_double:.3e}")
    assert record(5, "convergence and communication efficiency", ok, detail), detail


def test_06_proximal_weight_sensitivity(bench, record):
    """A small proximal weight (alpha=0.1) tracks the alpha=0 run within
    10% relative objective error at k=1000; alpha=0.5 has a larger
    time-averaged objective error than alpha=0.1."""
    def final_oe(alpha):
        return abs(bench.runs[("DUCA_I", alpha)].rows[-1].ergodic_objective_error)

    def mean_inst(alpha):
        return float(np.mean([abs(r.objective_error)
                              for r in bench.runs[("DUCA_I", alpha)].rows]))

    rel = abs(final_oe(0.1) - final_oe(0.0)) / final_oe(0.0)
    m01, m05 = mean_inst(0.1), mean_inst(0.5)
    ok = rel <= 0.10 and m05 > m01
    detail = (f"alpha=0.1 vs alpha=0 relative error at k=1000: {rel:.4f} (<= 0.10); "
              f"time-averaged error alpha=0.5 {m05:.4e} > alpha=0.1 {m01:.4e}")
    assert record(6, "proximal weight sensitivity", ok, detail), detail


def test_07_communication_accounting(bench, record):
    """Per-round communication is exactly (m+p) reals per neighbor-direction
    in single-exchange mode and 2(m+p) in double-exchange mode."""
    directions = 2 * bench.graph.n_edges
    per_round = {"single": directions * bench.pb.mp,
                 "double": directions * 2 * bench.pb.mp}
    ok = True
    for name, sr in _zero_alpha(bench).items():
        expect = per_round[sr.setting.exchange_mode]
        ok &= all(r.comm_total == expect * r.k for r in sr.rows)
    detail = (f"single {per_round['single']}/round, double {per_round['double']}/round, "
              f"exact integer match over all rounds: {bool(ok)}")
    assert record(7, "communication accounting", ok, detail), detail


def test_08_small_instance_oracle_agreement(record):
    """On ten random 2-3 agent, d=1 instances the ergodic iterate at k=5000
    lands within 1e-3 of exhaustive grid search, and the reference solution's
    duality gap is at most 1e-6."""
    rng = np.random.default_rng(2026)
    worst_f, worst_gap = 0.0, 0.0
    for trial in range(10):
        n = int(rng.integers(2, 4))
        seed = int(rng.integers(0, 10_000))
        edges = 1 if n == 2 else int(rng.integers(2, 4))
        g = random_connected_graph(n, edges, seed=seed)
        pb = generate_example(n, 1, 1, 1, seed=seed)
        core = centralized_solve(pb, tol=1e-10)
        worst_gap = max(worst_gap, duality_gap_check(core, pb))
        ref = grid_oracle(pb, resolution=1e-5)
        s = make_setting(Variant.DUCA_I, g, rho=1.0)
        st = run(pb, s, 5000, y0=np.ones((n, pb.mp)), tol_inner=1e-8,
                 check=False)
        xbar, _ = ergodic_point(st, pb)
        worst_f = max(worst_f, abs(eval_objective(pb, xbar) - ref["f_best"]))
    ok = worst_f <= 1e-3 and worst_gap <= 1e-6
    detail = (f"10 instances: max |ergodic - grid| {worst_f:.2e} (<= 1e-3), "
              f"max duality gap {worst_gap:.2e} (<= 1e-6)")
    assert record(8, "small-instance oracle agreement", ok, detail), detail


def test_09_local_solver_grid_agreement(record):
    """Fifty random per-agent subproblems (d <= 2) match a zooming grid
    search within 1e-6 in objective value."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for i in range(50):
        sp = random_subproblem(rng, d=1 + (i % 2))
        _x, _res, _iters, done, value = solve_one(sp, tol=1e-10)
        assert done
        _, gv = grid_local(sp)
        worst = max(worst, abs(value - gv))
    ok = worst <= 1e-6
    detail = f"50 subproblems: max |solver - grid| {worst:.2e} (<= 1e-6)"
    assert record(9, "local solver vs grid search", ok, detail), detail


def test_10_run_determinism(tmp_path, record):
    """Running the shipped experiment config twice produces byte-identical
    output files."""
    args = ["run", "--config", str(EXPERIMENT_CONFIG), "--rounds", "25"]
    assert cli_main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out", str(tmp_path / "b")]) == 0
    names_a = sorted(f.name for f in (tmp_path / "a").iterdir())
    names_b = sorted(f.name for f in (tmp_path / "b").iterdir())
    same = names_a == names_b and all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in names_a
    )
    detail = (f"{len(names_a)} files ({sum(n.endswith('.csv') for n in names_a)} CSVs) "
              f"byte-identical across repeated runs: {same}")
    assert record(10, "run determinism", same, detail), detail
