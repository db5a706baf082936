"""Tests for the centralized reference solvers (method of multipliers + grid)."""

import dataclasses

import numpy as np
import pytest

from duca import oracle
from duca.errors import (
    AssumptionViolatedError,
    InfeasibleProblemError,
    NotConvergedError,
    TooLargeError,
)
from duca.localsolver import LONG_STEP, dual_value_batch
from duca.oracle import (
    CertificateCore,
    centralized_solve,
    duality_gap_check,
    grid_oracle,
)
from duca.problem import Problem, generate_example


def quadratic_single_agent(m=0):
    """f(x) = x^2 - 4x + |x| on the ball |x| <= 3, optionally with g(x) = x^2 - 1."""
    if m:
        a_prime = [np.zeros((1, 1))]
        c_prime = [np.ones(1)]
    else:
        a_prime = [np.zeros((0, 1))]
        c_prime = [np.zeros(0)]
    return Problem.from_agent_data(
        P=[[[1.0]]],
        Q=[[-4.0]],
        a=[[0.0]],
        c=[9.0],
        a_prime=a_prime,
        c_prime=c_prime,
        B=[np.zeros((0, 1))],
        c_eq=[np.zeros(0)],
        l1_weight=1.0,
    )


def linear_pair_with_equality():
    """f_i(x_i) = x_i on [-1, 1], coupled by x_1 + x_2 = 0."""
    return Problem.from_agent_data(
        P=[[[0.0]], [[0.0]]],
        Q=[[1.0], [1.0]],
        a=[[0.0], [0.0]],
        c=[1.0, 1.0],
        a_prime=[np.zeros((0, 1)), np.zeros((0, 1))],
        c_prime=[np.zeros(0), np.zeros(0)],
        B=[[[1.0]], [[1.0]]],
        c_eq=[[0.0], [0.0]],
        l1_weight=0.0,
    )


def infeasible_single_agent():
    """Ball |x| <= 1, coupled equality x + 10 = 0 outside it: empty feasible set."""
    return Problem(
        n_agents=1,
        dims=(1,),
        m=0,
        p=1,
        P=np.zeros((1, 1, 1)),
        Q=np.zeros((1, 1)),
        a=np.zeros((1, 1)),
        c=np.array([1.0]),
        a_prime=np.zeros((1, 0, 1)),
        c_prime=np.zeros((1, 0)),
        B=np.ones((1, 1, 1)),
        c_eq=np.full((1, 1), 10.0),
        l1_weight=0.0,
    )


def active_coupling_instance():
    """The seed-42 benchmark instance with Q scaled 4x: all six multipliers bind."""
    pb = generate_example(20, 3, 1, 5, seed=42)
    return dataclasses.replace(pb, Q=4.0 * pb.Q)


@pytest.fixture(scope="module")
def traced_active_solve():
    """Solve the active instance once, recording every AL solve and prox step.

    A prox call whose output is next handed to ``_al_value_grad`` is a descent
    step; any other prox call with a nonzero step is a stop test.  Each prox
    record carries the worst-case step 1/L of the AL solve it belongs to.
    """
    pb = active_coupling_instance()
    trace = {"solves": [], "prox": [], "eta0": None}

    def lipschitz(*args):
        lip = real_lip(*args)
        trace["eta0"] = 1.0 / max(lip, 1e-12)
        return lip

    def prox(V, thresh, a, c):
        out = real_prox(V, thresh, a, c)
        step = float(thresh[0]) / pb.l1_weight
        trace["prox"].append({"step": step, "eta0": trace["eta0"], "out": out, "descent": False})
        return out

    def value_grad(pb_, X, *args):
        if trace["prox"] and trace["prox"][-1]["out"] is X:
            trace["prox"][-1]["descent"] = True
        return real_vg(pb_, X, *args)

    def minimize(*args):
        out = real_min(*args)
        trace["solves"].append({"res": out[1], "iters": out[2], "tol": args[5]})
        return out

    real_lip, real_prox = oracle._al_lipschitz, oracle._prox_l1_ball
    real_vg, real_min = oracle._al_value_grad, oracle._al_minimize
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_al_lipschitz", lipschitz)
        mp.setattr(oracle, "_prox_l1_ball", prox)
        mp.setattr(oracle, "_al_value_grad", value_grad)
        mp.setattr(oracle, "_al_minimize", minimize)
        core = centralized_solve(pb, tol=1e-9)
    return pb, core, trace


class TestLongStartReference:
    def test_stop_test_never_exceeds_worst_case_step(self, traced_active_solve):
        _, _, trace = traced_active_solve
        stops = [r for r in trace["prox"] if not r["descent"] and r["step"] > 0.0]
        descents = [r for r in trace["prox"] if r["descent"] and r["step"] > 0.0]
        assert stops and descents
        assert all(r["step"] <= r["eta0"] * (1.0 + 1e-12) for r in stops)
        # the solver itself does take the long step
        assert any(r["step"] == pytest.approx(LONG_STEP * r["eta0"], rel=1e-12)
                   for r in descents)

    def test_every_al_solve_certifies_within_budget(self, traced_active_solve):
        _, _, trace = traced_active_solve
        solves = trace["solves"]
        # res <= tol only when the stop test ended the solve, not max_iters
        assert solves
        assert all(s["res"] <= s["tol"] for s in solves)
        # 2,561 iterations when every solve started at 1/L
        assert sum(s["iters"] for s in solves) <= 1000

    def test_active_coupling_certificate(self, traced_active_solve):
        pb, core, _ = traced_active_solve
        assert core.y_star.shape == (6,)
        assert np.all(np.abs(core.y_star) > 1e-3)
        assert np.all(core.y_star[: pb.m] > 0.0)
        assert core.stationarity <= 1e-9
        assert core.feasibility <= 1e-9
        # the dual function is evaluated by the local solver, not the AL loop
        assert duality_gap_check(core, pb) <= 1e-8


class TestCentralizedSolve:
    def test_single_agent_quadratic(self):
        # min x^2 - 4x + |x| is at 2x - 4 + 1 = 0, i.e. x = 1.5, value -2.25.
        core = centralized_solve(quadratic_single_agent(), tol=1e-9)
        assert core.f_star == pytest.approx(-2.25, abs=1e-8)
        assert core.x_star.x[0] == pytest.approx(1.5, abs=1e-7)
        assert core.y_star.shape == (0,)

    def test_single_agent_with_active_inequality(self):
        # Adding x^2 <= 1 moves the optimum to x = 1 with multiplier 0.5.
        core = centralized_solve(quadratic_single_agent(m=1), tol=1e-9)
        assert core.f_star == pytest.approx(-2.0, abs=1e-8)
        assert core.x_star.x[0] == pytest.approx(1.0, abs=1e-7)
        assert core.y_star[0] == pytest.approx(0.5, abs=1e-6)
        assert core.stationarity <= 1e-9
        assert core.feasibility <= 1e-9

    def test_linear_pair_with_equality(self):
        # Both objectives pull down but the coupling pins x_1 + x_2 = 0.
        core = centralized_solve(linear_pair_with_equality(), tol=1e-9)
        assert core.f_star == pytest.approx(0.0, abs=1e-8)
        assert abs(core.x_star.x.sum()) <= 1e-8

    def test_certificate_fields_on_generated_instance(self):
        pb = generate_example(4, 2, 2, 1, seed=7)
        core = centralized_solve(pb, tol=1e-9)
        assert core.stationarity <= 1e-9
        assert core.feasibility <= 1e-9
        assert abs(core.complementarity) <= 1e-8
        assert core.kkt_residual == pytest.approx(
            max(core.stationarity, core.feasibility, abs(core.complementarity) / 10.0)
        )
        assert np.all(core.y_star[: pb.m] >= 0.0)

    def test_generated_family_minimizes_at_origin(self):
        # Every generated instance has |Q| < l1 weight coordinatewise, so the
        # origin is stationary for each f_i and strictly feasible for the
        # coupled constraints: the optimum is exactly zero.
        for seed in (0, 3, 11):
            pb = generate_example(5, 3, 2, 2, seed=seed)
            assert np.all(np.abs(pb.Q) < pb.l1_weight)
            core = centralized_solve(pb, tol=1e-9)
            assert core.f_star == pytest.approx(0.0, abs=1e-10)
            assert np.max(np.abs(core.x_star.x)) <= 1e-9
            assert np.max(np.abs(core.y_star)) <= 1e-9

    def test_exhausted_al_solve_raises(self, monkeypatch):
        # the degenerate generated instances pass their first stop test at
        # iteration 0, so only an active instance can use up the iterations
        real = oracle._al_minimize
        monkeypatch.setattr(oracle, "_al_minimize", lambda *args: real(*args, max_iters=2))
        with pytest.raises(NotConvergedError, match=r"^outer iteration 1: .* > 1\.0e-04$"):
            centralized_solve(active_coupling_instance(), tol=1e-9)

    def test_infeasible_instance_raises(self):
        with pytest.raises(InfeasibleProblemError):
            centralized_solve(infeasible_single_agent())

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan")])
    def test_nonpositive_tol_rejected(self, tol):
        with pytest.raises(AssumptionViolatedError, match="tol must be positive"):
            centralized_solve(quadratic_single_agent(m=1), tol=tol)


class TestGridOracle:
    def test_matches_centralized_on_singleton(self):
        # Constraint slack scales with the inequality's Lipschitz constant (6
        # on the radius-3 ball), so the value can dip ~3x resolution below.
        got = grid_oracle(quadratic_single_agent(m=1), resolution=1e-5)
        assert got["f_best"] == pytest.approx(-2.0, abs=1e-4)
        assert got["x_best"][0] == pytest.approx(1.0, abs=1e-3)

    def test_equality_coupled_pair(self):
        got = grid_oracle(linear_pair_with_equality(), resolution=1e-5)
        assert abs(got["f_best"]) <= 2e-5

    def test_matches_centralized_on_generated_instances(self):
        for seed in (0, 1, 2):
            for n in (2, 3):
                pb = generate_example(n, 1, 1, 1, seed=seed)
                core = centralized_solve(pb, tol=1e-9)
                got = grid_oracle(pb, resolution=1e-4)
                assert abs(core.f_star - got["f_best"]) <= 2e-4

    def test_resolution_halving_never_hurts(self):
        pb = linear_pair_with_equality()
        errs = [abs(grid_oracle(pb, resolution=r)["f_best"]) for r in (1e-3, 5e-4, 2.5e-4)]
        for coarse, fine in zip(errs, errs[1:]):
            assert fine <= coarse + 1e-12

    def test_infeasible_instance_raises(self):
        with pytest.raises(InfeasibleProblemError):
            grid_oracle(infeasible_single_agent(), resolution=1e-3)

    def test_dimension_guard(self):
        with pytest.raises(TooLargeError):
            grid_oracle(generate_example(3, 2, 1, 1, seed=0), resolution=1e-3)


class TestDualityGap:
    def test_gap_zero_without_coupling(self):
        pb = quadratic_single_agent()
        core = centralized_solve(pb, tol=1e-9)
        assert duality_gap_check(core, pb) <= 1e-8

    def test_gap_small_on_generated_instance(self):
        pb = generate_example(4, 2, 2, 1, seed=7)
        core = centralized_solve(pb, tol=1e-9)
        assert duality_gap_check(core, pb) <= 1e-6

    def test_gap_small_with_active_multiplier(self):
        pb = quadratic_single_agent(m=1)
        core = centralized_solve(pb, tol=1e-9)
        assert duality_gap_check(core, pb) <= 1e-8

    def test_perturbed_multiplier_grows_gap(self):
        # Raising the inequality multiplier away from its optimum must push the
        # dual value strictly below the primal optimum.
        pb = generate_example(4, 2, 2, 1, seed=7)
        core = centralized_solve(pb, tol=1e-9)
        gap0 = duality_gap_check(core, pb)
        y_bad = core.y_star.copy()
        y_bad[: pb.m] += 0.5
        vals, _, _, done = dual_value_batch(pb, y_bad, tol=1e-10)
        assert done.all()
        gap_bad = abs(core.f_star - float(vals.sum()))
        assert gap_bad >= 100.0 * max(gap0, 1e-8)
        assert gap_bad >= 0.01
