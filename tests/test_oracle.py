"""Tests for the centralized reference solvers (method of multipliers + grid)."""

import ast
import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from duca import oracle
from duca.errors import (
    AssumptionViolatedError,
    InfeasibleProblemError,
    NotConvergedError,
    TooLargeError,
)
from duca.localsolver import _onto_sphere, dual_value_batch
from duca.oracle import (
    LONG_STEP,
    CertificateCore,
    centralized_solve,
    duality_gap_check,
    grid_oracle,
)
from duca.problem import Problem, generate_example

from reference import from_agent_data, slsqp_reference
from test_localsolver import bisect_prox_l1_ball


def quadratic_single_agent(m=0):
    """f(x) = x^2 - 4x + |x| on the ball |x| <= 3, optionally with g(x) = x^2 - 1."""
    if m:
        a_prime = [np.zeros((1, 1))]
        c_prime = [np.ones(1)]
    else:
        a_prime = [np.zeros((0, 1))]
        c_prime = [np.zeros(0)]
    return from_agent_data(
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
    return from_agent_data(
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


def scaled_q(pb):
    """``pb`` with Q scaled 4x, which moves the optimum off x = 0."""
    return dataclasses.replace(pb, Q=4.0 * pb.Q)


def active_coupling_instance():
    """The seed-42 benchmark instance with Q scaled 4x: all six multipliers bind."""
    return scaled_q(generate_example(20, 3, 1, 5, seed=42))


def without_newton(monkeypatch):
    """Turn the AL solve's Newton finish off: no candidate is ever usable."""
    monkeypatch.setattr(oracle, "_al_newton_candidate", lambda pb, X, *args: (X, False))


def active_grid_instances():
    """[08]'s ten 2-3 agent, d=1 draws with Q scaled 4x, so the coupling binds."""
    rng = np.random.default_rng(2026)
    for _ in range(10):
        n = int(rng.integers(2, 4))
        seed = int(rng.integers(0, 10_000))
        if n > 2:
            rng.integers(2, 4)  # [08]'s link count: drawn to keep its sequence
        yield scaled_q(generate_example(n, 1, 1, 1, seed=seed))


@pytest.fixture(scope="module")
def traced_active_solve():
    """Solve the active instance once, recording every AL solve and prox step.

    A prox call whose output is next handed to ``_al_value_grad`` is a descent
    step; any other prox call with a nonzero step is a stop test, and it tests
    a Newton candidate when the last evaluation was at the candidate.  Each
    prox record carries the worst-case step 1/L of the AL solve it belongs to.
    ``events`` lists the starts of AL solves, the prox records and the Newton
    candidates, each as (point it is built at, candidate, mu, lam, rho_c), in
    the order they happened; the multipliers and penalty are the enclosing AL
    solve's.
    """
    pb = active_coupling_instance()
    trace = {"solves": [], "prox": [], "eta0": None, "candidate": None, "at_candidate": False,
             "events": [], "mults": None}

    def lipschitz(*args):
        lip = real_lip(*args)
        trace["eta0"] = 1.0 / max(lip, 1e-12)
        return lip

    def prox(V, thresh, a, c):
        out = real_prox(V, thresh, a, c)
        step = float(thresh[0]) / pb.l1_weight
        trace["prox"].append({"step": step, "eta0": trace["eta0"], "out": out, "descent": False,
                              "candidate": trace["at_candidate"]})
        trace["events"].append(("prox", trace["prox"][-1]))
        trace["at_candidate"] = False
        return out

    def value_grad(pb_, X, *args):
        if trace["prox"] and trace["prox"][-1]["out"] is X:
            trace["prox"][-1]["descent"] = True
        trace["at_candidate"] = X is trace["candidate"]
        return real_vg(pb_, X, *args)

    def candidate(*args):
        out = real_cand(*args)
        trace["events"].append(("candidate", (args[1], out[0]) + trace["mults"]))
        trace["candidate"] = out[0]
        return out

    def minimize(*args):
        trace["events"].append(("solve", None))
        trace["mults"] = args[2:5]
        out = real_min(*args)
        trace["solves"].append({"res": out[1], "iters": out[2], "tol": args[5],
                                "newton": out[3]})
        return out

    real_lip, real_prox = oracle._al_lipschitz, oracle._prox_l1_ball
    real_vg, real_min = oracle._al_value_grad, oracle._al_minimize
    real_cand = oracle._al_newton_candidate
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_al_lipschitz", lipschitz)
        mp.setattr(oracle, "_prox_l1_ball", prox)
        mp.setattr(oracle, "_al_value_grad", value_grad)
        mp.setattr(oracle, "_al_minimize", minimize)
        mp.setattr(oracle, "_al_newton_candidate", candidate)
        core = centralized_solve(pb, tol=1e-9)
    return pb, core, trace


class TestLongStartReference:
    def test_stop_test_never_exceeds_worst_case_step(self, traced_active_solve):
        _, _, trace = traced_active_solve
        stops = [r for r in trace["prox"] if not r["descent"] and r["step"] > 0.0]
        descents = [r for r in trace["prox"] if r["descent"] and r["step"] > 0.0]
        assert stops and descents
        assert all(r["step"] <= r["eta0"] * (1.0 + 1e-12) for r in stops)
        # the Newton candidates are tested by the same stop test
        assert any(r["candidate"] for r in stops)
        assert not any(r["candidate"] for r in descents)
        # the solver itself does take the long step
        assert any(r["step"] == pytest.approx(LONG_STEP * r["eta0"], rel=1e-12)
                   for r in descents)

    def test_every_al_solve_certifies_within_budget(self, traced_active_solve):
        _, core, trace = traced_active_solve
        solves = trace["solves"]
        # res <= tol only when the stop test ended the solve, not max_iters
        assert solves
        assert all(s["res"] <= s["tol"] for s in solves)
        # outer iterations / AL iterations / prox calls: 14 / 78 / 183 with
        # candidates on settled faces only, refused unless they passed the
        # stop test; 7 / 42 / 84 with a candidate on every iteration, kept
        # when it lowers the value, and 20x penalty growth after a Newton
        # finish; 7 / 42 / 77 without a zero-step prox at each solve's start
        assert core.outer_iters <= 7
        assert sum(s["iters"] for s in solves) <= 44
        assert len(trace["prox"]) <= 77
        # every prox call is a descent step or a stop test: none has step 0
        assert all(r["step"] > 0.0 for r in trace["prox"])

    def test_kept_candidates_lower_the_value(self, traced_active_solve):
        # every iteration builds a candidate at its iterate, so within an AL
        # solve the points candidates are built at are the iterates.  An
        # iterate that is the last candidate is a kept candidate: it lowers
        # the composite value strictly, and no iterate raises it
        pb, _, trace = traced_active_solve

        def composite(X, mu, lam, rho_c):
            val = oracle._al_value_grad(pb, X, mu, lam, rho_c)[0]
            return val + pb.l1_weight * float(np.abs(X).sum())

        built = kept = 0
        for kind, data in trace["events"]:
            if kind == "solve":
                last = None
            elif kind == "candidate":
                X, Xc, *mults = data
                comp = composite(X, *mults)
                if last is not None:
                    assert comp <= last[2] + 1e-12 * (1.0 + abs(last[2]))
                    if X is last[1]:
                        kept += 1
                        assert comp < last[2]
                built += 1
                last = (X, Xc, comp)
        # one candidate per iteration, counting a solve's final candidate
        assert built == sum(s["iters"] for s in trace["solves"])
        assert kept > 0
        assert any(s["newton"] for s in trace["solves"])

    def test_active_coupling_certificate(self, traced_active_solve):
        pb, core, _ = traced_active_solve
        assert core.y_star.shape == (6,)
        assert np.all(np.abs(core.y_star) > 1e-3)
        assert np.all(core.y_star[: pb.m] > 0.0)
        assert core.stationarity <= 1e-9
        assert core.feasibility <= 1e-9
        # the dual function is evaluated by the local solver, not the AL loop
        assert duality_gap_check(core, pb) <= 1e-8


def lagrangian_stationarity(pb, core):
    """Worst per-agent prox-gradient gap of the plain Lagrangian at (x*, y*).

    The gradient is written out per agent from the problem arrays,
    ``2 P_i x + q_i + 2 sum_j mu_j (x - a'_ij) + B_i^T lam``, and each row
    takes one prox step at ``t_i = 1/(curv_P_i + 2 sum mu)`` through the
    bisection prox, so nothing here is the oracle's or the local solver's.
    """
    X = core.x_star.rows(pb.dmax)
    mu, lam = core.y_star[: pb.m], core.y_star[pb.m :]
    grad = np.array([2.0 * pb.P[i] @ X[i] + pb.Q[i]
                     + 2.0 * sum(mu[j] * (X[i] - pb.a_prime[i, j]) for j in range(pb.m))
                     + pb.B[i].T @ lam for i in range(pb.n_agents)])
    t = 1.0 / (pb.curv_P + 2.0 * mu.sum())
    step = bisect_prox_l1_ball(X - t[:, None] * grad, t * pb.l1_weight, pb.a, pb.c)
    return float((np.linalg.norm(X - step, axis=1) / t).max())


def relabeled(pb, perm):
    """The same problem with agent perm[r] renamed r."""
    arrays = {name: getattr(pb, name)[perm]
              for name in ("P", "Q", "a", "c", "a_prime", "c_prime", "B", "c_eq")}
    return dataclasses.replace(pb, dims=tuple(pb.dims[i] for i in perm), **arrays)


class TestGroundTruth:
    """The reference against an independent solver, relabelings and itself."""

    @pytest.mark.parametrize("make", [
        active_coupling_instance,
        lambda: scaled_q(generate_example(6, 2, 2, 1, seed=3)),
    ], ids=["active-N20", "N6-Q4"])
    def test_matches_slsqp(self, make):
        pytest.importorskip("scipy")
        pb = make()
        core = centralized_solve(pb, tol=1e-9)
        f, X, y = slsqp_reference(pb)
        assert np.any(core.y_star[: pb.m] > 1e-3)
        # the polished reference agrees to 1.3e-9 at worst on these two
        assert abs(core.f_star - f) <= 1e-8
        np.testing.assert_allclose(core.x_star.rows(pb.dmax), X, rtol=0.0, atol=1e-8)
        np.testing.assert_allclose(core.y_star, y, rtol=0.0, atol=1e-8)

    @pytest.mark.parametrize("make", [
        active_coupling_instance,
        lambda: scaled_q(generate_example(6, 2, 2, 1, seed=3)),
    ], ids=["active-N20", "N6-Q4"])
    def test_stationarity_bounds_the_lagrangian_residual(self, make):
        # the reported stationarity is the last AL solve's stop-test gap; the
        # AL gradient there is the Lagrangian's at y*, and it is probed at a
        # step no longer than each row's 1/(curv_P_i + 2 sum mu*), where the
        # gap is no smaller, so it bounds the Lagrangian's own per-row gap
        pb = make()
        core = centralized_solve(pb, tol=1e-9)
        assert np.any(core.y_star[: pb.m] > 1e-3)
        assert core.stationarity <= 1e-9
        # measured 2.5e-13 and 1.9e-13 against 8.0e-12 and 4.9e-12; the slack
        # is rounding only, so a stationarity reported as 0 fails
        assert lagrangian_stationarity(pb, core) <= core.stationarity + 1e-15

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relabeling_permutes_the_solution(self, seed):
        pb = active_coupling_instance()
        perm = np.random.default_rng(seed).permutation(pb.n_agents)
        core = centralized_solve(pb, tol=1e-9)
        got = centralized_solve(relabeled(pb, perm), tol=1e-9)
        assert abs(got.f_star - core.f_star) <= 1e-9 * abs(core.f_star)
        np.testing.assert_allclose(got.x_star.rows(pb.dmax), core.x_star.rows(pb.dmax)[perm],
                                   rtol=0.0, atol=1e-8)

    def test_two_solves_give_the_same_bits(self):
        pb = active_coupling_instance()
        one, two = centralized_solve(pb, tol=1e-9), centralized_solve(pb, tol=1e-9)
        assert one.x_star.x.tobytes() == two.x_star.x.tobytes()
        assert one.y_star.tobytes() == two.y_star.tobytes()
        assert [one.f_star, one.stationarity, one.feasibility, one.complementarity,
                one.outer_iters] == [two.f_star, two.stationarity, two.feasibility,
                                     two.complementarity, two.outer_iters]


def dense_newton_step(pb, X, mu, lam, rho_c, h=1e-3):
    """Reference Newton step: the dense face KKT system, Hessian by differences.

    Each column of the AL Hessian over the free (nonzero) coordinates comes
    from central differences of ``_al_value_grad``'s gradient at steps h and
    2h, combined so that the h^2 term cancels: between hinge kinks the
    gradient is a cubic polynomial, on which this is exact up to rounding.
    Ball rows border the Hessian with ``2*(x - a)`` and add ``2*nu`` to their
    diagonal.
    """
    grad = oracle._al_value_grad(pb, X, mu, lam, rho_c)[1]
    free = np.flatnonzero(X != 0.0)

    def central(k, step):
        E = np.zeros(X.size)
        E[k] = step
        up = oracle._al_value_grad(pb, X + E.reshape(X.shape), mu, lam, rho_c)[1]
        down = oracle._al_value_grad(pb, X - E.reshape(X.shape), mu, lam, rho_c)[1]
        return (up - down).ravel()[free] / (2.0 * step)

    H = np.empty((len(free), len(free)))
    for col, k in enumerate(free):
        H[:, col] = (4.0 * central(k, h) - central(k, 2.0 * h)) / 3.0
    g = (grad + pb.l1_weight * np.sign(X)).ravel()[free]
    row = free // X.shape[1]
    e = (X - pb.a).ravel()[free]
    n2 = ((X - pb.a) ** 2).sum(axis=1)
    ball = []
    for i in range(pb.n_agents):
        on = row == i
        nu = -(g[on] @ e[on]) / (2.0 * (e[on] @ e[on])) if on.any() else 0.0
        if on.any() and n2[i] >= pb.c[i] * (1.0 - 1e-10) and nu > 0.0:
            idx = np.flatnonzero(on)
            H[idx, idx] += 2.0 * nu
            ball.append(i)
    K = np.zeros((len(free) + len(ball),) * 2)
    K[: len(free), : len(free)] = 0.5 * (H + H.T)
    for b, i in enumerate(ball):
        K[: len(free), len(free) + b] = K[len(free) + b, : len(free)] = np.where(row == i, 2.0 * e, 0.0)
    rhs = np.concatenate([-g, pb.c[ball] - n2[ball]])
    dX = np.zeros(X.size)
    cond = 1.0
    if len(free):
        dX[free] = np.linalg.solve(K, rhs)[: len(free)]
        cond = np.linalg.cond(K)
    return dX.reshape(X.shape), np.isin(np.arange(pb.n_agents), ball), cond


def test_oracle_shares_four_kernels_with_the_local_solver():
    # the reference judges the local solver, so what it takes from it is
    # kept to this list; a new shared name has to change this test
    tree = ast.parse(inspect.getsource(oracle))
    shared = {alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == "localsolver"
              for alias in node.names}
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names if alias.name.endswith("localsolver")}
    assert shared == {"_onto_sphere", "_prox_l1_ball", "_radial_clip", "dual_value_batch"}
    assert not modules


class TestNewtonFinish:
    @given(n=st.integers(1, 4), d=st.integers(1, 3), m=st.integers(0, 2), p=st.integers(0, 2),
           hinge_on=st.lists(st.booleans(), min_size=2, max_size=2),
           rho_c=st.sampled_from([0.5, 1.0, 4.0]), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_structured_step_matches_dense_kkt(self, n, d, m, p, hinge_on, rho_c, seed):
        # random points with zero coordinates and rows on their spheres; mu
        # is chosen so that each hinge mu + rho_c*G is +-0.5 or further from
        # its kink, where the finite differences would straddle it.  The
        # differences' rounding grows with the condition number, so the
        # comparison keeps to systems with cond <= 1e4 (about 99% of draws)
        pb = generate_example(n, d, m, p, seed=seed)
        rng = np.random.default_rng(seed)
        X = pb.a + rng.uniform(-1.0, 1.0, size=(n, d)) * np.sqrt(pb.c / d)[:, None]
        X[rng.random((n, d)) < 0.25] = 0.0
        X = _onto_sphere(X, pb.a, pb.c, rng.random(n) < 0.5)
        G = np.sum(np.sum((X[:, None, :] - pb.a_prime) ** 2, axis=2) - pb.c_prime, axis=0)
        offset = rng.uniform(0.5, 2.0, size=m) * np.where(hinge_on[:m], 1.0, -1.0)
        mu = offset - rho_c * G
        lam = rng.normal(size=p)
        grad = oracle._al_value_grad(pb, X, mu, lam, rho_c)[1]
        want, want_ball, cond = dense_newton_step(pb, X, mu, lam, rho_c)
        assume(cond <= 1e4)
        got, ball = oracle._al_newton_step(pb, X, grad, mu, rho_c)
        np.testing.assert_array_equal(ball, want_ball)
        np.testing.assert_array_equal(got[X == 0.0], 0.0)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-8 * (1.0 + np.abs(want).max()))

    @pytest.mark.parametrize("garbage", [lambda X: X + 1.0, lambda X: X.copy()],
                             ids=["raises-the-value", "fails-the-stop-test"])
    def test_refused_candidate_leaves_no_trace(self, monkeypatch, garbage):
        # X + 1 raises the composite value; a copy of X passes that test and
        # fails the stop test exactly as X just did
        pb = active_coupling_instance()
        with pytest.MonkeyPatch.context() as mp:
            without_newton(mp)
            off = centralized_solve(pb, tol=1e-9)
        monkeypatch.setattr(oracle, "_al_newton_candidate",
                            lambda pb_, X, *args: (garbage(X), True))
        got = centralized_solve(pb, tol=1e-9)
        np.testing.assert_array_equal(got.x_star.x, off.x_star.x)
        assert got.f_star == off.f_star
        np.testing.assert_array_equal(got.y_star, off.y_star)
        assert got.outer_iters == off.outer_iters

    def test_singular_face_falls_back_to_the_gradient_path(self):
        # P = 0 and no hinge or ball term: the face system's blocks are
        # singular, so the candidate is unusable and the solve is the
        # gradient path's
        pb = linear_pair_with_equality()
        with pytest.MonkeyPatch.context() as mp:
            without_newton(mp)
            off = centralized_solve(pb, tol=1e-9)
        got = centralized_solve(pb, tol=1e-9)
        np.testing.assert_array_equal(got.x_star.x, off.x_star.x)
        assert got.f_star == off.f_star


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

    def test_matches_centralized_off_the_trivial_optimum(self):
        # the coupling binds on every draw (f* != 0, y* != 0).  f* is certified
        # through feasibility and stationarity <= tol with multipliers up to
        # 4.7, so the finish may move it by a few tol: measured 1.6e-10.  The
        # grid's slack lets it dip below f*: measured up to 1.99e-4.
        tol = 1e-10
        for pb in active_grid_instances():
            on = centralized_solve(pb, tol=tol)
            with pytest.MonkeyPatch.context() as mp:
                without_newton(mp)
                off = centralized_solve(pb, tol=tol)
            assert abs(on.f_star) > 1e-3 or np.abs(on.y_star).max() > 0.1
            assert abs(on.f_star - off.f_star) <= 10.0 * tol
            ref = grid_oracle(pb, resolution=1e-5)["f_best"]
            assert abs(on.f_star - ref) <= 2e-4
            assert abs(off.f_star - ref) <= 2e-4

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

    @pytest.mark.parametrize("resolution", [0.0, -1.0, float("nan")])
    def test_unreachable_resolution_rejected(self, resolution):
        # the spacing stops shrinking at 1e-14, so the zoom would never end
        with pytest.raises(AssumptionViolatedError, match="resolution must be finite"):
            grid_oracle(linear_pair_with_equality(), resolution=resolution)


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
