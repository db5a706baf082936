"""Tests for the synchronous message-passing engine."""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from duca.engine import (
    cone_split,
    dump_state,
    ergodic_point,
    init,
    load_state,
    run,
    step,
)
from duca.errors import (
    AssumptionViolatedError,
    ConfigError,
    InsufficientDataError,
    InvalidInitError,
    InvariantBreachError,
    MailboxError,
)
from duca.graphs import (
    Mailbox,
    ParamSetting,
    Variant,
    build_graph,
    make_setting,
    random_connected_graph,
)
from duca.localsolver import solve_local_batch
from duca.problem import Problem, generate_example

SEED_GRAPH = random_connected_graph(20, 40, seed=42)
SEED_PROBLEM = generate_example(20, 3, 3, 3, seed=42)
ONES_Y0 = np.ones((20, 6))


def small_case(seed=3, variant=Variant.DUCA_I, alpha=0.0, rho=1.0):
    g = random_connected_graph(6, 9, seed=seed)
    pb = generate_example(6, 2, 2, 1, seed=seed)
    s = make_setting(variant, g, rho=rho, alpha=alpha)
    return pb, s


def single_agent_problem():
    """f(x) = x^2 - 4x + |x| on |x| <= 3 with coupled g(x) = x^2 - 1 <= 0.

    Optimum x* = 1, f* = -2, multiplier mu* = 0.5.
    """
    return Problem.from_agent_data(
        P=[[[1.0]]],
        Q=[[-4.0]],
        a=[[0.0]],
        c=[9.0],
        a_prime=[np.zeros((1, 1))],
        c_prime=[np.ones(1)],
        B=[np.zeros((0, 1))],
        c_eq=[np.zeros(0)],
        l1_weight=1.0,
    )


def single_agent_setting(d_prime=2.0):
    return ParamSetting(
        variant=Variant.DUCA_I,
        graph=build_graph(1, []),
        exchange={"H": np.zeros((1, 1))},
        d_prime=np.array([d_prime]),
        rho=1.0,
    )


def brute_force_sums(W, nbrs, x):
    """W_ii x_i + sum_j W_ij x_j per agent, neighbors ascending: the reference."""
    out = np.empty_like(x)
    for i in range(len(nbrs)):
        acc = W[i, i] * x[i]
        for j in nbrs[i]:
            acc = acc + W[i, j] * x[j]
        out[i] = acc
    return out


TUNING = {Variant.PGC: {"rho_prime": 0.5}, Variant.DPGA: {"c": 1.0}}


class TestMailbox:
    @given(
        n=hst.integers(min_value=2, max_value=9),
        extra=hst.integers(min_value=0, max_value=8),
        seed=hst.integers(min_value=0, max_value=10_000),
        variant=hst.sampled_from(list(Variant)),
    )
    @settings(max_examples=60, deadline=None)
    def test_sums_match_per_agent_loop(self, n, extra, seed, variant):
        g = random_connected_graph(n, min(n - 1 + extra, n * (n - 1) // 2), seed=seed)
        s = make_setting(variant, g, rho=1.0, tuning=TUNING.get(variant))
        mb = s.mailbox
        x = np.random.default_rng(seed).standard_normal((n, 4))
        for name, W in s.exchange.items():
            got = mb.weighted_sum(name, x)
            assert np.array_equal(got, brute_force_sums(W, g.neighbor_lists, x))
        assert mb.links == 2 * g.n_edges

    @given(seed=hst.integers(min_value=0, max_value=10_000),
           variant=hst.sampled_from(list(Variant)))
    @settings(max_examples=12, deadline=None)
    def test_comm_grows_by_links_per_exchange(self, seed, variant):
        g = random_connected_graph(5, 7, seed=seed)
        pb = generate_example(5, 2, 1, 1, seed=seed)
        s = make_setting(variant, g, rho=1.0, tuning=TUNING.get(variant))
        st = init(pb, s, y0=np.ones((5, pb.mp)))
        exchanges = 2 if s.exchange_mode == "double" else 1
        for k in range(1, 4):
            step(st, pb, s)
            assert st.comm_total == k * exchanges * 2 * g.n_edges * pb.mp

    @pytest.mark.parametrize("variant", list(Variant))
    def test_off_graph_weight_rejected(self, variant):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        s = make_setting(variant, g, rho=1.0, tuning=TUNING.get(variant))
        name, W = next(iter(s.exchange.items()))
        bad = W.copy()
        bad[0, 3] = bad[3, 0] = -0.01  # agents 0 and 3 are not linked
        # the setting refuses it, so no table is ever built from it
        with pytest.raises(AssumptionViolatedError,
                           match=rf"{name} weighs no unlinked agents \(weight at \[0, 3\]\)"):
            dataclasses.replace(s, exchange={**s.exchange, name: bad})

    def test_table_built_once_per_setting(self, monkeypatch):
        pb, s = small_case()
        built = []
        build = Mailbox.__init__
        monkeypatch.setattr(Mailbox, "__init__",
                            lambda table, setting: built.append(setting) or build(table, setting))
        run(pb, s, 3)
        step(run(pb, s, 2), pb, s)
        assert built == [s]
        assert s.mailbox is s.mailbox

    def test_roundtrip_and_counting(self):
        g = build_graph(2, [(0, 1)])
        s = make_setting(Variant.PEXTRA, g, rho=1.0)
        mb = s.mailbox
        x = np.array([[1.0, 2.0], [3.0, 5.0]])
        W = s.P_H
        assert np.array_equal(mb.weighted_sum("H", x)[0], W[0, 0] * x[0] + W[0, 1] * x[1])
        assert np.array_equal(mb.weighted_sum("H", x)[1], W[1, 1] * x[1] + W[1, 0] * x[0])
        assert mb.links == 2
        pb = generate_example(2, 2, 1, 1, seed=0)
        st = init(pb, s, y0=np.ones((2, pb.mp)))
        step(st, pb, s)
        assert st.comm_total == 2 * pb.mp

    def test_send_to_non_neighbor_refused(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        P_H = np.array([[1.0, -0.5, -0.5], [-0.5, 1.0, -0.5], [-0.5, -0.5, 1.0]])
        # P_H weighs agents 0 and 2, which are not linked
        with pytest.raises(AssumptionViolatedError, match=r"weight at \[0, 2\]"):
            ParamSetting(variant=Variant.DUCA_I, exchange={"H": P_H},
                         d_prime=np.full(3, 2.0), rho=1.0, graph=g)

    def test_missing_message(self):
        pb, s = small_case()
        mb = s.mailbox
        with pytest.raises(MailboxError):
            mb.weighted_sum("L", np.zeros((6, pb.mp)))  # single mode exchanges only H

    def test_messages_are_copies(self):
        _, s = small_case()
        mb = s.mailbox
        x = np.random.default_rng(0).standard_normal((6, 3))
        x_before = x.copy()
        got = mb.weighted_sum("H", x)
        assert np.array_equal(x, x_before)
        kept = got.copy()
        x[:] = 99.0
        assert np.array_equal(got, kept)


class TestConeSplit:
    def test_scalar_example(self):
        # d' = 2 with mu-tilde = -3, g = 1 and lambda-tilde = 1, h = 0.5:
        # pre = [-2, 1.5], so mu+ = 0 and lambda+ = 0.75.
        pre = np.array([[-3.0 + 1.0, 1.0 + 0.5]])
        proj, sigma = cone_split(pre, m=1)
        y_plus = proj / 2.0
        assert y_plus[0, 0] == 0.0
        assert y_plus[0, 1] == 0.75
        assert sigma[0, 0] == 2.0
        assert sigma[0, 1] == 0.0

    def test_reconstruction_and_complementarity(self):
        rng = np.random.default_rng(0)
        pre = rng.normal(size=(7, 5))
        proj, sigma = cone_split(pre, m=3)
        assert np.array_equal(proj - sigma, pre)
        assert np.all(proj * sigma == 0.0)
        assert np.all(sigma[:, 3:] == 0.0)


class TestInit:
    def test_defaults_are_zero(self):
        pb, s = small_case()
        st = init(pb, s)
        assert st.k == 0
        for arr in (st.X, st.Y, st.V, st.SIG, st.sum_X, st.sum_Y, st.cum_gs):
            assert np.all(arr == 0.0)
        assert st.Z is None and st.U is None
        assert st.comm_total == 0

    def test_double_mode_u0_from_one_exchange(self):
        pb, s = small_case(variant=Variant.DIST_ADMM)
        st = init(pb, s)
        assert np.all(st.U == 0.0)
        # consensus y0: u_i0 = rho * (sum_j M_ij) * y-hat per agent
        y0 = np.tile(np.linspace(0.5, 2.5, pb.mp), (6, 1))
        st2 = init(pb, s, y0=y0)
        expect = s.rho * s.exchange["M"].sum(axis=1)[:, None] * y0[0][None, :]
        assert np.allclose(st2.U, expect, atol=1e-14)

    def test_negative_mu_block_rejected(self):
        pb, s = small_case()
        y0 = np.zeros((6, 5))
        y0[2, 0] = -1.0
        with pytest.raises(InvalidInitError):
            init(pb, s, y0=y0)

    def test_non_finite_start_rejected(self):
        pb, s = small_case()
        x0 = np.zeros((6, pb.dmax))
        x0[1, 0] = np.inf
        y0 = np.zeros((6, pb.mp))
        y0[4, 2] = np.nan
        with pytest.raises(InvalidInitError, match="finite"):
            init(pb, s, x0=x0)
        with pytest.raises(InvalidInitError, match="finite"):
            init(pb, s, y0=y0)

    def test_wrong_shapes_rejected(self):
        pb, s = small_case()
        with pytest.raises(InvalidInitError):
            init(pb, s, y0=np.zeros((6, 4)))
        with pytest.raises(InvalidInitError):
            init(pb, s, x0=np.zeros((5, 2)))

    def test_padding_violation_rejected(self):
        g = random_connected_graph(2, 1, seed=0)
        pb = Problem.from_agent_data(
            P=[np.eye(2), np.eye(1)],
            Q=[np.zeros(2), np.zeros(1)],
            a=[np.zeros(2), np.zeros(1)],
            c=[1.0, 1.0],
            a_prime=[np.zeros((1, 2)), np.zeros((1, 1))],
            c_prime=[np.ones(1), np.ones(1)],
            B=[np.zeros((0, 2)), np.zeros((0, 1))],
            c_eq=[np.zeros(0), np.zeros(0)],
        )
        s = make_setting(Variant.PEXTRA, g, rho=1.0)
        x0 = np.zeros((2, 2))
        x0[1, 1] = 0.5  # beyond agent 1's dimension
        with pytest.raises(InvalidInitError):
            init(pb, s, x0=x0)


class TestSingleExchange:
    def test_reduces_to_multiplier_method_for_one_agent(self):
        pb = single_agent_problem()
        s = single_agent_setting(d_prime=2.0)
        st = init(pb, s)
        step(st, pb, s)
        # With no neighbors and v = 0 the round is exactly one multiplier-
        # method step with penalty 1/d': same solve, then the cone update.
        ref = solve_local_batch(pb, np.zeros((1, 1)), np.array([2.0]), 0.0,
                                np.zeros((1, 1)))[0]
        assert np.allclose(st.X[0], ref[0], atol=1e-12)
        g_val = st.X[0, 0] ** 2 - 1.0
        assert st.Y[0, 0] == pytest.approx(max(g_val, 0.0) / 2.0, abs=1e-14)
        assert np.all(st.V == 0.0)

    def test_converges_to_constrained_optimum(self):
        pb = single_agent_problem()
        s = single_agent_setting(d_prime=2.0)
        st = run(pb, s, 400)
        assert st.X[0, 0] == pytest.approx(1.0, abs=1e-6)
        assert st.Y[0, 0] == pytest.approx(0.5, abs=1e-6)
        assert st.solver_failures == 0

    def test_comm_count_matches_topology(self):
        s = make_setting(Variant.DUCA_I, SEED_GRAPH, rho=1.0)
        st = init(SEED_PROBLEM, s, y0=ONES_Y0)
        assert st.comm_total == 0
        step(st, SEED_PROBLEM, s)
        assert st.comm_total == 480  # 2 * |E| * (m+p) = 2 * 40 * 6
        step(st, SEED_PROBLEM, s)
        assert st.comm_total == 960

    def test_mode_mismatch_rejected(self):
        pb, s = small_case(variant=Variant.DIST_ADMM)
        st = init(pb, s)
        _, single = small_case()
        with pytest.raises(ConfigError):
            step(st, pb, single)

    def test_nonnegative_mu_and_sigma_structure(self):
        pb, s = small_case(seed=5)
        st = run(pb, s, 30, y0=np.ones((6, pb.mp)))
        assert st.Y[:, : pb.m].min() >= 0.0
        assert np.all(st.SIG[:, pb.m :] == 0.0)
        assert st.SIG[:, : pb.m].min() >= 0.0
        assert abs(st.V.sum(axis=0)).max() <= 1e-9 * st.k
        assert st.moreau_residual <= 1e-10
        assert st.cumulative_residual <= 1e-8


class TestDoubleExchange:
    def test_u_tracks_z_plus_weighted_dual_sum(self):
        # u - z must equal rho * (M y) at every round; with M == L the gap
        # is exactly the last z increment.
        for variant in (Variant.DIST_ADMM, Variant.ALT):
            pb, s = small_case(variant=variant)
            st = run(pb, s, 12, y0=np.ones((6, pb.mp)))
            gap = s.rho * (s.exchange["M"] @ st.Y)
            assert np.allclose(st.U - st.Z, gap, atol=1e-12)
            assert not np.array_equal(st.U, st.Z)

    def test_dist_admm_u_gap_is_last_z_increment(self):
        pb, s = small_case(variant=Variant.DIST_ADMM)
        st = init(pb, s, y0=np.ones((6, pb.mp)))
        prev_Z = st.Z.copy()
        for _ in range(8):
            prev_Z = st.Z.copy()
            step(st, pb, s)
        assert np.allclose(st.U, 2.0 * st.Z - prev_Z, atol=1e-12)

    def test_comm_count_doubles(self):
        s = make_setting(Variant.DIST_ADMM, SEED_GRAPH, rho=1.0)
        st = init(SEED_PROBLEM, s, y0=ONES_Y0)
        step(st, SEED_PROBLEM, s)
        assert st.comm_total == 960  # 2 exchanges of 2 * |E| * (m+p)

    def test_mode_mismatch_rejected(self):
        pb, s = small_case()
        st = init(pb, s)
        _, double = small_case(variant=Variant.DIST_ADMM)
        with pytest.raises(ConfigError):
            step(st, pb, double)

    def test_v_mirror_tracks_L_times_z(self):
        pb, s = small_case(variant=Variant.ALT)
        st = run(pb, s, 7, y0=np.ones((6, pb.mp)))
        assert np.allclose(st.V, s.exchange["L"] @ st.Z, atol=1e-14)


class TestRun:
    def test_zero_rounds_rejected(self):
        pb, s = small_case()
        with pytest.raises(ConfigError):
            run(pb, s, 0)

    def test_hook_sees_rounds_in_order(self):
        pb, s = small_case()
        ks = []
        run(pb, s, 5, hook=lambda st: ks.append(st.k))
        assert ks == [0, 1, 2, 3, 4, 5]

    def test_deterministic_repetition(self):
        pb, s = small_case(seed=8)
        y0 = np.ones((6, pb.mp))
        st1 = run(pb, s, 25, y0=y0)
        st2 = run(pb, s, 25, y0=y0)
        assert dump_state(st1) == dump_state(st2)

    def test_uncertified_solve_raises_when_checked(self, monkeypatch):
        # One inner iteration is too few on the shipped instance: 19 of the
        # 20 agents end round 1 without a certificate, 83 over five rounds.
        pb = generate_example(20, 3, 1, 5, seed=42)
        s = make_setting(Variant.DUCA_I, SEED_GRAPH, rho=1.0)
        x0, y0 = np.zeros((20, pb.dmax)), np.ones((20, pb.mp))
        monkeypatch.setattr("duca.engine.solve_local_batch",
                            functools.partial(solve_local_batch, max_iters=1))
        with pytest.raises(InvariantBreachError, match="round 1: 19 of 20 local solves"):
            run(pb, s, 5, x0, y0, check=True)
        st = run(pb, s, 5, x0, y0, check=False)
        assert st.solver_failures == 83

    def test_long_start_needs_the_stall_guard(self, monkeypatch):
        # From a start at 32/L one DUCA_I solve stalls in round 216: there
        # the backtracking test sits inside its rounding slack and accepts a
        # step that is too long.  The stall guard's drop to 1/L certifies it;
        # without the guard it stays uncertified (also at max_iters=20000).
        import duca.localsolver as ls

        pb = generate_example(20, 3, 1, 5, seed=42)
        s = make_setting(Variant.DUCA_I, SEED_GRAPH, rho=1.0)
        x0, y0 = np.zeros((20, pb.dmax)), np.ones((20, pb.mp))
        monkeypatch.setattr(ls, "LONG_STEP", 32.0)
        monkeypatch.setattr("duca.engine.solve_local_batch",
                            functools.partial(solve_local_batch, max_iters=1000))
        st = run(pb, s, 300, x0, y0, check=True)
        assert st.solver_failures == 0
        monkeypatch.setattr(ls, "STALL_ITERS", 1000)  # never reached
        with pytest.raises(InvariantBreachError, match="round 216: 1 of 20"):
            run(pb, s, 300, x0, y0, check=True)

    def test_zero_start_is_a_fixed_point_here(self):
        # The generated family minimizes at the origin with slack coupled
        # constraints, so the all-zero default start never moves.
        pb, s = small_case(seed=2)
        st = run(pb, s, 3)
        assert np.all(st.X == 0.0)
        assert np.all(st.Y == 0.0)

    @pytest.mark.parametrize("variant", [Variant.DUCA_I, Variant.DIST_ADMM])
    def test_zero_start_moves_when_the_coupling_binds(self, variant):
        # Q x4 on the seed-42 instance makes every multiplier nonzero, so the
        # origin is no longer optimal and the same zero start must move
        base = generate_example(20, 3, 1, 5, seed=42)
        pb = dataclasses.replace(base, Q=4.0 * base.Q)
        s = make_setting(variant, SEED_GRAPH, rho=1.0)
        st = run(pb, s, 3, check=True)
        assert np.any(st.X != 0.0)
        assert np.any(st.Y != 0.0)
        assert st.solver_failures == 0


class TestErgodicPoint:
    def test_first_round_equals_instantaneous(self):
        pb, s = small_case()
        st = run(pb, s, 1, y0=np.ones((6, pb.mp)))
        xbar, ybar = ergodic_point(st, pb)
        assert np.array_equal(xbar, st.X)
        assert np.allclose(ybar, st.Y.mean(axis=0), atol=1e-15)

    def test_constant_trajectory_average(self):
        pb, s = small_case()
        st = run(pb, s, 6)  # zero start stays put
        xbar, _ = ergodic_point(st, pb)
        assert xbar.shape == (6, pb.dmax) and np.all(xbar == 0.0)

    def test_matches_direct_history_average(self):
        pb, s = small_case(seed=9)
        hist_x, hist_y = [], []

        def hook(st):
            if st.k:
                hist_x.append(st.X.copy())
                hist_y.append(st.Y.copy())

        st = run(pb, s, 10, y0=np.ones((6, pb.mp)), hook=hook)
        xbar, ybar = ergodic_point(st, pb)
        assert np.allclose(xbar, np.mean(hist_x, axis=0), atol=1e-14)
        assert np.allclose(ybar, np.mean(hist_y, axis=0).mean(axis=0), atol=1e-14)

    def test_requires_at_least_one_round(self):
        pb, s = small_case()
        st = init(pb, s)
        with pytest.raises(InsufficientDataError):
            ergodic_point(st, pb)


class TestCheckpoint:
    def test_round_trip_bit_exact(self):
        pb, s = small_case(seed=4)
        st = run(pb, s, 5, y0=np.ones((6, pb.mp)))
        text = dump_state(st)
        st2 = load_state(text)
        assert dump_state(st2) == text

    def test_resume_matches_uninterrupted(self):
        pb, s = small_case(seed=4)
        y0 = np.ones((6, pb.mp))
        full = run(pb, s, 8, y0=y0)

        part = run(pb, s, 5, y0=y0)
        resumed = load_state(dump_state(part))
        for _ in range(3):
            step(resumed, pb, s)
        assert dump_state(resumed) == dump_state(full)

    def test_double_mode_round_trip(self):
        pb, s = small_case(variant=Variant.ALT)
        st = run(pb, s, 4, y0=np.ones((6, pb.mp)))
        st2 = load_state(dump_state(st))
        assert np.array_equal(st2.Z, st.Z)
        assert np.array_equal(st2.U, st.U)
