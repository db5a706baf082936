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
from duca.metrics import MetricsCollector, make_certificate
from duca.oracle import centralized_solve
from duca.problem import generate_example

from reference import brute_force_sums, from_agent_data, nonzero_start, reference_round
from test_localsolver import without_newton

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
    return from_agent_data(
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


TUNING = {Variant.PGC: {"rho_prime": 0.5}, Variant.DPGA: {"c": 1.0}}


class TestMailbox:
    @given(
        n=hst.integers(min_value=2, max_value=40),
        extra=hst.integers(min_value=0, max_value=60),
        seed=hst.integers(min_value=0, max_value=10_000),
        variant=hst.sampled_from(list(Variant)),
    )
    @settings(max_examples=60, deadline=None)
    def test_sums_match_per_agent_loop(self, n, extra, seed, variant):
        # every matrix of the setting, read alone and through ``sums`` (both
        # L and M of a double-exchange setting from one gather), equals the
        # per-agent loop bit for bit, signed zeros included, on entries of
        # mixed magnitudes
        g = random_connected_graph(n, min(n - 1 + extra, n * (n - 1) // 2), seed=seed)
        s = make_setting(variant, g, rho=1.0, tuning=TUNING.get(variant))
        mb = s.mailbox
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-30, 31, size=(n, 4))
        x[rng.random((n, 4)) < 0.2] = 0.0
        x[rng.random((n, 4)) < 0.2] = -0.0
        sums = mb.sums(x)
        assert sorted(sums) == sorted(s.exchange)
        for name, W in s.exchange.items():
            want = brute_force_sums(W, g.neighbor_lists, x).view(np.int64)
            assert np.array_equal(mb.weighted_sum(name, x).view(np.int64), want)
            assert np.array_equal(sums[name].view(np.int64), want)
        assert mb.links == 2 * g.n_edges

    def test_one_sum_serves_the_names_of_one_matrix(self):
        # DIST_ADMM exchanges L = M as one object: sums() makes one sum and
        # serves it under both names, with the bits of two separate sums, and
        # a state holding it round-trips through dump_state/load_state
        pb, s = small_case(variant=Variant.DIST_ADMM)
        assert s.exchange["L"] is s.exchange["M"]
        x = np.random.default_rng(1).standard_normal((6, pb.mp))
        sums = s.mailbox.sums(x)
        assert sums["L"] is sums["M"]
        for name in ("L", "M"):
            alone = s.mailbox.weighted_sum(name, x)
            assert np.array_equal(sums[name].view(np.int64), alone.view(np.int64))
        st = run(pb, s, 3, y0=np.ones((6, pb.mp)))
        assert st.WY["L"] is st.WY["M"] and st.WY0["L"] is st.WY0["M"]
        text = dump_state(st)
        st2 = load_state(text)
        assert dump_state(st2) == text
        assert all(np.array_equal(st2.WY[name], st.WY[name]) for name in ("L", "M"))
        # ALT's L and M are two matrices, so two sums
        _, alt = small_case(variant=Variant.ALT)
        sums = alt.mailbox.sums(x)
        assert sums["L"] is not sums["M"]

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
        # agents 1 and 2 have dimension 1; the error names the first row
        # with a nonzero entry beyond its agent's dimension
        g = random_connected_graph(3, 2, seed=0)
        dims = (2, 1, 1)
        pb = from_agent_data(
            P=[np.eye(d) for d in dims],
            Q=[np.zeros(d) for d in dims],
            a=[np.zeros(d) for d in dims],
            c=[1.0] * 3,
            a_prime=[np.zeros((1, d)) for d in dims],
            c_prime=[np.ones(1)] * 3,
            B=[np.zeros((0, d)) for d in dims],
            c_eq=[np.zeros(0)] * 3,
        )
        s = make_setting(Variant.PEXTRA, g, rho=1.0)
        x0 = np.zeros((3, 2))
        x0[0, 1] = x0[1, 0] = 0.5  # inside agents 0 and 1's dimensions
        init(pb, s, x0=x0)
        x0[2, 1] = 0.5  # beyond agent 2's dimension
        with pytest.raises(InvalidInitError, match="x0 row 2 has nonzero padding"):
            init(pb, s, x0=x0)
        x0[1, 1] = -0.5  # beyond agent 1's dimension too
        with pytest.raises(InvalidInitError, match="x0 row 1 has nonzero padding"):
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

    def test_v_is_implicit_and_z_is_rho_L_sum_y(self):
        pb, s = small_case(variant=Variant.ALT)
        st = run(pb, s, 7, y0=np.ones((6, pb.mp)))
        assert st.V is None
        assert np.allclose(st.Z, s.rho * s.exchange["L"] @ st.sum_Y, atol=1e-14)


BENCH_PROBLEM = generate_example(20, 3, 1, 5, seed=42)


def disagreement_identity_errors(s, errors):
    """A run hook appending each state's worst error in the exact identities
    of the disagreement variables, computed apart from the mailbox path with
    dense N x N products: ``V == rho * P_Htilde @ sum_Y`` in single mode
    (v0 = 0), ``Z == rho * L @ sum_Y`` and ``U == Z + rho * M @ Y`` in double
    mode."""

    def hook(st):
        if s.exchange_mode == "single":
            errors.append(np.abs(st.V - s.rho * s.P_Htilde @ st.sum_Y).max())
        else:
            L, M = s.exchange["L"], s.exchange["M"]
            errors.append(max(np.abs(st.Z - s.rho * L @ st.sum_Y).max(),
                              np.abs(st.U - (st.Z + s.rho * M @ st.Y)).max()))

    return hook


class TestDisagreementIdentities:
    @pytest.mark.parametrize("q_scale", [1.0, 4.0], ids=["degenerate", "active"])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_exact_at_every_round(self, variant, q_scale):
        # seed-42 benchmark instance (x* = 0) and its Q x4 twin, where all
        # six multipliers are nonzero.  A v-update at 0.9*rho and a u built
        # from the stale z break these at round 1; the engine's own check of
        # the v (z) identity, made through the table, raises on the first.
        pb = dataclasses.replace(BENCH_PROBLEM, Q=q_scale * BENCH_PROBLEM.Q)
        s = make_setting(variant, SEED_GRAPH, rho=1.0, tuning=TUNING.get(variant))
        errors = []
        run(pb, s, 50, y0=ONES_Y0, hook=disagreement_identity_errors(s, errors))
        assert len(errors) == 51
        assert max(errors) <= 1e-10

    @pytest.mark.parametrize("rounds, shift", [(3, 1e-6), (4, 1e-10)])
    @pytest.mark.parametrize("variant", [Variant.DUCA_I, Variant.ALT])
    def test_engine_check_refuses_a_broken_identity(self, variant, rounds, shift):
        # a change that keeps sum_i v_i = 0 (and touches only z in double
        # mode) passes every other in-run check of the next round; the bar
        # scales with the identity's right-hand side, so even a 1e-10 shift
        # at round 5 is caught
        pb, s = small_case(variant=variant)
        st = run(pb, s, rounds, y0=np.ones((6, pb.mp)))
        held = st.V if st.V is not None else st.Z
        held[0, 0] += shift
        held[1, 0] -= shift
        with pytest.raises(InvariantBreachError,
                           match=f"round {rounds + 1}: disagreement identity"):
            step(st, pb, s)


def assert_round_matches_reference(pb, s, st, rounds):
    """Step ``rounds`` times, comparing every round with ``reference_round``."""
    for _ in range(rounds):
        want = reference_round(pb, s, st)
        step(st, pb, s)
        for name, ref in want.items():
            got = getattr(st, name)
            if name == "WY":
                assert sorted(got) == sorted(ref)
                got, ref = (np.stack([sums[key] for key in sorted(ref)]) for sums in (got, ref))
            assert np.abs(got - ref).max(initial=0.0) <= 1e-10, f"round {st.k}: {name}"


class TestAgainstReferenceRound:
    @given(n=hst.integers(min_value=2, max_value=7),
           extra=hst.integers(min_value=0, max_value=8),
           seed=hst.integers(min_value=0, max_value=10_000),
           variant=hst.sampled_from(list(Variant)),
           alpha=hst.sampled_from([0.0, 0.1]),
           q_scale=hst.sampled_from([1.0, 4.0]))
    @settings(max_examples=60, deadline=None)
    def test_every_round_matches_on_small_graphs(self, n, extra, seed, variant, alpha,
                                                 q_scale):
        g = random_connected_graph(n, min(n - 1 + extra, n * (n - 1) // 2), seed=seed)
        base = generate_example(n, 2, 1, 2, seed=seed)
        pb = dataclasses.replace(base, Q=q_scale * base.Q)
        s = make_setting(variant, g, rho=1.0, alpha=alpha, tuning=TUNING.get(variant))
        st = init(pb, s, *nonzero_start(pb, np.random.default_rng(seed)))
        assert_round_matches_reference(pb, s, st, 4)

    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    @pytest.mark.parametrize("q_scale", [1.0, 4.0], ids=["degenerate", "active"])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_every_round_matches_on_the_benchmark_instance(self, variant, q_scale, alpha):
        pb = dataclasses.replace(BENCH_PROBLEM, Q=q_scale * BENCH_PROBLEM.Q)
        s = make_setting(variant, SEED_GRAPH, rho=1.0, alpha=alpha,
                         tuning=TUNING.get(variant))
        st = init(pb, s, *nonzero_start(pb, np.random.default_rng(42)))
        assert_round_matches_reference(pb, s, st, 5)


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
        # One inner iteration is too few on the shipped instance: 2 of the
        # 20 agents end round 1 without a certificate, 6 over five rounds.
        # Round 1 starts at x = 0, where the Newton chain opens the
        # coordinates the certificate releases; without the Newton finish
        # 19 agents end round 1 uncertified, and 83 solves over five rounds.
        pb = generate_example(20, 3, 1, 5, seed=42)
        s = make_setting(Variant.DUCA_I, SEED_GRAPH, rho=1.0)
        x0, y0 = np.zeros((20, pb.dmax)), np.ones((20, pb.mp))
        monkeypatch.setattr("duca.engine.solve_local_batch",
                            functools.partial(solve_local_batch, max_iters=1))
        with pytest.raises(InvariantBreachError, match="round 1: 2 of 20 local solves"):
            run(pb, s, 5, x0, y0, check=True)
        st = run(pb, s, 5, x0, y0, check=False)
        assert st.solver_failures == 6
        without_newton(monkeypatch)
        with pytest.raises(InvariantBreachError, match="round 1: 19 of 20 local solves"):
            run(pb, s, 5, x0, y0, check=True)
        st = run(pb, s, 5, x0, y0, check=False)
        assert st.solver_failures == 83

    def test_long_start_needs_the_stall_guard(self, monkeypatch):
        # From a start at 64/L, with the Newton finish off, one DUCA_I solve
        # stalls in round 213 (16 solves stay uncertified over the 300
        # rounds).  The stall guard's drop to 1/L certifies them; with the
        # Newton finish on, every solve certifies even without the guard.
        # The start at 32/L no longer stalls since the solver's momentum
        # went; with it, one solve stalled in round 216.
        import duca.localsolver as ls

        pb = generate_example(20, 3, 1, 5, seed=42)
        s = make_setting(Variant.DUCA_I, SEED_GRAPH, rho=1.0)
        x0, y0 = np.zeros((20, pb.dmax)), np.ones((20, pb.mp))
        monkeypatch.setattr(ls, "LONG_STEP", 64.0)
        monkeypatch.setattr("duca.engine.solve_local_batch",
                            functools.partial(solve_local_batch, max_iters=1000))
        monkeypatch.setattr(ls, "STALL_ITERS", 1000)  # never reached
        st = run(pb, s, 300, x0, y0, check=True)
        assert st.solver_failures == 0
        without_newton(monkeypatch)
        monkeypatch.setattr(ls, "STALL_ITERS", 100)
        st = run(pb, s, 300, x0, y0, check=True)
        assert st.solver_failures == 0
        monkeypatch.setattr(ls, "STALL_ITERS", 1000)
        with pytest.raises(InvariantBreachError, match="round 213: 1 of 20"):
            run(pb, s, 300, x0, y0, check=True)

    def test_per_run_constants_built_once(self, monkeypatch):
        # a 50-round checked run with a checking collector gathers the
        # local solver's round arrays (the problem's rows and 1/d') once and
        # checks its start against the certificate once, not every round;
        # the next run, with another setting, builds its own
        import duca.localsolver as ls
        import duca.metrics as met

        base = generate_example(20, 3, 1, 5, seed=42)
        pb = dataclasses.replace(base, Q=4.0 * base.Q)
        x0 = np.zeros((20, pb.dmax))
        core = centralized_solve(pb, tol=1e-9)
        builds, starts = [], []
        rows, check_start = ls._problem_rows, met._check_start
        monkeypatch.setattr(ls, "_problem_rows", lambda p: builds.append(p) or rows(p))
        monkeypatch.setattr(met, "_check_start",
                            lambda st, cert: starts.append(st.k) or check_start(st, cert))
        for k, variant in enumerate((Variant.DUCA_I, Variant.DIST_ADMM), start=1):
            s = make_setting(variant, SEED_GRAPH, rho=1.0)
            cert = make_certificate(core, pb, s, x0=x0, y0=ONES_Y0)
            coll = MetricsCollector(pb, s, cert, check=True)
            st = run(pb, s, 50, x0, ONES_Y0, hook=coll, check=True)
            assert st.inner_iters_total > 50 and len(coll.rows) == 50
            assert len(builds) == k and builds[-1] is pb
            assert starts == [0] * k

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

    def test_active_rounds_inner_iterations_pinned(self, monkeypatch):
        # The benchmark's active-coupling rounds: Q x4, x0 = 0, y0 = 1, 20
        # checked rounds each.  Continuing the Newton chain past its second
        # step on the rows it missed takes them from 894 and 719 inner
        # iterations (the chain capped at two steps) to 406 and 381.
        import duca.localsolver as ls

        base = generate_example(20, 3, 1, 5, seed=42)
        pb = dataclasses.replace(base, Q=4.0 * base.Q)
        x0 = np.zeros((20, pb.dmax))
        counts = {}
        for cap in (ls.NEWTON_STEPS, 2):
            monkeypatch.setattr(ls, "NEWTON_STEPS", cap)
            for variant in (Variant.DUCA_I, Variant.DIST_ADMM):
                st = run(pb, make_setting(variant, SEED_GRAPH, rho=1.0), 20, x0, ONES_Y0,
                         check=True)
                assert st.solver_failures == 0
                counts[cap, variant] = st.inner_iters_total
        assert counts == {(6, Variant.DUCA_I): 406, (6, Variant.DIST_ADMM): 381,
                          (2, Variant.DUCA_I): 894, (2, Variant.DIST_ADMM): 719}

    def test_active_rounds_release_pinned(self, monkeypatch):
        # The same 40 active-coupling solves, in the generated agent order.
        # A chain step opens the zero coordinates its certificate cannot
        # hold, so rows stalled on the wrong face finish in their first
        # iteration: pinned are the solves that need a second iteration and
        # the calls of the descent step and of the prox.  With the release
        # dropped (every chain step held on the face its point shows), they
        # are 25, 36 and 73.
        import duca.engine as eng
        import duca.localsolver as ls

        base = generate_example(20, 3, 1, 5, seed=42)
        pb = dataclasses.replace(base, Q=4.0 * base.Q)
        x0 = np.zeros((20, pb.dmax))
        real_cert = ls._certificate_residual

        def held(*args):
            return real_cert(*args)[0], np.zeros_like(args[0])

        def counts():
            calls = {"descent": 0, "prox": 0, "second": 0}

            def counted(name, f):
                def g(*args, **kw):
                    calls[name] += 1
                    return f(*args, **kw)
                return g

            def solve(*args, **kw):
                out = solve_local_batch(*args, **kw)
                calls["second"] += int(out[2].max() >= 2)
                return out

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ls, "_descent_step", counted("descent", ls._descent_step))
                mp.setattr(ls, "_prox_l1_ball", counted("prox", ls._prox_l1_ball))
                mp.setattr(eng, "solve_local_batch", solve)
                for variant in (Variant.DUCA_I, Variant.DIST_ADMM):
                    st = run(pb, make_setting(variant, SEED_GRAPH, rho=1.0), 20, x0, ONES_Y0,
                             check=True)
                    assert st.solver_failures == 0
            return calls

        assert counts() == {"descent": 8, "prox": 13, "second": 4}
        monkeypatch.setattr(ls, "_certificate_residual", held)
        assert counts() == {"descent": 36, "prox": 73, "second": 25}


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
        assert st2.V is None
        for sums, sums2 in ((st.WY, st2.WY), (st.WY0, st2.WY0)):
            assert sorted(sums2) == ["L", "M"]
            assert all(np.array_equal(sums[name], sums2[name]) for name in sums)

    def test_double_mode_resume_matches_uninterrupted(self):
        pb, s = small_case(variant=Variant.DIST_ADMM)
        y0 = np.ones((6, pb.mp))
        resumed = load_state(dump_state(run(pb, s, 3, y0=y0)))
        for _ in range(2):
            step(resumed, pb, s)
        assert dump_state(resumed) == dump_state(run(pb, s, 5, y0=y0))
