"""Problem instances: generator, evaluation, projection, Slater check."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from duca.errors import AssumptionViolatedError, DimMismatchError, InfeasibleProblemError
from duca.localsolver import _project_rows
from duca.problem import (
    Problem,
    StackedPoint,
    coupled_violation_norm,
    eval_objective,
    generate_example,
    gtilde_rows,
    row_sum,
    slater_check,
)

from reference import padding_fault, single_agent

SVI = generate_example(20, 3, 1, 5, seed=42)


class TestGenerateExample:
    def test_svi_sizes(self):
        pb = SVI
        assert pb.n_agents == 20 and pb.dims == (3,) * 20
        assert pb.m == 1 and pb.p == 5
        assert pb.P.shape == (20, 3, 3) and pb.B.shape == (20, 5, 3)

    def test_bit_reproducible(self):
        pb2 = generate_example(20, 3, 1, 5, seed=42)
        for name in ("P", "Q", "a", "c", "a_prime", "c_prime", "B", "c_eq"):
            np.testing.assert_array_equal(getattr(SVI, name), getattr(pb2, name))

    def test_seed_changes_data(self):
        pb2 = generate_example(20, 3, 1, 5, seed=43)
        assert not np.array_equal(SVI.Q, pb2.Q)

    def test_inequality_slack_positive(self):
        slack = np.sum(SVI.c_prime) - np.sum(SVI.a_prime**2)
        assert slack > 0

    def test_slater_point_at_zero(self):
        gt = gtilde_rows(SVI, np.zeros((SVI.n_agents, SVI.dmax)))
        assert (gt[:, : SVI.m].sum(axis=0) < 0).all()
        np.testing.assert_allclose(gt[:, SVI.m :].sum(axis=0), 0.0, atol=1e-14)
        interior = SVI.c - np.sum(SVI.a**2, axis=1)
        assert (interior > 0).all()

    def test_p_matrices_psd(self):
        assert np.linalg.eigvalsh(SVI.P).min() >= -1e-12


class TestProblemValidation:
    def test_rejects_asymmetric_p(self):
        with pytest.raises(AssumptionViolatedError):
            single_agent(P=[[1.0, 2.0], [0.0, 1.0]], Q=np.zeros(2))

    def test_rejects_indefinite_p(self):
        with pytest.raises(AssumptionViolatedError):
            single_agent(P=[[-1.0]], Q=[0.0])

    def test_rejects_ball_excluding_zero(self):
        with pytest.raises(AssumptionViolatedError):
            single_agent(P=[[1.0]], Q=[0.0], a=[3.0], c=4.0)  # ||a||^2 = 9 > 4

    @pytest.mark.parametrize("name", ["P", "Q", "a", "c", "a_prime", "c_prime", "B", "c_eq"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_data(self, name, bad):
        pb = generate_example(3, 2, 1, 1, seed=0)
        arr = getattr(pb, name).copy()
        arr.flat[0] = bad
        fields = {k: getattr(pb, k) for k in ("P", "Q", "a", "c", "a_prime", "c_prime",
                                              "B", "c_eq")}
        with pytest.raises(AssumptionViolatedError, match=f"{name} has non-finite"):
            Problem(n_agents=3, dims=pb.dims, m=1, p=1, **{**fields, name: arr})

    @pytest.mark.parametrize("w", [np.nan, np.inf, -1.0])
    def test_rejects_bad_l1_weight(self, w):
        with pytest.raises(AssumptionViolatedError, match="l1_weight"):
            single_agent(P=[[1.0]], Q=[0.0], l1_weight=w)

    def test_rejects_nonpositive_coupling_slack(self):
        with pytest.raises(AssumptionViolatedError):
            single_agent(
                P=[[1.0]], Q=[0.0],
                a_prime=[[2.0]], c_prime=[1.0],  # c' < ||a'||^2
            )

    def test_rejects_padding_violation(self):
        pb = generate_example(3, 2, 1, 1, seed=0)
        bad_Q = pb.Q.copy()
        with pytest.raises(DimMismatchError):
            Problem(
                n_agents=3, dims=(2, 1, 2), m=1, p=1,
                P=pb.P, Q=bad_Q, a=pb.a, c=pb.c,
                a_prime=pb.a_prime, c_prime=pb.c_prime, B=pb.B, c_eq=pb.c_eq,
            )  # agent 1 declared 1-dimensional but has nonzero padded data

    def test_names_the_first_bad_agent_and_its_first_bad_array(self):
        # agents 1 and 3 both have nonzero padding, each in two arrays: agent 1
        # (a and B) is named, with a, the earlier of its arrays in P, Q, a,
        # a_prime, B order
        pb = generate_example(4, 2, 1, 1, seed=0)
        arrays = _padded(pb, (2, 1, 2, 1))
        arrays["a"][1, 1] = arrays["B"][1, 0, 1] = 0.5
        arrays["Q"][3, 1] = arrays["a_prime"][3, 0, 1] = -0.5
        with pytest.raises(DimMismatchError,
                           match=r"^a\[1\] has nonzero entries beyond dimension 1$"):
            Problem(n_agents=4, dims=(2, 1, 2, 1), m=1, p=1, c=pb.c, c_prime=pb.c_prime,
                    c_eq=pb.c_eq, **arrays)

    @given(dims=st.lists(st.integers(0, 3), min_size=1, max_size=6),
           faults=st.lists(st.tuples(st.integers(0, 5),
                                     st.sampled_from(["P", "P_col", "Q", "a", "a_prime", "B"]),
                                     st.integers(0, 2), st.sampled_from([1.0, -1e-300, 5e-324])),
                           max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_padding_faults_named_as_by_the_agent_loop(self, dims, faults):
        dims = tuple(dims) + (3,)  # dmax = 3
        n = len(dims)
        pb = generate_example(n, 3, 1, 2, seed=n)
        arrays = _padded(pb, dims)
        for agent, name, k, value in faults:
            i, d = agent % n, dims[agent % n]
            if d < 3:  # a padded coordinate of agent i
                col = d + k % (3 - d)
                if name == "P_col":
                    arrays["P"][i, k, col] = value
                elif name == "P":
                    arrays["P"][i, col, k] = value
                elif name in ("a_prime", "B"):
                    arrays[name][i, 0, col] = value
                else:
                    arrays[name][i, col] = value
        want = padding_fault(dims, arrays)
        build = dict(n_agents=n, dims=dims, m=1, p=2, c=pb.c, c_prime=pb.c_prime,
                     c_eq=pb.c_eq, **arrays)
        if want is None:
            Problem(**build)
        else:
            with pytest.raises(DimMismatchError) as err:
                Problem(**build)
            assert str(err.value) == want


def _padded(pb, dims):
    """Copies of pb's P, Q, a, a_prime and B with each agent's coordinates
    beyond ``dims[i]`` zeroed (an agent of dimension 0 has none left)."""
    out = {name: getattr(pb, name).copy() for name in ("P", "Q", "a", "a_prime", "B")}
    for i, d in enumerate(dims):
        d = max(d, 0)
        out["P"][i, d:, :] = out["P"][i, :, d:] = 0.0
        out["Q"][i, d:] = out["a"][i, d:] = 0.0
        out["a_prime"][i, :, d:] = out["B"][i, :, d:] = 0.0
    return out


class TestStackedPoint:
    def test_views_and_rows_round_trip(self):
        pt = StackedPoint(x=np.arange(6.0), dims=(2, 1, 3))
        rows = pt.rows()
        np.testing.assert_array_equal(rows, [[0.0, 1.0, 0.0], [2.0, 0.0, 0.0],
                                             [3.0, 4.0, 5.0]])
        back = StackedPoint.from_rows(rows, (2, 1, 3))
        np.testing.assert_array_equal(back.x, pt.x)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimMismatchError):
            StackedPoint(x=np.zeros(5), dims=(2, 2))


class TestEvalObjective:
    def test_zero_point_gives_zero(self):
        assert eval_objective(SVI, np.zeros((SVI.n_agents, SVI.dmax))) == 0.0

    def test_identity_quadratic_example(self):
        pb = single_agent(P=np.eye(2), Q=np.zeros(2), c=9.0)
        val = eval_objective(pb, np.array([[1.0, -1.0]]))
        assert val == pytest.approx(4.0)  # 2 (quad) + 0 (lin) + 2 (l1)

    def test_accepts_stacked_point_and_raw_vector(self):
        # a raw stacked vector and its StackedPoint enter as the same padded
        # rows, and give the block-diagonal objective of the raw vector
        x = np.linspace(-1, 1, SVI.total_dim)
        v1 = eval_objective(SVI, StackedPoint(x=x, dims=SVI.dims).rows())
        v2 = eval_objective(SVI, svi_rows(x))
        assert v1 == v2
        total, off = 0.0, 0
        for i, di in enumerate(SVI.dims):
            xi = x[off : off + di]
            off += di
            total += xi @ SVI.P[i] @ xi + SVI.Q[i] @ xi + np.abs(xi).sum()
        assert v1 == pytest.approx(total, rel=1e-12)

    def test_dim_mismatch(self):
        # a network point is padded (N, dmax) rows; flat vectors and
        # StackedPoints are refused
        x = np.linspace(-1, 1, SVI.total_dim)
        for bad in (np.zeros(7), x, StackedPoint(x=x, dims=SVI.dims),
                    np.zeros((SVI.dmax, SVI.n_agents))):
            with pytest.raises(DimMismatchError):
                eval_objective(SVI, bad)
            with pytest.raises(DimMismatchError):
                coupled_violation_norm(SVI, bad)

    def test_matches_per_agent_formula(self):
        rng = np.random.default_rng(1)
        X = svi_rows(rng.normal(size=SVI.total_dim))
        total = 0.0
        for i in range(SVI.n_agents):
            xi = X[i]
            total += xi @ SVI.P[i] @ xi + SVI.Q[i] @ xi + np.abs(xi).sum()
        assert eval_objective(SVI, X) == pytest.approx(total, rel=1e-12)


def svi_rows(x):
    """Agent rows of a stacked point of SVI."""
    return StackedPoint(x=x, dims=SVI.dims).rows()


class TestEvalGtilde:
    def test_single_agent_example(self):
        pb = single_agent(
            P=[[0.0]], Q=[0.0], c=9.0,
            a_prime=[[0.0]], c_prime=[1.0], B=[[2.0]], c_eq=[0.0],
        )
        out = gtilde_rows(pb, np.array([[1.0]]))
        np.testing.assert_allclose(out, [[0.0, 2.0]])  # (1-0)^2 - 1 = 0; 2*1 = 2

    def test_interleaving_layout(self):
        # row i is agent i's block [g_i; h_i], here at x = 0
        rows = gtilde_rows(SVI, svi_rows(np.zeros(SVI.total_dim)))
        assert rows.shape == (20, 6)
        for i in range(20):
            g = np.sum(SVI.a_prime[i] ** 2, axis=1) - SVI.c_prime[i]
            np.testing.assert_array_equal(rows[i], np.concatenate([g, SVI.c_eq[i]]))

    def test_permuting_agents_permutes_blocks(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=SVI.total_dim)
        perm = rng.permutation(20)
        pb2 = Problem(
            n_agents=20, dims=SVI.dims, m=1, p=5,
            P=SVI.P[perm], Q=SVI.Q[perm], a=SVI.a[perm], c=SVI.c[perm],
            a_prime=SVI.a_prime[perm], c_prime=SVI.c_prime[perm],
            B=SVI.B[perm], c_eq=SVI.c_eq[perm],
        )
        x_rows = svi_rows(x)
        rows = gtilde_rows(SVI, x_rows)
        rows2 = gtilde_rows(pb2, x_rows[perm])
        np.testing.assert_allclose(rows2, rows[perm])

    def test_affine_equality_block(self):
        rng = np.random.default_rng(4)
        u = rng.normal(size=SVI.total_dim)
        w = rng.normal(size=SVI.total_dim)
        theta = 0.3
        lhs = gtilde_rows(SVI, svi_rows(theta * u + (1 - theta) * w))[:, 1:]
        rhs = (
            theta * gtilde_rows(SVI, svi_rows(u))[:, 1:]
            + (1 - theta) * gtilde_rows(SVI, svi_rows(w))[:, 1:]
        )
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def project_ball(a, c, x):
    """One row through the solver's radial projection onto {||z - a||^2 <= c}."""
    return _project_rows(np.asarray(x, dtype=float)[None, :], np.asarray(a)[None, :],
                         np.array([c]))[0]


class TestProjectBall:
    def test_outside_axis_aligned(self):
        np.testing.assert_allclose(
            project_ball(np.zeros(2), 1.0, np.array([2.0, 0.0])), [1.0, 0.0]
        )

    def test_inside_returns_same(self):
        x = np.array([0.3, -0.2])
        np.testing.assert_array_equal(project_ball(np.zeros(2), 1.0, x), x)

    def test_shifted_center(self):
        out = project_ball(np.array([1.0, 1.0]), 4.0, np.array([5.0, 1.0]))
        np.testing.assert_allclose(out, [3.0, 1.0])

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.normal(size=3)
            c = float(rng.uniform(0.1, 2.0))
            x = rng.normal(size=3) * 3
            p1 = project_ball(a, c, x)
            p2 = project_ball(a, c, p1)
            assert np.linalg.norm(p2 - p1) <= 1e-14

    @given(
        data=hnp.arrays(np.float64, (2, 3), elements=st.floats(-10, 10)),
        a=hnp.arrays(np.float64, 3, elements=st.floats(-3, 3)),
        c=st.floats(0.01, 9.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_nonexpansive(self, data, a, c):
        px = project_ball(a, c, data[0])
        py = project_ball(a, c, data[1])
        assert np.linalg.norm(px - py) <= np.linalg.norm(data[0] - data[1]) + 1e-12


class TestConvexity:
    def test_objective_and_inequalities_convex_equalities_affine(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            u = rng.normal(size=SVI.total_dim)
            w = rng.normal(size=SVI.total_dim)
            theta = float(rng.uniform(0.05, 0.95))
            mid = theta * u + (1 - theta) * w
            f_mid = eval_objective(SVI, svi_rows(mid))
            f_bound = (theta * eval_objective(SVI, svi_rows(u))
                       + (1 - theta) * eval_objective(SVI, svi_rows(w)))
            assert f_mid <= f_bound + 1e-9
            gu = gtilde_rows(SVI, svi_rows(u))
            gw = gtilde_rows(SVI, svi_rows(w))
            gm = gtilde_rows(SVI, svi_rows(mid))
            assert (gm[:, :1] <= theta * gu[:, :1] + (1 - theta) * gw[:, :1] + 1e-9).all()
            np.testing.assert_allclose(
                gm[:, 1:], theta * gu[:, 1:] + (1 - theta) * gw[:, 1:], atol=1e-12
            )


class TestSlaterCheck:
    def test_generated_instance_passes(self):
        slater_check(SVI)  # raises on failure

    def test_fails_when_zero_outside_ball(self):
        # 0 outside a local ball breaks the Slater point; Problem refuses it
        # before slater_check can see it
        pb = generate_example(3, 2, 1, 1, seed=0)
        with pytest.raises(AssumptionViolatedError, match="0 is interior"):
            Problem(
                n_agents=3, dims=pb.dims, m=1, p=1,
                P=pb.P, Q=pb.Q, a=pb.a, c=np.sum(pb.a**2, axis=1) * 0.5,
                a_prime=pb.a_prime, c_prime=pb.c_prime, B=pb.B, c_eq=pb.c_eq,
            )

    def test_fails_on_shifted_equalities(self):
        pb = generate_example(3, 2, 1, 1, seed=0)
        shifted = Problem(
            n_agents=3, dims=pb.dims, m=1, p=1,
            P=pb.P, Q=pb.Q, a=pb.a, c=pb.c, a_prime=pb.a_prime,
            c_prime=pb.c_prime, B=pb.B, c_eq=pb.c_eq + 1.0,
        )
        with pytest.raises(InfeasibleProblemError,
                           match=r"coupled equality sums vanish at 0 \(\|\|sum h\|\| = "):
            slater_check(shifted)


#: entries a narrow row sum must carry through, besides ordinary values
SUM_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, -1e-300,
                         5e-324, np.finfo(float).max])


class TestRowSum:
    @given(
        shape=st.one_of(
            st.tuples(st.integers(0, 6), st.integers(0, 12)),
            st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 12)),
        ),
        fortran=st.booleans(),
        special=st.sampled_from([0.0, 0.1, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(shape=(6, 8), fortran=False, special=0.0, seed=0)
    @example(shape=(4, 3, 8), fortran=False, special=0.1, seed=1)
    @example(shape=(6, 7), fortran=False, special=0.1, seed=2)
    @settings(max_examples=400, deadline=None)
    def test_bits_equal_numpy_sum(self, shape, fortran, special, seed):
        # the column adds give A.sum(axis=-1) bit for bit, over every width
        # (0-12, so both sides of the 8 terms where numpy goes pairwise) and
        # in either memory order; NaN where numpy gives NaN.  Most entries
        # are of comparable size, so that the order of the adds shows in
        # the rounding; a share of them are special values
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.choice([-300, -3, 0, 3, 300], size=shape, p=[.05, .3, .3, .3, .05])
        A = rng.standard_normal(shape) * scale
        mask = rng.random(shape) < special
        A[mask] = rng.choice(SUM_SPECIALS, size=int(mask.sum()))
        if fortran:
            A = np.asfortranarray(A)
        with np.errstate(all="ignore"):
            got, want = row_sum(A), A.sum(axis=-1)
        assert got.shape == want.shape
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
