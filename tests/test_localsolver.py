"""Inner solver: subgradients, prox, certificates, and grid-oracle agreement."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from duca.errors import AssumptionViolatedError, InvariantBreachError
from duca.localsolver import (
    DEFAULT_MAX_ITERS,
    DEFAULT_TOL,
    NEWTON_STEPS,
    _certificate_residual,
    _dual_value_and_grad,
    _newton_step,
    _prox_grad_loop,
    _prox_l1_ball,
    _radial_clip,
    _root_segment,
    _round_lipschitz,
    _round_value_and_grad,
    dual_value_batch,
    solve_local_batch,
)
from duca.problem import generate_example

from reference import (
    Subproblem,
    from_agent_data,
    grid_local,
    one_agent,
    random_subproblem,
    round_objective,
    single_agent,
    solve_one,
)

SVI = generate_example(20, 3, 1, 5, seed=42)


# ---------------------------------------------------------------------------
# Bisection references: the solver's earlier scalar searches, kept to check
# the exact breakpoint solves against.  Both bracket the root by doubling and
# then take 60 bisection steps.


def _soft_ref(v, thr):
    return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)


def bisect_prox_l1_ball(V, thr, a, c):
    """Prox of thr*||.||_1 + ball indicator; ball multiplier by bisection.

    Every returned row is the feasible end of its bracket.
    """
    X = _soft_ref(V, thr[:, None])
    bad = np.sum((X - a) ** 2, axis=1) - c > 0.0
    if bad.any():
        Vb, ab, thrb, cb = V[bad], a[bad], thr[bad], c[bad]

        def gap_at(nu):
            Z = _soft_ref(Vb + nu[:, None] * ab, thrb[:, None]) / (1.0 + nu[:, None])
            return np.sum((Z - ab) ** 2, axis=1) - cb

        hi = np.ones(len(cb))
        for _ in range(200):
            still = gap_at(hi) > 0.0
            if not still.any():
                break
            hi[still] *= 2.0
        lo = np.zeros_like(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            pos = gap_at(mid) > 0.0
            lo = np.where(pos, mid, lo)
            hi = np.where(pos, hi, mid)
        X[bad] = _soft_ref(Vb + hi[:, None] * ab, thrb[:, None]) / (1.0 + hi[:, None])
    return X


def bisect_certificate_residual(X, grads, eta, a, c, w, margin=0.0):
    """Fixed-point gap with the normal multiplier t found by bisection, and
    the release signs at that t.

    A kink coordinate (x_j = 0, w > 0) is released with ``sign(want_j)``,
    ``want = -(grads + t*(x - a))``, when ``|want_j| > w + margin``, and held
    (0) when ``|want_j| < w - margin``; in between its sign is NaN, since
    the bisected t cannot decide it.
    """
    diff = X - a
    n2 = np.sum(diff**2, axis=1)
    active = n2 >= c * (1.0 - 1e-10)
    kink = X == 0.0
    fixed_sigma = w * np.sign(X)

    def sigma_at(t):
        if w == 0.0:
            return fixed_sigma
        want = -(grads + t[:, None] * diff)
        return np.where(kink, np.clip(want, -w, w), fixed_sigma)

    def half_dphi(t):
        # sigma - want, not grads + sigma + t*diff: on a kink coordinate whose
        # selection is interior the term is then exactly 0, so a flat piece
        # of the derivative reads 0 and not rounding noise of either sign
        resid = sigma_at(t) + (grads + t[:, None] * diff)
        return np.sum(resid * diff, axis=1)

    t = np.zeros(len(X))
    need = active & (half_dphi(t) < 0.0)
    if need.any():
        hi = np.ones(len(X))
        for _ in range(200):
            still = need & (half_dphi(hi) < 0.0)
            if not still.any():
                break
            hi[still] *= 2.0
        lo = np.zeros(len(X))
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            neg = half_dphi(mid) < 0.0
            lo = np.where(neg, mid, lo)
            hi = np.where(neg, hi, mid)
        t = np.where(need, 0.5 * (lo + hi), t)
    want = -(grads + t[:, None] * diff)
    edge = np.abs(np.abs(want) - w)
    release = np.where(kink & (w != 0.0) & (np.abs(want) > w), np.sign(want), 0.0)
    release[kink & (w != 0.0) & (edge <= margin)] = np.nan
    s = grads + sigma_at(t)
    snorm = np.linalg.norm(s, axis=1)
    eta_c = np.minimum(eta, 2.0 * np.sqrt(c) / np.maximum(snorm, 1e-300))
    stepped = X - eta_c[:, None] * s
    d2 = stepped - a
    m2 = np.sum(d2**2, axis=1)
    scale = np.where(m2 > c, np.sqrt(c / np.where(m2 > c, m2, 1.0)), 1.0)
    back = a + scale[:, None] * d2
    return np.linalg.norm(X - back, axis=1) / eta_c, release


def fl(lo, hi):
    return st.floats(lo, hi, allow_subnormal=False)


@st.composite
def prox_rows(draw):
    """Prox inputs with 1-4 coordinates: some columns of a zero (padding),
    thr = 0 on some draws (the oracle's projection), and balls from tight to
    wide, so that some rows start inside."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    V = draw(hnp.arrays(np.float64, (n, d), elements=fl(-6.0, 6.0)))
    a = draw(hnp.arrays(np.float64, (n, d), elements=fl(-2.0, 2.0)))
    a[:, draw(hnp.arrays(bool, d))] = 0.0
    c = draw(hnp.arrays(np.float64, n, elements=fl(0.05, 30.0)))
    zero_thr = draw(st.booleans())
    thr = np.zeros(n) if zero_thr else draw(hnp.arrays(np.float64, n, elements=fl(0.0, 2.0)))
    return V, thr, a, c


@st.composite
def certificate_rows(draw):
    """Ball-active rows (||x - a||^2 == c) with some x_j exactly 0, random
    gradients and steps; w = 0 on some draws."""
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    X = draw(hnp.arrays(np.float64, (n, d), elements=fl(-3.0, 3.0)))
    X[draw(hnp.arrays(bool, (n, d)))] = 0.0
    a = draw(hnp.arrays(np.float64, (n, d), elements=fl(-2.0, 2.0)))
    c = np.sum((X - a) ** 2, axis=1)
    keep = c >= 1e-3
    grads = draw(hnp.arrays(np.float64, (n, d), elements=fl(-5.0, 5.0)))
    eta = draw(hnp.arrays(np.float64, n, elements=fl(0.01, 1.0)))
    w = draw(st.one_of(st.just(0.0), fl(0.01, 2.0)))
    return X[keep], grads[keep], eta[keep], a[keep], c[keep], w


def without_newton(monkeypatch):
    """Turn the solver's Newton finish off: no Newton step is ever usable."""
    import duca.localsolver as ls

    monkeypatch.setattr(ls, "_newton_step", lambda smooth, X, grads, a, c, w, release=0.0:
                        (X, np.zeros(len(X), dtype=bool)))


class TestLocalSubproblem:
    def test_validation(self):
        # the batch front end refuses a nonpositive scale or tolerance
        Yt, d_prime, anchor = _round_batch()
        with pytest.raises(AssumptionViolatedError, match="d_prime"):
            solve_local_batch(SVI, Yt, np.where(np.arange(20) == 3, 0.0, d_prime), 0.0, anchor)
        with pytest.raises(AssumptionViolatedError, match="tol"):
            solve_local_batch(SVI, Yt, d_prime, 0.0, anchor, tol=0.0)


def round_subgradient(pb, ytilde, d_prime, x):
    """The round objective's subgradient at one agent's x as the solver forms
    it: the smooth part's gradient plus the l1 selection w*sign(x)."""
    smooth = _round_value_and_grad(pb, ytilde[None, :], np.array([d_prime]), 0.0,
                                   np.zeros((1, len(x))))
    return smooth(x[None, :])[1][0] + pb.l1_weight * np.sign(x)


class TestCompositeSubgradient:
    def test_inactive_hinge_leaves_sign_and_equality(self):
        pb = single_agent(
            P=np.zeros((2, 2)), Q=np.zeros(2), c=9.0,
            a_prime=[[0.0, 0.0]], c_prime=[100.0],  # g << 0 everywhere near 0
            B=[[1.0, 0.0], [0.0, 2.0]], c_eq=[0.0, 0.0],
        )
        d_prime = 2.0
        lam = np.array([0.3, -0.4])
        x = np.array([0.7, -1.2])
        B = np.array([[1.0, 0.0], [0.0, 2.0]])
        expected = np.sign(x) + B.T @ (lam + B @ x) / d_prime
        got = round_subgradient(pb, np.concatenate([[0.0], lam]), d_prime, x)
        np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_one_dim_hinge_contribution(self):
        # g(x) = x^2 - 1, mu-tilde = 0, x = 2: hinge adds [3]_+ * 2*(2-0) = 12
        pb = single_agent(
            P=[[0.0]], Q=[0.0], c=9.0, a_prime=[[0.0]], c_prime=[1.0],
            l1_weight=0.0,
        )
        np.testing.assert_allclose(round_subgradient(pb, np.zeros(1), 1.0, np.array([2.0])),
                                   [12.0])

    def test_finite_difference_away_from_kinks(self):
        # gradients of both smooth parts against central differences of their
        # values, and their Hessians against central differences of the
        # gradients.  The smooth parts carry no l1 term; a row is checked
        # only away from the hinge kinks mu + ||x - a'_j||^2 = c'_j, across
        # which the Hessian of a squared hinge jumps.
        rng = np.random.default_rng(11)
        h = 1e-6
        checked = hinged = 0
        for k in range(24):
            n, d, m, p = 6, 1 + k % 3, k % 3, 1 + k % 2
            base = generate_example(n, d, m, p, seed=int(rng.integers(1 << 30)))
            pb = dataclasses.replace(base, c_eq=rng.uniform(-1.0, 1.0, size=(n, p)))
            round_part = _round_value_and_grad(
                pb, rng.normal(scale=2.0, size=(n, m + p)), rng.uniform(0.5, 2.0, size=n),
                0.3, rng.uniform(-0.5, 0.5, size=(n, d)))
            dual_part = _dual_value_and_grad(pb, np.abs(rng.normal(size=(n, m))),
                                             rng.normal(size=(n, p)))
            X = rng.uniform(-1.0, 1.0, size=(n, d))
            arg = round_part.mu + ((X[:, None, :] - round_part.a_prime) ** 2).sum(axis=2)
            arg -= round_part.c_prime
            keep = (np.abs(arg) > 1e-3).all(axis=1)
            checked += int(keep.sum())
            hinged += int((keep & (arg > 0.0).any(axis=1)).sum())
            for part in (round_part, dual_part):
                _val, grad = part(X)
                hess = part.hessian(X)
                for j in range(d):
                    E = np.zeros_like(X)
                    E[:, j] = h
                    (vp, gp), (vm, gm) = part(X + E), part(X - E)
                    np.testing.assert_allclose(((vp - vm) / (2 * h))[keep], grad[keep, j],
                                               rtol=1e-6, atol=1e-6)
                    np.testing.assert_allclose(((gp - gm) / (2 * h))[keep], hess[keep, :, j],
                                               rtol=1e-6, atol=1e-6)
        assert checked >= 100 and hinged >= 20


class TestProxL1Ball:
    def test_matches_cvxpy(self):
        cp = pytest.importorskip("cvxpy")
        rng = np.random.default_rng(12)
        for _ in range(10):
            d = 3
            v = rng.normal(scale=2.0, size=d)
            a = rng.normal(scale=0.5, size=d)
            c = float(rng.uniform(0.2, 2.0))
            thr = float(rng.uniform(0.0, 1.0))
            got = _prox_l1_ball(v[None, :], np.array([thr]), a[None, :],
                                np.array([c]))[0]
            x = cp.Variable(d)
            obj = 0.5 * cp.sum_squares(x - v) + thr * cp.norm1(x)
            prob = cp.Problem(cp.Minimize(obj), [cp.sum_squares(x - a) <= c])
            prob.solve(solver=cp.CLARABEL)
            fval = lambda z: 0.5 * np.sum((z - v) ** 2) + thr * np.abs(z).sum()
            # exact feasibility and an objective no worse than the conic solver's
            assert np.sum((got - a) ** 2) <= c
            assert fval(got) <= fval(x.value) + 1e-8
            np.testing.assert_allclose(got, x.value, atol=1e-4)

    def test_unconstrained_region_is_soft_threshold(self):
        v = np.array([[0.5, -0.2, 0.05]])
        out = _prox_l1_ball(v, np.array([0.1]), np.zeros((1, 3)), np.array([4.0]))
        np.testing.assert_allclose(out[0], [0.4, -0.1, 0.0])
        assert out[0, 2] == 0.0  # kink coordinates are exact zeros

    def test_zero_weight_is_projection(self):
        v = np.array([[3.0, 0.0]])
        out = _prox_l1_ball(v, np.array([0.0]), np.zeros((1, 2)), np.array([1.0]))
        np.testing.assert_allclose(out[0], [1.0, 0.0], atol=1e-12)

    def test_result_feasible(self):
        rng = np.random.default_rng(13)
        V = rng.normal(scale=3.0, size=(40, 3))
        a = rng.normal(scale=0.5, size=(40, 3))
        c = rng.uniform(0.1, 2.0, size=40)
        thr = rng.uniform(0.0, 1.0, size=40)
        X = _prox_l1_ball(V, thr, a, c)
        assert (np.sum((X - a) ** 2, axis=1) <= c).all()

    @given(rows=prox_rows())
    @settings(max_examples=300, deadline=None)
    # a far breakpoint 2/a_j = 2^1023: evaluating x(nu) there overflowed, and
    # the bracket landed beyond the root at nu = 2^1023
    @example(rows=(np.array([[-1.0, -1.0], [-1.0, -1.0]]), np.array([1.0, 1.0]),
                   np.array([[0.0, 0.0], [2.2250738585072014e-308, 2.0]]),
                   np.array([1.0, 1.0])))
    def test_matches_bisection_and_kkt(self, rows):
        V, thr, a, c = rows
        X = _prox_l1_ball(V, thr, a, c)
        ref = bisect_prox_l1_ball(V, thr, a, c)
        # tolerance fixed beforehand: both solve the same 1-D root problem,
        # the reference to a bracket of 2^-60 times its initial width
        np.testing.assert_allclose(X, ref, rtol=0.0, atol=1e-12)
        assert (np.sum((X - a) ** 2, axis=1) <= c).all()  # exact feasibility
        soft = _soft_ref(V, thr[:, None])
        inside = np.sum((soft - a) ** 2, axis=1) <= c
        np.testing.assert_array_equal(X[inside], soft[inside])  # nu = 0
        for i in np.where(~inside)[0]:
            # KKT: x = soft(v + nu*a, thr)/(1+nu), nu >= 0, on the sphere;
            # nu from the stationarity rows v - x - thr*sign(x) = nu*(x - a)
            nz = X[i] != 0.0
            e = (X[i] - a[i])[nz]
            if e @ e < 1e-2:
                continue  # nu is poorly determined by so few rows
            r = (V[i] - X[i] - thr[i] * np.sign(X[i]))[nz]
            nu = (r @ e) / (e @ e)
            assert nu >= -1e-9
            kkt = _soft_ref(V[i] + nu * a[i], thr[i]) / (1.0 + nu)
            np.testing.assert_allclose(X[i], kkt, rtol=0.0, atol=1e-9)
            assert np.sum((X[i] - a[i]) ** 2) >= c[i] * (1.0 - 1e-12)

    @pytest.mark.parametrize("root_before", [1.4e308, np.inf])
    def test_root_segment_near_the_float_range(self, root_before):
        # kinks at 1.2e308 and 1.6e308: the point inside the root's piece
        # (between them, or past the last) must not overflow to inf or nan
        base = np.array([[0.0, 0.0, 0.5]])
        slope = np.array([[1.0, 0.75, 0.0]])
        lo, hi, u = _root_segment(base, slope, np.array([[1.2e308]]),
                                  slope != 0.0, lambda T: T < root_before)
        assert np.isfinite(u).all() and u[0, 2] == 0.5
        assert lo[0] < u[0, 0] and (u[0, 0] < hi[0] or np.isinf(hi[0]))

    def test_radial_clip_lands_inside(self):
        # before the clip kept shrinking, 268 of the 98,969 rows that start
        # outside stayed outside by up to 4.4e-16
        rng = np.random.default_rng(5)
        n = 100_000
        a = rng.normal(scale=0.5, size=(n, 3))
        c = rng.uniform(0.05, 2.0, size=n)
        X = rng.normal(scale=3.0, size=(n, 3))
        assert int((np.sum((X - a) ** 2, axis=1) > c).sum()) == 98_969
        out = _radial_clip(X, a, c)
        assert (np.sum((out - a) ** 2, axis=1) <= c).all()

    def test_radial_clip_raises_when_no_shrink_lands_inside(self):
        with pytest.raises(InvariantBreachError), np.errstate(invalid="ignore"):
            _radial_clip(np.ones((1, 2)), np.zeros((1, 2)), np.array([-1.0]))


class TestCertificateResidual:
    @given(rows=certificate_rows())
    @settings(max_examples=300, deadline=None)
    # psi == 0 on [0.3387, 2.37]: the gap is taken at the leftmost root
    @example(rows=(np.array([[0.0, 0.0]]), np.array([[-2.0, 2.0]]), np.array([1.0]),
                   np.array([[-1.4763953342272025, 0.0]]),
                   np.array([2.179743182927853]), 1.5))
    # psi ~ -2.2e-308 on (0.99, 1.01), where the piece's slope underflows
    # to 0: the leftmost root is the piece's right end, t = 1.01
    @example(rows=(np.array([[0.0, 0.0]]), np.array([[1.0, 1.0]]), np.array([1.0]),
                   np.array([[1.0, 2.2250738585072014e-308]]), np.array([1.0]), 0.01))
    def test_matches_bisection(self, rows):
        X, grads, eta, a, c, w = rows
        got = _certificate_residual(X, grads, eta, a, c, w)[0]
        ref = bisect_certificate_residual(X, grads, eta, a, c, w)[0]
        # relative, with an absolute floor for a gap that vanishes at the
        # exact multiplier, where the reference keeps its bracket's width
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    @given(rows=certificate_rows(), inside=hnp.arrays(bool, 6), w=fl(0.01, 2.0))
    @settings(max_examples=300, deadline=None)
    # on its sphere at t = 0.5, where want = (0.5, 3): the zero coordinate's
    # selection cannot hold 3 at w = 0.5, so it is released upward
    @example(rows=(np.array([[1.0, 0.0]]), np.array([[-1.0, -3.0]]), np.array([1.0]),
                   np.zeros((1, 2)), np.array([1.0]), 0.0),
             inside=np.zeros(6, dtype=bool), w=0.5)
    def test_release_signs_match_bisection(self, rows, inside, w):
        # rows on their spheres and, with c doubled, inside their balls
        # (t = 0), at w > 0.  The signs agree wherever the bisected
        # selection is more than 1e-9 from +-w: the bisection's t is exact
        # to about 1e-15 relative, far inside that margin
        X, grads, eta, a, c, _w = rows
        c = np.where(inside[: len(c)], 2.0 * c, c)
        release = _certificate_residual(X, grads, eta, a, c, w)[1]
        ref = bisect_certificate_residual(X, grads, eta, a, c, w, margin=1e-9)[1]
        sure = ~np.isnan(ref)
        np.testing.assert_array_equal(release[sure], ref[sure])
        assert (release[X != 0.0] == 0.0).all()

    def test_release_sign_on_the_sphere(self):
        # the example above: psi(t) = t - 0.5 on the nonzero coordinate
        release = _certificate_residual(np.array([[1.0, 0.0]]), np.array([[-1.0, -3.0]]),
                                        np.array([1.0]), np.zeros((1, 2)), np.array([1.0]),
                                        0.5)[1]
        np.testing.assert_array_equal(release, [[0.0, 1.0]])


class TestSolveLocal:
    def test_pure_equality_quadratic(self):
        # f = 0, no inequality, h(x) = x, d' = 1: minimize x^2/2 on [-1, 1]
        pb = single_agent(P=[[0.0]], Q=[0.0], c=1.0, B=[[1.0]], c_eq=[0.0],
                          l1_weight=0.0)
        x, _res, _iters, done, _val = solve_one(Subproblem(pb, np.zeros(1), 1.0, 0.0, np.zeros(1)))
        assert done
        assert x[0] == pytest.approx(0.0, abs=1e-8)

    def test_huge_alpha_returns_projected_anchor(self):
        rng = np.random.default_rng(14)
        pb = generate_example(1, 3, 1, 2, seed=5)
        anchor = rng.normal(scale=2.0, size=3)
        x = solve_one(Subproblem(pb, rng.normal(size=3), 1.5, 1e6, anchor))[0]
        diff = anchor - pb.a[0]
        target = pb.a[0] + diff * min(1.0, np.sqrt(pb.c[0]) / np.linalg.norm(diff))
        np.testing.assert_allclose(x, target, atol=1e-4)

    def test_monotone_objective_along_iterates(self):
        # a run capped at k iterations is a prefix of any longer run, so the
        # values of the runs capped at 0, 1, ..., iters trace the iterates.
        # One more input starts the fourth draw (alpha = 0, so its anchor is
        # only its start) at x = 0, from where it takes 7 iterations
        rng = np.random.default_rng(15)
        sps = [random_subproblem(rng, d=3, m=1, p=2) for _ in range(5)]
        for sp in [*sps, sps[3]._replace(anchor=np.zeros(3))]:
            _x, _res, iters, done, value = solve_one(sp)
            assert done
            hist = np.array([solve_one(sp, max_iters=k)[4] for k in range(iters + 1)])
            assert hist[-1] == value
            assert (np.diff(hist) <= 1e-10 * (1 + np.abs(hist[:-1]))).all()

    def test_certificate_residual_reported(self):
        sp = random_subproblem(np.random.default_rng(16), d=2)
        _x, res, _iters, done, _val = solve_one(sp, tol=1e-9)
        assert done and res <= 1e-9

    def test_strong_convexity_two_starts_agree(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            pb = generate_example(1, 3, 1, 2, seed=int(rng.integers(1 << 30)))
            alpha = 0.5
            Yt = rng.normal(size=(1, 3))
            d_prime = np.array([2.0])
            anchor = rng.uniform(-0.3, 0.3, size=(1, 3))
            vg = _round_value_and_grad(pb, Yt, d_prime, alpha, anchor)
            lip = _round_lipschitz(pb, Yt, d_prime, alpha)
            tol = 1e-9
            r = 0.9 * np.sqrt(pb.c[0])
            x1, x2 = (
                _prox_grad_loop(vg, (pb.a[0] + r * e)[None, :], pb.a, pb.c,
                                pb.l1_weight, lip, tol, DEFAULT_MAX_ITERS)[0][0]
                for e in (np.array([1.0, 0, 0]), np.array([0, -1.0, 0]))
            )
            assert np.linalg.norm(x1 - x2) <= 2 * tol / alpha

    def test_nonconverged_flagged(self):
        # from x = 0 the Newton finish has no free coordinate, so the one
        # iteration allowed is a gradient step, which does not certify
        sp = random_subproblem(np.random.default_rng(18), d=3)._replace(anchor=np.zeros(3))
        _x, res, iters, done, _val = solve_one(sp, tol=1e-14, max_iters=1)
        assert not done and res > 1e-14
        assert iters == 1

    @given(n=st.integers(1, 6), d=st.integers(1, 3), m=st.integers(0, 2),
           p=st.integers(0, 2), alpha=st.sampled_from([0.0, 0.3]),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_single(self, n, d, m, p, alpha, seed):
        # every batch row is the solve of its agent alone, bit for bit: the
        # round subproblems and the dual function at a shared y
        pb = generate_example(n, d, m, p, seed=seed)
        rng = np.random.default_rng(seed)
        Yt = rng.normal(scale=2.0, size=(n, m + p))
        d_prime = rng.uniform(0.5, 2.0, size=n)
        anchor = rng.uniform(-0.5, 0.5, size=(n, d))
        y = rng.normal(scale=2.0, size=m + p)
        y[:m] = np.abs(y[:m])
        X, res, iters, done, vals = solve_local_batch(
            pb, Yt, d_prime, alpha, anchor, tol=1e-9
        )
        q, Xq, res_q, done_q = dual_value_batch(pb, y, tol=1e-9)
        for i in range(n):
            solo = one_agent(pb, i)
            x1, res1, it1, done1, val1 = solve_local_batch(
                solo, Yt[i : i + 1], d_prime[i : i + 1], alpha, anchor[i : i + 1],
                tol=1e-9,
            )
            np.testing.assert_array_equal(x1[0], X[i])
            assert (res1[0], it1[0], done1[0], val1[0]) == (res[i], iters[i], done[i], vals[i])
            q1, xq1, res_q1, done_q1 = dual_value_batch(solo, y, tol=1e-9)
            np.testing.assert_array_equal(xq1[0], Xq[i])
            assert (q1[0], res_q1[0], done_q1[0]) == (q[i], res_q[i], done_q[i])

    def test_singular_face_row_keeps_its_solo_bits(self, monkeypatch):
        # agent 0 is linear on its ball: P = 0, alpha = 0, a zero equality
        # row and a hinge that stays off (c' = 100), so only the hinge's
        # worst case keeps its Lipschitz bound positive.  Started inside its
        # ball, the Newton system of its face is singular until it reaches
        # its sphere: the batch's solve raises, ``_solve_rows`` solves row
        # by row and gives agent 0 NaN, and its step is refused.  Every row
        # still equals its solo solve, bit for bit.
        import duca.localsolver as ls

        pb = from_agent_data(P=[np.zeros((2, 2)), np.diag([1.0, 2.0]), np.diag([3.0, 0.5])],
                             Q=[[1.0, 2.0], [-1.0, 0.5], [0.4, -2.0]], a=[np.zeros(2)] * 3,
                             c=[1.0] * 3, a_prime=[np.zeros((1, 2))] * 3,
                             c_prime=[[100.0], [0.5], [0.5]],
                             B=[[[0.0, 0.0]], [[1.0, -1.0]], [[0.5, 2.0]]],
                             c_eq=[[0.0], [0.2], [-0.1]], l1_weight=0.1)
        Yt = np.array([[0.0, 0.0], [0.3, -0.5], [0.8, 0.4]])
        anchor = np.array([[0.3, -0.2], [0.1, 0.2], [-0.2, 0.1]])
        nan_rows, real_solve = [], ls._solve_rows

        def solve_rows(K, rhs):
            out = real_solve(K, rhs)
            nan_rows.append(np.isnan(out).any(axis=1).tolist())
            return out

        monkeypatch.setattr(ls, "_solve_rows", solve_rows)
        X, res, iters, done, vals = solve_local_batch(pb, Yt, np.ones(3), 0.0, anchor)
        assert done.all()
        assert [True, False, False] in nan_rows
        for i in range(3):
            x1, res1, it1, done1, val1 = solve_local_batch(
                one_agent(pb, i), Yt[i : i + 1], np.ones(1), 0.0, anchor[i : i + 1])
            np.testing.assert_array_equal(x1[0], X[i])
            assert (res1[0], it1[0], done1[0], val1[0]) == (res[i], iters[i], done[i], vals[i])

    def test_zero_lipschitz_row_certifies(self):
        # P = 0, alpha = 0 and no coupling: the smooth part is linear, its
        # Hessian bound is 0, and the step 1/L would be infinite.  With L
        # floored at 1e-12 the first prox step lands on the sphere at
        # -q/||q||, q = Q - w*(1, 1), where the row certifies.
        pb = single_agent(P=np.zeros((2, 2)), Q=[1.0, 2.0], c=1.0, l1_weight=0.1)
        sp = Subproblem(pb, np.zeros(0), 1.0, 0.0, np.array([0.3, -0.2]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, res, iters, done, _val = solve_one(sp)
        assert done and res <= DEFAULT_TOL and iters == 1
        q = np.array([0.9, 1.9])
        np.testing.assert_allclose(x, -q / np.linalg.norm(q), rtol=0.0, atol=1e-12)

    def test_matches_grid_oracle_2d(self):
        rng = np.random.default_rng(20)
        for _ in range(5):
            sp = random_subproblem(rng, d=2)
            x, _res, _iters, done, value = solve_one(sp, tol=1e-10)
            assert done
            gx, gv = grid_local(sp)
            assert value <= gv + 1e-6
            assert abs(value - gv) <= 1e-6
            assert np.linalg.norm(x - gx) <= 1e-3


class TestNewtonFinish:
    def test_garbage_candidate_refused_by_the_certificate(self, monkeypatch):
        # a candidate of X + 1 must fail its certificate on every row, and
        # every row then keeps the gradient path's bits
        Yt, d_prime, anchor = _round_batch()
        with pytest.MonkeyPatch.context() as mp:
            without_newton(mp)
            want = solve_local_batch(SVI, Yt, d_prime, 0.1, anchor, tol=1e-9)
        log = _log_probes(monkeypatch, lambda smooth, X, grads, a, c, w, release=0.0:
                          (X + 1.0, np.ones(len(X), dtype=bool)))
        got = solve_local_batch(SVI, Yt, d_prime, 0.1, anchor, tol=1e-9)
        probed = [res[at_newton] for _agents, res, at_newton, _step in log if at_newton.any()]
        assert probed and all((res > 1e-9).all() for res in probed)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_ball_face_finishes_within_two_iterations(self, monkeypatch):
        # x'Px + Q'x + ||x||_1 pulls far outside the unit ball, so the
        # optimum lies on the sphere (at angle 0.838 about the center) with
        # both coordinates positive.  Started on that face 0.1 rad away,
        # Newton finishes within 2 iterations, where the gradient path needs
        # more.  A multiplier estimate without its factor 2 converges only
        # linearly and needs about 10.
        pb = single_agent(P=np.diag([1.0, 2.0]), Q=[-6.0, -8.0], a=[0.2, 0.1], c=1.0)
        a, c = pb.a[0], pb.c[0]
        start = a + np.array([np.cos(0.94), np.sin(0.94)])
        assert (start > 0).all() and abs(np.sum((start - a) ** 2) - c) <= 1e-15
        sp = Subproblem(pb, np.zeros(0), 1.0, 0.0, start)
        x, _res, iters, done, _val = solve_one(sp)
        assert done and iters <= 2
        assert (x > 0).all() and np.sum((x - a) ** 2) >= c * (1.0 - 1e-10)
        without_newton(monkeypatch)
        x_g, _res, iters_g, done_g, _val = solve_one(sp)
        assert done_g and iters_g > 2
        np.testing.assert_allclose(x, x_g, rtol=0.0, atol=1e-6)

    def test_certified_first_point_that_raises_the_value_refused(self, monkeypatch):
        self._refuse_certified_but_higher(monkeypatch, at_step=1)

    def test_certified_candidate_that_raises_the_value_refused(self, monkeypatch):
        self._refuse_certified_but_higher(monkeypatch, at_step=2)

    def test_certified_extension_step_that_raises_the_value_refused(self, monkeypatch):
        self._refuse_certified_but_higher(monkeypatch, at_step=3)

    @staticmethod
    def _refuse_certified_but_higher(monkeypatch, at_step):
        # A certificate bounds the gradient, not the value: on x'Px with
        # P = diag(1, 5e-7) the point (0, 5e-3) certifies at tol 1e-8 (its
        # gradient is 5e-9) yet its value 1.25e-11 is above the start
        # (1e-8, 0), whose value is 1e-16 and whose gradient 2e-8 does not
        # certify.  Offered as the first Newton point, as the chain's second,
        # or as its third after a second whose residual 1.4e-8 falls but
        # fails, it must be refused on value, so that the returned value
        # stays at most the start's.
        import duca.localsolver as ls

        tol = 1e-8
        pb = single_agent(P=np.diag([1.0, 5e-7]), Q=[0.0, 0.0], c=1.0, l1_weight=0.0)
        start = np.array([1e-8, 0.0])
        sp = Subproblem(pb, np.zeros(0), 1.0, 0.0, start)
        bad = np.array([0.0, 5e-3])
        grad = 2.0 * pb.P[0] @ bad
        assert _certificate_residual(bad[None], grad[None], np.array([0.5]), pb.a, pb.c,
                                     0.0)[0][0] <= tol
        start_value = round_objective(sp, start[None])[0]
        assert round_objective(sp, bad[None])[0] > start_value + 1e-12
        chain = [np.array([0.9e-8, 0.0]), np.array([0.7e-8, 0.0])][: at_step - 1] + [bad]
        offered = []

        def certified_but_higher(smooth, X, grads, a, c, w, release=0.0):
            # each chain step moves on along ``chain``; a new chain starts it
            at = [k for k, y in enumerate(chain[:-1]) if np.array_equal(X[0], y)]
            Y = chain[at[0] + 1] if at else chain[0]
            if Y is bad:
                offered.append(len(X))
            return np.tile(Y, (len(X), 1)), np.ones(len(X), dtype=bool)

        monkeypatch.setattr(ls, "_newton_step", certified_but_higher)
        x, res, _iters, done, value = solve_one(sp, tol=tol)
        assert offered and done and res <= tol
        assert value <= start_value
        assert x[1] == 0.0

    @pytest.mark.parametrize("factor, chain_length", [(0.95, None), (1.05, 2)],
                             ids=["falling", "rising"])
    def test_uncertified_chain_steps_refused(self, monkeypatch, factor, chain_length):
        # On x'Px from (1e-8, 0) the residual is 2*x_1.  Steps that shrink x
        # by 5% each lower the value and the residual at every step, yet stay
        # above tol 1e-8 up to the chain's last step: the chain runs its full
        # length.  Steps that grow x by 5% raise the residual: the chain stops
        # at its first certificate.  Either way every point is refused and
        # the solve keeps the gradient path's bits.
        import duca.localsolver as ls

        pb = single_agent(P=np.diag([1.0, 5e-7]), Q=[0.0, 0.0], c=1.0, l1_weight=0.0)
        sp = Subproblem(pb, np.zeros(0), 1.0, 0.0, np.array([1e-8, 0.0]))
        with pytest.MonkeyPatch.context() as mp:
            without_newton(mp)
            want = solve_one(sp, tol=1e-8)
        chains, last = [], [None]

        def scaled(smooth, X, grads, a, c, w, release=0.0):
            if X[0, 0] != last[0]:  # not the last step's point: a new chain
                chains.append(0)
            chains[-1] += 1
            last[0] = factor * X[0, 0]
            return factor * X, np.ones(len(X), dtype=bool)

        monkeypatch.setattr(ls, "_newton_step", scaled)
        got = solve_one(sp, tol=1e-8)
        assert chains[0] == (chain_length or ls.NEWTON_STEPS)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)

    def test_extension_step_finishes_a_missed_two_step_candidate(self, monkeypatch):
        # On the active instance, rows whose two-step candidate fails at
        # iteration 0 end on a later chain step, with iters == 1, where the
        # chain capped at two steps needs more iterations
        import duca.localsolver as ls

        Yt, d_prime, anchor = _active_batch()
        (_X, res, iters, done, _vals), passes = _chain_passes(ACTIVE, Yt, d_prime, 0.1, anchor)
        assert done.all() and (res <= DEFAULT_TOL).all()
        monkeypatch.setattr(ls, "NEWTON_STEPS", 2)
        iters_2 = solve_local_batch(ACTIVE, Yt, d_prime, 0.1, anchor)[2]
        ext = [i for i in range(20) if iters[i] == 1 and passes[i] and passes[i][-1] > 2]
        assert len(ext) >= 5
        assert (iters_2[ext] > 1).all()

    def test_rows_certified_at_step_two_keep_the_capped_chain_bits(self, monkeypatch):
        # the chain's first two points are certified as with the chain
        # capped at two points; a row that no later point certifies ends bit
        # for bit as with the cap.  Round data of seed 6, where four rows
        # end at step two (two of seed 3's do)
        import duca.localsolver as ls

        Yt, d_prime, anchor = _active_batch(seed=6)
        got, passes = _chain_passes(ACTIVE, Yt, d_prime, 0.1, anchor)
        monkeypatch.setattr(ls, "NEWTON_STEPS", 2)
        want = solve_local_batch(ACTIVE, Yt, d_prime, 0.1, anchor)
        at_two = [i for i in range(20) if set(passes[i]) == {2}]
        same = [i for i in range(20) if all(k <= 2 for k in passes[i])]
        assert len(at_two) >= 3 and len(same) < 20
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g[same], w[same])

    def test_sphere_row_opens_its_zero_coordinate(self):
        # x'Px + Q'x + ||x||_1 with P = diag(1, 2), Q = (-6, -3) on the unit
        # ball about (0.5, 0): the optimum lies on the sphere with both
        # coordinates positive.  From (1.5, 0), on the sphere with x_2 = 0,
        # the first Newton point stays on that face; its certificate cannot
        # hold x_2's gradient with the l1 kink, so the next chain step opens
        # x_2 upward and the chain finishes in the first iteration.  A chain
        # that held x_2 at 0 would stall on that face, and the row would
        # need a gradient step and a second iteration.
        pb = single_agent(P=np.diag([1.0, 2.0]), Q=[-6.0, -3.0], a=[0.5, 0.0], c=1.0)
        sp = Subproblem(pb, np.zeros(0), 1.0, 0.0, np.array([1.5, 0.0]))
        assert np.sum((sp.anchor - pb.a[0]) ** 2) == pb.c[0]
        x, res, iters, done, _val = solve_one(sp)
        assert done and res <= DEFAULT_TOL and iters == 1
        np.testing.assert_allclose(x, grid_local(sp)[0], rtol=0.0, atol=1e-6)

    @pytest.mark.parametrize("mutant", ["flipped", "every_kink"])
    def test_solves_do_not_depend_on_the_release(self, monkeypatch, mutant):
        # the release only proposes a face; every point is still accepted on
        # the unchanged certificate and value.  Release signs flipped, or
        # every kink coordinate released along -grad (+ where grad is 0):
        # each strongly convex solve still certifies and lands within
        # 2*tol/alpha of the unpatched one, at the cost of more iterations
        import duca.localsolver as ls

        real_cert, tol, alpha = ls._certificate_residual, 1e-9, 0.1

        def cert(X, grads, eta, a, c, w):
            res, release = real_cert(X, grads, eta, a, c, w)
            if mutant == "flipped":
                return res, -release
            return res, np.where((X == 0.0) & (w != 0.0), np.where(grads > 0.0, -1.0, 1.0), 0.0)

        for pb, (Yt, d_prime, anchor) in [(ACTIVE, _active_batch()), (ACTIVE, _active_batch(6)),
                                          (SVI, _round_batch())]:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(ls, "_certificate_residual", cert)
                X, res, iters, done, _vals = solve_local_batch(pb, Yt, d_prime, alpha, anchor,
                                                               tol=tol)
            want = solve_local_batch(pb, Yt, d_prime, alpha, anchor, tol=tol)
            assert done.all() and (res <= tol).all()
            assert (np.linalg.norm(X - want[0], axis=1) <= 2.0 * tol / alpha).all()
            assert iters.sum() > want[2].sum()

    @given(n=st.integers(1, 6), d=st.integers(1, 3), m=st.integers(0, 2),
           p=st.integers(0, 2), alpha=st.sampled_from([0.0, 0.3]),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_active_subproblems_certified_and_agree(self, n, d, m, p, alpha, seed):
        # Q x4 and nonzero equality offsets, so that balls and hinges bind:
        # every row certifies, matches the grid search as in [09] for d <= 2,
        # and, when alpha > 0 makes the rows strongly convex, lies within
        # 2*tol/alpha of the gradient path's solve
        base = generate_example(n, d, m, p, seed=seed)
        rng = np.random.default_rng(seed)
        pb = dataclasses.replace(base, Q=4.0 * base.Q, c_eq=rng.uniform(-1.0, 1.0, size=(n, p)))
        Yt = rng.normal(scale=2.0, size=(n, m + p))
        d_prime = rng.uniform(0.5, 2.0, size=n)
        anchor = rng.uniform(-0.5, 0.5, size=(n, d))
        tol = 1e-10
        X, res, _iters, done, vals = solve_local_batch(pb, Yt, d_prime, alpha, anchor, tol=tol)
        assert done.all() and (res <= tol).all()
        if d <= 2:
            for i in range(n):
                sp = Subproblem(one_agent(pb, i), Yt[i], d_prime[i], alpha, anchor[i])
                assert abs(vals[i] - grid_local(sp)[1]) <= 1e-6
        if alpha > 0.0:
            with pytest.MonkeyPatch.context() as mp:
                without_newton(mp)
                X_g, _res, _iters, done_g, _vals = solve_local_batch(
                    pb, Yt, d_prime, alpha, anchor, tol=tol)
            assert done_g.all()
            assert (np.linalg.norm(X - X_g, axis=1) <= 2.0 * tol / alpha).all()


def _round_batch():
    """SVI with random round data: a 20-agent solve_local_batch input."""
    rng = np.random.default_rng(19)
    Yt = rng.normal(size=(20, 6))
    d_prime = rng.uniform(0.5, 2.0, size=20)
    anchor = rng.uniform(-0.2, 0.2, size=(20, 3))
    return Yt, d_prime, anchor


ACTIVE = dataclasses.replace(SVI, Q=4.0 * SVI.Q)


def _active_batch(seed=3):
    """Random round data on ACTIVE, where the coupling binds."""
    rng = np.random.default_rng(seed)
    Yt = rng.normal(size=(20, 6))
    d_prime = rng.uniform(0.5, 2.0, size=20)
    anchor = rng.uniform(-0.5, 0.5, size=(20, 3))
    return Yt, d_prime, anchor


def _log_probes(mp, newton_step=None, agents=None):
    """Spy on the solver's certificate calls; return the log it fills.

    The solver keeps its whole batch, so the spy follows which rows are
    open: all of them when a solve starts, until a row's iterate certifies
    or ``_newton_finish`` records the row as finished, through the
    ``record`` it is handed, which the spy wraps.  A call with twice
    the batch's rows holds the iterates and then their first Newton points;
    a call inside ``_newton_finish`` holds a chain step's points, and the
    rows in the chain are those its ``going`` mask, which it updates in
    place, holds at the call.  Each call appends ``(agents, res, at_newton,
    step)`` over its open rows (the open iterates and their first points,
    or the chain's points): the agent of each row (read by ``agents`` from
    the rows' ball centers, by default SVI's), the residuals, a mask of the
    rows at Newton points and their points' number in the chain (1 for a
    first Newton point, 0 in a call with none).  ``newton_step`` stands in
    for the solver's step.
    """
    import duca.localsolver as ls

    real_loop, real_finish = ls._prox_grad_loop, ls._newton_finish
    real_cert = ls._certificate_residual
    log, state = [], {"going": None}

    def loop(smooth, X0, a, c, w, lip, tol, max_iters):
        state.update(live=np.ones(len(X0), dtype=bool), tol=tol)
        return real_loop(smooth, X0, a, c, w, lip, tol, max_iters)

    def finish(smooth, Y, vY, gY, r, release, going, *args):
        *args, record = args

        def spy_record(won, *out, **kw):
            state["live"] &= ~won
            return record(won, *out, **kw)

        state["going"] = going
        try:
            return real_finish(smooth, Y, vY, gY, r, release, going, *args, spy_record)
        finally:
            state["going"] = None

    def cert(X, grads, eta, a, c, w):
        res, release = real_cert(X, grads, eta, a, c, w)
        who, live, going = (agents or _agents)(a), state["live"], state["going"]
        if going is not None:
            state["step"] += 1
            log.append((who[going], res[going], np.ones(going.sum(), dtype=bool), state["step"]))
            return res, release
        n = len(live)
        state["step"] = int(len(X) > n)
        rows = np.concatenate([live, live])[: len(X)]
        at_newton = np.arange(len(X)) >= n
        log.append((who[rows], res[rows], at_newton[rows], state["step"]))
        live &= ~(res[:n] <= state["tol"])
        return res, release

    if newton_step:
        mp.setattr(ls, "_newton_step", newton_step)
    mp.setattr(ls, "_prox_grad_loop", loop)
    mp.setattr(ls, "_newton_finish", finish)
    mp.setattr(ls, "_certificate_residual", cert)
    return log


def _chain_passes(*args):
    """Solve a batch, recording per agent the Newton chain points that certified.

    Points are numbered from the iteration's first Newton point, which is
    certified with the iterates; a first point counts only on a row whose
    iterate failed in the same call.  Returns the solve's output and, per
    agent, the list of passing points.
    """
    with pytest.MonkeyPatch.context() as mp:
        log = _log_probes(mp)
        out = solve_local_batch(*args)
    passes = [[] for _ in range(20)]
    for agents, res, at_newton, step in log:
        open_rows = set(agents[~at_newton & (res > DEFAULT_TOL)])
        for i, r in zip(agents[at_newton], res[at_newton]):
            if r <= DEFAULT_TOL and (step > 1 or i in open_rows):
                passes[i].append(step)
    return out, passes


def _one(a_rows):
    """Agent of each row of a one-agent batch."""
    return np.zeros(len(a_rows), dtype=int)


def _agents(a_rows):
    """SVI agent of each row of a batch, read from its ball center."""
    assert len(np.unique(SVI.a, axis=0)) == 20  # rows map to agents
    return np.argmax(np.all(a_rows[:, None, :] == SVI.a[None], axis=2), axis=1)


class TestLongStart:
    def test_certificate_probes_at_worst_case_step(self, monkeypatch):
        # the solver starts at LONG_STEP/L, but the certificate's gap does not
        # increase with its step, so every probe must stay at or below 1/L.
        # On ACTIVE some rows take a prox step; on SVI's round batch the
        # Newton finish ends every row before its first one
        import duca.localsolver as ls

        pb = ACTIVE
        Yt, d_prime, anchor = _active_batch()
        inv_lip = 1.0 / np.maximum(ls._round_lipschitz(pb, Yt, d_prime, 0.1), 1e-12)

        probes, steps = [], []
        real_cert, real_prox = ls._certificate_residual, ls._prox_l1_ball

        def cert(X, grads, eta, a, c, w):
            probes.append(eta / inv_lip[_agents(a)])
            return real_cert(X, grads, eta, a, c, w)

        def prox(V, thr, a, c):
            steps.append(thr / pb.l1_weight / inv_lip[_agents(a)])
            return real_prox(V, thr, a, c)

        monkeypatch.setattr(ls, "_certificate_residual", cert)
        monkeypatch.setattr(ls, "_prox_l1_ball", prox)
        *_, done, _vals = solve_local_batch(pb, Yt, d_prime, 0.1, anchor, tol=1e-9)
        assert done.all()
        assert max(p.max() for p in probes) <= 1.0
        assert max(s.max() for s in steps) == ls.LONG_STEP


class TestCertificateSchedule:
    @pytest.mark.parametrize("tol, max_iters, all_done",
                             [(1e-9, DEFAULT_MAX_ITERS, True), (1e-14, 5, False)])
    def test_every_unfrozen_row_certified_at_every_iterate(self, monkeypatch, tol,
                                                           max_iters, all_done):
        # a row is probed at its iterate at the start of each of its
        # iterations and, if the cap ends it uncertified, once more at its
        # last iterate; a row that leaves on a Newton point has no probe at
        # the iterate that point would have become: entry probes plus
        # Newton passes make iters + 1.  A first Newton point is probed in
        # the same call as its row's iterate, so at most once per entry
        # probe, and its chain adds at most NEWTON_STEPS - 1 probes.
        Yt, d_prime, anchor = _round_batch()
        entry, first, chain = (np.zeros(20, dtype=int) for _ in range(3))
        newton_pass = np.zeros(20, dtype=bool)
        log = _log_probes(monkeypatch)
        _X, res, iters, done, _vals = solve_local_batch(
            SVI, Yt, d_prime, 0.1, anchor, tol=tol, max_iters=max_iters)
        for agents, r, at_newton, step in log:
            np.add.at(entry, agents[~at_newton], 1)
            np.add.at(first if step == 1 else chain, agents[at_newton], 1)
            if step == 1:
                assert set(agents[at_newton]) <= set(agents[~at_newton])
            open_rows = agents[~at_newton][r[~at_newton] > tol]
            passed = agents[at_newton][r[at_newton] <= tol]
            newton_pass[passed if step > 1 else np.intersect1d(passed, open_rows)] = True
        assert done.all() == all_done
        assert first.sum() > 0 and chain.sum() > 0
        np.testing.assert_array_equal(entry + newton_pass, iters + 1)
        assert (first <= entry).all()
        assert (chain <= (NEWTON_STEPS - 1) * first).all()
        assert (res[newton_pass] <= tol).all()

    def test_flat_face_row_finishes_on_its_first_newton_point(self, monkeypatch):
        # x'Px + Q'x + 0.1*||x||_1 with P = diag(1, 2), Q = (-1, -2) on a
        # ball of radius 10: the minimizer (0.45, 0.475) lies off the sphere,
        # and with no hinge the objective is quadratic on the positive face.
        # From (0.3, 0.3), on that face, the first Newton point is the
        # face's minimizer, so the row leaves there after one iteration and
        # one Newton step, where the gradient path needs more iterations.
        pb = single_agent(P=np.diag([1.0, 2.0]), Q=[-1.0, -2.0], c=100.0, l1_weight=0.1)
        sp = Subproblem(pb, np.zeros(0), 1.0, 0.0, np.array([0.3, 0.3]))
        with pytest.MonkeyPatch.context() as mp:
            log = _log_probes(mp, agents=_one)
            x, _res, iters, done, _val = solve_one(sp)
        assert done and iters == 1
        assert [step for _a, _r, _at, step in log] == [1]
        np.testing.assert_allclose(x, [0.45, 0.475], rtol=0.0, atol=1e-14)
        without_newton(monkeypatch)
        _x, _res, iters_g, done_g, _val = solve_one(sp)
        assert done_g and iters_g > 1

    @pytest.mark.parametrize("w, minimizer", [(0.1, [0.45, 0.475]), (0.0, [0.5, 0.5])])
    def test_zero_start_finishes_on_the_released_face(self, monkeypatch, w, minimizer):
        # the flat-face problem above, started at x = 0: the certificate
        # there releases both coordinates upward, and the Newton chain, with
        # the iterate as its own first point, opens them onto the face whose
        # minimizer it reaches in one step.  The row leaves after one
        # iteration and no prox step.  With w = 0 there is no kink to
        # release from: the chain step frees every coordinate whose gradient
        # is nonzero, and lands on the unconstrained minimizer.
        import duca.localsolver as ls

        pb = single_agent(P=np.diag([1.0, 2.0]), Q=[-1.0, -2.0], c=100.0, l1_weight=w)
        sp = Subproblem(pb, np.zeros(0), 1.0, 0.0, np.zeros(2))
        descents, real_descent = [], ls._descent_step

        def descent(*args):
            descents.append(len(args[1]))
            return real_descent(*args)

        monkeypatch.setattr(ls, "_descent_step", descent)
        x, res, iters, done, _val = solve_one(sp)
        assert done and res <= DEFAULT_TOL and iters == 1
        assert descents == []
        np.testing.assert_allclose(x, minimizer, rtol=0.0, atol=1e-14)

    def test_row_certified_at_its_iterate_returned_there(self, monkeypatch):
        # the flat-face problem above, started a rounding-level step off its
        # minimizer: the start certifies, and so does its first Newton point,
        # which is another point; the row leaves at its start, bit for bit
        pb = single_agent(P=np.diag([1.0, 2.0]), Q=[-1.0, -2.0], c=100.0, l1_weight=0.1)
        start = np.array([0.45, 0.475]) + np.array([1e-10, -1e-10])
        sp = Subproblem(pb, np.zeros(0), 1.0, 0.0, start)
        smooth = _round_value_and_grad(pb, np.zeros((1, 0)), np.ones(1), 0.0, start[None])
        Y, _go = _newton_step(smooth, start[None], smooth(start[None])[1], pb.a, pb.c, 0.1)
        assert not np.array_equal(Y[0], start)
        log = _log_probes(monkeypatch, agents=_one)
        x, _res, iters, done, _val = solve_one(sp)
        ((_a, r, _at, step),) = log
        assert step == 1 and (r <= DEFAULT_TOL).all()
        assert done and iters == 0
        np.testing.assert_array_equal(x, start)


class TestDualFunction:
    def test_zero_dual_gives_min_over_ball(self):
        pb = single_agent(P=[[1.0]], Q=[0.0], c=1.0, l1_weight=0.0)
        vals, _, _, done = dual_value_batch(pb, np.zeros(0), tol=1e-10)
        assert done.all()
        assert vals[0] == pytest.approx(0.0, abs=1e-9)

    def test_linear_objective_hits_boundary(self):
        # f(x) = x on [-1, 1]: infimum -1 at x = -1
        pb = single_agent(P=[[0.0]], Q=[1.0], c=1.0, l1_weight=0.0)
        vals, X, _, _ = dual_value_batch(pb, np.zeros(0), tol=1e-10)
        assert vals[0] == pytest.approx(-1.0, abs=1e-9)
        assert X[0, 0] == pytest.approx(-1.0, abs=1e-8)

    def test_rejects_negative_mu(self):
        with pytest.raises(AssumptionViolatedError):
            dual_value_batch(SVI, np.array([-0.5, 0, 0, 0, 0, 0]))

    def test_concavity_along_segments(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            y1 = np.abs(rng.normal(size=6))
            y2 = np.abs(rng.normal(size=6))
            y1[1:] = rng.normal(size=5)  # lambda blocks unconstrained
            y2[1:] = rng.normal(size=5)
            th = float(rng.uniform(0.2, 0.8))
            q1 = dual_value_batch(SVI, y1, tol=1e-10)[0]
            q2 = dual_value_batch(SVI, y2, tol=1e-10)[0]
            qm = dual_value_batch(SVI, th * y1 + (1 - th) * y2, tol=1e-10)[0]
            assert np.all(qm >= th * q1 + (1 - th) * q2 - 1e-7)

    def test_batch_consistency(self):
        # each row equals the dual function of that agent alone
        y = np.array([0.2, 0.1, -0.3, 0.4, 0.0, -0.1])
        vals, X, res, done = dual_value_batch(SVI, y, tol=1e-10)
        assert done.all()
        for i in range(SVI.n_agents):
            solo = one_agent(SVI, i)
            v1, X1, res1, _ = dual_value_batch(solo, y, tol=1e-10)
            np.testing.assert_array_equal(X1[0], X[i])
            assert (v1[0], res1[0]) == (vals[i], res[i])
