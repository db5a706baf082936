"""Centralized ground truth, independent of the distributed engine.

``centralized_solve`` runs a classical method of multipliers on the coupled
constraints: one augmented Lagrangian over the full stacked variable, an
accelerated proximal-gradient inner solve, multiplier updates
``mu <- [mu + rho_c * G(x)]_+``, ``lam <- lam + rho_c * H(x)``, and adaptive
penalty growth.  Its iteration structure shares nothing with the per-agent
dual-consensus rounds, so agreement between the two is evidence, not
tautology.

``grid_oracle`` is a zooming exhaustive search over the product of balls for
tiny instances, and ``duality_gap_check`` evaluates the dual function at the
reported multipliers.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (AssumptionViolatedError, InfeasibleProblemError, NotConvergedError,
                     TooLargeError)
from .textdoc import DocReader, DocWriter
from .localsolver import (LONG_STEP, _certificate_residual, _dual_value_and_grad,
                          _prox_l1_ball, dual_value_batch)
from .problem import Problem, StackedPoint, gtilde_rows, objective_rows, slater_check

__all__ = [
    "CertificateCore",
    "centralized_solve",
    "grid_oracle",
    "duality_gap_check",
    "dump_certificate",
    "load_certificate",
]

#: outer rounds of the method of multipliers before it gives up
MAX_OUTER = 120
#: grid nodes per axis at each zoom level of the exhaustive search
GRID_PTS = 41


@dataclass
class CertificateCore:
    """Primal-dual reference solution produced by the centralized oracle."""

    x_star: StackedPoint
    f_star: float
    y_star: np.ndarray  # (m+p,): mu* >= 0 then lam*
    stationarity: float
    feasibility: float
    complementarity: float
    outer_iters: int

    @property
    def kkt_residual(self) -> float:
        return max(self.stationarity, self.feasibility, abs(self.complementarity) / 10.0)


def _coupled_sums(pb: Problem, X: np.ndarray):
    gt = gtilde_rows(pb, X)
    return gt[:, : pb.m].sum(axis=0), gt[:, pb.m :].sum(axis=0)


def _al_value_grad(pb: Problem, X, mu, lam, rho_c):
    """Augmented-Lagrangian value and stacked gradient at X."""
    quad = np.einsum("nd,nde,ne->", X, pb.P, X)
    lin = float(np.sum(pb.Q * X))
    grad = 2.0 * np.einsum("nde,ne->nd", pb.P, X) + pb.Q
    diff = X[:, None, :] - pb.a_prime  # (N, m, dmax)
    G = np.sum(np.sum(diff**2, axis=2) - pb.c_prime, axis=0)  # (m,)
    H = np.einsum("npd,nd->p", pb.B, X) + pb.c_eq.sum(axis=0)  # (p,)
    hinge = np.maximum(mu + rho_c * G, 0.0)
    val = (
        float(quad) + lin
        + (float(hinge @ hinge) - float(mu @ mu)) / (2.0 * rho_c)
        + float(lam @ H) + 0.5 * rho_c * float(H @ H)
    )
    grad += 2.0 * np.einsum("m,nmd->nd", hinge, diff)
    grad += np.einsum("npd,p->nd", pb.B, lam + rho_c * H)
    return val, grad


def _al_lipschitz(pb: Problem, mu, rho_c):
    """Bound on the stacked AL Hessian norm over the product of balls."""
    lam_P = float(pb.curv_P.max())
    G_hi = np.sum(pb.reach_sq - pb.c_prime, axis=0)
    hinge_hi = np.maximum(mu + rho_c * np.maximum(G_hi, 0.0), 0.0)
    # rank-one coupling rho_c * (grad G)(grad G)^T plus hinge * Hess g
    curv = float(np.sum(rho_c * 4.0 * np.sum(pb.reach_sq, axis=0) + 2.0 * hinge_hi))
    if pb.p:
        B_flat = pb.B.transpose(1, 0, 2).reshape(pb.p, pb.n_agents * pb.dmax)
        lam_B = float(np.linalg.eigvalsh(B_flat @ B_flat.T).max())
    else:
        lam_B = 0.0
    return lam_P + curv + rho_c * lam_B


def _al_minimize(pb: Problem, X0, mu, lam, rho_c, tol, max_iters=100000):
    """Accelerated proximal-gradient minimization of the AL over the balls.

    Single stacked objective; the nonsmooth part (l1 + per-agent balls) keeps
    its exact row-wise prox.  Stops at prox fixed-point gap <= tol.

    The solve starts at the long step ``LONG_STEP / L``, where ``L`` is the
    worst-case AL curvature over the balls, and backtracking shrinks it as
    needed.  The stop test runs at ``min(eta, 1/L)``, never at a longer step:
    the gap ``||X - prox(X - eta*grad)|| / eta`` does not increase with eta,
    so testing at the solver's step would loosen acceptance.  Unlike the
    local solver there is no drop to 1/L after a stall: backtracking already
    makes every step a descent step, and on slow, heavily penalized solves a
    forced drop to 1/L multiplied the iteration count instead of rescuing
    the solve.
    """
    w = pb.l1_weight
    lip = max(_al_lipschitz(pb, mu, rho_c), 1e-12)
    eta0 = 1.0 / lip
    eta = LONG_STEP * eta0
    X = _prox_l1_ball(X0.copy(), np.zeros(pb.n_agents), pb.a, pb.c)
    val, grad = _al_value_grad(pb, X, mu, lam, rho_c)
    comp = val + w * float(np.abs(X).sum())
    Xprev = X.copy()
    tk = 1.0
    res = np.inf
    it = 0

    def descend(Y, vY, gY):
        """Prox step from Y, halving eta until the quadratic majorization holds."""
        nonlocal eta
        for _ in range(60):
            Xn = _prox_l1_ball(Y - eta * gY, np.full(pb.n_agents, eta * w), pb.a, pb.c)
            vn, gn = _al_value_grad(pb, Xn, mu, lam, rho_c)
            dX = Xn - Y
            if vn <= vY + float(np.sum(gY * dX)) + float(np.sum(dX**2)) / (2 * eta) + 1e-12 * (
                1 + abs(vY)
            ):
                break
            eta *= 0.5
        return Xn, vn, gn

    for it in range(max_iters):
        probe = min(eta, eta0)
        step = _prox_l1_ball(X - probe * grad, np.full(pb.n_agents, probe * w), pb.a, pb.c)
        res = float(np.linalg.norm(X - step)) / probe
        if res <= tol:
            break
        tk_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
        beta = (tk - 1.0) / tk_next
        Z = X + beta * (X - Xprev)
        Xn, vn, gn = descend(Z, *_al_value_grad(pb, Z, mu, lam, rho_c))
        comp_n = vn + w * float(np.abs(Xn).sum())
        if comp_n > comp + 1e-12 * (1 + abs(comp)):
            # momentum overshoot: plain descent step from X, reset momentum
            Xn, vn, gn = descend(X, val, grad)
            comp_n = vn + w * float(np.abs(Xn).sum())
            tk_next = 1.0
        Xprev, X = X, Xn
        val, grad, comp, tk = vn, gn, comp_n, tk_next
    return X, res, it


def centralized_solve(pb: Problem, tol=1e-9) -> CertificateCore:
    """Reference primal-dual solution by the method of multipliers.

    Stops when coupled feasibility and Lagrangian stationarity are <= tol and
    complementarity <= 10*tol.  Raises NotConvergedError when the outer
    rounds run out, or when an augmented-Lagrangian solve uses up its
    iterations without passing its stop test.
    """
    if not tol > 0:
        raise AssumptionViolatedError(f"tol must be positive, got {tol}")
    slater_check(pb)
    mu = np.zeros(pb.m)
    lam = np.zeros(pb.p)
    rho_c = 1.0
    X = np.zeros((pb.n_agents, pb.dmax))
    feas_prev = np.inf
    for outer in range(1, MAX_OUTER + 1):
        inner_tol = max(0.01 * tol, min(1e-4, 0.05 * min(feas_prev, 1.0)))
        X, res, it = _al_minimize(pb, X, mu, lam, rho_c, inner_tol)
        if res > inner_tol:
            raise NotConvergedError(
                f"outer iteration {outer}: augmented-Lagrangian solve stopped "
                f"after {it + 1} iterations at residual {res:.1e} > {inner_tol:.1e}"
            )
        G, H = _coupled_sums(pb, X)
        mu_eff = np.maximum(mu + rho_c * G, 0.0)
        lam_eff = lam + rho_c * H
        feas = max(
            float(np.maximum(G, 0.0).max()) if pb.m else 0.0,
            float(np.abs(H).max()) if pb.p else 0.0,
        )
        compl = float(mu_eff @ G) if pb.m else 0.0
        if feas <= tol and abs(compl) <= 10.0 * tol:
            # certify stationarity of the plain Lagrangian at (mu_eff, lam_eff)
            stat = _lagrangian_stationarity(pb, X, mu_eff, lam_eff)
            if stat <= tol:
                f_star = float(objective_rows(pb, X).sum())
                return CertificateCore(
                    x_star=StackedPoint.from_rows(X, pb.dims),
                    f_star=f_star,
                    y_star=np.concatenate([mu_eff, lam_eff]),
                    stationarity=stat,
                    feasibility=feas,
                    complementarity=compl,
                    outer_iters=outer,
                )
        mu, lam = mu_eff, lam_eff
        if feas > 0.25 * feas_prev:
            rho_c = min(rho_c * 4.0, 1e10)
        feas_prev = feas
    raise NotConvergedError(
        f"method of multipliers: feasibility {feas:.3e} after {MAX_OUTER} outer rounds"
    )


def _lagrangian_stationarity(pb: Problem, X, mu, lam):
    """Certified per-agent fixed-point residual of the plain Lagrangian.

    At fixed multipliers the Lagrangian splits across agents, so stationarity
    is the worst per-row projected-subgradient gap.
    """
    _, grad = _dual_value_and_grad(pb, np.broadcast_to(mu, (pb.n_agents, pb.m)),
                                   np.broadcast_to(lam, (pb.n_agents, pb.p)))(X)
    lip = np.maximum(pb.curv_P + 2.0 * float(mu.sum()), 1e-12)
    res = _certificate_residual(X, grad, 1.0 / lip, pb.a, pb.c, pb.l1_weight)
    return float(res.max())


# ---------------------------------------------------------------------------
# Exhaustive grid reference for tiny instances
# ---------------------------------------------------------------------------


def _lipschitz_estimates(pb: Problem):
    r = np.sqrt(pb.c)
    xmax = np.linalg.norm(pb.a, axis=1) + r
    lip_f = float(
        np.sum(pb.curv_P * xmax + np.linalg.norm(pb.Q, axis=1))
    ) + pb.l1_weight * np.sqrt(pb.dmax) * pb.n_agents
    R = np.sqrt(pb.c)[:, None] + np.linalg.norm(pb.a[:, None, :] - pb.a_prime, axis=2)
    lip_g = float(2.0 * R.sum(axis=0).max()) if pb.m else 0.0
    lip_h = float(np.linalg.norm(pb.B, axis=2).sum(axis=0).max()) if pb.p else 0.0
    return lip_f, lip_g, lip_h


def grid_oracle(pb: Problem, resolution=1e-5):
    """Zooming exhaustive search over the product of balls.

    Coupled constraints are enforced with a slack proportional to the current
    grid spacing times a Lipschitz estimate, so the search never discards the
    true optimum for lying between grid nodes.  Requires total dimension <= 4.
    """
    total = pb.total_dim
    if total > 4:
        raise TooLargeError(f"grid search limited to total dimension 4, got {total}")
    offsets = np.cumsum([0] + list(pb.dims))
    r = np.sqrt(pb.c)
    lo = np.concatenate([pb.a[i, : pb.dims[i]] - r[i] for i in range(pb.n_agents)])
    hi = np.concatenate([pb.a[i, : pb.dims[i]] + r[i] for i in range(pb.n_agents)])
    lip_f, lip_g, lip_h = _lipschitz_estimates(pb)

    def eval_chunk(Xflat):
        """Objective and coupled sums for (batch, total) stacked points."""
        batch = Xflat.shape[0]
        rows = np.zeros((batch, pb.n_agents, pb.dmax))
        for i in range(pb.n_agents):
            rows[:, i, : pb.dims[i]] = Xflat[:, offsets[i] : offsets[i + 1]]
        quad = np.einsum("bnd,nde,bne->b", rows, pb.P, rows)
        lin = np.einsum("nd,bnd->b", pb.Q, rows)
        l1 = pb.l1_weight * np.abs(rows).sum(axis=(1, 2))
        fvals = quad + lin + l1
        diff = rows[:, :, None, :] - pb.a_prime[None]
        G = (np.sum(diff**2, axis=3) - pb.c_prime[None]).sum(axis=1)  # (b, m)
        H = np.einsum("npd,bnd->bp", pb.B, rows) + pb.c_eq.sum(axis=0)[None]
        ball_ok = np.ones(batch, dtype=bool)
        for i in range(pb.n_agents):
            di = Xflat[:, offsets[i] : offsets[i + 1]] - pb.a[i, : pb.dims[i]]
            ball_ok &= np.sum(di**2, axis=1) <= pb.c[i] * (1 + 1e-12)
        return fvals, G, H, ball_ok

    half = (hi - lo) / 2.0
    center = (hi + lo) / 2.0
    while True:
        axes = []
        for j in range(total):
            ax = np.linspace(center[j] - half[j], center[j] + half[j], GRID_PTS)
            if ax[0] < 0.0 < ax[-1]:
                ax = np.sort(np.append(ax, 0.0))
            axes.append(np.clip(ax, lo[j], hi[j]))
        mesh = np.meshgrid(*axes, indexing="ij")
        Xflat = np.stack([mm.ravel() for mm in mesh], axis=1)
        spacing = max(float(half.max()) * 2.0 / (GRID_PTS - 1), 1e-14)
        slack_g = spacing * max(lip_g, 1.0)
        slack_h = spacing * max(lip_h, 1.0)
        level_best, level_x = np.inf, None
        for start in range(0, Xflat.shape[0], 200000):
            chunk = Xflat[start : start + 200000]
            fvals, G, H, ball_ok = eval_chunk(chunk)
            ok = ball_ok
            if pb.m:
                ok &= (G <= slack_g).all(axis=1)
            if pb.p:
                ok &= (np.abs(H) <= slack_h).all(axis=1)
            if ok.any():
                sub = np.where(ok)[0]
                j = sub[int(np.argmin(fvals[sub]))]
                if fvals[j] < level_best:
                    level_best = float(fvals[j])
                    level_x = chunk[j].copy()
        if level_x is None:
            raise InfeasibleProblemError(
                "no grid point satisfies the coupled constraints at the current level"
            )
        if spacing <= resolution:
            break
        # Keep the next box wider than the slack-feasible band so zooming on a
        # point that only satisfies the relaxed constraints cannot discard the
        # truly feasible region.
        center = level_x
        half = np.minimum(np.full(total, 6.0 * spacing), half)
    return {"x_best": level_x, "f_best": level_best}


def duality_gap_check(core: CertificateCore, pb: Problem) -> float:
    """|f* - sum_i q_i(y*)|: strong duality makes this vanish at the optimum."""
    vals, _, _, done = dual_value_batch(pb, core.y_star, tol=1e-9)
    if not done.all():
        raise NotConvergedError("dual function evaluation did not converge")
    return abs(core.f_star - float(vals.sum()))


# ---------------------------------------------------------------------------
# Serialization: the reference solution travels with its problem instance so
# downstream runs can re-verify bounds without re-solving.

_PROBLEM_ARRAYS = ("P", "Q", "a", "c", "a_prime", "c_prime", "B", "c_eq")


def dump_certificate(pb: Problem, core: CertificateCore, oracle_tol: float) -> str:
    """Render problem data + reference solution as one structured-text doc."""
    w = DocWriter("problemcert")
    w.scalar("n_agents", pb.n_agents)
    w.intlist("dims", pb.dims)
    w.scalar("m", pb.m)
    w.scalar("p", pb.p)
    w.scalar("l1_weight", pb.l1_weight)
    for name in _PROBLEM_ARRAYS:
        w.array(name, getattr(pb, name))
    w.scalar("oracle_tol", float(oracle_tol))
    w.array("x_star", core.x_star.rows(pb.dmax))
    w.scalar("f_star", core.f_star)
    w.array("y_star", core.y_star)
    w.scalar("stationarity", core.stationarity)
    w.scalar("feasibility", core.feasibility)
    w.scalar("complementarity", core.complementarity)
    w.scalar("outer_iters", core.outer_iters)
    return w.text()


def load_certificate(text: str):
    """Inverse of dump_certificate: returns (problem, core, oracle_tol)."""
    r = DocReader(text, "problemcert")
    n = r.scalar_int("n_agents")
    dims = tuple(r.intlist("dims"))
    m = r.scalar_int("m")
    p = r.scalar_int("p")
    l1 = r.scalar_float("l1_weight")
    arrays = {name: r.array(name) for name in _PROBLEM_ARRAYS}
    pb = Problem(n_agents=n, dims=dims, m=m, p=p, l1_weight=l1, **arrays)
    oracle_tol = r.scalar_float("oracle_tol")
    x_rows = r.array("x_star")
    core = CertificateCore(
        x_star=StackedPoint.from_rows(x_rows, dims),
        f_star=r.scalar_float("f_star"),
        y_star=r.array("y_star"),
        stationarity=r.scalar_float("stationarity"),
        feasibility=r.scalar_float("feasibility"),
        complementarity=r.scalar_float("complementarity"),
        outer_iters=r.scalar_int("outer_iters"),
    )
    r.done()
    return pb, core, oracle_tol
