"""Per-agent subproblem solver.

Each round, every agent minimizes over its ball set the composite

    f_i(x) + (1/(2 d'_i)) * ( ||[mu + g_i(x)]_+||^2 + ||lam + h_i(x)||^2 )
          + (alpha/2) * ||x - anchor||^2

where (mu, lam) is the agent's shifted dual vector.  Everything except the
l1 part of f_i and the ball indicator is differentiable (the squared hinge is
C^1), so the solver is a projected proximal-gradient loop: gradient step on
the smooth part, then the exact joint prox of ``w*||.||_1 + ball indicator``
(computed by bisection on the ball multiplier), with per-row backtracking on
the quadratic majorization.

Acceptance of an iterate is certificate-based: the reported residual is the
projected-gradient fixed-point gap ``||x - proj(x - eta*s(x))|| / eta`` where
s(x) is a composite subgradient whose l1 selection at kink coordinates (and
ball-normal multiplier on active rows) minimizes the gap.  The certificate is
valid regardless of how the iterate was produced.

All routines are batched over rows (agents); a row is frozen as soon as its
residual passes the tolerance, so batched results match row-by-row solves.
"""

from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolatedError, DimMismatchError
from .problem import Problem, subgradient_f

__all__ = [
    "LocalSubproblem",
    "SolveResult",
    "composite_subgradient",
    "local_objective",
    "solve_local",
    "solve_local_batch",
    "dual_value_batch",
]

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 20000


@dataclass(frozen=True, eq=False)
class LocalSubproblem:
    """One agent's round subproblem: dual shift, scale, proximal anchor."""

    problem: Problem
    agent: int
    ytilde: np.ndarray  # (m+p,)
    d_prime: float
    alpha: float = 0.0
    anchor: np.ndarray | None = None  # (d,), zeros if omitted

    def __post_init__(self):
        pb = self.problem
        if not (0 <= self.agent < pb.n_agents):
            raise DimMismatchError(f"agent index {self.agent} out of range")
        if self.ytilde.shape != (pb.mp,):
            raise DimMismatchError(
                f"ytilde has shape {self.ytilde.shape}, expected ({pb.mp},)"
            )
        if self.d_prime <= 0:
            raise AssumptionViolatedError(f"d_prime must be positive, got {self.d_prime}")
        if self.alpha < 0:
            raise AssumptionViolatedError(f"alpha must be nonnegative, got {self.alpha}")
        d = pb.dims[self.agent]
        if self.anchor is None:
            object.__setattr__(self, "anchor", np.zeros(d))
        elif self.anchor.shape != (d,):
            raise DimMismatchError(
                f"anchor has shape {self.anchor.shape}, expected ({d},)"
            )


@dataclass
class SolveResult:
    x: np.ndarray
    residual: float
    iters: int
    converged: bool
    value: float
    history: list | None = None


# ---------------------------------------------------------------------------
# Composite subgradient and objective (per-agent reference formulas)
# ---------------------------------------------------------------------------


def composite_subgradient(sp: LocalSubproblem, x: np.ndarray) -> np.ndarray:
    """Subgradient of the round objective at x with the sign(0)=0 selection."""
    pb = sp.problem
    x = np.asarray(x, dtype=float)
    d = pb.dims[sp.agent]
    if x.shape != (d,):
        raise DimMismatchError(f"x has shape {x.shape}, expected ({d},)")
    data = pb.agent_data(sp.agent)
    mu = sp.ytilde[: pb.m]
    lam = sp.ytilde[pb.m :]
    s = subgradient_f(pb, sp.agent, x)
    diff = x[None, :] - data["a_prime"]  # (m, d)
    hinge = np.maximum(mu + np.sum(diff**2, axis=1) - data["c_prime"], 0.0)
    s = s + (2.0 / sp.d_prime) * hinge @ diff
    eq = lam + data["B"] @ x + data["c_eq"]
    s = s + data["B"].T @ eq / sp.d_prime
    return s + sp.alpha * (x - sp.anchor)


def local_objective(sp: LocalSubproblem, x: np.ndarray) -> float:
    """Round objective value at x (without the ball indicator)."""
    pb = sp.problem
    data = pb.agent_data(sp.agent)
    x = np.asarray(x, dtype=float)
    mu = sp.ytilde[: pb.m]
    lam = sp.ytilde[pb.m :]
    f = x @ data["P"] @ x + data["Q"] @ x + pb.l1_weight * np.abs(x).sum()
    diff = x[None, :] - data["a_prime"]
    hinge = np.maximum(mu + np.sum(diff**2, axis=1) - data["c_prime"], 0.0)
    eq = lam + data["B"] @ x + data["c_eq"]
    pen = (float(hinge @ hinge) + float(eq @ eq)) / (2.0 * sp.d_prime)
    prox = 0.5 * sp.alpha * float(np.sum((x - sp.anchor) ** 2))
    return float(f) + pen + prox


# ---------------------------------------------------------------------------
# Exact joint prox of w*||.||_1 + ball indicator
# ---------------------------------------------------------------------------


def _soft(v, thr):
    return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)


def _radial_clip(X, a, c):
    """Force rows onto/into their balls; at most a few one-ulp shrinks."""
    for _ in range(4):
        diff = X - a
        n2 = np.sum(diff**2, axis=1)
        out = n2 > c
        if not out.any():
            return X
        t = np.ones_like(n2)
        t[out] = np.sqrt(c[out] / n2[out])
        t = np.nextafter(t, 0.0)
        X = np.where(out[:, None], a + t[:, None] * diff, X)
    return X


def _prox_l1_ball(V, thr, a, c):
    """Rows of argmin_x 0.5||x-v||^2 + thr*||x||_1 over {||x-a||^2 <= c}.

    ``thr`` is per-row.  With the ball multiplier nu >= 0 the solution is
    ``soft(v + nu*a, thr) / (1 + nu)``; the ball gap is nonincreasing in nu,
    so nu is found by bisection when the unconstrained soft-threshold lands
    outside.
    """
    X = _soft(V, thr[:, None])
    gap = np.sum((X - a) ** 2, axis=1) - c
    bad = gap > 0.0
    if bad.any():
        Vb, ab = V[bad], a[bad]
        thrb, cb = thr[bad], c[bad]

        def gap_at(nu):
            Z = _soft(Vb + nu[:, None] * ab, thrb[:, None]) / (1.0 + nu[:, None])
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
        X[bad] = _soft(Vb + hi[:, None] * ab, thrb[:, None]) / (1.0 + hi[:, None])
    return _radial_clip(X, a, c)


# ---------------------------------------------------------------------------
# Certificate: projected-subgradient fixed-point residual
# ---------------------------------------------------------------------------


def _project_rows(X, a, c):
    diff = X - a
    n2 = np.sum(diff**2, axis=1)
    out = n2 > c
    if out.any():
        t = np.ones_like(n2)
        t[out] = np.sqrt(c[out] / n2[out])
        X = a + t[:, None] * diff
    return X


def _certificate_residual(X, grads, eta, a, c, w):
    """Fixed-point gap per row, minimized over the subgradient selection.

    At kink coordinates (x_j = 0) the l1 subgradient is free in [-w, w]; on
    ball-active rows a normal multiplier t >= 0 is also free.  Both are chosen
    to minimize ||grad + sigma + t*(x-a)|| by alternating the two closed-form
    block updates of this jointly convex problem; the reported gap is then
    ``||x - proj(x - eta_c*(grad+sigma))|| / eta_c``, whose projection absorbs
    the normal-cone term exactly on radial directions.  The probe step eta_c
    is the method's step capped at (ball diameter)/||s||: beyond that the
    projection truncates the whole step and the gap would shrink with eta
    regardless of optimality.
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
        # d/dt of 0.5*||grads + sigma(t) + t*diff||^2 (envelope: sigma optimal)
        resid = grads + sigma_at(t) + t[:, None] * diff
        return np.sum(resid * diff, axis=1)

    t = np.zeros(len(X))
    if active.any():
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
    s = grads + sigma_at(t)
    snorm = np.linalg.norm(s, axis=1)
    eta_c = np.minimum(eta, 2.0 * np.sqrt(c) / np.maximum(snorm, 1e-300))
    stepped = X - eta_c[:, None] * s
    back = _project_rows(stepped, a, c)
    return np.linalg.norm(X - back, axis=1) / eta_c


# ---------------------------------------------------------------------------
# Generic batched projected proximal-gradient loop
# ---------------------------------------------------------------------------


def _prox_grad_loop(value_and_grad, X0, a, c, w, lip, tol, max_iters,
                    collect_history=False):
    """Minimize rows of smooth(x) + w*||x||_1 over per-row balls.

    Accelerated proximal gradient with per-row backtracking and function-value
    restart: a row whose extrapolated step would increase the composite value
    falls back to a plain (guaranteed-descent) step and resets its momentum,
    so the recorded objective history is nonincreasing.

    ``value_and_grad(X)`` returns per-row smooth values and gradients for the
    whole batch.  Rows freeze at their first certified residual <= tol, so
    batched and single-row solves agree.  The exact certificate is costly
    (it optimizes the subgradient selection), so it is only attempted when a
    row's per-step movement is small or on a periodic fallback; acceptance
    itself is always by certificate.  Returns (X, residual, iters, converged,
    composite values, history).
    """
    X = _radial_clip(X0.copy(), a, c)
    rows = X.shape[0]
    eta0 = 1.0 / np.maximum(lip, 1e-300)
    eta = eta0.copy()
    iters = np.zeros(rows, dtype=int)
    done = np.zeros(rows, dtype=bool)
    residual = np.full(rows, np.inf)
    vals, grads = value_and_grad(X)
    comp = vals + w * np.abs(X).sum(axis=1)
    history = [comp.copy()] if collect_history else None
    Xprev = X.copy()
    tk = np.ones(rows)
    slack = lambda v: 1e-12 * (1.0 + np.abs(v))

    def descent_step(base_mask, Y, vY, gY):
        """Backtracked prox step from Y on base_mask rows; returns full-batch arrays."""
        nonlocal eta
        for _ in range(60):
            Xn = X.copy()
            Xn[base_mask] = _prox_l1_ball(
                Y[base_mask] - eta[base_mask, None] * gY[base_mask],
                eta[base_mask] * w, a[base_mask], c[base_mask],
            )
            vn, gn = value_and_grad(Xn)
            dX = Xn - Y
            bound = vY + np.sum(gY * dX, axis=1) + 0.5 / eta * np.sum(dX**2, axis=1)
            bad = base_mask & (vn > bound + slack(vY))
            if not bad.any():
                return Xn, vn, gn
            eta[bad] *= 0.5
        return Xn, vn, gn

    next_check = np.zeros(rows, dtype=int)
    for it in range(max_iters):
        move = np.linalg.norm(X - Xprev, axis=1) / eta
        cand = (~done) & (it >= next_check) & ((move <= 100.0 * tol) | (it % 25 == 24))
        if cand.any():
            idx = np.where(cand)[0]
            res_c = _certificate_residual(X[idx], grads[idx], eta[idx], a[idx], c[idx], w)
            residual[idx] = res_c
            done[idx[res_c <= tol]] = True
            next_check[idx[res_c > tol]] = it + 3
        if done.all():
            break
        act = ~done
        tk_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk**2))
        beta = (tk - 1.0) / tk_next
        if np.any(beta[act] != 0.0):
            Z = X + beta[:, None] * (X - Xprev)
            vZ, gZ = value_and_grad(Z)
        else:
            Z, vZ, gZ = X, vals, grads
        Xn, vn, gn = descent_step(act, Z, vZ, gZ)
        comp_n = vn + w * np.abs(Xn).sum(axis=1)
        worse = act & (comp_n > comp + slack(comp))
        if worse.any():
            # momentum overshoot: plain step from X and momentum reset
            X2, v2, g2 = descent_step(worse, X, vals, grads)
            Xn = np.where(worse[:, None], X2, Xn)
            vn = np.where(worse, v2, vn)
            gn = np.where(worse[:, None], g2, gn)
            comp_n = np.where(worse, v2 + w * np.abs(X2).sum(axis=1), comp_n)
            tk_next = np.where(worse, 1.0, tk_next)
        Xprev = np.where(act[:, None], X, Xprev)
        X = np.where(act[:, None], Xn, X)
        vals = np.where(act, vn, vals)
        grads = np.where(act[:, None], gn, grads)
        comp = np.where(act, comp_n, comp)
        tk = np.where(act, tk_next, tk)
        iters[act] += 1
        if collect_history:
            history.append(comp.copy())
    else:
        idx = np.where(~done)[0]
        if len(idx):
            res_c = _certificate_residual(X[idx], grads[idx], eta[idx], a[idx], c[idx], w)
            residual[idx] = res_c
            done[idx[res_c <= tol]] = True
    return X, residual, iters, done, comp, history


# ---------------------------------------------------------------------------
# Round subproblems (single agent and whole-network batch)
# ---------------------------------------------------------------------------


def _round_value_and_grad(pb, rows_idx, Ytilde, d_prime, alpha, anchor):
    """Closure over the round smooth part for a batch of agent rows."""
    P = pb.P[rows_idx]
    Q = pb.Q[rows_idx]
    a_prime = pb.a_prime[rows_idx]
    c_prime = pb.c_prime[rows_idx]
    B = pb.B[rows_idx]
    c_eq = pb.c_eq[rows_idx]
    mu = Ytilde[:, : pb.m]
    lam = Ytilde[:, pb.m :]
    inv_d = 1.0 / d_prime

    def value_and_grad(X):
        quad = np.einsum("rd,rde,re->r", X, P, X)
        lin = np.sum(Q * X, axis=1)
        grad = 2.0 * np.einsum("rde,re->rd", P, X) + Q
        diff = X[:, None, :] - a_prime
        hinge = np.maximum(mu + np.sum(diff**2, axis=2) - c_prime, 0.0)
        pen_g = 0.5 * inv_d * np.sum(hinge**2, axis=1)
        grad += (2.0 * inv_d)[:, None] * np.einsum("rm,rmd->rd", hinge, diff)
        eq = lam + np.einsum("rpd,rd->rp", B, X) + c_eq
        pen_h = 0.5 * inv_d * np.sum(eq**2, axis=1)
        grad += inv_d[:, None] * np.einsum("rpd,rp->rd", B, eq)
        dxa = X - anchor
        prox = 0.5 * alpha * np.sum(dxa**2, axis=1)
        grad += alpha * dxa
        return quad + lin + pen_g + pen_h + prox, grad

    return value_and_grad


def _round_lipschitz(pb, rows_idx, Ytilde, d_prime, alpha):
    """Per-row bound on the smooth part's Hessian norm over the ball."""
    P = pb.P[rows_idx]
    lam_P = 2.0 * np.linalg.eigvalsh(P)[:, -1] if pb.dmax else np.zeros(len(rows_idx))
    a = pb.a[rows_idx]
    c = pb.c[rows_idx]
    # radius of each ball plus center offset bounds ||x - a'_j||
    R = np.sqrt(c)[:, None] + np.linalg.norm(a[:, None, :] - pb.a_prime[rows_idx], axis=2)
    mu = Ytilde[:, : pb.m]
    hinge_max = np.maximum(mu + R**2 - pb.c_prime[rows_idx], 0.0)
    curv_g = np.sum(4.0 * R**2 + 2.0 * hinge_max, axis=1)
    B = pb.B[rows_idx]
    BtB = np.einsum("rpd,rpe->rde", B, B)
    lam_B = np.linalg.eigvalsh(BtB)[:, -1] if pb.dmax else np.zeros(len(rows_idx))
    return lam_P + (curv_g + lam_B) / d_prime + alpha


def solve_local_batch(pb: Problem, Ytilde, d_prime, alpha, anchor,
                      tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS,
                      collect_history=False):
    """Solve all N agents' round subproblems at once.

    ``Ytilde``: (N, m+p) shifted duals; ``d_prime``: (N,) positive scales;
    ``anchor``: (N, dmax) padded anchors (also the warm start).
    """
    if tol <= 0:
        raise AssumptionViolatedError(f"tol must be positive, got {tol}")
    rows_idx = np.arange(pb.n_agents)
    d_prime = np.asarray(d_prime, dtype=float)
    if (d_prime <= 0).any():
        raise AssumptionViolatedError("d_prime entries must be positive")
    vg = _round_value_and_grad(pb, rows_idx, Ytilde, d_prime, alpha, anchor)
    lip = _round_lipschitz(pb, rows_idx, Ytilde, d_prime, alpha)
    X, res, iters, done, vals, hist = _prox_grad_loop(
        vg, anchor, pb.a, pb.c, pb.l1_weight, lip, tol, max_iters,
        collect_history=collect_history,
    )
    return X, res, iters, done, vals, hist


def solve_local(sp: LocalSubproblem, warm=None, tol=DEFAULT_TOL,
                max_iters=DEFAULT_MAX_ITERS, collect_history=False) -> SolveResult:
    """Solve one agent's round subproblem; warm start defaults to the anchor."""
    pb = sp.problem
    i = sp.agent
    d = pb.dims[i]
    start = sp.anchor if warm is None else np.asarray(warm, dtype=float)
    if start.shape != (d,):
        raise DimMismatchError(f"warm start has shape {start.shape}, expected ({d},)")
    rows_idx = np.array([i])
    Yt = sp.ytilde[None, :]
    dprime = np.array([sp.d_prime])
    anchor = np.zeros((1, pb.dmax))
    anchor[0, :d] = sp.anchor
    X0 = np.zeros((1, pb.dmax))
    X0[0, :d] = start
    vg = _round_value_and_grad(pb, rows_idx, Yt, dprime, sp.alpha, anchor)
    lip = _round_lipschitz(pb, rows_idx, Yt, dprime, sp.alpha)
    X, res, iters, done, vals, hist = _prox_grad_loop(
        vg, X0, pb.a[rows_idx], pb.c[rows_idx], pb.l1_weight, lip, tol,
        max_iters, collect_history=collect_history,
    )
    return SolveResult(
        x=X[0, :d].copy(),
        residual=float(res[0]),
        iters=int(iters[0]),
        converged=bool(done[0]),
        value=float(vals[0]),
        history=None if hist is None else [float(h[0]) for h in hist],
    )


# ---------------------------------------------------------------------------
# Local dual function q_i(y) = inf over the ball of f_i + <mu, g_i> + <lam, h_i>
# ---------------------------------------------------------------------------


def _dual_value_and_grad(pb, rows_idx, mu, lam):
    P = pb.P[rows_idx]
    Q = pb.Q[rows_idx]
    a_prime = pb.a_prime[rows_idx]
    c_prime = pb.c_prime[rows_idx]
    B = pb.B[rows_idx]
    c_eq = pb.c_eq[rows_idx]

    def value_and_grad(X):
        quad = np.einsum("rd,rde,re->r", X, P, X)
        lin = np.sum(Q * X, axis=1)
        grad = 2.0 * np.einsum("rde,re->rd", P, X) + Q
        diff = X[:, None, :] - a_prime
        g = np.sum(diff**2, axis=2) - c_prime
        val_g = np.sum(mu * g, axis=1)
        grad += 2.0 * np.einsum("rm,rmd->rd", mu, diff)
        h = np.einsum("rpd,rd->rp", B, X) + c_eq
        val_h = np.sum(lam * h, axis=1)
        grad += np.einsum("rpd,rp->rd", B, lam)
        return quad + lin + val_g + val_h, grad

    return value_and_grad


def dual_value_batch(pb: Problem, y: np.ndarray, tol=DEFAULT_TOL,
                     max_iters=DEFAULT_MAX_ITERS):
    """All agents' dual-function values and minimizers at a shared y."""
    y = np.asarray(y, dtype=float)
    if y.shape != (pb.mp,):
        raise DimMismatchError(f"y has shape {y.shape}, expected ({pb.mp},)")
    if pb.m and float(y[: pb.m].min()) < 0.0:
        raise AssumptionViolatedError("dual evaluation needs mu >= 0")
    rows_idx = np.arange(pb.n_agents)
    mu = np.broadcast_to(y[: pb.m], (pb.n_agents, pb.m))
    lam = np.broadcast_to(y[pb.m :], (pb.n_agents, pb.p))
    vg = _dual_value_and_grad(pb, rows_idx, mu, lam)
    lam_P = 2.0 * np.linalg.eigvalsh(pb.P)[:, -1]
    lip = lam_P + 2.0 * float(y[: pb.m].sum())
    X, res, iters, done, vals, _ = _prox_grad_loop(
        vg, np.zeros((pb.n_agents, pb.dmax)), pb.a, pb.c, pb.l1_weight,
        np.maximum(lip, 1e-12), tol, max_iters,
    )
    return vals, X, res, done
