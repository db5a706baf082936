"""Per-agent subproblem solver.

Each round, every agent minimizes over its ball set the composite

    f_i(x) + (1/(2 d'_i)) * ( ||[mu + g_i(x)]_+||^2 + ||lam + h_i(x)||^2 )
          + (alpha/2) * ||x - anchor||^2

where (mu, lam) is the agent's shifted dual vector.  Everything except the
l1 part of f_i and the ball indicator is differentiable (the squared hinge is
C^1).  The solve is Newton-first, as in the second-order l1 methods of Byrd,
Chin, Nocedal & Oztoprak (2016): Newton steps on the face the iterate
identifies, with one plain proximal-gradient step per iteration as the
safeguard.  That step is a gradient step on the smooth part, then the exact
joint prox of ``w*||.||_1 + ball indicator`` (its ball multiplier solved in
closed form on the breakpoint segment that holds the root), with per-row
backtracking on the quadratic majorization, so no step raises a row's
composite value.

Acceptance of an iterate is certificate-based: the reported residual is the
projected-gradient fixed-point gap ``||x - proj(x - eta*s(x))|| / eta`` where
s(x) is a composite subgradient whose l1 selection at kink coordinates (and
ball-normal multiplier on active rows, found by the same kind of breakpoint
solve) minimizes the gap.  The certificate is valid regardless of how the
iterate was produced.  Where a zero coordinate's selection cannot absorb
its gradient, the certificate also reports the sign in which that
coordinate would open: its release sign.

That is what lets second-order steps finish a row.  Every iteration takes
one Newton step from each row, on the face its iterate shows (zero
coordinates fixed, the other signs fixed, the ball held with equality when
the row is on its sphere), and certifies the iterates and these first
Newton points in one call.  A row not certified at its iterate ends at
its first Newton point when that passes without raising the value; on a
flat face (off the sphere, no positive hinge) the objective is quadratic,
so that point is the face's minimizer.  Otherwise the row chains more
steps and ends at the first that passes without raising the value.  At
x = 0 the face is the point itself, so a row there is its own first Newton
point (when every open row is at zero, the iterates are certified alone),
and its chain starts by opening what its certificate releases: a solve
started at zero can finish by Newton without a prox step.  Each chain step is taken on the face the last point reached, with the zero
coordinates its certificate released opened in their release signs, as in
OWL-QN's choice of orthant (Andrew & Gao, 2007), so a row stalled at the
minimizer of the wrong face moves on.  The chain goes on only while the
row's residual falls below its residual at the iterate, for at most
``NEWTON_STEPS`` points.  A refused chain leaves no trace, so such a row
takes the prox step it would take without it; a wrong release costs
time, never correctness.

All routines are batched over rows (agents), and a solve keeps its whole
batch to the end: a row whose result is written is stepped on with the
others.  No row's arithmetic reads another row, so a batch row matches the
same agent solved alone.  Sums over a row's coordinates or coupled rows go
through :func:`~duca.problem.row_sum`, numpy's own bits made as column adds.
"""

import contextlib
import functools

import numpy as np

from .errors import AssumptionViolatedError, DimMismatchError, InvariantBreachError
from .problem import Problem, row_sum

__all__ = ["solve_local_batch", "dual_value_batch"]

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 20000
#: first step of every solve, in units of the row's worst-case step 1/L
LONG_STEP = 16.0
#: a row still uncertified after this many iterations drops to 1/L
STALL_ITERS = 100
#: most chained Newton steps in one iteration's Newton finish
NEWTON_STEPS = 6


# ---------------------------------------------------------------------------
# Exact joint prox of w*||.||_1 + ball indicator
# ---------------------------------------------------------------------------


def _soft(v, thr):
    return np.sign(v) * np.maximum(np.abs(v) - thr, 0.0)


def _root_segment(base, slope, h, use, past):
    """Bracket each row's root of a scalar equation in tau >= 0 between kinks.

    The equation is piecewise smooth: its pieces change where a coordinate of
    ``base + tau*slope`` on which ``use`` holds crosses ``+-h``.  ``past(T)``
    says, at each row's sorted kinks T (rows, K), whether the root lies
    beyond the kink; the first kink where it does not ends the bracket, so a
    rounding wobble past the root cannot move it.  Returns the ends ``lo < hi``
    of the root's piece (lo = 0 before the first kink, hi = inf after the
    last) and the coordinates ``base + tau*slope`` at a tau inside it, which
    fix the piece's formula.
    """
    # a kink beyond the float range is no kink; at a far finite one the
    # terms of ``past`` may overflow to inf, which keeps their sign
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        knots = np.concatenate([(h - base) / slope, (-h - base) / slope], axis=1)
    usable = np.concatenate([use, use], axis=1) & (knots > 0.0)
    knots = np.sort(np.where(usable, knots, np.inf), axis=1)
    finite = np.isfinite(knots)
    with np.errstate(over="ignore"):
        beyond = finite & past(np.where(finite, knots, 0.0))
    k = row_sum(np.cumprod(beyond, axis=1))
    rows = np.arange(len(knots))
    lo = np.concatenate([np.zeros((len(rows), 1)), knots], axis=1)[rows, k]
    hi = np.concatenate([knots, np.full((len(rows), 1), np.inf)], axis=1)[rows, k]
    with np.errstate(over="ignore"):
        inner = np.where(np.isfinite(hi), 0.5 * lo + 0.5 * hi, 2.0 * lo + 1.0)
    inner = np.minimum(inner, np.finfo(float).max)
    return lo, hi, base + inner[:, None] * slope


def _radial_clip(X, a, c):
    """Force rows onto or into their balls: ``||x - a||^2 <= c`` afterwards.

    A row outside is pulled toward its center, to ``a + t*(x - a)`` with
    ``t`` one ulp below ``sqrt(c / ||x - a||^2)``.  While rounding leaves it
    outside, ``t`` shrinks by a relative step that doubles each time, so the
    row reaches its center after at most ~55 shrinks; a row still outside
    after that means bad data (``c < 0`` or non-finite entries) and raises.
    """
    diff = X - a
    n2 = row_sum(diff**2)
    out = n2 > c
    if not out.any():
        return X
    X = X.copy()
    rel = 0.0
    for _ in range(64):
        t = np.nextafter(np.sqrt(c[out] / n2[out]) * max(1.0 - rel, 0.0), 0.0)
        X[out] = a[out] + t[:, None] * diff[out]
        out[out] = ~(row_sum((X[out] - a[out]) ** 2) <= c[out])
        if not out.any():
            return X
        rel = max(2.0 * rel, np.finfo(float).eps)
    raise InvariantBreachError(
        f"{int(out.sum())} rows stay outside their balls after 64 radial shrinks"
    )


def _prox_l1_ball(V, thr, a, c):
    """Rows of argmin_x 0.5||x-v||^2 + thr*||x||_1 over {||x-a||^2 <= c}.

    ``thr`` is per-row.  With the ball multiplier nu >= 0 the solution is
    ``x(nu) = soft(v + nu*a, thr) / (1 + nu)``.  On a row whose plain
    soft-threshold lands outside the ball, nu is the root of the ball gap
    ``||x(nu) - a||^2 - c``, which is nonincreasing in nu and is solved
    exactly: between the breakpoints ``nu = (+-thr - v_j) / a_j`` the
    soft-threshold support is fixed and the gap is ``A/(1+nu)^2 + B - c``,
    with ``A = sum_on (v_j - s_j*thr - a_j)^2`` and ``B = sum_off a_j^2``.
    The gap is evaluated at the sorted breakpoints, and on the segment where
    it changes sign ``nu = sqrt(A/(c - B)) - 1``.  The rounded root is raised
    by ulps of ``1 + nu`` until ``x(nu)`` lies in the ball exactly.
    """
    X = _soft(V, thr[:, None])
    gap = row_sum((X - a) ** 2) - c
    bad = gap > 0.0
    if bad.any():
        Vb, ab, thrb, cb = V[bad], a[bad], thr[bad, None], c[bad]

        def outside(T):
            # x(T) scaled inside the soft-threshold, so that a far kink
            # (T*a_j near the float range) cannot overflow to inf
            s = 1.0 / (1.0 + T[:, :, None])
            Z = _soft(Vb[:, None, :] * s + (T[:, :, None] * s) * ab[:, None, :],
                      thrb[:, :, None] * s)
            return row_sum((Z - ab[:, None, :]) ** 2) > cb[:, None]

        lo, hi, u = _root_segment(Vb, ab, thrb, ab != 0.0, outside)
        on = np.abs(u) > thrb
        A = row_sum(np.where(on, (Vb - np.sign(u) * thrb - ab) ** 2, 0.0))
        B = row_sum(np.where(on, 0.0, ab**2))
        one_nu = np.sqrt(A / np.maximum(cb - B, np.finfo(float).tiny))
        nu = np.clip(one_nu - 1.0, lo, hi)
        for _ in range(8):
            Xb = _soft(Vb + nu[:, None] * ab, thrb) / (1.0 + nu[:, None])
            out = row_sum((Xb - ab) ** 2) > cb
            if not out.any():
                break
            nu[out] = np.nextafter(1.0 + nu[out], np.inf) - 1.0
        X[bad] = Xb
    return _radial_clip(X, a, c)


# ---------------------------------------------------------------------------
# Certificate: projected-subgradient fixed-point residual
# ---------------------------------------------------------------------------


def _project_rows(X, a, c):
    """Radial projection of the rows outside their balls; rows inside are kept."""
    diff = X - a
    n2 = row_sum(diff**2)
    out = n2 > c
    if out.any():
        X = X.copy()
        X[out] = a[out] + np.sqrt(c[out] / n2[out])[:, None] * diff[out]
    return X


def _certificate_residual(X, grads, eta, a, c, w):
    """Fixed-point gap per row, minimized over the subgradient selection.

    At kink coordinates (x_j = 0) the l1 subgradient is free in [-w, w]; on
    ball-active rows a normal multiplier t >= 0 is also free.  Both are chosen
    to minimize ``0.5*||grad + sigma + t*(x-a)||^2``.  For fixed t the best
    sigma clips ``-(grad_j + t*(x-a)_j)`` to [-w, w] on kink coordinates, and
    what is left of the derivative in t,
    ``psi(t) = sum_j (grad + sigma(t) + t*(x-a))_j * (x-a)_j``, is
    nondecreasing and piecewise linear with kinks at
    ``t = (+-w - grad_j) / (x-a)_j``.  When psi(0) < 0, t is its exact root:
    psi is evaluated at the sorted kinks and the linear piece that changes
    sign is solved.  Past the last kink the slope is ``||x - a||^2 > 0``.
    The reported gap is then
    ``||x - proj(x - eta_c*(grad+sigma))|| / eta_c``, whose projection absorbs
    the normal-cone term exactly on radial directions.  The probe step eta_c
    is the method's step capped at (ball diameter)/||s||: beyond that the
    projection truncates the whole step and the gap would shrink with eta
    regardless of optimality.

    Returns the gaps and the release signs: at a kink coordinate where the
    clipped selection cannot reach ``want = -(grad + t*(x-a))``
    (``|want_j| > w``), the sign of ``want_j``, in which opening the
    coordinate lowers the first-order model of the objective plus t times
    the ball term; 0 elsewhere.
    """
    diff = X - a
    n2 = row_sum(diff**2)
    active = n2 >= c * (1.0 - 1e-10)
    # with w = 0 a kink coordinate's selection is fixed at 0 like any other
    kink = (X == 0.0) & (w != 0.0)
    fixed_sigma = w * np.sign(X)

    def psi(g, dd, kk, fs, T):
        """psi at multipliers T (rows, n) for rows with data g, dd, kk, fs."""
        want = -(g[:, None, :] + T[:, :, None] * dd[:, None, :])
        sigma = np.where(kk[:, None, :], np.clip(want, -w, w), fs[:, None, :])
        return row_sum((sigma - want) * dd[:, None, :])

    t = np.zeros(len(X))
    if active.any():
        need = active & (psi(grads, diff, kink, fixed_sigma, t[:, None])[:, 0] < 0.0)
        if need.any():
            g, dd, kk, fs = grads[need], diff[need], kink[need], fixed_sigma[need]
            lo, hi, u = _root_segment(
                g, dd, w, kk & (dd != 0.0), lambda T: psi(g, dd, kk, fs, T) < 0.0
            )
            on = ~kk | (np.abs(u) > w)
            sig = np.where(kk, -w * np.sign(u), fs)
            C = row_sum(np.where(on, (g + sig) * dd, 0.0))
            S = row_sum(np.where(on, dd**2, 0.0))
            # S underflows to 0 on a piece whose slope is below the float
            # range; psi < 0 there puts the root at the piece's right end
            root = -C / np.maximum(S, np.finfo(float).tiny)
            t[need] = np.clip(np.where((S == 0.0) & (C < 0.0), hi, root), lo, hi)
    want = -(grads + t[:, None] * diff)
    s = grads + np.where(kink, np.clip(want, -w, w), fixed_sigma)
    release = np.where(kink & (np.abs(want) > w), np.sign(want), 0.0)
    snorm = np.sqrt(row_sum(s * s))
    eta_c = np.minimum(eta, 2.0 * np.sqrt(c) / np.maximum(snorm, 1e-300))
    stepped = X - eta_c[:, None] * s
    back = _project_rows(stepped, a, c)
    gap = X - back
    return np.sqrt(row_sum(gap * gap)) / eta_c, release


# ---------------------------------------------------------------------------
# Smooth parts of the row problems
# ---------------------------------------------------------------------------


@functools.cache
def _eye(d):
    """The read-only d x d identity, built once per d."""
    eye = np.eye(d)
    eye.flags.writeable = False
    return eye


class _SmoothPart:
    """Smooth part of a batch of row problems, one row per agent.

    Calling it on rows X returns their values and gradients.  The per-row
    data are the constructor's keyword arguments (scalars are shared).  No
    row's arithmetic reads another row, so a row keeps its bits in any
    batch.
    """

    def __init__(self, **data):
        self.__dict__.update(data)

    def _terms(self, X):
        """Per-row x'Px + Q'x, its gradient 2Px + Q, x - a'_j, ||x - a'_j||^2 and Bx.

        Every reduction runs over one axis: einsum's order of summation over
        two axes depends on the batch size, and a row must not.
        """
        PX = np.einsum("rde,re->rd", self.P, X)
        fq = row_sum(X * PX) + row_sum(self.Q * X)
        diff = X[:, None, :] - self.a_prime
        BX = np.einsum("rpd,rd->rp", self.B, X)
        return fq, 2.0 * PX + self.Q, diff, row_sum(diff**2), BX


class _RoundPart(_SmoothPart):
    """Round smooth part: the quadratic, the two penalties and the prox term.

    Its per-run data, the problem's rows and 1/d' scaled as the terms read
    it, come from :func:`_round_arrays`.
    """

    def __init__(self, **data):
        super().__init__(**data)
        self.half_alpha = 0.5 * self.alpha

    def __call__(self, X):
        fq, grad, diff, dist2, BX = self._terms(X)
        hinge = np.maximum(self.mu + dist2 - self.c_prime, 0.0)
        pen_g = self.half_inv_d * row_sum(hinge**2)
        grad += self.two_inv_d * np.einsum("rm,rmd->rd", hinge, diff)
        eq = self.lam + BX + self.c_eq
        pen_h = self.half_inv_d * row_sum(eq**2)
        grad += self.inv_d_col * np.einsum("rpd,rp->rd", self.B, eq)
        dxa = X - self.anchor
        prox = self.half_alpha * row_sum(dxa**2)
        grad += self.alpha * dxa
        return fq + pen_g + pen_h + prox, grad

    def hessian(self, X):
        """Per-row Hessian; a squared hinge curves only where it is positive."""
        diff = X[:, None, :] - self.a_prime
        hinge = np.maximum(self.mu + row_sum(diff**2) - self.c_prime, 0.0)
        on = (hinge > 0.0)[:, :, None, None]
        outer = (on * 4.0 * diff[:, :, :, None] * diff[:, :, None, :]).sum(axis=1)
        H = 2.0 * self.P + self.inv_d[:, None, None] * (self.BtB + outer)
        diag = self.alpha + self.two_inv_d[:, 0] * row_sum(hinge)
        return H + diag[:, None, None] * _eye(X.shape[1])


class _DualPart(_SmoothPart):
    """Lagrangian smooth part at fixed multipliers (mu, lam)."""

    def __call__(self, X):
        fq, grad, diff, dist2, BX = self._terms(X)
        val_g = row_sum(self.mu * (dist2 - self.c_prime))
        grad += 2.0 * np.einsum("rm,rmd->rd", self.mu, diff)
        val_h = row_sum(self.lam * (BX + self.c_eq))
        grad += np.einsum("rpd,rp->rd", self.B, self.lam)
        return fq + val_g + val_h, grad

    def hessian(self, X):
        """Per-row Hessian: 2P plus 2*sum(mu) on the diagonal."""
        return 2.0 * self.P + (2.0 * row_sum(self.mu))[:, None, None] * _eye(X.shape[1])


def _problem_rows(pb):
    return dict(P=pb.P, Q=pb.Q, a_prime=pb.a_prime, c_prime=pb.c_prime, B=pb.B, c_eq=pb.c_eq)


def _round_arrays(pb, d_prime):
    """The round part's per-run arrays: the problem's rows and 1/d' scaled.

    A setting's d' is a read-only array that owns its data, so the arrays
    made from such a d' are kept on the problem, in ``pb.round_arrays``, for
    the last one seen: a run builds them in its first round and reads them
    in every later one.  Any other d' is checked and scaled on every call.
    The kept arrays are never changed, only replaced.
    """
    held = pb.round_arrays
    arrays = held.get("last")
    if arrays is not None and arrays["d_prime"] is d_prime:
        return arrays
    d_prime = np.asarray(d_prime, dtype=float)
    if (d_prime <= 0).any():
        raise AssumptionViolatedError("d_prime entries must be positive")
    inv_d = 1.0 / d_prime
    arrays = dict(_problem_rows(pb), BtB=pb.BtB, d_prime=d_prime, inv_d=inv_d,
                  half_inv_d=0.5 * inv_d, two_inv_d=(2.0 * inv_d)[:, None],
                  inv_d_col=inv_d[:, None])
    if not d_prime.flags.writeable and d_prime.flags.owndata:
        held["last"] = arrays
    return arrays


def _round_value_and_grad(pb, Ytilde, d_prime, alpha, anchor):
    """The round smooth part, one row per agent."""
    return _RoundPart(**_round_arrays(pb, d_prime), mu=Ytilde[:, : pb.m],
                      lam=Ytilde[:, pb.m :], alpha=alpha, anchor=anchor)


def _dual_value_and_grad(pb, mu, lam):
    """The Lagrangian smooth part at (N, m) and (N, p) multiplier rows."""
    return _DualPart(**_problem_rows(pb), mu=mu, lam=lam)


# ---------------------------------------------------------------------------
# Batched projected proximal-gradient loop
# ---------------------------------------------------------------------------


def _slack(v):
    return 1e-12 * (1.0 + np.abs(v))


def _descent_step(smooth, Y, vY, gY, eta, a, c, w, rows):
    """Backtracked prox step from each row of Y; halves ``eta`` in place.

    A row of the mask ``rows`` whose new value breaks the quadratic
    majorization at its step halves the step, and the batch is stepped
    again; a row that held takes the same step again, to the same bits.
    The other rows are stepped at their ``eta``, untested.
    """
    for _ in range(60):
        X = _prox_l1_ball(Y - eta[:, None] * gY, eta * w, a, c)
        v, g = smooth(X)
        dX = X - Y
        bound = vY + row_sum(gY * dX) + 0.5 / eta * row_sum(dX**2)
        rows = rows & (v > bound + _slack(vY))
        if not rows.any():
            break
        eta[rows] *= 0.5
    return X, v, g


def _solve_rows(K, rhs):
    """Each row's solution of ``K x = rhs``; NaN on a row whose K is singular."""
    try:
        return np.linalg.solve(K, rhs[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full_like(rhs, np.nan)
        for i in range(len(K)):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[i] = np.linalg.solve(K[i], rhs[i][:, None])[:, 0]
        return out


def _onto_sphere(X, a, c, rows):
    """Scale the nonzero coordinates of the given rows about a onto their spheres.

    Zero coordinates stay zero.  A row that rounding leaves outside shrinks
    its scale by a few ulps, and whatever is still outside after four tries
    is left to ``_radial_clip``.
    """
    if not rows.any():
        return X
    free = X != 0.0
    e = X - a
    fixed = row_sum(np.where(free, 0.0, e**2))
    moving = row_sum(np.where(free, e**2, 0.0))
    rows = rows & (moving > 0.0) & (fixed < c)
    if not rows.any():
        return X
    t = np.sqrt((c[rows] - fixed[rows]) / moving[rows])
    Xr, ar, er, fr = X[rows], a[rows], e[rows], free[rows]
    for k in range(4):
        Y = np.where(fr, ar + t[:, None] * er, Xr)
        out = row_sum((Y - ar) ** 2) > c[rows]
        if not out.any():
            break
        t[out] *= 1.0 - 2.0**k * np.finfo(float).eps
    X = X.copy()
    X[rows] = Y
    return X


def _newton_step(smooth, X, grads, a, c, w, release=0.0):
    """One Newton step on the face each row's iterate shows, or opens.

    The face keeps the zero coordinates at zero and the signs of the others,
    so the l1 term is linear on it.  With ``release`` (per-coordinate signs
    from ``_certificate_residual``), a zero coordinate with a nonzero
    release sign joins the face with that sign.  The face holds the ball
    with equality when the row lies on its sphere
    (``||x - a||^2 >= c*(1 - 1e-10)``, as in the certificate) and the
    multiplier estimate ``nu = -<g, x - a> / (2*||x - a||^2)`` over the
    face's coordinates is positive, where g is the gradient plus w times the
    face's signs.  The step solves the face's KKT system:
    ``(H + 2*nu*I) dx + 2*(x - a)*nu' = -g`` with the linearized sphere
    ``2*<x - a, dx> = c - ||x - a||^2`` bordering it on ball rows, H being
    ``smooth.hessian``.  A coordinate that ends against its face's sign is
    set to zero, a ball row is put back onto its sphere, and a row still
    outside its ball is clipped into it, so every new row lies in its ball.
    With ``w = 0`` there is no kink and no face sign: every coordinate with
    a nonzero value or gradient is free and may change sign (a zero one
    with zero gradient stays out of the system, as padding with its zero
    data must, or the system would be singular there).
    Returns the new rows and a mask of the usable ones: those whose step kept
    ``||x - a||^2`` finite (the others keep X).  Whether a point is kept is
    for the certificate to decide.
    """
    n, d = X.shape
    eye = _eye(d)
    sgn = np.sign(X) + release  # a release sign is 0 off the zero coordinates
    free = sgn != 0.0
    if w == 0.0:
        free |= grads != 0.0
    g = np.where(free, grads + w * sgn, 0.0)
    e = X - a
    ef = np.where(free, e, 0.0)
    n2 = row_sum(e**2)
    with np.errstate(divide="ignore", invalid="ignore"):
        nu = -row_sum(g * ef) / (2.0 * row_sum(ef**2))
    ball = (n2 >= c * (1.0 - 1e-10)) & (nu > 0.0)
    nu = np.where(ball, nu, 0.0)
    K = np.empty((n, d + 1, d + 1))
    K[:, :d, :d] = np.where(free[:, :, None] & free[:, None, :],
                            smooth.hessian(X) + (2.0 * nu)[:, None, None] * eye, eye)
    K[:, :d, d] = K[:, d, :d] = np.where(ball[:, None], 2.0 * ef, 0.0)
    K[:, d, d] = ~ball
    rhs = np.concatenate([-g, np.where(ball, c - n2, 0.0)[:, None]], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        Xn = np.where(free, X + _solve_rows(K, rhs)[:, :d], 0.0)
        finite = np.isfinite(row_sum((Xn - a) ** 2))
    Xn[~finite] = X[~finite]
    if w != 0.0:
        Xn[np.sign(Xn) != sgn] = 0.0
    return _radial_clip(_onto_sphere(Xn, a, c, ball), a, c), finite


def _newton_finish(smooth, Y, vY, gY, r, release, going, comp, best, probe, a, c, w, tol):
    """Test the first Newton points of the rows in ``going`` and chain more steps.

    Y holds each row's first Newton point, with its smooth values vY and
    gradients gY and its certificate residual r at the row's probe step.  A
    row in the mask ``going`` finishes on a point when the certificate
    passes and the composite value is at most ``comp``, the value at the
    row's iterate.  A row that does not finish on its first point takes the
    next step (``_newton_step`` on the face the last one reached, with the
    zero coordinates opened that the certificate of that point released:
    ``release`` for the first point, then each chain certificate's) and is
    certified there; from then on it goes on only while its residual keeps
    falling, starting from ``best``, its residual at the iterate, and the
    chain ends after ``NEWTON_STEPS`` points.  Every step is taken on the
    whole batch, and ``going`` is updated in place to the rows still in the
    chain.  Returns a mask of the finishing rows and, on them, the point,
    its residual and its composite value; the other rows leave no trace.
    """
    won = np.zeros(len(Y), dtype=bool)
    Y_won, res_won, comp_won = np.empty_like(Y), np.empty(len(Y)), np.empty(len(Y))
    cap = comp + _slack(comp)
    for step in range(NEWTON_STEPS):
        comp_Y = vY + w * row_sum(np.abs(Y))
        win = going & (r <= tol) & (comp_Y <= cap)
        won |= win
        Y_won[win], res_won[win], comp_won[win] = Y[win], r[win], comp_Y[win]
        # past the first point, a row goes on only while its residual falls
        if step:
            going &= (r > tol) & (r < best)
            best = r
        else:
            going &= ~win
        if step == NEWTON_STEPS - 1 or not going.any():
            break
        Y, go = _newton_step(smooth, Y, gY, a, c, w, release)
        going &= go
        if not going.any():
            break
        vY, gY = smooth(Y)
        r, release = _certificate_residual(Y, gY, probe, a, c, w)
    return won, Y_won, res_won, comp_won


def _prox_grad_loop(smooth, X0, a, c, w, lip, tol, max_iters):
    """Minimize rows of smooth(x) + w*||x||_1 over per-row balls.

    Newton-first: each iteration tries the Newton finish and then takes one
    backtracked prox step (``_descent_step``), which does not raise a row's
    composite value beyond its rounding slack, so no iterate has a higher
    value than the one before.

    ``smooth(X)`` returns per-row smooth values and gradients and
    ``smooth.hessian(X)`` their Hessians.  The batch stays whole: a mask
    ``live`` holds the rows still open, and a row's result is written once,
    when it leaves.  Every iteration takes one Newton step
    (``_newton_step``) from every row's iterate, and certifies the iterates
    and these first Newton points in one call; when every live row is at
    x = 0, where the step keeps the point, the iterates are certified alone
    and each is its own first Newton point.  A row leaves at its first
    iterate whose residual is <= tol, after ``iters`` steps; a row that uses
    up ``max_iters`` is certified once more at its last iterate and leaves
    there.

    A live row that is not certified at its iterate goes on to
    ``_newton_finish``: it leaves at its first Newton point when that passes
    and does not raise the composite value, and otherwise chains more Newton
    steps, each opening the zero coordinates the last point's certificate
    released and certified at the same probe step, for as long as its
    residual falls and for at most ``NEWTON_STEPS`` points.  A row at x = 0
    thus starts its chain by opening its released coordinates.  A row that
    leaves at a Newton point counts one more iteration.  On a flat face (off
    the sphere, no positive hinge) the round objective is quadratic, so the
    first Newton point is the face's minimizer and such a row leaves there.
    Every other row takes the prox step below as if there were no Newton
    step.  A row that has left is stepped on with the others, untested, and
    stays in its ball, since every prox and Newton point is clipped into it.
    No row's arithmetic depends on another's, so a batch row equals the same
    row solved alone, bit for bit.  Returns (X, residual, iters, done,
    composite values).

    Each row starts at the long step ``LONG_STEP / L``, where ``L = lip`` is
    the worst case over the ball, floored at 1e-12 so that a row with a
    linear smooth part (L = 0) takes a finite step, and backtracking shrinks
    it as needed.  The certificate probes at ``min(eta, 1/L)``, never at a
    longer step: its gap ``||x - proj(x - eta*s)|| / eta`` does not increase
    with eta, so following the solver's step would loosen acceptance.  A row still
    uncertified after ``STALL_ITERS`` iterations drops to ``min(eta, 1/L)``,
    the step that is proven to converge.
    """
    X = _radial_clip(X0.copy(), a, c)
    rows = X.shape[0]
    X_out = np.empty_like(X)
    iters = np.zeros(rows, dtype=int)
    done = np.zeros(rows, dtype=bool)
    residual = np.full(rows, np.inf)
    values = np.empty(rows)
    live = np.ones(rows, dtype=bool)
    eta0 = 1.0 / np.maximum(lip, 1e-12)
    eta = LONG_STEP * eta0
    vals, grads = smooth(X)
    comp = vals + w * row_sum(np.abs(X))
    a2, c2 = np.concatenate([a, a]), np.concatenate([c, c])

    def record(mask, Xr, res, comp_r, n_iters):
        """Write the results of the rows in ``mask`` and close them."""
        X_out[mask], residual[mask], values[mask] = Xr[mask], res[mask], comp_r[mask]
        iters[mask], done[mask] = n_iters, res[mask] <= tol
        live[mask] = False

    for it in range(max_iters + 1):
        # the first Newton points, while iterations are left, are certified
        # with the iterates, all at a probe step of at most 1/L
        probe = np.minimum(eta, eta0)
        newton = it < max_iters
        if newton and X[live].any():
            Y, go = _newton_step(smooth, X, grads, a, c, w)
            vY, gY = smooth(Y)
            both, release = _certificate_residual(
                np.concatenate([X, Y]), np.concatenate([grads, gY]),
                np.concatenate([probe, probe]), a2, c2, w)
            res, r, release = both[:rows], both[rows:], release[rows:]
        else:
            # at x = 0 the Newton step keeps every row (w > 0): the iterate
            # is its own first Newton point, and the chain opens its release
            # (with w = 0, every coordinate with a nonzero gradient)
            res, release = _certificate_residual(X, grads, probe, a, c, w)
            Y, go, vY, gY, r = X, live, vals, grads, res
        record(live & ((res <= tol) | (it == max_iters)), X, res, comp, it)
        going = live & go
        if newton and going.any():
            record(*_newton_finish(smooth, Y, vY, gY, r, release, going, comp, res, probe,
                                   a, c, w, tol), it + 1)
        if not live.any():
            break
        if it == STALL_ITERS:
            np.minimum(eta, eta0, out=eta)
        X, vals, grads = _descent_step(smooth, X, vals, grads, eta, a, c, w, live)
        comp = vals + w * row_sum(np.abs(X))
    return X_out, residual, iters, done, values


# ---------------------------------------------------------------------------
# Round subproblems (whole-network batch)
# ---------------------------------------------------------------------------


def _round_lipschitz(pb, Ytilde, d_prime, alpha):
    """Per-agent bound on the smooth part's Hessian norm over the ball.

    Only the squared-hinge term depends on the round (through mu); the
    problem's curvature bounds are computed once per problem.
    """
    R2 = pb.reach_sq
    hinge_max = np.maximum(Ytilde[:, : pb.m] + R2 - pb.c_prime, 0.0)
    curv_g = row_sum(4.0 * R2 + 2.0 * hinge_max)
    return pb.curv_P + (curv_g + pb.curv_B) / d_prime + alpha


def solve_local_batch(pb: Problem, Ytilde, d_prime, alpha, anchor,
                      tol=DEFAULT_TOL, max_iters=DEFAULT_MAX_ITERS):
    """Solve all N agents' round subproblems at once.

    ``Ytilde``: (N, m+p) shifted duals; ``d_prime``: (N,) positive scales;
    ``anchor``: (N, dmax) padded anchors (also the warm start).  Returns
    ``(X, residual, iters, done, values)``, one entry or row per agent.  Each
    row equals the solve of that agent alone, as a one-agent problem, bit for
    bit.
    """
    if not tol > 0:
        raise AssumptionViolatedError(f"tol must be positive, got {tol}")
    smooth = _round_value_and_grad(pb, Ytilde, d_prime, alpha, anchor)
    lip = _round_lipschitz(pb, Ytilde, smooth.d_prime, alpha)
    return _prox_grad_loop(smooth, anchor, pb.a, pb.c, pb.l1_weight, lip, tol, max_iters)


# ---------------------------------------------------------------------------
# Local dual function q_i(y) = inf over the ball of f_i + <mu, g_i> + <lam, h_i>
# ---------------------------------------------------------------------------


def dual_value_batch(pb: Problem, y: np.ndarray, tol=DEFAULT_TOL):
    """All agents' dual-function values and minimizers at a shared y."""
    y = np.asarray(y, dtype=float)
    if y.shape != (pb.mp,):
        raise DimMismatchError(f"y has shape {y.shape}, expected ({pb.mp},)")
    if pb.m and float(y[: pb.m].min()) < 0.0:
        raise AssumptionViolatedError("dual evaluation needs mu >= 0")
    mu = np.broadcast_to(y[: pb.m], (pb.n_agents, pb.m))
    lam = np.broadcast_to(y[pb.m :], (pb.n_agents, pb.p))
    smooth = _dual_value_and_grad(pb, mu, lam)
    lip = pb.curv_P + 2.0 * float(y[: pb.m].sum())
    X, res, iters, done, vals = _prox_grad_loop(
        smooth, np.zeros((pb.n_agents, pb.dmax)), pb.a, pb.c, pb.l1_weight, lip, tol,
        DEFAULT_MAX_ITERS,
    )
    return vals, X, res, done
