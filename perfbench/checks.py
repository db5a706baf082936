"""Output checks of the benchmark, each with a negative control.

Every check is a function of plain data that returns a list of failure
strings (empty when the check passes).  The checks recompute what they
compare against with the benchmark's own code: the analytic optimum of the
degenerate generator, an independent SciPy SLSQP solve of the centralized
problem, the exact communication count from the graph, and a least-squares
log-log fit.  :func:`must_fail` runs a check on deliberately broken data;
a check that cannot fail proves nothing, so a control that passes counts as
a benchmark failure.
"""

from __future__ import annotations

import copy
import csv
import dataclasses
import io
import math

import numpy as np

#: exchange rounds per round, by variant name (the paper's two families)
EXCHANGES = {"DUCA_I": 1, "PEXTRA": 1, "PGC": 1, "DPGA": 1, "DIST_ADMM": 2, "ALT": 2}
#: relative slack of the ball-membership test (one rounding of ||x - a||^2)
BALL_RTOL = 1e-12
#: agreement required between the oracle and the SLSQP reference, absolute
F_STAR_TOL = 1e-6
X_STAR_TOL = 1e-6
#: the analytic optimum of the degenerate instances is exactly x* = 0, f* = 0
ANALYTIC_TOL = 1e-9
#: O(1/k): the ergodic feasibility slope over [R/10, R] must be at most this
SLOPE_MAX = -0.8


def comm_step(n_edges, mp, variant):
    """Reals sent per round: every link carries m+p reals each way per exchange."""
    return 2 * n_edges * mp * EXCHANGES[variant]


class RoundChecker:
    """Per-round properties, evaluated by the benchmark's hook on every state.

    Returns the names of the properties the state breaks: iterates outside
    their balls, a negative mu-block of y, a communication increment other
    than ``step``, and (for zero-start workloads) any nonzero entry of X or Y.
    """

    def __init__(self, a, c, m, step, zero_state):
        self.a = np.array(a, dtype=float)
        self.c = np.array(c, dtype=float)
        self.m = m
        self.step = step
        self.zero_state = zero_state

    def __call__(self, st, prev_comm):
        bad = []
        d2 = np.sum((st.X - self.a) ** 2, axis=1)
        if np.any(d2 > self.c * (1.0 + BALL_RTOL)):
            bad.append("ball")
        if self.m and st.Y[:, : self.m].min() < 0.0:
            bad.append("mu_sign")
        want = 0 if prev_comm is None else prev_comm + self.step
        if st.comm_total != want:
            bad.append("comm")
        if self.zero_state and (st.X.any() or st.Y.any()):
            bad.append("moved")
        return bad


def check_setting(rec, zero_state):
    """What one setting's run left behind: completion, counts, final state."""
    out = []
    tag = rec.label
    if rec.error is not None:
        return [f"{tag}: raised {rec.error}"]
    if rec.state is None or rec.state.k != rec.rounds:
        out.append(f"{tag}: run did not reach round {rec.rounds}")
    if rec.solve_calls != rec.rounds:
        out.append(f"{tag}: {rec.solve_calls} local-solve batches for {rec.rounds} rounds")
    if rec.hook_calls != rec.rounds + 1:
        out.append(f"{tag}: hook called {rec.hook_calls} times for {rec.rounds} rounds")
    for name, count in sorted(rec.violations.items()):
        out.append(f"{tag}: property '{name}' broken in {count} rounds")
    if zero_state and rec.state is not None:
        st = rec.state
        if st.inner_iters_total != 0:
            out.append(f"{tag}: {st.inner_iters_total} inner iterations from the fixed point")
        if st.X.any() or st.Y.any():
            out.append(f"{tag}: X or Y left the zero start")
    return out


# ---------------------------------------------------------------------------
# Reference optima


def check_analytic_optimum(data):
    """x* = 0, f* = 0, y* = 0 when max|Q| <= w and 0 is strictly feasible.

    ``data`` maps Q, l1_weight, a, c, a_prime, c_prime, c_eq (the instance)
    and x_star, f_star, y_star (the reported optimum) to their values.  With
    |Q_ij| <= w, 0 lies in the subdifferential of every f_i at 0, so 0
    minimizes the unconstrained sum; when 0 is also strictly feasible it is
    the constrained optimum, with value 0 and zero multipliers.
    """
    Q, w = np.asarray(data["Q"]), data["l1_weight"]
    a, c = np.asarray(data["a"]), np.asarray(data["c"])
    a_prime, c_prime = np.asarray(data["a_prime"]), np.asarray(data["c_prime"])
    c_eq = np.asarray(data["c_eq"])
    x_star, f_star, y_star = np.asarray(data["x_star"]), data["f_star"], np.asarray(data["y_star"])
    out = []
    if float(np.abs(Q).max()) > w:
        out.append(f"max|Q| = {np.abs(Q).max():.6g} exceeds w = {w:g}")
    g0 = np.sum(np.sum(a_prime**2, axis=2) - c_prime, axis=0)
    if g0.size and float(g0.max()) >= 0.0:
        out.append("0 is not strictly feasible for the coupled inequalities")
    if c_eq.size and float(np.abs(c_eq.sum(axis=0)).max()) != 0.0:
        out.append("0 does not satisfy the coupled equalities")
    if float(np.max(np.sum(a**2, axis=1) - c)) >= 0.0:
        out.append("0 is not interior to every local ball")
    if out:
        return ["analytic optimum unavailable: " + "; ".join(out)]
    if abs(f_star) > ANALYTIC_TOL:
        out.append(f"f* = {f_star:.3e}, analytic optimum is 0")
    if float(np.abs(x_star).max()) > ANALYTIC_TOL:
        out.append(f"max|x*| = {np.abs(x_star).max():.3e}, analytic optimum is 0")
    if float(np.abs(y_star).max()) > ANALYTIC_TOL:
        out.append(f"max|y*| = {np.abs(y_star).max():.3e}, analytic multipliers are 0")
    return out


def slsqp_reference(pb):
    """Solve the centralized problem with SciPy SLSQP, writing x = u - v.

    Independent of duca's solvers: only the problem arrays are read.  The
    l1 term becomes w * sum(u + v) over u, v >= 0.
    """
    from scipy.optimize import minimize

    n, dmax = pb.n_agents, pb.dmax
    if any(d != dmax for d in pb.dims):
        raise ValueError("the SLSQP reference expects equal agent dimensions")
    size = n * dmax
    P, Q, w = pb.P, pb.Q, pb.l1_weight

    def split(z):
        return (z[:size] - z[size:]).reshape(n, dmax)

    def lift(gx):
        gx = gx.reshape(-1)
        return np.concatenate([gx, -gx])

    def fun(z):
        X = split(z)
        val = np.einsum("nd,nde,ne->", X, P, X) + np.sum(Q * X) + w * z.sum()
        grad = lift(2.0 * np.einsum("nde,ne->nd", P, X) + Q) + w
        return float(val), grad

    cons = []
    for j in range(pb.m):
        def g_fun(z, j=j):
            X = split(z)
            return -float(np.sum(np.sum((X - pb.a_prime[:, j]) ** 2, axis=1) - pb.c_prime[:, j]))

        def g_jac(z, j=j):
            return lift(-2.0 * (split(z) - pb.a_prime[:, j]))

        cons.append({"type": "ineq", "fun": g_fun, "jac": g_jac})

    def ball_fun(z):
        return pb.c - np.sum((split(z) - pb.a) ** 2, axis=1)

    def ball_jac(z):
        D = -2.0 * (split(z) - pb.a)
        J = np.zeros((n, n, dmax))
        J[np.arange(n), np.arange(n)] = D
        return np.hstack([J.reshape(n, size), -J.reshape(n, size)])

    cons.append({"type": "ineq", "fun": ball_fun, "jac": ball_jac})
    if pb.p:
        def h_fun(z):
            return np.einsum("npd,nd->p", pb.B, split(z)) + pb.c_eq.sum(axis=0)

        def h_jac(z):
            J = np.transpose(pb.B, (1, 0, 2)).reshape(pb.p, size)
            return np.hstack([J, -J])

        cons.append({"type": "eq", "fun": h_fun, "jac": h_jac})

    res = minimize(fun, np.zeros(2 * size), jac=True, method="SLSQP",
                   bounds=[(0.0, None)] * (2 * size), constraints=cons,
                   options={"ftol": 1e-12, "maxiter": 2000})
    return {"f": float(res.fun), "x": split(res.x), "success": bool(res.success),
            "message": str(res.message)}


def check_against_reference(pb, x_star, f_star, y_star, ref):
    """The oracle's optimum against the SLSQP value, plus its own feasibility."""
    out = []
    if not ref["success"]:
        out.append(f"SLSQP reference did not converge: {ref['message']}")
    if abs(f_star - ref["f"]) > F_STAR_TOL:
        out.append(f"f* = {f_star:.12g} but SLSQP gives {ref['f']:.12g}")
    dx = float(np.abs(np.asarray(x_star) - ref["x"]).max())
    if dx > X_STAR_TOL:
        out.append(f"x* is {dx:.3e} away from the SLSQP minimizer")
    X = np.asarray(x_star, dtype=float)
    f_own = float(np.einsum("nd,nde,ne->", X, pb.P, X) + np.sum(pb.Q * X)
                  + pb.l1_weight * np.abs(X).sum())
    if abs(f_own - f_star) > 1e-9 * (1.0 + abs(f_star)):
        out.append(f"f(x*) = {f_own:.12g} does not match f* = {f_star:.12g}")
    G = np.sum(np.sum((X[:, None, :] - pb.a_prime) ** 2, axis=2) - pb.c_prime, axis=0)
    H = np.einsum("npd,nd->p", pb.B, X) + pb.c_eq.sum(axis=0)
    if (G.size and G.max() > 1e-8) or (H.size and np.abs(H).max() > 1e-8):
        out.append("x* violates the coupled constraints")
    if np.any(np.sum((X - pb.a) ** 2, axis=1) > pb.c * (1.0 + 1e-9)):
        out.append("x* leaves a local ball")
    if float(np.abs(y_star).min()) < 1e-6:
        out.append("a multiplier of y* is zero: the coupling is not active")
    return out


# ---------------------------------------------------------------------------
# Files written by `duca run`


def parse_certificate(text):
    """Scalars and arrays of certificate.txt, read without duca's reader."""
    lines = text.splitlines()
    out = {}
    i = 1
    while i < len(lines):
        parts = lines[i].split()
        kind, name = parts[0], parts[1]
        if kind == "float":
            out[name] = float(parts[2])
        elif kind == "int":
            out[name] = int(parts[2])
        elif kind == "array":
            ndim = int(parts[2])
            shape = tuple(int(s) for s in parts[3 : 3 + ndim])
            nrows = shape[0] if ndim >= 1 and math.prod(shape) else 1
            vals = [float(v) for row in lines[i + 1 : i + 1 + nrows] for v in row.split()]
            out[name] = np.array(vals).reshape(shape)
            i += nrows
        i += 1
    return out


def read_csv_columns(text):
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], rows[1:]
    return {col: [row[j] for row in body] for j, col in enumerate(header)}


def loglog_slope(ks, vals):
    """Least-squares slope of log(vals) against log(ks)."""
    lk = np.log(np.asarray(ks, dtype=float))
    lv = np.log(np.asarray(vals, dtype=float))
    lk_c = lk - lk.mean()
    return float(np.sum(lk_c * (lv - lv.mean())) / np.sum(lk_c * lk_c))


def check_csv(cols, rounds, step):
    """One setting's CSV: round count, exact communication, O(1/k) slope."""
    out = []
    ks = [int(v) for v in cols["k"]]
    if ks != list(range(1, rounds + 1)):
        return [f"rounds 1..{rounds} expected, got {len(ks)} rows"]
    comm = [int(v) for v in cols["comm_total"]]
    if comm != [step * k for k in ks]:
        out.append(f"comm_total is not {step} reals per round")
    fe = np.array([float(v) for v in cols["ergodic_feasibility"]])
    lo = max(1, rounds // 10)
    win = (np.arange(1, rounds + 1) >= lo) & (fe > 0.0)
    if win.sum() < 2:
        out.append("ergodic feasibility has no positive values to fit")
    else:
        slope = loglog_slope(np.arange(1, rounds + 1)[win], fe[win])
        if not slope <= SLOPE_MAX:
            out.append(f"ergodic feasibility slope {slope:.3f} over [{lo}, {rounds}] > {SLOPE_MAX}")
    return out


def check_manifest(manifest, csv_names, rounds):
    out = []
    want = sorted(list(csv_names) + ["certificate.txt"])
    if manifest.get("outputs") != want:
        out.append(f"manifest outputs {manifest.get('outputs')} != {want}")
    if manifest.get("rounds") != rounds:
        out.append(f"manifest rounds {manifest.get('rounds')} != {rounds}")
    if manifest.get("strict") is not True:
        out.append("manifest does not record a strict run")
    return out


# ---------------------------------------------------------------------------
# Negative controls


def must_fail(label, check, *args, **kwargs):
    """[] when the check rejects the broken input, else one failure line."""
    if check(*args, **kwargs):
        return []
    return [f"negative control '{label}' passed: the check cannot fail"]


def setting_controls(rec, zero_state):
    """Break one finished setting's state and counts; each check must object."""
    checker, st = rec.checker, rec.state
    prev = st.comm_total - checker.step

    def broken(**change):
        bad = copy.copy(st)
        for name, value in change.items():
            setattr(bad, name, value)
        return bad

    far = st.X.copy()
    far[0] = checker.a[0] + 2.0 * math.sqrt(checker.c[0]) + 1.0
    out = must_fail("iterate outside its ball", lambda: "ball" in checker(broken(X=far), prev))
    if checker.m:
        neg = st.Y.copy()
        neg[0, 0] = -1e-300
        out += must_fail("negative mu-block", lambda: "mu_sign" in checker(broken(Y=neg), prev))
    out += must_fail("communication off by one",
                     lambda: "comm" in checker(broken(comm_total=st.comm_total + 1), prev))
    out += must_fail("a round without a local solve", check_setting,
                     dataclasses.replace(rec, solve_calls=rec.solve_calls - 1), zero_state)
    out += must_fail("a round without a hook call", check_setting,
                     dataclasses.replace(rec, hook_calls=rec.hook_calls - 1), zero_state)
    if zero_state:
        moved = st.Y.copy()
        moved[-1, -1] = 1e-300
        out += must_fail("state moved off zero", lambda: "moved" in checker(broken(Y=moved), prev))
        out += must_fail("inner iterations from the fixed point", check_setting,
                         dataclasses.replace(rec, state=broken(inner_iters_total=1)), zero_state)
    return out
