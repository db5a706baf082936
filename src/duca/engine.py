"""Synchronous message-passing simulator for the dual-consensus rounds.

Every family runs the same bulk-synchronous round, :func:`step`, over a
fixed undirected graph: one local solve per agent, one cone projection, and
one or two neighbor exchanges.  The setting's exchange mode picks the
exchange term and the disagreement update.  Cross-agent reads go through
the setting's neighbor table, ``s.mailbox`` (a :class:`~duca.graphs.Mailbox`),
which refuses weights between agents that are not neighbors.  The state
keeps the neighbor sums of y that the round's exchanges made (``st.WY``),
so the next round and every network form read them instead of summing
again.  Per-round algebraic identities (cone split, column-sum
conservation, the disagreement identity, the cumulative constraint
identity, and the ergodic feasibility bound) are asserted as the
simulation advances, and so is the certificate of every local solve.

Single exchange (one broadcast of y per agent, W = H = P_H = P_Htilde)::

    ytilde_i = d'_i y_i - rho * sum_j W_ij y_j - v_i
    x_i+     = argmin_{X_i} f_i + (1/2d'_i)(||[mu~+g_i]_+||^2 + ||lam~+h_i||^2)
                              + (alpha/2)||x - x_i||^2
    y_i+     = (1/d'_i) * Pi_K(ytilde_i + [g_i; h_i](x_i+))
    v_i+     = v_i + rho * sum_j W_ij y_j+

The v-update applies P_Htilde, which a single-exchange setting has equal
to P_H by construction (:class:`~duca.graphs.ParamSetting` stores one H).
Its sum over the broadcast y+ is also the next round's sum in ytilde: the
same messages, so it is made once.

Double exchange (broadcasts y then u; P_H = L M, P_Htilde = L L)::

    ytilde_i = d'_i y_i - sum_j L_ij u_j
    ...same local solve and cone projection...
    z_i+     = z_i + rho * sum_j L_ij y_j+
    u_i+     = z_i+ + rho * sum_j M_ij y_j+

The disagreement variable v = L z is implicit there and never formed.
From v0 = 0 and z0 = 0 both modes keep v = rho P_Htilde sum_l y_l
(single) and z = rho L sum_l y_l (double); a checked round verifies that
identity with one more table sum of the running sum of y.  It is not a
message, so it adds nothing to ``comm_total``.

K is the cone R_+^m x R^p; the split of the pre-projection vector into its
K-part and polar-cone part is recomputed independently and checked to
reconstruct the input exactly (Moreau decomposition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimMismatchError,
    InsufficientDataError,
    InvalidInitError,
    InvariantBreachError,
)
# Mailbox is imported for readers of ``duca.engine.Mailbox`` (perfbench's tracer)
from .graphs import Mailbox, ParamSetting
from .localsolver import DEFAULT_TOL, solve_local_batch
from .problem import Problem, coupled_violation_norm, gtilde_rows, row_sum
from .textdoc import DocReader, DocWriter

#: exact-identity tolerance for the Moreau split and its complementarity
MOREAU_TOL = 1e-10
#: elementwise cone-sign tolerance for mu-blocks of y and sigma
CONE_TOL = 1e-14
#: column-sum conservation of v, per round
VSUM_TOL_PER_ROUND = 1e-9
#: disagreement identity v = rho P_Htilde sum_l y_l (z = rho L sum_l y_l), per round
#: and relative to the largest entry of its right-hand side (but at least 1)
IDENTITY_TOL_PER_ROUND = 1e-12
#: cumulative constraint identity budget at round 1000 (scales linearly after)
CUMULATIVE_TOL = 1e-8
#: inexact-inner-solve slack = EPS_INNER_FACTOR * inner tolerance
EPS_INNER_FACTOR = 100.0


def eps_inner(tol_inner: float) -> float:
    """Slack absorbed by bound checks for certified-inexact local solves."""
    return EPS_INNER_FACTOR * tol_inner


@dataclass
class NetworkState:
    """Complete state of the network after ``k`` rounds.

    Arrays are stored as agent rows: ``X`` is (N, dmax) zero-padded, the dual
    quantities ``Y``/``SIG`` and ``V`` (single mode) or ``Z``/``U`` (double
    mode) are (N, m+p).  ``V`` is None in double mode, where the
    disagreement variable L z is implicit.  ``WY`` holds the neighbor sums
    ``{name: W Y}`` of the exchange matrices that the last exchange of y
    made (at k=0, ``init`` makes them), and ``WY0`` the same sums of
    ``Y0``.  Running sums support O(1) ergodic averages; ``cum_gs``
    accumulates sum_l sum_i ([g_i; h_i](x_i^l) + sigma_i^l) for the
    cumulative identity, ``gt_sum`` is sum_i [g_i; h_i](x_i) at ``X`` and
    ``ergodic_feasibility`` the coupled violation of the ergodic average
    ``sum_X / k`` (NaN at k=0).
    """

    k: int
    X: np.ndarray
    Y: np.ndarray
    V: np.ndarray | None
    SIG: np.ndarray
    X0: np.ndarray
    Y0: np.ndarray
    sum_X: np.ndarray
    sum_Y: np.ndarray
    cum_gs: np.ndarray
    WY: dict
    WY0: dict
    gt_sum: np.ndarray
    ergodic_feasibility: float = math.nan
    Z: np.ndarray | None = None
    U: np.ndarray | None = None
    comm_total: int = 0
    inner_iters_total: int = 0
    solver_failures: int = 0
    moreau_residual: float = 0.0
    cumulative_residual: float = 0.0


def init(pb: Problem, s: ParamSetting, x0=None, y0=None) -> NetworkState:
    """Fresh state at k=0; double mode computes u0 = z0 + rho * (M y0)_i."""
    n, mp = pb.n_agents, pb.mp
    if s.n_nodes != n:
        raise DimMismatchError(f"setting is for {s.n_nodes} nodes, problem has {n}")
    X = np.zeros((n, pb.dmax)) if x0 is None else np.array(x0, dtype=float)
    Y = np.zeros((n, mp)) if y0 is None else np.array(y0, dtype=float)
    if X.shape != (n, pb.dmax):
        raise InvalidInitError(f"x0 must have shape {(n, pb.dmax)}, got {X.shape}")
    if Y.shape != (n, mp):
        raise InvalidInitError(f"y0 must have shape {(n, mp)}, got {Y.shape}")
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise InvalidInitError("x0 and y0 must be finite")
    padded = ((X != 0.0) & pb.padding).any(axis=1)
    if padded.any():
        raise InvalidInitError(f"x0 row {int(padded.argmax())} has nonzero padding beyond d_i")
    if pb.m and Y[:, : pb.m].min() < 0.0:
        raise InvalidInitError("y0 mu-blocks must be nonnegative")
    WY0 = s.mailbox.sums(Y)
    double = s.exchange_mode == "double"
    st = NetworkState(
        k=0,
        X=X,
        Y=Y,
        V=None if double else np.zeros((n, mp)),
        SIG=np.zeros((n, mp)),
        X0=X.copy(),
        Y0=Y.copy(),
        sum_X=np.zeros((n, pb.dmax)),
        sum_Y=np.zeros((n, mp)),
        cum_gs=np.zeros(mp),
        WY=WY0,
        WY0=WY0,
        gt_sum=gtilde_rows(pb, X).sum(axis=0),
    )
    if double:
        st.Z = np.zeros((n, mp))
        st.U = st.Z + s.rho * WY0["M"]
    return st


def cone_split(pre: np.ndarray, m: int):
    """Split rows into projections onto K = R_+^m x R^p and its polar cone.

    Returns (proj, sigma) with proj - sigma == pre and proj * sigma == 0
    per coordinate; the polar of K is R_-^m x {0}^p and sigma is the negated
    polar projection, hence nonnegative mu-blocks and exactly zero lambda-
    blocks.
    """
    proj = pre.copy()
    np.maximum(pre[:, :m], 0.0, out=proj[:, :m])
    sigma = np.zeros_like(pre)
    np.maximum(-pre[:, :m], 0.0, out=sigma[:, :m])
    return proj, sigma


def _dual_and_cone_update(pb, d, ytilde, X_new):
    """Shared y/sigma update + exact-identity residuals for both modes."""
    gt = gtilde_rows(pb, X_new)
    pre = ytilde + gt
    proj, sig = cone_split(pre, pb.m)
    Y_new = proj / d[:, None]
    recon = d[:, None] * Y_new - sig
    moreau = float(np.abs(recon - pre).max())
    compl = float(np.abs(row_sum((d[:, None] * Y_new) * sig)).max())
    return gt, Y_new, sig, moreau, compl


def _check_exact(st, pb, s, moreau, compl):
    k = st.k
    if moreau > MOREAU_TOL:
        raise InvariantBreachError(f"round {k}: Moreau split residual {moreau:.3e}")
    if compl > MOREAU_TOL:
        raise InvariantBreachError(f"round {k}: cone complementarity {compl:.3e}")
    if pb.m:
        if st.Y[:, : pb.m].min() < -CONE_TOL:
            raise InvariantBreachError(f"round {k}: negative mu-block in y")
        if st.SIG[:, : pb.m].min() < -CONE_TOL:
            raise InvariantBreachError(f"round {k}: negative mu-block in sigma")
    if pb.p and np.any(st.SIG[:, pb.m :] != 0.0):
        raise InvariantBreachError(f"round {k}: sigma lambda-block not exactly zero")
    if st.V is not None:
        vsum = float(np.abs(st.V.sum(axis=0)).max())
        if vsum > VSUM_TOL_PER_ROUND * max(k, 1):
            raise InvariantBreachError(
                f"round {k}: sum_i v_i = {vsum:.3e} exceeds {VSUM_TOL_PER_ROUND:g}*k"
            )
    label, held, name = ("v", st.V, "H") if st.V is not None else ("z", st.Z, "L")
    want = s.rho * s.mailbox.weighted_sum(name, st.sum_Y)
    err = float(np.abs(held - want).max())
    if err > IDENTITY_TOL_PER_ROUND * max(k, 1) * max(1.0, float(np.abs(want).max())):
        raise InvariantBreachError(
            f"round {k}: disagreement identity residual {err:.3e} "
            f"({label} against rho*{name}*sum_y)"
        )


def _cumulative_residual(st, s) -> float:
    """sum_l sum_i (gtilde_i + sigma_i) == column sums of P_A (Y - Y0)."""
    rhs = s.P_A_col_sums @ (st.Y - st.Y0)
    return float(np.abs(st.cum_gs - rhs).max())


def _check_ergodic_bound(st, s, tol_inner):
    """Per-round ergodic feasibility bound (norm-A form, certificate-free)."""
    dWY = {name: st.WY[name] - st.WY0[name] for name in st.WY}
    bound = (s.bound_scale / st.k) * s.a_norm(st.Y - st.Y0, dWY) + eps_inner(tol_inner)
    if st.ergodic_feasibility > bound:
        raise InvariantBreachError(
            f"round {st.k}: ergodic feasibility {st.ergodic_feasibility:.6e} "
            f"exceeds bound {bound:.6e}"
        )


def step(st, pb, s, tol_inner=DEFAULT_TOL, check=True):
    """One synchronous round of the setting's exchange scheme (in place).

    Neighbor sums go through the setting's table, ``s.mailbox``.  A state
    of the other exchange mode raises :class:`ConfigError`.  With
    ``check=True`` the round raises :class:`InvariantBreachError` on an
    uncertified local solve or a broken identity.
    """
    double = s.exchange_mode == "double"
    if (st.U is not None) != double:
        raise ConfigError(
            f"the setting is {s.exchange_mode}-exchange but the state "
            f"{'carries' if st.U is not None else 'lacks'} the double-exchange u and z"
        )
    mb = s.mailbox
    rho, d = s.rho, s.d_prime
    if double:
        ytilde = d[:, None] * st.Y - mb.weighted_sum("L", st.U)
    else:
        ytilde = d[:, None] * st.Y - rho * st.WY["H"] - st.V

    X_new, _res, iters, done, _vals = solve_local_batch(pb, ytilde, d, s.alpha, st.X,
                                                        tol=tol_inner)
    gt, Y_new, sig, moreau, compl = _dual_and_cone_update(pb, d, ytilde, X_new)

    st.WY = mb.sums(Y_new)
    if double:
        st.Z = st.Z + rho * st.WY["L"]
        # u must satisfy u+ = rho*(sum_j M_ij y_j+) + z+ so that the round's
        # pre-projection vector equals A y - Htilde^{1/2} z; building u from the
        # stale z would shift the effective coupling matrix to L(M - L), which
        # breaks the P_H >= P_Htilde requirement (it is 0 >= L^2 when M = L).
        st.U = st.Z + rho * st.WY["M"]
    else:
        st.V = st.V + rho * st.WY["H"]
    st.X, st.Y, st.SIG = X_new, Y_new, sig

    st.sum_X += st.X
    st.sum_Y += st.Y
    st.gt_sum = gt.sum(axis=0)
    st.cum_gs += st.gt_sum + st.SIG.sum(axis=0)
    st.k += 1
    st.ergodic_feasibility = coupled_violation_norm(pb, st.sum_X / st.k)
    st.comm_total += (2 if double else 1) * mb.links * pb.mp
    st.inner_iters_total += int(iters.sum())
    uncertified = int((~done).sum())
    st.solver_failures += uncertified
    st.moreau_residual = max(moreau, compl)
    st.cumulative_residual = _cumulative_residual(st, s)
    if check:
        if uncertified:
            raise InvariantBreachError(
                f"round {st.k}: {uncertified} of {pb.n_agents} local solves uncertified"
            )
        _check_exact(st, pb, s, moreau, compl)
        bar = CUMULATIVE_TOL * max(1.0, st.k / 1000.0)
        if st.cumulative_residual > bar:
            raise InvariantBreachError(
                f"round {st.k}: cumulative constraint identity residual "
                f"{st.cumulative_residual:.3e}"
            )
        _check_ergodic_bound(st, s, tol_inner)
    return st


def run(pb, s, rounds, x0=None, y0=None, hook=None, tol_inner=DEFAULT_TOL, check=True):
    """Run ``rounds`` synchronous rounds from a fresh state.

    ``hook(st)`` is invoked once on the initial state (k=0) and then after
    every round, in round order.  Returns the final state.
    """
    if rounds < 1:
        raise ConfigError(f"rounds must be >= 1, got {rounds}")
    st = init(pb, s, x0=x0, y0=y0)
    if hook is not None:
        hook(st)
    for _ in range(rounds):
        step(st, pb, s, tol_inner=tol_inner, check=check)
        if hook is not None:
            hook(st)
    return st


def ergodic_point(st: NetworkState, pb: Problem):
    """Running averages: (x-average as padded (N, dmax) rows, consensus y).

    The consensus estimate is the mean across agents of each agent's running
    y-average -- the projection of the stacked average onto the consensus
    subspace.
    """
    if st.k < 1:
        raise InsufficientDataError("ergodic averages need at least one round")
    return st.sum_X / st.k, (st.sum_Y / st.k).mean(axis=0)


# ---------------------------------------------------------------------------
# Checkpointing


#: checkpoint fields in document order; the mode's arrays and neighbor sums follow
_STATE_INTS = ("k", "comm_total", "inner_iters_total", "solver_failures")
_STATE_FLOATS = ("moreau_residual", "cumulative_residual", "ergodic_feasibility")
_STATE_ARRAYS = ("X", "Y", "SIG", "X0", "Y0", "sum_X", "sum_Y", "cum_gs", "gt_sum")
#: per exchange mode: its disagreement arrays and the names of its exchange matrices
_MODE_FIELDS = {False: (("V",), ("H",)), True: (("Z", "U"), ("L", "M"))}


def dump_state(st: NetworkState) -> str:
    """Serialize a state to structured text; bit-exact round trip."""
    w = DocWriter("netstate")
    for name in _STATE_INTS + _STATE_FLOATS:
        w.scalar(name, getattr(st, name))
    double_mode = st.Z is not None
    w.scalar("double_mode", double_mode)
    arrays, exchanged = _MODE_FIELDS[double_mode]
    for name in _STATE_ARRAYS + arrays:
        w.array(name, getattr(st, name))
    for name in exchanged:
        w.array("WY_" + name, st.WY[name])
        w.array("WY0_" + name, st.WY0[name])
    return w.text()


def load_state(text: str) -> NetworkState:
    r = DocReader(text, "netstate")
    fields = {name: r.scalar_int(name) for name in _STATE_INTS}
    fields.update((name, r.scalar_float(name)) for name in _STATE_FLOATS)
    double_mode = r.scalar_bool("double_mode")
    arrays, exchanged = _MODE_FIELDS[double_mode]
    for name in _STATE_ARRAYS + arrays:
        fields[name] = r.array(name)
    fields["WY"], fields["WY0"] = {}, {}
    for name in exchanged:
        fields["WY"][name] = r.array("WY_" + name)
        fields["WY0"][name] = r.array("WY0_" + name)
    r.done()
    return NetworkState(V=fields.pop("V", None), **fields)
