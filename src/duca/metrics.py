"""Per-round diagnostics: error curves, theorem-bound slacks, Lyapunov checks.

Everything here is a pure function of immutable state snapshots plus a
:class:`Certificate` built once from the reference solution and the run's
start.  The certificate owns x*, the bound constants and their evaluation,
``cert.bounds(k)``; spectral constants come from the setting's
``s.spectra``.  The bound formulas come in two families selected by the
proximal weight alpha:

alpha = 0 (plain):
    fe_bound(k)  = sqrt(N lam1(P_A))/k * (||y0-y*||_A + ||s0-s*||_G)
    -R1/k <= f(xbar_k) - f* <= R2/k
    R1 = ||y*|| sqrt(N lam1(P_A)) (||y0-y*||_A + ||s0-s*||_G)
    R2 = (1/2rho)||v0-v*||^2_Hdag + (1/2)||y0||^2_A

alpha > 0 (proximal):
    fe_bound(k)  = sqrt(N lam1(P_A))/k * (||y0||_A + C1 + C2)
    C1 = sqrt(N lam1(P_A)) ||y*||
    C2 = sqrt((||y0||_A + C1)^2 + alpha||x0-x*||^2 + (1/rho)||v0-v*||^2_Hdag)
    -R1'/k <= f(xbar_k) - f* <= R2'/k
    R1' = C1 (||y0||_A + C1 + C2),  R2' = R2 + (alpha/2)||x0-x*||^2

with ||s0-s*||_G = sqrt(||y0-y*||^2_A + ||z0-z*||^2/rho) and, for the
implicit-disagreement runs started at v0=0 (hence z0=0),
||z0-z*|| = ||v*||_Hdag.  The Lyapunov function is

    V_k = (1/2)||y_k||^2_A + (1/2rho)||v_k-v*||^2_Hdag + (alpha/2)||x_k-x*||^2

and one-round descent requires f(x_{k+1}) - f* <= V_k - V_{k+1} up to the
inexact-inner-solve slack.

No per-round form here touches an N x N matrix; only the certificate,
built once, does.  The forms read the neighbor sums the round already
made (``st.WY``, see :meth:`ParamSetting.a_norm`) and constants of the
certificate, and rest on the identity the engine checks every round,
v = rho P_Htilde S (single) and z = rho L S (double), with S = sum_l y_l
(``st.sum_Y``).  The certificate solves
(P_Htilde + 11^T/N) w* = v* once, so P_Htilde w* = v* and 1^T w* = 0, and
keeps z* = L w* in double mode.  Then

    ||v*||^2_Hdag        = <w*, v*>
    ||v - v*||^2_Hdag    = <rho S - w*, v - v*>        (single)
                         = ||z - z*||^2                (double)
    ||S/k||^2_P_Htilde   = <S, v> / (rho k^2)          (single)
                         = ||z||^2 / (rho k)^2         (double)

with rounding negatives clipped to 0.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields

import numpy as np

from .engine import NetworkState, eps_inner
from .errors import (
    CertificateMissingError,
    InsufficientDataError,
    InvalidInitError,
    InvariantBreachError,
)
from .graphs import ParamSetting, Variant
from .localsolver import DEFAULT_TOL
from .oracle import CertificateCore
from .problem import Problem, eval_objective, gtilde_rows, row_sum


@dataclass
class MetricsRow:
    k: int
    objective_error: float
    ergodic_objective_error: float
    constraint_violation: float
    ergodic_feasibility: float
    consensus_error: float
    bound_fe_slack: float
    bound_oe_lower_slack: float
    bound_oe_upper_slack: float
    moreau_residual: float
    cumulative_residual: float
    lyapunov_residual: float
    comm_total: int
    inner_iters_total: int
    lyapunov_value: float = math.nan  # carried for checks; not a CSV column


#: CSV column order (the MetricsRow fields but ``lyapunov_value``); floats
#: are printed with 17 significant digits.
CSV_COLUMNS = tuple(f.name for f in fields(MetricsRow))[:-1]


@dataclass
class Certificate:
    """Reference solution plus every constant the bounds need.

    The constants C1/C2/R1/R2/R1_prime/R2_prime and ``bound_coefs`` are
    evaluated once for the run context (setting, x0, y0, v0=0) the
    certificate was built for; ``bound_coefs`` holds k times the three
    bound values, which :meth:`bounds` divides by k.  A run from another
    start needs its own certificate.  Spectral constants live on the
    setting (``s.spectra``).
    """

    x_star_rows: np.ndarray  # (N, dmax) agent rows of x*
    f_star: float
    y_star: np.ndarray  # (m+p,)
    v_star: np.ndarray  # (N, m+p) agent rows
    w_star: np.ndarray  # (N, m+p): P_Htilde w* = v*, 1^T w* = 0
    z_star: "np.ndarray | None"  # (N, m+p) L w* in double mode, else None
    C1: float
    C2: float
    R1: float
    R2: float
    R1_prime: float
    R2_prime: float
    x0: np.ndarray  # (N, dmax) agent rows of the run's start
    y0: np.ndarray  # (N, m+p)
    bound_coefs: dict  # {fe_bound, oe_lower, oe_upper} at k = 1

    def bounds(self, k: int) -> dict:
        """The three bound values at round k >= 1 for the certificate's start.

        Returns {fe_bound, oe_lower, oe_upper} with the objective sandwich
        -oe_lower <= f(xbar_k) - f* <= oe_upper.
        """
        if k < 1:
            raise InsufficientDataError(f"bounds need k >= 1, got {k}")
        return {key: c / k for key, c in self.bound_coefs.items()}


def _bound_constants(n, s, x_star_rows, y_star, v_term, x0_rows, y0_rows):
    """The certificate's bound fields for one run context; see module docstring.

    The disagreement variable starts at v0 = 0, so ||v0 - v*||_Hdag = ||v*||_Hdag,
    which is ``v_term``.
    """
    def a_norm(rows):  # set-up: the products need not go through the table
        return s.a_norm(rows, {name: W @ rows for name, W in s.exchange.items()})

    sq_nl = s.bound_scale
    dy_A = a_norm(y0_rows - np.tile(y_star, (n, 1)))
    y0_A = a_norm(y0_rows)
    s_G = math.sqrt(dy_A**2 + v_term**2 / s.rho)
    dx = float(np.linalg.norm(x0_rows - x_star_rows))
    C1 = sq_nl * float(np.linalg.norm(y_star))
    C2 = math.sqrt((y0_A + C1) ** 2 + s.alpha * dx**2 + v_term**2 / s.rho)
    R2 = v_term**2 / (2.0 * s.rho) + 0.5 * y0_A**2
    cons = {
        "C1": C1,
        "C2": C2,
        "R1": float(np.linalg.norm(y_star)) * sq_nl * (dy_A + s_G),
        "R1_prime": C1 * (y0_A + C1 + C2),
        "R2": R2,
        "R2_prime": R2 + 0.5 * s.alpha * dx**2,
    }
    if s.alpha > 0.0:
        cons["bound_coefs"] = {"fe_bound": sq_nl * (y0_A + C1 + C2),
                               "oe_lower": cons["R1_prime"],
                               "oe_upper": cons["R2_prime"]}
    else:
        cons["bound_coefs"] = {"fe_bound": sq_nl * (dy_A + s_G),
                               "oe_lower": cons["R1"], "oe_upper": cons["R2"]}
    return cons


def make_certificate(core: CertificateCore, pb: Problem, s: ParamSetting,
                     x0=None, y0=None) -> Certificate:
    """Assemble the bound certificate from a reference solution.

    ``x0``/``y0`` are the run's initial agent rows (default all-zero); the
    disagreement variable always starts at zero.  The closed form
    v* = gtilde(x*) - (1/N) sum_i gtilde_i(x*_i) per agent row avoids any
    matrix square root; its block sum vanishes, so the solve
    (P_Htilde + 11^T/N) w* = v* gives P_Htilde w* = v*: v* lies in the range
    of the consensus quadratic form, which the solve's residual verifies.
    A reference whose y* is not an (m+p,) vector, whose f*, x* or y* is not
    finite, or whose mu* has a negative entry is refused: every bound would
    be off or NaN, and a NaN slack fails no check.
    """
    n, mp = pb.n_agents, pb.mp
    x_star_rows = core.x_star.rows(pb.dmax)
    if np.shape(core.y_star) != (mp,):
        raise InvariantBreachError(
            f"reference y* has shape {np.shape(core.y_star)}, expected ({mp},)")
    if not (math.isfinite(core.f_star) and np.isfinite(x_star_rows).all()
            and np.isfinite(core.y_star).all()):
        raise InvariantBreachError("reference f*, x* and y* must be finite")
    if pb.m and core.y_star[: pb.m].min() < 0.0:
        raise InvariantBreachError(
            f"reference mu* has a negative entry {core.y_star[: pb.m].min():.3e}")
    gt = gtilde_rows(pb, x_star_rows)
    v_star = gt - gt.mean(axis=0)[None, :]

    block_sum = float(np.abs(v_star.sum(axis=0)).max()) if mp else 0.0
    if block_sum > 1e-8:
        raise InvariantBreachError(f"v* block sum {block_sum:.3e} is not zero")
    try:
        w_star = np.linalg.solve(s.P_Htilde + 1.0 / n, v_star)
    except np.linalg.LinAlgError:
        raise InvariantBreachError(
            f"{Variant(s.variant).value} setting (rho={s.rho}, alpha={s.alpha}): "
            "P_Htilde + 11^T/N is singular, so its consensus form has a null space "
            "larger than span(1)"
        ) from None
    if mp:
        rng_err = float(np.abs(s.P_Htilde @ w_star - v_star).max())
        if rng_err > 1e-8:
            raise InvariantBreachError(
                f"v* is not in the range of the consensus form (err {rng_err:.3e})"
            )
    if pb.m:
        compl = float(np.dot(core.y_star[: pb.m], gt[:, : pb.m].sum(axis=0)))
        if abs(compl) > 1e-6:
            raise InvariantBreachError(f"certificate complementarity {compl:.3e}")

    x0_rows = np.zeros((n, pb.dmax)) if x0 is None else np.asarray(x0, dtype=float)
    y0_rows = np.zeros((n, mp)) if y0 is None else np.asarray(y0, dtype=float)
    v_term = math.sqrt(max(float(np.sum(w_star * v_star)), 0.0))
    return Certificate(
        x_star_rows=x_star_rows,
        f_star=core.f_star,
        y_star=core.y_star.copy(),
        v_star=v_star,
        w_star=w_star,
        z_star=s.exchange["L"] @ w_star if s.exchange_mode == "double" else None,
        x0=x0_rows.copy(),
        y0=y0_rows.copy(),
        **_bound_constants(n, s, x_star_rows, core.y_star, v_term, x0_rows, y0_rows),
    )


def _disagreement_sq(st: NetworkState, cert: Certificate, s: ParamSetting) -> float:
    """||v - v*||^2_Hdag from the running sum of y (see module docstring)."""
    if st.V is not None:
        val = np.sum((s.rho * st.sum_Y - cert.w_star) * (st.V - cert.v_star))
    else:
        val = np.sum((st.Z - cert.z_star) ** 2)
    return max(float(val), 0.0)


def lyapunov_value(st: NetworkState, cert: Certificate, s: ParamSetting) -> float:
    """V_k for one state snapshot (see module docstring)."""
    val = 0.5 * s.a_norm(st.Y, st.WY) ** 2
    val += _disagreement_sq(st, cert, s) / (2.0 * s.rho)
    if s.alpha > 0.0:
        val += 0.5 * s.alpha * float(np.sum((st.X - cert.x_star_rows) ** 2))
    return val


def _consensus_error(st: NetworkState, s: ParamSetting) -> float:
    """||sum_Y / k||_P_Htilde for a state after k >= 1 rounds (see module docstring)."""
    if st.V is not None:
        val = float(np.sum(st.sum_Y * st.V)) / s.rho
    else:
        val = float(np.sum(st.Z**2)) / s.rho**2
    return math.sqrt(max(val, 0.0)) / st.k


def constraint_violation_composite(pb: Problem, st: NetworkState) -> float:
    """Local ball excess + positive coupled-inequality excess + equality norm at ``st.X``.

    The ball excess is sum_i max(||x_i - a_i||^2 - c_i, 0) over agent rows;
    the coupled totals are the round's ``st.gt_sum``.
    """
    d2 = row_sum((st.X - pb.a) ** 2)
    tot = st.gt_sum
    return (
        float(np.maximum(d2 - pb.c, 0.0).sum())
        + float(np.maximum(tot[: pb.m], 0.0).sum())
        + float(np.linalg.norm(tot[pb.m :]))
    )


def compute_row(st: NetworkState, pb: Problem, s: ParamSetting,
                cert: Certificate, lyapunov_prev: float = math.nan) -> MetricsRow:
    """All diagnostics for one post-round state (st.k >= 1).

    The bounds come from the certificate's precomputed coefficients, so the
    state must have started from the certificate's (x0, y0).  The ergodic
    point is read as rows, ``sum_X / k``, whose padding stays exactly zero;
    its coupled violation is the round's ``st.ergodic_feasibility``.
    """
    _check_start(st, cert)
    return _metrics_row(st, pb, s, cert, lyapunov_prev)


def _check_start(st: NetworkState, cert: Certificate) -> None:
    """Refuse a state that did not start from the certificate's (x0, y0)."""
    if cert is None:
        raise CertificateMissingError("compute_row needs a certificate")
    if not (np.array_equal(st.X0, cert.x0) and np.array_equal(st.Y0, cert.y0)):
        raise InvalidInitError(
            "state started from another (x0, y0) than its certificate; "
            "build a certificate for that start with make_certificate(..., x0=, y0=)"
        )


def _metrics_row(st, pb, s, cert, lyapunov_prev) -> MetricsRow:
    """:func:`compute_row` for a state whose start has been checked."""
    k = st.k
    xbar_rows = st.sum_X / k

    f_now = eval_objective(pb, st.X)
    f_bar = eval_objective(pb, xbar_rows)
    ergodic_oe = f_bar - cert.f_star
    fe = st.ergodic_feasibility
    bounds = cert.bounds(k)

    V_now = lyapunov_value(st, cert, s)
    lyap_resid = math.nan
    if not math.isnan(lyapunov_prev):
        lyap_resid = (f_now - cert.f_star) - (lyapunov_prev - V_now)

    return MetricsRow(
        k=k,
        objective_error=abs(cert.f_star - f_now),
        ergodic_objective_error=ergodic_oe,
        constraint_violation=constraint_violation_composite(pb, st),
        ergodic_feasibility=fe,
        consensus_error=_consensus_error(st, s),
        bound_fe_slack=bounds["fe_bound"] - fe,
        bound_oe_lower_slack=ergodic_oe + bounds["oe_lower"],
        bound_oe_upper_slack=bounds["oe_upper"] - ergodic_oe,
        moreau_residual=st.moreau_residual,
        cumulative_residual=st.cumulative_residual,
        lyapunov_residual=lyap_resid,
        comm_total=st.comm_total,
        inner_iters_total=st.inner_iters_total,
        lyapunov_value=V_now,
    )


class MetricsCollector:
    """Engine hook accumulating one MetricsRow per round.

    Call it on the k=0 state first (the engine's ``run`` does this): that
    call checks that the run starts from the certificate's (x0, y0), which
    every later round of the run shares, and keeps V_0 for the Lyapunov
    residual of round 1.  A collector first called after k=0 checks the
    start then.  With ``check=True`` the bound
    invariants are enforced as the run progresses: slack fields must stay
    above -eps_inner, the Lyapunov descent residual below +eps_inner, and for
    proximal runs the dual trajectory must respect the C1 + C2 radius.
    """

    def __init__(self, pb, s, cert, tol_inner: float = DEFAULT_TOL,
                 check: bool = False):
        self.pb = pb
        self.s = s
        self.cert = cert
        self.tol_inner = tol_inner
        self.check = check
        self.rows: list[MetricsRow] = []
        self._prev_V = math.nan
        self._checked = False

    def __call__(self, st: NetworkState):
        if st.k == 0 or not self._checked:
            _check_start(st, self.cert)
            self._checked = True
        if st.k == 0:
            self._prev_V = lyapunov_value(st, self.cert, self.s)
            return
        row = _metrics_row(st, self.pb, self.s, self.cert, self._prev_V)
        self._prev_V = row.lyapunov_value
        self.rows.append(row)
        if self.check:
            self._enforce(st, row)

    def _enforce(self, st: NetworkState, row: MetricsRow):
        eps = eps_inner(self.tol_inner)
        for name in ("bound_fe_slack", "bound_oe_lower_slack", "bound_oe_upper_slack"):
            val = getattr(row, name)
            if val < -eps:
                raise InvariantBreachError(f"round {row.k}: {name} = {val:.6e}")
        if row.lyapunov_residual > eps:
            raise InvariantBreachError(
                f"round {row.k}: lyapunov descent residual {row.lyapunov_residual:.6e}"
            )
        if self.s.alpha > 0.0:
            radius = self.cert.C1 + self.cert.C2 + eps
            y_A = self.s.a_norm(st.Y, st.WY)
            if y_A > radius:
                raise InvariantBreachError(
                    f"round {row.k}: ||y||_A = {y_A:.6e} exceeds C1+C2 = {radius:.6e}"
                )


def loglog_slope(series, k_lo: int, k_hi: int) -> float:
    """Least-squares slope of log(value) vs log(k) on k in [k_lo, k_hi].

    ``series`` holds the value at round k at position k-1.  Nonpositive
    values cannot enter the log-log fit and are skipped; fewer than two
    usable points raise InsufficientData.
    """
    vals = np.asarray(list(series), dtype=float)
    if k_lo < 1 or k_hi <= k_lo:
        raise InsufficientDataError(f"bad window [{k_lo}, {k_hi}]")
    ks = np.arange(1, len(vals) + 1)
    inside = (ks >= k_lo) & (ks <= k_hi) & (vals > 0.0) & np.isfinite(vals)
    if inside.sum() < 2:
        raise InsufficientDataError("need at least two positive points in window")
    coeffs = np.polyfit(np.log(ks[inside]), np.log(vals[inside]), 1)
    return float(coeffs[0])


# ---------------------------------------------------------------------------
# CSV serialization


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def rows_to_csv(rows) -> str:
    """Render MetricsRows to CSV text with a fixed schema and float format."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_fmt(getattr(row, col)) for col in CSV_COLUMNS])
    return buf.getvalue()


def csv_to_rows(text: str) -> list[MetricsRow]:
    """Parse CSV text produced by rows_to_csv back into MetricsRows.

    Raises InsufficientDataError for a wrong header, or naming the line of a
    row with the wrong number of cells or a cell that is not a number.
    """
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    if tuple(header) != CSV_COLUMNS:
        raise InsufficientDataError(f"unexpected CSV header: {header}")
    int_cols = {"k", "comm_total", "inner_iters_total"}
    out = []
    for cells in reader:
        if len(cells) != len(CSV_COLUMNS):
            raise InsufficientDataError(
                f"CSV line {reader.line_num}: {len(cells)} cells, expected {len(CSV_COLUMNS)}"
            )
        try:
            out.append(MetricsRow(**{
                col: (int(cell) if col in int_cols else float(cell))
                for col, cell in zip(CSV_COLUMNS, cells)
            }))
        except ValueError as exc:
            raise InsufficientDataError(f"CSV line {reader.line_num}: {exc}") from None
    return out
