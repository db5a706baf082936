"""Coupled-constraint problem instances.

A problem couples N agents through shared inequality and equality
constraints: each agent i holds a private convex cost
``f_i(x) = x^T P_i x + Q_i^T x + w * ||x||_1``, an inequality block
``g_i(x) = ||x - a'_ij||^2 - c'_ij`` (one ball-gap per coupled row j), an
affine equality block ``h_i(x) = B_i x + c_i_eq``, and a private ball set
``X_i = {x : ||x - a_i||^2 <= c_i}``.  The network-wide constraints are
``sum_i g_i(x_i) <= 0`` and ``sum_i h_i(x_i) = 0``.

Per-agent data is stored zero-padded to the largest block size so that
evaluation and the inner solver can run batched over agents; padded
coordinates carry zero data and stay exactly zero under every update.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AssumptionViolatedError, DimMismatchError, InfeasibleProblemError

__all__ = [
    "Problem",
    "StackedPoint",
    "generate_example",
    "eval_objective",
    "gtilde_rows",
    "row_sum",
    "slater_check",
]


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Problem:
    """One coupled-constraint instance over N agents.

    Arrays are padded to ``dmax = max(dims)`` along coordinate axes; entries
    beyond an agent's own dimension must be zero.

    Attributes
    ----------
    n_agents, dims, m, p
        Agent count, per-agent dimensions, coupled inequality rows, coupled
        equality rows.
    P : (N, dmax, dmax); Q, a : (N, dmax); c : (N,)
        Quadratic cost matrices (symmetric PSD), linear costs, ball centers
        and squared radii (``c_i > ||a_i||^2`` so 0 is interior).
    a_prime : (N, m, dmax); c_prime : (N, m)
        Inequality centers/offsets with ``sum c' > sum ||a'||^2``.
    B : (N, p, dmax); c_eq : (N, p)
        Equality maps ``h_i(x) = B_i x + c_i_eq``.
    l1_weight : float
        Weight of the l1 cost term (1 for the generated family).
    """

    n_agents: int
    dims: tuple
    m: int
    p: int
    P: np.ndarray
    Q: np.ndarray
    a: np.ndarray
    c: np.ndarray
    a_prime: np.ndarray
    c_prime: np.ndarray
    B: np.ndarray
    c_eq: np.ndarray
    l1_weight: float = 1.0

    def __post_init__(self):
        n, m, p = self.n_agents, self.m, self.p
        if len(self.dims) != n or n < 1:
            raise DimMismatchError(f"dims has {len(self.dims)} entries for {n} agents")
        if m < 0 or p < 0:
            raise DimMismatchError(f"m={m}, p={p} must be nonnegative")
        dmax = self.dmax
        shapes = {
            "P": (self.P, (n, dmax, dmax)),
            "Q": (self.Q, (n, dmax)),
            "a": (self.a, (n, dmax)),
            "c": (self.c, (n,)),
            "a_prime": (self.a_prime, (n, m, dmax)),
            "c_prime": (self.c_prime, (n, m)),
            "B": (self.B, (n, p, dmax)),
            "c_eq": (self.c_eq, (n, p)),
        }
        for name, (arr, want) in shapes.items():
            if arr.shape != want:
                raise DimMismatchError(f"{name} has shape {arr.shape}, expected {want}")
            if not np.isfinite(arr).all():
                raise AssumptionViolatedError(f"{name} has non-finite entries")
        if not 0.0 <= self.l1_weight < np.inf:
            raise AssumptionViolatedError("l1_weight must be finite and nonnegative")
        # per agent (column): an invalid dimension, then nonzero padding in P,
        # Q, a, a_prime and B; the first agent at fault is named, with its
        # first fault in that order
        pad = self.padding
        faults = np.array([
            np.array(self.dims) < 1,  # no d exceeds dmax = max(dims)
            ((self.P != 0) & (pad[:, :, None] | pad[:, None, :])).any(axis=(1, 2)),
            ((self.Q != 0) & pad).any(axis=1),
            ((self.a != 0) & pad).any(axis=1),
            ((self.a_prime != 0) & pad[:, None, :]).any(axis=(1, 2)),
            ((self.B != 0) & pad[:, None, :]).any(axis=(1, 2)),
        ])
        if faults.any():
            i = int(faults.any(axis=0).argmax())
            fault, d = int(faults[:, i].argmax()), self.dims[i]
            if fault == 0:
                raise DimMismatchError(f"agent {i} has invalid dimension {d}")
            name = ("P", "Q", "a", "a_prime", "B")[fault - 1]
            raise DimMismatchError(f"{name}[{i}] has nonzero entries beyond dimension {d}")
        sym_err = float(np.abs(self.P - np.transpose(self.P, (0, 2, 1))).max())
        if sym_err > 1e-12:
            raise AssumptionViolatedError(f"P not symmetric (max err {sym_err:.3e})")
        if dmax and n:
            lam_min = float(np.linalg.eigvalsh(self.P).min())
            if lam_min < -1e-9:
                raise AssumptionViolatedError(f"P not PSD (min eig {lam_min:.3e})")
        gap = self.c - np.sum(self.a**2, axis=1)
        if float(gap.min()) <= 0.0:
            raise AssumptionViolatedError(
                "need c_i > ||a_i||^2 so that 0 is interior to every ball"
            )
        if m:
            slack = float(np.sum(self.c_prime) - np.sum(self.a_prime**2))
            if slack <= 0.0:
                raise AssumptionViolatedError(
                    f"need sum c' > sum ||a'||^2, got slack {slack:.3e}"
                )

    @cached_property
    def dmax(self) -> int:
        return max(self.dims)

    @property
    def total_dim(self) -> int:
        return int(sum(self.dims))

    @property
    def mp(self) -> int:
        """Width of one agent's coupled block [g_i; h_i]."""
        return self.m + self.p

    # Curvature bounds of the local solvers and the oracle, built on first use.

    @cached_property
    def curv_P(self) -> np.ndarray:
        """(N,) 2*lambda_max(P_i), the Hessian norm of each quadratic cost."""
        return 2.0 * np.linalg.eigvalsh(self.P)[:, -1]

    @cached_property
    def BtB(self) -> np.ndarray:
        """(N, dmax, dmax) B_i^T B_i, the Hessian of ||lam + h_i(x)||^2 / 2."""
        return np.einsum("rpd,rpe->rde", self.B, self.B)

    @cached_property
    def curv_B(self) -> np.ndarray:
        """(N,) lambda_max(B_i^T B_i), the curvature of ||lam + h_i(x)||^2 / 2."""
        return np.linalg.eigvalsh(self.BtB)[:, -1]

    @cached_property
    def curv_H(self) -> float:
        """lambda_max(B B^T) over the stacked B, the curvature of ||H(x)||^2 / 2."""
        if not self.p:
            return 0.0
        B_flat = self.B.transpose(1, 0, 2).reshape(self.p, self.n_agents * self.dmax)
        return float(np.linalg.eigvalsh(B_flat @ B_flat.T).max())

    @cached_property
    def padding(self) -> np.ndarray:
        """(N, dmax) read-only mask, True on the coordinates beyond each agent's dimension."""
        mask = np.arange(self.dmax) >= np.array(self.dims)[:, None]
        mask.flags.writeable = False
        return mask

    @cached_property
    def round_arrays(self) -> dict:
        """The local solver's per-run round arrays, ``{"last": arrays}`` for the
        last setting's d' it solved with (it fills them)."""
        return {}

    @cached_property
    def reach_sq(self) -> np.ndarray:
        """(N, m) bound (sqrt(c_i) + ||a_i - a'_ij||)^2 on ||x - a'_ij||^2 over X_i."""
        R = np.sqrt(self.c)[:, None] + np.linalg.norm(self.a[:, None] - self.a_prime, axis=2)
        return R**2


@dataclass(frozen=True, eq=False)
class StackedPoint:
    """Network decision variable: concatenation of all agents' vectors."""

    x: np.ndarray
    dims: tuple

    def __post_init__(self):
        if self.x.shape != (int(sum(self.dims)),):
            raise DimMismatchError(
                f"stacked vector has shape {self.x.shape}, dims sum to {sum(self.dims)}"
            )

    def rows(self, dmax=None) -> np.ndarray:
        """Zero-padded (N, dmax) view of the per-agent blocks."""
        dmax = dmax or max(self.dims)
        out = np.zeros((len(self.dims), dmax))
        off = 0
        for i, d in enumerate(self.dims):
            out[i, :d] = self.x[off : off + d]
            off += d
        return out

    @classmethod
    def from_rows(cls, rows: np.ndarray, dims) -> "StackedPoint":
        parts = [rows[i, :d] for i, d in enumerate(dims)]
        return cls(x=np.concatenate(parts), dims=tuple(dims))


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------


def generate_example(n: int, d: int, m: int, p: int, seed: int) -> Problem:
    """Random instance of the quadratic + l1 family; deterministic per seed.

    Costs are ``x^T P x + Q^T x + ||x||_1`` with ``P = R^T R`` and R uniform;
    every standing assumption holds by construction and ``x_i = 0`` is a
    strictly feasible network point (the equality offsets are zero).
    """
    rng = np.random.default_rng(seed)
    R = rng.uniform(-1.0, 1.0, size=(n, d, d)) / np.sqrt(d)
    P = np.einsum("nkd,nke->nde", R, R)
    Q = rng.uniform(-1.0, 1.0, size=(n, d))
    a = rng.uniform(-1.0, 1.0, size=(n, d))
    c = np.sum(a**2, axis=1) + rng.uniform(0.5, 1.5, size=n)
    a_prime = rng.uniform(-1.0, 1.0, size=(n, m, d))
    c_prime = np.sum(a_prime**2, axis=2) + rng.uniform(0.5, 1.5, size=(n, m))
    B = rng.uniform(-1.0, 1.0, size=(n, p, d))
    return Problem(
        n_agents=n,
        dims=(d,) * n,
        m=m,
        p=p,
        P=0.5 * (P + np.transpose(P, (0, 2, 1))),
        Q=Q,
        a=a,
        c=c,
        a_prime=a_prime,
        c_prime=c_prime,
        B=B,
        c_eq=np.zeros((n, p)),
        l1_weight=1.0,
    )


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def row_sum(A: np.ndarray) -> np.ndarray:
    """``A.sum(axis=-1)`` of a float array, bit for bit, made as column adds.

    Below 8 terms numpy adds a last axis left to right, from 0, but it runs
    that reduction's inner loop once per row, which costs more than the adds
    on a narrow axis.  Here the axis is moved first (one copy) and reduced
    there, so each add runs over every row at once: the same adds in the same
    order, hence the same bits.  From 8 terms on numpy adds pairwise, and
    ``A.sum(axis=-1)`` itself is returned.
    """
    k = A.shape[-1]
    if not 1 < k < 8:
        return A.sum(axis=-1)
    if A.ndim == 2:
        return np.add.reduce(A.T.copy())
    return np.add.reduce(A.reshape(-1, k).T.copy()).reshape(A.shape[:-1])


def _check_rows(pb: Problem, X) -> np.ndarray:
    """A network point as padded (N, dmax) agent rows; other shapes raise."""
    if np.shape(X) != (pb.n_agents, pb.dmax):
        raise DimMismatchError(f"network point has shape {np.shape(X)}, not (N, dmax) rows")
    return np.asarray(X, dtype=float)


def eval_objective(pb: Problem, X) -> float:
    """Total cost sum_i f_i(x_i) at padded (N, dmax) rows X."""
    X = _check_rows(pb, X)
    quad = np.einsum("nd,nde,ne->", X, pb.P, X)
    lin = float(np.sum(pb.Q * X))
    l1 = pb.l1_weight * float(np.abs(X).sum())
    return float(quad) + lin + l1


def objective_rows(pb: Problem, X: np.ndarray) -> np.ndarray:
    """Per-agent costs f_i(x_i) for padded rows X of shape (N, dmax)."""
    quad = np.einsum("nd,nde,ne->n", X, pb.P, X)
    lin = row_sum(pb.Q * X)
    l1 = pb.l1_weight * row_sum(np.abs(X))
    return quad + lin + l1


def gtilde_rows(pb: Problem, X: np.ndarray) -> np.ndarray:
    """Per-agent coupled blocks [g_i(x_i); h_i(x_i)] as an (N, m+p) array."""
    diff = X[:, None, :] - pb.a_prime  # (N, m, dmax)
    g = row_sum(diff**2) - pb.c_prime
    h = np.einsum("npd,nd->np", pb.B, X) + pb.c_eq
    return np.concatenate([g, h], axis=1)


def coupled_violation_norm(pb: Problem, X) -> float:
    """Norm of [max(sum_i g_i, 0); sum_i h_i] at padded (N, dmax) rows X."""
    tot = gtilde_rows(pb, _check_rows(pb, X)).sum(axis=0)
    viol = np.concatenate([np.maximum(tot[: pb.m], 0.0), tot[pb.m :]])
    return float(np.linalg.norm(viol))


def slater_check(pb: Problem) -> None:
    """Refuse a problem that is not strictly feasible at x_i = 0.

    Every coupled inequality sum must be strictly negative and the equality
    sums must vanish there; otherwise raises :class:`InfeasibleProblemError`
    naming each failed condition with its value.  That 0 is interior to
    every agent's ball is checked by :class:`Problem` itself.
    """
    gt = gtilde_rows(pb, np.zeros((pb.n_agents, pb.dmax)))
    failed = []
    if pb.m and not (worst := float(gt[:, : pb.m].sum(axis=0).max())) < 0.0:
        failed.append(f"coupled inequality sums strictly negative at 0 "
                      f"(max sum g_j = {worst:.6g})")
    if pb.p and not (hnorm := float(np.linalg.norm(gt[:, pb.m :].sum(axis=0)))) <= 1e-10:
        failed.append(f"coupled equality sums vanish at 0 (||sum h|| = {hnorm:.3e})")
    if failed:
        raise InfeasibleProblemError("standing assumptions fail: " + "; ".join(failed))
