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
    "project_ball",
    "subgradient_f",
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
        for i, d in enumerate(self.dims):
            if not (1 <= d <= dmax):
                raise DimMismatchError(f"agent {i} has invalid dimension {d}")
            for name in ("P", "Q", "a", "a_prime", "B"):
                arr = shapes[name][0][i]
                tail = arr[..., d:]
                if name == "P":
                    tail = np.concatenate([arr[d:, :].ravel(), arr[:, d:].ravel()])
                if tail.size and float(np.abs(tail).max()) != 0.0:
                    raise DimMismatchError(
                        f"{name}[{i}] has nonzero entries beyond dimension {d}"
                    )
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

    @property
    def dmax(self) -> int:
        return max(self.dims)

    @property
    def total_dim(self) -> int:
        return int(sum(self.dims))

    @property
    def mp(self) -> int:
        """Width of one agent's coupled block [g_i; h_i]."""
        return self.m + self.p

    # Per-agent curvature bounds of the local solvers, built on first use.

    @cached_property
    def curv_P(self) -> np.ndarray:
        """(N,) 2*lambda_max(P_i), the Hessian norm of each quadratic cost."""
        return 2.0 * np.linalg.eigvalsh(self.P)[:, -1]

    @cached_property
    def curv_B(self) -> np.ndarray:
        """(N,) lambda_max(B_i^T B_i), the curvature of ||lam + h_i(x)||^2 / 2."""
        return np.linalg.eigvalsh(np.einsum("rpd,rpe->rde", self.B, self.B))[:, -1]

    @cached_property
    def reach_sq(self) -> np.ndarray:
        """(N, m) bound (sqrt(c_i) + ||a_i - a'_ij||)^2 on ||x - a'_ij||^2 over X_i."""
        R = np.sqrt(self.c)[:, None] + np.linalg.norm(self.a[:, None] - self.a_prime, axis=2)
        return R**2

    def agent_data(self, i: int) -> dict:
        """Trimmed (unpadded) data arrays for agent i."""
        d = self.dims[i]
        return {
            "P": self.P[i, :d, :d],
            "Q": self.Q[i, :d],
            "a": self.a[i, :d],
            "c": float(self.c[i]),
            "a_prime": self.a_prime[i, :, :d],
            "c_prime": self.c_prime[i],
            "B": self.B[i, :, :d],
            "c_eq": self.c_eq[i],
        }

    @classmethod
    def from_agent_data(cls, P, Q, a, c, a_prime, c_prime, B, c_eq, l1_weight=1.0):
        """Build a Problem from per-agent (possibly unequal-dimension) arrays.

        ``a_prime[i]`` must have shape (m, d_i) and ``B[i]`` shape (p, d_i);
        pass m = 0 or p = 0 blocks as empty arrays of those shapes.
        """
        n = len(P)
        dims = tuple(int(np.atleast_2d(Pi).shape[0]) for Pi in P)
        dmax = max(dims)
        m = int(np.asarray(a_prime[0], dtype=float).reshape(-1, dims[0]).shape[0]) if n else 0
        p = int(np.asarray(B[0], dtype=float).reshape(-1, dims[0]).shape[0]) if n else 0

        def pad(chunks, shape):
            out = np.zeros((n,) + shape)
            for i, ch in enumerate(chunks):
                ch = np.asarray(ch, dtype=float)
                out[i][tuple(slice(0, s) for s in ch.shape)] = ch
            return out

        return cls(
            n_agents=n,
            dims=dims,
            m=m,
            p=p,
            P=pad([np.atleast_2d(v) for v in P], (dmax, dmax)),
            Q=pad([np.atleast_1d(v) for v in Q], (dmax,)),
            a=pad([np.atleast_1d(v) for v in a], (dmax,)),
            c=np.asarray(c, dtype=float).reshape(n),
            a_prime=pad(
                [np.asarray(v, dtype=float).reshape(m, dims[i]) for i, v in enumerate(a_prime)],
                (m, dmax),
            ),
            c_prime=pad([np.asarray(v, dtype=float).reshape(m) for v in c_prime], (m,)),
            B=pad(
                [np.asarray(v, dtype=float).reshape(p, dims[i]) for i, v in enumerate(B)],
                (p, dmax),
            ),
            c_eq=pad([np.asarray(v, dtype=float).reshape(p) for v in c_eq], (p,)),
            l1_weight=float(l1_weight),
        )


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
    lin = np.sum(pb.Q * X, axis=1)
    l1 = pb.l1_weight * np.abs(X).sum(axis=1)
    return quad + lin + l1


def gtilde_rows(pb: Problem, X: np.ndarray) -> np.ndarray:
    """Per-agent coupled blocks [g_i(x_i); h_i(x_i)] as an (N, m+p) array."""
    diff = X[:, None, :] - pb.a_prime  # (N, m, dmax)
    g = np.sum(diff**2, axis=2) - pb.c_prime
    h = np.einsum("npd,nd->np", pb.B, X) + pb.c_eq
    return np.concatenate([g, h], axis=1)


def coupled_violation_norm(pb: Problem, X) -> float:
    """Norm of [max(sum_i g_i, 0); sum_i h_i] at padded (N, dmax) rows X."""
    tot = gtilde_rows(pb, _check_rows(pb, X)).sum(axis=0)
    viol = np.concatenate([np.maximum(tot[: pb.m], 0.0), tot[pb.m :]])
    return float(np.linalg.norm(viol))


def project_ball(a: np.ndarray, c: float, x: np.ndarray) -> np.ndarray:
    """Euclidean projection of x onto {z : ||z - a||^2 <= c}."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    diff = x - a
    n2 = float(diff @ diff)
    if n2 <= c:
        return x.copy()
    return a + diff * (np.sqrt(c) / np.sqrt(n2))


def subgradient_f(pb: Problem, i: int, x_i: np.ndarray) -> np.ndarray:
    """2 P_i x_i + Q_i + w * sign(x_i), with sign(0) taken as 0."""
    d = pb.dims[i]
    x_i = np.asarray(x_i, dtype=float)
    if x_i.shape != (d,):
        raise DimMismatchError(f"agent {i} expects dimension {d}, got {x_i.shape}")
    data = pb.agent_data(i)
    return 2.0 * data["P"] @ x_i + data["Q"] + pb.l1_weight * np.sign(x_i)


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
