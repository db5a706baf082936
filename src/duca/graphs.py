"""Graph topologies, Laplacian-type matrices, and algorithm parameter settings.

Builds the undirected communication graph, the Metropolis and related
graph-Laplacian-type weight matrices, and the six named parameter settings
(``P_H``, ``P_Htilde``, ``P_D = diag(d')``, ``rho``) consumed by the round
engine.  A setting stores the matrices its agents exchange and the diagonal
of P_D as the vector ``d_prime``; P_H and P_Htilde are derived from them.
Every setting checks the standing positive-semidefiniteness / nullspace
conditions when it is built, and computes the spectral quantities that
enter the convergence bounds.  Each setting owns its neighbor table,
:class:`Mailbox`, through which the round engine reads every cross-agent
sum.
"""

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import (
    AssumptionViolatedError,
    DisconnectedError,
    InvalidEdgeError,
    MailboxError,
    MissingTuningError,
    PatternMismatchError,
)

__all__ = [
    "Graph",
    "Variant",
    "ParamSetting",
    "Mailbox",
    "SpectralQuantities",
    "build_graph",
    "random_connected_graph",
    "laplacian_from_weights",
    "make_setting",
    "spectral_quantities",
]

# Eigenvalue tolerances: symmetric eigensolvers are accurate to ~1e-12 * ||A||
# at the sizes used here, so -1e-9 is a safe PSD cut and 1e-9 a safe zero cut.
PSD_TOL = -1e-9
NULL_TOL = 1e-9
PINV_CUT = 1e-10


# ---------------------------------------------------------------------------
# Graph container and constructors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph with sorted neighbor lists.

    Attributes
    ----------
    n_nodes : int
        Number of agents N.
    edges : tuple of (i, j) pairs with i < j
        The undirected link set.
    neighbor_lists : tuple of tuples
        ``neighbor_lists[i]`` is the sorted tuple of neighbors of node i.
    """

    n_nodes: int
    edges: tuple
    neighbor_lists: tuple

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def degree(self, i: int) -> int:
        return len(self.neighbor_lists[i])

    @cached_property
    def metropolis(self) -> np.ndarray:
        """Metropolis Laplacian-type matrix M, built once and read-only.

        Off-diagonals are -1/(max{deg_i, deg_j}+1) on edges and 0 otherwise;
        each diagonal entry is the negated off-diagonal row sum, so M @ 1 = 0
        and M is positive semidefinite with nullspace span(1) on a connected
        graph.
        """
        M = laplacian_from_weights(
            _edge_weights(self, lambda i, j: 1.0 / (max(self.degree(i), self.degree(j)) + 1)),
            self,
        )
        M.flags.writeable = False
        return M

    @cached_property
    def unlinked(self) -> np.ndarray:
        """(N, N) boolean mask, True for two distinct agents with no edge; read-only.

        No weight matrix on the graph may be nonzero where it is True.
        """
        U = ~np.eye(self.n_nodes, dtype=bool)
        if self.edges:
            rows, cols = np.array(self.edges).T
            U[rows, cols] = U[cols, rows] = False
        U.flags.writeable = False
        return U


def build_graph(n: int, edges) -> Graph:
    """Validate an edge list and return a connected Graph.

    Raises InvalidEdgeError for out-of-range/self-loop/duplicate edges and
    DisconnectedError if some node is unreachable from node 0.
    """
    if n < 1:
        raise InvalidEdgeError(f"need at least one node, got n={n}")
    seen = set()
    canon = []
    for e in edges:
        i, j = int(e[0]), int(e[1])
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidEdgeError(f"edge ({i},{j}) out of range for n={n}")
        if i == j:
            raise InvalidEdgeError(f"self-loop at node {i}")
        key = (min(i, j), max(i, j))
        if key in seen:
            raise InvalidEdgeError(f"duplicate edge {key}")
        seen.add(key)
        canon.append(key)
    canon.sort()
    nbrs = [[] for _ in range(n)]
    for i, j in canon:
        nbrs[i].append(j)
        nbrs[j].append(i)
    # connectivity: BFS from node 0
    reach = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in nbrs[u]:
                if v not in reach:
                    reach.add(v)
                    nxt.append(v)
        frontier = nxt
    if len(reach) != n:
        missing = sorted(set(range(n)) - reach)
        raise DisconnectedError(f"nodes unreachable from 0: {missing}")
    return Graph(
        n_nodes=n,
        edges=tuple(canon),
        neighbor_lists=tuple(tuple(sorted(a)) for a in nbrs),
    )


def random_connected_graph(n: int, n_edges: int, seed: int) -> Graph:
    """Random connected graph: Pruefer-sequence spanning tree + uniform extra edges.

    Deterministic for a fixed seed.  Requires n-1 <= n_edges <= n(n-1)/2.
    """
    if n < 1:
        raise InvalidEdgeError(f"need at least one node, got n={n}")
    if n == 1:
        if n_edges != 0:
            raise InvalidEdgeError("a single node admits no edges")
        return build_graph(1, [])
    max_edges = n * (n - 1) // 2
    if not (n - 1 <= n_edges <= max_edges):
        raise InvalidEdgeError(
            f"n_edges={n_edges} out of [{n - 1}, {max_edges}] for n={n}"
        )
    rng = np.random.default_rng(seed)
    if n == 2:
        tree = [(0, 1)]
    else:
        # Pruefer decode: every sequence over {0..n-1}^(n-2) maps to a tree.
        # The heap holds the current leaves; each step joins the smallest.
        seq = [int(v) for v in rng.integers(0, n, size=n - 2)]
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        leaves = [i for i in range(n) if degree[i] == 1]
        tree = []
        for v in seq:
            leaf = heapq.heappop(leaves)
            tree.append((min(leaf, v), max(leaf, v)))
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(leaves, v)
        tree.append((min(leaves), max(leaves)))
    edges = set(tree)
    # uniform extra edges among the absent pairs, indexed in (i, j) order
    in_tree = np.zeros((n, n), dtype=bool)
    in_tree[tuple(np.array(tree).T)] = True
    iu, ju = np.triu_indices(n, 1)
    absent = ~in_tree[iu, ju]
    iu, ju = iu[absent], ju[absent]
    extra = n_edges - len(tree)
    if extra > 0:
        pick = rng.choice(len(iu), size=extra, replace=False)
        edges.update(zip(iu[pick].tolist(), ju[pick].tolist()))
    return build_graph(n, sorted(edges))


# ---------------------------------------------------------------------------
# Weight matrices
# ---------------------------------------------------------------------------


def _edge_weights(g: Graph, weight) -> np.ndarray:
    """Symmetric weight matrix with ``weight(i, j)`` on each edge, 0 elsewhere."""
    W = np.zeros((g.n_nodes, g.n_nodes))
    for i, j in g.edges:
        W[i, j] = W[j, i] = weight(i, j)
    return W


def laplacian_from_weights(W: np.ndarray, g: Graph) -> np.ndarray:
    """Graph Laplacian diag(row sums) - W for an admissible weight matrix W.

    W must be symmetric, strictly positive on edges, zero on non-edges, and
    nonnegative on the diagonal; self-weights cancel out of the Laplacian.
    """
    W = np.asarray(W, dtype=float)
    n = g.n_nodes
    if W.shape != (n, n):
        raise PatternMismatchError(f"weight matrix shape {W.shape} != ({n},{n})")
    if not np.abs(W - W.T).max() <= 1e-12:
        raise PatternMismatchError("weight matrix is not symmetric")
    on_edge = ~g.unlinked
    np.fill_diagonal(on_edge, False)
    for bad, what in ((np.diag(W) < 0, "negative self-weight at node"),
                      (on_edge & (W <= 0), "non-positive weight on edge"),
                      ((W != 0) & g.unlinked, "nonzero weight off the graph at")):
        if bad.any():
            raise PatternMismatchError(f"{what} {np.argwhere(bad)[0].tolist()}")
    return np.diag(W.sum(axis=1)) - W


# ---------------------------------------------------------------------------
# Parameter settings
# ---------------------------------------------------------------------------


class Variant(str, Enum):
    DUCA_I = "DUCA_I"
    PEXTRA = "PEXTRA"
    PGC = "PGC"
    DPGA = "DPGA"
    DIST_ADMM = "DIST_ADMM"
    ALT = "ALT"


SINGLE_EXCHANGE = (Variant.DUCA_I, Variant.PEXTRA, Variant.PGC, Variant.DPGA)
DOUBLE_EXCHANGE = (Variant.DIST_ADMM, Variant.ALT)


@dataclass(frozen=True, eq=False)
class ParamSetting:
    """One algorithm parameterization: the exchanged matrices and scalars.

    ``graph`` is the communication graph and ``exchange`` holds the
    matrices whose weights agents exchange over it, keyed as the setting's
    :attr:`mailbox` reads them: ``{"H": H}`` for a single-exchange family,
    ``{"L": L, "M": M}`` for a double-exchange one.
    P_H and P_Htilde are derived: a single-exchange family has
    ``P_H = P_Htilde = H`` (the same object) by construction, which is why
    its disagreement update applies H; a double-exchange family has
    ``P_H = L @ M`` and ``P_Htilde = L @ L``.  The step matrix P_D is
    diagonal and is stored as its diagonal, the (N,) vector ``d_prime``.

    Every setting checks the standing assumptions of the convergence
    theorems when it is built, however it is built (directly,
    :func:`make_setting` or ``dataclasses.replace``): the shapes agree with
    the graph's N, every entry is finite, rho > 0, alpha >= 0, d' > 0, no
    exchange matrix weighs two unlinked agents, P_H and P_Htilde are
    symmetric PSD with nullspace exactly span(1), ``P_H >= P_Htilde`` in the
    PSD order and ``P_A = diag(d') - rho * P_H`` is PSD.  A setting that
    fails raises one :class:`AssumptionViolatedError` naming every failed
    condition with its value.  The eigenvalue checks read :attr:`spectra`,
    so checking a setting and later evaluating its bounds decompose each
    matrix once.

    Settings are frozen because P_H, P_Htilde, :attr:`P_A`, its column sums,
    :attr:`spectra` and :attr:`mailbox` are computed once per setting, on
    first use; derive a changed setting with ``dataclasses.replace``.
    Settings compare and hash by identity.
    """

    variant: Variant
    graph: Graph
    exchange: dict
    d_prime: np.ndarray  # (N,) diagonal of P_D
    rho: float
    alpha: float = 0.0

    def __post_init__(self):
        if set(self.exchange) not in ({"H"}, {"L", "M"}):
            raise AssumptionViolatedError(
                f"exchange keys {sorted(self.exchange)} are neither ['H'] nor ['L', 'M']"
            )
        n = self.graph.n_nodes
        arrays = [("d_prime", self.d_prime, (n,)),
                  *((name, W, (n, n)) for name, W in self.exchange.items())]
        misshapen = [f"{name} {np.shape(v)}" for name, v, want in arrays if np.shape(v) != want]
        nonfinite = [name for name, v, _ in arrays if not np.isfinite(v).all()]
        nonfinite += [name for name in ("rho", "alpha") if not math.isfinite(getattr(self, name))]
        # the remaining checks decompose the matrices, which needs both
        self._refuse([
            ("graph, exchange and d_prime shapes agree", not misshapen, "N={}: {}",
             (n, ", ".join(misshapen))),
            ("entries finite", not nonfinite, "not finite: {}", (", ".join(nonfinite),)),
        ])
        self._refuse(_standing_checks(self))

    def _refuse(self, checks):
        """Raise naming each failed ``(name, passed, detail format, its args)``."""
        failed = [name + (f" ({fmt.format(*args)})" if fmt else "")
                  for name, passed, fmt, args in checks if not passed]
        if failed:
            raise AssumptionViolatedError(
                f"{Variant(self.variant).value} setting violates its standing "
                "assumptions:\n  " + "\n  ".join(failed)
            )

    @property
    def exchange_mode(self) -> str:
        """``"single"`` (exchanges H) or ``"double"`` (exchanges L and M)."""
        return "single" if "H" in self.exchange else "double"

    @property
    def n_nodes(self) -> int:
        return self.d_prime.shape[0]

    @cached_property
    def P_H(self) -> np.ndarray:
        """H in single mode, L @ M in double mode."""
        e = self.exchange
        return e["H"] if "H" in e else e["L"] @ e["M"]

    @cached_property
    def P_Htilde(self) -> np.ndarray:
        """H (the same object as :attr:`P_H`) in single mode, L @ L in double mode."""
        e = self.exchange
        return e["H"] if "H" in e else e["L"] @ e["L"]

    @cached_property
    def P_A(self) -> np.ndarray:
        """diag(d') - rho * P_H, built on first use."""
        return np.diag(self.d_prime) - self.rho * self.P_H

    @cached_property
    def P_A_col_sums(self) -> np.ndarray:
        """Column sums of :attr:`P_A`, built on first use."""
        return self.P_A.sum(axis=0)

    @cached_property
    def spectra(self) -> "SpectralQuantities":
        """The setting's :func:`spectral_quantities`, computed on first use."""
        return spectral_quantities(self)

    @cached_property
    def mailbox(self) -> "Mailbox":
        """The setting's neighbor table, built on first use."""
        return Mailbox(self)


class Mailbox:
    """Neighbor table for a setting's weighted neighbor sums.

    Built from ``s.graph``, it keeps each agent's sorted neighbor indices
    and the weights of the setting's exchange matrices, ``s.exchange``:
    ``"H"`` in single mode, ``"L"`` and ``"M"`` in double mode.  Agent i's
    sum

        W_ii * own_i + sum_j W_ij * x_j    (j over i's neighbors, ascending)

    reads only rows that i's neighbors sent.  It is evaluated over degree
    slots: the own term first, then slot k adds each agent's k-th neighbor
    for the agents that have one.  Every agent thus adds its terms in the
    order of a per-agent loop and gets the same bits; a dense ``W @ x``
    would sum in another order.  The setting has refused any weight between
    agents that are not neighbors, so the table carries every weight.  A
    read of a matrix the table does not carry raises :class:`MailboxError`.
    Use ``s.mailbox``, the table cached on the setting.
    """

    def __init__(self, s: ParamSetting):
        n = s.n_nodes
        nbrs = s.graph.neighbor_lists
        if len(nbrs) != n:
            raise MailboxError(f"neighbor table has {len(nbrs)} agents, setting has {n}")
        for i, ns in enumerate(nbrs):
            if any(j == i or not 0 <= j < n for j in ns):
                raise MailboxError(f"invalid neighbor list for agent {i}: {ns}")
        deg = np.array([len(ns) for ns in nbrs])
        #: directed links; every exchange sends m+p reals over each
        self.links = int(deg.sum())
        self._slots = []
        for k in range(int(deg.max(initial=0))):
            rows = np.flatnonzero(deg > k)
            self._slots.append((rows, np.array([nbrs[i][k] for i in rows])))
        self._weights = {
            name: (np.diag(W).copy(), [W[rows, cols] for rows, cols in self._slots])
            for name, W in s.exchange.items()
        }

    def weighted_sum(self, name: str, x: np.ndarray) -> np.ndarray:
        """Rows ``W_ii x_i + sum_j W_ij x_j`` for exchange matrix ``name``."""
        try:
            diag, slot_w = self._weights[name]
        except KeyError:
            raise MailboxError(
                f"no exchange matrix {name!r} in this table (has {sorted(self._weights)})"
            ) from None
        acc = diag[:, None] * x
        for (rows, cols), w in zip(self._slots, slot_w):
            acc[rows] += w[:, None] * x[cols]
        return acc


def _dpga_scale(g: Graph, c: float) -> float:
    min_deg = min(g.degree(i) for i in range(g.n_nodes))
    return float(np.sqrt(c * g.n_nodes / (g.n_edges * min_deg)))


def make_setting(variant, g: Graph, rho: float, alpha: float = 0.0, tuning=None) -> ParamSetting:
    """Construct one named parameter setting on graph g (checked as it is built).

    Parameters
    ----------
    variant : Variant or str
        One of DUCA_I, PEXTRA, PGC, DPGA (single exchange), DIST_ADMM, ALT
        (double exchange).
    rho : float
        Penalty scalar.  PGC and DPGA fix rho = 1 (their knobs are the tuning
        constants below).
    alpha : float
        Proximal weight; 0 gives the plain method, > 0 the proximal variant.
    tuning : dict, optional
        Variant-specific constants: ``c`` (DUCA_I, >= 2, default 2.0),
        ``rho_prime`` (PGC, required), ``c`` (DPGA, required).

    Raises
    ------
    MissingTuningError, AssumptionViolatedError
    """
    variant = Variant(variant)
    tuning = dict(tuning or {})
    n = g.n_nodes
    MG = g.metropolis
    used_keys = set()

    if variant == Variant.DUCA_I:
        c = float(tuning.get("c", 2.0))
        used_keys.add("c")
        if c < 2.0:
            raise AssumptionViolatedError(f"DUCA_I needs c >= 2, got {c}")
        exchange = {"H": MG}
        d_prime = c * rho * np.diag(MG)
    elif variant == Variant.PEXTRA:
        exchange = {"H": MG / 2.0}
        d_prime = np.full(n, float(rho))
    elif variant == Variant.PGC:
        if "rho_prime" not in tuning:
            raise MissingTuningError("PGC needs tuning['rho_prime'] > 0")
        rho_prime = float(tuning["rho_prime"])
        used_keys.add("rho_prime")
        if rho_prime <= 0:
            raise MissingTuningError(f"rho_prime must be positive, got {rho_prime}")
        if rho != 1.0:
            raise AssumptionViolatedError("PGC fixes rho = 1; tune rho_prime instead")
        L1 = laplacian_from_weights(_edge_weights(g, lambda i, j: 2.0 * rho_prime), g)
        exchange = {"H": L1 / 2.0}
        d_prime = np.diag(L1).copy()
    elif variant == Variant.DPGA:
        if "c" not in tuning:
            raise MissingTuningError("DPGA needs tuning['c'] > 0")
        c = float(tuning["c"])
        used_keys.add("c")
        if c <= 0:
            raise MissingTuningError(f"c must be positive, got {c}")
        if rho != 1.0:
            raise AssumptionViolatedError("DPGA fixes rho = 1; tune c instead")
        s = _dpga_scale(g, c)
        L2 = laplacian_from_weights(_edge_weights(g, lambda i, j: s / 2.0), g)
        exchange = {"H": L2}
        d_prime = s * np.array([float(g.degree(i)) for i in range(n)])
    elif variant == Variant.DIST_ADMM:
        exchange = {"L": MG, "M": MG}  # P_H = P_Htilde = MG @ MG
        deg1 = np.array([g.degree(j) + 1.0 for j in range(n)])
        d_prime = (MG**2) @ deg1
    elif variant == Variant.ALT:
        W4 = np.eye(n) - MG / 2.0
        # L = MG / 2 and M = 2I - L: P_H = I - W4 @ W4, P_Htilde = (I - W4)^2
        exchange = {"L": np.eye(n) - W4, "M": np.eye(n) + W4}
        d_prime = np.full(n, float(rho))
    else:  # pragma: no cover
        raise AssumptionViolatedError(f"unknown variant {variant}")

    unknown = set(tuning) - used_keys
    if unknown:
        raise MissingTuningError(f"unknown tuning keys for {variant.value}: {sorted(unknown)}")

    return ParamSetting(variant=variant, graph=g, exchange=exchange, d_prime=d_prime,
                        rho=float(rho), alpha=float(alpha))


# ---------------------------------------------------------------------------
# Standing assumptions and spectral quantities
# ---------------------------------------------------------------------------


def _sym_eigs(M):
    """Eigenvalues (ascending) and vectors of the symmetrized matrix."""
    S = 0.5 * (M + M.T)
    return np.linalg.eigh(S)


def _standing_checks(s: ParamSetting) -> list:
    """``(name, passed, detail format, its args)`` for each standing
    assumption of a setting whose shapes agree and whose entries are finite.

    A single-exchange setting's H is both P_H and P_Htilde, so it is checked
    once and the order P_H >= P_Htilde holds trivially.  A nullspace of
    exactly span(1) means the smallest eigenvalue is ~0 with the ones
    direction as its eigenvector, and (for N > 1) the second is > 0.  A
    detail is formatted only for a failed check.
    """
    sp = s.spectra
    checks = []
    forms = [("P_H", s.P_H, sp.eig_PH, sp.ones_align_PH)]
    if s.exchange_mode == "double":
        forms.append(("P_Htilde", s.P_Htilde, sp.eig_PHtilde, sp.ones_align_PHtilde))
        checks.append(("P_H >= P_Htilde (PSD order)", sp.eig_order[0] >= PSD_TOL,
                       "lam_min={:.3e}", (sp.eig_order[0],)))
    for label, M, vals, align in forms:
        zero = NULL_TOL * max(abs(vals[-1]), 1.0)
        checks += [
            (label + " symmetric", np.abs(M - M.T).max() <= 1e-12, "", ()),
            (label + " PSD", vals[0] >= PSD_TOL, "lam_min={:.3e}", (vals[0],)),
            (label + " smallest eigenvalue ~ 0", abs(vals[0]) < zero,
             "lam_min={:.3e}", (vals[0],)),
            (label + " null eigenvector is the ones direction", align > 1.0 - 1e-8,
             "|<v0, 1/sqrt(N)>|={:.12f}", (align,)),
        ]
        if s.n_nodes > 1:
            checks.append((label + " second-smallest eigenvalue > 0", vals[1] > zero,
                           "lam_2={:.3e}", (vals[1],)))
    dmin = s.d_prime.min()
    checks += [
        ("P_D positive", dmin > 0.0, "min diag={:.3e}", (dmin,)),
        ("P_A = P_D - rho*P_H PSD", sp.eig_PA[0] >= PSD_TOL, "lam_min={:.3e}", (sp.eig_PA[0],)),
        ("rho positive", s.rho > 0, "rho={}", (s.rho,)),
        ("alpha nonnegative", s.alpha >= 0, "alpha={}", (s.alpha,)),
    ]
    for name, W in s.exchange.items():
        off = (W != 0) & s.graph.unlinked
        passed = not off.any()
        checks.append((name + " weighs no unlinked agents", passed, "weight at {}",
                       () if passed else (np.argwhere(off)[0].tolist(),)))
    return checks


def block_quadratic_norm(M: np.ndarray, rows: np.ndarray) -> float:
    """sqrt(y^T (M kron I) y) for y stored as (N, b) agent rows.

    The Kronecker-lifted quadratic form reduces to sum(rows * (M @ rows));
    tiny negative values from roundoff on PSD M are clipped to zero.
    """
    val = float(np.sum(rows * (M @ rows)))
    return float(np.sqrt(max(val, 0.0)))


@dataclass(frozen=True)
class SpectralQuantities:
    """One setting's eigen-data, from one decomposition per matrix.

    The bounds use ``lam1_PA`` and ``pinv_PHtilde``.  A setting's checks
    read the ascending eigenvalues of the symmetrized P_H, P_Htilde, P_A
    and P_H - P_Htilde (``eig_order``), and ``ones_align_*`` =
    |<v_0, 1/sqrt(N)>| for the bottom eigenvector of P_H and of P_Htilde.
    In single-exchange mode P_H and P_Htilde are one matrix, so their
    entries come from one decomposition and ``eig_order`` is None.
    """

    lam1_PA: float
    pinv_PHtilde: np.ndarray
    eig_PH: np.ndarray
    eig_PHtilde: np.ndarray
    eig_PA: np.ndarray
    eig_order: "np.ndarray | None"
    ones_align_PH: float
    ones_align_PHtilde: float


def spectral_quantities(s: ParamSetting) -> SpectralQuantities:
    """Decompose P_A and P_Htilde once each, and in double-exchange mode also
    P_H and P_H - P_Htilde: two N x N eigensolves in single mode, four in
    double mode.

    Eigenvalues below ``PINV_CUT`` times the largest magnitude are treated as
    zero when inverting P_Htilde (the only intended null direction is the
    ones vector).  Use ``s.spectra`` for the value cached on the setting.
    """
    n = s.n_nodes
    ones = np.ones(n) / np.sqrt(n)
    double = s.exchange_mode == "double"
    vals_A = _sym_eigs(s.P_A)[0]
    # at most one N x N eigenvector matrix alive at a time keeps peak memory low
    if double:
        vals_H, vecs = _sym_eigs(s.P_H)
        align_H = abs(float(vecs[:, 0] @ ones))
        del vecs
        diff = s.P_H - s.P_Htilde
        vals_order = np.linalg.eigvalsh(0.5 * (diff + diff.T))
        del diff
    vals, vecs = _sym_eigs(s.P_Htilde)
    align = abs(float(vecs[:, 0] @ ones))
    if not double:  # H is both P_H and P_Htilde: one decomposition serves both
        vals_H, align_H, vals_order = vals, align, None
    scale = max(float(np.abs(vals).max()), 1.0)
    keep = np.abs(vals) > PINV_CUT * scale
    inv = np.where(keep, 1.0 / np.where(keep, vals, 1.0), 0.0)
    return SpectralQuantities(
        lam1_PA=max(float(vals_A[-1]), 0.0),
        pinv_PHtilde=(vecs * inv) @ vecs.T,
        eig_PH=vals_H,
        eig_PHtilde=vals,
        eig_PA=vals_A,
        eig_order=vals_order,
        ones_align_PH=align_H,
        ones_align_PHtilde=align,
    )
