"""Graph topologies, Laplacian-type matrices, and algorithm parameter settings.

Builds the undirected communication graph, checked once when built, the
Metropolis and related graph-Laplacian-type weight matrices, and the six
named parameter settings (``P_H``, ``P_Htilde``, ``P_D = diag(d')``,
``rho``) consumed by the round engine.  A setting stores the matrices its agents exchange and the diagonal
of P_D as the vector ``d_prime``; P_H and P_Htilde are derived from them.
Every setting checks the standing positive-semidefiniteness / nullspace
conditions when it is built, from eigenvalues alone, and computes the
spectral quantities that enter the convergence bounds.  Each setting owns
its neighbor table, :class:`Mailbox`, through which the round engine reads
every cross-agent sum and the diagnostics read every network form.
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


# ---------------------------------------------------------------------------
# Graph container and constructors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph: N >= 1 agents and their links.

    ``edges`` holds each link as an int pair (i, j) with i < j, in strictly
    increasing (i, j) order, so no link is a self-loop or repeated;
    :func:`build_graph` puts any edge list in this form.  A graph is checked
    once, however it is built: a link that breaks this form raises
    :class:`InvalidEdgeError`, a node unreachable from node 0
    :class:`DisconnectedError`.  Nothing downstream checks the links again.

    Derived once, on first use, and read-only: the links as index arrays
    (:attr:`edge_index`), from which the weight matrices are filled and
    checked without a loop over links; each node's sorted neighbors
    (:attr:`neighbor_lists`) and the degrees (:attr:`degrees`); the
    Metropolis matrix (:attr:`metropolis`) and its eigenvalues
    (:attr:`metropolis_eigvals`), which every setting exchanging that matrix
    shares; and the dense mask of unlinked pairs (:attr:`unlinked`), read
    only to name a refused weight.
    """

    n_nodes: int
    edges: tuple

    def __post_init__(self):
        n = self.n_nodes
        if n < 1:
            raise InvalidEdgeError(f"need at least one node, got n={n}")
        rows, cols = self.edge_index
        # in range with i < j, keys i*N + j increase iff links are ordered and distinct
        step = np.append(np.diff(rows * n + cols), 1)
        for bad, what in ((~((rows >= 0) & (cols >= 0) & (rows < n) & (cols < n)),
                           "edge ({},{}) out of range for n=" + str(n)),
                          (rows == cols, "self-loop at node {}"),
                          (rows > cols, "edge ({},{}) has i > j"),
                          (step == 0, "duplicate edge ({}, {})"),
                          (step < 0, "edge ({},{}) comes before a smaller one")):
            if bad.any():
                k = int(np.argmax(bad))
                raise InvalidEdgeError(what.format(rows[k], cols[k]))
        reached, queue = [False] * n, [0]
        reached[0] = True
        for u in queue:  # breadth first: the queue grows as it is read
            for v in self.neighbor_lists[u]:
                if not reached[v]:
                    reached[v] = True
                    queue.append(v)
        if len(queue) != n:
            missing = [i for i in range(n) if not reached[i]]
            raise DisconnectedError(f"nodes unreachable from 0: {missing}")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_index(self) -> tuple:
        """(rows, cols), read-only index arrays of the links (i, j) in ``edges`` order."""
        try:
            idx = np.array(self.edges or np.empty((0, 2), dtype=np.intp))
        except ValueError:  # pairs of unequal lengths
            idx = np.empty(0)
        if idx.shape[1:] != (2,) or idx.dtype.kind not in "iu":
            raise InvalidEdgeError("edges must be (i, j) pairs of integers")
        idx = idx.astype(np.intp, copy=False)
        idx.flags.writeable = False
        return idx[:, 0], idx[:, 1]

    @cached_property
    def neighbor_lists(self) -> tuple:
        """``neighbor_lists[i]``: node i's neighbors in increasing order, as
        the ordered links give them: h of each (h, i), then j of each (i, j)."""
        lower = [[] for _ in range(self.n_nodes)]
        higher = [[] for _ in range(self.n_nodes)]
        for i, j in self.edges:
            higher[i].append(j)
            lower[j].append(i)
        return tuple(tuple(lo + hi) for lo, hi in zip(lower, higher))

    @cached_property
    def degrees(self) -> np.ndarray:
        """(N,) integer degrees, one ``bincount`` over the link ends; read-only."""
        deg = np.bincount(np.concatenate(self.edge_index), minlength=self.n_nodes)
        deg.flags.writeable = False
        return deg

    @cached_property
    def metropolis(self) -> np.ndarray:
        """Metropolis Laplacian-type matrix M, built once and read-only.

        Off-diagonals are -1/(max{deg_i, deg_j}+1) on edges and 0 otherwise;
        each diagonal entry is the negated off-diagonal row sum, so M @ 1 = 0
        and M is positive semidefinite with nullspace span(1) on a connected
        graph.
        """
        rows, cols = self.edge_index
        deg = self.degrees
        M = laplacian_from_weights(
            _edge_weights(self, 1.0 / (np.maximum(deg[rows], deg[cols]) + 1)), self
        )
        M.flags.writeable = False
        return M

    @cached_property
    def metropolis_eigvals(self) -> np.ndarray:
        """Ascending eigenvalues of :attr:`metropolis`, one ``eigvalsh``; read-only.

        Every setting that exchanges M itself reads its spectrum here, so the
        settings on one graph decompose M once (see :func:`spectral_quantities`).
        """
        vals = np.linalg.eigvalsh(_sym(self.metropolis))
        vals.flags.writeable = False
        return vals

    @cached_property
    def unlinked(self) -> np.ndarray:
        """(N, N) boolean mask, True for two distinct agents with no edge; read-only.

        No weight matrix on the graph may be nonzero where it is True.  The
        checks decide from the edge list and build this mask only to name
        the first such entry.
        """
        U = ~np.eye(self.n_nodes, dtype=bool)
        rows, cols = self.edge_index
        U[rows, cols] = U[cols, rows] = False
        U.flags.writeable = False
        return U


def build_graph(n: int, edges) -> Graph:
    """The :class:`Graph` on n nodes with the links of an edge list in any order.

    Each link (i, j) or (j, i) is written (min, max), the list is sorted, and
    :class:`Graph` checks the result: it raises InvalidEdgeError for an
    out-of-range, self-loop or repeated link and DisconnectedError if some
    node is unreachable from node 0.  A node label that is not a Python or
    numpy integer raises InvalidEdgeError here, before any rounding.
    """
    links = [(_node_label(e[0]), _node_label(e[1])) for e in edges]
    return Graph(n, tuple(sorted((min(i, j), max(i, j)) for i, j in links)))


def _node_label(v) -> int:
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
        raise InvalidEdgeError(f"node label {v!r} is not an integer")
    return int(v)


def random_connected_graph(n: int, n_edges: int, seed: int) -> Graph:
    """Random connected graph: Pruefer-sequence spanning tree + uniform extra edges.

    Deterministic for a fixed seed.  Requires n-1 <= n_edges <= n(n-1)/2.
    """
    if n < 1:
        raise InvalidEdgeError(f"need at least one node, got n={n}")
    if n == 1:
        if n_edges != 0:
            raise InvalidEdgeError("a single node admits no edges")
        return Graph(1, ())
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
    # uniform extra edges among the absent pairs, ranked in (i, j) order: the
    # pair at rank r is the pair at position r + #{tree pairs before it} in
    # the row-major upper triangle, where tree pair k (sorted by position t_k)
    # comes before it exactly when t_k - k <= r
    extra = n_edges - len(tree)
    if extra > 0:
        pick = rng.choice(max_edges - len(tree), size=extra, replace=False)
        row_start = np.arange(n) * (2 * n - 1 - np.arange(n)) // 2
        ti, tj = np.array(tree).T
        t = np.sort(row_start[ti] + tj - ti - 1)
        q = pick + np.searchsorted(t - np.arange(len(t)), pick, side="right")
        i = np.searchsorted(row_start, q, side="right") - 1
        edges.update(zip(i.tolist(), (q - row_start[i] + i + 1).tolist()))
    return Graph(n, tuple(sorted(edges)))


# ---------------------------------------------------------------------------
# Weight matrices
# ---------------------------------------------------------------------------


def _edge_weights(g: Graph, weights) -> np.ndarray:
    """Symmetric weight matrix with ``weights`` on the links (a scalar, or
    one value per link in ``g.edges`` order), 0 elsewhere."""
    W = np.zeros((g.n_nodes, g.n_nodes))
    rows, cols = g.edge_index
    W[rows, cols] = W[cols, rows] = weights
    return W


def _zero_off_graph(W: np.ndarray, g: Graph) -> bool:
    """Whether W weighs no two unlinked agents: all its nonzeros (NaN
    included) sit on the diagonal or on a link, found by one count over W."""
    rows, cols = g.edge_index
    on_graph = np.count_nonzero(W.diagonal()) + np.count_nonzero(W[rows, cols])
    return np.count_nonzero(W) == on_graph + np.count_nonzero(W[cols, rows])


def laplacian_from_weights(W: np.ndarray, g: Graph) -> np.ndarray:
    """Graph Laplacian diag(row sums) - W for an admissible weight matrix W.

    W must be symmetric, strictly positive on edges, zero on non-edges, and
    nonnegative on the diagonal; self-weights cancel out of the Laplacian.
    W is admitted from its entries on the links and diagonal and a count of
    its nonzeros: zero off the graph, it is symmetric to 1e-12 exactly when
    it is on the links and its diagonal is finite.  Only a W refused there
    is checked densely, in the order below, to name its first fault.
    """
    W = np.asarray(W, dtype=float)
    n = g.n_nodes
    if W.shape != (n, n):
        raise PatternMismatchError(f"weight matrix shape {W.shape} != ({n},{n})")
    rows, cols = g.edge_index
    w_ij, w_ji, diag = W[rows, cols], W[cols, rows], W.diagonal()
    if not (np.all(np.abs(w_ij - w_ji) <= 1e-12) and np.all(w_ij > 0) and np.all(w_ji > 0)
            and np.all((diag >= 0) & (diag < np.inf)) and _zero_off_graph(W, g)):
        if not np.abs(W - W.T).max() <= 1e-12:
            raise PatternMismatchError("weight matrix is not symmetric")
        on_edge = ~g.unlinked
        np.fill_diagonal(on_edge, False)
        for bad, what in ((diag < 0, "negative self-weight at node"),
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
    ``P_H = L @ M`` and ``P_Htilde = L @ L``, one object when L equals M
    (DIST_ADMM).  The step matrix P_D is
    diagonal and is stored as its diagonal, the (N,) vector ``d_prime``.

    Every setting checks the standing assumptions of the convergence
    theorems when it is built, however it is built (directly,
    :func:`make_setting` or ``dataclasses.replace``): the shapes agree with
    the graph's N, every entry is finite, rho > 0, alpha >= 0, d' > 0, no
    exchange matrix weighs two unlinked agents, P_H and P_Htilde are
    symmetric PSD with nullspace exactly span(1), ``P_H >= P_Htilde`` in the
    PSD order and ``P_A = diag(d') - rho * P_H`` is PSD.  A setting that
    fails raises one :class:`AssumptionViolatedError` naming every failed
    condition with its value.  The eigenvalue checks read :attr:`spectra`
    (see :func:`spectral_quantities`), which the bounds read too.  Network
    forms are read from neighbor sums (:meth:`a_norm`), not from the N x N
    matrices.

    Settings are frozen because P_H, P_Htilde, :attr:`P_A`, its column sums,
    :attr:`spectra`, :attr:`bound_scale` and :attr:`mailbox` are computed
    once per setting, on first use; derive a changed setting with
    ``dataclasses.replace``.  For the same reason a setting keeps its own
    read-only copy of ``d_prime`` (the local solver keeps the 1/d' arrays it
    builds from a read-only d' for the whole run).  Settings compare and
    hash by identity.
    """

    variant: Variant
    graph: Graph
    exchange: dict
    d_prime: np.ndarray  # (N,) diagonal of P_D
    rho: float
    alpha: float = 0.0

    def __post_init__(self):
        d_prime = np.array(self.d_prime, dtype=float)
        d_prime.flags.writeable = False
        object.__setattr__(self, "d_prime", d_prime)
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
        """H in single mode, L @ L in double mode; :attr:`P_H` itself (the
        same object) in single mode and when L equals M, since L @ M is then
        that product."""
        e = self.exchange
        if "H" in e or np.array_equal(e["L"], e["M"]):
            return self.P_H
        return e["L"] @ e["L"]

    @cached_property
    def P_A(self) -> np.ndarray:
        """diag(d') - rho * P_H, built on first use."""
        return np.diag(self.d_prime) - self.rho * self.P_H

    @cached_property
    def P_A_col_sums(self) -> np.ndarray:
        """Column sums of :attr:`P_A`, built on first use."""
        return self.P_A.sum(axis=0)

    def a_norm(self, rows: np.ndarray, sums: dict) -> float:
        """||rows||_A for (N, b) rows, from their sums ``sums = mailbox.sums(rows)``.

        ||r||^2_A = sum_i d'_i ||r_i||^2 - rho <r, P_H r>, where <r, P_H r> is
        <r, H r> in single mode and <L r, M r> in double mode (L is
        symmetric).  A rounding negative is clipped to 0.
        """
        ph = np.sum(rows * sums["H"]) if "H" in sums else np.sum(sums["L"] * sums["M"])
        val = float(np.sum(self.d_prime[:, None] * rows**2) - self.rho * ph)
        return math.sqrt(max(val, 0.0))

    @cached_property
    def spectra(self) -> "SpectralQuantities":
        """The setting's :func:`spectral_quantities`, computed on first use."""
        return spectral_quantities(self)

    @cached_property
    def bound_scale(self) -> float:
        """sqrt(N * lambda_1(P_A)), the factor of the ergodic bounds, computed on first use."""
        return math.sqrt(self.n_nodes * self.spectra.lam1_PA)

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
    slots, with the agents held in stable descending-degree order so that
    the agents with a k-th neighbor are a prefix.  One ``take`` gathers
    every term a sum reads, the own rows in that order and then slot after
    slot each agent's k-th neighbor, and one product weighs them all by a
    matching column of weights; slot k's span of the products is then added
    into the prefix of the own terms, and one permutation puts the rows
    back in agent order.  Every agent thus adds its terms in the order of a
    per-agent loop and gets the same bits; a dense ``W @ x`` would sum in
    another order.  :meth:`sums` shares the gather between the matrices,
    and one sum between names that hold the same matrix object.
    The graph has checked its links and the setting has refused any weight
    between agents that are not neighbors, so the table is built without
    further checks and carries every weight.  A read of a matrix the table
    does not carry raises :class:`MailboxError`.  Use ``s.mailbox``, the
    table cached on the setting.
    """

    def __init__(self, s: ParamSetting):
        n = s.n_nodes
        nbrs = s.graph.neighbor_lists
        deg = s.graph.degrees.tolist()
        #: directed links; every exchange sends m+p reals over each
        self.links = sum(deg)
        # a stable Python sort: numpy's argsort would page in ~0.2 MB of its code
        order = sorted(range(n), key=lambda i: -deg[i])
        self._back = np.empty(n, dtype=np.intp)
        self._back[order] = np.arange(n)
        # per slot k: the prefix of agents with a k-th neighbor, and the span
        # of the gathered terms that holds those neighbors
        rows, cols, self._spans = list(order), list(order), []
        for k in range(max(deg, default=0)):
            have = [i for i in order if deg[i] > k]
            self._spans.append((slice(len(have)), slice(len(cols), len(cols) + len(have))))
            rows += have
            cols += [nbrs[i][k] for i in have]
        self._n = n
        self._gather = np.array(cols, dtype=np.intp)
        self._weights = {name: W[rows, cols][:, None] for name, W in s.exchange.items()}
        # each name's first holder of its matrix object, whose sum serves both
        first = {}
        self._twin = {name: first.setdefault(id(W), name) for name, W in s.exchange.items()}

    def _add_slots(self, terms):
        """The rows, in agent order, of the weighed terms summed slot by slot."""
        acc = terms[: self._n]
        for prefix, span in self._spans:
            acc[prefix] += terms[span]
        return acc.take(self._back, axis=0)

    def weighted_sum(self, name: str, x: np.ndarray) -> np.ndarray:
        """Rows ``W_ii x_i + sum_j W_ij x_j`` for exchange matrix ``name``."""
        try:
            w = self._weights[name]
        except KeyError:
            raise MailboxError(
                f"no exchange matrix {name!r} in this table (has {sorted(self._weights)})"
            ) from None
        return self._add_slots(w * x.take(self._gather, axis=0))

    def sums(self, x: np.ndarray) -> dict:
        """``{name: W x}`` for every exchange matrix W of the setting, from one gather.

        Names that hold one matrix object (DIST_ADMM's L and M) get one sum,
        the same array under both names; no reader writes into it.
        """
        gathered = x.take(self._gather, axis=0)
        out = {}
        for name, twin in self._twin.items():
            if twin not in out:
                out[twin] = self._add_slots(self._weights[name] * gathered)
            out[name] = out[twin]
        return out


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
        if not c >= 2.0:
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
        if not 0.0 < rho_prime < math.inf:
            raise MissingTuningError(f"rho_prime must be finite and positive, got {rho_prime}")
        if rho != 1.0:
            raise AssumptionViolatedError("PGC fixes rho = 1; tune rho_prime instead")
        L1 = laplacian_from_weights(_edge_weights(g, 2.0 * rho_prime), g)
        exchange = {"H": L1 / 2.0}
        d_prime = np.diag(L1).copy()
    elif variant == Variant.DPGA:
        if "c" not in tuning:
            raise MissingTuningError("DPGA needs tuning['c'] > 0")
        c = float(tuning["c"])
        used_keys.add("c")
        if not 0.0 < c < math.inf:
            raise MissingTuningError(f"c must be finite and positive, got {c}")
        if rho != 1.0:
            raise AssumptionViolatedError("DPGA fixes rho = 1; tune c instead")
        s = float(np.sqrt(c * n / (g.n_edges * int(g.degrees.min()))))
        L2 = laplacian_from_weights(_edge_weights(g, s / 2.0), g)
        exchange = {"H": L2}
        d_prime = s * g.degrees
    elif variant == Variant.DIST_ADMM:
        exchange = {"L": MG, "M": MG}  # P_H = P_Htilde = MG @ MG
        d_prime = (MG**2) @ (g.degrees + 1.0)
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


def _sym(M):
    """The symmetric part of M, which every eigensolve here decomposes: M
    itself when it equals its transpose exactly, since 0.5 * (m + m) is m."""
    return M if np.array_equal(M, M.T) else 0.5 * (M + M.T)


def _standing_checks(s: ParamSetting) -> list:
    """``(name, passed, detail format, its args)`` for each standing
    assumption of a setting whose shapes agree and whose entries are finite.

    A single-exchange setting's H is both P_H and P_Htilde, so it is checked
    once and the order P_H >= P_Htilde holds trivially.  A nullspace of
    exactly span(1) means the smallest eigenvalue is ~0 with the ones
    direction as its eigenvector, and (for N > 1) the second is > 0.  The
    ones direction is read from each matrix's residual ||P 1/sqrt(N)|| (see
    :class:`SpectralQuantities`).  A detail is formatted only for a failed
    check.
    """
    sp = s.spectra
    checks = []
    forms = [("P_H", s.P_H, sp.eig_PH, sp.ones_resid_PH)]
    if s.exchange_mode == "double":
        forms.append(("P_Htilde", s.P_Htilde, sp.eig_PHtilde, sp.ones_resid_PHtilde))
        checks.append(("P_H >= P_Htilde (PSD order)", sp.eig_order[0] >= PSD_TOL,
                       "lam_min={:.3e}", (sp.eig_order[0],)))
    symmetric = {}  # one dense test per matrix object: DIST_ADMM's forms are one
    for label, M, vals, resid in forms:
        if id(M) not in symmetric:
            symmetric[id(M)] = np.abs(M - M.T).max() <= 1e-12
        zero = NULL_TOL * max(abs(vals[-1]), 1.0)
        # the residual bound of SpectralQuantities says nothing unless lam_2 > 0
        lam2 = vals[1] if s.n_nodes > 1 else math.inf
        checks += [
            (label + " symmetric", symmetric[id(M)], "", ()),
            (label + " PSD", vals[0] >= PSD_TOL, "lam_min={:.3e}", (vals[0],)),
            (label + " smallest eigenvalue ~ 0", abs(vals[0]) < zero,
             "lam_min={:.3e}", (vals[0],)),
            (label + " null eigenvector is the ones direction",
             lam2 > zero and resid <= 1e-4 * lam2,
             "||" + label + " 1/sqrt(N)||={:.3e}, lam_2={:.3e}", (resid, lam2)),
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
        passed = _zero_off_graph(W, s.graph)
        checks.append((name + " weighs no unlinked agents", passed, "weight at {}",
                       () if passed else (np.argwhere((W != 0) & s.graph.unlinked)[0].tolist(),)))
    return checks


@dataclass(frozen=True)
class SpectralQuantities:
    """One setting's eigenvalues, from at most one ``eigvalsh`` per distinct matrix.

    The bounds use ``lam1_PA``.  A setting's checks read the ascending
    eigenvalues of the symmetrized P_H, P_Htilde, P_A and, in
    double-exchange mode, P_H - P_Htilde (``eig_order``; None in single
    mode), and the residuals ``ones_resid_PH`` and ``ones_resid_PHtilde``,
    r = ||P 1/sqrt(N)|| for P = P_H and P_Htilde (one value when P_H is the
    same object as P_Htilde).  No eigenvectors are computed: if P's second
    eigenvalue lam_2 is positive, the part of 1/sqrt(N) off P's bottom
    eigenvector v_0 has norm at most r/lam_2, so the check
    ``r <= 1e-4 * lam_2``, with lam_2 above the zero cut, gives
    |<v_0, 1/sqrt(N)>| > 1 - 1e-8: the ones direction spans the nullspace.
    """

    lam1_PA: float
    eig_PH: np.ndarray
    eig_PHtilde: np.ndarray
    eig_PA: np.ndarray
    eig_order: "np.ndarray | None"
    ones_resid_PH: float
    ones_resid_PHtilde: float


def spectral_quantities(s: ParamSetting) -> SpectralQuantities:
    """Eigenvalues of each distinct N x N matrix of a setting, one ``eigvalsh`` each.

    A single-exchange setting, and a double-exchange one with L equal to M,
    has P_H = P_Htilde as one object, so that is an ``eigvalsh`` of P_Htilde
    and one of P_A, and in double mode P_H - P_Htilde is exactly zero, so
    its eigenvalues are zeros with no solve.  A double-exchange setting with
    another P_H adds an ``eigvalsh`` of P_H and one of P_H - P_Htilde.
    P_Htilde is not decomposed when it is built from the graph's own
    Metropolis matrix M: H = M (DUCA_I) reads :attr:`Graph.metropolis_eigvals`,
    solved once per graph, and L = M (DIST_ADMM, P_Htilde = M @ M) their
    sorted squares, within rounding of a solve of M @ M.  P_A always has its
    own solve, since lambda_1(P_A) sets the bounds.  Use ``s.spectra`` for
    the value cached on the setting.
    """
    n = s.n_nodes
    ones = np.ones(n) / np.sqrt(n)
    vals_A = np.linalg.eigvalsh(_sym(s.P_A))
    single = s.exchange_mode == "single"
    if s.exchange["H" if single else "L"] is s.graph.metropolis:
        vals = s.graph.metropolis_eigvals if single else np.sort(s.graph.metropolis_eigvals**2)
    else:
        vals = np.linalg.eigvalsh(_sym(s.P_Htilde))
    resid = float(np.linalg.norm(s.P_Htilde @ ones))
    vals_H, resid_H, vals_order = vals, resid, None
    if s.P_H is not s.P_Htilde:
        vals_H = np.linalg.eigvalsh(_sym(s.P_H))
        resid_H = float(np.linalg.norm(s.P_H @ ones))
    if not single:
        diff = s.P_H - s.P_Htilde
        vals_order = np.linalg.eigvalsh(_sym(diff)) if diff.any() else np.zeros(n)
    return SpectralQuantities(
        lam1_PA=max(float(vals_A[-1]), 0.0),
        eig_PH=vals_H,
        eig_PHtilde=vals,
        eig_PA=vals_A,
        eig_order=vals_order,
        ones_resid_PH=resid_H,
        ones_resid_PHtilde=resid,
    )
