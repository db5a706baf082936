"""Reference formulas and problem helpers for the tests.

The round objective here is written apart from the solver's batched smooth
parts, and ``grid_local`` searches it by brute force, so the two agreeing
counts as evidence that the solver minimizes the right function.
``eigh_reference`` decomposes every matrix of a setting with ``eigh``, to
check the eigenvalue-only set-up of ``duca.graphs`` against.
``random_graph_edges`` draws a random graph's extra links from the N x N
enumeration of absent pairs, ``loop_laplacian`` builds a graph Laplacian by
a loop over the links, ``weight_fault`` names a weight matrix's first fault
from dense masks, and ``padding_fault`` a problem's first padding fault by
a loop over agents: the library does each from index arithmetic or masks
over arrays.
``reference_round`` applies one round's per-agent updates with dense
matrices, and ``dense_forms`` evaluates the diagnostics' network forms with
dense matrices and a pseudo-inverse: the library reads both from neighbor
sums instead.  ``brute_force_sums`` makes those sums by the per-agent loop
that the library's neighbor table must match bit for bit, and
``LoopMailbox`` is a neighbor table that sums that way.
"""

import dataclasses
import heapq
from typing import NamedTuple

import numpy as np

from duca.graphs import NULL_TOL, PSD_TOL
from duca.localsolver import solve_local_batch
from duca.problem import Problem, generate_example


def from_agent_data(P, Q, a, c, a_prime, c_prime, B, c_eq, l1_weight=1.0):
    """A Problem from per-agent (possibly unequal-dimension) arrays.

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

    return Problem(
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


def single_agent(P, Q, a=None, c=4.0, a_prime=None, c_prime=None, B=None,
                 c_eq=None, l1_weight=1.0):
    """A one-agent problem from unpadded data; omitted blocks are empty."""
    P = np.atleast_2d(np.asarray(P, dtype=float))
    d = P.shape[0]
    a = np.zeros(d) if a is None else np.asarray(a, dtype=float)
    a_prime = np.zeros((0, d)) if a_prime is None else np.asarray(a_prime, dtype=float)
    m = a_prime.shape[0]
    c_prime = np.zeros(m) if c_prime is None else np.asarray(c_prime, dtype=float)
    B = np.zeros((0, d)) if B is None else np.asarray(B, dtype=float)
    p = B.shape[0]
    c_eq = np.zeros(p) if c_eq is None else np.asarray(c_eq, dtype=float)
    return from_agent_data(
        P=[P], Q=[Q], a=[a], c=[c], a_prime=[a_prime], c_prime=[c_prime],
        B=[B], c_eq=[c_eq], l1_weight=l1_weight,
    )


def one_agent(pb, i):
    """Agent i of pb alone, as a one-agent problem."""
    d = pb.dims[i]
    return single_agent(P=pb.P[i, :d, :d], Q=pb.Q[i, :d], a=pb.a[i, :d], c=pb.c[i],
                        a_prime=pb.a_prime[i, :, :d], c_prime=pb.c_prime[i],
                        B=pb.B[i, :, :d], c_eq=pb.c_eq[i], l1_weight=pb.l1_weight)


class Subproblem(NamedTuple):
    """One agent's round subproblem, posed on a one-agent problem."""

    problem: Problem
    ytilde: np.ndarray  # (m+p,)
    d_prime: float
    alpha: float
    anchor: np.ndarray  # (d,), also the warm start


def random_subproblem(rng, d=2, m=1, p=1):
    """One agent's round subproblem with random duals, scale, anchor and
    equality offsets (c_eq is 0 in every generated problem)."""
    pb = generate_example(1, d, m, p, seed=int(rng.integers(0, 2**31)))
    ytilde = rng.normal(scale=2.0, size=m + p)
    d_prime = float(rng.uniform(0.5, 3.0))
    alpha = float(rng.choice([0.0, 0.3]))
    anchor = rng.uniform(-0.5, 0.5, size=d)
    pb = dataclasses.replace(pb, c_eq=rng.uniform(-1.0, 1.0, size=(1, p)))
    return Subproblem(pb, ytilde, d_prime, alpha, anchor)


def solve_one(sp, **kw):
    """A one-agent subproblem through the batch front end.

    Returns row 0 of ``(X, residual, iters, done, values)``.
    """
    assert sp.problem.n_agents == 1
    out = solve_local_batch(sp.problem, sp.ytilde[None, :], np.array([sp.d_prime]),
                            sp.alpha, sp.anchor[None, :], **kw)
    return tuple(v[0] for v in out)


def round_objective(sp, X):
    """The round objective, without the ball indicator, at every row of X (K, d):

    f(x) + (||[mu + g(x)]_+||^2 + ||lam + h(x)||^2) / (2 d') + (alpha/2)||x - anchor||^2
    """
    pb = sp.problem
    P, Q, a_prime, c_prime = pb.P[0], pb.Q[0], pb.a_prime[0], pb.c_prime[0]
    B, c_eq = pb.B[0], pb.c_eq[0]
    mu = sp.ytilde[: pb.m]
    lam = sp.ytilde[pb.m :]
    f = (np.einsum("kd,de,ke->k", X, P, X) + X @ Q
         + pb.l1_weight * np.abs(X).sum(axis=1))
    diff = X[:, None, :] - a_prime
    hinge = np.maximum(mu + np.sum(diff**2, axis=2) - c_prime, 0.0)
    eq = lam + X @ B.T + c_eq
    pen = (np.sum(hinge**2, axis=1) + np.sum(eq**2, axis=1)) / (2.0 * sp.d_prime)
    prox = 0.5 * sp.alpha * np.sum((X - sp.anchor) ** 2, axis=1)
    return f + pen + prox


def grid_local(sp, levels=7, pts=81):
    """Multilevel grid minimization of the round objective over the ball.

    Pure exhaustive search with zooming; axes always include the exact l1
    kink coordinate 0 when it lies in the window.  Independent of the
    solver's descent machinery.  Each level's grid is evaluated in one
    broadcast.  Returns the best point and its value.
    """
    pb = sp.problem
    a, c = pb.a[0], float(pb.c[0])
    center = a.copy()
    half = np.full(pb.dmax, np.sqrt(c))
    best_x, best_v = None, np.inf
    for _ in range(levels):
        axes = []
        for lo, hi in zip(center - half, center + half):
            ax = np.linspace(lo, hi, pts)
            if ax[0] < 0.0 < ax[-1]:
                ax = np.sort(np.append(ax, 0.0))
            axes.append(ax)
        mesh = np.meshgrid(*axes, indexing="ij")
        X = np.stack([mm.ravel() for mm in mesh], axis=1)
        # nodes outside the ball are pulled radially to just inside its
        # sphere, so that an optimum on the sphere is searched as densely as
        # one inside: dropping them left the zoom windows off that optimum
        n2 = np.sum((X - a) ** 2, axis=1)
        out = n2 > c
        X[out] = a + (np.sqrt(c / n2[out]) * (1.0 - 1e-15))[:, None] * (X[out] - a)
        X = X[np.sum((X - a) ** 2, axis=1) <= c]
        vals = round_objective(sp, X)
        idx = int(np.argmin(vals))
        if vals[idx] < best_v:
            best_v = vals[idx]
            best_x = X[idx].copy()
        center = X[idx].copy()
        half = np.maximum(half * (2.0 / (pts - 1)) * 2.5, 1e-12)
    return best_x, float(best_v)


def random_graph_edges(n, n_edges, seed):
    """Edge tuple of ``random_connected_graph(n, n_edges, seed)`` for n >= 2,
    its extra links drawn from N x N arrays.

    A Pruefer tree decoded with a heap of leaves, then a uniform draw without
    replacement from the absent pairs, listed by ``np.triu_indices`` in
    (i, j) order after masking the tree out of an N x N table.
    """
    rng = np.random.default_rng(seed)
    if n == 2:
        tree = [(0, 1)]
    else:
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
    in_tree = np.zeros((n, n), dtype=bool)
    in_tree[tuple(np.array(tree).T)] = True
    iu, ju = np.triu_indices(n, 1)
    absent = ~in_tree[iu, ju]
    iu, ju = iu[absent], ju[absent]
    extra = n_edges - len(tree)
    if extra > 0:
        pick = rng.choice(len(iu), size=extra, replace=False)
        edges.update(zip(iu[pick].tolist(), ju[pick].tolist()))
    return tuple(sorted(edges))


def loop_laplacian(g, weight):
    """diag(row sums) - W for W with ``weight(i, j)`` on each link, by a loop."""
    W = np.zeros((g.n_nodes, g.n_nodes))
    for i, j in g.edges:
        W[i, j] = W[j, i] = weight(i, j)
    return np.diag(W.sum(axis=1)) - W


def loop_metropolis(g):
    """The Metropolis matrix, -1/(max{deg_i, deg_j}+1) on each link, by a loop."""
    return loop_laplacian(g, lambda i, j: 1.0 / (max(g.degree(i), g.degree(j)) + 1))


def unlinked_mask(g):
    """(N, N) mask of distinct agents that are not neighbors, from the neighbor lists."""
    n = g.n_nodes
    return np.array([[i != j and j not in g.neighbor_lists[i] for j in range(n)]
                     for i in range(n)])


def weight_fault(W, g):
    """The message ``laplacian_from_weights`` refuses W with, or None.

    Dense masks, checked in order: symmetry to 1e-12, a negative diagonal
    entry, a non-positive weight on a link, a nonzero weight between
    unlinked agents; the first offending entry in row-major order is named.
    """
    if not np.abs(W - W.T).max() <= 1e-12:
        return "weight matrix is not symmetric"
    unlinked = unlinked_mask(g)
    on_edge = ~unlinked & ~np.eye(g.n_nodes, dtype=bool)
    for bad, what in ((np.diag(W) < 0, "negative self-weight at node"),
                      (on_edge & (W <= 0), "non-positive weight on edge"),
                      ((W != 0) & unlinked, "nonzero weight off the graph at")):
        if bad.any():
            return f"{what} {np.argwhere(bad)[0].tolist()}"
    return None


def padding_fault(dims, arrays):
    """The message ``Problem`` refuses padded data with, or None, by a loop.

    Agent by agent: an invalid dimension, then a nonzero entry beyond the
    agent's dimension in P (rows or columns), Q, a, a_prime and B, in that
    order; ``arrays`` maps those names to the padded arrays.
    """
    dmax = max(dims)
    for i, d in enumerate(dims):
        if not (1 <= d <= dmax):
            return f"agent {i} has invalid dimension {d}"
        for name in ("P", "Q", "a", "a_prime", "B"):
            arr = arrays[name][i]
            tail = arr[..., d:]
            if name == "P":
                tail = np.concatenate([arr[d:, :].ravel(), arr[:, d:].ravel()])
            if tail.size and float(np.abs(tail).max()) != 0.0:
                return f"{name}[{i}] has nonzero entries beyond dimension {d}"
    return None


def brute_force_sums(W, nbrs, x):
    """W_ii x_i + sum_j W_ij x_j per agent, neighbors ascending: the reference."""
    out = np.empty_like(x)
    for i in range(len(nbrs)):
        acc = W[i, i] * x[i]
        for j in nbrs[i]:
            acc = acc + W[i, j] * x[j]
        out[i] = acc
    return out


class LoopMailbox:
    """A setting's neighbor table that sums by ``brute_force_sums``."""

    def __init__(self, s):
        self.links = 2 * s.graph.n_edges
        self._s = s

    def weighted_sum(self, name, x):
        return brute_force_sums(self._s.exchange[name], self._s.graph.neighbor_lists, x)

    def sums(self, x):
        return {name: self.weighted_sum(name, x) for name in self._s.exchange}


def eigh_reference(s):
    """A setting's eigenvalues and standing-check verdicts, by brute force.

    P_H and P_Htilde are rebuilt from ``s.exchange`` (``L @ M`` and
    ``L @ L`` in double mode, whatever L and M are), and P_A, P_H, P_Htilde
    and, in double mode, P_H - P_Htilde are each decomposed with ``eigh``.
    A ones-direction check reads the bottom eigenvector:
    ``|<v_0, 1/sqrt(N)>| > 1 - 1e-8``.  Returns the ascending eigenvalues
    and ``lam1_PA`` by the names of ``duca.graphs.SpectralQuantities``, and
    ``{check name: passed}`` for every standing check.
    """
    e = s.exchange
    single = "H" in e
    P_H = e["H"] if single else e["L"] @ e["M"]
    P_Ht = e["H"] if single else e["L"] @ e["L"]
    n = len(s.d_prime)
    ones = np.ones(n) / np.sqrt(n)

    def eigh(M):
        return np.linalg.eigh(0.5 * (M + M.T))

    vals_A = eigh(np.diag(s.d_prime) - s.rho * P_H)[0]
    forms = {"P_H": (P_H, *eigh(P_H))}
    verdicts = {}
    order = None
    if not single:
        forms["P_Htilde"] = (P_Ht, *eigh(P_Ht))
        order = eigh(P_H - P_Ht)[0]
        verdicts["P_H >= P_Htilde (PSD order)"] = order[0] >= PSD_TOL
    for label, (M, vals, vecs) in forms.items():
        zero = NULL_TOL * max(abs(vals[-1]), 1.0)
        verdicts[label + " symmetric"] = np.abs(M - M.T).max() <= 1e-12
        verdicts[label + " PSD"] = vals[0] >= PSD_TOL
        verdicts[label + " smallest eigenvalue ~ 0"] = abs(vals[0]) < zero
        verdicts[label + " null eigenvector is the ones direction"] = (
            abs(vecs[:, 0] @ ones) > 1.0 - 1e-8)
        if n > 1:
            verdicts[label + " second-smallest eigenvalue > 0"] = vals[1] > zero
    verdicts["P_D positive"] = s.d_prime.min() > 0.0
    verdicts["P_A = P_D - rho*P_H PSD"] = vals_A[0] >= PSD_TOL
    verdicts["rho positive"] = s.rho > 0
    verdicts["alpha nonnegative"] = s.alpha >= 0
    nbrs = s.graph.neighbor_lists
    for name, W in e.items():
        verdicts[name + " weighs no unlinked agents"] = not any(
            W[i, j] != 0 for i in range(n) for j in range(n) if i != j and j not in nbrs[i])
    spectra = {"lam1_PA": max(float(vals_A[-1]), 0.0), "eig_PA": vals_A,
               "eig_PH": forms["P_H"][1], "eig_PHtilde": forms.get("P_Htilde", forms["P_H"])[1],
               "eig_order": order}
    return spectra, {name: bool(passed) for name, passed in verdicts.items()}


def block_quadratic_norm(M, rows):
    """sqrt(y^T (M kron I) y) for y stored as (N, b) agent rows.

    The Kronecker-lifted quadratic form reduces to sum(rows * (M @ rows));
    tiny negative values from roundoff on PSD M are clipped to zero.
    """
    val = float(np.sum(rows * (M @ rows)))
    return float(np.sqrt(max(val, 0.0)))


def _dense(s):
    """P_H, P_Htilde and P_A rebuilt from a setting's exchanged matrices."""
    e = s.exchange
    if "H" in e:
        P_H = P_Ht = e["H"]
    else:
        P_H, P_Ht = e["L"] @ e["M"], e["L"] @ e["L"]
    return P_H, P_Ht, np.diag(s.d_prime) - s.rho * P_H


def coupled_rows(pb, X):
    """[g_i; h_i](x_i) for every agent row, one agent at a time."""
    out = np.zeros((pb.n_agents, pb.mp))
    for i in range(pb.n_agents):
        d = pb.dims[i]
        x = X[i, :d]
        for j in range(pb.m):
            out[i, j] = np.sum((x - pb.a_prime[i, j, :d]) ** 2) - pb.c_prime[i, j]
        out[i, pb.m :] = pb.B[i, :, :d] @ x + pb.c_eq[i]
    return out


def nonzero_start(pb, rng):
    """x0 inside the agents' balls and y0 with nonnegative mu-blocks, both nonzero."""
    x0 = pb.a + rng.uniform(-0.3, 0.3, size=pb.a.shape) * np.sqrt(pb.c)[:, None] / 2.0
    y0 = rng.uniform(0.0, 1.5, size=(pb.n_agents, pb.mp))
    return x0, y0


def reference_round(pb, s, st, tol=1e-8):
    """One round from state ``st`` by the per-agent updates of the
    ``duca.engine`` docstring, with the dense exchanged matrices.

    x+ comes from ``solve_local_batch`` on this function's own ytilde; the
    rest is written out here.  ``st`` is left unchanged.  Returns the new
    X, Y, SIG, sum_X, sum_Y, V (single) or Z and U (double), and WY, the
    neighbor sums ``{name: W @ Y+}`` that the exchanges of y+ carry.
    """
    e, rho, d = s.exchange, s.rho, s.d_prime
    if "H" in e:
        ytilde = d[:, None] * st.Y - rho * (e["H"] @ st.Y) - st.V
    else:
        ytilde = d[:, None] * st.Y - e["L"] @ st.U
    X = solve_local_batch(pb, ytilde, d, s.alpha, st.X, tol=tol)[0]
    pre = ytilde + coupled_rows(pb, X)
    proj = pre.copy()
    proj[:, : pb.m] = np.maximum(pre[:, : pb.m], 0.0)
    Y = proj / d[:, None]
    out = {"X": X, "Y": Y, "SIG": proj - pre, "sum_X": st.sum_X + X, "sum_Y": st.sum_Y + Y,
           "WY": {name: W @ Y for name, W in e.items()}}
    if "H" in e:
        out["V"] = st.V + rho * (e["H"] @ Y)
    else:
        out["Z"] = st.Z + rho * (e["L"] @ Y)
        out["U"] = out["Z"] + rho * (e["M"] @ Y)
    return out


def dense_forms(st, s, cert=None):
    """The diagnostics' network forms of a state, with dense matrices.

    Returns ||Y||_A, ||Y - Y0||_A and the consensus error ||sum_Y/k||_P_Htilde
    (k >= 1), and with a certificate also ||v*||_Hdag, ||V - v*||_Hdag and
    the Lyapunov value; V is L @ Z in double mode, and Hdag is
    ``np.linalg.pinv`` of P_Htilde.
    """
    _, P_Ht, P_A = _dense(s)
    forms = {"y_A": block_quadratic_norm(P_A, st.Y),
             "dy_A": block_quadratic_norm(P_A, st.Y - st.Y0)}
    if st.k:
        forms["consensus"] = block_quadratic_norm(P_Ht, st.sum_Y / st.k)
    if cert is not None:
        pinv = np.linalg.pinv(P_Ht, rcond=1e-10, hermitian=True)
        V = st.V if st.V is not None else s.exchange["L"] @ st.Z
        forms["v_term"] = block_quadratic_norm(pinv, cert.v_star)
        forms["v_dist"] = block_quadratic_norm(pinv, V - cert.v_star)
        forms["lyapunov"] = (0.5 * forms["y_A"] ** 2 + forms["v_dist"] ** 2 / (2.0 * s.rho)
                             + 0.5 * s.alpha * float(np.sum((st.X - cert.x_star_rows) ** 2)))
    return forms
