"""Graphs, weight matrices, and parameter settings."""

import dataclasses
import hashlib
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from duca.errors import (
    AssumptionViolatedError,
    DisconnectedError,
    InvalidEdgeError,
    MissingTuningError,
    PatternMismatchError,
)
from duca.graphs import (
    Graph,
    ParamSetting,
    Variant,
    _standing_checks,
    _sym,
    build_graph,
    laplacian_from_weights,
    make_setting,
    random_connected_graph,
    spectral_quantities,
)

from duca.metrics import make_certificate
from duca.oracle import CertificateCore
from duca.problem import StackedPoint

from reference import (
    eigh_reference,
    from_agent_data,
    loop_degrees,
    loop_laplacian,
    loop_metropolis,
    loop_neighbors,
    random_graph_edges,
    unlinked_mask,
    weight_fault,
)

TRIANGLE = build_graph(3, [(0, 1), (1, 2), (0, 2)])
PATH2 = build_graph(2, [(0, 1)])
ALL_VARIANTS = list(Variant)


def default_tuning(variant):
    if variant == Variant.PGC:
        return {"rho_prime": 0.5}
    if variant == Variant.DPGA:
        return {"c": 1.0}
    return None


def default_rho(variant):
    return 1.0


def make_default(variant, g, alpha=0.0):
    return make_setting(variant, g, rho=default_rho(variant), alpha=alpha,
                        tuning=default_tuning(variant))


# ---------------------------------------------------------------------------
# build_graph
# ---------------------------------------------------------------------------


class TestBuildGraph:
    def test_neighbors_sorted_and_canonical_edges(self):
        g = build_graph(4, [(3, 0), (1, 0), (2, 1), (3, 2)])
        assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
        assert g.neighbor_lists == ((1, 3), (0, 2), (1, 3), (0, 2))
        assert g.degrees.tolist() == [2, 2, 2, 2]

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidEdgeError):
            build_graph(3, [(0, 0), (0, 1), (1, 2)])

    def test_rejects_duplicate_even_if_flipped(self):
        with pytest.raises(InvalidEdgeError):
            build_graph(3, [(0, 1), (1, 0), (1, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidEdgeError):
            build_graph(3, [(0, 3)])

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedError):
            build_graph(4, [(0, 1), (2, 3)])

    def test_single_node(self):
        g = build_graph(1, [])
        assert g.n_nodes == 1 and g.n_edges == 0

    @pytest.mark.parametrize("label", [1.5, 2.9, 1.0, "1", None, True, np.float64(1.0)])
    def test_rejects_a_label_that_is_not_an_integer(self, label):
        with pytest.raises(InvalidEdgeError, match="is not an integer"):
            build_graph(3, [(0, label), (1, 2)])

    def test_python_and_numpy_integer_labels_accepted(self):
        links = [(np.int64(2), 1), (np.int32(0), np.uint8(1))]
        g = build_graph(3, links)
        assert g.edges == ((0, 1), (1, 2))
        assert all(type(v) is int for e in g.edges for v in e)
        assert build_graph(3, np.array([[2, 1], [1, 0]])).edges == g.edges


class TestGraph:
    def test_fields_are_the_node_count_and_the_links(self):
        assert [f.name for f in dataclasses.fields(Graph)] == ["n_nodes", "edges"]
        assert not hasattr(Graph, "degree")
        # a neighbor table that disagrees with the links cannot be handed in
        with pytest.raises(TypeError):
            Graph(n_nodes=3, edges=((0, 1), (1, 2)), neighbor_lists=((1,), (0,), ()))

    @pytest.mark.parametrize("n,edges,message", [
        (0, (), "need at least one node, got n=0"),
        (-2, (), "need at least one node, got n=-2"),
        (3, ((0, 1), (1, 3)), "edge (1,3) out of range for n=3"),
        (3, ((-1, 0), (0, 1), (1, 2)), "edge (-1,0) out of range for n=3"),
        (3, ((0, 1), (1, 1), (1, 2)), "self-loop at node 1"),
        (3, ((0, 1), (2, 1)), "edge (2,1) has i > j"),
        (3, ((0, 1), (0, 1), (1, 2)), "duplicate edge (0, 1)"),
        (3, ((1, 2), (0, 1)), "edge (1,2) comes before a smaller one"),
        (4, ((0, 2), (0, 1), (2, 3)), "edge (0,2) comes before a smaller one"),
        (3, ((0, 1), (1.0, 2.0)), "edges must be (i, j) pairs of integers"),
        (3, ((0, 1), (1, 2, 0)), "edges must be (i, j) pairs of integers"),
        (3, ((0, 1, 2),), "edges must be (i, j) pairs of integers"),
    ])
    def test_each_fault_in_the_links_refused(self, n, edges, message):
        with pytest.raises(InvalidEdgeError, match=re.escape(message)):
            Graph(n_nodes=n, edges=edges)

    @pytest.mark.parametrize("n,edges,missing", [
        (2, (), "[1]"),
        (4, ((0, 1), (2, 3)), "[2, 3]"),
        (5, ((1, 2), (1, 3), (2, 4)), "[1, 2, 3, 4]"),
    ])
    def test_disconnected_refused(self, n, edges, missing):
        with pytest.raises(DisconnectedError, match=re.escape(f"unreachable from 0: {missing}")):
            Graph(n_nodes=n, edges=edges)

    def test_replace_checks_again(self):
        with pytest.raises(InvalidEdgeError, match="self-loop"):
            dataclasses.replace(TRIANGLE, edges=((0, 0), (0, 1), (1, 2)))
        with pytest.raises(DisconnectedError):
            dataclasses.replace(TRIANGLE, n_nodes=4)

    @given(n=st.integers(1, 25), fill=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_neighbors_and_degrees_are_the_loop_over_links(self, n, fill, seed):
        max_edges = n * (n - 1) // 2
        g = random_connected_graph(n, n - 1 + round(fill * (max_edges - n + 1)), seed=seed)
        assert g.neighbor_lists == loop_neighbors(g)
        assert g.degrees.tolist() == loop_degrees(g)
        assert g.degrees.dtype.kind == "i"
        assert Graph(n_nodes=n, edges=g.edges) == g  # the built graph passes the check

    def test_derived_values_read_only(self):
        g = random_connected_graph(9, 14, seed=4)
        assert g.neighbor_lists is g.neighbor_lists and g.degrees is g.degrees
        with pytest.raises(ValueError):
            g.degrees[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.neighbor_lists = ()


def _reference_random_edges(n, n_edges, seed):
    """Edge list of the original quadratic-scan construction, kept as a reference.

    Pruefer decode by scanning for the smallest leaf, then a uniform draw from
    the explicitly enumerated absent pairs in (i, j) order.
    """
    rng = np.random.default_rng(seed)
    if n == 2:
        tree = [(0, 1)]
    else:
        seq = [int(v) for v in rng.integers(0, n, size=n - 2)]
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        tree = []
        for v in seq:
            leaf = min(i for i in range(n) if degree[i] == 1)
            tree.append((min(leaf, v), max(leaf, v)))
            degree[leaf] -= 1
            degree[v] -= 1
        last = [i for i in range(n) if degree[i] == 1]
        tree.append((last[0], last[1]))
    have = set(tree)
    absent = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in have]
    extra = n_edges - len(have)
    if extra > 0:
        pick = rng.choice(len(absent), size=extra, replace=False)
        for idx in sorted(int(t) for t in pick):
            have.add(absent[idx])
    return tuple(sorted(have))


class TestRandomConnectedGraph:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 20, 57, 200])
    def test_matches_reference_construction(self, n):
        max_edges = n * (n - 1) // 2
        for n_edges in sorted({n - 1, min(2 * n, max_edges), max_edges}):
            for seed in range(20):
                got = random_connected_graph(n, n_edges, seed=seed).edges
                assert got == _reference_random_edges(n, n_edges, seed), (n, n_edges, seed)

    @given(n=st.integers(2, 60), fill=st.floats(0.0, 1.0), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_the_dense_draw(self, n, fill, seed):
        # extra links picked by rank arithmetic over the tree are the pairs the
        # N x N enumeration of absent pairs gives for the same draw
        n_edges = n - 1 + round(fill * ((n - 1) * (n - 2) // 2))
        assert random_connected_graph(n, n_edges, seed=seed).edges == \
            random_graph_edges(n, n_edges, seed)

    def test_pinned_500_node_graph(self):
        edges = random_connected_graph(500, 1000, seed=42).edges
        assert edges == random_graph_edges(500, 1000, 42)
        assert hashlib.sha256(repr(edges).encode()).hexdigest() == (
            "bdf59986870ff653189162608d438592ecbab3b999c7784997253ef75b449b8d")

    def test_deterministic(self):
        a = random_connected_graph(20, 40, seed=7)
        b = random_connected_graph(20, 40, seed=7)
        assert a.edges == b.edges

    def test_seed_changes_graph(self):
        a = random_connected_graph(20, 40, seed=7)
        b = random_connected_graph(20, 40, seed=8)
        assert a.edges != b.edges

    def test_edge_count_bounds(self):
        with pytest.raises(InvalidEdgeError):
            random_connected_graph(5, 3, seed=0)
        with pytest.raises(InvalidEdgeError):
            random_connected_graph(5, 11, seed=0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_nodes_refused(self, n):
        with pytest.raises(InvalidEdgeError, match="at least one node"):
            random_connected_graph(n, 0, seed=0)

    @given(
        n=st.integers(min_value=2, max_value=12),
        extra=st.integers(min_value=0, max_value=10),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_always_connected_with_requested_edges(self, n, extra, seed):
        n_edges = min(n - 1 + extra, n * (n - 1) // 2)
        g = random_connected_graph(n, n_edges, seed=seed)
        assert g.n_edges == n_edges  # build_graph already enforced connectivity


# ---------------------------------------------------------------------------
# Graph.metropolis
# ---------------------------------------------------------------------------


class TestMetropolis:
    def test_triangle_exact(self):
        M = TRIANGLE.metropolis
        expected = np.array(
            [
                [2 / 3, -1 / 3, -1 / 3],
                [-1 / 3, 2 / 3, -1 / 3],
                [-1 / 3, -1 / 3, 2 / 3],
            ]
        )
        np.testing.assert_allclose(M, expected, atol=1e-15)

    def test_path2_exact(self):
        M = PATH2.metropolis
        np.testing.assert_allclose(M, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_uses_max_degree(self):
        # star: center degree 3, leaves degree 1 -> off-diag -1/4 everywhere
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        M = g.metropolis
        assert M[0, 1] == M[1, 0] == -1 / 4
        assert M[1, 1] == 1 / 4
        assert M[0, 0] == 3 / 4
        assert M[1, 2] == 0.0

    def test_zero_row_sums(self):
        g = random_connected_graph(20, 40, seed=3)
        M = g.metropolis
        np.testing.assert_allclose(M @ np.ones(20), 0.0, atol=1e-14)

    def test_20_node_40_edge_pattern(self):
        g = random_connected_graph(20, 40, seed=3)
        M = g.metropolis
        off = M - np.diag(np.diag(M))
        assert int((off < 0).sum()) == 80  # each of 40 edges twice
        assert int((off > 0).sum()) == 0

    @given(
        n=st.integers(min_value=2, max_value=10),
        extra=st.integers(min_value=0, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_psd_with_ones_nullspace(self, n, extra, seed):
        n_edges = min(n - 1 + extra, n * (n - 1) // 2)
        g = random_connected_graph(n, n_edges, seed=seed)
        M = g.metropolis
        vals = np.linalg.eigvalsh(M)
        assert vals[0] > -1e-12
        assert abs(vals[0]) < 1e-12
        if n > 1:
            assert vals[1] > 1e-10  # connected -> single zero eigenvalue

    def test_built_once_per_graph_and_read_only(self, monkeypatch):
        import duca.graphs as graphs

        g = random_connected_graph(9, 14, seed=4)
        calls = []
        real = graphs.laplacian_from_weights
        monkeypatch.setattr(graphs, "laplacian_from_weights",
                            lambda W, gr: calls.append(W) or real(W, gr))
        for variant in ALL_VARIANTS:
            make_default(variant, g)
        # one Metropolis matrix for the six settings, plus PGC's and DPGA's
        assert len(calls) == 3
        M = g.metropolis
        assert M is g.metropolis
        with pytest.raises(ValueError):
            M[0, 0] = 1.0
        vals = g.metropolis_eigvals
        assert vals is g.metropolis_eigvals
        assert np.array_equal(vals, np.linalg.eigvalsh(M))
        with pytest.raises(ValueError):
            vals[0] = 1.0

    @pytest.mark.parametrize("n,n_edges,seed", [(2, 1, 0), (9, 14, 4), (60, 150, 7)])
    def test_same_bits_as_the_loop_over_links(self, n, n_edges, seed):
        g = random_connected_graph(n, n_edges, seed=seed)
        assert g.metropolis.tobytes() == loop_metropolis(g).tobytes()


#: perturbations of an admissible weight matrix (see ``_perturbed_weights``)
FAULTS = ["asymmetric link", "link", "one side of a link", "off the graph",
          "one side off the graph", "diagonal"]
FAULT_VALUES = [0.0, -0.0, 5e-324, 1e-13, -1e-13, 2e-12, -1.0, 0.7,
                np.inf, -np.inf, np.nan]


def _perturbed_weights(g, seed, faults):
    """Positive symmetric link weights and a nonnegative diagonal, with each
    ``(kind, where, value)`` fault applied at entry ``where`` of its kind."""
    rng = np.random.default_rng(seed)
    n = g.n_nodes
    W = np.zeros((n, n))
    for i, j in g.edges:
        W[i, j] = W[j, i] = rng.uniform(0.1, 2.0)
    W[np.diag_indices(n)] = rng.uniform(0.0, 1.0, size=n) * (rng.random(n) < 0.5)
    off = np.argwhere(unlinked_mask(g))
    for kind, where, value in faults:
        if kind == "diagonal":
            W[where % n, where % n] = value
            continue
        if "off the graph" in kind:
            if not len(off):
                continue
            i, j = off[where % len(off)]
        else:
            i, j = g.edges[where % g.n_edges]
        if where % 2:
            i, j = j, i
        if kind == "asymmetric link":
            W[i, j] += value
        elif kind.startswith("one side"):
            W[i, j] = value
        else:
            W[i, j] = W[j, i] = value
    return W


def _check_weights_as_dense_masks(g, W):
    """laplacian_from_weights refuses W exactly as the dense masks do, with
    their message, and otherwise returns the Laplacian of W's row sums."""
    with np.errstate(invalid="ignore", over="ignore"):
        want = weight_fault(W, g)
        if want is None:
            got = laplacian_from_weights(W, g)
            assert got.tobytes() == (np.diag(W.sum(axis=1)) - W).tobytes()
        else:
            with pytest.raises(PatternMismatchError) as err:
                laplacian_from_weights(W, g)
            assert str(err.value) == want


class TestLaplacianFromWeights:
    def test_unit_weights_give_combinatorial_laplacian(self):
        W = np.zeros((3, 3))
        for i, j in TRIANGLE.edges:
            W[i, j] = W[j, i] = 1.0
        L = laplacian_from_weights(W, TRIANGLE)
        np.testing.assert_allclose(L, [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])

    def test_self_weight_cancels(self):
        W = np.zeros((2, 2))
        W[0, 1] = W[1, 0] = 3.0
        L0 = laplacian_from_weights(W, PATH2)
        W[0, 0] = 5.0
        L1 = laplacian_from_weights(W, PATH2)
        np.testing.assert_allclose(L0, L1)
        np.testing.assert_allclose(L0, [[3.0, -3.0], [-3.0, 3.0]])

    def test_rejects_asymmetric(self):
        W = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(PatternMismatchError):
            laplacian_from_weights(W, PATH2)

    def test_rejects_infinite_weights(self):
        W = np.array([[0.0, np.inf], [np.inf, 0.0]])
        with pytest.raises(PatternMismatchError), np.errstate(invalid="ignore"):
            laplacian_from_weights(W, PATH2)

    def test_rejects_weight_off_graph(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        W = np.zeros((3, 3))
        W[0, 1] = W[1, 0] = 1.0
        W[1, 2] = W[2, 1] = 1.0
        W[0, 2] = W[2, 0] = 0.5  # not an edge
        with pytest.raises(PatternMismatchError):
            laplacian_from_weights(W, g)

    def test_rejects_nonpositive_edge_weight(self):
        W = np.zeros((2, 2))
        with pytest.raises(PatternMismatchError):
            laplacian_from_weights(W, PATH2)

    def test_rejects_negative_self_weight(self):
        W = np.array([[-1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(PatternMismatchError):
            laplacian_from_weights(W, PATH2)

    @given(n=st.integers(2, 7), extra=st.integers(0, 8), seed=st.integers(0, 10_000),
           faults=st.lists(st.tuples(st.sampled_from(FAULTS), st.integers(0, 10**6),
                                     st.sampled_from(FAULT_VALUES)), max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_verdict_and_message_match_dense_masks(self, n, extra, seed, faults):
        # the edge-list admission refuses exactly the matrices the dense masks
        # refuse, naming the same first fault; an admitted one gives the
        # Laplacian of its dense row sums
        g = random_connected_graph(n, min(n - 1 + extra, n * (n - 1) // 2), seed=seed)
        _check_weights_as_dense_masks(g, _perturbed_weights(g, seed, faults))

    def test_every_fault_and_every_near_zero_link_matches_dense_masks(self):
        # each fault kind with each value, on either side, and each link set
        # to a value and then changed on one side: the cases where a link's
        # two weights agree to 1e-12 but one of them is not positive
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2)])
        for kind in FAULTS:
            for value in FAULT_VALUES:
                for where in (0, 1, 5, 6):
                    W = _perturbed_weights(g, 0, [(kind, where, value)])
                    _check_weights_as_dense_masks(g, W)
        for first in FAULT_VALUES:
            for second in FAULT_VALUES:
                for where in (2, 3):
                    faults = [("link", 2, first), ("one side of a link", where, second)]
                    _check_weights_as_dense_masks(g, _perturbed_weights(g, 0, faults))

    @pytest.mark.parametrize("variant", [Variant.PGC, Variant.DPGA])
    def test_laplacians_have_the_bits_of_the_loop_over_links(self, variant):
        g = random_connected_graph(60, 150, seed=7)
        s = make_default(variant, g)
        if variant == Variant.PGC:
            L = loop_laplacian(g, lambda i, j: 2.0 * 0.5)
            H, d = L / 2.0, np.diag(L).copy()
        else:
            sc = float(np.sqrt(1.0 * 60 / (g.n_edges * min(loop_degrees(g)))))
            H = loop_laplacian(g, lambda i, j: sc / 2.0)
            d = sc * np.array([float(k) for k in loop_degrees(g)])
        assert s.exchange["H"].tobytes() == H.tobytes()
        assert s.d_prime.tobytes() == d.tobytes()


# ---------------------------------------------------------------------------
# make_setting: the six named parameterizations
# ---------------------------------------------------------------------------


class TestMakeSetting:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_all_variants_validate_on_svi_graph(self, variant):
        # a setting checks every standing assumption as it is built
        g = random_connected_graph(20, 40, seed=3)
        assert make_default(variant, g).variant is variant

    def test_duca_i_matrices(self):
        s = make_default(Variant.DUCA_I, TRIANGLE)
        M = TRIANGLE.metropolis
        np.testing.assert_allclose(s.P_H, M)
        np.testing.assert_allclose(s.P_Htilde, M)
        np.testing.assert_allclose(s.d_prime, 2.0 * np.diag(M))
        assert s.exchange_mode == "single"

    def test_duca_i_c_below_two_rejected(self):
        with pytest.raises(AssumptionViolatedError):
            make_setting(Variant.DUCA_I, TRIANGLE, rho=1.0, tuning={"c": 1.5})

    def test_pextra_matrices(self):
        s = make_setting(Variant.PEXTRA, TRIANGLE, rho=2.0)
        M = TRIANGLE.metropolis
        np.testing.assert_allclose(s.P_H, M / 2)
        np.testing.assert_allclose(s.P_Htilde, M / 2)
        np.testing.assert_allclose(s.d_prime, [2.0, 2.0, 2.0])

    def test_pgc_path2_exact(self):
        s = make_setting(Variant.PGC, PATH2, rho=1.0, tuning={"rho_prime": 1.0})
        np.testing.assert_allclose(2 * s.P_H, [[2.0, -2.0], [-2.0, 2.0]])
        np.testing.assert_allclose(s.d_prime, [2.0, 2.0])
        assert s.rho == 1.0

    def test_pgc_requires_rho_prime(self):
        with pytest.raises(MissingTuningError):
            make_setting(Variant.PGC, PATH2, rho=1.0)

    def test_pgc_rejects_rho_not_one(self):
        with pytest.raises(AssumptionViolatedError):
            make_setting(Variant.PGC, PATH2, rho=2.0, tuning={"rho_prime": 1.0})

    def test_dpga_requires_c(self):
        with pytest.raises(MissingTuningError):
            make_setting(Variant.DPGA, TRIANGLE, rho=1.0)

    def test_dpga_scaling(self):
        # triangle: N=3, |E|=3, min degree 2 -> s = sqrt(c*3/(3*2)) = sqrt(c/2)
        c = 1.0
        s = make_setting(Variant.DPGA, TRIANGLE, rho=1.0, tuning={"c": c})
        scale = np.sqrt(c / 2.0)
        assert s.P_H[0, 1] == pytest.approx(-scale / 2)
        np.testing.assert_allclose(s.d_prime, 2 * scale)

    def test_dist_admm_triangle_pd(self):
        s = make_default(Variant.DIST_ADMM, TRIANGLE)
        # each row of M has entries {2/3, -1/3, -1/3}; degrees all 2 so
        # d'_i = sum_j (deg_j + 1) M_ij^2 = 3*(4/9 + 1/9 + 1/9) = 2
        np.testing.assert_allclose(s.d_prime, 2.0)
        M = TRIANGLE.metropolis
        np.testing.assert_allclose(s.P_H, M @ M)
        np.testing.assert_allclose(s.P_Htilde, M @ M)
        assert s.exchange_mode == "double"

    def test_alt_factorization(self):
        s = make_default(Variant.ALT, TRIANGLE)
        M = TRIANGLE.metropolis
        W4 = np.eye(3) - M / 2
        np.testing.assert_allclose(s.P_H, np.eye(3) - W4 @ W4, atol=1e-14)
        np.testing.assert_allclose(s.P_Htilde, (np.eye(3) - W4) @ (np.eye(3) - W4), atol=1e-14)
        np.testing.assert_allclose(s.exchange["L"], M / 2)
        np.testing.assert_allclose(s.exchange["M"], 2 * np.eye(3) - M / 2)
        assert s.exchange_mode == "double"

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_exchange_keys_and_derived_forms(self, variant):
        # P_H and P_Htilde are derived from the exchanged matrices, with the
        # exact expressions the families are defined by
        g = random_connected_graph(9, 14, seed=2)
        s = make_default(variant, g)
        MG = g.metropolis
        W4 = np.eye(9) - MG / 2.0
        rho_prime, c = default_tuning(Variant.PGC)["rho_prime"], default_tuning(Variant.DPGA)["c"]
        scale = np.sqrt(c * 9 / (g.n_edges * min(loop_degrees(g))))
        edge = np.zeros((9, 9))
        rows, cols = np.array(g.edges).T
        edge[rows, cols] = edge[cols, rows] = 1.0
        expected = {
            Variant.DUCA_I: (MG, MG),
            Variant.PEXTRA: (MG / 2.0, MG / 2.0),
            Variant.PGC: ((laplacian_from_weights(2.0 * rho_prime * edge, g) / 2.0),) * 2,
            Variant.DPGA: (laplacian_from_weights(scale / 2.0 * edge, g),) * 2,
            Variant.DIST_ADMM: (MG @ MG, MG @ MG),
            Variant.ALT: ((np.eye(9) - W4) @ (np.eye(9) + W4),
                          (np.eye(9) - W4) @ (np.eye(9) - W4)),
        }[variant]
        if variant in (Variant.DIST_ADMM, Variant.ALT):
            assert set(s.exchange) == {"L", "M"}
            assert s.exchange_mode == "double"
            # DIST_ADMM exchanges L = M, so its L @ M is its L @ L: one matrix
            assert (s.P_Htilde is s.P_H) == (variant == Variant.DIST_ADMM)
        else:
            assert set(s.exchange) == {"H"}
            assert s.exchange_mode == "single"
            assert s.P_Htilde is s.P_H is s.exchange["H"]
        assert np.array_equal(s.P_H, expected[0])
        assert np.array_equal(s.P_Htilde, expected[1])

    @pytest.mark.parametrize("keys", [(), ("L",), ("M",), ("H", "L"), ("H", "L", "M"),
                                      ("P_H",)])
    def test_exchange_with_wrong_keys_rejected(self, keys):
        M = TRIANGLE.metropolis
        with pytest.raises(AssumptionViolatedError, match="exchange keys"):
            ParamSetting(variant=Variant.DUCA_I, graph=TRIANGLE,
                         exchange={k: M for k in keys}, d_prime=np.full(3, 2.0), rho=1.0)

    def test_graph_is_required(self):
        # the neighbor table reads the graph; there is no matrix-sparsity fallback
        with pytest.raises(TypeError, match="graph"):
            ParamSetting(variant=Variant.DUCA_I, exchange={"H": TRIANGLE.metropolis},
                         d_prime=np.full(3, 2.0), rho=1.0)

    def test_single_mode_cannot_carry_a_separate_phtilde(self):
        # the single-mode v-update applies H, which is P_Htilde only because
        # the setting has no other P_Htilde to hold
        s = make_default(Variant.PEXTRA, TRIANGLE)
        with pytest.raises(TypeError):
            dataclasses.replace(s, P_Htilde=0.5 * s.P_Htilde)

    @pytest.mark.parametrize("variant,key,value,error,message", [
        (Variant.DUCA_I, "c", float("nan"), AssumptionViolatedError, "DUCA_I needs c >= 2, got nan"),
        (Variant.DUCA_I, "c", float("inf"), AssumptionViolatedError, "not finite: d_prime"),
        (Variant.PGC, "rho_prime", float("nan"), MissingTuningError,
         "rho_prime must be finite and positive, got nan"),
        (Variant.PGC, "rho_prime", float("inf"), MissingTuningError,
         "rho_prime must be finite and positive, got inf"),
        (Variant.DPGA, "c", float("nan"), MissingTuningError, "c must be finite and positive, got nan"),
        (Variant.DPGA, "c", float("inf"), MissingTuningError, "c must be finite and positive, got inf"),
    ])
    def test_nan_and_inf_tuning_refused_by_name(self, variant, key, value, error, message):
        with pytest.raises(error, match=re.escape(message)):
            make_setting(variant, TRIANGLE, rho=1.0, tuning={key: value})

    def test_rejects_unknown_tuning_key(self):
        with pytest.raises(MissingTuningError):
            make_setting(Variant.PEXTRA, TRIANGLE, rho=1.0, tuning={"beta": 1.0})

    def test_rejects_nonpositive_rho(self):
        with pytest.raises(AssumptionViolatedError):
            make_setting(Variant.PEXTRA, TRIANGLE, rho=0.0)

    def test_rejects_negative_alpha(self):
        with pytest.raises(AssumptionViolatedError):
            make_setting(Variant.PEXTRA, TRIANGLE, rho=1.0, alpha=-0.1)

    def test_variant_accepts_string(self):
        s = make_setting("PEXTRA", TRIANGLE, rho=1.0)
        assert s.variant is Variant.PEXTRA

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    @pytest.mark.parametrize("seed", [0, 11])
    def test_psd_chain_random_graphs(self, variant, seed):
        g = random_connected_graph(9, 14, seed=seed)
        s = make_default(variant, g)
        for M in (s.P_H, s.P_Htilde, s.P_A, s.P_H - s.P_Htilde):
            assert np.linalg.eigvalsh(0.5 * (M + M.T))[0] >= -1e-9
        assert (s.d_prime > 0).all()


# ---------------------------------------------------------------------------
# standing assumptions, checked as every setting is built
# ---------------------------------------------------------------------------


def _hand_setting(**kw):
    M = TRIANGLE.metropolis
    base = dict(
        variant=Variant.DUCA_I,
        graph=TRIANGLE,
        exchange={"H": M},
        d_prime=2.0 * np.diag(M),
        rho=1.0,
    )
    base.update(kw)
    return ParamSetting(**base)


SEED42 = random_connected_graph(20, 40, seed=42)
BROKEN_SEED42 = ["rho=5", "19-entry d_prime", "off-graph weight"]


def _unlinked_pair(g):
    return next((i, j) for i in range(g.n_nodes) for j in range(i + 1, g.n_nodes)
                if j not in g.neighbor_lists[i])


def _broken_seed42(case):
    """The seed-42 DUCA_I setting, the fields that break it, and the named failure."""
    s = make_setting(Variant.DUCA_I, SEED42, rho=1.0)
    if case == "rho=5":
        return s, {"rho": 5.0}, "P_A = P_D - rho*P_H PSD (lam_min=-4.688e+00)"
    if case == "19-entry d_prime":
        return (s, {"d_prime": s.d_prime[:19]},
                "graph, exchange and d_prime shapes agree (N=20: d_prime (19,))")
    i, j = _unlinked_pair(SEED42)
    H = s.P_H.copy()
    H[i, j] = H[j, i] = -0.01
    return s, {"exchange": {"H": H}}, f"H weighs no unlinked agents (weight at [{i}, {j}])"


def _graph_with_stale_metropolis(case):
    """A 20-node graph whose cached Metropolis matrix belongs to another graph.

    make_setting builds its matrices from ``g.metropolis``, so this is how a
    caller of make_setting can hand it the 19-entry or the off-graph case.
    """
    if case == "19-entry d_prime":
        g, stale = SEED42, random_connected_graph(19, 38, seed=42).metropolis
    else:  # drop one edge that keeps the graph connected, keep its weights
        for drop in SEED42.edges:
            try:
                g = build_graph(20, [e for e in SEED42.edges if e != drop])
                break
            except DisconnectedError:
                continue
        stale = SEED42.metropolis
    g = dataclasses.replace(g)  # a fresh object, so SEED42's own cache stays right
    g.__dict__["metropolis"] = stale
    return g


class TestValidateSetting:
    @pytest.mark.parametrize("case", BROKEN_SEED42)
    def test_broken_setting_refused_when_built_or_replaced(self, case):
        s, bad, named = _broken_seed42(case)
        fields = {f.name: getattr(s, f.name) for f in dataclasses.fields(s)}
        with pytest.raises(AssumptionViolatedError, match=re.escape(named)):
            ParamSetting(**{**fields, **bad})
        with pytest.raises(AssumptionViolatedError, match=re.escape(named)):
            dataclasses.replace(s, **bad)

    @pytest.mark.parametrize("variant,dense_tests", [
        (Variant.DUCA_I, 1), (Variant.DIST_ADMM, 1), (Variant.ALT, 2)])
    def test_one_dense_symmetry_test_per_matrix_object(self, variant, dense_tests,
                                                       monkeypatch):
        # DIST_ADMM's P_H and P_Htilde are one object: one test, both verdict lines
        s = make_default(variant, SEED42)
        s.spectra
        shapes, real = [], np.abs
        monkeypatch.setattr(np, "abs", lambda x, *a, **kw: shapes.append(np.shape(x))
                            or real(x, *a, **kw))
        checks = _standing_checks(s)
        monkeypatch.undo()
        assert shapes == [(20, 20)] * dense_tests
        lines = [(name, bool(passed)) for name, passed, *_ in checks
                 if name.endswith(" symmetric")]
        forms = ["P_H"] if s.exchange_mode == "single" else ["P_H", "P_Htilde"]
        assert lines == [(form + " symmetric", True) for form in forms]

    @pytest.mark.parametrize("case", BROKEN_SEED42)
    def test_make_setting_refuses_the_broken_setting(self, case):
        if case == "rho=5":
            # d' = c rho diag(M): the rho=5 setting is c = 0.4, below the family's c >= 2
            with pytest.raises(AssumptionViolatedError, match="DUCA_I needs c >= 2, got 0.4"):
                make_setting(Variant.DUCA_I, SEED42, rho=5.0, tuning={"c": 0.4})
            return
        named = {"19-entry d_prime": "shapes agree (N=20: d_prime (19,), H (19, 19))",
                 "off-graph weight": "H weighs no unlinked agents"}[case]
        with pytest.raises(AssumptionViolatedError, match=re.escape(named)):
            make_setting(Variant.DUCA_I, _graph_with_stale_metropolis(case), rho=1.0)

    @given(seed=st.integers(0, 10_000), n=st.integers(3, 8),
           faults=st.lists(st.tuples(st.sampled_from(["off", "off, both sides", "link"]),
                                     st.integers(0, 10**6),
                                     st.sampled_from([0.0, -0.0, 5e-324, -0.01, 0.3])),
                           min_size=1, max_size=3))
    @example(seed=0, n=3, faults=[("link", 0, 0.0), ("off", 0, 0.3)])
    @settings(max_examples=100, deadline=None)
    def test_unlinked_weight_named_as_by_a_dense_mask(self, seed, n, faults):
        # the count over H refuses a weight between unlinked agents exactly
        # when the dense mask has one, and names the mask's first entry, also
        # when a zeroed link weight offsets an off-graph one in the count
        g = random_connected_graph(n, n - 1, seed=seed)  # a tree leaves pairs unlinked
        s = make_setting(Variant.DUCA_I, g, rho=1.0)
        H = s.P_H.copy()
        off = np.argwhere(unlinked_mask(g))
        for kind, where, value in faults:
            i, j = off[where % len(off)] if kind.startswith("off") else g.edges[where % g.n_edges]
            H[i, j] = value
            if kind == "off, both sides":
                H[j, i] = value
        bad = np.argwhere((H != 0) & unlinked_mask(g))
        try:
            dataclasses.replace(s, exchange={"H": H})
            refused = ""
        except AssumptionViolatedError as err:
            refused = str(err)
        named = re.findall(r"H weighs no unlinked agents \(weight at (\[\d+, \d+\])\)", refused)
        assert named == ([str(bad[0].tolist())] if len(bad) else [])

    def test_pd_too_small_fails_pa_psd(self):
        M = TRIANGLE.metropolis
        with pytest.raises(AssumptionViolatedError,
                           match=re.escape("P_A = P_D - rho*P_H PSD (lam_min=-")):
            _hand_setting(d_prime=0.1 * np.diag(M))

    def test_phtilde_bigger_than_ph_fails_order(self):
        # double mode with M = L/2: P_H - P_Htilde = L^2/2 - L^2 = -L^2/2
        L = TRIANGLE.metropolis
        with pytest.raises(AssumptionViolatedError,
                           match=re.escape("P_H >= P_Htilde (PSD order)")):
            _hand_setting(variant=Variant.DIST_ADMM, exchange={"L": L, "M": L / 2.0},
                          d_prime=np.full(3, 2.0))

    def test_wrong_nullspace_detected(self):
        bad = np.diag([1.0, 1.0, 0.0])  # null direction e3, not ones
        with pytest.raises(AssumptionViolatedError,
                           match="P_H null eigenvector is the ones direction"):
            _hand_setting(exchange={"H": bad}, d_prime=np.full(3, 2.0))

    def test_indefinite_ph_detected(self):
        bad = np.array([[0.0, 1.0, -1.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        with pytest.raises(AssumptionViolatedError, match=re.escape("P_H PSD (lam_min=-")):
            _hand_setting(exchange={"H": bad})

    def test_every_failed_condition_named_with_its_value(self):
        # rho < 0 and d' < 0 fail three conditions; one error names them all
        with pytest.raises(AssumptionViolatedError) as exc:
            _hand_setting(d_prime=np.full(3, -1.0), rho=-1.0, alpha=-0.5)
        lines = str(exc.value).splitlines()[1:]
        assert [line.strip() for line in lines] == [
            "P_D positive (min diag=-1.000e+00)",
            "P_A = P_D - rho*P_H PSD (lam_min=-1.000e+00)",
            "rho positive (rho=-1.0)",
            "alpha nonnegative (alpha=-0.5)",
        ]

    @pytest.mark.parametrize("field,value", [("rho", np.nan), ("alpha", np.inf),
                                             ("d_prime", np.array([2.0, np.nan, 2.0]))])
    def test_non_finite_entries_refused_before_decomposing(self, field, value, monkeypatch):
        for name in ("eigh", "eigvalsh"):  # any eigensolve would raise TypeError
            monkeypatch.setattr(np.linalg, name, None)
        with pytest.raises(AssumptionViolatedError, match=f"entries finite .not finite: {field}"):
            _hand_setting(**{field: value})

    def test_setting_is_frozen_and_replace_recomputes_spectra(self):
        # the spectra are cached per setting, so a setting cannot change
        # under them; a replaced setting gets its own
        s = make_default(Variant.DUCA_I, TRIANGLE)
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.exchange = {"H": 2.0 * s.P_H}
        # doubling d' with H keeps P_A PSD (it doubles too)
        s2 = dataclasses.replace(s, exchange={"H": 2.0 * s.P_H}, d_prime=2.0 * s.d_prime)
        assert s2.spectra is not s.spectra
        assert s2.spectra.eig_PHtilde[1] == pytest.approx(2.0 * s.spectra.eig_PHtilde[1])

    def test_settings_compare_and_hash_by_identity(self):
        # field-wise == would compare arrays and raise; hash would see an
        # ndarray field and raise TypeError
        s1 = make_default(Variant.DUCA_I, TRIANGLE)
        s2 = make_default(Variant.DUCA_I, TRIANGLE)
        assert s1 == s1 and s1 != s2
        assert len({s1, s2, s1}) == 2
        assert hash(s1) == hash(s1)


# ---------------------------------------------------------------------------
# spectral_quantities
# ---------------------------------------------------------------------------


def _w_star(s, v_rows):
    """The certificate's w* on setting ``s`` for v* = ``v_rows`` (zero column sums).

    Agent i's coupled equalities are x_i = 0 and the reference point has
    x*_i = v_rows[i], so the certificate's v* is ``v_rows``.
    """
    n, p = v_rows.shape
    pb = from_agent_data(P=[np.zeros((p, p))] * n, Q=[np.zeros(p)] * n, a=[np.zeros(p)] * n,
                         c=[1e6] * n, a_prime=[np.zeros((0, p))] * n, c_prime=[np.zeros(0)] * n,
                         B=[np.eye(p)] * n, c_eq=[np.zeros(p)] * n, l1_weight=0.0)
    core = CertificateCore(x_star=StackedPoint.from_rows(v_rows, pb.dims), f_star=0.0,
                           y_star=np.zeros(p), stationarity=0.0, feasibility=0.0,
                           complementarity=0.0, outer_iters=0)
    cert = make_certificate(core, pb, s)
    assert np.abs(cert.v_star - v_rows).max() <= 1e-15
    return cert.w_star


class TestSpectralQuantities:
    def test_path2_pextra_pinv(self):
        s = make_setting(Variant.PEXTRA, PATH2, rho=1.0)
        # P_Htilde = M/2 = [[1/4, -1/4], [-1/4, 1/4]]; eigen 0 and 1/2, and
        # its pseudo-inverse [[1, -1], [-1, 1]] takes v* = (1, -1) to w* = (2, -2)
        q = spectral_quantities(s)
        assert q.eig_PHtilde[1] == pytest.approx(0.5)
        assert q.ones_resid_PHtilde <= 1e-16
        np.testing.assert_allclose(_w_star(s, np.array([[1.0], [-1.0]])), [[2.0], [-2.0]],
                                   atol=1e-12)

    def test_path2_laplacian_pinv(self):
        # PGC with rho_prime=1 on the 2-path gives P_Htilde = [[1,-1],[-1,1]],
        # eigenvalues {0, 2}, pseudo-inverse (1/4)[[1,-1],[-1,1]].
        s = make_setting(Variant.PGC, PATH2, rho=1.0, tuning={"rho_prime": 1.0})
        np.testing.assert_allclose(s.P_Htilde, [[1.0, -1.0], [-1.0, 1.0]])
        q = spectral_quantities(s)
        assert q.eig_PHtilde[1] == pytest.approx(2.0)
        np.testing.assert_allclose(_w_star(s, np.array([[1.0], [-1.0]])), [[0.5], [-0.5]],
                                   atol=1e-12)

    def test_triangle_metropolis_second_eigenvalue(self):
        # On the triangle the Metropolis matrix is I - J/3: eigenvalues {0, 1, 1}.
        s = make_setting(Variant.DUCA_I, TRIANGLE, rho=1.0)
        q = spectral_quantities(s)
        assert q.eig_PHtilde[1] == pytest.approx(1.0)

    def test_pinv_identity_on_range(self):
        # on the range of P_Htilde (zero column sums) w* is the pseudo-inverse
        # image: P_Htilde w* = v* and 1^T w* = 0
        g = random_connected_graph(8, 12, seed=5)
        s = make_default(Variant.DIST_ADMM, g)
        v = np.random.default_rng(5).standard_normal((8, 3))
        v -= v.mean(axis=0)
        w = _w_star(s, v)
        np.testing.assert_allclose(s.P_Htilde @ w, v, atol=1e-9)
        assert np.abs(w.sum(axis=0)).max() <= 1e-12
        np.testing.assert_allclose(w, np.linalg.pinv(s.P_Htilde) @ v, atol=1e-9)

    @given(n=st.integers(2, 40), extra=st.integers(0, 60), seed=st.integers(0, 10_000))
    @example(n=500, extra=501, seed=42)
    @settings(max_examples=40, deadline=None)
    def test_dist_admm_spectrum_is_the_squared_metropolis_spectrum(self, n, extra, seed):
        # DIST_ADMM's P_H = P_Htilde = M @ M is not decomposed: its spectrum is
        # the sorted squares of the graph's one Metropolis spectrum
        g = random_connected_graph(n, min(n - 1 + extra, n * (n - 1) // 2), seed=seed)
        sp = make_default(Variant.DIST_ADMM, g).spectra
        ref = np.linalg.eigvalsh(_sym(g.metropolis @ g.metropolis))
        assert sp.eig_PH is sp.eig_PHtilde
        assert np.all(np.abs(sp.eig_PHtilde - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    @pytest.mark.parametrize("variant", [Variant.DUCA_I, Variant.DIST_ADMM])
    def test_set_up_bits_match_a_dense_reference(self, variant):
        # N = 60: M, d', lambda_1(P_A) and w* built from the links by a loop and
        # solved densely, bit for bit
        n = 60
        g = random_connected_graph(n, 150, seed=7)
        s = make_default(variant, g)
        M = loop_metropolis(g)
        if variant == Variant.DUCA_I:
            P_H, d = M, 2.0 * 1.0 * np.diag(M)
        else:
            P_H = M @ M
            d = (M**2) @ np.array([k + 1.0 for k in loop_degrees(g)])
        P_A = np.diag(d) - 1.0 * P_H
        v = np.random.default_rng(7).standard_normal((n, 3))
        v -= v.mean(axis=0)
        assert g.metropolis.tobytes() == M.tobytes()
        assert s.d_prime.tobytes() == d.tobytes()
        assert s.spectra.lam1_PA == max(float(np.linalg.eigvalsh(0.5 * (P_A + P_A.T))[-1]), 0.0)
        v_star = v - v.mean(axis=0)  # the certificate's closed form for v*
        assert _w_star(s, v).tobytes() == np.linalg.solve(P_H + 1.0 / n, v_star).tobytes()

    def test_lam1_pa_matches_eigh(self):
        g = random_connected_graph(12, 20, seed=9)
        for variant in ALL_VARIANTS:
            s = make_default(variant, g)
            lam = np.linalg.eigvalsh(0.5 * (s.P_A + s.P_A.T))[-1]
            assert spectral_quantities(s).lam1_PA == pytest.approx(max(lam, 0.0))


# ---------------------------------------------------------------------------
# eigenvalue-only set-up against the all-eigh reference
# ---------------------------------------------------------------------------


def _unchecked(s, **fields):
    """``s`` with ``fields`` replaced, built without its standing checks."""
    t = object.__new__(ParamSetting)
    for f in dataclasses.fields(ParamSetting):
        object.__setattr__(t, f.name, fields.get(f.name, getattr(s, f.name)))
    return t


def _broken(case, g):
    """A family, the fields that break its setting on g, and a check that must fail.

    Every broken matrix keeps g's sparsity.  ``D M D`` with a non-constant
    diagonal D has the null direction D^-1 1, not the ones direction.
    """
    n = g.n_nodes
    MG = g.metropolis
    D = np.diag(np.linspace(0.5, 1.0, n))
    skewed = D @ MG @ D / 2.0  # eigenvalues in [0, 1)
    i, j = g.edges[0]
    e = np.zeros(n)
    e[i], e[j] = 1.0, -1.0
    ones_check = "P_H null eigenvector is the ones direction"
    return {
        "wrong nullspace, single": (Variant.DUCA_I, {"exchange": {"H": skewed}}, ones_check),
        # ALT's form: P_H = L (2I - L), P_Htilde = L^2
        "wrong nullspace, double": (
            Variant.ALT, {"exchange": {"L": skewed, "M": 2.0 * np.eye(n) - skewed}}, ones_check),
        "indefinite P_H, single": (
            Variant.DUCA_I, {"exchange": {"H": MG - 3.0 * np.outer(e, e)}}, "P_H PSD"),
        "indefinite P_H, double": (
            Variant.ALT, {"exchange": {"L": MG / 2.0, "M": -MG / 2.0}}, "P_H PSD"),
        "reversed PSD order": (
            Variant.DIST_ADMM, {"exchange": {"L": MG, "M": MG / 2.0}},
            "P_H >= P_Htilde (PSD order)"),
    }[case]


BROKEN_CASES = ["wrong nullspace, single", "wrong nullspace, double",
                "indefinite P_H, single", "indefinite P_H, double", "reversed PSD order"]


class TestEigenvalueOnlyChecks:
    @given(n=st.integers(2, 8), extra=st.integers(0, 21), seed=st.integers(0, 2**31 - 1),
           case=st.sampled_from(ALL_VARIANTS + BROKEN_CASES))
    @settings(max_examples=150, deadline=None)
    def test_verdicts_and_eigenvalues_match_the_eigh_reference(self, n, extra, seed, case):
        g = random_connected_graph(n, min(n - 1 + extra, n * (n - 1) // 2), seed=seed)
        if case in BROKEN_CASES:
            variant, fields, must_fail = _broken(case, g)
        else:
            variant, fields, must_fail = case, {}, None
        base = make_default(variant, g)
        s = _unchecked(base, **fields)
        want, want_verdicts = eigh_reference(s)
        verdicts = {name: bool(passed) for name, passed, *_ in _standing_checks(s)}
        assert verdicts == want_verdicts
        assert (must_fail is None) == all(verdicts.values())
        if must_fail is not None:
            assert not verdicts[must_fail]
            with pytest.raises(AssumptionViolatedError, match=re.escape(must_fail)):
                dataclasses.replace(base, **fields)
        sp = s.spectra
        assert sp.lam1_PA == pytest.approx(want["lam1_PA"], rel=1e-12, abs=1e-12)
        for name in ("eig_PH", "eig_PHtilde", "eig_PA", "eig_order"):
            got, ref = getattr(sp, name), want[name]
            if ref is None:
                assert got is None
            else:
                scale = max(1.0, float(np.abs(ref).max()))
                np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12 * scale)
