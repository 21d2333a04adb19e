"""Tests for graph construction and spectral operations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracgcl.graphs import (
    Graph,
    build_graph,
    eigendecompose,
    laplacian_rows,
    normalized_laplacian,
)

from conftest import integer_edge_lists, traced_peak
from oracles import (
    adjacency_oracle,
    component_count,
    dense_adjacency,
    laplacian_oracle,
)


def cycle_edges(n):
    return [(i, (i + 1) % n, 1.0) for i in range(n)]


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = [
        (i, j, 1.0) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


@st.composite
def edge_lists(draw):
    """(n, edges) with duplicates, both directions, self-loops and zero
    weights; some lists also carry up to two invalid edges."""
    n = draw(st.integers(1, 5))
    node = st.integers(0, n - 1)
    weight = st.sampled_from([0.0, 0.5, 1.0, 2.5])
    edges = draw(st.lists(st.tuples(node, node, weight), max_size=24))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        bad = draw(
            st.one_of(
                st.tuples(st.sampled_from([-1, n, n + 3]), node, weight),
                st.tuples(node, st.sampled_from([-1, n]), weight),
                st.tuples(node, node, st.sampled_from([-1.0, math.nan, math.inf])),
            )
        )
        edges.insert(draw(st.integers(0, len(edges))), bad)
    return n, edges


class TestBuildGraph:
    @settings(max_examples=300, deadline=None)
    @given(case=edge_lists())
    def test_matches_dict_loop_oracle(self, case):
        n, edges = case
        forms = (edges, np.array(edges, dtype=float).reshape(-1, 3))
        try:
            ref = adjacency_oracle(n, edges)
        except ValueError as exc:
            first_bad = str(exc).split(":")[0]  # "edge k"
            for form in forms:
                with pytest.raises(ValueError, match=rf"^{first_bad}: "):
                    build_graph(n, form)
            return
        canonical = tuple(
            (i, j, ref[i][j]) for i in range(n) for j in range(i, n) if ref[i][j] > 0.0
        )
        for form in forms:
            g = build_graph(n, form)
            assert np.array_equal(dense_adjacency(g), np.array(ref).reshape(n, n))
            assert g.edges == canonical

    def test_single_edge_symmetric(self):
        g = build_graph(2, [(0, 1, 1.0)])
        assert g.edges == ((0, 1, 1.0),)

    def test_empty(self):
        g = build_graph(3, [])
        assert g.n_nodes == 3 and g.edges == ()

    def test_cycle_degrees(self):
        g = build_graph(4, cycle_edges(4))
        assert np.allclose(g.degrees(), 2.0)

    def test_self_loop_counts_once_in_degree(self):
        g = build_graph(3, [(0, 0, 2.0), (1, 0, 1.0)])
        assert g.degrees().tolist() == [3.0, 1.0, 0.0]

    def test_edge_arrays_are_canonical(self):
        g = build_graph(4, [(3, 1, 2.0), (0, 2, 0.0), (2, 2, 1.0), (1, 0, 1.0)])
        assert g.src.tolist() == [0, 1, 2] and g.dst.tolist() == [1, 3, 2]
        assert g.weight.tolist() == [1.0, 2.0, 1.0]

    def test_duplicate_last_wins(self):
        g = build_graph(3, [(0, 1, 1.0), (0, 1, 5.0)])
        assert g.edges == ((0, 1, 5.0),)

    def test_max_of_directions(self):
        g = build_graph(3, [(0, 1, 1.0), (1, 0, 4.0)])
        assert g.edges == ((0, 1, 4.0),)

    def test_equality_is_identity(self):
        # the generated field-wise __eq__ raised on array fields
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        copy = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        assert g == g and not g == copy and g != copy
        basis = eigendecompose(normalized_laplacian(g))
        assert basis == basis and basis != eigendecompose(normalized_laplacian(copy))

    def test_errors(self):
        with pytest.raises(ValueError):
            build_graph(2, [(0, 2, 1.0)])
        with pytest.raises(ValueError):
            build_graph(2, [(0, 1, -1.0)])


class TestNormalizedLaplacian:
    def test_k2_spectrum(self):
        lap = normalized_laplacian(build_graph(2, [(0, 1, 1.0)]))
        vals = np.linalg.eigvalsh(lap)
        assert np.allclose(sorted(vals), [0.0, 2.0], atol=1e-12)

    def test_edgeless_is_identity(self):
        lap = normalized_laplacian(build_graph(3, []))
        assert np.allclose(lap, np.eye(3))

    def test_four_cycle_spectrum(self):
        # circulant formula 1 - cos(2 pi k / 4) -> {0, 1, 1, 2}
        lap = normalized_laplacian(build_graph(4, cycle_edges(4)))
        assert np.allclose(sorted(np.linalg.eigvalsh(lap)), [0.0, 1.0, 1.0, 2.0], atol=1e-12)

    def test_psd_and_symmetric(self):
        for seed in range(3):
            g = random_graph(15, 0.3, seed)
            lap = normalized_laplacian(g)
            assert np.array_equal(lap, lap.T)
            assert np.linalg.eigvalsh(lap).min() > -1e-12

    def test_eigenvalue_range(self):
        for seed in range(5):
            g = random_graph(20, 0.25, 100 + seed)
            vals = np.linalg.eigvalsh(normalized_laplacian(g))
            assert vals.min() > -1e-12 and vals.max() < 2.0 + 1e-12

    @settings(max_examples=300, deadline=None)
    @given(case=integer_edge_lists())
    def test_matches_dense_oracle_byte_for_byte(self, case):
        # the -0.0 in every pair without an edge included
        n, edges = case
        lap = normalized_laplacian(build_graph(n, edges))
        assert lap.tobytes() == laplacian_oracle(adjacency_oracle(n, edges)).tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_real_weights_within_4_ulp_of_dense_oracle(self, seed):
        # degrees are summed in another order than the oracle's row sums; the
        # gap grows with the degree (6 ulp seen on 30 nodes of degree ~13)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        nodes = rng.integers(0, n, (2, 3 * n))
        edges = np.column_stack((*nodes, rng.random(3 * n)))
        lap = normalized_laplacian(build_graph(n, edges))
        ref = laplacian_oracle(adjacency_oracle(n, edges))
        # the diagonal's unit is the 1 in 1 - s w s, not the cancelled result
        assert np.all(np.abs(lap - ref) <= 4 * np.spacing(np.abs(ref) + np.eye(n)))

    def test_one_dense_allocation(self):
        n = 1500
        rng = np.random.default_rng(3)
        src, dst = np.triu_indices(n, 1)
        hit = rng.random(len(src)) < 0.06
        g = build_graph(n, np.column_stack((src[hit], dst[hit], np.ones(hit.sum()))))
        _, peak = traced_peak(lambda: normalized_laplacian(g))
        edge_bytes = g.src.nbytes + g.dst.nbytes + g.weight.nbytes
        assert peak < 1.25 * n * n * 8 + edge_bytes


def scattered(rows):
    """The entries of LaplacianRows written onto an identity of -0.0 pairs."""
    n = rows.shape[0]
    dense = np.full((n, n), -0.0)
    np.fill_diagonal(dense, 1.0)
    dense[np.repeat(np.arange(n), np.diff(rows.indptr)), rows.cols] += rows.vals
    return dense


class TestLaplacianRows:
    @settings(max_examples=300, deadline=None)
    @given(case=integer_edge_lists())
    def test_entries_match_normalized_laplacian_byte_for_byte(self, case):
        # self-loops and isolated nodes included; a self-loop's 1 + term is
        # written as the dense form writes it
        n, edges = case
        g = build_graph(n, edges)
        rows = laplacian_rows(g)
        assert scattered(rows).tobytes() == normalized_laplacian(g).tobytes()
        # each edge once per direction, a self-loop once, sorted by (row, col)
        off = g.src != g.dst
        keys = np.concatenate((g.src * n + g.dst, g.dst[off] * n + g.src[off]))
        row_of = np.repeat(np.arange(n), np.diff(rows.indptr))
        assert np.array_equal(row_of * n + rows.cols, np.sort(keys))

    @pytest.mark.parametrize("width", [None, 1, 8])
    def test_product_matches_dense(self, width):
        # measured 1.8e-15 on the benchmark pipeline's graph (n = 2000, F = 8)
        rng = np.random.default_rng(5)
        n = 300
        src, dst = rng.integers(0, n - 20, (2, 6000))  # the last 20 nodes isolated
        g = build_graph(n, np.column_stack((src, dst, rng.random(6000))))
        y = rng.normal(size=(n,) if width is None else (n, width))
        got = laplacian_rows(g) @ y
        assert got.shape == y.shape
        assert np.abs(got - normalized_laplacian(g) @ y).max() < 1e-14 * np.abs(y).max()
        assert np.array_equal(got[n - 20 :], y[n - 20 :])

    def test_edgeless_is_identity(self):
        y = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(laplacian_rows(build_graph(3, [])) @ y, y)

    def test_shape_mismatch_rejected(self):
        rows = laplacian_rows(build_graph(3, [(0, 1, 1.0)]))
        assert rows.shape == (3, 3)
        with pytest.raises(ValueError, match="cannot multiply"):
            rows @ np.ones((4, 2))

    def test_no_dense_allocation(self):
        # test_one_dense_allocation's graph: the dense form takes n x n x 8 bytes
        n = 1500
        rng = np.random.default_rng(3)
        src, dst = np.triu_indices(n, 1)
        hit = rng.random(len(src)) < 0.06
        g = build_graph(n, np.column_stack((src[hit], dst[hit], np.ones(hit.sum()))))
        # measured 2.3 times the rows it builds, and 0.09 n x n x 8 bytes per
        # product; the dense form is 8.4 times the rows
        rows, peak = traced_peak(lambda: laplacian_rows(g))
        assert peak < 3 * (rows.cols.nbytes + rows.vals.nbytes) < n * n * 8 / 2
        _, peak = traced_peak(lambda: rows @ rng.normal(size=(n, 8)))
        assert peak < n * n * 8 / 4


class TestEigendecompose:
    def test_identity_input(self):
        basis = eigendecompose(np.eye(4))
        assert np.allclose(basis.eigenvalues, 1.0)
        # sign rule keeps the standard basis vectors positive
        assert np.allclose(np.abs(basis.eigenvectors), np.eye(4))
        assert basis.eigenvectors.max() == 1.0

    def test_k2_null_vector(self):
        basis = eigendecompose(normalized_laplacian(build_graph(2, [(0, 1, 1.0)])))
        assert basis.eigenvalues[0] == 0.0
        assert np.allclose(basis.eigenvectors[:, 0], [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_k2_tie_breaks_to_lowest_index(self):
        # both entries of the second eigenvector have the same magnitude, so
        # the lower index decides the sign
        basis = eigendecompose(normalized_laplacian(build_graph(2, [(0, 1, 1.0)])))
        col = basis.eigenvectors[:, 1]
        assert abs(col[0]) == abs(col[1])
        assert col[0] > 0.0 > col[1]

    def test_orthonormal_and_reconstructs(self):
        g = random_graph(20, 0.3, 7)
        lap = normalized_laplacian(g)
        basis = eigendecompose(lap)
        U, lam = basis.eigenvectors, basis.eigenvalues
        assert np.abs(U.T @ U - np.eye(20)).max() < 1e-8
        assert np.abs(U @ np.diag(lam) @ U.T - lap).max() < 1e-8

    def test_sign_convention(self):
        for seed in range(4):
            basis = eigendecompose(normalized_laplacian(random_graph(12, 0.4, seed)))
            for i in range(12):
                col = basis.eigenvectors[:, i]
                assert col[int(np.argmax(np.abs(col)))] > 0.0

    def test_zero_multiplicity_matches_bfs(self):
        # spectral component count versus an independent BFS oracle
        cases = [
            random_graph(18, 0.05, 3),
            random_graph(18, 0.3, 4),
            build_graph(9, cycle_edges(4) + [(5, 6, 1.0), (7, 8, 2.0)]),
        ]
        for g in cases:
            basis = eigendecompose(normalized_laplacian(g))
            n_zero = int(np.sum(np.abs(basis.eigenvalues) < 1e-9))
            expected = component_count(dense_adjacency(g).tolist())
            # isolated nodes sit at eigenvalue 1 under the identity-row
            # convention, so only count components that contain an edge
            isolated = int(np.sum(g.degrees() == 0.0))
            assert n_zero == expected - isolated

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            eigendecompose(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize(
        "upper, lower, accepted",
        [(0.5 + 2e-10, 0.5, False), (0.5 + 5e-11, 0.5, True), (math.nan, math.nan, False)],
    )
    def test_symmetry_bound(self, upper, lower, accepted):
        # the off-diagonal gap is checked against an absolute 1e-10
        lap = np.array([[1.0, upper], [lower, 1.0]])
        if accepted:
            assert eigendecompose(lap).n == 2
        else:
            with pytest.raises(ValueError, match="symmetric"):
                eigendecompose(lap)


class TestFourier:
    def test_basis_vector_maps_to_indicator(self):
        basis = eigendecompose(normalized_laplacian(random_graph(10, 0.4, 1)))
        c = basis.eigenvectors.T @ basis.eigenvectors[:, 2]
        expected = np.zeros(10)
        expected[2] = 1.0
        assert np.allclose(c, expected, atol=1e-12)

    def test_constant_signal_on_regular_graph(self):
        basis = eigendecompose(normalized_laplacian(build_graph(4, cycle_edges(4))))
        c = basis.eigenvectors.T @ np.ones(4)
        assert np.abs(c[basis.eigenvalues > 1e-9]).max() < 1e-12

    def test_roundtrip_and_parseval(self):
        g = random_graph(50, 0.2, 9)
        basis = eigendecompose(normalized_laplacian(g))
        rng = np.random.default_rng(0)
        x = rng.standard_normal(50)
        c = basis.eigenvectors.T @ x
        assert np.abs(basis.eigenvectors @ c - x).max() < 1e-10
        assert abs(np.linalg.norm(c) - np.linalg.norm(x)) < 1e-10

