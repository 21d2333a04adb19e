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
    gft,
    igft,
    n_components,
    normalized_laplacian,
    perturb_graph,
)

from oracles import adjacency_oracle, component_count


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
            assert np.array_equal(g.adjacency, np.array(ref).reshape(n, n))
            assert g.edges == canonical

    def test_single_edge_symmetric(self):
        g = build_graph(2, [(0, 1, 1.0)])
        assert g.adjacency[0, 1] == 1.0 and g.adjacency[1, 0] == 1.0

    def test_empty(self):
        g = build_graph(3, [])
        assert np.all(g.adjacency == 0.0)
        assert n_components(g) == 3

    def test_cycle_degrees(self):
        g = build_graph(4, cycle_edges(4))
        assert np.allclose(g.degrees(), 2.0)

    def test_duplicate_last_wins(self):
        g = build_graph(3, [(0, 1, 1.0), (0, 1, 5.0)])
        assert g.adjacency[0, 1] == 5.0

    def test_max_of_directions(self):
        g = build_graph(3, [(0, 1, 1.0), (1, 0, 4.0)])
        assert g.adjacency[0, 1] == 4.0 and g.adjacency[1, 0] == 4.0

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
            expected = component_count(g.adjacency.tolist())
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
        c = gft(basis, basis.eigenvectors[:, 2])
        expected = np.zeros(10)
        expected[2] = 1.0
        assert np.allclose(c, expected, atol=1e-12)

    def test_constant_signal_on_regular_graph(self):
        basis = eigendecompose(normalized_laplacian(build_graph(4, cycle_edges(4))))
        c = gft(basis, np.ones(4))
        assert np.abs(c[basis.eigenvalues > 1e-9]).max() < 1e-12

    def test_roundtrip_and_parseval(self):
        g = random_graph(50, 0.2, 9)
        basis = eigendecompose(normalized_laplacian(g))
        rng = np.random.default_rng(0)
        x = rng.standard_normal(50)
        c = gft(basis, x)
        assert np.abs(igft(basis, c) - x).max() < 1e-10
        assert abs(np.linalg.norm(c) - np.linalg.norm(x)) < 1e-10

    def test_length_mismatch(self):
        basis = eigendecompose(np.eye(3))
        with pytest.raises(ValueError):
            gft(basis, np.ones(4))
        with pytest.raises(ValueError):
            igft(basis, np.ones(2))


class TestPerturb:
    def test_ratio_zero_identical(self):
        g = build_graph(10, cycle_edges(10))
        g2 = perturb_graph(g, 0.0, "add", seed=1)
        assert np.array_equal(g.adjacency, g2.adjacency)

    def test_k2_add_exhausted(self):
        g = build_graph(2, [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            perturb_graph(g, 1.0, "add", seed=1)

    def test_cycle_add_count(self):
        g = build_graph(10, cycle_edges(10))
        g2 = perturb_graph(g, 0.2, "add", seed=5)
        assert len(g2.edges) == len(g.edges) + 2
        g3 = perturb_graph(g, 0.2, "add", seed=5)
        assert np.array_equal(g2.adjacency, g3.adjacency)

    def test_remove_count(self):
        g = build_graph(10, cycle_edges(10))
        g2 = perturb_graph(g, 0.3, "remove", seed=2)
        assert len(g2.edges) == len(g.edges) - 3

    def test_both_keeps_edge_count(self):
        g = build_graph(12, cycle_edges(12))
        g2 = perturb_graph(g, 0.25, "both", seed=3)
        assert len(g2.edges) == len(g.edges)
        assert not np.array_equal(g2.adjacency, g.adjacency)

    def test_seed_changes_outcome(self):
        g = build_graph(12, cycle_edges(12))
        a = perturb_graph(g, 0.5, "add", seed=1).adjacency
        b = perturb_graph(g, 0.5, "add", seed=2).adjacency
        assert not np.array_equal(a, b)

    def test_errors(self):
        g = build_graph(4, cycle_edges(4))
        with pytest.raises(ValueError):
            perturb_graph(g, 1.5, "add", seed=0)
        with pytest.raises(ValueError):
            perturb_graph(g, 0.5, "sideways", seed=0)
        with pytest.raises(ValueError):
            perturb_graph(build_graph(3, []), 0.5, "remove", seed=0)
