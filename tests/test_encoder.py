"""Encoder and bank behaviour: forward pass, smoothing, view combination."""

import numpy as np
import pytest

from conftest import (
    operator_of,
    random_connected_graph,
    sbm_connected_graph,
    traced_peak,
)
from fracgcl import data, solver
from fracgcl.encoder import (
    EncoderBank,
    EncoderParams,
    ViewEmbedding,
    bank_forward,
    combine_views,
    encoder_forward,
    init_bank,
    init_encoder_params,
)
from fracgcl.graphs import LaplacianRows, build_graph, laplacian_rows
from fracgcl.solver import _diffusion_filter
from fracgcl.special import ml, ml_spectrum
from fracgcl.training import TrainConfig


def pca_effective_rank(y, theta=0.9):
    """Local oracle: smallest k whose top-k PCA mass reaches theta."""
    centered = y - y.mean(axis=0, keepdims=True)
    evals = np.linalg.eigvalsh(np.cov(centered, rowvar=False))
    evals = np.sort(evals)[::-1]
    total = evals.sum()
    running = 0.0
    for k, v in enumerate(evals, start=1):
        running += v
        if running >= theta * total:
            return k
    return len(evals)


class TestParamTypes:
    def test_alpha_range_enforced(self):
        w = np.eye(3)
        with pytest.raises(ValueError):
            EncoderParams(weights=w, alpha=0.0, horizon=1.0)
        with pytest.raises(ValueError):
            EncoderParams(weights=w, alpha=1.5, horizon=1.0)

    def test_horizon_positive(self):
        with pytest.raises(ValueError):
            EncoderParams(weights=np.eye(2), alpha=0.5, horizon=0.0)

    def test_nonfinite_weights_rejected(self):
        w = np.eye(2)
        w[0, 0] = np.nan
        with pytest.raises(ValueError):
            EncoderParams(weights=w, alpha=0.5, horizon=1.0)

    def test_bank_needs_two(self):
        p = EncoderParams(weights=np.eye(2), alpha=0.5, horizon=1.0)
        with pytest.raises(ValueError):
            EncoderBank(encoders=(p,))
        with pytest.raises(ValueError):
            EncoderBank(encoders=())

    def test_bank_orders_ascending(self):
        lo = EncoderParams(weights=np.eye(2), alpha=0.2, horizon=1.0)
        hi = EncoderParams(weights=np.eye(2), alpha=0.8, horizon=1.0)
        bank = EncoderBank(encoders=(lo, hi))
        assert bank.alphas == [0.2, 0.8]
        with pytest.raises(ValueError):
            EncoderBank(encoders=(hi, lo))

    def test_init_width_never_shrinks(self):
        rng = np.random.default_rng(0)
        p = init_encoder_params(8, 4, 0.5, 1.0, rng)
        assert p.weights.shape == (8, 8)
        p = init_encoder_params(4, 8, 0.5, 1.0, rng)
        assert p.weights.shape == (4, 8)

    def test_init_scale(self):
        rng = np.random.default_rng(1)
        p = init_encoder_params(16, 16, 0.5, 1.0, rng)
        assert np.max(np.abs(p.weights)) <= 1.0 / 4.0


class TestForward:
    def test_vanishing_horizon_is_identity(self):
        g = random_connected_graph(8, 0.4, seed=3)
        basis = operator_of(g, "basis")
        rng = np.random.default_rng(5)
        x = rng.normal(size=(8, 8))
        p = EncoderParams(weights=np.eye(8), alpha=1.0, horizon=1e-9)
        out = encoder_forward(basis, x, p, activation="identity")
        assert np.max(np.abs(out.matrix - x)) < 1e-6

    def test_identical_params_identical_output(self):
        g = random_connected_graph(8, 0.4, seed=3)
        basis = operator_of(g, "basis")
        rng = np.random.default_rng(7)
        x = rng.normal(size=(8, 5))
        w = rng.normal(size=(5, 5))
        p1 = EncoderParams(weights=w, alpha=0.6, horizon=2.0)
        p2 = EncoderParams(weights=w.copy(), alpha=0.6, horizon=2.0)
        y1 = encoder_forward(basis, x, p1).matrix
        y2 = encoder_forward(basis, x, p2).matrix
        assert np.array_equal(y1, y2)

    def test_constant_frequency_passes_untouched(self):
        # e_alpha(0, T) = 1, so input in the lambda=0 direction is preserved
        g = random_connected_graph(10, 0.4, seed=9)
        basis = operator_of(g, "basis")
        rng = np.random.default_rng(11)
        u1 = basis.eigenvectors[:, 0]
        w_row = rng.normal(size=4)
        x = np.outer(u1, w_row)
        weights = rng.normal(size=(4, 4))
        for alpha in (0.1, 0.5, 1.0):
            p = EncoderParams(weights=weights, alpha=alpha, horizon=3.0)
            out = encoder_forward(basis, x, p, activation="identity")
            assert np.max(np.abs(out.matrix - x @ weights)) < 1e-10

    def test_preactivation_linearity(self):
        g = random_connected_graph(9, 0.4, seed=13)
        basis = operator_of(g, "basis")
        rng = np.random.default_rng(17)
        xa = rng.normal(size=(9, 6))
        xb = rng.normal(size=(9, 6))
        p = EncoderParams(weights=rng.normal(size=(6, 6)), alpha=0.4, horizon=2.0)

        def fwd(x):
            return encoder_forward(basis, x, p, activation="identity").matrix

        lhs = fwd(2.0 * xa - 3.0 * xb)
        rhs = 2.0 * fwd(xa) - 3.0 * fwd(xb)
        assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_frequency_energy_ratio_nonincreasing(self):
        g = random_connected_graph(10, 0.4, seed=19)
        basis = operator_of(g, "basis")
        rng = np.random.default_rng(23)
        x = rng.normal(size=(10, 7))
        p = EncoderParams(weights=np.eye(7), alpha=0.5, horizon=4.0)
        out = encoder_forward(basis, x, p, activation="identity").matrix
        spec_in = np.linalg.norm(basis.eigenvectors.T @ x, axis=1)
        spec_out = np.linalg.norm(basis.eigenvectors.T @ out, axis=1)
        ratios = spec_out / spec_in
        assert np.all(np.diff(ratios) <= 1e-12)
        # and each ratio is the scalar relaxation value for its frequency
        expected = [ml(0.5, lam, 4.0) for lam in basis.eigenvalues]
        assert np.max(np.abs(ratios - expected)) < 1e-10

    def test_relu_default(self):
        g = random_connected_graph(8, 0.4, seed=29)
        basis = operator_of(g, "basis")
        rng = np.random.default_rng(31)
        x = rng.normal(size=(8, 4))
        p = EncoderParams(weights=rng.normal(size=(4, 4)), alpha=0.7, horizon=1.0)
        out = encoder_forward(basis, x, p)
        assert np.min(out.matrix) >= 0.0

    def test_dimension_errors(self):
        g = random_connected_graph(8, 0.4, seed=29)
        basis = operator_of(g, "basis")
        p = EncoderParams(weights=np.eye(4), alpha=0.7, horizon=1.0)
        with pytest.raises(ValueError):
            encoder_forward(basis, np.zeros((8, 5)), p)
        with pytest.raises(ValueError):
            encoder_forward(basis, np.zeros((7, 4)), p)
        with pytest.raises(ValueError):
            encoder_forward(basis, np.zeros((8, 4)), p, activation="tanh")


class TestBank:
    def test_order_preserved(self):
        g = random_connected_graph(8, 0.4, seed=37)
        basis = operator_of(g, "basis")
        rng = np.random.default_rng(41)
        x = rng.normal(size=(8, 4))
        bank = init_bank(4, 4, [0.9, 0.1, 0.5], horizon=1.0, rng=rng)
        views = bank_forward(basis, x, bank, activation="identity")
        assert [v.source_alpha for v in views] == [0.1, 0.5, 0.9]

    def test_seeded_init_reproducible(self):
        g = random_connected_graph(8, 0.4, seed=37)
        basis = operator_of(g, "basis")
        x = np.random.default_rng(43).normal(size=(8, 4))
        out = []
        for _ in range(2):
            bank = init_bank(4, 4, [0.2, 0.8], 1.0, np.random.default_rng(99))
            views = bank_forward(basis, x, bank)
            out.append(np.concatenate([v.matrix for v in views]))
        assert np.array_equal(out[0], out[1])

    def test_small_alpha_keeps_rank(self):
        # slow heavy-tailed relaxation preserves more spectral mass than
        # classical diffusion at the same horizon
        g = sbm_connected_graph(30, 3, 0.6, 0.05, seed=47)
        basis = operator_of(g, "basis")
        rng = np.random.default_rng(53)
        x = rng.normal(size=(30, 12))
        w = rng.normal(size=(12, 12)) / np.sqrt(12)
        local = EncoderParams(weights=w, alpha=0.01, horizon=20.0)
        swift = EncoderParams(weights=w, alpha=1.0, horizon=20.0)
        y_local = encoder_forward(basis, x, local, activation="identity").matrix
        y_swift = encoder_forward(basis, x, swift, activation="identity").matrix
        assert pca_effective_rank(y_local) >= pca_effective_rank(y_swift)

    def test_view_distinctness(self):
        g = random_connected_graph(12, 0.4, seed=59)
        basis = operator_of(g, "basis")
        rng = np.random.default_rng(61)
        x = rng.normal(size=(12, 6))
        w = rng.normal(size=(6, 6))
        lo = EncoderParams(weights=w, alpha=0.01, horizon=20.0)
        hi = EncoderParams(weights=w, alpha=1.0, horizon=20.0)
        yl = encoder_forward(basis, x, lo, activation="identity").matrix
        yh = encoder_forward(basis, x, hi, activation="identity").matrix
        rel = np.linalg.norm(yl - yh) / np.linalg.norm(yl)
        assert rel > 0.1


ORDERS = (TrainConfig.clip_eps, 0.01, 0.1, 0.3, 0.5, 0.8, 1.0)


def filter_pairs(krylov, spectral, horizon, orders=ORDERS):
    """(got, want) pairs of P and dP/dalpha at `horizon` per order."""
    for alpha in orders:
        yield tuple(
            f.apply(np.stack(ml_spectrum(alpha, f.nodes, horizon), axis=1))
            for f in (krylov, spectral)
        )


def krylov_and_eigenbasis(g, x, horizon):
    """filter_pairs of the Krylov filter of g's Laplacian rows and of its
    eigenbasis filter, both built at `horizon`."""
    krylov = _diffusion_filter(laplacian_rows(g), x, horizon)
    spectral = _diffusion_filter(operator_of(g, "basis"), x, horizon)
    return filter_pairs(krylov, spectral, horizon)


def assert_within_1e_12_of_the_largest(pairs):
    """Largest error of P, and of dP/dalpha, over the orders, within 1e-12 of
    the largest value over the orders."""
    pairs = list(pairs)
    for i in range(2):
        err = max(np.abs(gots[i] - wants[i]).max() for gots, wants in pairs)
        assert err < 1e-12 * max(np.abs(wants[i]).max() for _, wants in pairs)


def assert_matches_eigenbasis(g, x, horizon=20.0):
    for gots, wants in krylov_and_eigenbasis(g, x, horizon):
        for name, got, want in zip(("P", "dP/dalpha"), gots, wants):
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert rel < 1e-9, (name, rel)


class TestFeatureFilter:
    """The Krylov filter of the Laplacian's rows against the eigenbasis filter."""

    @pytest.fixture(scope="class")
    def graph_and_features(self):
        g = sbm_connected_graph(60, 3, 0.3, 0.03, seed=71)
        return g, np.random.default_rng(73).normal(size=(60, 5))

    @pytest.fixture(scope="class")
    def rows_and_features(self, graph_and_features):
        g, x = graph_and_features
        return laplacian_rows(g), x

    @pytest.fixture(scope="class")
    def pipeline_graph(self):
        # the benchmark pipeline's dataset at n = 2000
        spec = data.SynthSpec(
            n=2000, n_blocks=2, p_in=0.02, p_out=0.1, feature_dim=8,
            class_mean_separation=0.36, noise_sigma=1.0, seed=1,
        )
        ds = data.synth_sbm(spec)
        return laplacian_rows(ds.graph), ds.features

    @pytest.mark.parametrize("horizon", [2.0, 20.0, 100.0])
    def test_krylov_matches_eigenbasis(self, graph_and_features, horizon):
        assert_matches_eigenbasis(*graph_and_features, horizon)

    @pytest.mark.parametrize("horizon", [300.0, 1e3, 1e4])
    def test_long_horizons_match_within_1e_12_of_the_largest(
        self, graph_and_features, horizon
    ):
        # at long horizons dP/dalpha at order 1 is about exp(-T lam_2), so a
        # relative error measures only rounding: judge by the largest value
        assert_within_1e_12_of_the_largest(
            krylov_and_eigenbasis(*graph_and_features, horizon)
        )

    @pytest.fixture(scope="class")
    def block_model_300(self):
        # criterion 10's block model at n = 300
        spec = data.SynthSpec(
            n=300, n_blocks=2, p_in=0.02, p_out=0.1, feature_dim=8,
            class_mean_separation=0.36, noise_sigma=1.0, seed=1,
        )
        ds = data.synth_sbm(spec)
        spectral = _diffusion_filter(operator_of(ds.graph, "basis"), ds.features, 0.0)
        return laplacian_rows(ds.graph), ds.features, spectral

    @pytest.mark.parametrize("built_at", [20.0, 1e3])
    def test_serves_every_shorter_horizon(self, block_model_300, built_at):
        # grad_loss and bank_forward build one filter at the longest horizon
        rows, x, spectral = block_model_300
        orders = np.geomspace(1e-4, 1.0, 15)
        krylov = _diffusion_filter(rows, x, built_at)
        for used_at in (1e-4, 0.01, 1.0, 5.0, 20.0, 100.0, 1e3):
            if used_at <= built_at:
                assert_within_1e_12_of_the_largest(
                    filter_pairs(krylov, spectral, used_at, orders)
                )

    def test_zero_state_gives_zeros(self, graph_and_features):
        g, x = graph_and_features
        zero = np.zeros_like(x)
        for gots, wants in krylov_and_eigenbasis(g, zero, 20.0):
            for got, want in zip(gots, wants):
                assert got.shape == want.shape and not np.any(got) and not np.any(want)

    def test_zero_and_duplicate_columns_deflate(self, graph_and_features):
        g, x = graph_and_features
        x = np.column_stack([x[:, :3], np.zeros(len(x)), x[:, 1]])
        assert_matches_eigenbasis(g, x)
        assert _diffusion_filter(laplacian_rows(g), x, 20.0).nodes.size % 3 == 0

    @pytest.mark.parametrize("width", [60, 70])
    def test_as_many_features_as_nodes(self, graph_and_features, width):
        g, _ = graph_and_features
        x = np.random.default_rng(width).normal(size=(60, width))
        assert_matches_eigenbasis(g, x)
        # the first block spans the whole space, which is invariant
        assert _diffusion_filter(laplacian_rows(g), x, 20.0).nodes.size == 60

    def test_isolated_node(self):
        g = random_connected_graph(12, 0.4, seed=89)
        edges = zip(g.src.tolist(), g.dst.tolist(), g.weight.tolist())
        g = build_graph(13, list(edges))
        assert_matches_eigenbasis(g, np.random.default_rng(3).normal(size=(13, 4)))

    def test_indefinite_operator_rejected(self):
        # tripled edge entries give 3 L - 2 I, whose spectrum reaches -2
        rows = laplacian_rows(random_connected_graph(12, 0.4, seed=89))
        tripled = LaplacianRows(rows.indptr, rows.cols, 3.0 * rows.vals)
        x = np.random.default_rng(97).normal(size=(12, 4))
        p = EncoderParams(weights=np.eye(4), alpha=0.5, horizon=20.0)
        with pytest.raises(ValueError, match="positive semidefinite"):
            encoder_forward(tripled, x, p)

    def test_asymmetric_operator_rejected(self, rows_and_features):
        rows, x = rows_and_features
        vals = rows.vals.copy()
        vals[0] += 0.5
        with pytest.raises(ValueError, match="symmetric"):
            _diffusion_filter(LaplacianRows(rows.indptr, rows.cols, vals), x, 20.0)

    def test_pipeline_graph_takes_at_most_20_products(self, pipeline_graph):
        rows, x = pipeline_graph
        filt = _diffusion_filter(rows, x, 20.0)
        # random features deflate nothing, so each product adds F columns
        assert filt.vectors.shape[1] % x.shape[1] == 0
        assert filt.vectors.shape[1] <= 20 * x.shape[1]

    def test_build_peak_is_a_few_bases(self, pipeline_graph):
        # measured 2.4 times the kept Ritz vectors; an n x n temporary would
        # be 16 times
        rows, x = pipeline_graph
        filt, peak = traced_peak(lambda: _diffusion_filter(rows, x, 20.0))
        assert peak < 3.0 * filt.vectors.nbytes

    def test_block_cap_is_named(self, rows_and_features, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_BLOCKS", 2)
        with pytest.raises(ValueError, match="within 2 blocks"):
            _diffusion_filter(*rows_and_features, 20.0)

    @pytest.mark.parametrize("horizon", [np.inf, np.nan])
    def test_unresolvable_horizon_rejected(self, rows_and_features, horizon):
        with pytest.raises(ValueError, match="horizon"):
            _diffusion_filter(*rows_and_features, horizon)

    def test_zero_horizon_is_the_identity(self, rows_and_features):
        rows, x = rows_and_features
        identity = _diffusion_filter(rows, x, 0.0)
        assert np.abs(identity.apply(np.ones(identity.nodes.size)) - x).max() < 1e-13

    def test_very_long_horizon_matches_within_1e_12_of_the_largest(
        self, graph_and_features
    ):
        assert_within_1e_12_of_the_largest(krylov_and_eigenbasis(*graph_and_features, 1e5))

    @pytest.mark.parametrize("operator", ["basis", "rows"])
    def test_value_only_apply_matches_the_pair(self, graph_and_features, operator):
        g, x = graph_and_features
        filt = _diffusion_filter(operator_of(g, operator), x, 20.0)
        for alpha in (TrainConfig.clip_eps, 0.3, 1.0):
            value, deriv = ml_spectrum(alpha, filt.nodes, 20.0)
            got = filt.apply(value)
            want = filt.apply(np.stack([value, deriv], axis=1))[0]
            assert np.array_equal(got, want)

    def test_bank_forward_through_the_laplacian(self):
        g = random_connected_graph(12, 0.4, seed=79)
        rng = np.random.default_rng(83)
        x = rng.normal(size=(12, 4))
        bank = init_bank(4, 4, [0.05, 0.5, 1.0], horizon=20.0, rng=rng)
        want = bank_forward(operator_of(g, "basis"), x, bank)
        got = bank_forward(laplacian_rows(g), x, bank)
        for v_want, v_got in zip(want, got):
            assert v_got.source_alpha == v_want.source_alpha
            assert np.max(np.abs(v_got.matrix - v_want.matrix)) < 1e-12

    def test_operator_shape_checked(self):
        p = EncoderParams(weights=np.eye(3), alpha=0.5, horizon=1.0)
        # np.eye(4) is the dense Laplacian of four isolated nodes
        with pytest.raises(TypeError, match="SpectralBasis or LaplacianRows"):
            encoder_forward(np.eye(4), np.zeros((4, 3)), p)
        rows = laplacian_rows(random_connected_graph(5, 0.6, seed=1))
        with pytest.raises(ValueError, match="n_nodes"):
            encoder_forward(rows, np.zeros((4, 3)), p)


class TestCombine:
    def views(self):
        rng = np.random.default_rng(67)
        return [
            ViewEmbedding(matrix=rng.normal(size=(6, 3)), source_alpha=0.2),
            ViewEmbedding(matrix=rng.normal(size=(6, 3)), source_alpha=0.8),
        ]

    def test_one_hot_selects(self):
        vs = self.views()
        out = combine_views(vs, np.array([0.0, 1.0]))
        assert np.array_equal(out, vs[1].matrix)

    def test_identical_views_any_weights(self):
        v = self.views()[0]
        out = combine_views([v, v], np.array([0.3, 0.7]))
        assert np.max(np.abs(out - v.matrix)) < 1e-12

    def test_even_split_is_mean(self):
        vs = self.views()
        out = combine_views(vs, np.array([0.5, 0.5]))
        assert np.max(np.abs(out - (vs[0].matrix + vs[1].matrix) / 2)) < 1e-12

    def test_simplex_violations(self):
        vs = self.views()
        with pytest.raises(ValueError):
            combine_views(vs, np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            combine_views(vs, np.array([-0.1, 1.1]))
        with pytest.raises(ValueError):
            combine_views(vs, np.array([1.0]))
