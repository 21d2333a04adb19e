"""Tests for probes, collapse metrics, theory checks, walks, and stability."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import cycle_graph, sbm_connected_graph, traced_peak
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_adjacency, rc_ratio_oracle, skip_coeffs_oracle
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components
from scipy.special import gamma as gamma_ref
from scipy.special import zeta as zeta_ref

import fracgcl
from fracgcl.diagnostics import (
    InitStatePerturbation,
    ProbeConfig,
    WalkConfig,
    _bucket_search,
    _neighbor_rows,
    check_theorem_sgi,
    ctmc_walk_sim,
    effective_rank,
    energy_spectrum,
    fourier_spread,
    linear_probe,
    random_walk_sim,
    rc_ratio,
    stability_harness,
)
from fracgcl.encoder import EncoderParams, encoder_forward
from fracgcl.graphs import build_graph, eigendecompose, normalized_laplacian
from fracgcl.solver import solve_linear_spectral
from fracgcl.special import ml


def bipartite_20():
    """Complete bipartite graph on 10+10 nodes; Laplacian spectrum {0, 1, 2}."""
    edges = [(i, 10 + j, 1.0) for i in range(10) for j in range(10)]
    return build_graph(20, edges)


def irregular_graph():
    """Weighted graph on 6 nodes with unequal degrees; node 5 is isolated."""
    edges = [(0, 1, 1.0), (1, 2, 3.0), (2, 3, 0.5), (3, 0, 2.0), (0, 2, 1.5), (3, 4, 4.0)]
    return build_graph(6, edges)


@pytest.fixture(scope="module")
def cyc12_basis():
    return eigendecompose(normalized_laplacian(cycle_graph(12)))


@pytest.fixture(scope="module")
def bip_basis():
    return eigendecompose(normalized_laplacian(bipartite_20()))


class TestProbeConfig:
    def test_defaults_valid(self):
        ProbeConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [{"epochs": 0}, {"l2_weight": -0.1}, {"lr": 0.0}],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            ProbeConfig(**kwargs)


def blob_fixture(seed=0):
    rng = np.random.default_rng(seed)
    n = 60
    y = np.vstack(
        [
            rng.normal(0, 0.3, (n // 2, 4)) + 5.0,
            rng.normal(0, 0.3, (n // 2, 4)) - 5.0,
        ]
    )
    labels = np.array([0] * (n // 2) + [1] * (n // 2))
    perm = rng.permutation(n)
    splits = {
        "train": perm[:30].tolist(),
        "val": perm[30:40].tolist(),
        "test": perm[40:].tolist(),
    }
    return y, labels, splits


class TestLinearProbe:
    def test_separable_blobs_perfect(self):
        y, labels, splits = blob_fixture()
        train, val, test = linear_probe(y, labels, splits, ProbeConfig())
        assert train == 1.0 and val == 1.0 and test == 1.0

    def test_random_features_near_chance(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=(400, 6))
        labels = rng.integers(0, 2, 400)
        splits = {"train": list(range(100)), "val": [], "test": list(range(100, 400))}
        _, _, test = linear_probe(y, labels, splits, ProbeConfig())
        assert abs(test - 0.5) <= 0.1

    def test_constant_features_predict_majority(self):
        y = np.full((30, 3), 2.0)
        labels = np.array([0] * 18 + [1] * 12)
        splits = {
            "train": list(range(0, 30, 2)),
            "val": [],
            "test": list(range(1, 30, 2)),
        }
        train, _, test = linear_probe(y, labels, splits, ProbeConfig())
        assert train == np.mean(labels[splits["train"]] == 0)
        assert test == np.mean(labels[splits["test"]] == 0)

    def test_rotation_translation_leaves_accuracy(self):
        y, labels, splits = blob_fixture(3)
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        moved = y @ q + np.array([3.0, -1.0, 0.5, 2.0])
        base = linear_probe(y, labels, splits, ProbeConfig())
        after = linear_probe(moved, labels, splits, ProbeConfig())
        for a, b in zip(base, after):
            assert abs(a - b) < 0.005

    def test_empty_split_reports_nan(self):
        y, labels, splits = blob_fixture()
        splits = {"train": splits["train"], "val": [], "test": splits["test"]}
        _, val, _ = linear_probe(y, labels, splits, ProbeConfig())
        assert np.isnan(val)

    def test_single_class_train_rejected(self):
        y, labels, _ = blob_fixture()
        splits = {"train": list(range(10)), "val": [], "test": list(range(30, 40))}
        with pytest.raises(ValueError, match="2 classes"):
            linear_probe(y, labels, splits, ProbeConfig())

    def test_overlapping_splits_rejected(self):
        y, labels, _ = blob_fixture()
        splits = {"train": [0, 1, 40], "val": [1, 2], "test": []}
        with pytest.raises(ValueError, match="train and val splits overlap"):
            linear_probe(y, labels, splits, ProbeConfig())

    @pytest.mark.parametrize(
        "test, pair", [([3, 40], "train and test"), ([3, 4], "val and test")]
    )
    def test_overlap_names_the_pair(self, test, pair):
        y, labels, _ = blob_fixture()
        splits = {"train": [0, 1, 40], "val": [2, 3], "test": test}
        with pytest.raises(ValueError, match=f"{pair} splits overlap"):
            linear_probe(y, labels, splits, ProbeConfig())

    def test_sparse_class_labels(self):
        # classes are the sorted labels present in the training split
        y, labels, splits = blob_fixture()
        base = linear_probe(y, labels, splits, ProbeConfig())
        assert linear_probe(y, 7 * labels + 2, splits, ProbeConfig()) == base

    def test_loads_no_numpy_ma(self):
        # a plain np.unique imports numpy.ma on first use (numpy 2.4)
        code = (
            "import sys, numpy as np\n"
            "from fracgcl.diagnostics import ProbeConfig, linear_probe\n"
            "y = np.arange(24.0).reshape(8, 3) ** 0.5\n"
            "labels = np.array([0, 1] * 4)\n"
            "linear_probe(y, labels, {'train': range(6), 'test': [6, 7]}, ProbeConfig())\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        src = os.path.dirname(os.path.dirname(fracgcl.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    def test_out_of_range_index_rejected(self):
        y, labels, _ = blob_fixture()
        with pytest.raises(ValueError, match="outside"):
            linear_probe(y, labels, {"train": [0, 99], "val": [], "test": []}, ProbeConfig())

    def test_row_count_must_match_labels(self):
        y, labels, splits = blob_fixture()
        big = np.vstack([y, y[:30]])
        with pytest.raises(ValueError, match="90 rows for 60 nodes"):
            linear_probe(big, labels, splits, ProbeConfig())

    @pytest.mark.parametrize("split", ["train", "val", "test"])
    def test_unlabeled_split_node_rejected(self, split):
        y, labels, splits = blob_fixture()
        labels = labels.copy()
        node = splits[split][3]
        labels[splits[split][3:7]] = -1
        with pytest.raises(ValueError, match=f"{split} split node {node} has no label"):
            linear_probe(y, labels, splits, ProbeConfig())


class TestRcRatio:
    def test_distant_blobs_large_ratio(self):
        rng = np.random.default_rng(0)
        y = np.vstack(
            [
                rng.normal(0, 1.0, (20, 3)),
                rng.normal(0, 1.0, (20, 3)) + np.array([40.0, 0, 0]),
            ]
        )
        labels = np.array([0] * 20 + [1] * 20)
        out = rc_ratio(y, labels)
        for c in (0, 1):
            assert out[c]["flag"] == "ok"
            assert out[c]["ratio"] > 10.0

    def test_ratio_grows_with_separation(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 1.0, (25, 3))
        b = rng.normal(0, 1.0, (25, 3))
        labels = np.array([0] * 25 + [1] * 25)
        ratios = []
        for dist in (2.0, 5.0, 10.0, 20.0):
            y = np.vstack([a, b + np.array([dist, 0, 0])])
            ratios.append(rc_ratio(y, labels)[0]["ratio"])
        assert all(r1 < r2 for r1, r2 in zip(ratios, ratios[1:]))

    def test_single_mixed_blob_near_one(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=(200, 4))
        labels = rng.integers(0, 2, 200)
        out = rc_ratio(y, labels)
        for c in (0, 1):
            assert abs(out[c]["ratio"] - 1.0) <= 0.1

    def test_identical_points_undefined(self):
        y = np.ones((8, 2))
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        out = rc_ratio(y, labels)
        assert out[0]["flag"] == "undefined" and out[0]["ratio"] is None
        assert out[1]["flag"] == "undefined"

    def test_tiny_class_skipped(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=(9, 2))
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1, 2])
        out = rc_ratio(y, labels)
        assert out[2]["flag"] == "skipped"
        assert out[0]["flag"] == "ok"

    def test_negative_labels_ignored(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=(10, 2))
        labels = np.array([0, 0, 0, 1, 1, 1, -1, -1, -1, -1])
        out = rc_ratio(y, labels)
        assert set(out) == {0, 1}

    def test_matches_dense_oracle_with_unlabeled_nodes(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=(150, 5))
        labels = rng.integers(-1, 4, 150)
        labels[:1] = 5  # a one-member class
        y[labels == 3] = y[np.flatnonzero(labels == 3)[0]]  # coincident members
        got, want = rc_ratio(y, labels), rc_ratio_oracle(y, labels)
        assert got.keys() == want.keys() == {0, 1, 2, 3, 5}
        assert [got[c]["flag"] for c in (3, 5)] == ["undefined", "skipped"]
        for c in got:
            assert got[c]["flag"] == want[c]["flag"]
            if got[c]["flag"] == "ok":
                assert got[c]["ratio"] == pytest.approx(want[c]["ratio"], rel=1e-12)

    def test_memory_is_linear_in_rows(self):
        # the n x n distance matrix alone would be 32 MB here
        rng = np.random.default_rng(8)
        n = 2000
        y = rng.normal(size=(n, 8))
        labels = np.arange(n) % 5 - 1
        _, peak = traced_peak(lambda: rc_ratio(y, labels))
        assert peak < 5e6

    def test_memory_is_quadratic_in_rows(self):
        # the whole n x n x d difference tensor would be 10 MB here
        rng = np.random.default_rng(6)
        n = 400
        y = rng.normal(size=(n, 8))
        _, peak = traced_peak(lambda: rc_ratio(y, np.arange(n) % 4))
        assert peak < 2 * n * n * 8


class TestSpectrumAndRank:
    def test_matches_manual_pca(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=(40, 6))
        centered = y - y.mean(axis=0)
        ref = np.sort(np.linalg.eigvalsh(np.cov(centered.T)))[::-1]
        got = energy_spectrum(y)
        assert np.allclose(got, ref, atol=1e-10)
        assert np.all(np.diff(got) <= 1e-12)

    def test_rank_one_embedding(self):
        rng = np.random.default_rng(6)
        y = np.outer(rng.normal(size=50), np.array([1.0, 2.0, -1.0]))
        assert effective_rank(y) == 1

    def test_isotropic_gaussian_rank_nine(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=(10_000, 10))
        assert effective_rank(y, theta=0.9) == 9

    def test_theta_one_full_rank(self):
        rng = np.random.default_rng(8)
        y = rng.normal(size=(30, 4))
        assert effective_rank(y, theta=1.0) == 4

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            energy_spectrum(np.ones((1, 3)))

    def test_bad_theta_rejected(self):
        with pytest.raises(ValueError):
            effective_rank(np.eye(3), theta=0.0)


class TestFourierSpread:
    def test_smooth_embedding_concentrates(self, cyc12_basis):
        y = np.outer(cyc12_basis.eigenvectors[:, 0], [2.0, -1.0])
        m = fourier_spread(cyc12_basis, y)
        assert m[0] > 0
        assert np.all(np.abs(m[1:]) < 1e-12)

    def test_parseval(self, cyc12_basis):
        rng = np.random.default_rng(9)
        y = rng.normal(size=(12, 5))
        m = fourier_spread(cyc12_basis, y)
        assert abs(np.sum(m**2) - np.linalg.norm(y) ** 2) < 1e-9

    def test_smaller_order_spreads_wider(self):
        g = sbm_connected_graph(30, 3, 0.6, 0.1, seed=10)
        basis = eigendecompose(normalized_laplacian(g))
        rng = np.random.default_rng(11)
        x = rng.normal(size=(30, 8))
        w = rng.uniform(-1, 1, size=(8, 6)) / np.sqrt(8)
        ratios = {}
        for a in (0.2, 1.0):
            p = EncoderParams(weights=w, alpha=a, horizon=20.0)
            y = encoder_forward(basis, x, p, activation="identity")
            m = fourier_spread(basis, y)
            ratios[a] = m[0] / m.sum()
        assert ratios[1.0] > ratios[0.2]

    def test_shape_mismatch_rejected(self, cyc12_basis):
        with pytest.raises(ValueError):
            fourier_spread(cyc12_basis, np.ones((5, 2)))


class TestTheoremCheck:
    def test_preconditions(self, bip_basis):
        x = np.ones(20)
        with pytest.raises(ValueError, match="order"):
            check_theorem_sgi(bip_basis, x, 0.9, 0.1, 1e3, 5)
        with pytest.raises(ValueError, match="tau"):
            check_theorem_sgi(bip_basis, x, 0.1, 0.9, 50.0, 5)
        with pytest.raises(ValueError, match="skip_count"):
            check_theorem_sgi(bip_basis, x, 0.1, 0.9, 1e3, 0)

    def test_disconnected_rejected(self):
        g = build_graph(6, [(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0)])
        basis = eigendecompose(normalized_laplacian(g))
        with pytest.raises(ValueError, match="connected"):
            check_theorem_sgi(basis, np.ones(6), 0.1, 0.9, 1e3, 5)

    def test_truncation_orders(self, bip_basis):
        rep = check_theorem_sgi(bip_basis, np.ones(20), 0.1, 0.9, 1e3, 10)
        assert rep.n_s_local == 9
        assert rep.n_s_global == 1

    def test_zero_frequency_multiplier_is_segments_plus_one(self, bip_basis):
        rep = check_theorem_sgi(bip_basis, np.ones(20), 0.1, 0.9, 1e3, 10)
        assert rep.exact_local[0] == pytest.approx(11.0, abs=1e-12)
        assert rep.exact_global[0] == pytest.approx(11.0, abs=1e-12)
        assert rep.asym_local[0] == rep.asym_global[0] == 11.0

    def test_leading_coefficient_closed_form(self, bip_basis):
        rep = check_theorem_sgi(bip_basis, np.ones(20), 0.1, 0.9, 1e3, 10)
        i = int(np.argmin(np.abs(bip_basis.eigenvalues - 2.0)))
        lam = bip_basis.eigenvalues[i]
        assert rep.b_local[i][0] == pytest.approx(1.0 / (lam * gamma_ref(0.9)), rel=1e-12)
        assert rep.b_global[i][0] == pytest.approx(1.0 / (lam * gamma_ref(0.1)), rel=1e-12)

    def test_leading_coefficient_independent_of_segments(self, bip_basis):
        one = check_theorem_sgi(bip_basis, np.ones(20), 0.1, 0.9, 1e3, 1)
        ten = check_theorem_sgi(bip_basis, np.ones(20), 0.1, 0.9, 1e3, 10)
        i = int(np.argmin(np.abs(bip_basis.eigenvalues - 1.0)))
        assert one.b_local[i][0] == pytest.approx(ten.b_local[i][0], rel=1e-14)

    def test_gamma_ratio_between_orders(self, bip_basis):
        rep = check_theorem_sgi(bip_basis, np.ones(20), 0.1, 0.9, 1e3, 10)
        i = int(np.argmin(np.abs(bip_basis.eigenvalues - 1.0)))
        ratio = rep.b_local[i][0] / rep.b_global[i][0]
        assert ratio == pytest.approx(gamma_ref(0.1) / gamma_ref(0.9), rel=1e-12)
        assert ratio > 1.0

    def test_agreement_and_dominance_on_bipartite(self, bip_basis):
        rep = check_theorem_sgi(bip_basis, np.ones(20), 0.1, 0.9, 1e3, 10)
        assert rep.verdicts["agreement_10pct"] is True
        assert rep.verdicts["local_dominates"] is True

    def test_third_coefficient_goes_negative_at_small_order(self, bip_basis):
        # the claimed all-orders positivity genuinely fails: at order 0.1 the
        # third expansion coefficient is negative for every eigenvalue
        rep = check_theorem_sgi(bip_basis, np.ones(20), 0.1, 0.9, 1e3, 10)
        i = int(np.argmin(np.abs(bip_basis.eigenvalues - 1.0)))
        assert rep.b_local[i][2] < 0.0
        assert rep.b_local[i][2] == pytest.approx(-0.017722378, rel=1e-6)
        assert rep.verdicts["positivity"] is False
        assert rep.verdicts["decreasing_in_i"] is False

    @pytest.mark.parametrize("skips", [1, 4, 10])
    @pytest.mark.parametrize(
        "orders", [(0.1, 0.9), (0.05, 0.5)], ids=["0.1-0.9", "0.05-0.5"]
    )
    def test_coefficients_match_mpmath(self, bip_basis, orders, skips):
        # b_ij = c_j lam_i^-j, with c_j convolved at 50 digits
        rep = check_theorem_sgi(bip_basis, np.ones(20), *orders, 1e3, skips)
        lam = bip_basis.eigenvalues
        for alpha, n_s, rows in (
            (orders[0], rep.n_s_local, rep.b_local),
            (orders[1], rep.n_s_global, rep.b_global),
        ):
            c = np.array(skip_coeffs_oracle(alpha, n_s, skips))
            for lv, row in zip(lam, rows):
                if lv < 1e-9:
                    assert row == ()
                    continue
                want = c * lv ** -np.arange(1, n_s + 1)
                np.testing.assert_allclose(row, want, rtol=1e-12, atol=0.0)

    def test_magnitudes_scale_with_signal(self, bip_basis):
        x = np.ones(20)
        a = check_theorem_sgi(bip_basis, x, 0.1, 0.9, 1e3, 5)
        b = check_theorem_sgi(bip_basis, 3.0 * x, 0.1, 0.9, 1e3, 5)
        assert np.allclose(b.mags_local, 3.0 * a.mags_local)

    def test_serializes(self, bip_basis):
        import json

        rep = check_theorem_sgi(bip_basis, np.ones(20), 0.1, 0.9, 1e3, 3)
        parsed = json.loads(json.dumps(rep.to_dict()))
        assert parsed["skip_count"] == 3


class TestWalkConfig:
    def test_valid(self):
        WalkConfig(alpha=0.5, t_end=1.0, delta_tau=0.01, n_walkers=100, seed=0)

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError, match="ctmc"):
            WalkConfig(alpha=1.0, t_end=1.0, delta_tau=0.01, n_walkers=100, seed=0)

    def test_oversized_step_breaks_invariant(self):
        with pytest.raises(ValueError, match="probability"):
            WalkConfig(alpha=0.5, t_end=10.0, delta_tau=2.0, n_walkers=100, seed=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_end": -1.0},
            {"t_end": float("nan")},
            {"delta_tau": 0.0},
            {"n_walkers": 0},
            {"alpha": 0.0},
        ],
    )
    def test_bad_fields(self, kwargs):
        base = dict(alpha=0.5, t_end=1.0, delta_tau=0.01, n_walkers=10, seed=0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            WalkConfig(**base)

    # each case raises before any ladder is allocated
    @pytest.mark.parametrize(
        "t_end, delta_tau",
        [(1.0, 1e-9), (1e7, 0.01), (1.0, 1e-320), (2**20 * 0.25, 0.25)],
        ids=["1e9-slots", "long-horizon", "ratio-overflows", "one-past-cap"],
    )
    def test_oversized_ladder_rejected(self, t_end, delta_tau):
        with pytest.raises(ValueError, match="ladder") as exc:
            WalkConfig(alpha=0.5, t_end=t_end, delta_tau=delta_tau, n_walkers=10, seed=0)
        assert "delta_tau" in str(exc.value) and "t_end" in str(exc.value)

    def test_ladder_at_cap_accepted(self):
        WalkConfig(alpha=0.5, t_end=(2**20 - 1) * 0.25, delta_tau=0.25, n_walkers=10, seed=0)

    @pytest.mark.parametrize("alpha", [1e-4, 0.05, 0.3, 0.5, 0.75, 0.99])
    def test_tail_norm_matches_scipy(self, alpha):
        cfg = WalkConfig(alpha=alpha, t_end=1.0, delta_tau=1e-6, n_walkers=10, seed=0)
        ref = 1.0 / float(zeta_ref(1.0 + alpha))
        assert cfg.tail_norm() == pytest.approx(ref, rel=1e-15, abs=0.0)


class TestRandomWalk:
    def test_zero_horizon_point_mass(self):
        g = cycle_graph(6)
        cfg = WalkConfig(alpha=0.5, t_end=0.0, delta_tau=0.01, n_walkers=50, seed=1)
        dist = random_walk_sim(g, cfg, start=2)
        expected = np.zeros(6)
        expected[2] = 1.0
        assert np.array_equal(dist, expected)

    def test_distribution_properties(self):
        g = cycle_graph(6)
        cfg = WalkConfig(alpha=0.5, t_end=1.0, delta_tau=0.01, n_walkers=500, seed=1)
        dist = random_walk_sim(g, cfg, start=0)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(dist >= 0)

    def test_deterministic_per_seed(self):
        g = cycle_graph(5)
        cfg = WalkConfig(alpha=0.4, t_end=1.0, delta_tau=0.01, n_walkers=300, seed=9)
        assert np.array_equal(random_walk_sim(g, cfg, 0), random_walk_sim(g, cfg, 0))

    def test_start_out_of_range(self):
        g = cycle_graph(5)
        cfg = WalkConfig(alpha=0.4, t_end=1.0, delta_tau=0.01, n_walkers=10, seed=0)
        with pytest.raises(ValueError, match="start"):
            random_walk_sim(g, cfg, 5)

    def test_two_node_equilibrates(self):
        g = build_graph(2, [(0, 1, 1.0)])
        cfg = WalkConfig(alpha=0.5, t_end=400.0, delta_tau=0.1, n_walkers=100_000, seed=7)
        dist = random_walk_sim(g, cfg, start=0)
        assert abs(dist[0] - 0.5) < 0.02
        assert abs(dist[1] - 0.5) < 0.02

    def test_cycle_matches_spectral_solution(self):
        g = cycle_graph(10)
        basis = eigendecompose(normalized_laplacian(g))
        y0 = np.zeros((10, 1))
        y0[0, 0] = 1.0
        ref = solve_linear_spectral(basis, y0, 0.5, 1.0)[:, 0]
        cfg = WalkConfig(alpha=0.5, t_end=1.0, delta_tau=0.005, n_walkers=100_000, seed=11)
        emp = random_walk_sim(g, cfg, start=0)
        tv = 0.5 * np.abs(emp - ref).sum()
        assert tv < 0.02

    def test_more_walkers_tighten_the_estimate(self):
        g = cycle_graph(10)
        basis = eigendecompose(normalized_laplacian(g))
        y0 = np.zeros((10, 1))
        y0[0, 0] = 1.0
        ref = solve_linear_spectral(basis, y0, 0.5, 1.0)[:, 0]
        tvs = []
        for n_walkers in (1_000, 100_000):
            cfg = WalkConfig(
                alpha=0.5, t_end=1.0, delta_tau=0.005, n_walkers=n_walkers, seed=13
            )
            emp = random_walk_sim(g, cfg, start=0)
            tvs.append(0.5 * np.abs(emp - ref).sum())
        assert tvs[1] < tvs[0]

    # recorded with one np.searchsorted over the wait CDF per round; the
    # bucket table must draw the same waits from the same uniforms
    @pytest.mark.parametrize(
        "graph, cfg, digest",
        [
            # the benchmark's walk-cycle setup, a 201-slot ladder
            (
                "cycle",
                dict(alpha=0.5, t_end=1.0, delta_tau=0.005, n_walkers=100_000, seed=1),
                "905eb55568ebbd8fb9510ec46f9d60ff4e187a9301d4b0524cf84cf70ec9282f",
            ),
            (
                "irregular",
                dict(alpha=0.05, t_end=2.0, delta_tau=0.01, n_walkers=20_000, seed=3),
                "9d2c02dbf8783279f0c321078525150af68e5642beacb236249016792c91cf30",
            ),
            (
                "irregular",
                dict(alpha=0.95, t_end=2.0, delta_tau=0.01, n_walkers=20_000, seed=3),
                "bca72e324dacc50fce33a97eb9c66afe2853d9cff5af6a98d4803a2c8b7595b7",
            ),
            # 10,001 slots: the upper buckets each hold many CDF entries
            (
                "cycle",
                dict(alpha=0.5, t_end=1.0, delta_tau=1e-4, n_walkers=20_000, seed=5),
                "92c2351eb212e9bc54e8310d818b44c13bb974cc2b10bdbbb9a1af905464a94f",
            ),
        ],
        ids=["walk-cycle", "irregular-0.05", "irregular-0.95", "long-ladder"],
    )
    def test_occupancies_pinned(self, graph, cfg, digest):
        g = cycle_graph(10) if graph == "cycle" else irregular_graph()
        occ = random_walk_sim(g, WalkConfig(**cfg), start=0)
        assert hashlib.sha256(occ.tobytes()).hexdigest() == digest


class TestBucketSearch:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_binary_search(self, data):
        unit = st.floats(0.0, 1.0, exclude_max=True)
        spread = data.draw(st.lists(st.floats(0.0, 1.0), max_size=40), label="spread")
        # many entries inside one bucket: a table denser than the buckets
        center = data.draw(unit, label="center")
        offsets = data.draw(st.lists(st.floats(0.0, 1e-6), max_size=80), label="offsets")
        ties = spread[: data.draw(st.integers(0, len(spread)), label="ties")]
        # bucket edges k / 2^j, as keys and as table entries
        level = data.draw(st.integers(0, 12), label="level")
        edges = [k / 2**level for k in data.draw(st.lists(st.integers(0, 2**level - 1)))]
        cluster = np.minimum(center + np.array(offsets), 1.0)
        table = np.sort(np.concatenate((spread, ties, cluster, edges[:3])))
        inside = table[table < 1.0]
        keys = np.concatenate((
            data.draw(st.lists(unit, max_size=40), label="keys"),
            inside,
            np.nextafter(inside, 0.0),
            edges,
            [0.0, np.nextafter(1.0, 0.0)],
        ))
        got = _bucket_search(table)(keys)
        assert np.array_equal(got, np.searchsorted(table, keys, side="right"))

    def test_empty_table(self):
        keys = np.array([0.0, 0.5, np.nextafter(1.0, 0.0)])
        assert _bucket_search(np.zeros(0))(keys).tolist() == [0, 0, 0]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_neighbor_tables_equal_binary_search(self, data):
        n = data.draw(st.integers(1, 40), label="n")
        node = st.integers(0, n - 1)
        # dyadic weights put entries on bucket edges; self-loops give one-entry
        # rows, and nodes no edge touches give empty ones
        dyadic = st.sampled_from([2.0**k for k in range(-6, 7)])
        weight = st.one_of(dyadic, st.floats(1e-3, 1e3))
        edges = data.draw(st.lists(st.tuples(node, node, weight), max_size=60))
        table, span = _neighbor_rows(build_graph(n, edges))[:2]
        dups = table[: data.draw(st.integers(0, len(table)), label="dups")]
        table = np.sort(np.concatenate((table, dups)))
        v = data.draw(st.lists(node, max_size=40), label="v")
        unit = st.floats(0.0, 1.0, exclude_max=True)
        u = data.draw(st.lists(unit, min_size=len(v), max_size=len(v)), label="u")
        keys = np.concatenate((
            # the walk's keys, rounded as it forms them; they can round up to n
            np.add(np.array(v, dtype=np.intp), u),
            data.draw(st.lists(st.floats(0.0, span, exclude_max=True)), label="keys"),
            np.arange(n + 1.0),
            table,
            np.nextafter(table, 0.0),
            [0.0, np.nextafter(span, 0.0)],
        ))
        got = _bucket_search(table, span)(keys)
        assert np.array_equal(got, np.searchsorted(table, keys, side="right"))

    def test_neighbor_table_stays_sorted(self):
        # cum's rounding ends row 2 at 3 + 4e-16, above row 3's lone entry 3.0
        g = build_graph(5, [(0, 1, 10.0), (0, 2, 0.1), (3, 4, 1e-300)])
        assert np.all(np.diff(_neighbor_rows(g)[0]) >= 0)
        assert ctmc_walk_sim(g, 1.0, 100, seed=0, start=0).sum() == 1.0

    def test_walk_cycle_keys_skip_the_binary_search(self, monkeypatch):
        guides = []
        build = _bucket_search

        def record(*args, **kwargs):
            guides.append(build(*args, **kwargs))
            return guides[-1]

        monkeypatch.setattr(fracgcl.diagnostics, "_bucket_search", record)
        cfg = WalkConfig(alpha=0.5, t_end=1.0, delta_tau=0.005, n_walkers=100, seed=1)
        random_walk_sim(cycle_graph(10), cfg, start=0)
        waits, picks = guides
        # a uniform key falls in each bucket alike; -1 sends it to the search
        assert np.mean(waits.direct < 0) <= 0.005
        # the cycle's entries v + 1/2 and v + 1 all sit on bucket edges
        assert np.all(picks.direct >= 0)


class TestCtmcWalk:
    def test_two_node_symmetric(self):
        g = build_graph(2, [(0, 1, 1.0)])
        dist = ctmc_walk_sim(g, 20.0, 30_000, seed=5, start=0)
        assert abs(dist[0] - 0.5) < 0.01

    def test_matches_exponential_solution(self):
        g = cycle_graph(10)
        basis = eigendecompose(normalized_laplacian(g))
        y0 = np.zeros((10, 1))
        y0[0, 0] = 1.0
        ref = solve_linear_spectral(basis, y0, 1.0, 1.0)[:, 0]
        emp = ctmc_walk_sim(g, 1.0, 100_000, seed=5, start=0)
        assert 0.5 * np.abs(emp - ref).sum() < 0.01

    def test_negative_horizon_rejected(self):
        with pytest.raises(ValueError):
            ctmc_walk_sim(cycle_graph(3), -1.0, 10, seed=0, start=0)

    # an infinite horizon never retires a walker; NaN retires all at once
    @pytest.mark.parametrize("t_end", [np.inf, np.nan])
    def test_unbounded_horizon_rejected(self, t_end):
        with pytest.raises(ValueError, match="finite"):
            ctmc_walk_sim(cycle_graph(3), t_end, 10, seed=0, start=0)

    def test_no_walkers_rejected(self):
        with pytest.raises(ValueError, match="n_walkers"):
            ctmc_walk_sim(cycle_graph(3), 1.0, 0, seed=0, start=0)

    def test_deterministic_per_seed(self):
        g = cycle_graph(5)
        assert np.array_equal(
            ctmc_walk_sim(g, 1.0, 300, seed=9, start=0),
            ctmc_walk_sim(g, 1.0, 300, seed=9, start=0),
        )

    # recorded with one np.searchsorted over the neighbor table per round and
    # rng.exponential draws; the guide and the buffered draws must match them
    @pytest.mark.parametrize(
        "graph, t_end, n_walkers, seed, digest",
        [
            # the benchmark's walk-cycle setup
            (
                "cycle",
                1.0,
                100_000,
                1,
                "56e70b2565ada19bd7f83e1754f8118ee473b15ba1b0fbf65ce33874993951a7",
            ),
            (
                "irregular",
                2.0,
                20_000,
                3,
                "6e4e4da0e6526081f40875f4a22dea7a7aefc56dd4d77ded3586402bccf5ca68",
            ),
        ],
        ids=["walk-cycle", "irregular"],
    )
    def test_occupancies_pinned(self, graph, t_end, n_walkers, seed, digest):
        g = cycle_graph(10) if graph == "cycle" else irregular_graph()
        occ = ctmc_walk_sim(g, t_end, n_walkers, seed=seed, start=0)
        assert hashlib.sha256(occ.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_weighted_irregular_graph_matches_exponential(self, seed):
        # an unweighted neighbor pick lies 0.062 away in total variation
        g = irregular_graph()
        adj = dense_adjacency(g)[:5, :5]
        ref = expm(-(np.eye(5) - adj / adj.sum(axis=1, keepdims=True)))[0]
        emp = ctmc_walk_sim(g, 1.0, 100_000, seed=seed, start=0)
        assert emp[5] == 0.0
        assert 0.5 * np.abs(emp[:5] - ref).sum() < 0.01

    def test_small_row_after_a_large_row_keeps_its_shares(self):
        # row 2's weights are 1e-18 of row 0's; cumulated raw, they once
        # rounded to one entry and node 3 got no walkers
        g = build_graph(5, [(0, 1, 1e6), (2, 3, 1e-12), (2, 4, 3e-12)])
        jump = np.array([[0.0, 0.25, 0.75], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        ref = expm(-0.01 * (np.eye(3) - jump))[0]
        emp = ctmc_walk_sim(g, 0.01, 100_000, seed=1, start=2)
        assert emp[3] / (emp[3] + emp[4]) == pytest.approx(0.25, abs=0.05)
        assert 0.5 * np.abs(emp[2:] - ref).sum() < 5e-4


def _heavy_tailed(g, t_end, n_walkers, seed, start):
    cfg = WalkConfig(
        alpha=0.5, t_end=t_end, delta_tau=0.05, n_walkers=n_walkers, seed=seed
    )
    return random_walk_sim(g, cfg, start)


@pytest.mark.parametrize("sim", [_heavy_tailed, ctmc_walk_sim], ids=["heavy", "ctmc"])
class TestWalkSimulators:
    def test_isolated_start_point_mass(self, sim):
        expected = np.zeros(6)
        expected[5] = 1.0
        assert np.array_equal(sim(irregular_graph(), 2.0, 500, 3, 5), expected)

    def test_seeds_differ(self, sim):
        g = cycle_graph(10)
        assert not np.array_equal(sim(g, 1.0, 1_000, 1, 0), sim(g, 1.0, 1_000, 2, 0))

    def test_entries_are_walker_fractions(self, sim):
        n_walkers = 1_000
        dist = sim(irregular_graph(), 1.0, n_walkers, 4, 0)
        counts = dist * n_walkers
        assert np.allclose(counts, np.round(counts), rtol=0.0, atol=1e-9)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_occupancy_stays_in_start_component(self, sim, data):
        n = data.draw(st.integers(2, 8), label="n")
        node = st.integers(0, n - 1)
        # at most n edges, self-loops allowed: most graphs split into
        # several components, some nodes isolated
        edges = data.draw(
            st.lists(st.tuples(node, node, st.floats(0.1, 5.0)), max_size=n),
            label="edges",
        )
        g = build_graph(n, edges)
        start = data.draw(node, label="start")
        t_end = data.draw(st.floats(0.0, 3.0), label="t_end")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        dist = sim(g, t_end, 200, seed, start)
        _, comp = connected_components(dense_adjacency(g), directed=False)
        assert np.all(dist[comp != comp[start]] == 0.0)
        assert np.all(dist >= 0.0)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)


def _stability_report(basis):
    """One initial-state harness run on the 12-cycle, from fixed seeds."""
    rng = np.random.default_rng(31)
    y0 = rng.normal(size=(12, 3))
    times = np.array([0.5, 1.0, 2.0, 5.0, 10.0])
    init = InitStatePerturbation(0.05, rng.normal(size=12))
    return stability_harness(basis, y0, 0.6, times, init)


class TestStability:
    def test_kernel_direction_discrepancy_constant(self, cyc12_basis):
        rng = np.random.default_rng(1)
        y0 = rng.normal(size=(12, 3))
        times = np.array([0.5, 1.0, 2.0, 5.0, 10.0])
        for alpha in (0.3, 0.7, 1.0):
            rep = stability_harness(
                cyc12_basis, y0, alpha, times,
                InitStatePerturbation(0.01, cyc12_basis.eigenvectors[:, 0]),
            )
            assert np.allclose(rep.discrepancy, 0.01, atol=1e-10)

    def test_eigen_direction_matches_kernel_value(self, cyc12_basis):
        rng = np.random.default_rng(2)
        y0 = rng.normal(size=(12, 2))
        times = np.array([0.5, 1.0, 3.0, 8.0])
        i = 6
        lam = cyc12_basis.eigenvalues[i]
        rep = stability_harness(
            cyc12_basis, y0, 0.6, times,
            InitStatePerturbation(0.05, cyc12_basis.eigenvectors[:, i]),
        )
        expected = np.array([0.05 * ml(0.6, lam, t) for t in times])
        assert np.max(np.abs(rep.discrepancy - expected)) < 1e-8

    def test_order_one_gives_exponential(self, cyc12_basis):
        rng = np.random.default_rng(3)
        y0 = rng.normal(size=(12, 2))
        times = np.array([0.5, 1.0, 2.0])
        i = 4
        lam = cyc12_basis.eigenvalues[i]
        rep = stability_harness(
            cyc12_basis, y0, 1.0, times,
            InitStatePerturbation(0.02, cyc12_basis.eigenvectors[:, i]),
        )
        assert np.allclose(rep.discrepancy, 0.02 * np.exp(-lam * times), atol=1e-10)

    def test_doubling_epsilon_doubles_exactly(self, cyc12_basis):
        rng = np.random.default_rng(4)
        y0 = rng.normal(size=(12, 2))
        times = np.array([1.0, 2.0, 4.0])
        direction = cyc12_basis.eigenvectors[:, 7]
        small = stability_harness(
            cyc12_basis, y0, 0.7, times, InitStatePerturbation(0.01, direction)
        )
        big = stability_harness(
            cyc12_basis, y0, 0.7, times, InitStatePerturbation(0.02, direction)
        )
        assert np.array_equal(big.discrepancy, 2.0 * small.discrepancy)

    def test_decay_envelope_on_top_frequency(self, cyc12_basis):
        # largest eigenvalue of the 12-cycle is exactly 2
        rng = np.random.default_rng(5)
        y0 = rng.normal(size=(12, 2))
        times = np.array([1.0, 2.0, 5.0, 10.0, 20.0, 50.0])
        i = int(np.argmax(cyc12_basis.eigenvalues))
        rep = stability_harness(
            cyc12_basis, y0, 0.8, times,
            InitStatePerturbation(0.01, cyc12_basis.eigenvectors[:, i]),
        )
        assert rep.c_fit > 0
        assert rep.holds

    # recorded with one discrepancy loop per perturbation type; the single
    # initial-state path must reproduce the report bit for bit
    @pytest.mark.parametrize(
        "mode, digest",
        [("init", "73cd0c98def01d38568fdcbf7fb4c566870e16926c44b91ffcbe2989ad13355a")],
    )
    def test_reports_pinned(self, cyc12_basis, mode, digest):
        report = _stability_report(cyc12_basis).to_dict()
        text = json.dumps(report, sort_keys=True).encode()
        assert hashlib.sha256(text).hexdigest() == digest

    def test_grid_validation(self, cyc12_basis):
        pert = InitStatePerturbation(0.01, np.ones(12))
        with pytest.raises(ValueError):
            stability_harness(cyc12_basis, np.ones((12, 1)), 0.5, np.array([-1.0]), pert)
        with pytest.raises(ValueError):
            stability_harness(
                cyc12_basis, np.ones((12, 1)), 0.5, np.array([2.0, 1.0]), pert
            )

    def test_dimension_mismatch(self, cyc12_basis):
        pert = InitStatePerturbation(0.01, np.ones(12))
        with pytest.raises(ValueError):
            stability_harness(cyc12_basis, np.ones((7, 1)), 0.5, np.array([1.0]), pert)
        with pytest.raises(ValueError):
            stability_harness(
                cyc12_basis, np.ones((12, 1)), 0.5, np.array([1.0]),
                InitStatePerturbation(0.01, np.ones(7)),
            )

