"""Loss family: cosmean, dominant directions, and the ablation losses."""

import numpy as np
import pytest

from fracgcl.losses import (
    DegenerateEmbeddingError,
    NoSpectralGapError,
    barlow_twins,
    cca_loss,
    cosmean,
    dominant_direction,
    euclidean_loss,
    regularized_cosmean,
    total_loss,
    vicreg,
)

# zero-mean, unit population-variance, mutually orthogonal columns
COL_A = np.array([1.0, 1.0, -1.0, -1.0])
COL_B = np.array([1.0, -1.0, 1.0, -1.0])
# correlated with COL_A at exactly 1/sqrt(2), still unit variance
COL_C = (COL_A + COL_B) / np.sqrt(2.0)


class TestCosmean:
    def test_identical_no_zero_rows(self):
        y = np.random.default_rng(0).normal(size=(7, 4))
        assert abs(cosmean(y, y)) < 1e-12

    def test_rowwise_orthogonal(self):
        ya = np.tile([1.0, 0.0], (5, 1))
        yb = np.tile([0.0, 1.0], (5, 1))
        assert abs(cosmean(ya, yb) - 1.0) < 1e-12

    def test_antipodal(self):
        y = np.random.default_rng(1).normal(size=(6, 3))
        assert abs(cosmean(y, -y) - 2.0) < 1e-12

    def test_zero_row_contributes_unit_loss(self):
        ya = np.array([[1.0, 0.0], [0.0, 0.0]])
        yb = np.array([[1.0, 0.0], [1.0, 1.0]])
        # row 0 aligned (sim 1), row 1 dead (sim 0): loss 1 - 1/2
        assert abs(cosmean(ya, yb) - 0.5) < 1e-12

    def test_row_rescaling_invariance(self):
        rng = np.random.default_rng(2)
        ya = rng.normal(size=(8, 5))
        yb = rng.normal(size=(8, 5))
        scale = rng.uniform(0.1, 10.0, size=(8, 1))
        assert abs(cosmean(ya * scale, yb) - cosmean(ya, yb)) < 1e-12

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            v = cosmean(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)))
            assert 0.0 <= v <= 2.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cosmean(np.zeros((3, 2)), np.zeros((4, 2)))


class TestDominantDirection:
    def test_rank_one(self):
        a = np.array([1.0, -1.0, 2.0, -2.0])  # centered
        b = np.array([3.0, 4.0])
        d = dominant_direction(np.outer(a, b))
        assert np.max(np.abs(d - b / 5.0)) < 1e-8

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=(9, 4))
        perm = rng.permutation(9)
        assert np.max(np.abs(dominant_direction(y) - dominant_direction(y[perm]))) < 1e-8

    def test_sign_rule(self):
        a = np.array([1.0, -1.0])
        d = dominant_direction(np.outer(a, [-2.0, 1.0]))
        assert d[np.argmax(np.abs(d))] > 0

    def test_isotropic_covariance_rejected(self):
        y = np.column_stack([COL_A, COL_B])
        with pytest.raises(NoSpectralGapError):
            dominant_direction(y)

    def test_constant_rows_rejected(self):
        with pytest.raises(DegenerateEmbeddingError):
            dominant_direction(np.tile([2.0, 5.0, 1.0], (6, 1)))

    def test_matches_svd(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=(15, 6))
        centered = y - y.mean(axis=0)
        ref = np.linalg.svd(centered)[2][0]
        if ref[np.argmax(np.abs(ref))] < 0:
            ref = -ref
        assert np.max(np.abs(dominant_direction(y) - ref)) < 1e-7


    def test_small_real_gap_resolved(self):
        # top two covariance eigenvalues differ by a relative 1e-6, far above
        # the 1e-9 tie threshold
        rng = np.random.default_rng(10)
        c = rng.normal(size=(40, 3))
        q = np.linalg.qr(c - c.mean(axis=0))[0]  # centered orthonormal columns
        rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        y = q @ np.diag(np.sqrt([1.0 + 1e-6, 1.0, 0.5])) @ rot.T
        ref = rot[:, 0]
        if ref[np.argmax(np.abs(ref))] < 0:
            ref = -ref
        assert np.max(np.abs(dominant_direction(y) - ref)) < 1e-8

    def test_single_column(self):
        y = np.array([[3.0], [-1.0], [0.5], [2.0]])
        assert np.array_equal(dominant_direction(y), [1.0])
        assert np.array_equal(dominant_direction(-y), [1.0])


class TestRegularizedCosmean:
    def test_eta_zero_is_plain_cosmean(self):
        rng = np.random.default_rng(6)
        ya = rng.normal(size=(7, 3))
        yb = rng.normal(size=(7, 3))
        assert regularized_cosmean(ya, yb, 0.0) == cosmean(ya, yb)

    def test_identical_views_give_eta(self):
        y = np.random.default_rng(7).normal(size=(8, 4))
        assert abs(regularized_cosmean(y, y, 0.7) - 0.7) < 1e-9

    def test_orthogonal_directions_no_penalty(self):
        rng = np.random.default_rng(8)
        spread = rng.normal(size=6)
        ya = np.column_stack([spread, np.ones(6)])
        yb = np.column_stack([np.ones(6), spread])
        got = regularized_cosmean(ya, yb, 5.0)
        assert abs(got - cosmean(ya, yb)) < 1e-9

    def test_degenerate_view_propagates(self):
        y = np.random.default_rng(9).normal(size=(6, 3))
        flat = np.ones((6, 3))
        with pytest.raises(DegenerateEmbeddingError):
            regularized_cosmean(y, flat, eta=1.0)


class TestTotalLoss:
    def test_two_identical_views_eta_zero(self):
        y = np.random.default_rng(10).normal(size=(7, 4))
        assert abs(total_loss([y, y], 0.0)) < 1e-12

    def test_three_identical_views(self):
        y = np.random.default_rng(11).normal(size=(7, 4))
        assert abs(total_loss([y, y, y], 0.4) - 3 * 0.4) < 1e-9

    def test_two_views_counts_both_ordered_pairs(self):
        rng = np.random.default_rng(12)
        ya = rng.normal(size=(6, 3))
        yb = rng.normal(size=(6, 3))
        expect = 2 * regularized_cosmean(ya, yb, 0.3)
        assert abs(total_loss([ya, yb], 0.3) - expect) < 1e-12

    def test_cyclic_shift_invariant(self):
        rng = np.random.default_rng(13)
        views = [rng.normal(size=(6, 3)) for _ in range(4)]
        a = total_loss(views, 0.2)
        b = total_loss(views[1:] + views[:1], 0.2)
        assert abs(a - b) < 1e-12

    def test_needs_two_views(self):
        with pytest.raises(ValueError):
            total_loss([np.zeros((3, 2))], 0.0)

    def test_joint_rotation_invariance_of_penalty(self):
        rng = np.random.default_rng(14)
        ya = rng.normal(size=(10, 4))
        yb = rng.normal(size=(10, 4))
        rot = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        pen = regularized_cosmean(ya, yb, 1.0) - cosmean(ya, yb)
        pen_rot = regularized_cosmean(ya @ rot, yb @ rot, 1.0) - cosmean(
            ya @ rot, yb @ rot
        )
        assert abs(pen - pen_rot) < 1e-8


class TestAblationLosses:
    def test_euclidean_identical(self):
        y = np.random.default_rng(15).normal(size=(5, 3))
        assert euclidean_loss(y, y) == 0.0

    def test_euclidean_hand_value(self):
        ya = np.array([[0.0, 0.0], [0.0, 0.0]])
        yb = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert abs(euclidean_loss(ya, yb) - 12.5) < 1e-12

    def test_bt_identity_correlation_zero_loss(self):
        y = np.column_stack([COL_A, COL_B])
        assert abs(barlow_twins(y, y, 2.0)) < 1e-12

    def test_bt_off_diagonal_penalizes_cross_correlation(self):
        # corr(A, C) = 1/sqrt(2), so the two off-diagonal entries each
        # contribute 1/2: loss = lambda exactly
        y = np.column_stack([COL_A, COL_C])
        assert abs(barlow_twins(y, y, 3.0) - 3.0) < 1e-12

    def test_bt_zero_variance_column(self):
        y = np.column_stack([COL_A, np.ones(4)])
        with pytest.raises(ValueError):
            barlow_twins(y, y, 1.0)

    def test_vicreg_hinge_inactive(self):
        y = np.column_stack([COL_A, COL_B])  # per-dim std exactly 1
        assert abs(vicreg(y, y, 1.0, 1.0, 0.0, eps=0.5)) < 1e-12

    def test_vicreg_hinge_active_hand_value(self):
        y = np.array([[0.0], [2.0]])  # std 1, eps 2 leaves deficit 1 per view
        assert abs(vicreg(y, y, 1.0, 1.0, 1.0, eps=2.0) - 2.0) < 1e-12

    def test_vicreg_covariance_hand_value(self):
        # off-diagonal covariance 1/sqrt(2) squared, both pairs, both views,
        # divided by d=2: contribution exactly 1
        y = np.column_stack([COL_A, COL_C])
        got = vicreg(y, y, 0.0, 0.0, 1.0, eps=0.5)
        assert abs(got - 1.0) < 1e-12

    def test_vicreg_weights_scale_terms(self):
        rng = np.random.default_rng(16)
        ya = rng.normal(size=(9, 4))
        yb = rng.normal(size=(9, 4))
        inv = vicreg(ya, yb, 1.0, 0.0, 0.0, eps=1.0)
        assert abs(inv - euclidean_loss(ya, yb)) < 1e-12

    def test_cca_orthonormal_identical_views(self):
        y = np.column_stack([COL_A, COL_B])
        assert abs(cca_loss(y, y, 4.0)) < 1e-12

    def test_cca_decorrelation_hand_value(self):
        # covariance off-diagonals 1/sqrt(2): dec term per view = 2*(1/2) = 1
        y = np.column_stack([COL_A, COL_C])
        assert abs(cca_loss(y, y, 3.0) - 6.0) < 1e-12

    def test_all_nonnegative(self):
        rng = np.random.default_rng(17)
        ya = rng.normal(size=(8, 3))
        yb = rng.normal(size=(8, 3))
        assert euclidean_loss(ya, yb) >= 0
        assert barlow_twins(ya, yb, 1.0) >= 0
        assert vicreg(ya, yb, 1.0, 1.0, 1.0, eps=1.0) >= 0
        assert cca_loss(ya, yb, 1.0) >= 0
