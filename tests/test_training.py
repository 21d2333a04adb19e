"""Tests for gradient computation, order clipping/merging, and AVLA."""

import hashlib

import numpy as np
import pytest
from conftest import (
    cycle_graph,
    operator_of,
    random_connected_graph,
    sbm_connected_graph,
)
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st
from oracles import fd_grad, total_loss

from fracgcl import training
from fracgcl.encoder import EncoderBank, EncoderParams, encoder_forward, init_bank
from fracgcl.losses import DegenerateEmbeddingError, NoSpectralGapError, dominant_direction
from fracgcl.solver import _diffusion_filter
from fracgcl.training import TrainConfig, avla, grad_loss, merge_alphas


@pytest.fixture(scope="module")
def cyc10_basis():
    return operator_of(cycle_graph(10), "basis")


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.k_init == 5
        assert cfg.clip_eps == 1e-4
        assert cfg.merge_delta == 1e-4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k_init": 1},
            {"lr_w": -0.1},
            {"epochs_n": -1},
            {"clip_eps": 0.0},
            {"clip_eps": 1.0},
            {"merge_delta": 0.0},
            {"eta": -1.0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)


class TestMergeAlphas:
    def test_close_pair_collapses(self):
        rng = np.random.default_rng(0)
        out = merge_alphas([0.5, 0.5001, 0.9], 0.01, rng)
        assert len(out) == 2
        assert out[1] == 0.9
        assert out[0] in (0.5, 0.5001)
        assert out == sorted(out)

    def test_separated_set_unchanged(self):
        rng = np.random.default_rng(0)
        assert merge_alphas([0.9, 0.1], 0.01, rng) == [0.1, 0.9]

    def test_all_equal_single_survivor(self):
        rng = np.random.default_rng(0)
        assert merge_alphas([0.7, 0.7, 0.7], 0.01, rng) == [0.7]

    def test_chaining_links_transitively(self):
        # consecutive gaps below the threshold, endpoints above it
        vals = [0.5, 0.5 * np.exp(0.009), 0.5 * np.exp(0.018)]
        out = merge_alphas(vals, 0.01, np.random.default_rng(0))
        assert len(out) == 1
        assert out[0] in vals

    def test_survivor_chosen_uniformly(self):
        hits = sum(
            merge_alphas([0.5, 0.5001], 0.01, np.random.default_rng(s))[0] == 0.5
            for s in range(400)
        )
        assert 140 <= hits <= 260

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_alphas([], 0.01, np.random.default_rng(0))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            merge_alphas([0.5, 1.2], 0.01, np.random.default_rng(0))


def _max_tensor_gap(ga, gf):
    """Worst per-tensor deviation under the atol + rtol convention."""
    gap = 0.0
    for wa, wf in zip(ga.w, gf.w):
        gap = max(gap, float(np.max(np.abs(wa - wf)) - 1e-4 * np.max(np.abs(wf))))
    for aa, af in zip(ga.alpha, gf.alpha):
        gap = max(gap, abs(aa - af) - 1e-4 * abs(af))
    return gap


class TestGradLoss:
    def test_identical_encoders_symmetric_gradients(self, cyc10_basis):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10, 4))
        w = rng.uniform(-1, 1, (4, 3)) / 2.0
        bank = EncoderBank(
            encoders=(
                EncoderParams(w, 0.5, 2.0),
                EncoderParams(w, 0.5, 2.0),
            )
        )
        g = grad_loss(cyc10_basis, x, bank, eta=0.0)
        assert np.allclose(g.w[0], g.w[1], atol=1e-12)
        assert g.alpha[0] == pytest.approx(g.alpha[1], abs=1e-12)

    @pytest.mark.parametrize("activation", ["relu", "identity"])
    def test_single_frequency_input_kills_order_gradient(self, cyc10_basis, activation):
        # columns in the span of one eigenvector: the relaxation multiplier
        # rescales every row by the same positive factor, which the row-wise
        # cosine objective cannot see, so dL/dalpha vanishes identically.
        # the top cycle eigenvector is simple and has no zero entries, so no
        # row of the view degenerates to rounding noise
        rng = np.random.default_rng(1)
        x = np.outer(cyc10_basis.eigenvectors[:, 9], rng.normal(size=3))
        bank = init_bank(3, 3, [0.4, 0.8], 2.0, np.random.default_rng(2))
        ga = grad_loss(cyc10_basis, x, bank, eta=0.0, activation=activation)
        gf = fd_grad(cyc10_basis, x, bank, 0.0, activation)
        for k in range(2):
            assert abs(ga.alpha[k]) < 1e-8
            assert abs(gf.alpha[k]) < 1e-6

    @pytest.mark.parametrize("seed", [3, 4, 5])
    @pytest.mark.parametrize("eta", [0.0, 0.5])
    def test_analytic_matches_finite_difference(self, seed, eta):
        g = random_connected_graph(12, 0.35, seed=seed)
        basis = operator_of(g, "basis")
        x = np.random.default_rng(100 + seed).normal(size=(12, 4))
        bank = init_bank(4, 3, [0.3, 0.7, 1.0], 2.0, np.random.default_rng(seed))
        for activation in ("relu", "identity"):
            ga = grad_loss(basis, x, bank, eta, activation)
            gf = fd_grad(basis, x, bank, eta, activation)
            assert _max_tensor_gap(ga, gf) < 1e-7

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(4, 7),
        alphas=st.lists(
            st.sampled_from([1e-4, 1.0]) | st.floats(1e-4, 1.0), min_size=2, max_size=3
        ),
        d_in=st.integers(1, 3),
        width=st.integers(1, 3),
        horizon=st.floats(0.5, 5.0),
        eta=st.sampled_from([0.0, 0.5]),
        activation=st.sampled_from(["relu", "identity"]),
        seed=st.integers(0, 2**32 - 1),
    )
    # orders at the clip floor and at 1, and one ReLU-dead row in each view
    @example(
        n=6, alphas=[1e-4, 1.0], d_in=2, width=2, horizon=2.0, eta=0.5,
        activation="relu", seed=4,
    )
    # the eigenbasis filter, and the Krylov filter of the Laplacian's rows
    @pytest.mark.parametrize("operator", ["basis", "rows"])
    def test_analytic_matches_finite_difference_on_random_banks(
        self, operator, n, alphas, d_in, width, horizon, eta, activation, seed
    ):
        op = operator_of(random_connected_graph(n, 0.5, seed), operator)
        rng = np.random.default_rng([seed, 1])
        x = rng.normal(size=(n, d_in))
        bank = EncoderBank(
            encoders=tuple(
                EncoderParams(rng.uniform(-1, 1, (d_in, width)), a, horizon)
                for a in sorted(alphas)
            )
        )
        views = [encoder_forward(op, x, e, "identity").matrix for e in bank.encoders]
        if activation == "relu":
            # finite differences straddling a kink see a one-sided slope
            assume(all(np.min(np.abs(v)) > 1e-4 for v in views))
            views = [np.maximum(v, 0.0) for v in views]
        if eta != 0.0:
            for v in views:
                try:
                    dominant_direction(v)
                except (DegenerateEmbeddingError, NoSpectralGapError):
                    reject()
        ga = grad_loss(op, x, bank, eta, activation)
        gf = fd_grad(op, x, bank, eta, activation)
        assert _max_tensor_gap(ga, gf) < 1e-7

    # a batched path that assumed one horizon for the bank would fail here
    @pytest.mark.parametrize("operator", ["basis", "rows"])
    @pytest.mark.parametrize("eta", [0.0, 0.5])
    def test_mixed_horizons_match_finite_difference(self, operator, eta):
        op = operator_of(random_connected_graph(12, 0.35, seed=6), operator)
        rng = np.random.default_rng(106)
        x = rng.normal(size=(12, 4))
        bank = EncoderBank(
            encoders=tuple(
                EncoderParams(rng.uniform(-1, 1, (4, 3)) / 2.0, a, h)
                for a, h in zip([0.3, 0.6, 0.9], [1.0, 2.0, 3.5])
            )
        )
        for activation in ("relu", "identity"):
            ga = grad_loss(op, x, bank, eta, activation)
            gf = fd_grad(op, x, bank, eta, activation)
            assert _max_tensor_gap(ga, gf) < 1e-7

    def test_degenerate_view_is_named_with_its_order(self, cyc10_basis):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(10, 3))
        weights = [rng.uniform(-1, 1, (3, 2)) for _ in range(4)]
        weights[2] = np.zeros((3, 2))
        bank = EncoderBank(
            encoders=tuple(
                EncoderParams(w, a, 2.0) for w, a in zip(weights, [0.2, 0.4, 0.6, 0.8])
            )
        )
        with pytest.raises(FloatingPointError, match=r"view 2 \(alpha=0\.6\): "):
            grad_loss(cyc10_basis, x, bank, eta=0.5)


class TestLossAndGrads:
    @pytest.mark.parametrize("operator", ["basis", "rows"])
    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_loss_is_total_loss_of_its_views(self, operator, eta, monkeypatch):
        op = operator_of(sbm_connected_graph(24, 3, 0.6, 0.1, seed=2), operator)
        x = np.random.default_rng(5).normal(size=(24, 4))
        rng = np.random.default_rng(6)
        w_list = [rng.uniform(-1, 1, (4, 3)) for _ in range(3)]
        seen = []
        objective = training._objective

        def recording(views, axes, eta):
            seen.append(views)
            return objective(views, axes, eta)

        monkeypatch.setattr(training, "_objective", recording)
        filt = _diffusion_filter(op, x, 2.0)
        loss, _ = training._loss_and_grads(
            filt, w_list, [0.2, 0.5, 0.9], [2.0] * 3, eta, "relu"
        )
        assert any(np.any(np.all(v == 0.0, axis=1)) for v in seen[0])
        assert loss == total_loss(seen[0], eta)


class TestAvla:
    @staticmethod
    def pinned_run(operator):
        """A run with one merge and ReLU-dead rows in its views."""
        op = operator_of(sbm_connected_graph(24, 3, 0.6, 0.1, seed=2), operator)
        x = np.random.default_rng(5).normal(size=(24, 4))
        cfg = TrainConfig(
            k_init=4, epochs_n=6, lr_w=0.05, lr_alpha=0.05, merge_delta=0.3, seed=3
        )
        _, finals, bank, report = avla(op, x, cfg, horizon=2.0, d_hid=2)
        return finals, bank, report

    # sha256 of the final orders then every final weight matrix, and the last
    # epoch's loss
    @pytest.mark.parametrize(
        "operator, digest, last_loss",
        [
            (
                "basis",
                "31056247f92bb3a2958217a859858b2a131cfcc354fde4a8852154b96e383ff7",
                2.0205727782229657,
            ),
            (
                "rows",
                "63ede6e396c99fbaa92956774b6475344b4dc1c30ee917887f1e5ca4c7731e37",
                2.020572778222952,
            ),
        ],
    )
    def test_outputs_pinned(self, operator, digest, last_loss):
        finals, bank, report = self.pinned_run(operator)
        h = hashlib.sha256(np.asarray(finals).tobytes())
        for enc in bank.encoders:
            h.update(np.ascontiguousarray(enc.weights).tobytes())
        assert len(report.merge_events) == 1
        assert h.hexdigest() == digest
        assert report.losses[-1] == pytest.approx(last_loss, rel=1e-15, abs=0.0)
        if operator == "rows":
            # the Krylov filter's run agrees with the eigenbasis run
            want_finals, want_bank, want_report = self.pinned_run("basis")
            assert np.abs(np.subtract(finals, want_finals)).max() < 1e-12
            for got, want in zip(bank.encoders, want_bank.encoders):
                assert np.abs(got.weights - want.weights).max() < 1e-12
            assert report.losses[-1] == pytest.approx(
                want_report.losses[-1], rel=1e-13, abs=0.0
            )

    def test_separated_orders_terminate_in_one_round(self, cyc10_basis):
        x = np.random.default_rng(0).normal(size=(10, 3))
        cfg = TrainConfig(k_init=2, lr_alpha=0.0, epochs_n=1, merge_delta=1e-4, seed=1)
        k, finals, bank, report = avla(
            cyc10_basis, x, cfg, horizon=2.0, alpha_init=[0.01, 1.0]
        )
        assert k == 2
        assert finals == [0.01, 1.0]
        assert len(report.alpha_traces) == 1
        assert report.merge_events == ()
        assert bank.alphas == [0.01, 1.0]

    def test_close_orders_merge_once_then_stop(self, cyc10_basis):
        x = np.random.default_rng(0).normal(size=(10, 3))
        cfg = TrainConfig(k_init=3, lr_alpha=0.0, epochs_n=1, merge_delta=1e-4, seed=1)
        k, finals, _, report = avla(
            cyc10_basis, x, cfg, horizon=2.0, alpha_init=[0.5, 0.5 + 1e-6, 0.9]
        )
        assert k == 2
        assert len(report.alpha_traces) == 2
        assert len(report.merge_events) == 1
        event = report.merge_events[0]
        assert event["round"] == 0
        assert sorted(event["merged"]) == [0.5, 0.5 + 1e-6]
        assert finals[1] == 0.9
        assert finals[0] in (0.5, 0.5 + 1e-6)

    def test_same_seed_identical_reports(self, cyc10_basis):
        x = np.random.default_rng(3).normal(size=(10, 3))
        cfg = TrainConfig(k_init=3, epochs_n=2, lr_w=0.01, lr_alpha=0.01, seed=11)
        _, _, bank_a, rep_a = avla(cyc10_basis, x, cfg, horizon=2.0)
        _, _, bank_b, rep_b = avla(cyc10_basis, x, cfg, horizon=2.0)
        assert rep_a.to_dict() == rep_b.to_dict()
        for pa, pb in zip(bank_a.encoders, bank_b.encoders):
            assert np.array_equal(pa.weights, pb.weights)

    def test_orders_stay_clipped(self, cyc10_basis):
        x = np.random.default_rng(4).normal(size=(10, 3))
        cfg = TrainConfig(
            k_init=3, epochs_n=5, lr_w=0.05, lr_alpha=0.8, clip_eps=1e-3, seed=5
        )
        _, finals, _, report = avla(cyc10_basis, x, cfg, horizon=2.0)
        for round_trace in report.alpha_traces:
            for snapshot in round_trace:
                for a in snapshot:
                    assert 1e-3 <= a <= 1.0
        for a in finals:
            assert 1e-3 <= a <= 1.0

    def test_final_orders_log_separated(self, cyc10_basis):
        x = np.random.default_rng(5).normal(size=(10, 3))
        cfg = TrainConfig(k_init=4, epochs_n=2, lr_alpha=0.05, merge_delta=0.05, seed=6)
        _, finals, _, _ = avla(cyc10_basis, x, cfg, horizon=2.0)
        logs = np.log(finals)
        assert np.all(np.diff(logs) >= 0.05)

    def test_view_count_never_grows(self, cyc10_basis):
        x = np.random.default_rng(6).normal(size=(10, 3))
        cfg = TrainConfig(k_init=4, epochs_n=1, lr_alpha=0.0, merge_delta=0.2, seed=7)
        _, _, _, report = avla(
            cyc10_basis, x, cfg, horizon=2.0, alpha_init=[0.2, 0.25, 0.6, 1.0]
        )
        widths = [len(trace[0]) for trace in report.alpha_traces]
        assert all(a >= b for a, b in zip(widths, widths[1:]))

    def test_frozen_order_rate_keeps_orders_constant(self, cyc10_basis):
        x = np.random.default_rng(7).normal(size=(10, 3))
        cfg = TrainConfig(k_init=2, epochs_n=4, lr_alpha=0.0, seed=8)
        _, _, _, report = avla(
            cyc10_basis, x, cfg, horizon=2.0, alpha_init=[0.3, 0.9]
        )
        for round_trace in report.alpha_traces:
            assert all(snapshot == round_trace[0] for snapshot in round_trace)

    def test_loss_decreases_over_first_epoch(self):
        g = sbm_connected_graph(24, 3, 0.6, 0.1, seed=9)
        basis = operator_of(g, "basis")
        x = np.random.default_rng(10).normal(size=(24, 5))
        cfg = TrainConfig(k_init=3, epochs_n=2, lr_w=1e-3, lr_alpha=1e-3, seed=12)
        _, _, _, report = avla(basis, x, cfg, horizon=2.0)
        assert report.losses[1] < report.losses[0]

    def test_collapse_to_single_view_reported(self, cyc10_basis):
        x = np.random.default_rng(8).normal(size=(10, 3))
        cfg = TrainConfig(k_init=2, lr_alpha=0.0, epochs_n=1, merge_delta=0.01, seed=9)
        with pytest.raises(RuntimeError, match="merged into one"):
            avla(cyc10_basis, x, cfg, horizon=2.0, alpha_init=[0.5, 0.5001])

    def test_alpha_init_length_checked(self, cyc10_basis):
        x = np.ones((10, 2))
        cfg = TrainConfig(k_init=3, epochs_n=1)
        with pytest.raises(ValueError, match="k_init"):
            avla(cyc10_basis, x, cfg, horizon=2.0, alpha_init=[0.5, 0.9])

    def test_alpha_init_range_checked(self, cyc10_basis):
        x = np.ones((10, 2))
        cfg = TrainConfig(k_init=2, epochs_n=1)
        with pytest.raises(ValueError, match="orders"):
            avla(cyc10_basis, x, cfg, horizon=2.0, alpha_init=[0.5, 1.4])

    def test_feature_shape_checked(self, cyc10_basis):
        cfg = TrainConfig(k_init=2, epochs_n=1)
        with pytest.raises(ValueError, match="n_nodes"):
            avla(cyc10_basis, np.ones((7, 2)), cfg, horizon=2.0)

    def test_non_finite_gradient_names_round_and_epoch(self, cyc10_basis, monkeypatch):
        objective = training._objective

        def poisoned(views, axes, eta):
            loss, grads = objective(views, axes, eta)
            return loss, [np.full_like(g, np.nan) for g in grads]

        monkeypatch.setattr(training, "_objective", poisoned)
        x = np.random.default_rng(9).normal(size=(10, 2))
        cfg = TrainConfig(k_init=2, epochs_n=1, seed=13)
        with pytest.raises(
            FloatingPointError, match="training round 0, epoch 0: non-finite gradient"
        ):
            avla(cyc10_basis, x, cfg, horizon=2.0, alpha_init=[0.3, 0.9])

