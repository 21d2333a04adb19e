"""End-to-end acceptance gate: one test per release criterion.

Each test is self-contained, uses frozen seeds, and checks both the
numerical claim and its runtime budget.  Run with ``pytest -v`` to get one
pass/fail line per criterion.
"""

import math
import time

import numpy as np
from conftest import cycle_graph, random_connected_graph
from oracles import fd_grad
from scipy.special import erfc

from fracgcl.data import SynthSpec, synth_sbm
from fracgcl.diagnostics import (
    InitStatePerturbation,
    ProbeConfig,
    WalkConfig,
    check_theorem_sgi,
    effective_rank,
    linear_probe,
    random_walk_sim,
    stability_harness,
)
from fracgcl.encoder import encoder_forward, init_bank
from fracgcl.graphs import build_graph, eigendecompose, normalized_laplacian
from fracgcl.losses import barlow_twins, cosmean, regularized_cosmean, vicreg
from fracgcl.solver import solve_caputo_pc, solve_linear_spectral
from fracgcl.special import ml
from fracgcl.training import TrainConfig, avla, grad_loss, merge_alphas

COL_A = np.array([1.0, 1.0, -1.0, -1.0])
COL_B = np.array([1.0, -1.0, 1.0, -1.0])


def test_criterion_01_kernel_accuracy():
    started = time.perf_counter()
    worst = 0.0
    for lam in (0.1, 1.0, 2.0):
        for t in np.linspace(0.0, 50.0, 101):
            worst = max(worst, abs(ml(1.0, lam, t) - math.exp(-lam * t)))
    assert worst < 1e-10, f"order-1 kernel deviates from exp by {worst:.2e}"
    err = abs(ml(0.5, 1.0, 1.0) - math.exp(1.0) * erfc(1.0))
    assert err < 1e-8, f"half-order value off by {err:.2e}"
    assert time.perf_counter() - started < 1.0


def test_criterion_02_solver_vs_closed_form():
    started = time.perf_counter()
    worst = 0.0
    for i, (n, gseed) in enumerate(((10, 0), (13, 1), (15, 2), (18, 3), (20, 4))):
        g = random_connected_graph(n, 0.3, seed=gseed)
        lap = normalized_laplacian(g)
        basis = eigendecompose(lap)
        y0 = np.random.default_rng(100 + i).normal(size=(n, 3))
        for alpha in (0.25, 0.5, 0.75, 1.0):
            exact = solve_linear_spectral(basis, y0, alpha, 2.0)
            traj = solve_caputo_pc(lambda t, y: -(lap @ y), y0, alpha, 2.0, 1e-3)
            rel = np.linalg.norm(traj.states[-1] - exact) / np.linalg.norm(exact)
            worst = max(worst, rel)
    assert worst < 1e-3, f"worst relative Frobenius error {worst:.2e}"
    assert time.perf_counter() - started < 30.0


def test_criterion_03_skip_diffusion_coefficients():
    started = time.perf_counter()
    g = build_graph(20, [(i, 10 + j, 1.0) for i in range(10) for j in range(10)])
    basis = eigendecompose(normalized_laplacian(g))
    signal = np.random.default_rng(7).normal(size=20)
    report = check_theorem_sgi(
        basis, signal, alpha_local=0.1, alpha_global=0.9, tau=1000.0, skip_count=4
    )
    v = report.verdicts
    assert time.perf_counter() - started < 10.0
    # Only the leading coefficient b_i1 = 1/(lam_i Gamma(1-alpha)), which sets
    # the tau -> infinity tail, is positive and non-increasing in frequency
    # at every order.  The higher ones are b_ij = c_j lam_i^-j with c_j from an
    # alternating series: at order 0.1 with 4 skips c_3 = a_3 + 2 a_1 a_2 +
    # a_1^3 = -0.0177, so the all-orders `positivity` and `decreasing_in_i`
    # verdicts are False here by the mathematics, not by a fault.
    lam = basis.eigenvalues
    positive = lam >= 1e-9
    for alpha, rows in ((0.1, report.b_local), (0.9, report.b_global)):
        lead = np.array([row[0] for row, p in zip(rows, positive) if p])
        assert np.all(lead > 0), f"order {alpha}: leading coefficient {lead}"
        expected = 1.0 / (lam[positive] * math.gamma(1.0 - alpha))
        np.testing.assert_allclose(lead, expected, rtol=1e-12, atol=0.0)
        assert np.all(np.diff(lead) <= 0), (
            f"order {alpha}: leading coefficient increases in frequency: {lead}"
        )
    assert v["local_dominates"], f"small order fails to dominate: {v}"
    assert v["agreement_10pct"], f"exact vs asymptotic disagree beyond 10%: {v}"


def test_criterion_04_effective_rank_ordering():
    started = time.perf_counter()
    for seed in range(5):
        ds = synth_sbm(
            SynthSpec(
                n=60,
                n_blocks=3,
                p_in=0.5,
                p_out=0.1,
                feature_dim=8,
                class_mean_separation=2.0,
                noise_sigma=0.3,
                seed=seed,
            )
        )
        basis = eigendecompose(normalized_laplacian(ds.graph))
        rank_local = effective_rank(
            solve_linear_spectral(basis, ds.features, 0.05, 20.0), 0.9
        )
        rank_global = effective_rank(
            solve_linear_spectral(basis, ds.features, 1.0, 20.0), 0.9
        )
        assert rank_local >= rank_global, (
            f"seed {seed}: rank at order 0.05 is {rank_local}, "
            f"below {rank_global} at order 1.0"
        )
    assert time.perf_counter() - started < 20.0


def test_criterion_05_perturbation_stability():
    started = time.perf_counter()
    basis = eigendecompose(normalized_laplacian(cycle_graph(12)))
    lam_top = basis.eigenvalues[-1]
    direction = basis.eigenvectors[:, -1]
    t_grid = np.array([1.0, 2.0, 5.0, 10.0, 20.0, 50.0])
    y0 = np.ones((12, 1))

    rep = stability_harness(
        basis, y0, 0.6, t_grid, InitStatePerturbation(eps=0.05, direction=direction)
    )
    expected = np.array([0.05 * abs(ml(0.6, lam_top, t)) for t in t_grid])
    gap = np.max(np.abs(rep.discrepancy - expected))
    assert gap < 1e-8, f"eigen-direction response off by {gap:.2e}"

    double = stability_harness(
        basis, y0, 0.6, t_grid, InitStatePerturbation(eps=0.10, direction=direction)
    )
    homo = np.max(np.abs(2.0 * rep.discrepancy - double.discrepancy))
    assert homo < 1e-12, f"discrepancy not homogeneous in eps: {homo:.2e}"

    # Along an eigenvector the discrepancy is eps * E_alpha(-lam t^alpha).
    # Simon's two-sided bound (Integral Transforms Spec. Funct. 26, 2015)
    # 1/(1 + Gamma(1-alpha) x) <= E_alpha(-x) <= 1/(1 + x/Gamma(1+alpha))
    # holds at every order: the perturbation never grows and decays like
    # t^-alpha.  At alpha = 1 the lower bound is 0.
    holds = {}
    for alpha in (0.3, 0.6, 1.0):
        r = stability_harness(
            basis,
            y0,
            alpha,
            t_grid,
            InitStatePerturbation(eps=0.05, direction=direction),
        )
        x = lam_top * t_grid**alpha
        lower = 0.0 if alpha == 1.0 else 0.05 / (1.0 + math.gamma(1.0 - alpha) * x)
        upper = 0.05 / (1.0 + x / math.gamma(1.0 + alpha))
        assert np.all(r.discrepancy >= lower), (
            f"order {alpha}: discrepancy {r.discrepancy} below {lower}"
        )
        assert np.all(r.discrepancy <= upper), (
            f"order {alpha}: discrepancy {r.discrepancy} above {upper}"
        )
        holds[alpha] = r.holds
    assert time.perf_counter() - started < 10.0
    # The fitted envelope C eps t^(alpha-1) decays faster than t^-alpha for
    # alpha < 1/2, so at 0.3 it must be flagged: with lam = 2 the upper bound
    # gives disc(1) <= 0.310 eps, the lower bound gives disc(50) >= 0.106 eps,
    # and the envelope allows only 0.310 eps * 50^-0.7 = 0.020 eps at t = 50.
    assert holds == {0.3: False, 0.6: True, 1.0: True}, (
        f"fitted power-law envelope verdicts {holds}"
    )


def test_criterion_06_walk_matches_solver():
    started = time.perf_counter()
    g = cycle_graph(10)
    basis = eigendecompose(normalized_laplacian(g))
    cfg = WalkConfig(
        alpha=0.5, t_end=1.0, delta_tau=0.005, n_walkers=100_000, seed=11
    )
    emp = random_walk_sim(g, cfg, start=0)
    y0 = np.zeros((10, 1))
    y0[0, 0] = 1.0
    closed = solve_linear_spectral(basis, y0, 0.5, 1.0).ravel()
    tv = 0.5 * np.abs(emp - closed).sum()
    assert tv < 0.02, f"total variation {tv:.4f}"
    assert time.perf_counter() - started < 60.0


def test_criterion_07_gradient_correctness():
    started = time.perf_counter()
    g = random_connected_graph(12, 0.3, seed=2)
    basis = eigendecompose(normalized_laplacian(g))
    rng = np.random.default_rng(20)
    feats = rng.normal(size=(12, 10))
    bank = init_bank(10, 6, [0.2, 0.55, 0.9], horizon=2.0, rng=rng)
    analytic = grad_loss(basis, feats, bank, eta=0.7)

    coord_rng = np.random.default_rng(77)
    coords = []
    for k in range(3):
        flat = coord_rng.choice(100, size=50, replace=False)
        coords += [(k, int(f) // 10, int(f) % 10) for f in flat]
    fd = fd_grad(basis, feats, bank, 0.7, "relu", coords=coords)

    for k, (a, f) in enumerate(zip(analytic.alpha, fd.alpha)):
        rel = abs(a - f) / max(abs(f), 1e-12)
        assert rel < 1e-4, f"order gradient {k}: relative error {rel:.2e}"
    for k, i, j in coords:
        a, f = analytic.w[k][i, j], fd.w[k][i, j]
        rel = abs(a - f) / max(abs(f), 1e-12)
        assert rel < 1e-4, f"weight gradient ({k},{i},{j}): relative error {rel:.2e}"
    assert time.perf_counter() - started < 30.0


def test_criterion_08_view_learning_behavior():
    started = time.perf_counter()
    merged = merge_alphas([0.5, 0.5001, 0.9], 0.01, np.random.default_rng(0))
    assert len(merged) == 2, f"hand trace should leave 2 orders, got {merged}"
    assert merged[1] == 0.9 and merged[0] in (0.5, 0.5001)

    g = random_connected_graph(14, 0.3, seed=6)
    basis = eigendecompose(normalized_laplacian(g))
    feats = np.random.default_rng(8).normal(size=(14, 5))
    cfg = TrainConfig(
        k_init=3, lr_w=0.02, lr_alpha=0.05, epochs_n=8, merge_delta=0.05, seed=3
    )
    runs = [avla(basis, feats, cfg, horizon=2.0, d_hid=5) for _ in range(2)]
    (k1, finals1, bank1, rep1), (k2, finals2, bank2, rep2) = runs
    assert rep1.to_dict() == rep2.to_dict(), "rerun with same seed diverged"
    for e1, e2 in zip(bank1.encoders, bank2.encoders):
        assert np.array_equal(e1.weights, e2.weights)

    logs = np.log(np.sort(finals1))
    if len(logs) > 1:
        assert np.min(np.diff(logs)) >= cfg.merge_delta, (
            "final orders closer than the merge threshold"
        )
    view_counts = [len(rt[0]) for rt in rep1.alpha_traces]
    assert all(a >= b for a, b in zip(view_counts, view_counts[1:])), (
        f"view count increased across rounds: {view_counts}"
    )
    assert time.perf_counter() - started < 10.0


def test_criterion_09_loss_identities():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    y = rng.normal(size=(7, 4))
    assert abs(cosmean(y, y)) < 1e-12
    assert abs(cosmean(y, -y) - 2.0) < 1e-12
    for _ in range(20):
        v = cosmean(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)))
        assert 0.0 <= v <= 2.0

    ya, yb = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
    assert regularized_cosmean(ya, yb, 0.0) == cosmean(ya, yb)
    z = rng.normal(size=(8, 4))
    assert abs(regularized_cosmean(z, z, 0.7) - 0.7) < 1e-9

    bt_input = np.column_stack([COL_A, COL_B])
    assert abs(barlow_twins(bt_input, bt_input, 2.0)) < 1e-12
    assert abs(vicreg(bt_input, bt_input, 1.0, 1.0, 0.0, eps=0.5)) < 1e-12
    assert time.perf_counter() - started < 5.0


def test_criterion_10_end_to_end_learning_signal():
    started = time.perf_counter()
    probe_cfg = ProbeConfig(seed=0)
    raw_accs, gains = [], []
    for seed in range(5):
        ds = synth_sbm(
            SynthSpec(
                n=200,
                n_blocks=2,
                p_in=0.02,
                p_out=0.1,
                feature_dim=8,
                class_mean_separation=0.36,
                noise_sigma=1.0,
                seed=seed,
            )
        )
        basis = eigendecompose(normalized_laplacian(ds.graph))
        raw = linear_probe(ds.features, ds.labels, ds.splits, probe_cfg)[2]
        raw_accs.append(raw)
        cfg = TrainConfig(
            k_init=5, lr_w=0.05, lr_alpha=0.05, epochs_n=30, eta=1.0, seed=seed
        )
        _, _, bank, _ = avla(
            basis, ds.features, cfg, horizon=20.0, d_hid=8, activation="identity"
        )
        views = [
            encoder_forward(basis, ds.features, enc, activation="identity").matrix
            for enc in bank.encoders
        ]
        embedded = np.hstack(views)
        emb = linear_probe(embedded, ds.labels, ds.splits, probe_cfg)[2]
        gains.append(emb - raw)

    baseline = float(np.mean(raw_accs))
    assert 0.55 <= baseline <= 0.65, (
        f"raw-feature baseline {baseline:.3f} outside the tuned 55-65% band"
    )
    # 0.10 - 1e-9 guards against float representation of accuracy deltas
    # (accuracies are exact multiples of 1/40 here)
    wins = sum(gain >= 0.10 - 1e-9 for gain in gains)
    assert wins >= 4, (
        f"embedding beat raw by >= 10 points on only {wins}/5 seeds "
        f"(gains: {[round(g, 3) for g in gains]})"
    )
    assert time.perf_counter() - started < 300.0


def test_criterion_11_probe_sanity():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    half = 20
    feats = np.vstack(
        [
            rng.normal(0, 0.1, (half, 3)) + [10, 0, 0],
            rng.normal(0, 0.1, (half, 3)) - [10, 0, 0],
        ]
    )
    labels = np.array([0] * half + [1] * half)
    perm = rng.permutation(2 * half)
    splits = {
        "train": perm[:20].tolist(),
        "val": perm[20:30].tolist(),
        "test": perm[30:].tolist(),
    }
    accs = linear_probe(feats, labels, splits, ProbeConfig(seed=0))
    assert accs == (1.0, 1.0, 1.0), f"separable blobs scored {accs}"

    rng = np.random.default_rng(123)
    feats = rng.normal(size=(100, 5))
    labels = rng.integers(0, 2, size=100)
    perm = rng.permutation(100)
    splits = {
        "train": perm[:48].tolist(),
        "val": perm[48:80].tolist(),
        "test": perm[80:].tolist(),
    }
    test_acc = linear_probe(feats, labels, splits, ProbeConfig(seed=0))[2]
    assert abs(test_acc - 0.5) <= 0.10, f"random labels scored {test_acc:.3f}"
    assert time.perf_counter() - started < 10.0
