"""Joint training of projection weights and fractional orders.

Plain gradient descent drives both the per-view weight matrices and the
fractional orders; after each training round, orders that have drifted
within a log-scale threshold of each other are merged and the survivors
are retrained from fresh weights.  The loop ends when a round produces
no merge, leaving a set of well-separated views.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoder import (
    EncoderBank,
    EncoderParams,
    combine_views,
    encoder_forward,
    init_encoder_params,
)
from .graphs import SpectralBasis
from .losses import cosmean, dominant_direction, total_loss
from .special import ml_spectrum

__all__ = [
    "TrainConfig",
    "TrainReport",
    "BankGradients",
    "grad_loss",
    "clip_alpha",
    "merge_alphas",
    "avla",
    "tune_beta",
]

_GRAD_MODES = ("analytic", "finite_difference")

# power-iteration settings used inside gradient evaluation: tighter than the
# public dominant_direction defaults so finite-difference quotients are not
# dominated by iteration noise
_DIR_TOL = 1e-14
_DIR_MAX_ITER = 10_000


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the training loop; see avla for their interaction."""

    k_init: int = 5
    lr_w: float = 0.01
    lr_alpha: float = 0.01
    epochs_n: int = 50
    clip_eps: float = 1e-4
    merge_delta: float = 1e-4
    eta: float = 1.0
    seed: int = 0
    grad_mode: str = "analytic"

    def __post_init__(self) -> None:
        if self.k_init < 2:
            raise ValueError(f"k_init must be at least 2, got {self.k_init}")
        if self.lr_w < 0 or self.lr_alpha < 0:
            raise ValueError("learning rates must be nonnegative")
        if self.epochs_n < 0:
            raise ValueError("epochs_n must be nonnegative")
        if not 0.0 < self.clip_eps < 1.0:
            raise ValueError(f"clip_eps must lie in (0, 1), got {self.clip_eps}")
        if self.merge_delta <= 0.0:
            raise ValueError(f"merge_delta must be positive, got {self.merge_delta}")
        if self.eta < 0.0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")
        if self.grad_mode not in _GRAD_MODES:
            raise ValueError(f"grad_mode must be one of {_GRAD_MODES}")


@dataclass(frozen=True)
class TrainReport:
    """Everything the training loop did, JSON-serializable via to_dict."""

    epochs: int
    losses: tuple[float, ...]
    alpha_traces: tuple
    merge_events: tuple
    final_alphas: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "losses": list(self.losses),
            "alpha_traces": [
                [list(snapshot) for snapshot in round_trace]
                for round_trace in self.alpha_traces
            ],
            "merge_events": [dict(e) for e in self.merge_events],
            "final_alphas": list(self.final_alphas),
        }


@dataclass(frozen=True)
class BankGradients:
    """Per-encoder gradients: one weight matrix and one order derivative each."""

    w: tuple
    alpha: tuple[float, ...]


def clip_alpha(alpha: float, eps: float) -> float:
    """Clamp an order into [eps, 1]."""
    return min(1.0, max(float(alpha), float(eps)))


def _cosmean_pair_grads(a: np.ndarray, b: np.ndarray):
    """Gradients of cosmean(a, b) w.r.t. both arguments; dead rows give 0."""
    n = a.shape[0]
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    live = (na > 0.0) & (nb > 0.0)
    da = np.zeros_like(a)
    db = np.zeros_like(b)
    inv = np.zeros(n)
    inv[live] = 1.0 / (na[live] * nb[live])
    cos = np.einsum("ij,ij->i", a, b) * inv
    with np.errstate(invalid="ignore", divide="ignore"):
        ca = np.where(live, cos / na**2, 0.0)
        cb = np.where(live, cos / nb**2, 0.0)
    da[live] = -(b[live] * inv[live, None] - ca[live, None] * a[live]) / n
    db[live] = -(a[live] * inv[live, None] - cb[live, None] * b[live]) / n
    return da, db


def _direction_state(y: np.ndarray, tol: float, max_iter: int):
    """Dominant direction plus the pieces its derivative needs."""
    v = dominant_direction(y, tol, max_iter)
    centered = y - y.mean(axis=0, keepdims=True)
    gram = centered.T @ centered
    mu1 = float(v @ gram @ v)
    return centered, gram, mu1, v


def _penalty_grad(centered, gram, mu1, v, v_other, sign):
    """Gradient of sign * <v(Y), v_other> w.r.t. Y.

    The top-eigenvector derivative is the pseudoinverse (mu1 I - G)^+
    applied to the off-eigenvector part of v_other; the rank-one shift
    makes the system nonsingular while pinning the solution orthogonal
    to v.
    """
    d = gram.shape[0]
    rhs = v_other - float(v_other @ v) * v
    mat = mu1 * np.eye(d) - gram + mu1 * np.outer(v, v)
    u = np.linalg.solve(mat, rhs)
    gbar = sign * centered @ (np.outer(v, u) + np.outer(u, v))
    return gbar - gbar.mean(axis=0, keepdims=True)


def _forward_pieces(basis, features, w_list, alpha_list, horizons, activation):
    """Forward pass keeping the intermediates the backward pass reuses."""
    u = basis.eigenvectors
    lam = basis.eigenvalues
    projected = [features @ w for w in w_list]
    spectra = [u.T @ z for z in projected]
    damps, sens = zip(*(ml_spectrum(a, lam, h) for a, h in zip(alpha_list, horizons)))
    pre = [u @ (d[:, None] * s) for d, s in zip(damps, spectra)]
    if activation == "relu":
        outs = [np.maximum(p, 0.0) for p in pre]
        masks = [(p > 0.0).astype(float) for p in pre]
    elif activation == "identity":
        outs = list(pre)
        masks = [np.ones_like(p) for p in pre]
    else:
        raise ValueError(f"unknown activation {activation!r}")
    return projected, spectra, damps, sens, outs, masks


def _analytic_loss_and_grads(
    basis, features, w_list, alpha_list, horizons, eta, activation
):
    u = basis.eigenvectors
    k = len(w_list)
    _, spectra, damps, sens, outs, masks = _forward_pieces(
        basis, features, w_list, alpha_list, horizons, activation
    )
    states = None
    if eta != 0.0:
        states = [_direction_state(y, _DIR_TOL, _DIR_MAX_ITER) for y in outs]
    loss = 0.0
    d_out = [np.zeros_like(y) for y in outs]
    for i in range(k):
        j = (i + 1) % k
        loss += cosmean(outs[i], outs[j])
        da, db = _cosmean_pair_grads(outs[i], outs[j])
        d_out[i] += da
        d_out[j] += db
        if states is not None:
            vi, vj = states[i][3], states[j][3]
            ip = float(vi @ vj)
            loss += eta * abs(ip)
            sign = float(np.sign(ip))
            if sign != 0.0:
                d_out[i] += eta * _penalty_grad(*states[i], vj, sign)
                d_out[j] += eta * _penalty_grad(*states[j], vi, sign)
    grads_w = []
    grads_a = []
    for i in range(k):
        d_pre_spec = u.T @ (d_out[i] * masks[i])
        grads_w.append(features.T @ (u @ (damps[i][:, None] * d_pre_spec)))
        grads_a.append(float(np.sum(d_pre_spec * (sens[i][:, None] * spectra[i]))))
    return loss, BankGradients(w=tuple(grads_w), alpha=tuple(grads_a))


def _fd_loss(basis, features, w_list, alpha_list, horizons, eta, activation):
    views = [
        encoder_forward(
            basis, features, EncoderParams(w, a, h), activation
        ).matrix
        for w, a, h in zip(w_list, alpha_list, horizons)
    ]
    return total_loss(views, eta, _DIR_TOL, _DIR_MAX_ITER), views


def _fd_loss_and_grads(
    basis, features, w_list, alpha_list, horizons, eta, activation, step, w_coords
):
    loss, base_views = _fd_loss(
        basis, features, w_list, alpha_list, horizons, eta, activation
    )

    def loss_with_view(idx, w, a):
        view = encoder_forward(
            basis, features, EncoderParams(w, a, horizons[idx]), activation
        ).matrix
        swapped = list(base_views)
        swapped[idx] = view
        return total_loss(swapped, eta, _DIR_TOL, _DIR_MAX_ITER)

    grads_a = []
    for idx, a in enumerate(alpha_list):
        # central difference, falling back to a second-order one-sided
        # stencil at the order's domain boundary
        if a + step <= 1.0:
            up = loss_with_view(idx, w_list[idx], a + step)
            down = loss_with_view(idx, w_list[idx], a - step)
            grads_a.append((up - down) / (2 * step))
        else:
            down = loss_with_view(idx, w_list[idx], a - step)
            down2 = loss_with_view(idx, w_list[idx], a - 2 * step)
            grads_a.append((3 * loss - 4 * down + down2) / (2 * step))
    grads_w = [np.zeros_like(w) for w in w_list]
    if w_coords is None:
        w_coords = [
            (idx, i, j)
            for idx, w in enumerate(w_list)
            for i in range(w.shape[0])
            for j in range(w.shape[1])
        ]
    for idx, i, j in w_coords:
        bumped = w_list[idx].copy()
        bumped[i, j] += step
        up = loss_with_view(idx, bumped, alpha_list[idx])
        bumped[i, j] -= 2 * step
        down = loss_with_view(idx, bumped, alpha_list[idx])
        grads_w[idx][i, j] = (up - down) / (2 * step)
    return loss, BankGradients(w=tuple(grads_w), alpha=tuple(grads_a))


def grad_loss(
    basis: SpectralBasis,
    features: np.ndarray,
    bank: EncoderBank,
    eta: float,
    mode: str = "analytic",
    activation: str = "relu",
    fd_step: float = 1e-5,
    fd_w_coords=None,
) -> BankGradients:
    """Gradients of the total contrastive loss over all bank parameters.

    Analytic mode chains the loss through the activation, the per-frequency
    relaxation multipliers (order sensitivity from ml_spectrum), and the
    projection.  Finite-difference mode recomputes the loss under small
    parameter bumps; fd_w_coords restricts which weight entries are probed
    (None probes all of them, unprobed entries read 0).
    """
    if mode not in _GRAD_MODES:
        raise ValueError(f"mode must be one of {_GRAD_MODES}")
    w_list = [p.weights for p in bank.encoders]
    alpha_list = [p.alpha for p in bank.encoders]
    horizons = [p.horizon for p in bank.encoders]
    if mode == "analytic":
        _, grads = _analytic_loss_and_grads(
            basis, features, w_list, alpha_list, horizons, eta, activation
        )
    else:
        _, grads = _fd_loss_and_grads(
            basis, features, w_list, alpha_list, horizons, eta, activation,
            fd_step, fd_w_coords,
        )
    for gw, ga in zip(grads.w, grads.alpha):
        if not (np.all(np.isfinite(gw)) and np.isfinite(ga)):
            raise FloatingPointError("non-finite gradient")
    return grads


def _merge_with_events(alphas, delta, rng):
    """Single-linkage clusters on log(alpha); one uniform survivor each."""
    values = [float(a) for a in alphas]
    if not values:
        raise ValueError("no orders to merge")
    for a in values:
        if not 0.0 < a <= 1.0:
            raise ValueError(f"orders must lie in (0, 1], got {a}")
    values.sort()
    clusters = [[values[0]]]
    for v in values[1:]:
        if np.log(v) - np.log(clusters[-1][-1]) < delta:
            clusters[-1].append(v)
        else:
            clusters.append([v])
    survivors = []
    events = []
    for members in clusters:
        if len(members) > 1:
            chosen = float(rng.choice(np.asarray(members)))
            events.append({"merged": list(members), "survivor": chosen})
            survivors.append(chosen)
        else:
            survivors.append(members[0])
    return sorted(survivors), events


def merge_alphas(alphas, delta: float, rng: np.random.Generator) -> list[float]:
    """Collapse orders closer than delta on the log scale.

    Single-linkage chaining: sorted orders whose consecutive log-gaps are
    all below delta form one cluster, which is replaced by one member
    drawn uniformly.  Singletons pass through; output is sorted ascending.
    """
    survivors, _ = _merge_with_events(alphas, delta, rng)
    return survivors


def avla(
    basis: SpectralBasis,
    features: np.ndarray,
    cfg: TrainConfig,
    horizon: float,
    d_hid: int | None = None,
    alpha_init=None,
    activation: str = "relu",
    max_rounds: int = 20,
):
    """Adaptive view training: train, merge close orders, retrain.

    Returns (k_final, final alphas ascending, trained bank, TrainReport).
    Initial orders default to a log-uniform draw over [0.01, 1]; weight
    draws, merge survivor choices, and any data use consume independent
    seeded streams so one cannot perturb another.
    """
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[0] != basis.n:
        raise ValueError("features must be n_nodes x d_in")
    d_in = x.shape[1]
    width = d_in if d_hid is None else d_hid
    streams = np.random.SeedSequence(cfg.seed).spawn(3)
    init_rng = np.random.default_rng(streams[0])
    merge_rng = np.random.default_rng(streams[1])
    # streams[2] reserved for data-side use so future additions cannot
    # shift the init or merge draws
    if alpha_init is None:
        alphas = sorted(
            float(a) for a in np.exp(init_rng.uniform(np.log(0.01), 0.0, cfg.k_init))
        )
    else:
        alphas = sorted(float(a) for a in alpha_init)
        if len(alphas) != cfg.k_init:
            raise ValueError(
                f"alpha_init has {len(alphas)} entries but k_init is {cfg.k_init}"
            )
        if any(not 0.0 < a <= 1.0 for a in alphas):
            raise ValueError("initial orders must lie in (0, 1]")
    losses: list[float] = []
    traces = []
    events = []
    for round_idx in range(max_rounds):
        w_list = [
            init_encoder_params(d_in, width, a, horizon, init_rng).weights
            for a in alphas
        ]
        a_list = list(alphas)
        horizons = [horizon] * len(a_list)
        trace = [list(a_list)]
        for _ in range(cfg.epochs_n):
            if cfg.grad_mode == "analytic":
                loss, grads = _analytic_loss_and_grads(
                    basis, x, w_list, a_list, horizons, cfg.eta, activation
                )
            else:
                loss, grads = _fd_loss_and_grads(
                    basis, x, w_list, a_list, horizons, cfg.eta, activation,
                    1e-5, None,
                )
            if not np.isfinite(loss):
                raise FloatingPointError(f"non-finite loss {loss}")
            w_list = [w - cfg.lr_w * gw for w, gw in zip(w_list, grads.w)]
            a_list = [
                clip_alpha(a - cfg.lr_alpha * ga, cfg.clip_eps)
                for a, ga in zip(a_list, grads.alpha)
            ]
            losses.append(float(loss))
            trace.append(list(a_list))
        traces.append(trace)
        survivors, round_events = _merge_with_events(
            a_list, cfg.merge_delta, merge_rng
        )
        if len(survivors) < len(a_list):
            for e in round_events:
                events.append({"round": round_idx, **e})
            if len(survivors) < 2:
                raise RuntimeError(
                    "all views merged into one; loosen merge_delta or change init"
                )
            alphas = survivors
            continue
        order = np.argsort(a_list, kind="stable")
        bank = EncoderBank(
            encoders=tuple(
                EncoderParams(w_list[i], a_list[i], horizon) for i in order
            )
        )
        final = [a_list[i] for i in order]
        report = TrainReport(
            epochs=len(losses),
            losses=tuple(losses),
            alpha_traces=tuple(tuple(tuple(s) for s in t) for t in traces),
            merge_events=tuple(events),
            final_alphas=tuple(final),
        )
        return len(final), final, bank, report
    raise RuntimeError(f"view set did not stabilize within {max_rounds} rounds")


def _near_uniform_counts(k: int, total: int = 100) -> list[int]:
    base = total // k
    counts = [base] * k
    for i in range(total - base * k):
        counts[i] += 1
    return counts


def tune_beta(views, labels, val_split, probe_cfg) -> np.ndarray:
    """Pick combination weights maximizing validation probe accuracy.

    Weights live on the 0.01 grid.  Two views get an exhaustive scan
    (101 candidates); more views get greedy mass transfer between pairs
    of coordinates (step 0.10 then 0.01) starting from the uniform point.
    Ties prefer the candidate closest to uniform.
    """
    from .diagnostics import linear_probe

    val = [int(i) for i in val_split]
    if not val:
        raise ValueError("validation split is empty")
    labels = np.asarray(labels)
    val_set = set(val)
    train = [
        int(i) for i in range(len(labels)) if labels[i] >= 0 and i not in val_set
    ]
    if not train:
        raise ValueError("no labeled nodes outside the validation split")
    k = len(views)
    splits = {"train": train, "val": val, "test": []}
    uniform = np.full(k, 1.0 / k)
    cache: dict[tuple, float] = {}

    def score(counts) -> float:
        key = tuple(counts)
        if key not in cache:
            beta = np.asarray(counts, dtype=float) / 100.0
            combined = combine_views(list(views), beta)
            cache[key] = linear_probe(combined, labels, splits, probe_cfg)[1]
        return cache[key]

    def rank(counts):
        beta = np.asarray(counts, dtype=float) / 100.0
        return (score(counts), -float(np.sum((beta - uniform) ** 2)))

    if k == 2:
        candidates = [(c, 100 - c) for c in range(101)]
        best = max(candidates, key=rank)
    else:
        best = _near_uniform_counts(k)
        improved = True
        while improved:
            improved = False
            for step in (10, 1):
                moves = [
                    tuple(
                        c - step * (idx == i) + step * (idx == j)
                        for idx, c in enumerate(best)
                    )
                    for i in range(k)
                    for j in range(k)
                    if i != j and best[i] >= step
                ]
                if not moves:
                    continue
                challenger = max(moves, key=rank)
                if rank(challenger) > rank(tuple(best)):
                    best = list(challenger)
                    improved = True
                    break
    return np.asarray(best, dtype=float) / 100.0
