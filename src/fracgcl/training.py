"""Joint training of projection weights and fractional orders.

Plain gradient descent drives the per-view weights and fractional orders,
chaining the objective's view gradients from `fracgcl.losses` through the
activation, the projection and the diffusion filter.  An epoch is one pass
over the stacked K views: K x F x d weights, an order vector, one filter
apply for all 2K spectral functions, and K x n x d views and gradients.
After each round, orders within a log-scale threshold of each other are
merged and the survivors retrained from fresh weights, until a round
merges nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _plain
from .encoder import (
    EncoderBank,
    EncoderParams,
    _activation,
    init_encoder_params,
)
from .losses import (
    DegenerateEmbeddingError,
    NoSpectralGapError,
    _objective,
    _principal_axes,
)
from .solver import _diffusion_filter
from .special import ml_spectrum

__all__ = [
    "TrainConfig",
    "TrainReport",
    "BankGradients",
    "grad_loss",
    "merge_alphas",
    "avla",
]

# merge/retrain rounds before avla gives up on the view set stabilizing
_MAX_ROUNDS = 20


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

    def __post_init__(self) -> None:
        if self.k_init < 2:
            raise ValueError(f"k_init must be at least 2, got {self.k_init}")
        for name in ("lr_w", "lr_alpha", "eta"):
            if not 0.0 <= getattr(self, name) < np.inf:  # also rejects NaN
                raise ValueError(
                    f"{name} must be finite and nonnegative, got {getattr(self, name)}"
                )
        if self.epochs_n < 0:
            raise ValueError("epochs_n must be nonnegative")
        if not 0.0 < self.clip_eps < 1.0:
            raise ValueError(f"clip_eps must lie in (0, 1), got {self.clip_eps}")
        if not 0.0 < self.merge_delta < np.inf:
            raise ValueError(
                f"merge_delta must be finite and positive, got {self.merge_delta}"
            )


@dataclass(frozen=True)
class TrainReport:
    """Everything the training loop did, JSON-serializable via to_dict."""

    epochs: int
    losses: tuple[float, ...]
    alpha_traces: tuple
    merge_events: tuple
    final_alphas: tuple[float, ...]

    def to_dict(self) -> dict:
        return _plain(self)


@dataclass(frozen=True)
class BankGradients:
    """Per-encoder gradients: one weight matrix and one order derivative each."""

    w: tuple
    alpha: tuple[float, ...]


def _loss_and_grads(filt, weights, alphas, horizons, eta, activation):
    """Loss, K x F x d weight gradients and K order gradients in one pass.

    One apply of n_nodes x 2K samples (K kernels, then K order derivatives)
    gives the K x n x F stacks P = f(L) X and dP/dalpha.  The views are
    act(P W), so with G = dL/dY * act'(P W) the gradients are P^T G and
    <G, (dP/dalpha) W>.  FloatingPointError names a view without a
    principal direction, or reports a non-finite loss or gradient.
    """
    act, act_grad = _activation(activation)
    k = len(alphas)
    samples = np.empty((len(filt.nodes), 2 * k))
    for i, (a, h) in enumerate(zip(alphas, horizons)):
        samples[:, i], samples[:, k + i] = ml_spectrum(a, filt.nodes, h)
    diffused = filt.apply(samples)
    p, dp = diffused[:k], diffused[k:]
    w = np.asarray(weights)
    pre = p @ w
    outs = act(pre)
    axes = None
    if eta != 0.0:
        try:
            axes = _principal_axes(outs)
        except (DegenerateEmbeddingError, NoSpectralGapError) as exc:
            named = f"view {exc.view} (alpha={alphas[exc.view]:.6g})"
            raise FloatingPointError(f"{named}: {exc}") from exc
    loss, d_out = _objective(outs, axes, eta)
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite loss {loss}")
    g = d_out * act_grad(pre)
    grads_w = p.transpose(0, 2, 1) @ g
    grads_a = ((dp.transpose(0, 2, 1) @ g) * w).sum(axis=(1, 2))
    if not (np.all(np.isfinite(grads_w)) and np.all(np.isfinite(grads_a))):
        raise FloatingPointError("non-finite gradient")
    return loss, (grads_w, grads_a)


def grad_loss(
    operator,
    features: np.ndarray,
    bank: EncoderBank,
    eta: float,
    activation: str = "relu",
) -> BankGradients:
    """Gradients of the total contrastive loss over all bank parameters.

    Chains the loss through the activation, the projection, and the
    features-side filter of `operator` (a `SpectralBasis` or
    `LaplacianRows`), whose order sensitivity comes from ml_spectrum.
    Raises FloatingPointError if the loss or any gradient is non-finite.
    """
    horizons = [p.horizon for p in bank.encoders]
    _, (grads_w, grads_a) = _loss_and_grads(
        _diffusion_filter(operator, features, max(horizons)),
        [p.weights for p in bank.encoders],
        bank.alphas,
        horizons,
        eta,
        activation,
    )
    return BankGradients(w=tuple(grads_w), alpha=tuple(grads_a.tolist()))


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
    operator,
    features: np.ndarray,
    cfg: TrainConfig,
    horizon: float,
    d_hid: int | None = None,
    alpha_init=None,
    activation: str = "relu",
):
    """Adaptive view training: train, merge close orders, retrain.

    Returns (k_final, final alphas ascending, trained bank, TrainReport).
    `operator` is a `SpectralBasis` or `LaplacianRows`; its features-side
    filter is built once and serves every round.  Initial
    orders default to a log-uniform draw over [0.01, 1]; weight draws and
    merge survivor choices consume independent seeded streams so one cannot
    perturb the other.
    """
    filt = _diffusion_filter(operator, features, horizon)
    return _avla(filt, cfg, horizon, d_hid, alpha_init, activation)


def _avla(filt, cfg, horizon, d_hid=None, alpha_init=None, activation="relu"):
    """`avla` on a built features-side filter, which is all it needs of the
    operator and the features: a caller may free both before training."""
    d_in = filt.coords.shape[1]  # the features' column count
    width = d_in if d_hid is None else d_hid
    init_stream, merge_stream = np.random.SeedSequence(cfg.seed).spawn(2)
    init_rng = np.random.default_rng(init_stream)
    merge_rng = np.random.default_rng(merge_stream)
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
    for round_idx in range(_MAX_ROUNDS):
        draws = [init_encoder_params(d_in, width, a, horizon, init_rng) for a in alphas]
        w = np.stack([p.weights for p in draws])
        a_vec = np.array(alphas)
        horizons = [horizon] * len(alphas)
        trace = [list(alphas)]
        for epoch in range(cfg.epochs_n):
            try:
                loss, (grads_w, grads_a) = _loss_and_grads(
                    filt, w, a_vec, horizons, cfg.eta, activation
                )
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"training round {round_idx}, epoch {epoch}: {exc}"
                ) from exc
            w = w - cfg.lr_w * grads_w
            a_vec = np.clip(a_vec - cfg.lr_alpha * grads_a, cfg.clip_eps, 1.0)
            losses.append(float(loss))
            trace.append(a_vec.tolist())
        traces.append(trace)
        a_list = a_vec.tolist()
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
            encoders=tuple(EncoderParams(w[i], a_list[i], horizon) for i in order)
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
    raise RuntimeError(f"view set did not stabilize within {_MAX_ROUNDS} rounds")

