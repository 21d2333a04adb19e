"""Joint training of projection weights and fractional orders.

Plain gradient descent drives the per-view weights and fractional orders,
chaining the objective's view gradients from `fracgcl.losses` through the
activation, the projection and the diffusion filter.  After each round,
orders within a log-scale threshold of each other are merged and the
survivors retrained from fresh weights, until a round merges nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import _plain
from .encoder import (
    EncoderBank,
    EncoderParams,
    _activation,
    combine_views,
    init_encoder_params,
)
from .losses import (
    DegenerateEmbeddingError,
    NoSpectralGapError,
    _objective,
    _principal_axis,
)
from .solver import _diffusion_filter
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


def clip_alpha(alpha: float, eps: float) -> float:
    """Clamp an order into [eps, 1]."""
    return min(1.0, max(float(alpha), float(eps)))


def _direction_states(outs, alpha_list):
    """Principal-axis state of every view; a failure names the view."""
    states = []
    for i, (y, a) in enumerate(zip(outs, alpha_list)):
        try:
            states.append(_principal_axis(y))
        except (DegenerateEmbeddingError, NoSpectralGapError) as exc:
            raise FloatingPointError(f"view {i} (alpha={a:.6g}): {exc}") from exc
    return states


def _loss_and_grads(filt, w_list, alpha_list, horizons, eta, activation):
    """Loss and analytic gradients; FloatingPointError if either is non-finite.

    Each view is act(P W) with P = f(L) X from the features-side filter, so
    with G = dL/dY * act'(P W) the gradients are P^T G and <G, (dP/dalpha) W>.
    """
    act, act_grad = _activation(activation)
    diffused = [
        filt.apply(np.stack(ml_spectrum(a, filt.nodes, h), axis=1))
        for a, h in zip(alpha_list, horizons)
    ]
    pre = [p @ w for (p, _), w in zip(diffused, w_list)]
    outs = [act(z) for z in pre]
    states = None if eta == 0.0 else _direction_states(outs, alpha_list)
    loss, d_out = _objective(outs, states, eta)
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite loss {loss}")
    grads_w = []
    grads_a = []
    for (p, dp), w, z, g_out in zip(diffused, w_list, pre, d_out):
        g = g_out * act_grad(z)
        grads_w.append(p.T @ g)
        grads_a.append(float(np.sum((dp.T @ g) * w)))
    if not all(np.all(np.isfinite(g)) for g in (grads_a, *grads_w)):
        raise FloatingPointError("non-finite gradient")
    return loss, BankGradients(w=tuple(grads_w), alpha=tuple(grads_a))


def grad_loss(
    operator,
    features: np.ndarray,
    bank: EncoderBank,
    eta: float,
    activation: str = "relu",
) -> BankGradients:
    """Gradients of the total contrastive loss over all bank parameters.

    Chains the loss through the activation, the projection, and the
    features-side filter of `operator` (a `SpectralBasis` or the dense
    normalized Laplacian), whose order sensitivity comes from ml_spectrum.
    Raises FloatingPointError if the loss or any gradient is non-finite.
    """
    horizons = [p.horizon for p in bank.encoders]
    _, grads = _loss_and_grads(
        _diffusion_filter(operator, features, max(horizons)),
        [p.weights for p in bank.encoders],
        [p.alpha for p in bank.encoders],
        horizons,
        eta,
        activation,
    )
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
    `operator` is a `SpectralBasis` or the dense normalized Laplacian; its
    features-side filter is built once and serves every round.  Initial
    orders default to a log-uniform draw over [0.01, 1]; weight draws and
    merge survivor choices consume independent seeded streams so one cannot
    perturb the other.
    """
    x = np.asarray(features, dtype=float)
    filt = _diffusion_filter(operator, x, horizon)
    d_in = x.shape[1]
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
        w_list = [
            init_encoder_params(d_in, width, a, horizon, init_rng).weights
            for a in alphas
        ]
        a_list = list(alphas)
        horizons = [horizon] * len(a_list)
        trace = [list(a_list)]
        for epoch in range(cfg.epochs_n):
            try:
                loss, grads = _loss_and_grads(
                    filt, w_list, a_list, horizons, cfg.eta, activation
                )
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"training round {round_idx}, epoch {epoch}: {exc}"
                ) from exc
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
    raise RuntimeError(f"view set did not stabilize within {_MAX_ROUNDS} rounds")


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
