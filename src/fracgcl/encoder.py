"""Fractional-diffusion graph encoders and the multi-view encoder bank.

A single encoder projects node features through a learned weight matrix,
diffuses the result to a fixed horizon with a per-encoder fractional
order, and applies a pointwise activation.  A bank holds two or more
encoders whose orders are kept in ascending order; small orders produce
slowly-mixing local views, large orders mix toward the global structure.

Diffusion goes through the features-side filter of `fracgcl.solver`,
built once per graph operator and feature matrix: f(L)(X W) = (f(L) X) W.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .solver import _diffusion_filter
from .special import ml_spectrum

__all__ = [
    "EncoderParams",
    "ViewEmbedding",
    "EncoderBank",
    "init_encoder_params",
    "init_bank",
    "encoder_forward",
    "bank_forward",
    "combine_views",
]


@dataclass(frozen=True)
class EncoderParams:
    """Parameters of one encoder: projection, order, and horizon."""

    weights: np.ndarray
    alpha: float
    horizon: float

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        object.__setattr__(self, "weights", w)

    @property
    def d_in(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class ViewEmbedding:
    """One encoder's output: an n_nodes x d_hid matrix plus its order."""

    matrix: np.ndarray
    source_alpha: float

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError(f"embedding must be 2-D, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("embedding must be finite")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class EncoderBank:
    """An ordered collection of at least two encoders, ascending in alpha."""

    encoders: tuple[EncoderParams, ...] = field(default=())

    def __post_init__(self) -> None:
        encs = tuple(self.encoders)
        if len(encs) < 2:
            raise ValueError(f"bank needs at least 2 encoders, got {len(encs)}")
        alphas = [e.alpha for e in encs]
        if any(a > b for a, b in zip(alphas, alphas[1:])):
            raise ValueError("encoder alphas must be in ascending order")
        object.__setattr__(self, "encoders", encs)

    def __len__(self) -> int:
        return len(self.encoders)

    @property
    def alphas(self) -> list[float]:
        return [e.alpha for e in self.encoders]


def init_encoder_params(
    d_in: int,
    d_hid: int,
    alpha: float,
    horizon: float,
    rng: np.random.Generator,
) -> EncoderParams:
    """Draw a fresh weight matrix, uniform on [-1, 1] scaled by 1/sqrt(d_in).

    The hidden width is never allowed to shrink the features: the actual
    width used is max(d_in, d_hid).
    """
    if d_in < 1 or d_hid < 1:
        raise ValueError("dimensions must be positive")
    width = max(d_in, d_hid)
    scale = 1.0 / np.sqrt(d_in)
    w = rng.uniform(-scale, scale, size=(d_in, width))
    return EncoderParams(weights=w, alpha=alpha, horizon=horizon)


def init_bank(
    d_in: int,
    d_hid: int,
    alphas: list[float],
    horizon: float,
    rng: np.random.Generator,
) -> EncoderBank:
    """Initialize one encoder per order; orders are sorted ascending first."""
    if len(alphas) < 2:
        raise ValueError("bank needs at least 2 orders")
    ordered = sorted(alphas)
    encs = [init_encoder_params(d_in, d_hid, a, horizon, rng) for a in ordered]
    return EncoderBank(encoders=tuple(encs))


# name -> (activation, its derivative)
_ACTIVATIONS = {
    "relu": (lambda z: np.maximum(z, 0.0), lambda z: (z > 0.0).astype(float)),
    "identity": (lambda z: z, np.ones_like),
}


def _activation(name: str):
    """The (activation, derivative) pair registered under name."""
    if name not in _ACTIVATIONS:
        raise ValueError(f"unknown activation {name!r}")
    return _ACTIVATIONS[name]


def _views(operator, features, encoders, activation: str) -> list[ViewEmbedding]:
    """Every encoder's view through one filter built for the longest horizon."""
    act = _activation(activation)[0]
    x = np.asarray(features, dtype=float)
    filt = _diffusion_filter(operator, x, max(p.horizon for p in encoders))
    views = []
    for p in encoders:
        if x.shape[1] != p.d_in:
            raise ValueError(
                f"features have {x.shape[1]} columns but weights expect {p.d_in}"
            )
        diffused = filt.apply(ml_spectrum(p.alpha, filt.nodes, p.horizon)[0])
        views.append(ViewEmbedding(act(diffused @ p.weights), p.alpha))
    return views


def encoder_forward(
    operator,
    features: np.ndarray,
    params: EncoderParams,
    activation: str = "relu",
) -> ViewEmbedding:
    """Project, diffuse to the horizon, and activate.

    Computes sigma(f(L) X W) with f = e_alpha(., T), through the filter of
    `operator`: a `SpectralBasis` or `LaplacianRows`.
    """
    return _views(operator, features, [params], activation)[0]


def bank_forward(
    operator,
    features: np.ndarray,
    bank: EncoderBank,
    activation: str = "relu",
) -> list[ViewEmbedding]:
    """Run every encoder in the bank; output order matches the bank order.

    One features-side filter serves every encoder.
    """
    return _views(operator, features, bank.encoders, activation)


def combine_views(views: list[ViewEmbedding], beta: np.ndarray) -> np.ndarray:
    """Convex combination of view matrices with simplex weights.

    Accepts ViewEmbedding objects or bare matrices.
    """
    if not views:
        raise ValueError("no views to combine")
    b = np.asarray(beta, dtype=float)
    if b.shape != (len(views),):
        raise ValueError(
            f"need one weight per view: {len(views)} views, weights shape {b.shape}"
        )
    if not np.all((b >= 0.0) & (b < np.inf)):  # the comparisons also reject NaN
        raise ValueError(f"beta must be finite and nonnegative, got {b.tolist()}")
    if abs(b.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1, got {b.sum():.12f}")
    mats = [np.asarray(getattr(v, "matrix", v), dtype=float) for v in views]
    shape = mats[0].shape
    for m in mats[1:]:
        if m.shape != shape:
            raise ValueError("views must share a common shape")
    out = np.zeros(shape)
    for w, m in zip(b, mats):
        out += w * m
    return out
