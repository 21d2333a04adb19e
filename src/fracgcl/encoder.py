"""Fractional-diffusion graph encoders and the multi-view encoder bank.

A single encoder projects node features through a learned weight matrix,
diffuses the result to a fixed horizon with a per-encoder fractional
order, and applies a pointwise activation.  A bank holds two or more
encoders whose orders are kept in ascending order; small orders produce
slowly-mixing local views, large orders mix toward the global structure.

The projection is linear, so diffusion is applied to the features before
it: f(L)(X W) = (f(L) X) W with f = e_alpha(., T).  The features-side
filter is built once per graph operator and feature matrix, and gives
f(L) X and its order derivative as linear maps of the kernel sampled at a
few rates.  The operator's type picks the rates:

* a `SpectralBasis`: the eigenvalues, and f(L) X = U (f(lam) * U^T X);
* the dense normalized Laplacian itself: the m + 1 Chebyshev-Lobatto
  points on [0, 2], and f(L) X = sum_j c_j T_j(L - I) X with c the
  Chebyshev coefficients of the samples (Hammond, Vandergheynst &
  Gribonval, ACHA 30, 2011; Defferrard et al., NeurIPS 2016).  The stack
  T_j(L - I) X takes m products with L and no eigendecomposition.

The degree m follows from the horizon alone (`_chebyshev_degree`, whose
constants record the measured accuracy), and both operators give the same
views to a relative 1e-9 or better.  The cost grows with the horizon
through m: 28 up to T = 10, 37 at T = 20, 78 at T = 100.  Horizons past
about 7.5e4 would need m > 2048 and are rejected; the eigenbasis serves
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import SpectralBasis
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

    @property
    def d_hid(self) -> int:
        return self.weights.shape[1]


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

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]


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


# The degree is the last one at which the order-1 kernel exp(-T lam), the
# slowest to resolve at long horizons, has a Chebyshev coefficient above
# _TAIL_TOL.  Short horizons need the floor: as alpha -> 0 the kernel tends
# to 1/(1 + lam), whose coefficients fall below 1e-14 only at degree 25,
# and orders between 0.1 and 0.5 at T = 5-10 need 28.  Measured on 801
# points of [0, 2], 60 orders in [1e-4, 1] and T in [0.01, 300], the
# interpolant is within 2.5e-13 of the kernel (which is itself accurate to
# about 1e-13), and its order derivative within 1e-12 of the largest one.
_TAIL_TOL = 1e-14
_MIN_DEGREE = 28
# The stack holds degree + 1 copies of the features, so the degree search
# stops here, near T = 7.5e4; longer horizons go through the eigenbasis.
_MAX_DEGREE = 2048


def _lobatto_points(m: int) -> np.ndarray:
    """Chebyshev-Lobatto points lam_k = 1 + cos(k pi / m) on [0, 2], k = 0..m."""
    return 1.0 + np.cos(np.pi * np.arange(m + 1) / m)


def _chebyshev_coeffs(values: np.ndarray) -> np.ndarray:
    """Coefficients c_j of sum_j c_j T_j(lam - 1) through values at the points.

    values holds the samples at `_lobatto_points(m)` along axis 0; the
    transform is a DCT-I, taken as the FFT of the even extension.
    """
    m = values.shape[0] - 1
    extended = np.concatenate([values, values[-2:0:-1]])
    coeffs = np.fft.rfft(extended, axis=0).real / m
    coeffs[[0, m]] /= 2.0
    return coeffs


def _chebyshev_degree(horizon: float) -> int:
    """Chebyshev degree that resolves every kernel e_alpha(., horizon) on [0, 2]."""
    if not 0.0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    probe = 128
    while probe <= 2 * _MAX_DEGREE:
        coeffs = _chebyshev_coeffs(np.exp(-horizon * _lobatto_points(probe)))
        last = int(np.flatnonzero(np.abs(coeffs) > _TAIL_TOL)[-1])
        if last < probe // 2:
            return max(_MIN_DEGREE, last)
        probe *= 2
    raise ValueError(
        f"horizon {horizon} needs a Chebyshev degree of at least {_MAX_DEGREE}; "
        "diffuse through the eigenbasis (eigendecompose) instead"
    )


@dataclass(frozen=True)
class _FeatureFilter:
    """Kernels of one graph operator applied to one feature matrix X.

    With `eigenvectors` U the nodes are the eigenvalues and `stack` is
    U^T X; without, the nodes are Chebyshev-Lobatto points and `stack`
    holds T_j(L - I) X for j = 0..degree.
    """

    nodes: np.ndarray
    stack: np.ndarray
    eigenvectors: np.ndarray | None = None

    def diffuse(self, alpha: float, horizon: float):
        """(f(L) X, d/dalpha f(L) X) for the kernel f = e_alpha(., horizon)."""
        samples = ml_spectrum(alpha, self.nodes, horizon)
        if self.eigenvectors is not None:
            return tuple(self.eigenvectors @ (v[:, None] * self.stack) for v in samples)
        coeffs = _chebyshev_coeffs(np.stack(samples, axis=1))
        return tuple(np.tensordot(coeffs.T, self.stack, axes=1))


def _feature_filter(operator, features: np.ndarray, horizon: float) -> _FeatureFilter:
    """The filter of a `SpectralBasis` or a dense normalized Laplacian.

    The Laplacian's spectrum must lie in [0, 2], as every symmetrically
    normalized Laplacian's does; the Chebyshev degree is chosen for
    `horizon` and serves every shorter one.
    """
    if isinstance(operator, SpectralBasis):
        n = operator.n
    else:
        lap = np.asarray(operator, dtype=float)
        if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
            raise ValueError("laplacian must be a square matrix")
        n = lap.shape[0]
    x = np.asarray(features, dtype=float)
    if x.ndim != 2 or x.shape[0] != n:
        raise ValueError(
            f"features must be n_nodes x d_in with n_nodes={n}, got shape {x.shape}"
        )
    if isinstance(operator, SpectralBasis):
        u = operator.eigenvectors
        return _FeatureFilter(operator.eigenvalues, u.T @ x, u)
    m = _chebyshev_degree(horizon)
    # three-term recurrence in L - I, without forming L - I
    stack = np.empty((m + 1, *x.shape))
    stack[0] = x
    stack[1] = lap @ x - x
    for j in range(2, m + 1):
        stack[j] = 2.0 * (lap @ stack[j - 1] - stack[j - 1]) - stack[j - 2]
    return _FeatureFilter(_lobatto_points(m), stack)


def _views(operator, features, encoders, activation: str) -> list[ViewEmbedding]:
    """Every encoder's view through one filter built for the longest horizon."""
    act = _activation(activation)[0]
    x = np.asarray(features, dtype=float)
    filt = _feature_filter(operator, x, max(p.horizon for p in encoders))
    for params in encoders:
        if x.shape[1] != params.d_in:
            raise ValueError(
                f"features have {x.shape[1]} columns but weights expect {params.d_in}"
            )
    return [
        ViewEmbedding(
            matrix=act(filt.diffuse(p.alpha, p.horizon)[0] @ p.weights),
            source_alpha=p.alpha,
        )
        for p in encoders
    ]


def encoder_forward(
    operator,
    features: np.ndarray,
    params: EncoderParams,
    activation: str = "relu",
) -> ViewEmbedding:
    """Project, diffuse to the horizon, and activate.

    Computes sigma(f(L) X W) with f = e_alpha(., T), through the filter of
    `operator`: a `SpectralBasis`, or the dense normalized Laplacian.
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
    if np.any(b < 0.0):
        raise ValueError("weights must be nonnegative")
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
