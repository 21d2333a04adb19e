"""Contrastive objectives for multi-view embeddings.

The primary objective is the regularized cosmean loss: row-wise cosine
alignment between consecutive views plus a penalty on the alignment of
their dominant principal directions, which pushes distinct views away
from collapsing onto a shared axis.  The remaining losses (Euclidean,
Barlow Twins, VICReg, CCA) form the comparison family used in ablations.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DegenerateEmbeddingError",
    "NoSpectralGapError",
    "cosmean",
    "dominant_direction",
    "regularized_cosmean",
    "total_loss",
    "euclidean_loss",
    "barlow_twins",
    "vicreg",
    "cca_loss",
]


class DegenerateEmbeddingError(ValueError):
    """The column-centered embedding is numerically zero."""


class NoSpectralGapError(RuntimeError):
    """The top two covariance eigenvalues tie, so no single direction dominates."""


def _paired(ya, yb) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(getattr(ya, "matrix", ya), dtype=float)
    b = np.asarray(getattr(yb, "matrix", yb), dtype=float)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("embeddings must be 2-D matrices")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return a, b


def cosmean(ya, yb) -> float:
    """One minus the mean row-wise cosine similarity.

    A row whose norm is zero in either matrix contributes similarity 0,
    i.e. a full unit of loss.
    """
    a, b = _paired(ya, yb)
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    dots = np.einsum("ij,ij->i", a, b)
    sims = np.zeros(a.shape[0])
    live = (na > 0.0) & (nb > 0.0)
    sims[live] = dots[live] / (na[live] * nb[live])
    return float(1.0 - sims.mean())


def _principal_axis(y):
    """Centered embedding, its Gram matrix, top eigenvalue and top eigenvector.

    The eigenvector is that of `dominant_direction`; see there for the sign
    rule and the two errors.
    """
    m = np.asarray(getattr(y, "matrix", y), dtype=float)
    if m.ndim != 2:
        raise ValueError("embedding must be a 2-D matrix")
    centered = m - m.mean(axis=0, keepdims=True)
    spread = np.linalg.norm(centered)
    if spread <= 1e-13 * max(1.0, np.linalg.norm(m)):
        raise DegenerateEmbeddingError(
            "embedding rows are identical up to roundoff; no principal direction"
        )
    gram = centered.T @ centered
    eigvals, eigvecs = np.linalg.eigh(gram)
    lam1 = float(eigvals[-1])
    if len(eigvals) > 1 and lam1 - eigvals[-2] <= 1e-9 * lam1:
        raise NoSpectralGapError(
            "top two covariance eigenvalues coincide; direction is arbitrary"
        )
    v1 = eigvecs[:, -1]
    peak = np.argmax(np.abs(v1))
    if v1[peak] < 0.0:
        v1 = -v1
    return centered, gram, lam1, v1


def dominant_direction(y) -> np.ndarray:
    """Top principal direction of the column-centered embedding.

    The top eigenvector of the (small) feature-space Gram matrix; the sign
    is fixed so the largest-magnitude entry is positive.  Raises
    DegenerateEmbeddingError when centering leaves nothing, and
    NoSpectralGapError when the top two eigenvalues agree to a relative
    1e-9, so that the direction is arbitrary.
    """
    return _principal_axis(y)[3]


def regularized_cosmean(ya, yb, eta: float) -> float:
    """Cosmean plus eta times the absolute alignment of dominant directions.

    With eta exactly zero the penalty (and its direction computation) is
    skipped, so the result equals plain cosmean on any input.
    """
    base = cosmean(ya, yb)
    if eta == 0.0:
        return base
    ca = dominant_direction(ya)
    cb = dominant_direction(yb)
    return base + eta * abs(float(ca @ cb))


def total_loss(views, eta: float) -> float:
    """Sum of regularized cosmean over the consecutive-view cycle.

    Pairs are ordered (k, k+1 mod K); with K=2 both ordered pairs count,
    so each term appears twice.
    """
    if len(views) < 2:
        raise ValueError(f"need at least 2 views, got {len(views)}")
    k = len(views)
    directions = None
    if eta != 0.0:
        directions = [dominant_direction(v) for v in views]
    out = 0.0
    for i in range(k):
        j = (i + 1) % k
        out += cosmean(views[i], views[j])
        if directions is not None:
            out += eta * abs(float(directions[i] @ directions[j]))
    return float(out)


def euclidean_loss(ya, yb) -> float:
    """Mean squared row-wise distance between the two embeddings."""
    a, b = _paired(ya, yb)
    return float(np.mean(np.sum((a - b) ** 2, axis=1)))


def _standardize_columns(m: np.ndarray) -> np.ndarray:
    mu = m.mean(axis=0, keepdims=True)
    sd = m.std(axis=0, keepdims=True)
    if np.any(sd == 0.0):
        bad = int(np.flatnonzero(sd[0] == 0.0)[0])
        raise ValueError(f"column {bad} has zero variance; cannot standardize")
    return (m - mu) / sd


def barlow_twins(ya, yb, bt_lambda: float) -> float:
    """Cross-correlation redundancy loss on column-standardized embeddings.

    The diagonal of C = Yl'Yg/N is driven to one and the off-diagonal
    entries to zero, weighted by bt_lambda.
    """
    a, b = _paired(ya, yb)
    n = a.shape[0]
    c = _standardize_columns(a).T @ _standardize_columns(b) / n
    diag = np.diag(c)
    off = c - np.diag(diag)
    return float(np.sum((1.0 - diag) ** 2) + bt_lambda * np.sum(off**2))


def vicreg(ya, yb, w_inv: float, w_var: float, w_cov: float, eps: float) -> float:
    """Invariance + variance-hinge + covariance-decorrelation objective.

    Variances use the population convention (divide by N); the hinge keeps
    every per-dimension standard deviation at or above eps.
    """
    a, b = _paired(ya, yb)
    n, d = a.shape
    inv = float(np.mean(np.sum((a - b) ** 2, axis=1)))
    var = 0.0
    cov = 0.0
    for m in (a, b):
        centered = m - m.mean(axis=0, keepdims=True)
        variances = np.mean(centered**2, axis=0)
        var += float(np.sum(np.maximum(0.0, eps - np.sqrt(variances))))
        c = centered.T @ centered / n
        off = c - np.diag(np.diag(c))
        cov += float(np.sum(off**2))
    return w_inv * inv + w_var * var / d + w_cov * cov / d


def cca_loss(ya, yb, cca_lambda: float) -> float:
    """Cross-view invariance plus per-view decorrelation toward identity.

    Columns are centered and scaled by 1/sqrt(N), so Y'Y is the covariance
    matrix and the identity target means unit-variance decorrelated features.
    """
    a, b = _paired(ya, yb)
    n, d = a.shape
    eye = np.eye(d)
    scaled = []
    for m in (a, b):
        centered = m - m.mean(axis=0, keepdims=True)
        scaled.append(centered / np.sqrt(n))
    sa, sb = scaled
    inv = float(np.sum((sa - sb) ** 2))
    dec = float(np.sum((sa.T @ sa - eye) ** 2) + np.sum((sb.T @ sb - eye) ** 2))
    return inv + cca_lambda * dec
