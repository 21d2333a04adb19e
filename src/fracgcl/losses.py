"""Contrastive objectives for multi-view embeddings.

The primary objective, stated once with its gradient w.r.t. every view,
is the regularized cosmean loss over the view cycle: row-wise cosine
alignment of consecutive views plus a penalty on the alignment of their
dominant principal directions, which keeps views from collapsing onto a
shared axis.  Barlow Twins and VICReg serve in ablations.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DegenerateEmbeddingError",
    "NoSpectralGapError",
    "cosmean",
    "dominant_direction",
    "regularized_cosmean",
    "barlow_twins",
    "vicreg",
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


def _over(num, den: np.ndarray) -> np.ndarray:
    """num / den elementwise, and 0 where den is 0."""
    return np.divide(num, den, out=np.zeros(den.shape), where=den > 0.0)


def _cosine_terms(a: np.ndarray, b: np.ndarray):
    """cosmean(a, b) and its gradients w.r.t. a and b from one set of row norms.

    a and b are n x d, or stacks of pairs along leading axes.  A row whose
    norm is zero in either matrix has reciprocal norm 0, so it contributes
    similarity 0 and gets an exact zero gradient.
    """
    n = a.shape[-2]
    na = np.linalg.norm(a, axis=-1)
    nb = np.linalg.norm(b, axis=-1)
    inv = _over(1.0, na * nb)
    cos = np.einsum("...ij,...ij->...i", a, b) * inv
    da = -(b * inv[..., None] - _over(cos, na**2)[..., None] * a) / n
    db = -(a * inv[..., None] - _over(cos, nb**2)[..., None] * b) / n
    return 1.0 - cos.mean(axis=-1), da, db


def cosmean(ya, yb) -> float:
    """One minus the mean row-wise cosine similarity.

    A row whose norm is zero in either matrix contributes similarity 0,
    i.e. a full unit of loss.
    """
    return float(_cosine_terms(*_paired(ya, yb))[0])


def _principal_axes(views):
    """Centered views, Gram matrices, top eigenvalues and top eigenvectors.

    `views` is K x n x d, with one stacked `eigh`.  Each eigenvector is
    `dominant_direction`'s (see there for the sign rule and the errors),
    kept as the column `eigh` returns or its negation: BLAS sums a dot
    product of strided columns in another order than of contiguous ones.
    The first failing view's error carries its index as `view`.
    """
    centered = views - views.mean(axis=1, keepdims=True)
    gram = centered.transpose(0, 2, 1) @ centered
    eigvals, eigvecs = np.linalg.eigh(gram)
    lam1 = eigvals[:, -1]
    scale = np.maximum(1.0, np.linalg.norm(views, axis=(1, 2)))
    degenerate = np.linalg.norm(centered, axis=(1, 2)) <= 1e-13 * scale
    runner_up = eigvals[:, -2] if eigvals.shape[1] > 1 else -np.inf
    failed = np.flatnonzero(degenerate | (lam1 - runner_up <= 1e-9 * lam1))
    if failed.size:
        i = int(failed[0])
        exc = (
            DegenerateEmbeddingError(
                "embedding rows are identical up to roundoff; no principal direction"
            )
            if degenerate[i]
            else NoSpectralGapError(
                "top two covariance eigenvalues coincide; direction is arbitrary"
            )
        )
        exc.view = i
        raise exc
    tops = eigvecs[..., -1]
    peaks = np.argmax(np.abs(tops), axis=1)
    return centered, gram, lam1, [-v if v[p] < 0.0 else v for v, p in zip(tops, peaks)]


def _penalty_grad(centered, gram, mu1, v, v_other, ip):
    """Gradients of sign(ip) <v(Y), v_other> w.r.t. each view Y, 2 x K x n x d.

    The K views' `_principal_axes` state meets two other directions each
    (2 x K x d) and their dot products with v (2 x K).  The top-eigenvector
    derivative is the pseudoinverse (mu1 I - G)^+ applied to the
    off-eigenvector part of v_other; the rank-one shift makes the system
    nonsingular while pinning the solution orthogonal to v.
    """
    d = gram.shape[-1]
    rhs = v_other - ip[..., None] * v
    mu = mu1[:, None, None]
    mat = mu * np.eye(d) - gram + mu * (v[:, :, None] * v[:, None, :])
    u = np.linalg.solve(mat, rhs[..., None])[..., 0]
    outer = v[..., :, None] * u[..., None, :] + u[..., :, None] * v[..., None, :]
    # sign scales each product the same on either factor; on the d x d one
    # it needs no 2 x K x n x d temporary
    gbar = centered @ (np.sign(ip)[..., None, None] * outer)
    gbar -= gbar.mean(axis=-2, keepdims=True)
    return gbar


def dominant_direction(y) -> np.ndarray:
    """Top principal direction of the column-centered embedding.

    The top eigenvector of the (small) feature-space Gram matrix; the sign
    is fixed so the largest-magnitude entry is positive.  Raises
    DegenerateEmbeddingError when centering leaves nothing, and
    NoSpectralGapError when the top two eigenvalues agree to a relative
    1e-9, so that the direction is arbitrary.
    """
    m = np.asarray(getattr(y, "matrix", y), dtype=float)
    if m.ndim != 2:
        raise ValueError("embedding must be a 2-D matrix")
    return _principal_axes(m[None])[3][0]


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


def _objective(views, axes, eta: float):
    """The view-cycle loss and its K x n x d gradient, in one pass.

    `views` is K x n x d.  Pair (i, i+1 mod K) adds cosmean and
    eta |<v_i, v_j>|, where `axes` is `_principal_axes(views)`, or None when
    eta is 0: one `_cosine_terms` call for the K pairs, one stacked solve
    for the 2K penalty gradients, and each view's terms added in the order
    of the pair cycle.
    """
    k = len(views)
    nxt, prev = (np.arange(k) + 1) % k, np.arange(k) - 1
    values, da, db = _cosine_terms(views, views[nxt])
    # indexed by view: its terms as pair i's first and pair i-1's second member
    db = db[prev]
    first, second = [da], [db]
    ips = np.zeros(k)
    if axes is not None:
        centered, gram, mu1, v1 = axes
        # on `_principal_axes`'s vectors, whose layout sets the sums' order
        ips = np.array([float(v1[i] @ v1[j]) for i, j in enumerate(nxt)])
        v = np.stack(v1)
        others, other_ips = np.stack([v[nxt], v[prev]]), np.stack([ips, ips[prev]])
        pen = _penalty_grad(centered, gram, mu1, v, others, other_ips)
        pen *= eta
        first.append(pen[0])
        second.append(pen[1])
    loss = 0.0
    for value, ip in zip(values.tolist(), ips.tolist()):
        loss += value
        loss += eta * abs(ip)
    # the pair cycle's order: view j > 0 takes pair j-1's terms first, view 0
    # takes pair K-1's last
    grads = np.zeros_like(views)
    for t in second + first:
        grads[1:] += t[1:]
    for t in first + second:
        grads[0] += t[0]
    return loss, grads


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

