"""Independent high-precision reference implementations used only by tests.

Everything here is computed with mpmath arbitrary-precision arithmetic via
algorithms that differ from the production float64 paths: the kernel oracle
sums the Maclaurin series at 40+ digits (where cancellation is harmless) and
cross-checks against Talbot inversion of the Laplace transform; derivatives
come from mpmath's numerical differentiation of the series, or from Talbot
inversion of the transform's order derivative where the series converges
too slowly.  The graph oracles are plain Python loops over lists, except the
Laplacian oracle, which is the dense matrix formula over a full adjacency.
The gradient oracle differences the value-only forward pass and loss in
float64.  The pair-loop objective is the view-cycle loss stated one view
pair at a time, as the trainer computed it before its views were stacked.
`total_loss` is the loss value alone, through the trainer's stacked
objective; it is what the gradient oracle differences.  The skip-sum
coefficients are convolved at 50 digits, and the class-separation oracle
reads the dense n x n distance matrix.
"""

from __future__ import annotations

import math
from collections import deque

import mpmath as mp
import numpy as np

from fracgcl.encoder import _activation
from fracgcl.losses import _objective, _paired, _principal_axes
from fracgcl.solver import _diffusion_filter
from fracgcl.special import ml_spectrum
from fracgcl.training import BankGradients


def ml_oracle(alpha: float, lam: float, t: float, dps: int = 40) -> float:
    """Mittag-Leffler kernel e_alpha(lam, t) summed in arbitrary precision."""
    with mp.workdps(dps):
        a, l, tt = mp.mpf(float(alpha)), mp.mpf(float(lam)), mp.mpf(float(t))
        if l == 0 or tt == 0:
            return 1.0
        val = mp.nsum(
            lambda n: (-l) ** n * tt ** (a * n) / mp.gamma(a * n + 1), [0, mp.inf]
        )
        return float(val)


def ml_oracle_laplace(alpha: float, lam: float, t: float, dps: int = 40) -> float:
    """Same kernel via Talbot inversion of s^(a-1)/(s^a + lam); oracle self-check."""
    with mp.workdps(dps):
        a, l = mp.mpf(float(alpha)), mp.mpf(float(lam))
        fp = lambda s: s ** (a - 1) / (s**a + l)
        return float(mp.invertlaplace(fp, float(t), method="talbot"))


def dml_oracle_laplace(alpha: float, lam: float, t: float, dps: int = 40) -> float:
    """Order derivative via Talbot inversion of lam ln(s) s^(a-1)/(s^a + lam)^2."""
    with mp.workdps(dps):
        a, l = mp.mpf(float(alpha)), mp.mpf(float(lam))
        fp = lambda s: l * mp.log(s) * s ** (a - 1) / (s**a + l) ** 2
        return float(mp.invertlaplace(fp, float(t), method="talbot"))


def dml_oracle(alpha: float, lam: float, t: float, dps: int = 40) -> float:
    """d/dalpha of the kernel by arbitrary-precision numerical differentiation."""
    with mp.workdps(dps):
        l, tt = mp.mpf(float(lam)), mp.mpf(float(t))
        if l == 0 or tt == 0:
            return 0.0

        def f(a):
            return mp.nsum(
                lambda n: (-l) ** n * tt ** (a * n) / mp.gamma(a * n + 1),
                [0, mp.inf],
            )

        return float(mp.diff(f, mp.mpf(float(alpha))))


def zeta_oracle(s: float, dps: int = 40) -> float:
    """Riemann zeta at the double s, in arbitrary precision (mpmath's own method)."""
    with mp.workdps(dps):
        return float(mp.zeta(mp.mpf(float(s))))


def tail_coeffs_oracle(alpha: float, lam: float, n_terms: int, dps: int = 40) -> list[float]:
    """a_j = (-1)^(j+1) / (lam^j Gamma(1 - j alpha)) for j = 1..n_terms."""
    with mp.workdps(dps):
        a, lv = mp.mpf(float(alpha)), mp.mpf(float(lam))
        return [
            float((-1) ** (j + 1) * mp.rgamma(1 - j * a) / lv**j)
            for j in range(1, n_terms + 1)
        ]


def ml_asymptotic_oracle(
    alpha: float, lam: float, tau: float, n_terms: int, dps: int = 40
) -> float:
    """The truncated long-time expansion sum_j a_j tau^(-j alpha)."""
    with mp.workdps(dps):
        a, lv, tv = mp.mpf(float(alpha)), mp.mpf(float(lam)), mp.mpf(float(tau))
        return float(
            mp.fsum(
                (-1) ** (j + 1) * mp.rgamma(1 - j * a) / lv**j * tv ** (-j * a)
                for j in range(1, n_terms + 1)
            )
        )


def component_count(adjacency) -> int:
    """Number of connected components by plain BFS on the adjacency matrix."""
    n = len(adjacency)
    seen = [False] * n
    count = 0
    for root in range(n):
        if seen[root]:
            continue
        count += 1
        seen[root] = True
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in range(n):
                if not seen[v] and adjacency[u][v] > 0.0:
                    seen[v] = True
                    queue.append(v)
    return count


def adjacency_oracle(n: int, edge_list) -> list[list[float]]:
    """Dense adjacency of a directed edge list by a per-edge dict loop.

    Per direction the last occurrence of a (src, dst) pair wins; the graph
    is then symmetrized by the larger of the two directions.  An invalid
    edge raises ValueError("edge k: ...") naming the first bad index k.
    """
    directed = {}
    for k, (src, dst, w) in enumerate(edge_list):
        src, dst, w = int(src), int(dst), float(w)
        if not (0 <= src < n and 0 <= dst < n):
            raise ValueError(f"edge {k}: index ({src}, {dst}) out of range for n={n}")
        if w < 0.0 or not math.isfinite(w):
            raise ValueError(f"edge {k}: weight must be finite and >= 0, got {w}")
        directed[(src, dst)] = w
    adj = [[0.0] * n for _ in range(n)]
    for (src, dst), w in directed.items():
        adj[src][dst] = max(w, directed.get((dst, src), 0.0))
        adj[dst][src] = adj[src][dst]
    return adj


def dense_adjacency(g) -> np.ndarray:
    """Dense symmetric (n, n) adjacency of a graph's canonical edge arrays."""
    adj = np.zeros((g.n_nodes, g.n_nodes))
    adj[g.src, g.dst] = adj[g.dst, g.src] = g.weight
    return adj


def laplacian_oracle(adjacency) -> np.ndarray:
    """I - D^(-1/2) A D^(-1/2) by the dense formula, degrees from row sums.

    Degree-zero nodes get the identity row, and the result is symmetrized
    as (L + L^T) / 2, so every pair without an edge holds -0.0.
    """
    adj = np.asarray(adjacency, dtype=float)
    deg = adj.sum(axis=1)
    inv_sqrt = np.zeros_like(deg)
    nz = deg > 0.0
    inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
    lap = -inv_sqrt[:, None] * adj * inv_sqrt[None, :]
    np.fill_diagonal(lap, np.where(nz, 1.0 + lap.diagonal(), 1.0))
    return (lap + lap.T) / 2.0


def fd_grad(basis, features, bank, eta, activation, step=1e-5, coords=None):
    """Finite-difference gradient of total_loss over every bank parameter.

    Each bump re-runs the value-only forward act(P(alpha) W) for the one
    encoder it touches, through one filter of `basis` built for all bumps.
    Orders use the central difference, or the second-order one-sided
    stencil (3 f(a) - 4 f(a - h) + f(a - 2h)) / 2h where a + h leaves (0, 1].
    coords restricts the probed weight entries to (encoder, row, col)
    triples; None probes all of them, and unprobed entries read 0.
    """
    encoders = bank.encoders
    act = _activation(activation)[0]
    filt = _diffusion_filter(basis, features, max(e.horizon for e in encoders))

    def view(idx, w, a):
        p = filt.apply(ml_spectrum(a, filt.nodes, encoders[idx].horizon)[0])
        return act(p @ w)

    base = [view(idx, e.weights, e.alpha) for idx, e in enumerate(encoders)]
    loss = total_loss(base, eta)

    def loss_with_view(idx, w, a):
        swapped = list(base)
        swapped[idx] = view(idx, w, a)
        return total_loss(swapped, eta)

    grads_a = []
    for idx, e in enumerate(encoders):
        a = e.alpha
        if a + step <= 1.0:
            up = loss_with_view(idx, e.weights, a + step)
            down = loss_with_view(idx, e.weights, a - step)
            grads_a.append((up - down) / (2 * step))
        else:
            down = loss_with_view(idx, e.weights, a - step)
            down2 = loss_with_view(idx, e.weights, a - 2 * step)
            grads_a.append((3 * loss - 4 * down + down2) / (2 * step))
    grads_w = [np.zeros_like(e.weights) for e in encoders]
    if coords is None:
        coords = [
            (idx, i, j) for idx, g in enumerate(grads_w) for i, j in np.ndindex(g.shape)
        ]
    for idx, i, j in coords:
        bumped = encoders[idx].weights.copy()
        bumped[i, j] += step
        up = loss_with_view(idx, bumped, encoders[idx].alpha)
        bumped[i, j] -= 2 * step
        down = loss_with_view(idx, bumped, encoders[idx].alpha)
        grads_w[idx][i, j] = (up - down) / (2 * step)
    return BankGradients(w=tuple(grads_w), alpha=tuple(grads_a))


def _loop_over(num, den):
    return np.divide(num, den, out=np.zeros(den.shape), where=den > 0.0)


def _loop_cosine_terms(a, b):
    n = a.shape[0]
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    inv = _loop_over(1.0, na * nb)
    cos = np.einsum("ij,ij->i", a, b) * inv
    da = -(b * inv[:, None] - _loop_over(cos, na**2)[:, None] * a) / n
    db = -(a * inv[:, None] - _loop_over(cos, nb**2)[:, None] * b) / n
    return float(1.0 - cos.mean()), da, db


def loop_principal_axis(m):
    """Centered view, Gram matrix, top eigenvalue and sign-fixed top eigenvector."""
    centered = m - m.mean(axis=0, keepdims=True)
    gram = centered.T @ centered
    eigvals, eigvecs = np.linalg.eigh(gram)
    v1 = eigvecs[:, -1]
    peak = np.argmax(np.abs(v1))
    if v1[peak] < 0.0:
        v1 = -v1
    return centered, gram, float(eigvals[-1]), v1


def _loop_penalty_grad(centered, gram, mu1, v, v_other, sign):
    d = gram.shape[0]
    rhs = v_other - float(v_other @ v) * v
    mat = mu1 * np.eye(d) - gram + mu1 * np.outer(v, v)
    u = np.linalg.solve(mat, rhs)
    gbar = sign * centered @ (np.outer(v, u) + np.outer(u, v))
    return gbar - gbar.mean(axis=0, keepdims=True)


def loop_objective(views, axes, eta):
    """The view-cycle loss and per-view gradients, one pair at a time.

    `axes[i]` is `loop_principal_axis(views[i])`, or `axes` is None when
    eta is 0.
    """
    k = len(views)
    loss = 0.0
    grads = [np.zeros_like(y) for y in views]
    for i in range(k):
        j = (i + 1) % k
        value, da, db = _loop_cosine_terms(views[i], views[j])
        loss += value
        grads[i] += da
        grads[j] += db
        if axes is not None:
            vi, vj = axes[i][3], axes[j][3]
            ip = float(vi @ vj)
            loss += eta * abs(ip)
            sign = float(np.sign(ip))
            grads[i] += eta * _loop_penalty_grad(*axes[i], vj, sign)
            grads[j] += eta * _loop_penalty_grad(*axes[j], vi, sign)
    return loss, grads


def total_loss(views, eta: float) -> float:
    """Sum of regularized cosmean over the consecutive-view cycle.

    Pairs are ordered (k, k+1 mod K); with K=2 both ordered pairs count,
    so each term appears twice.
    """
    if len(views) < 2:
        raise ValueError(f"need at least 2 views, got {len(views)}")
    mats = np.stack([_paired(v, views[0])[0] for v in views])
    axes = None if eta == 0.0 else _principal_axes(mats)
    return _objective(mats, axes, eta)[0]


def skip_coeffs_oracle(alpha: float, n_terms: int, skips: int, dps: int = 50) -> list[float]:
    """c_1..c_n of sum_{k=0}^{skips} u^k, u = sum_j a_j(1) x^j, truncated at x^n.

    a_j(1) = (-1)^(j+1) / Gamma(1 - j alpha) are the long-time coefficients at
    unit rate; the series products are exact polynomial convolutions in
    arbitrary precision.
    """
    with mp.workdps(dps):
        a = mp.mpf(float(alpha))
        u = [mp.mpf(0)] + [
            (-1) ** (j + 1) * mp.rgamma(1 - j * a) for j in range(1, n_terms + 1)
        ]
        total = [mp.mpf(1)] + [mp.mpf(0)] * n_terms
        power = list(total)
        for _ in range(skips):
            power = [
                mp.fsum(power[i] * u[k - i] for i in range(k + 1))
                for k in range(n_terms + 1)
            ]
            total = [t + p for t, p in zip(total, power)]
        return [float(c) for c in total[1:]]


def rc_ratio_oracle(y, labels) -> dict:
    """Class-separation ratios read off the dense n x n distance matrix."""
    m = np.asarray(y, dtype=float).reshape(len(labels), -1)
    labels = np.asarray(labels)
    dist = np.sqrt(((m[:, None, :] - m[None, :, :]) ** 2).sum(axis=2))
    out = {}
    for c in np.unique(labels[labels >= 0]):
        inside = labels == c
        k = int(inside.sum())
        if k < 2:
            out[int(c)] = {"ratio": None, "flag": "skipped"}
            continue
        outside = ~inside
        if not outside.any():
            out[int(c)] = {"ratio": None, "flag": "undefined"}
            continue
        d_intra = float(dist[np.ix_(inside, inside)].sum()) / (k * (k - 1))
        d_inter = float(dist[np.ix_(inside, outside)].mean())
        if d_intra == 0.0:
            out[int(c)] = {"ratio": None, "flag": "undefined"}
        else:
            out[int(c)] = {"ratio": d_inter / d_intra, "flag": "ok"}
    return out
