"""Solvers for the fractional diffusion D^alpha_t Y(t) = F(W, Y(t)).

Two routes:
  * closed-form spectral solution for the linear right-hand side -L Y,
  * a fractional Adams-Bashforth-Moulton predictor-corrector with full
    memory for arbitrary right-hand sides.
The skip-connection composition (diffuse tau, add the input back, m times)
is given by its per-frequency multiplier, a geometric sum.

Every f(L) Y goes through one diffusion filter, f(L) Y = V (f(theta) * C),
built once per graph operator and state for any f sampled at its nodes
theta: e_alpha(., T), or for the encoder's views the kernel and its order
derivative.  A `SpectralBasis` gives its eigenpairs and C = V^T Y.  A
`graphs.LaplacianRows` gives the Ritz pairs of its block-Krylov space
span{Y, L Y, ..., L^(m-1) Y} from block Lanczos (Golub & Underwood, 1977):
with T = Q^T L Q = S diag(theta) S^T, V = Q S and C = S^T Q^T Y, so the
filter is Q f(T) Q^T Y (Saad, SIAM J. Numer. Anal. 29, 1992), and its order
derivative is exact because Q does not depend on the order.  It takes m
products L @ Q, the only use of L, and no eigendecomposition; each costs
O(edges x F) and no n x n array exists.  The basis holds (m + 1) n F floats,
so very wide features (F in the thousands) are out of its scope.  On the
benchmark pipeline's 2000-node graph m is 15 at T = 20 and 12 to 15 over T
in [0.01, 1e4]; at 15 orders in [1e-4, 1] both filters agree within 7e-13
relative up to T = 100, and within 2.3e-13 of the largest value at every T.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma

import numpy as np

from .graphs import LaplacianRows, SpectralBasis
from .special import ml_spectrum

__all__ = [
    "Trajectory",
    "BlowUpError",
    "solve_linear_spectral",
    "solve_caputo_pc",
    "skip_multiplier",
]


class BlowUpError(RuntimeError):
    """Raised when the time-stepper produces a non-finite state."""

    def __init__(self, step: int, time: float):
        super().__init__(f"non-finite state at step {step} (t = {time:g})")
        self.step = step
        self.time = time


@dataclass(frozen=True)
class Trajectory:
    """Discrete solution path of a time-stepped solve."""

    times: np.ndarray  # increasing, times[0] = 0
    states: list  # matching list of (N, F) arrays; states[0] is Y0

    def final(self) -> np.ndarray:
        return self.states[-1]


# Stop once one more block changes f(L) Y by at most _SETTLE_TOL of its
# norm, for the kernel and its order derivative at each probe order: the
# smallest order is the slowest to settle at short horizons, order 1 at long.
_SETTLE_TOL = 1e-13
_PROBE_ORDERS = (1e-4, 0.5, 1.0)
# share of a block's norm before reorthogonalisation below which a direction
# lies in the basis to working precision and is dropped
_DEFLATE_TOL = 1e-12
# relative tolerance of the projection's symmetry and of a negative Ritz value
_SPECTRUM_TOL = 1e-10
_MAX_BLOCKS = 256


@dataclass(frozen=True)
class _DiffusionFilter:
    """f(L) Y = vectors (f(nodes) * coords) for one operator L and state Y."""

    nodes: np.ndarray
    coords: np.ndarray
    vectors: np.ndarray

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """f(L) Y for a function f sampled at `nodes`.

        One sample per node gives f(L) Y; one column per function gives the
        results stacked along a new leading axis.
        """
        return self.vectors @ (samples.T[..., None] * self.coords)


def _orthonormal(block: np.ndarray, scale: float):
    """Orthonormal Q and coordinates B with block = Q B, without the singular
    directions at or below _DEFLATE_TOL * scale (a zero or repeated column)."""
    u, s, vt = np.linalg.svd(block, full_matrices=False)
    keep = s > _DEFLATE_TOL * scale
    return u[:, keep], s[keep, None] * vt[keep]


def _krylov_filter(lap, y: np.ndarray, horizon: float) -> _DiffusionFilter:
    """Ritz pairs of L on the block-Krylov space of Y (see the module docstring).

    Each block is reorthogonalised against the basis twice; T grows by the
    block's column of coefficients and the next block's coordinates B.
    """
    if not 0.0 <= horizon < np.inf:
        raise ValueError(f"horizon must be finite and nonnegative, got {horizon}")
    q, start = _orthonormal(y, np.linalg.norm(y))
    if not len(start):  # Y = 0
        return _DiffusionFilter(np.zeros(0), start, q)
    basis, proj = q, np.zeros((len(start), len(start)))
    est = np.zeros((2 * len(_PROBE_ORDERS), 0, y.shape[1]))
    for _ in range(_MAX_BLOCKS):
        w = lap @ q
        scale = np.linalg.norm(w)
        for _twice in range(2):
            h = basis.T @ w
            w -= basis @ h
            proj[:, -q.shape[1] :] += h
        if not np.abs(proj - proj.T).max() <= _SPECTRUM_TOL * np.abs(proj).max():  # or NaN
            raise ValueError("the Krylov filter needs a symmetric operator")
        theta, vecs = np.linalg.eigh(proj)
        if theta[0] < -_SPECTRUM_TOL * np.abs(theta).max():
            raise ValueError(
                "the Krylov filter needs a positive semidefinite operator; "
                f"it has a Ritz value {theta[0]:.3g}"
            )
        # scrub rounding at zero, as eigendecompose does: at long horizons a
        # null Ritz value of 1e-16 would damp the null space visibly
        theta = np.where(theta < 1e-12, 0.0, theta)
        samples = np.concatenate([ml_spectrum(a, theta, horizon) for a in _PROBE_ORDERS])
        coords = vecs[: len(start)].T @ start
        prev, est = est, vecs @ (samples[..., None] * coords)
        prev = np.pad(prev, ((0, 0), (0, len(theta) - prev.shape[1]), (0, 0)))
        if np.linalg.norm(est - prev) <= _SETTLE_TOL * np.linalg.norm(est):
            break
        q, b = _orthonormal(w, scale)
        if not len(b):
            break  # the space is invariant, and the filter exact
        basis, proj = np.hstack([basis, q]), np.pad(proj, (0, len(b)))
        proj[-len(b) :, -len(b) - b.shape[1] : -len(b)] = b
    else:
        raise ValueError(f"the Krylov filter did not settle within {_MAX_BLOCKS} blocks")
    return _DiffusionFilter(theta, coords, basis @ vecs)


def _diffusion_filter(operator, state: np.ndarray, horizon: float) -> _DiffusionFilter:
    """The filter of a `SpectralBasis` or `LaplacianRows` for state Y.

    `state` is n_nodes x F.  The Krylov filter of the rows settles at
    `horizon` and serves shorter ones; an asymmetric or indefinite operator,
    or a horizon that is negative or not finite, raises ValueError.
    """
    if isinstance(operator, SpectralBasis):
        n = operator.n
    elif isinstance(operator, LaplacianRows):
        n = operator.shape[0]
    else:
        raise TypeError(
            "operator must be a SpectralBasis or LaplacianRows, "
            f"got {type(operator).__name__}"
        )
    y = np.asarray(state, dtype=float)
    if y.ndim != 2 or y.shape[0] != n:
        raise ValueError(f"state must be n_nodes x F with n_nodes={n}, got {y.shape}")
    if isinstance(operator, SpectralBasis):
        u = operator.eigenvectors
        return _DiffusionFilter(operator.eigenvalues, u.T @ y, u)
    return _krylov_filter(operator, y, horizon)


def solve_linear_spectral(
    basis: SpectralBasis,
    y0: np.ndarray,
    alpha: float,
    horizon: float,
) -> np.ndarray:
    """Exact solution of D^alpha_t Y = -L Y via the eigenbasis of L.

    Per frequency i the Fourier coefficient is damped by e_alpha(lambda_i, T),
    so the map is U diag(e_alpha(lambda_i, T)) U^T Y0.

    Args:
        basis: spectral basis of the Laplacian.
        y0: initial state, shape (N,) or (N, F).
        alpha: fractional order in (0, 1].
        horizon: diffusion time T >= 0.

    Returns:
        State at time T, same shape as y0.
    """
    y0 = np.asarray(y0, dtype=float)
    filt = _diffusion_filter(basis, y0.reshape(len(y0), -1), horizon)
    damp = ml_spectrum(alpha, filt.nodes, horizon)[0]  # also checks alpha, horizon
    if horizon == 0.0:
        return y0.copy()
    return filt.apply(damp).reshape(y0.shape)


def solve_caputo_pc(
    rhs,
    y0: np.ndarray,
    alpha: float,
    horizon: float,
    h: float,
) -> Trajectory:
    """Fractional Adams-Bashforth-Moulton predictor-corrector, full memory.

    Predictor weights quadrature the Riemann-Liouville integral with the
    rectangle rule, b_{j,n+1} = (h^a/a) ((n+1-j)^a - (n-j)^a); the corrector
    applies the trapezoidal-type fractional Adams weights.  At alpha = 1 the
    scheme degenerates to the classical explicit-Euler predictor with a
    trapezoidal corrector.

    Args:
        rhs: callable F(t, Y) -> array matching Y's shape.
        y0: initial state, shape (N,) or (N, F).
        alpha: fractional order in (0, 1].
        horizon: final time T > 0; h must divide it within rounding.
        h: step size.

    Returns:
        Trajectory over the uniform grid 0, h, 2h, ..., T.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    if h <= 0.0:
        raise ValueError("step size must be positive")
    n_steps = int(round(horizon / h))
    if n_steps < 1 or abs(n_steps * h - horizon) > 1e-9 * max(1.0, abs(horizon)):
        raise ValueError(f"step {h} does not divide horizon {horizon}")

    y0 = np.asarray(y0, dtype=float)
    shape = y0.shape
    times = np.arange(n_steps + 1) * h
    # grid powers shared by both weight families
    idx = np.arange(n_steps + 2, dtype=float)
    pow_a = idx**alpha
    pow_a1 = idx ** (alpha + 1.0)
    h_a = h**alpha
    inv_gamma_a = 1.0 / gamma(alpha)
    inv_gamma_a2 = 1.0 / gamma(alpha + 2.0)

    states = [y0.copy()]
    f_hist = np.empty((n_steps + 1,) + shape)
    f_hist[0] = rhs(0.0, y0)
    flat_hist = f_hist.reshape(n_steps + 1, -1)

    for n in range(n_steps):
        js = np.arange(n + 1)
        hist = flat_hist[: n + 1]

        w_pred = (h_a / alpha) * (pow_a[n + 1 - js] - pow_a[n - js])
        y_pred = y0 + inv_gamma_a * (w_pred @ hist).reshape(shape)

        w_corr = np.empty(n + 1)
        w_corr[0] = pow_a1[n] - (n - alpha) * pow_a[n + 1]
        if n >= 1:
            jj = js[1:]
            w_corr[1:] = (
                pow_a1[n - jj + 2] + pow_a1[n - jj] - 2.0 * pow_a1[n - jj + 1]
            )
        t_next = times[n + 1]
        f_pred = rhs(t_next, y_pred)
        y_next = y0 + h_a * inv_gamma_a2 * (
            np.asarray(f_pred) + (w_corr @ hist).reshape(shape)
        )
        if not np.all(np.isfinite(y_next)):
            raise BlowUpError(step=n + 1, time=float(t_next))
        states.append(y_next)
        f_hist[n + 1] = rhs(t_next, y_next)

    return Trajectory(times=times, states=states)


def skip_multiplier(alpha: float, eigenvalues: np.ndarray, tau: float, m: int) -> np.ndarray:
    """Per-frequency multiplier of the m-fold skip composition.

    Returns 1 + e + e^2 + ... + e^m with e = e_alpha(lambda_i, tau); the
    zero frequency gets exactly m + 1.
    """
    damp = ml_spectrum(alpha, eigenvalues, tau)[0]
    mult = np.ones_like(damp)
    power = np.ones_like(damp)
    for _ in range(m):
        power = power * damp
        mult = mult + power
    return mult
