"""Solvers for the fractional diffusion D^alpha_t Y(t) = F(W, Y(t)).

Three routes:
  * closed-form spectral solution for the linear right-hand side -L Y,
  * a fractional Adams-Bashforth-Moulton predictor-corrector with full
    memory for arbitrary right-hand sides,
  * the skip-connection composition (diffuse tau, add the input back,
    m times), whose per-frequency multiplier is a geometric sum.

Every f(L) Y goes through one diffusion filter, built once per graph
operator and state, which applies any f sampled at its nodes: e_alpha(., T)
for the closed-form solve, the geometric sum for the skip composition, and
for the encoder's views, f(L)(X W) = (f(L) X) W, the kernel and its order
derivative.  The operator's type picks the nodes:

* a `SpectralBasis`: the eigenvalues, and f(L) Y = U (f(lam) * U^T Y);
* the dense normalized Laplacian itself: the m + 1 Chebyshev-Lobatto
  points on [0, 2], and f(L) Y = sum_j c_j T_j(L - I) Y with c the
  Chebyshev coefficients of the samples (Hammond, Vandergheynst &
  Gribonval, ACHA 30, 2011; Defferrard et al., NeurIPS 2016).  The stack
  T_j(L - I) Y takes m products with L and no eigendecomposition.

The degree m follows from the horizon alone (`_chebyshev_degree`, whose
constants record the measured accuracy), and both operators give the same
results to a relative 1e-9 or better.  The cost grows with the horizon
through m: 28 up to T = 10, 37 at T = 20, 78 at T = 100.  Horizons past
about 7.5e4 would need m > 2048 and are rejected; the eigenbasis serves
them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import SpectralBasis
from .special import gamma, ml_spectrum

__all__ = [
    "Trajectory",
    "BlowUpError",
    "solve_linear_spectral",
    "solve_caputo_pc",
    "solve_with_skips",
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
# The stack holds degree + 1 copies of the state, so the degree search
# stops here, near T = 7.5e4; longer horizons go through the eigenbasis.
_MAX_DEGREE = 2048
# Relative slack on |T_j(L - I) Y| <= |Y| for the recurrence's rounding,
# which grows as j^2: with Y along the null vector of a normalized Laplacian
# the excess measured 1e-14 at degree 28 and 5e-11 at _MAX_DEGREE.
_STACK_SLACK = 1e-6


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
    if not 0.0 < horizon < np.inf:
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
class _DiffusionFilter:
    """Spectral functions of one graph operator applied to one state Y.

    With `eigenvectors` U the nodes are the eigenvalues and `stack` is
    U^T Y; without, the nodes are Chebyshev-Lobatto points and `stack`
    holds T_j(L - I) Y for j = 0..degree.
    """

    nodes: np.ndarray
    stack: np.ndarray
    eigenvectors: np.ndarray | None = None

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """f(L) Y for a function f sampled at `nodes`.

        One sample per node gives f(L) Y; one column per function gives the
        results stacked along a new leading axis.
        """
        if self.eigenvectors is not None:
            return self.eigenvectors @ (samples.T[..., None] * self.stack)
        return np.tensordot(_chebyshev_coeffs(samples).T, self.stack, axes=1)


def _diffusion_filter(operator, state: np.ndarray, horizon: float) -> _DiffusionFilter:
    """The filter of a `SpectralBasis` or a dense normalized Laplacian.

    `state` is n_nodes x F.  The Laplacian's spectrum must lie in [0, 2], as
    every symmetrically normalized Laplacian's does; the Chebyshev degree is
    chosen for `horizon` and serves every shorter one.  A stack term larger
    than the state (|T_j(L - I) Y| <= |Y| when the spectrum lies in [0, 2])
    raises ValueError; the check is necessary, not sufficient.
    """
    if isinstance(operator, SpectralBasis):
        n = operator.n
    else:
        lap = np.asarray(operator, dtype=float)
        if lap.ndim != 2 or lap.shape[0] != lap.shape[1]:
            raise ValueError("laplacian must be a square matrix")
        n = lap.shape[0]
    y = np.asarray(state, dtype=float)
    if y.ndim != 2 or y.shape[0] != n:
        raise ValueError(f"state must be n_nodes x F with n_nodes={n}, got {y.shape}")
    if isinstance(operator, SpectralBasis):
        u = operator.eigenvectors
        return _DiffusionFilter(operator.eigenvalues, u.T @ y, u)
    m = _chebyshev_degree(horizon)
    # three-term recurrence in L - I, without forming L - I
    stack = np.empty((m + 1, *y.shape))
    stack[0] = y
    stack[1] = lap @ y - y
    # each term's norm as it is made: a norm over the stack would copy it
    norms = np.empty(m + 1)
    norms[:2] = np.linalg.norm(stack[0]), np.linalg.norm(stack[1])
    for j in range(2, m + 1):
        stack[j] = 2.0 * (lap @ stack[j - 1] - stack[j - 1]) - stack[j - 2]
        norms[j] = np.linalg.norm(stack[j])
    if np.any(norms > (1.0 + _STACK_SLACK) * norms[0]):
        raise ValueError(
            "the Chebyshev filter needs a symmetric Laplacian with spectrum in [0, 2]; "
            f"T_j(L - I) grows this state by {norms.max() / norms[0]:.3g}"
        )
    return _DiffusionFilter(_lobatto_points(m), stack)


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


def solve_with_skips(
    basis: SpectralBasis,
    y0: np.ndarray,
    alpha: float,
    tau: float,
    m: int,
) -> np.ndarray:
    """Skip-connection composition: m segments of length tau with re-injection.

    Each frequency coefficient ends up multiplied by `skip_multiplier`.

    Args:
        basis: spectral basis of the Laplacian.
        y0: initial state, shape (N,) or (N, F).
        alpha: fractional order in (0, 1].
        tau: segment length, > 0.
        m: number of skip segments, >= 1.

    Returns:
        Final state after the m-fold composition.
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if m < 1:
        raise ValueError("m must be >= 1")
    y0 = np.asarray(y0, dtype=float)
    filt = _diffusion_filter(basis, y0.reshape(len(y0), -1), tau)
    return filt.apply(skip_multiplier(alpha, filt.nodes, tau, m)).reshape(y0.shape)


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
