"""Solvers for the fractional diffusion D^alpha_t Y(t) = F(W, Y(t)).

Three routes:
  * closed-form spectral solution for the linear right-hand side -L Y,
  * a fractional Adams-Bashforth-Moulton predictor-corrector with full
    memory for arbitrary right-hand sides,
  * the skip-connection composition (diffuse tau, add the input back,
    m times), whose per-frequency multiplier is a geometric sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma

from .graphs import SpectralBasis
from .special import ml_spectrum

__all__ = [
    "DiffusionSpec",
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
class DiffusionSpec:
    """Parameters of one diffusion run."""

    alpha: float  # fractional order in (0, 1]
    horizon_T: float  # total diffusion time
    step_h: float | None = None  # stepper resolution; unused by spectral paths
    skip_tau: float | None = None  # per-segment time when skips are enabled
    skip_m: int | None = None  # number of skip segments

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not (self.horizon_T > 0.0):
            raise ValueError("horizon_T must be positive")
        if self.step_h is not None and not (self.step_h > 0.0):
            raise ValueError("step_h must be positive")
        if (self.skip_tau is None) != (self.skip_m is None):
            raise ValueError("skip_tau and skip_m must be set together")
        if self.skip_tau is not None:
            if self.skip_tau <= 0.0 or self.skip_m < 1:
                raise ValueError("skip_tau must be > 0 and skip_m >= 1")
            if abs(self.skip_m * self.skip_tau - self.horizon_T) > 1e-9:
                raise ValueError("skip_m * skip_tau must equal horizon_T")


@dataclass(frozen=True)
class Trajectory:
    """Discrete solution path of a time-stepped solve."""

    times: np.ndarray  # increasing, times[0] = 0
    states: list  # matching list of (N, F) arrays; states[0] is Y0

    def final(self) -> np.ndarray:
        return self.states[-1]


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")


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
    _check_alpha(alpha)
    if horizon < 0.0:
        raise ValueError("horizon must be nonnegative")
    y0 = np.asarray(y0, dtype=float)
    if y0.shape[0] != basis.n:
        raise ValueError(f"state has {y0.shape[0]} rows, basis expects {basis.n}")
    if horizon == 0.0:
        return y0.copy()
    damp = ml_spectrum(alpha, basis.eigenvalues, horizon)[0]
    coeffs = basis.eigenvectors.T @ y0
    if coeffs.ndim == 1:
        return basis.eigenvectors @ (damp * coeffs)
    return basis.eigenvectors @ (damp[:, None] * coeffs)


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
    _check_alpha(alpha)
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
    inv_gamma_a = 1.0 / _gamma(alpha)
    inv_gamma_a2 = 1.0 / _gamma(alpha + 2.0)

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

    Each frequency coefficient ends up multiplied by the geometric sum
    1 + e + e^2 + ... + e^m with e = e_alpha(lambda_i, tau); the zero
    frequency gets exactly m + 1.

    Args:
        basis: spectral basis of the Laplacian.
        y0: initial state, shape (N,) or (N, F).
        alpha: fractional order in (0, 1].
        tau: segment length, > 0.
        m: number of skip segments, >= 1.

    Returns:
        Final state after the m-fold composition.
    """
    _check_alpha(alpha)
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if m < 1:
        raise ValueError("m must be >= 1")
    y0 = np.asarray(y0, dtype=float)
    if y0.shape[0] != basis.n:
        raise ValueError(f"state has {y0.shape[0]} rows, basis expects {basis.n}")
    mult = skip_multiplier(alpha, basis.eigenvalues, tau, m)
    coeffs = basis.eigenvectors.T @ y0
    if coeffs.ndim == 1:
        return basis.eigenvectors @ (mult * coeffs)
    return basis.eigenvectors @ (mult[:, None] * coeffs)


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
