"""Special functions for fractional calculus.

Provides the Gamma function, the one-parameter Mittag-Leffler
relaxation kernel e_alpha(lam, t) = E_alpha(-lam * t^alpha), its classical
large-argument asymptotic expansion, and its derivative with respect to the
order alpha.

Gamma comes from the standard library's `math.gamma`: within 8e-16
relative of a 40-digit mpmath Gamma on a 0.01-spaced grid over [-10, 30]
away from the poles.  The Riemann zeta function `zeta(s)`, for real s > 1,
sums its first nine terms and adds the Euler-Maclaurin tail from N = 10
with seven Bernoulli corrections (DLMF 25.2.9): within 2.1e-16 relative of
a 40-digit mpmath zeta at 805 orders s = 1 + alpha, alpha in [1e-6, 1],
and zeta(2) = pi^2/6 exactly.  No code path of this module, and with it
`fracgcl`, loads scipy; only the tracer-only `quad` name below needs it.

The kernel has one evaluator, `ml_spectrum`, vectorized over rates.  It
inverts the Laplace transform F(s) = s^(alpha-1) / (s^alpha + lam) on the
fixed Talbot contour of Abate & Valko (Int. J. Numer. Meth. Eng. 60, 2004;
see also Garrappa, SIAM J. Numer. Anal. 53, 2015).  Scaling the nodes by
1/t turns the inversion at time t into a sum over unit-time nodes s_k with
weights w_k that every rate and every order share:

    e_alpha(lam, t)      = Re sum_k w_k s_k^(alpha-1) / (s_k^alpha + z),
    d/dalpha e_alpha     = Re sum_k w_k z (ln s_k - ln t) s_k^(alpha-1)
                                      / (s_k^alpha + z)^2,

with z = lam * t^alpha.  The second line is the inversion of
d/dalpha F(s) = lam ln(s) s^(alpha-1) / (s^alpha + lam)^2 on the same
nodes, and it is the exact alpha-derivative of the first, because the nodes
do not depend on alpha.

Measured error envelope with 20 nodes, against a 50-digit mpmath Talbot
inversion on a 504-point grid over alpha in [1e-5, 1], lam in [1e-3, 2] and
t in [0.01, 1000]: the value is within 1.1e-13 absolute and the order
derivative within 1.7e-11 relative.  At alpha = 1/2 the value is within
1e-13 of the closed form erfcx(lam sqrt(t)) for lam sqrt(t) in [0.01, 10].
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "gamma",
    "zeta",
    "ml",
    "ml_spectrum",
    "ml_asymptotic",
    "dml_dalpha",
]


def _talbot_contour(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-Talbot nodes and weights for inversion at unit time.

    s_0 = r, s_k = r theta_k (cot theta_k + i) with theta_k = k pi / m and
    r = 2m/5; the first weight carries the trapezoid half-weight.
    """
    r = 2.0 * m / 5.0
    theta = np.arange(1, m) * (math.pi / m)
    cot = 1.0 / np.tan(theta)
    sigma = theta + (theta * cot - 1.0) * cot
    nodes = np.concatenate(([r + 0j], r * theta * (cot + 1j)))
    weights = (r / m) * np.concatenate(
        ([0.5 * math.exp(r) + 0j], np.exp(nodes[1:]) * (1.0 + 1j * sigma))
    )
    return nodes, weights


# 20 nodes balance truncation against the roundoff that the weights
# (up to e^8) amplify: 16 nodes leave 2e-11 value error, 24 leave 8e-13.
_NODES, _WEIGHTS = _talbot_contour(20)
_LOG_NODES = np.log(_NODES)


def gamma(x: float) -> float:
    """Gamma function on the real line away from the poles.

    Args:
        x: evaluation point; must not be zero or a negative integer.

    Returns:
        Gamma(x) to close to machine precision.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("gamma: argument must be finite")
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"gamma: pole at nonpositive integer x={x}")
    try:
        return math.gamma(x)
    except OverflowError:  # |Gamma(x)| exceeds the double range
        return math.copysign(math.inf, x)


# B_2k / (2k)! for k = 1..7: the Euler-Maclaurin corrections of `zeta`
_ZETA_EM = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
            -691 / 1307674368000, 1 / 74724249600)


def zeta(s: float) -> float:
    """Riemann zeta function sum_k k^-s for real s > 1 (see the module docstring)."""
    s = float(s)
    if not (s > 1.0 and math.isfinite(s)):
        raise ValueError(f"zeta: argument must be a finite real > 1, got {s}")
    n = 10.0
    terms = [k**-s for k in range(1, 10)]
    terms += [n ** (1.0 - s) / (s - 1.0), 0.5 * n**-s]
    rising = s * n ** (-s - 1.0)  # (s)_(2k-1) N^(1-s-2k), k = 1
    for k, coeff in enumerate(_ZETA_EM, 1):
        terms.append(coeff * rising)
        rising = rising * (s + 2 * k - 1) / n * (s + 2 * k) / n
    return math.fsum(terms)


def __getattr__(name: str):
    # The benchmark's span tracer still looks up `special.quad` by name, the
    # one scipy use left; delete this when it stops tracing `quad` (ROADMAP item 1).
    if name == "quad":
        from scipy.integrate import quad

        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _validate_ml_args(alpha: float, lams: np.ndarray, t: float) -> None:
    if not (0.0 < alpha <= 1.0):
        raise ValueError(f"order alpha must lie in (0, 1], got {alpha}")
    if lams.ndim != 1:
        raise ValueError(f"rates must form a 1-D array, got shape {lams.shape}")
    bad = lams[~((lams >= 0.0) & np.isfinite(lams))]
    if bad.size:
        raise ValueError(f"rate lam must be a finite nonnegative real, got {bad[0]}")
    if not (t >= 0.0) or not math.isfinite(t):
        raise ValueError(f"time t must be a finite nonnegative real, got {t}")


def ml_spectrum(alpha: float, lams, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Mittag-Leffler kernel and its order derivative over a whole spectrum.

    Evaluates e_alpha(lam, t) = E_alpha(-lam t^alpha) and d/dalpha of it for
    every rate at once, on contour nodes shared by all rates (see the module
    docstring).  The value is 1 and the derivative 0 wherever lam = 0 or
    t = 0; at alpha = 1 the value is exactly exp(-lam t).

    Args:
        alpha: fractional order in (0, 1].
        lams: 1-D array of nonnegative rates (graph frequencies).
        t: nonnegative time.

    Returns:
        (values, d_dalpha): kernel values clipped to [0, 1], and their
        derivatives with respect to alpha, each shaped like lams.
    """
    lams = np.asarray(lams, dtype=float)
    _validate_ml_args(alpha, lams, t)
    if t == 0.0:
        return np.ones_like(lams), np.zeros_like(lams)
    z = lams * t**alpha
    s_alpha = np.exp(alpha * _LOG_NODES)
    # one row per rate, summed along the node axis: every rate is reduced in
    # the same order, so an entry does not depend on the length of lams
    inv = 1.0 / (s_alpha + z[:, None])
    terms = (_WEIGHTS * s_alpha / _NODES) * inv
    d_dalpha = z * (terms * inv * (_LOG_NODES - math.log(t))).sum(axis=1).real
    if alpha == 1.0:
        values = np.exp(-lams * t)
    else:
        values = np.clip(terms.sum(axis=1).real, 0.0, 1.0)
    values[lams == 0.0] = 1.0
    return values, d_dalpha


def ml(alpha: float, lam: float, t: float) -> float:
    """Mittag-Leffler relaxation kernel e_alpha(lam, t) = E_alpha(-lam t^alpha).

    Solution kernel of the scalar fractional relaxation equation; reduces to
    exp(-lam t) at alpha = 1 and equals 1 whenever lam = 0 or t = 0.  One
    entry of `ml_spectrum`.

    Args:
        alpha: fractional order in (0, 1].
        lam: nonnegative rate (a graph frequency in the diffusion setting).
        t: nonnegative time.

    Returns:
        Kernel value in [0, 1].
    """
    return float(ml_spectrum(alpha, [lam], t)[0][0])


def _tail_coeffs(alpha: float, lam: float, n_terms: int) -> np.ndarray:
    """Coefficients a_1..a_n of the long-time expansion in powers of tau^-alpha.

    a_j = (-1)^(j+1) / (lam^j Gamma(1 - j alpha)); callers keep j alpha < 1.
    """
    j = np.arange(1, n_terms + 1)
    rgamma = [1.0 / math.gamma(1.0 - k * alpha) for k in j.tolist()]
    return (-1.0) ** (j + 1) * np.array(rgamma) / lam**j


def ml_asymptotic(alpha: float, lam: float, tau: float, n_terms: int) -> float:
    """Large-time asymptotic expansion of the Mittag-Leffler kernel.

    Implements the classical expansion

        e_alpha(lam, tau) ~ sum_{j=1}^{n} (-1)^(j+1) tau^(-j alpha)
                            / (lam^j Gamma(1 - j alpha)),

    valid while j*alpha < 1 for every retained term.  Note the alternating
    sign: the terms of the 1/z expansion of E_alpha(-z) alternate, and
    dropping the sign makes the expansion disagree with the exact kernel at
    second order and beyond.

    Args:
        alpha: fractional order in (0, 1), strictly below 1.
        lam: positive rate.
        tau: positive time, large enough for the expansion to be meaningful.
        n_terms: number of terms; n_terms * alpha must stay below 1.

    Returns:
        Truncated expansion value.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"asymptotic expansion requires alpha in (0, 1), got {alpha}")
    if not (lam > 0.0):
        raise ValueError(f"lam must be positive, got {lam}")
    if not (tau > 0.0):
        raise ValueError(f"tau must be positive, got {tau}")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if n_terms * alpha >= 1.0:
        raise ValueError(
            f"n_terms * alpha = {n_terms * alpha} >= 1 hits a Gamma pole; "
            f"reduce n_terms below {1.0 / alpha}"
        )
    coeffs = _tail_coeffs(alpha, lam, n_terms)
    return float(np.sum(coeffs * tau ** (-alpha * np.arange(1, n_terms + 1))))


def dml_dalpha(alpha: float, lam: float, t: float) -> float:
    """Derivative of the Mittag-Leffler kernel with respect to its order.

    One entry of `ml_spectrum`.

    Args:
        alpha: fractional order in (0, 1].
        lam: nonnegative rate.
        t: strictly positive time.

    Returns:
        d/dalpha e_alpha(lam, t), matching central finite differences of
        ml() to relative 1e-4 or better.
    """
    d_dalpha = ml_spectrum(alpha, [lam], t)[1]
    if not (t > 0.0):
        raise ValueError("dml_dalpha requires t > 0")
    return float(d_dalpha[0])
