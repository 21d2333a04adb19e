"""Tests for the special-function layer.

Frozen reference values were produced by the arbitrary-precision oracles in
oracles.py (40 decimal digits; series and Talbot-inversion routes agree to
~1e-42 on every frozen point).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma, erfcx

from fracgcl.special import (
    _tail_coeffs,
    ml,
    ml_spectrum,
    zeta,
)

from oracles import (
    dml_oracle,
    dml_oracle_laplace,
    ml_asymptotic_oracle,
    ml_oracle,
    ml_oracle_laplace,
    tail_coeffs_oracle,
    zeta_oracle,
)

# oracle-frozen kernel values: (alpha, lam, t) -> e_alpha(lam, t)
ML_FROZEN = {
    (0.5, 1.0, 1.0): 0.4275835761558070044108,
    (0.25, 1.5, 2.0): 0.3232186740266060706825,
    (0.75, 2.0, 5.0): 0.04828261913433472318235,
    (0.3, 1.0, 50.0): 0.1991660625387282305277,
    (0.3, 2.0, 1000.0): 0.04673512334149392431708,
    (0.5, 2.0, 20.0): 0.06269124415800429981951,
    (0.9, 1.7, 20.0): 0.004473932555560168445827,
    (0.05, 2.0, 20.0): 0.2947081595191365911263,
    (0.1, 0.5, 1000.0): 0.486159351806978643064,
}

# oracle-frozen order derivatives: (alpha, lam, t) -> d/dalpha e_alpha(lam, t)
DML_FROZEN = {
    (0.5, 1.0, 1.0): -0.1440705813429924760471,
    (0.3, 0.7, 2.5): -0.3779671087493662409958,
    (0.9, 2.0, 0.5): 0.1213402038526206139352,
    (0.25, 1.5, 2.0): -0.3114983227729247552604,
    (0.7, 0.3, 10.0): -0.8067739386054987507906,
    (0.5, 2.0, 20.0): -0.2850051654751881764449,
    (0.9, 1.7, 20.0): -0.06020882550449628584056,
    (0.45, 1.2, 3.3): -0.4322426193757924769168,
}


class TestZeta:
    def test_accuracy_grid(self):
        # 240 orders alpha in [1e-4, 1), each at the float s = 1 + alpha
        alphas = np.concatenate((np.geomspace(1e-4, 0.05, 80), np.linspace(0.05, 0.999, 160)))
        for alpha in alphas:
            s = 1.0 + alpha
            assert zeta(s) == pytest.approx(zeta_oracle(s), rel=1e-15, abs=0.0)

    def test_larger_arguments(self):
        for s in (2.5, 3.0, 4.0, 7.5, 12.0, 30.0, 60.0):
            assert zeta(s) == pytest.approx(zeta_oracle(s), rel=1e-15, abs=0.0)
        assert zeta(1e300) == 1.0

    def test_basel_value(self):
        assert abs(zeta(2.0) - math.pi**2 / 6) <= math.ulp(math.pi**2 / 6)

    def test_pole_residue(self):
        # zeta(1 + alpha) = 1/alpha + Euler's gamma + O(alpha), with alpha = s - 1
        # taken from the float s itself (1 + 1e-12 rounds to 1 + 1.00009e-12)
        for s in (1.0 + 1e-3, 1.0 + 1e-6, 1.0 + 1e-9, 1.0 + 1e-12):
            alpha = s - 1.0
            assert abs(alpha * zeta(s) - 1.0) <= alpha

    @pytest.mark.parametrize("s", [1.0, 0.5, -2.0, math.inf, math.nan])
    def test_rejects_outside_domain(self, s):
        with pytest.raises(ValueError, match="zeta"):
            zeta(s)


class TestMl:
    def test_time_zero_and_rate_zero(self):
        for alpha in (0.1, 0.5, 1.0):
            assert ml(alpha, 3.0, 0.0) == 1.0
            assert ml(alpha, 0.0, 7.5) == 1.0

    def test_alpha_one_is_exponential(self):
        for lam in (0.1, 1.0, 2.0):
            for t in np.linspace(0.0, 50.0, 41):
                assert abs(ml(1.0, lam, float(t)) - math.exp(-lam * t)) < 1e-10

    def test_half_order_closed_form(self):
        # e_{1/2}(lam, t) = exp(lam^2 t) erfc(lam sqrt(t))
        expected = math.exp(1.0) * math.erfc(1.0)
        assert abs(ml(0.5, 1.0, 1.0) - expected) < 1e-8

    def test_half_order_erfcx_sweep(self):
        # e_{1/2}(lam, t) = erfcx(lam sqrt(t)), across the former series/integral
        # switch near lam sqrt(t) = 3.46
        for z in np.linspace(0.01, 10.0, 400):
            t = float(z) ** 2
            assert abs(ml(0.5, 1.0, t) - erfcx(math.sqrt(t))) < 1e-11, z

    def test_frozen_values(self):
        for (alpha, lam, t), expected in ML_FROZEN.items():
            assert ml(alpha, lam, t) == pytest.approx(expected, abs=1e-9), (alpha, lam, t)

    def test_oracle_grid(self):
        # both evaluation branches, abs error < 1e-9 everywhere
        for alpha in (0.05, 0.25, 0.5, 0.75, 0.95, 1.0):
            for lam in (0.3, 1.0, 2.0):
                for t in (0.01, 0.5, 1.0, 5.0, 20.0, 100.0):
                    got = ml(alpha, lam, t)
                    assert abs(got - ml_oracle(alpha, lam, t)) < 1e-9, (alpha, lam, t)
                    assert 0.0 < got <= 1.0

    def test_oracle_routes_agree(self):
        # sanity on the oracle itself: series vs Talbot inversion
        for args in ((0.5, 1.0, 1.0), (0.25, 1.5, 2.0), (0.8, 2.0, 3.0)):
            assert ml_oracle(*args) == pytest.approx(ml_oracle_laplace(*args), abs=1e-20)

    def test_monotone_decreasing_in_time(self):
        for alpha in (0.1, 0.4, 0.7, 1.0):
            for lam in (0.5, 2.0):
                ts = np.linspace(0.0, 100.0, 60)
                vals = [ml(alpha, lam, float(t)) for t in ts]
                assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
                assert all(v > 0.0 for v in vals)

    def test_branch_seam_continuity(self):
        # points just below the former series/integral switch stay accurate
        for alpha in (0.6, 0.8, 0.95):
            z = min(5.0, 12.0**alpha) * 0.9
            t = (z / 1.0) ** (1.0 / alpha)
            assert ml(alpha, 1.0, t) == pytest.approx(ml_oracle(alpha, 1.0, t), abs=1e-10)

    def test_domain_errors(self):
        for bad_alpha in (0.0, -0.3, 1.2):
            with pytest.raises(ValueError):
                ml(bad_alpha, 1.0, 1.0)
        with pytest.raises(ValueError):
            ml(0.5, -1.0, 1.0)
        with pytest.raises(ValueError):
            ml(0.5, 1.0, -2.0)


class TestMlAsymptotic:
    """The kernel against the truncated long-time expansion at large tau."""

    def test_matches_kernel_at_large_tau(self):
        got = ml_asymptotic_oracle(0.5, 1.0, 1e4, 1)
        exact = ml(0.5, 1.0, 1e4)
        assert abs(got - exact) / exact < 1e-2

    def test_relative_error_bound(self):
        # documented bound: rel err below 10/tau for tau >= 1e3
        for tau in (1e3, 1e4):
            for alpha, lam, n in ((0.5, 1.0, 1), (0.3, 1.0, 3), (0.9, 2.0, 1), (0.45, 0.8, 2)):
                exact = ml(alpha, lam, tau)
                got = ml_asymptotic_oracle(alpha, lam, tau, n)
                assert abs(got - exact) / exact < 10.0 / tau, (alpha, lam, tau)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.45])
    def test_matches_oracle(self, alpha):
        # every term below the first Gamma pole, at j alpha = 1
        n = math.ceil(1.0 / alpha) - 1
        for lam in (0.05, 1.0, 2.0):
            got = _tail_coeffs(alpha, lam, n)
            assert got == pytest.approx(tail_coeffs_oracle(alpha, lam, n), rel=1e-13)


class TestDmlDalpha:
    def test_zero_rate(self):
        for alpha in (0.2, 0.9, 1.0):
            assert ml_spectrum(alpha, [0.0], 4.0)[1][0] == 0.0

    def test_frozen_values(self):
        for (alpha, lam, t), expected in DML_FROZEN.items():
            got = ml_spectrum(alpha, [lam], t)[1][0]
            assert got == pytest.approx(expected, rel=1e-6), (alpha, lam, t)

    def test_matches_finite_difference_grid(self):
        # 5x5x5 grid straddling both evaluation branches
        h = 1e-5
        for alpha in (0.15, 0.35, 0.55, 0.8, 0.95):
            for lam in (0.2, 0.6, 1.0, 1.5, 2.0):
                for t in (0.1, 0.9, 3.0, 10.0, 30.0):
                    fd = (ml(alpha + h, lam, t) - ml(alpha - h, lam, t)) / (2.0 * h)
                    got = ml_spectrum(alpha, [lam], t)[1][0]
                    assert got == pytest.approx(fd, rel=1e-4, abs=1e-9), (alpha, lam, t)

    def test_boundary_alpha_one(self):
        # two-sided derivative exists at alpha=1; compare against the oracle
        for lam, t in ((1.0, 2.0), (2.0, 20.0), (0.5, 7.0)):
            assert ml_spectrum(1.0, [lam], t)[1][0] == pytest.approx(
                dml_oracle(1.0, lam, t), rel=1e-5, abs=1e-12
            )

    def test_unit_time_identity(self):
        # ln t vanishes at t=1: derivative reduces to the pure digamma sum
        alpha, lam = 0.6, 1.3
        total = 0.0
        for n in range(1, 160):
            term = (
                (-lam) ** n
                * n
                * -digamma(alpha * n + 1.0)
                / math.gamma(alpha * n + 1.0)
            )
            total += term
        assert ml_spectrum(alpha, [lam], 1.0)[1][0] == pytest.approx(total, rel=1e-9)


class TestMlSpectrum:
    def test_clip_floor_matches_laplace_oracle(self):
        # orders at and below the trainer's clip_eps floor; the Maclaurin
        # oracle barely converges here, so both checks use Talbot inversion
        for alpha in (1e-5, 1e-4, 1e-3):
            for lam in (0.3, 1.0, 2.0):
                for t in (1.0, 20.0, 1000.0):
                    val = ml(alpha, lam, t)
                    assert abs(val - ml_oracle_laplace(alpha, lam, t)) < 1e-12, (alpha, lam, t)
                    assert ml_spectrum(alpha, [lam], t)[1][0] == pytest.approx(
                        dml_oracle_laplace(alpha, lam, t), rel=1e-9
                    ), (alpha, lam, t)

    @pytest.mark.parametrize("alpha", [1e-6, 1e-7, 1e-8, 1e-9, 1e-10])
    def test_orders_below_the_envelope_near_zero_order_limit(self, alpha):
        # clip_eps accepts any floor in (0, 1); as alpha -> 0 the kernel tends
        # to 1 / (1 + lam t^alpha), and the gap is O(alpha)
        lams = np.concatenate(([0.0], np.geomspace(1e-3, 2.0, 60)))
        for t in (0.01, 1.0, 20.0, 1000.0):
            limit = 1.0 / (1.0 + lams * t**alpha)
            gap = np.abs(ml_spectrum(alpha, lams, t)[0] - limit).max()
            assert gap <= alpha, (t, gap / alpha)

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.floats(1e-4, 1.0),
        lams=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=12),
        t=st.floats(0.0, 1e3),
        later=st.floats(0.0, 1e3),
    )
    def test_properties(self, alpha, lams, t, later):
        lams = np.sort(np.array(lams))
        vals, d_dalpha = ml_spectrum(alpha, lams, t)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(vals[(lams == 0.0) | (t == 0.0)] == 1.0)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all(ml_spectrum(alpha, lams, t + later)[0] <= vals + 1e-12)
        for lam, v, d in zip(lams, vals, d_dalpha):
            assert abs(ml(alpha, float(lam), t) - v) <= 1e-14
            assert abs(ml_spectrum(alpha, [lam], t)[1][0] - d) <= 1e-14
        # central difference in the order, kept inside (0, 1)
        h = 1e-5
        a = min(max(alpha, 2.0 * h), 1.0 - 2.0 * h)
        fd = (ml_spectrum(a + h, lams, t)[0] - ml_spectrum(a - h, lams, t)[0]) / (2.0 * h)
        np.testing.assert_allclose(ml_spectrum(a, lams, t)[1], fd, rtol=1e-5, atol=1e-7)
