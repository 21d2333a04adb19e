"""Tests for the fractional diffusion solvers."""

import math

import numpy as np
import pytest

from fracgcl.graphs import build_graph, eigendecompose, normalized_laplacian
from fracgcl.solver import (
    BlowUpError,
    solve_caputo_pc,
    skip_multiplier,
    solve_linear_spectral,
)
from fracgcl.special import ml

from conftest import cycle_graph, random_connected_graph


def k2_basis():
    return eigendecompose(normalized_laplacian(build_graph(2, [(0, 1, 1.0)])))


class TestSpectral:
    def test_zero_horizon_exact(self):
        basis = eigendecompose(normalized_laplacian(random_connected_graph(8, 0.4, 0)))
        y0 = np.random.default_rng(1).standard_normal((8, 3))
        assert np.array_equal(solve_linear_spectral(basis, y0, 0.7, 0.0), y0)

    def test_null_direction_conserved(self):
        basis = eigendecompose(normalized_laplacian(random_connected_graph(9, 0.4, 2)))
        u1 = basis.eigenvectors[:, 0]
        for alpha in (0.2, 0.8, 1.0):
            out = solve_linear_spectral(basis, u1, alpha, 30.0)
            assert np.abs(out - u1).max() < 1e-12

    def test_k2_exponential_mode(self):
        basis = k2_basis()
        u2 = basis.eigenvectors[:, 1]  # eigenvalue 2
        out = solve_linear_spectral(basis, u2, 1.0, 1.0)
        assert np.allclose(out, math.exp(-2.0) * u2, atol=1e-12)

    def test_multiplier_order(self):
        # higher frequencies are damped at least as much
        basis = eigendecompose(normalized_laplacian(random_connected_graph(12, 0.3, 3)))
        for alpha in (0.3, 1.0):
            for t in (0.5, 5.0):
                damp = [ml(alpha, float(l), t) for l in basis.eigenvalues]
                assert all(a >= b - 1e-12 for a, b in zip(damp, damp[1:]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_linear_spectral(k2_basis(), np.ones((3, 2)), 0.5, 1.0)
        with pytest.raises(ValueError):
            solve_linear_spectral(k2_basis(), np.ones(2), 1.5, 1.0)


class TestDenseSpectralFunction:
    @pytest.mark.parametrize("shape", [(12,), (12, 3)], ids=["1-D", "2-D"])
    def test_solvers_match_dense_product(self, shape):
        basis = eigendecompose(normalized_laplacian(random_connected_graph(12, 0.4, 5)))
        y = np.random.default_rng(7).standard_normal(shape)
        alpha, t = 0.6, 2.0
        damp = np.array([ml(alpha, float(l), t) for l in basis.eigenvalues])
        u = basis.eigenvectors
        got = solve_linear_spectral(basis, y, alpha, t)
        want = (u @ np.diag(damp) @ u.T) @ y
        assert got.shape == y.shape
        assert np.linalg.norm(got - want) / np.linalg.norm(want) < 1e-13


class TestCaputoPC:
    def test_classical_ode_reduction(self):
        traj = solve_caputo_pc(lambda t, y: -y, np.array([1.0]), 1.0, 1.0, 1e-3)
        assert abs(traj.final()[0] - math.exp(-1.0)) < 1e-6

    def test_zero_rhs_constant(self):
        y0 = np.array([[2.0, -1.0], [0.5, 3.0]])
        traj = solve_caputo_pc(lambda t, y: np.zeros_like(y), y0, 0.5, 1.0, 0.05)
        assert np.array_equal(traj.final(), y0)
        assert traj.times[0] == 0.0 and np.array_equal(traj.states[0], y0)

    def test_matches_spectral_oracle(self):
        g = random_connected_graph(10, 0.4, 11)
        lap = normalized_laplacian(g)
        basis = eigendecompose(lap)
        y0 = np.random.default_rng(4).standard_normal((10, 4))
        for alpha in (0.5, 1.0):
            got = solve_caputo_pc(lambda t, y: -lap @ y, y0, alpha, 2.0, 1e-3).final()
            ref = solve_linear_spectral(basis, y0, alpha, 2.0)
            rel = np.linalg.norm(got - ref) / np.linalg.norm(ref)
            assert rel < 1e-3, (alpha, rel)

    def test_halving_h_reduces_error(self):
        g = random_connected_graph(8, 0.5, 12)
        lap = normalized_laplacian(g)
        basis = eigendecompose(lap)
        y0 = np.random.default_rng(5).standard_normal((8, 2))
        for alpha in (0.4, 1.0):
            ref = solve_linear_spectral(basis, y0, alpha, 1.0)
            errs = []
            for h in (0.02, 0.01):
                got = solve_caputo_pc(lambda t, y: -lap @ y, y0, alpha, 1.0, h).final()
                errs.append(np.linalg.norm(got - ref))
            assert errs[1] < errs[0]
        # classical order ~2 at alpha = 1
        assert errs[0] / errs[1] > 3.0

    def test_scalar_fractional_relaxation(self):
        # D^0.5 y = -y has solution e_{0.5}(1, t)
        traj = solve_caputo_pc(lambda t, y: -y, np.array([1.0]), 0.5, 1.0, 1e-3)
        assert abs(traj.final()[0] - ml(0.5, 1.0, 1.0)) < 1e-4

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_blow_up_detected(self):
        with pytest.raises(BlowUpError) as exc:
            solve_caputo_pc(lambda t, y: y * 1e200, np.array([1.0]), 0.5, 1.0, 0.1)
        assert exc.value.step >= 1

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            solve_caputo_pc(lambda t, y: -y, np.array([1.0]), 0.5, 1.0, 0.3)


class TestSkips:
    def test_single_skip_multiplier(self):
        lams = k2_basis().eigenvalues
        alpha, tau = 0.6, 2.0
        mult = skip_multiplier(alpha, lams, tau, 1)
        for lam, got in zip(lams, mult):
            assert abs(got - (1.0 + ml(alpha, float(lam), tau))) < 1e-12

    def test_zero_frequency_exact(self):
        lams = eigendecompose(normalized_laplacian(cycle_graph(6))).eigenvalues
        for m in (1, 3, 7):
            assert abs(skip_multiplier(0.3, lams, 5.0, m)[0] - (m + 1.0)) < 1e-12

    def test_exponential_closed_form(self):
        lam2 = k2_basis().eigenvalues[1:]  # eigenvalue 2
        expected = 1.0 + math.exp(-2.0) + math.exp(-4.0)
        assert abs(skip_multiplier(1.0, lam2, 1.0, 2)[0] - expected) < 1e-12
