import warnings

import numpy as np
import pytest

from oqho_memory.design import (
    a_hat_minimizer,
    ddot_delta_of_energy,
    ddot_delta_of_state,
    ddot_delta_quad_form,
    grad_ddot_delta_wrt_energy,
    k_matrix,
    optimal_energy_matrix,
    zero_hamiltonian_condition,
)
from oqho_memory.dynamics import MomentData, Weighting
from oqho_memory.errors import DimensionError, NumericalError, PreconditionError
from oqho_memory.model import J2, build_realization, canonical_ccr, ito_j, OqhoParams

from oracles import fd_sym_gradient, kron_min_norm_solve, random_ccr, random_spd, random_sym


THETA1 = canonical_ccr(1)
THETA2 = canonical_ccr(2)


def single_mode_setup():
    w = Weighting(np.eye(2))
    mo = MomentData(np.eye(2), THETA1)
    return w, mo


def random_setup(rng, nu=2, m=2):
    """Well-conditioned Sigma > 0, P > 0 instance over n = 2 nu variables."""
    n = 2 * nu
    theta = canonical_ccr(nu)
    coupling = rng.standard_normal((m, n))
    w = Weighting(0.3 * rng.standard_normal((n, n)) + 2.0 * np.eye(n))
    mo = MomentData(random_spd(rng, n, shift=2.0, scale=0.3), theta)
    return theta, w, mo, coupling


class TestKMatrix:
    def test_decoupled_vanishes(self):
        w, mo = single_mode_setup()
        k = k_matrix(THETA1, w, np.zeros((2, 2)), np.zeros((2, 2)), mo)
        assert np.all(k == 0)

    def test_single_mode_vanishes(self):
        # B = J2, Atilde = -I, Sigma = P = I: the two terms commute and cancel.
        w, mo = single_mode_setup()
        k = k_matrix(THETA1, w, J2, -np.eye(2), mo)
        assert np.linalg.norm(k) <= 1e-14

    def test_symmetry_and_symmetrizer_form(self):
        # K equals (1/2) sym(Theta Sigma (B B^T + 2 Atilde P)).
        rng = np.random.default_rng(50)
        theta, w, mo, coupling = random_setup(rng)
        real = build_realization(OqhoParams(ccr=theta, energy=np.zeros((4, 4)),
                                            coupling=coupling, selector=np.eye(2)))
        k = k_matrix(theta, w, real.b, real.a_tilde, mo)
        assert np.linalg.norm(k - k.T) <= 1e-12
        s = theta.theta @ w.sigma @ (real.b @ real.b.T + 2.0 * real.a_tilde @ mo.p)
        np.testing.assert_allclose(k, 0.25 * (s + s.T), atol=1e-12)


class TestOptimalEnergyMatrix:
    def test_single_mode_zero(self):
        w, mo = single_mode_setup()
        opt = optimal_energy_matrix(THETA1, w, np.eye(2), mo)
        assert np.linalg.norm(opt.r_star) <= 1e-12
        assert opt.stationarity_residual <= 1e-12
        assert opt.method == "ALE"

    def test_decoupled_zero(self):
        w, mo = single_mode_setup()
        opt = optimal_energy_matrix(THETA1, w, np.zeros((2, 2)), mo)
        assert np.all(opt.r_star == 0)

    def test_stationarity_and_global_optimality(self):
        rng = np.random.default_rng(51)
        for _ in range(5):
            theta, w, mo, coupling = random_setup(rng)
            opt = optimal_energy_matrix(theta, w, coupling, mo)
            assert opt.stationarity_residual <= 1e-9
            assert np.linalg.norm(opt.r_star - opt.r_star.T) <= 1e-12
            base = ddot_delta_of_energy(opt.r_star, theta, w, coupling, mo)
            assert abs(base - opt.ddot_delta_at_opt) <= 1e-10 * max(abs(base), 1.0)
            for _ in range(20):
                probe = opt.r_star + 1e-3 * random_sym(rng, 4)
                assert base <= ddot_delta_of_energy(probe, theta, w, coupling, mo) + 1e-8

    @pytest.mark.parametrize("nu, rows", [(2, 4), (2, 3), (2, 2), (3, 6), (3, 4), (3, 1)])
    def test_matches_min_norm_oracle(self, nu, rows):
        # F with fewer rows than n makes Sigma and Theta Sigma Theta singular;
        # the stationarity equation then has a k (k + 1) / 2-dimensional
        # family of solutions, k = n - rows, and R* must be its member of
        # minimum Frobenius norm.
        rng = np.random.default_rng(58 + 10 * nu + rows)
        n = 2 * nu
        theta = random_ccr(rng, nu)
        coupling = rng.standard_normal((2, n))
        w = Weighting(rng.standard_normal((rows, n)))
        mo = MomentData(random_spd(rng, n, shift=2.0, scale=0.3), theta)
        opt = optimal_energy_matrix(theta, w, coupling, mo)
        tst = theta.theta @ w.sigma @ theta.theta
        lhs = np.kron(tst, mo.p) + np.kron(mo.p, tst)
        r_ref = kron_min_norm_solve(lhs, opt.k_matrix)
        assert np.linalg.norm(opt.r_star - r_ref) <= 1e-10 * np.linalg.norm(r_ref)
        k = n - rows
        assert opt.null_space_dim == k * (k + 1) // 2
        assert opt.method == "ALE"
        assert opt.stationarity_residual <= 1e-10 * max(np.linalg.norm(opt.k_matrix), 1.0)

    def test_convexity(self):
        rng = np.random.default_rng(52)
        theta, w, mo, coupling = random_setup(rng)
        for _ in range(10):
            r1, r2 = random_sym(rng, 4), random_sym(rng, 4)
            lam = rng.uniform(0.1, 0.9)
            lhs = ddot_delta_of_energy(lam * r1 + (1 - lam) * r2, theta, w, coupling, mo)
            rhs = (lam * ddot_delta_of_energy(r1, theta, w, coupling, mo)
                   + (1 - lam) * ddot_delta_of_energy(r2, theta, w, coupling, mo))
            assert lhs <= rhs + 1e-9

    def test_moments_of_another_order_named(self):
        # P of order 4 against Theta of order 2: the error names P, not the A built from Theta.
        w, _ = single_mode_setup()
        with pytest.raises(DimensionError, match="^P has shape"):
            ddot_delta_of_energy(np.zeros((2, 2)), THETA1, w, np.eye(2), MomentData(np.eye(4), THETA2))


class TestGradient:
    def test_vanishes_at_optimum(self):
        rng = np.random.default_rng(53)
        theta, w, mo, coupling = random_setup(rng)
        opt = optimal_energy_matrix(theta, w, coupling, mo)
        real = build_realization(OqhoParams(ccr=theta, energy=opt.r_star,
                                            coupling=coupling, selector=np.eye(2)))
        g = grad_ddot_delta_wrt_energy(theta, w, real, mo)
        assert np.linalg.norm(g) <= 1e-8

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(54)
        theta, w, mo, coupling = random_setup(rng)
        r0 = random_sym(rng, 4)
        real = build_realization(OqhoParams(ccr=theta, energy=r0,
                                            coupling=coupling, selector=np.eye(2)))
        g = grad_ddot_delta_wrt_energy(theta, w, real, mo)
        g_fd = fd_sym_gradient(lambda r: ddot_delta_of_energy(r, theta, w, coupling, mo),
                               r0, h=1e-5)
        assert np.linalg.norm(g - g_fd) <= 1e-6 * max(np.linalg.norm(g_fd), 1.0)

    def test_no_noise_zero_state(self):
        # With B = 0 the gradient reduces to -8 sym(Theta Sigma A P); it
        # vanishes at A = 0 regardless of the moments.
        w, mo = single_mode_setup()
        class _State:
            a = np.zeros((2, 2))
            b = np.zeros((2, 2))
        g = grad_ddot_delta_wrt_energy(THETA1, w, _State(), mo)
        assert np.all(g == 0)


class TestZeroHamiltonianCondition:
    def test_decoupled(self):
        w, mo = single_mode_setup()
        assert zero_hamiltonian_condition(THETA1, w, np.zeros((2, 2)), mo) == 0.0

    def test_single_mode(self):
        w, mo = single_mode_setup()
        assert zero_hamiltonian_condition(THETA1, w, np.eye(2), mo) <= 1e-12

    def test_equals_scaled_k_norm(self):
        # Independent reference: with Atilde = -1/2 B J B^T Theta^-1, 4 K is
        # Theta Sigma (B B^T - B J B^T Theta^-1 P) - (B B^T - P Theta^-1 B J B^T) Sigma Theta.
        rng = np.random.default_rng(55)
        for _ in range(5):
            theta, w, mo, coupling = random_setup(rng)
            t, sigma, p = theta.theta, w.sigma, mo.p
            t_inv = np.linalg.inv(t)
            b = 2.0 * t @ coupling.T
            bbt, bjbt = b @ b.T, b @ ito_j(2) @ b.T
            ref = np.linalg.norm(t @ sigma @ (bbt - bjbt @ t_inv @ p)
                                 - (bbt - p @ t_inv @ bjbt) @ sigma @ t)
            zh = zero_hamiltonian_condition(theta, w, coupling, mo)
            assert abs(zh - ref) <= 1e-12 * max(ref, 1.0)


class TestOverflow:
    # A product that overflows is a NumericalError, with no RuntimeWarning.
    @pytest.mark.parametrize("call", [
        lambda w, mo: zero_hamiltonian_condition(THETA1, w, 1e200 * np.eye(2), mo),
        lambda w, mo: zero_hamiltonian_condition(THETA1, Weighting(1e60 * np.eye(2)), 1e100 * np.eye(2), mo),
        lambda w, mo: k_matrix(THETA1, w, 1e200 * np.eye(2), np.eye(2), mo),
        lambda w, mo: grad_ddot_delta_wrt_energy(
            THETA1, w, (1e200 * np.eye(2), 1e200 * np.eye(2)), mo),
        lambda w, mo: ddot_delta_quad_form(1e200 * np.eye(2), 1e200 * np.eye(2), w, mo),
        lambda w, mo: ddot_delta_quad_form(1e200 * np.eye(2), np.eye(2), w, mo),
        lambda w, mo: optimal_energy_matrix(THETA1, w, 1e200 * np.eye(2), mo),
    ], ids=["zero_h_realization", "zero_h_k", "k_matrix", "gradient", "quad_form", "quad_form_a",
            "optimal_energy"])
    def test_numerical_error_without_warning(self, call):
        w, mo = single_mode_setup()
        with warnings.catch_warnings(), pytest.raises(NumericalError):
            warnings.simplefilter("error")
            call(w, mo)


class TestAHatMinimizer:
    def test_unit_case(self):
        w, mo = single_mode_setup()
        np.testing.assert_allclose(a_hat_minimizer(J2, mo), -0.5 * np.eye(2), atol=1e-14)

    def test_minimum_value(self):
        # min over A of ddot(Delta) is -1/2 ||F B B^T P^{-1/2}||^2 = -1 here.
        w, mo = single_mode_setup()
        a_hat = a_hat_minimizer(J2, mo)
        val = ddot_delta_of_state(a_hat, J2, w, mo)
        assert abs(val - (-1.0)) <= 1e-12

    def test_quad_form_matches_direct(self):
        rng = np.random.default_rng(56)
        for _ in range(10):
            b = rng.standard_normal((4, 4))
            a = rng.standard_normal((4, 4))
            w = Weighting(rng.standard_normal((4, 4)) + 2 * np.eye(4))
            mo = MomentData(random_spd(rng, 4), THETA2)
            direct = ddot_delta_of_state(a, b, w, mo)
            quad = ddot_delta_quad_form(a, b, w, mo)
            assert abs(direct - quad) <= 1e-10 * max(abs(direct), 1.0)

    def test_eigenvalues_nonpositive(self):
        rng = np.random.default_rng(57)
        for _ in range(10):
            b = rng.standard_normal((4, 2))
            mo = MomentData(random_spd(rng, 4), THETA2)
            eigs = np.linalg.eigvals(a_hat_minimizer(b, mo))
            assert np.max(eigs.real) <= 1e-10
            assert np.max(np.abs(eigs.imag)) <= 1e-10

    def test_singular_p_rejected(self):
        class _Stub:
            p = np.diag([1.0, 0.0])
        with pytest.raises(PreconditionError):
            a_hat_minimizer(np.eye(2), _Stub())
