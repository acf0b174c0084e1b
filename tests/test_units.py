"""A change of unit changes no decision.

Scaling an input by 2^k is exact in binary floating point, so the scaled
problem is the same problem, and every accept, reject and classify decision
must come out the same.  Each test compares decisions, or results, across
such scalings: a tolerance that is absolute, or floored at 1, fails them.
"""

import warnings

import numpy as np
import pytest

from oqho_memory import decoherence, design, numerics
from oqho_memory.dynamics import MomentData, Weighting, asymptotic_rate, time_scale
from oqho_memory.errors import InvalidMomentMatrixError, OqhoError, ValidationError
from oqho_memory.model import (HURWITZ, J2, MARGINALLY_STABLE, CcrMatrix, OqhoParams, build_realization,
                               canonical_ccr, classify_spectrum)
from oqho_memory.network import SubsystemParams, optimal_r12

from oracles import random_spd

I2 = np.eye(2)


class TestCcrAndEnergy:
    def test_small_asymmetric_ccr_rejected(self):
        # Theta + Theta^T = -2^-47 [[0, 1], [1, 0]] is small in absolute terms,
        # but half of Theta itself.
        theta = np.ldexp(np.array([[0.0, 1.0], [-2.0, 0.0]]), -47)
        with pytest.raises(ValidationError, match="not antisymmetric"):
            CcrMatrix(theta)

    def test_rounded_congruent_ccr_accepted_at_any_scale(self):
        rng = np.random.default_rng(3)
        s = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
        theta = s @ canonical_ccr(2).theta @ s.T  # antisymmetric up to rounding
        assert np.any(theta + theta.T != 0.0)
        for k in (-40, 0, 20, 40):
            CcrMatrix(np.ldexp(theta, k))

    def test_rounded_energy_accepted_at_any_scale(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((4, 4))
        r = x @ np.diag(rng.uniform(1.0, 2.0, 4)) @ x.T  # symmetric up to rounding
        assert np.any(r != r.T)
        for k in (-40, 0, 23, 40):
            OqhoParams(canonical_ccr(2), np.ldexp(r, k), np.eye(2, 4), I2)


class TestMomentData:
    def test_heisenberg_bound_scales_with_theta(self):
        # P = 0 violates P + i Theta >= 0 by |Theta|, whatever the unit.
        with pytest.raises(InvalidMomentMatrixError, match="Heisenberg"):
            MomentData(np.zeros((2, 2)), CcrMatrix(np.ldexp(0.5 * J2, -40)))

    @pytest.mark.parametrize("k", [-40, 0, 40])
    def test_scaled_vacuum_accepted(self, k):
        MomentData(np.ldexp(0.5 * I2, k), CcrMatrix(np.ldexp(0.5 * J2, k)))


class TestSpectrum:
    @pytest.mark.parametrize("nu", [1, 2, 3])
    def test_isolated_oscillator_stays_marginal(self, nu):
        # N = 0: A = 2 Theta R with R > 0 has a purely imaginary spectrum.
        for seed in range(5):
            r = random_spd(np.random.default_rng(seed), 2 * nu, shift=1.0)
            a = 2.0 * canonical_ccr(nu).theta @ r
            for k in (-20, 0, 20, 24):
                assert classify_spectrum(np.ldexp(a, k)).category == MARGINALLY_STABLE, (seed, k)

    def test_eigenvalues_scale(self):
        g = np.random.default_rng(8).standard_normal((4, 4))
        spec = classify_spectrum(g)
        for k in (-600, 600):
            scaled = classify_spectrum(np.ldexp(g, k))
            assert scaled.category == spec.category
            np.testing.assert_allclose(scaled.eigenvalues, 2.0 ** k * spec.eigenvalues, rtol=1e-14, atol=0.0)

    def test_slow_decay_is_hurwitz(self):
        spec = classify_spectrum(np.ldexp(-I2, -30))
        assert spec.category == HURWITZ and not spec.on_bisectors

    def test_hurwitz_certificate_at_any_time_unit(self):
        # The README system: A = -I, B = J2, F = P = I, eps = 5; its limit
        # 3 is below the threshold 10 at any time unit.
        w, mo = Weighting(I2), MomentData(I2, canonical_ccr(1))
        for k in (0, 34):
            rep = decoherence.decoherence_time((np.ldexp(-I2, -k), np.ldexp(J2, -k // 2)), w, mo, 5.0)
            assert rep.certificate == decoherence.CERT_HURWITZ

    def test_asymptotic_rate_scales(self):
        a = np.zeros((4, 4))
        a[:2, :2], a[2:, 2:] = J2, 3.0 * J2  # frequencies 1 and 3
        b = np.eye(4) + 0.1 * np.ones((4, 4))
        rate = asymptotic_rate(a, b)
        scaled = asymptotic_rate(np.ldexp(a, -27), 2.0 ** -13.5 * b)
        np.testing.assert_allclose(scaled, 2.0 ** -27 * rate, rtol=1e-12, atol=0.0)


class TestTimeScale:
    @pytest.mark.parametrize("k", [-1000, -600, -30, 0, 30, 600, 1000])
    def test_exact_power_of_two(self, k):
        a = np.random.default_rng(6).standard_normal((3, 3))
        assert time_scale(np.ldexp(a, k)) == np.ldexp(time_scale(a), -k)

    def test_zero_matrix(self):
        assert time_scale(np.zeros((2, 2))) == 1.0

    def test_default_horizon_follows_the_time_unit(self):
        # F B = 0 (no coupling): the horizon is 50 time_scale(A), and the
        # coupling-scale law tau(kappa^2 R) = tau(R) / kappa^2 holds with it.
        w, mo = Weighting(I2), MomentData(I2, canonical_ccr(1))

        def tau(kappa):
            params = OqhoParams(canonical_ccr(1), kappa ** 2 * np.diag([1.0, 2.0]), np.zeros((2, 2)), I2)
            return decoherence.decoherence_time(build_realization(params), w, mo, 1.0)

        base, small = tau(1.0), tau(2.0 ** -4)
        assert base.certificate == small.certificate == decoherence.CERT_CROSSING
        assert abs(base.tau - 0.67098) <= 1e-5
        assert abs(small.tau - 2.0 ** 8 * base.tau) <= 1e-12 * small.tau


def test_zero_hamiltonian_residual_scales():
    # F -> 2^260 F scales Sigma, K and 4 ||K|| by 2^520 ~ 3e156, whose square overflows.
    ccr, n_mat = canonical_ccr(1), np.array([[1.0, 0.3], [0.2, 1.0]])
    mo = MomentData(np.diag([1.0, 2.0]), ccr)
    base = design.zero_hamiltonian_condition(ccr, Weighting(I2), n_mat, mo)
    scaled = design.zero_hamiltonian_condition(ccr, Weighting(np.ldexp(I2, 260)), n_mat, mo)
    assert abs(scaled - np.ldexp(base, 520)) <= 1e-14 * scaled


class TestSolvers:
    def test_lyapunov_resonance_relative_to_m(self):
        # Eigenvalues -1, -1 sum to -2, which is 0 next to ||M|| = 1e150:
        # LAPACK would perturb them, so the pre-check refuses.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OqhoError):
                numerics.solve_lyapunov(np.array([[-1.0, 1e150], [0.0, -1.0]]), 1e300 * I2)

    def test_optimal_r12_method_and_value_under_scaled_f(self):
        # Sigma and P have (1, 2) blocks: the conjugate-gradient path.  F -> c F
        # scales the stationarity equation by c^2, which leaves R12* unchanged.
        rng = np.random.default_rng(7)
        subs = [SubsystemParams(canonical_ccr(1), random_spd(rng, 2, shift=1.0), rng.standard_normal((2, 2)),
                                rng.standard_normal((2, 2)), I2) for _ in range(2)]
        f = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
        mo = MomentData(random_spd(rng, 4, shift=2.0, scale=0.3), CcrMatrix(np.kron(I2, 0.5 * J2)))
        x0, _, method0 = optimal_r12(*subs, Weighting(f), mo)
        assert method0 == "LeastSquares"
        for k in (-24, -22, 20):
            x, _, method = optimal_r12(*subs, Weighting(np.ldexp(f, k)), mo)
            assert method == method0
            assert np.linalg.norm(x - x0) <= 1e-12 * np.linalg.norm(x0)


# F -> 2^k F scales Sigma, both stationarity equations and every norm their
# solvers take by 4^k, exactly, so R* and R12* must come out bit for bit the
# same on every path, far past where a plain sum of squares over- or underflows.
SCALES = (-500, -400, -200, 200, 300, 500)


def _r12_case(coupled):
    theta = CcrMatrix(np.kron(I2, 0.5 * J2))
    off = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.2 * I2)
    rng = np.random.default_rng(0)
    subs = [SubsystemParams(canonical_ccr(1), random_spd(rng, 2, shift=1.0), rng.standard_normal((2, 2)),
                            rng.standard_normal((2, 2)), I2) for _ in range(2)]
    return subs, np.eye(4) + off if coupled else np.eye(4), MomentData(np.eye(4) + off, theta)


@pytest.mark.parametrize("coupled, path", [(True, "LeastSquares"), (False, "Sylvester")])
def test_optimal_r12_bit_identical_under_scaled_f(coupled, path):
    subs, f, mo = _r12_case(coupled)
    x0, res0, method = optimal_r12(*subs, Weighting(f), mo)
    assert method == path
    for k in SCALES:
        x, res, method = optimal_r12(*subs, Weighting(np.ldexp(f, k)), mo)
        assert method == path and np.array_equal(x, x0), k
        assert res <= 1e-10 * np.ldexp(1.0, 2 * k), k


def test_optimal_energy_matrix_under_scaled_f():
    rng = np.random.default_rng(0)
    ccr, n_mat = canonical_ccr(2), rng.standard_normal((4, 4))
    mo = MomentData(random_spd(rng, 4, shift=2.0, scale=0.3), ccr)
    f = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
    r0 = design.optimal_energy_matrix(ccr, Weighting(f), n_mat, mo).r_star
    for k in SCALES:
        r = design.optimal_energy_matrix(ccr, Weighting(np.ldexp(f, k)), n_mat, mo).r_star
        assert np.array_equal(r, r0), k
