import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oqho_memory import dynamics
from oqho_memory.decoherence import decoherence_time, tau_hat, tau_prime, tau_second
from oqho_memory.dynamics import (
    SPECTRAL,
    VAN_LOAN,
    DeviationEvaluator,
    MomentData,
    Weighting,
    _propagate,
    asymptotic_rate,
    default_time_grid,
    delta,
    delta_derivatives,
    gramian,
    hurwitz_limit,
    time_scale,
)
from oqho_memory.errors import (
    DimensionError,
    InvalidMomentMatrixError,
    NumericalError,
    PreconditionError,
    ValidationError,
)
from oqho_memory.model import (HURWITZ, J2, CcrMatrix, OqhoParams, build_realization, canonical_ccr,
                               classify_spectrum)
from oqho_memory.numerics import sqrt_psd

from oracles import (
    complex_modal_congruence,
    complex_modal_terms,
    kron_solve_lyapunov,
    modal_system,
    quad_gramian,
    random_ccr,
    random_damped_realization,
    random_hurwitz_realization,
    random_marginal_modes,
    random_marginal_system,
    random_params,
    random_spd,
    spectral_family,
)


THETA1 = canonical_ccr(1)


def single_mode_system():
    """Theta = J2/2, R = 0, N = I: A = -I, B = J2, closed-form deviation."""
    return -np.eye(2), J2


def closed_form_delta(t):
    return 2.0 * (1.0 - np.exp(-t)) ** 2 + 1.0 - np.exp(-2.0 * t)


def identity_weighting_moments(n=2, theta=None):
    return Weighting(np.eye(n)), MomentData(np.eye(n), theta or THETA1)


def van_loan_terms(a, b, w, mo, t):
    """(signal, noise) from one Van Loan block exponential, the fallback path."""
    e, v = _propagate(a, b @ b.T, t)
    e = e - np.eye(len(a))
    return np.sum(w.sigma * (e @ mo.p @ e.T)), np.sum(w.sigma * v)


# The families of the spectral path, as (kind, near_gap, phi_entries) with
# ids.  near_gap is the relative frequency gap of a near-degenerate pair: 1e-4
# is below _NEAR_RESONANT, so its four off-diagonal Z entries join the
# diagonal on the _phi route; 1e-2 is above, so they stay in the form.  The
# last three kinds reach the real modal basis with real eigenvalues: all of
# them (numpy's eig is then real), mixed with conjugate pairs, and an exact
# zero eigenvalue, whose diagonal Z entry takes _phi.  phi_entries(n) is the
# exact number of near entries the evaluator lists: each conjugate pair of
# them once, with weight 2, so n / 2 for the diagonal of an imaginary
# spectrum and two more for the near-degenerate pair.
FAMILIES = [
    ("hurwitz", None, lambda n: 0),
    ("marginal", None, lambda n: n // 2),
    ("marginal", 1e-4, lambda n: n // 2 + 2),
    ("marginal", 1e-2, lambda n: n // 2),
    ("real", None, lambda n: 0),
    ("mixed", None, lambda n: 0),
    ("zero-eigenvalue", None, lambda n: 1),
]
FAMILY_IDS = ["hurwitz", "marginal", "marginal-gap-1e-4", "marginal-gap-1e-2", "real", "mixed", "zero-eigenvalue"]
SYSTEMS = [f[:2] for f in FAMILIES]  # (kind, near_gap)


class TestMomentData:
    def test_heisenberg_violation_rejected(self):
        # P = 0.1 I is dominated by Theta = J2/2: P + i Theta indefinite.
        with pytest.raises(InvalidMomentMatrixError):
            MomentData(0.1 * np.eye(2), THETA1)

    def test_vacuum_scale_accepted(self):
        mo = MomentData(0.5 * np.eye(2), THETA1)
        np.testing.assert_array_equal(mo.p, 0.5 * np.eye(2))

    def test_heisenberg_margin_is_computed_once_and_read_only(self):
        # min eig(P + i Theta) of P = I, Theta = J2 / 2 is 1 - 1/2.
        mo = MomentData(np.eye(2), THETA1)
        assert abs(mo.pi_min - 0.5) <= 1e-15
        with pytest.raises(AttributeError):
            mo.pi_min = 1.0
        assert "pi_min" not in repr(mo)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidMomentMatrixError):
            MomentData(np.array([[1.0, 0.5], [0.0, 1.0]]), THETA1)

    def test_small_indefinite_p_rejected(self):
        # With Theta = 1e-20 J2 / 2, P + i Theta has least eigenvalue ~ -5e-11,
        # far below the Heisenberg margin relative to Theta, -1e-10 * 1e-20:
        # the one admissibility test rejects a P that is not PSD.
        with pytest.raises(InvalidMomentMatrixError, match=r"P \+ i Theta has negative eigenvalue -5\.000e-11"):
            MomentData(np.diag([1e-12, -5e-11]), CcrMatrix(0.5e-20 * J2))

    # The Heisenberg test is the one admissibility test: it rejects every P
    # that is not PSD, since x^T (P + i Theta) x = x^T P x for real x.  The
    # reference is the relative PSD test of P that MomentData once ran beside
    # it: least eigenvalue of P / 4^k (4^k ~ max|P|) below -1e-8 times the
    # largest in magnitude.  Theta is canonical or T Theta T^T, P is PSD,
    # indefinite, at that PSD test's boundary or at the Heisenberg boundary
    # (|i Theta| plus a multiple of 1e-9 Theta's scale times I), and both
    # scales are log-uniform.  An accepted P keeps pi_min = min eig(P + i Theta).
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(nu=st.integers(1, 4), seed=st.integers(0, 2**16), congruent=st.booleans(),
           kind=st.sampled_from(["psd", "indefinite", "psd-boundary", "heisenberg-boundary"]),
           theta_exponent=st.floats(-150.0, 150.0), p_exponent=st.floats(-20.0, 20.0))
    def test_rejects_every_p_that_is_not_psd(self, nu, seed, congruent, kind, theta_exponent, p_exponent):
        def psd_test_rejects(p):
            k = int(np.frexp(np.max(np.abs(p)))[1]) // 2
            q = np.ldexp(p, -2 * k)
            w = np.linalg.eigvalsh(0.5 * (q + q.T))
            return np.min(w) < -1e-8 * np.max(np.abs(w))

        rng, n = np.random.default_rng(seed), 2 * nu
        theta = canonical_ccr(nu).theta
        if congruent:
            t = np.eye(n) + 0.3 * rng.standard_normal((n, n))
            theta = t @ theta @ t.T
            theta = 0.5 * (theta - theta.T)
        theta = 10.0 ** theta_exponent * theta
        scale = np.max(np.abs(theta))
        if kind == "heisenberg-boundary":
            lam, u = np.linalg.eigh(1j * theta)
            p = ((u * np.abs(lam)) @ u.conj().T).real + 1e-9 * rng.uniform(-3.0, 3.0) * scale * np.eye(n)
        else:
            w = 10.0 ** rng.uniform(-3.0, 0.0, n)
            if kind == "indefinite":
                w[0] = -w[0] * 10.0 ** rng.uniform(-12.0, 0.0)
            elif kind == "psd-boundary":
                w[0] = -1e-8 * np.max(w[1:], initial=w[0]) * rng.uniform(0.5, 1.5)
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            p = 10.0 ** p_exponent * scale * (q * w) @ q.T
        p = 0.5 * (p + p.T)
        ccr = CcrMatrix(theta)
        if psd_test_rejects(p):
            with pytest.raises(InvalidMomentMatrixError, match="not Heisenberg-admissible"):
                MomentData(p, ccr)
            return
        try:
            mo = MomentData(p, ccr)
        except InvalidMomentMatrixError:
            return
        assert mo.pi_min == np.min(np.linalg.eigvalsh(p + 1j * theta))

    def test_asymmetric_rejected_when_norm_overflows(self):
        # ||P|| = inf must not make the symmetry bound inf.
        with pytest.raises(InvalidMomentMatrixError, match="not symmetric"):
            MomentData(np.array([[1e308, 1e300], [0.0, 1e308]]), THETA1)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_rejected(self, entry):
        p = np.eye(2)
        p[0, 1] = p[1, 0] = entry
        with pytest.raises(InvalidMomentMatrixError, match="not finite"):
            MomentData(p, THETA1)

    def test_huge_finite_p_has_finite_sqrt(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mo = MomentData(np.diag([1e308, 1e308]), THETA1)
        # MomentData keeps no square root; numerics.sqrt_psd still takes it.
        np.testing.assert_allclose(sqrt_psd(mo.p), 1e154 * np.eye(2), rtol=1e-15, atol=0.0)


class TestWeighting:
    def test_sigma_factorization(self):
        rng = np.random.default_rng(20)
        f = rng.standard_normal((2, 4))
        w = Weighting(f)
        np.testing.assert_allclose(w.sigma, f.T @ f, atol=1e-14)
        assert w.s == 2

    def test_from_sigma_roundtrip(self):
        rng = np.random.default_rng(21)
        sigma = random_spd(rng, 4)
        w = Weighting.from_sigma(sigma)
        np.testing.assert_allclose(w.sigma, sigma, atol=1e-10)

    def test_from_sigma_drops_tiny_eigenvalues(self):
        # Eigenvalues at most 1e-12 times the largest are dropped; there is no
        # tolerance argument.
        w = Weighting.from_sigma(np.diag([1.0, 1e-13, 0.5]))
        assert w.s == 2
        with pytest.raises(TypeError):
            Weighting.from_sigma(np.eye(2), tol=1e-12)

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValidationError):
            Weighting(np.zeros((2, 3)))

    def test_no_rows_rejected(self):
        with pytest.raises(ValidationError, match="at least one row"):
            Weighting(np.zeros((0, 2)))
        with pytest.raises(ValidationError, match="at least one row"):
            Weighting.from_sigma(np.zeros((2, 2)))

    # Sigma is scaled by a power of two before eigh, so a huge finite Sigma
    # is factored without overflow: F = 1e154 I, F^T F = Sigma.
    def test_from_sigma_near_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = Weighting.from_sigma(np.diag([1e308, 1e308]))
        np.testing.assert_allclose(w.f, 1e154 * np.eye(2), rtol=1e-15)
        np.testing.assert_allclose(w.sigma, np.diag([1e308, 1e308]), rtol=1e-15)

    # Sigma is read whole: a triangle alone would give [[1, .5], [.5, 1]].
    @pytest.mark.parametrize("sigma", [[[1.0, 1.0], [0.0, 1.0]], [[1.0, 0.0], [1.0, 1.0]]],
                             ids=["upper", "lower"])
    def test_from_sigma_asymmetric_rejected(self, sigma):
        with pytest.raises(InvalidMomentMatrixError, match="not symmetric"):
            Weighting.from_sigma(sigma)

    def test_from_sigma_not_psd_rejected(self):
        with pytest.raises(InvalidMomentMatrixError):
            Weighting.from_sigma(np.diag([1e308, -1e301]))

    # The rank tolerance is scaled so that it cannot overflow: full-row-rank
    # factors near the overflow threshold are accepted without a warning
    # (Sigma overflows to inf, which its users reject), and a rank-deficient
    # one there is still rejected.
    @pytest.mark.parametrize("f", [[[1e308, 1e308]], np.diag([1e308, 1e308])], ids=["row", "diagonal"])
    def test_full_rank_near_overflow_accepted(self, f):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Weighting(f).s == len(f)

    def test_rank_deficient_near_overflow_rejected(self):
        with warnings.catch_warnings(), pytest.raises(ValidationError, match="full row rank"):
            warnings.simplefilter("error")
            Weighting([[1e308, 1e308], [5e307, 5e307]])

    def test_sigma_is_computed_once_and_read_only(self):
        w = Weighting(np.eye(2, 3))
        assert w.sigma is w.sigma
        with pytest.raises(ValueError):
            w.sigma[0, 0] = 2.0
        with pytest.raises(ValueError):
            w.f[0, 0] = 2.0

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, entry):
        f = np.eye(2, 3)
        f[1, 2] = entry
        with pytest.raises(ValidationError, match="finite"):
            Weighting(f)


class TestGramian:
    # A rotation commutes with J, so the integrand stays I + iJ and
    # V(t) = t (I + iJ) exactly.  At t = 1e6 the rounding of e^{hA} compounds
    # over the doublings to ~t ||A|| eps relative, the conditioning of e^{tA};
    # atol = 1e-8 t allows for that.
    @pytest.mark.parametrize("a", [np.zeros((2, 2)), J2], ids=["zero", "J2"])
    @pytest.mark.parametrize("t, atol", [(3.0, 1e-12), (1e6, 1e-2)], ids=["3", "1e6"])
    def test_constant_integrand(self, a, t, atol):
        v = gramian(a, np.eye(2), t)
        np.testing.assert_allclose(v, t * (np.eye(2) + 1j * J2), rtol=0, atol=atol)

    def test_single_mode_real_part(self):
        a, b = single_mode_system()
        for t in (0.3, 1.0, 4.0):
            expect = 0.5 * (1.0 - np.exp(-2.0 * t)) * np.eye(2)
            np.testing.assert_allclose(gramian(a, b, t).real, expect, atol=1e-12)

    def test_zero_time(self):
        rng = np.random.default_rng(22)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 2))
        assert np.all(gramian(a, b, 0.0) == 0)

    def test_matches_quadrature(self):
        rng = np.random.default_rng(23)
        for _ in range(6):
            g = rng.standard_normal((4, 4))
            # Shift the spectrum into the left half plane so V stays bounded.
            a = g - (np.max(np.linalg.eigvals(g).real) + 0.2) * np.eye(4)
            b = rng.standard_normal((4, 2))
            for t in (0.1, 1.0, 5.0):
                v = gramian(a, b, t)
                v_ref = quad_gramian(a, b, t)
                assert np.max(np.abs(v - v_ref)) <= 1e-8

    @pytest.mark.parametrize("kind, near_gap", SYSTEMS, ids=FAMILY_IDS)
    def test_matches_complex_eigenbasis(self, kind, near_gap):
        a, b, _, _ = spectral_family(kind, near_gap, 16)
        for t in (1e-3, 1.0, 1e3):
            want = complex_modal_congruence(a, b, t)
            assert np.max(np.abs(gramian(a, b, t) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_defective_matches_quadrature(self):
        # A Jordan block has no eigenbasis, so V(t) comes from Van Loan.
        a = np.array([[-1.0, 1.0], [0.0, -1.0]])
        b = np.array([[1.0, 0.3], [-0.2, 1.0]])
        for t in (0.5, 4.0):
            assert np.max(np.abs(gramian(a, b, t) - quad_gramian(a, b, t))) <= 1e-8

    def test_hermitian_psd(self):
        rng = np.random.default_rng(24)
        a = rng.standard_normal((4, 4)) - np.eye(4)
        b = rng.standard_normal((4, 4))
        v = gramian(a, b, 2.0)
        assert np.linalg.norm(v - v.conj().T) <= 1e-12
        assert np.min(np.linalg.eigvalsh(v)) >= -1e-10

    def test_negative_time_rejected(self):
        with pytest.raises(PreconditionError):
            gramian(np.eye(2), np.eye(2), -1.0)

    def test_overflow_is_numerical_error(self):
        # Re lam = +1e308: e^{Z t} and so V(t) overflow.  A typed error, no warning.
        with warnings.catch_warnings(), pytest.raises(NumericalError, match="not finite"):
            warnings.simplefilter("error")
            gramian(1e308 * np.eye(2), J2, 1.0)

    def test_non_finite_z_on_the_imaginary_axis(self):
        # Z = +-2e308 i overflows, but |Phi(Z, t)| <= 2 / |Z| there, so V(t)
        # is the finite t (I + iJ) of test_constant_integrand.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = gramian(1e308 * J2, J2, 1.0)
        np.testing.assert_allclose(v, np.eye(2) + 1j * J2, rtol=0, atol=1e-15)


class TestDelta:
    def test_single_mode_closed_form(self):
        a, b = single_mode_system()
        ev = DeviationEvaluator(a, b, *identity_weighting_moments())
        for t in np.linspace(0.0, 6.0, 25):
            assert abs(ev.delta(t) - closed_form_delta(t)) <= 1e-10

    def test_isolated_zero_hamiltonian_is_memoryless(self):
        w, mo = identity_weighting_moments()
        for t in (0.0, 1.0, 10.0):
            assert delta(np.zeros((2, 2)), np.zeros((2, 2)), w, mo, t) == 0.0

    def test_decomposition(self):
        rng = np.random.default_rng(25)
        params = random_params(rng, 2, 2)
        real = build_realization(params)
        w = Weighting(rng.standard_normal((2, 4)))
        mo = MomentData(random_spd(rng, 4), params.ccr)
        sig, noise = DeviationEvaluator(real.a, real.b, w, mo).terms(0.7)
        assert sig >= 0 and noise >= 0
        assert abs(delta(real.a, real.b, w, mo, 0.7) - (sig + noise)) <= 1e-12

    def test_overflow_raises(self):
        # e^{tA} = e^{500} I is finite, but the signal term (~e^{1000}) and
        # the Gramian overflow; a scan would read nan > threshold as "not
        # crossed".  The error comes without a RuntimeWarning.
        ev = DeviationEvaluator(5.0 * np.eye(2), J2, *identity_weighting_moments())
        with warnings.catch_warnings(), pytest.raises(NumericalError, match="not finite"):
            warnings.simplefilter("error")
            ev.terms(100.0)

    def test_depends_on_p_only_not_theta(self):
        # The deviation uses the real moment part P; the CCR matrix enters
        # only through admissibility, so any admissible Theta gives the same value.
        rng = np.random.default_rng(26)
        a, b = single_mode_system()
        w = Weighting(np.eye(2))
        p = 3.0 * np.eye(2)
        thetas = [THETA1, random_ccr(rng, 1, perturb=0.1)]
        vals = [delta(a, b, w, MomentData(p, th), 1.3) for th in thetas]
        assert abs(vals[0] - vals[1]) <= 1e-14


class TestDeltaDerivatives:
    def test_single_mode(self):
        a, b = single_mode_system()
        w, mo = identity_weighting_moments()
        dot, ddot = delta_derivatives(a, b, w, mo)
        assert abs(dot - 2.0) <= 1e-14
        assert abs(ddot) <= 1e-14

    def test_decoupled(self):
        rng = np.random.default_rng(27)
        a = rng.standard_normal((4, 4))
        w = Weighting(rng.standard_normal((4, 4)))
        mo = MomentData(random_spd(rng, 4), canonical_ccr(2))
        dot, ddot = delta_derivatives(a, np.zeros((4, 2)), w, mo)
        assert dot == 0.0
        assert ddot >= 0.0

    def test_matches_four_product_form(self):
        # ddot is formed as 2 <Sigma A, B B^T + A P>; the reference sums the
        # four terms of <Sigma, A B B^T + B B^T A^T + 2 A P A^T> as written.
        rng = np.random.default_rng(29)
        for _ in range(5):
            a, b = rng.standard_normal((4, 4)), rng.standard_normal((4, 2))
            w = Weighting(rng.standard_normal((3, 4)))
            mo = MomentData(random_spd(rng, 4), canonical_ccr(2))
            bbt = b @ b.T
            terms = w.sigma * (a @ bbt + bbt @ a.T + 2.0 * a @ mo.p @ a.T)
            ddot = delta_derivatives(a, b, w, mo)[1]
            assert abs(ddot - np.sum(terms)) <= 1e-14 * np.sum(np.abs(terms))

    def test_finite_difference_agreement(self):
        rng = np.random.default_rng(28)
        w, mo = identity_weighting_moments()
        for _ in range(5):
            params = random_params(rng, 1, 2)
            real = build_realization(params)
            dot, ddot = delta_derivatives(real.a, real.b, w, mo)
            ev = DeviationEvaluator(real.a, real.b, w, mo)
            for h in (1e-3, 1e-4):
                d1, d2, d3 = (ev.delta(k * h) for k in (1, 2, 3))
                fd_dot = (4.0 * d1 - d2) / (2.0 * h)
                fd_ddot = (-d3 + 4.0 * d2 - 5.0 * d1) / h ** 2
                assert abs(fd_dot - dot) <= 1e-4 * max(abs(dot), 1.0)
                assert abs(fd_ddot - ddot) <= 1e-3 * max(abs(ddot), 1.0)

    def test_overflow_is_numerical_error_without_warning(self):
        w, mo = identity_weighting_moments()
        with warnings.catch_warnings(), pytest.raises(NumericalError):
            warnings.simplefilter("error")
            delta_derivatives(1e200 * np.eye(2), 1e200 * np.eye(2), w, mo)


class TestHurwitzLimit:
    def test_single_mode(self):
        a, b = single_mode_system()
        w, mo = identity_weighting_moments()
        # P_inf = I/2 from -2 P_inf + I = 0; limit = <I, P + P_inf> = 3.
        assert abs(hurwitz_limit(a, b, w, mo) - 3.0) <= 1e-12

    def test_no_noise(self):
        w, mo = identity_weighting_moments()
        assert abs(hurwitz_limit(-np.eye(2), np.zeros((2, 2)), w, mo) - 2.0) <= 1e-12

    def test_long_horizon_agreement(self):
        rng = np.random.default_rng(29)
        w, mo = identity_weighting_moments()
        for _ in range(5):
            _, real = random_hurwitz_realization(rng, re_min=-1.5, re_max=-0.3)
            re_max = classify_spectrum(real.a).eigenvalues.real.max()
            t_end = 40.0 / abs(re_max)
            lim = hurwitz_limit(real.a, real.b, w, mo)
            assert abs(delta(real.a, real.b, w, mo, t_end) - lim) <= 1e-6

    def test_marginal_rejected(self):
        w, mo = identity_weighting_moments()
        with pytest.raises(PreconditionError):
            hurwitz_limit(J2, np.eye(2), w, mo)

    # Re lam = -1e-10 is on the imaginary axis for classify_spectrum's
    # tolerance, -1e-8 is not: the limit's Hurwitz test must agree.
    @pytest.mark.parametrize("re", [-1e-10, -1e-8])
    def test_hurwitz_test_matches_classify_spectrum(self, re):
        a = re * np.eye(2) + J2
        w, mo = identity_weighting_moments()
        if classify_spectrum(a).category == HURWITZ:
            assert re == -1e-8
            assert hurwitz_limit(a, np.eye(2), w, mo) > 0
        else:
            with pytest.raises(PreconditionError):
                hurwitz_limit(a, np.eye(2), w, mo)

    # The evaluator reads the limit from its eigenbasis (spectral path) or
    # solves a Lyapunov equation (Van Loan path); the Kronecker solve of
    # A P_inf + P_inf A^T + B B^T = 0 is the independent reference.
    @staticmethod
    def kronecker_limit(a, b, w, mo):
        return float(np.sum(w.sigma * (mo.p + kron_solve_lyapunov(a, b @ b.T))))

    @pytest.mark.parametrize("nu", [1, 2, 4, 8])
    def test_spectral_matches_kronecker_oracle(self, nu):
        rng = np.random.default_rng(40 + nu)
        params, real = random_damped_realization(rng, nu)
        w = Weighting(rng.standard_normal((nu, 2 * nu)))
        mo = MomentData(random_spd(rng, 2 * nu), params.ccr)
        ev = DeviationEvaluator(real.a, real.b, w, mo)
        assert ev.path == SPECTRAL
        ref = self.kronecker_limit(real.a, real.b, w, mo)
        assert abs(ev.hurwitz_limit() - ref) <= 1e-12 * abs(ref)

    def test_near_resonant_matches_kronecker_oracle(self):
        # lam = -1e-5 +- 10i and -1e-5 +- 13i: each Z_ii = -2e-5 is near
        # resonant, and its entry G_ii / Z_ii dominates the limit.
        rng = np.random.default_rng(45)
        modes = scipy.linalg.block_diag(*[-1e-5 * np.eye(2) + f * J2 for f in (10.0, 13.0)])
        t = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        a, b = t @ modes @ np.linalg.inv(t), 0.3 * rng.standard_normal((4, 2))
        w, mo = identity_weighting_moments(4, canonical_ccr(2))
        ev = DeviationEvaluator(a, b, w, mo)
        assert ev.path == SPECTRAL
        ref = self.kronecker_limit(a, b, w, mo)
        assert ref > 1e4
        assert abs(ev.hurwitz_limit() - ref) <= 1e-9 * ref

    def test_defective_van_loan_limit(self):
        # tr P_inf = int_0^inf e^{-2s} (2 + s^2) ds = 5/4 for the Jordan block.
        a = np.array([[-1.0, 1.0], [0.0, -1.0]])
        w, mo = identity_weighting_moments()
        ev = DeviationEvaluator(a, np.eye(2), w, mo)
        assert ev.path == VAN_LOAN
        assert abs(ev.hurwitz_limit() - 3.25) <= 1e-12
        assert abs(ev.hurwitz_limit() - self.kronecker_limit(a, np.eye(2), w, mo)) <= 1e-12


class TestAsymptoticRate:
    def test_rotation_trace(self):
        rate = asymptotic_rate(J2, np.eye(2))
        assert abs(np.trace(rate).real - 2.0) <= 1e-12
        assert np.linalg.norm(rate - rate.conj().T) <= 1e-12

    def test_zero_noise(self):
        assert np.all(asymptotic_rate(J2, np.zeros((2, 2))) == 0)

    def test_repeated_frequencies_rejected(self):
        a = np.kron(np.eye(2), J2)
        with pytest.raises(PreconditionError):
            asymptotic_rate(a, np.eye(4))

    def test_nonimaginary_spectrum_rejected(self):
        with pytest.raises(PreconditionError):
            asymptotic_rate(-np.eye(2), np.eye(2))

    # A defective A has a repeated eigenvalue; A = S J2 S^-1 with
    # cond(S) = 1e4 has eigenvalues +-i but cond(U) ~ 1e4 > 1e3.
    @pytest.mark.parametrize("a", [np.array([[0.0, 1.0], [0.0, 0.0]]),
                                   np.array([[0.0, 1e4], [-1e-4, 0.0]])],
                             ids=["defective", "ill-conditioned"])
    def test_no_spectral_basis_rejected(self, a):
        with pytest.raises(PreconditionError):
            asymptotic_rate(a, np.eye(2))

    @pytest.mark.parametrize("kind, near_gap", SYSTEMS[1:4], ids=FAMILY_IDS[1:4])  # the marginal ones
    def test_matches_complex_eigenbasis(self, kind, near_gap):
        a, b, _, _ = spectral_family(kind, near_gap, 16)
        want = complex_modal_congruence(a, b)
        assert np.max(np.abs(asymptotic_rate(a, b) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_matches_long_time_growth(self):
        rng = np.random.default_rng(30)
        a, b = random_marginal_system(rng)
        rate = asymptotic_rate(a, b)
        emp = (gramian(a, b, 400.0) - gramian(a, b, 200.0)) / 200.0
        assert np.max(np.abs(emp - rate)) <= 1e-3


class TestDeviationEvaluator:
    def test_zero_time(self):
        w, mo = identity_weighting_moments()
        a, b = single_mode_system()
        assert DeviationEvaluator(a, b, w, mo).terms(0.0) == (0.0, 0.0)

    def test_single_mode(self):
        a, b = single_mode_system()
        w, mo = identity_weighting_moments()
        ev = DeviationEvaluator(a, b, w, mo)
        assert ev.path == SPECTRAL
        for t in (0.5, 1.0, 3.0):
            sig, noise = ev.terms(t)
            assert abs(sig - 2.0 * (1.0 - np.exp(-t)) ** 2) <= 1e-12
            assert abs(noise - (1.0 - np.exp(-2.0 * t))) <= 1e-12

    def test_half_turn(self):
        # ||e^{pi J2} - I||^2 = ||-2 I||^2 = 8.
        w, mo = identity_weighting_moments()
        sig, _ = DeviationEvaluator(J2, np.zeros((2, 2)), w, mo).terms(np.pi)
        assert abs(sig - 8.0) <= 1e-10

    def test_matches_van_loan_random_hurwitz(self):
        rng = np.random.default_rng(31)
        w, mo = identity_weighting_moments()
        for _ in range(5):
            _, real = random_hurwitz_realization(rng)
            ev = DeviationEvaluator(real.a, real.b, w, mo)
            assert ev.path == SPECTRAL
            t = rng.uniform(0.1, 3.0)
            np.testing.assert_allclose(ev.terms(t), van_loan_terms(real.a, real.b, w, mo, t),
                                       rtol=1e-10, atol=0)

    @pytest.mark.parametrize("kind, near_gap, phi_entries", FAMILIES, ids=FAMILY_IDS)
    @pytest.mark.parametrize("nu", [4, 16])
    def test_agrees_with_van_loan(self, kind, near_gap, phi_entries, nu):
        a, b, w, mo = spectral_family(kind, near_gap, nu)
        ev = DeviationEvaluator(a, b, w, mo)
        assert ev.path == SPECTRAL
        assert ev._z_near.size == phi_entries(2 * nu)
        for t in np.geomspace(1e-6, 1e4, 21):
            want = sum(van_loan_terms(a, b, w, mo, t))
            assert abs(ev.delta(t) - want) <= 1e-10 * want

    # The evaluator builds its forms in conjugate-pair blocks of the real
    # modal basis; the oracle builds the same forms in the complex
    # eigenbasis.  Each summand must agree on its own.
    @pytest.mark.parametrize("kind, near_gap", SYSTEMS, ids=FAMILY_IDS)
    @pytest.mark.parametrize("nu", [4, 16])
    def test_agrees_with_complex_eigenbasis(self, kind, near_gap, nu):
        a, b, w, mo = spectral_family(kind, near_gap, nu)
        ev = DeviationEvaluator(a, b, w, mo)
        for t in np.geomspace(1e-6, 1e4, 21):
            got, want = ev.terms(t), complex_modal_terms(a, b, w.sigma, mo.p, t)
            for x, y in zip(got, want):
                assert abs(x - y) <= 1e-12 * abs(y), (t, got, want)

    # cond_2 of the real modal basis equals cond_2(U), so the spectral/Van
    # Loan decision is the one cond(U) would make, on both sides of the limit.
    # It takes the SVD behind np.linalg.cond only when the bound
    # ||V||_F ||V^-1||_F is above the limit: never for a basis as well
    # conditioned as cond 10.
    @pytest.mark.parametrize("cond", [10.0, 500.0, 2000.0, 1e5])
    def test_path_decided_by_eigenvector_condition(self, monkeypatch, cond):
        rng = np.random.default_rng(36)
        n = 12
        d = scipy.linalg.block_diag(*[-0.5 * np.eye(2) + (1.0 + k) * J2 for k in range(4)],
                                    np.diag([-1.0, -2.0, -3.0, -4.0]))
        q1, q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
        t = q1 @ np.diag(np.geomspace(1.0, cond, n)) @ q2.T
        a = t @ d @ np.linalg.inv(t)
        svd_cond = np.linalg.cond
        cond_u = svd_cond(np.linalg.eig(a)[1])
        spectral = cond_u <= dynamics._SPECTRAL_COND_LIMIT
        assert spectral == (cond < 1e3)
        calls = []
        monkeypatch.setattr(np.linalg, "cond", lambda x, *args: calls.append(x) or svd_cond(x, *args))
        basis = dynamics._modal_basis(a)[1]
        assert (basis is not None) == spectral
        if cond == 10.0:
            assert calls == []
        if spectral:
            assert abs(svd_cond(basis[1]) / cond_u - 1.0) <= 1e-12
        w, mo = identity_weighting_moments(n, canonical_ccr(n // 2))
        assert DeviationEvaluator(a, rng.standard_normal((n, 2)), w, mo).path == (SPECTRAL if spectral else VAN_LOAN)

    def test_jordan_block_takes_van_loan(self):
        # e^{tA} = e^{-t} [[1, t], [0, 1]]; with B = F = P = I the noise term
        # is int_0^t ||e^{sA}||_F^2 ds = int_0^t e^{-2s} (2 + s^2) ds.
        a = np.array([[-1.0, 1.0], [0.0, -1.0]])
        w, mo = identity_weighting_moments()
        ev = DeviationEvaluator(a, np.eye(2), w, mo)
        assert ev.path == VAN_LOAN
        for t in (0.1, 1.0, 5.0, 30.0):
            e = np.exp(-t)
            sig, noise = ev.terms(t)
            assert abs(sig - (2.0 * (1.0 - e) ** 2 + t * t * e * e)) <= 1e-12
            assert abs(noise - (1.25 - e * e * (1.25 + 0.5 * t + 0.5 * t * t))) <= 1e-12

    def test_zero_system_is_exactly_zero(self):
        w, mo = identity_weighting_moments()
        ev = DeviationEvaluator(np.zeros((2, 2)), np.zeros((2, 2)), w, mo)
        assert ev.path == SPECTRAL
        for t in (0.0, 1e-6, 1.0, 1e6):
            assert ev.terms(t) == (0.0, 0.0)

    def test_marginal_noise_grows_at_asymptotic_rate(self):
        # The rotations have eigenvalues +-i, +-2i with real parts exactly 0,
        # so Z = lam_i + conj(lam_j) vanishes on the diagonal and those terms
        # integrate to exactly t; the rest oscillates at frequencies >= 1 and
        # stays within 2 n ||B B^T||_F.
        rng = np.random.default_rng(33)
        a = scipy.linalg.block_diag(J2, 2.0 * J2)
        b = rng.standard_normal((4, 2))
        w, mo = identity_weighting_moments(4, canonical_ccr(2))
        rate = float(np.trace(asymptotic_rate(a, b).real))
        ev = DeviationEvaluator(a, b, w, mo)
        bound = 2.0 * 4 * np.linalg.norm(b @ b.T)
        for t in (1e2, 1e4, 1e6, 1e8):
            _, noise = ev.terms(t)
            assert abs(noise - rate * t) <= bound

    def test_negative_time_rejected(self):
        a, b = single_mode_system()
        w, mo = identity_weighting_moments()
        with pytest.raises(PreconditionError):
            DeviationEvaluator(a, b, w, mo).terms(-1.0)

    def test_overflowing_frequency_sum_is_silent(self):
        # A = 1e308 J2: Z = +-2e308 i overflows off the diagonal, so M is 0
        # there, yet Delta stays finite: e^{tA} is a rotation by 1e308 t, so
        # signal = ||e^{tA} - I||_F^2 = 4 - 4 cos(1e308 t) lies in [0, 8] (the
        # angle itself is lost to rounding) and noise = ||J2||_F^2 t = 2 t.
        # The set-up must not leak numpy's overflow warning.
        w, mo = identity_weighting_moments()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sig, noise = DeviationEvaluator(1e308 * J2, J2, w, mo).terms(1.0)
        assert 0.0 <= sig <= 8.0
        assert abs(noise - 2.0) <= 1e-12

    # Each point takes one expm1 value per conjugate pair of eigenvalues (all
    # 16 are pairs here) and per real one, plus one per conjugate pair of
    # near-resonant entries: the 16 diagonal pairs when the spectrum is
    # imaginary, and two more for a near-degenerate pair.  O(n^2) calls, or
    # one per eigenvalue or per entry, would fail.
    @pytest.mark.parametrize("kind, values", [
        ("hurwitz", 16),
        ("marginal", 16 + 16),
        ("near-degenerate", 16 + 16 + 2),
    ])
    def test_expm1_values_per_point(self, monkeypatch, kind, values):
        rng = np.random.default_rng(34)
        params, real = random_damped_realization(rng, 16)
        if kind == "hurwitz":
            a, b = real.a, real.b
        else:
            a, b = random_marginal_modes(rng, 16, near_gap=1e-4 if kind == "near-degenerate" else None)
        w = Weighting(rng.standard_normal((16, 32)))
        ev = DeviationEvaluator(a, b, w, MomentData(random_spd(rng, 32), params.ccr))
        counted = []
        expm1 = np.expm1
        monkeypatch.setattr(np, "expm1", lambda x: counted.append(np.size(x)) or expm1(x))
        for t in (1e-3, 1.0, 1e3):
            counted.clear()
            ev.terms(t)
            assert sum(counted) == values

    # The spectral path reads theta(t) from real expm1, sin and cos.  The
    # reference is numpy's complex expm1 of one mode per pair (Im lam > 0) and
    # per real eigenvalue: theta holds Re and Im of each pair's value, then the
    # real values; they must agree to 1e-14 relative, or 1e-16 absolute where
    # e^{alpha t} has decayed to ~0 (|theta| <= 2 for Re lam <= 0).  The Van
    # Loan path loops _propagate over the times; its reference is
    # van_loan_terms.  A single time is a one-element array, bit for bit.
    @pytest.mark.parametrize("kind", ["hurwitz", "marginal-gap-1e-4", "mixed", "van-loan"])
    def test_array_of_times_matches_points(self, monkeypatch, kind):
        rng = np.random.default_rng(35)
        params, real = random_damped_realization(rng, 16)
        a, b = real.a, real.b
        if kind == "marginal-gap-1e-4":
            a, b = random_marginal_modes(rng, 16, near_gap=1e-4)
        if kind == "mixed":
            a, b = modal_system(rng, 32, 8, zero=True)
        if kind == "van-loan":
            monkeypatch.setattr(dynamics, "_SPECTRAL_COND_LIMIT", 0.0)
        w = Weighting(rng.standard_normal((16, 32)))
        mo = MomentData(random_spd(rng, 32), params.ccr)
        ev = DeviationEvaluator(a, b, w, mo)
        assert ev.path == (VAN_LOAN if kind == "van-loan" else SPECTRAL)
        if kind == "marginal-gap-1e-4":
            assert ev._z_near.size == 16 + 2
        times = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 40)])
        sig, noise = ev.terms(times)
        assert sig.shape == noise.shape == times.shape
        if kind == "van-loan":
            for k, t in enumerate(times):
                want = van_loan_terms(a, b, w, mo, t)
                assert abs(sig[k] - want[0]) <= 1e-14 * abs(want[0])
                assert abs(noise[k] - want[1]) <= 1e-14 * abs(want[1])
        else:
            pairs = len(ev._half_freq)
            d = np.expm1(np.multiply.outer(times, np.concatenate([ev._lam[0:2 * pairs:2],
                                                                  ev._lam[2 * pairs:]])))
            want = np.hstack([d[:, :pairs, None].view(float).reshape(len(times), -1),
                              d[:, pairs:].real])
            np.testing.assert_allclose(ev._modal_values(times), want, rtol=1e-14, atol=1e-16)
        for t in times:
            assert ev.terms(t) == tuple(x[0] for x in ev.terms(np.array([t])))
        np.testing.assert_array_equal(ev.delta(times), sig + noise)

    def test_array_overflow_names_first_time(self):
        # Delta grows like e^{100 t}: it overflows between t = 7 and t = 8.
        # terms walks with threshold inf, and inf <= inf: scan must stop at
        # a Delta of +inf by itself.
        w, mo = identity_weighting_moments()
        ev = DeviationEvaluator(50.0 * np.eye(2), 0.1 * np.eye(2), w, mo)
        assert np.all(np.isfinite(ev.terms(np.arange(8.0))))
        with pytest.raises(NumericalError, match="t = 8:"):
            ev.terms(np.arange(12.0))

    # Brent's steps read _delta_at, which names its time as the scan does:
    # A = 50 I, B = 0, F = 2 I, P = I overflows before t = 8.
    def test_delta_at_overflow_names_the_time(self):
        _, mo = identity_weighting_moments()
        ev = DeviationEvaluator(50.0 * np.eye(2), np.zeros((2, 2)), Weighting(2.0 * np.eye(2)), mo)
        assert math.isfinite(ev._delta_at(7.0))
        with pytest.raises(NumericalError, match="deviation not finite at t = 8:"):
            ev._delta_at(8.0)

    # The Van Loan path forms e^{tA} - I by subtracting I from the block
    # exponential, so the signal term cancels to ~eps / (t ||A||) relative at
    # small t.  On the defective A = [[-1, 1], [0, -1]] with B = 0 and F = P = I,
    # Delta(t) = 2 expm1(-t)^2 + t^2 e^{-2t} exactly; the path reads 1.4e-9
    # relative below it at t = 1e-8 and 2.1e-11 at t = 1e-6.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the Van Loan path takes e^{tA} - I, not an expm1 of the block")
    def test_van_loan_signal_term_at_small_times(self):
        w, mo = identity_weighting_moments()
        ev = DeviationEvaluator(np.array([[-1.0, 1.0], [0.0, -1.0]]), np.zeros((2, 2)), w, mo)
        assert ev.path == VAN_LOAN
        t = np.array([1e-8, 1e-6])
        np.testing.assert_allclose(ev.delta(t), 2.0 * np.expm1(-t) ** 2 + t * t * np.exp(-2.0 * t),
                                   rtol=1e-12, atol=0)

    # terms and delta walk any array through scan: _terms is never handed more
    # than one block, so memory stays O(n _SCAN_BLOCK) for any number of times.
    @pytest.mark.parametrize("kind", ["spectral", "van-loan"])
    def test_array_of_times_evaluated_in_blocks(self, monkeypatch, kind):
        a, b = single_mode_system()
        w, mo = identity_weighting_moments()
        if kind == "van-loan":
            monkeypatch.setattr(dynamics, "_SPECTRAL_COND_LIMIT", 0.0)
        times = np.linspace(0.0, 5.0, 3 * dynamics._SCAN_BLOCK + 5)
        ev = DeviationEvaluator(a, b, w, mo)
        points = np.array([ev.terms(t) for t in times]).T
        sizes = []
        terms = DeviationEvaluator._terms
        monkeypatch.setattr(DeviationEvaluator, "_terms",
                            lambda self, t: sizes.append(np.size(t)) or terms(self, t))
        np.testing.assert_allclose(ev.terms(times), points, rtol=1e-14, atol=0)
        np.testing.assert_allclose(delta(a, b, w, mo, times), points.sum(axis=0), rtol=1e-14, atol=0)
        assert sizes == 2 * ([dynamics._SCAN_BLOCK] * 3 + [5])
        assert ev.path == (VAN_LOAN if kind == "van-loan" else SPECTRAL)
        if kind == "spectral":
            np.testing.assert_allclose(ev.delta(times), closed_form_delta(times), rtol=0, atol=1e-14)

    def test_single_mode_curve(self):
        # Delta on a grid of times, as `oqho delta-curve` reads it: one evaluator, one terms call.
        a, b = single_mode_system()
        w, mo = identity_weighting_moments()
        times = np.linspace(0.0, 5.0, 60)
        ev = DeviationEvaluator(a, b, w, mo)
        sig, noise = ev.terms(times)
        values = ev.delta(times)
        assert values[0] == 0.0
        assert np.all(values >= 0)
        np.testing.assert_allclose(values, sig + noise, atol=1e-14)
        # The noise term integrates a PSD integrand, so it never decreases.
        assert np.all(np.diff(noise) >= -1e-12)

    def test_scan_stops_at_first_point_above_threshold(self):
        # Delta = (1 - x)(3 - x), x = e^{-t}, increases to 3: the walk stops
        # at the first time above 2.5, in its second block, and returns the
        # summands up to it.
        a, b = single_mode_system()
        w, mo = identity_weighting_moments()
        ev = DeviationEvaluator(a, b, w, mo)
        times = np.linspace(0.0, 5.0, 3 * dynamics._SCAN_BLOCK + 5)
        want = int(np.argmax(closed_form_delta(times) > 2.5))
        assert dynamics._SCAN_BLOCK < want < 2 * dynamics._SCAN_BLOCK
        k, sig, noise = ev.scan(times, 2.5)
        assert k == want
        np.testing.assert_array_equal(sig + noise, ev.delta(times)[:k + 1])
        assert ev.scan(times, np.inf)[0] == ev.scan(times, 10.0)[0] == len(times)

    @pytest.mark.parametrize("times", [np.array([0.5, -1.0]), np.array([[0.5, 1.0]]), [np.nan]])
    def test_bad_array_of_times_rejected(self, times):
        a, b = single_mode_system()
        w, mo = identity_weighting_moments()
        with pytest.raises(PreconditionError):
            DeviationEvaluator(a, b, w, mo).terms(times)


# _modal_basis reads _SPECTRAL_COND_LIMIT at each call.
class TestModalBasisMemo:
    # Lowering the limit switches an A already factored to the Van Loan path,
    # and restoring it switches it back.
    def test_cond_limit_switches_path_of_memoized_a(self, monkeypatch):
        a, b, w, mo = spectral_family("mixed", None, 3)
        assert dynamics._modal_basis(a)[1] is not None
        limit = dynamics._SPECTRAL_COND_LIMIT
        monkeypatch.setattr(dynamics, "_SPECTRAL_COND_LIMIT", 0.0)
        assert dynamics._modal_basis(a)[1] is None
        assert DeviationEvaluator(a, b, w, mo).path == VAN_LOAN
        monkeypatch.setattr(dynamics, "_SPECTRAL_COND_LIMIT", limit)
        assert DeviationEvaluator(a, b, w, mo).path == SPECTRAL


# The maps into and out of pair form against dense T and L, block diagonal:
# T has (1, i) / sqrt(2) and (1, -i) / sqrt(2) as the columns of each of the
# k pairs and 1 on each of the n - 2k real eigenvalues, L is sqrt(2) T on the
# pairs and 1 on the real eigenvalues.  The cases have no pair, only pairs,
# and an odd number of real eigenvalues.
@pytest.mark.parametrize("n, k", [(6, 0), (2, 1), (7, 2), (33, 10), (100, 50)])
def test_pair_maps_match_dense_transform(n, k):
    rng = np.random.default_rng(n + k)
    t = np.eye(n, dtype=complex)
    for j in range(0, 2 * k, 2):
        t[j:j + 2, j:j + 2] = np.array([[1.0, 1.0], [1.0j, -1.0j]]) / np.sqrt(2.0)
    kept = np.r_[0:2 * k:2, 2 * k:n]
    x = rng.standard_normal((n, n))
    want = (t.conj().T @ x @ t)[kept]
    assert np.linalg.norm(dynamics._to_pairs(x, k) - want) <= 1e-14 * np.linalg.norm(want)
    # A full Y with Y[pi i, pi j] = conj Y[i, j], pi swapping the two
    # eigenvalues of each pair, is held by its kept rows.
    pi = np.r_[np.arange(2 * k).reshape(-1, 2)[:, ::-1].ravel(), 2 * k:n]
    r = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    y = r + r[pi][:, pi].conj()
    l = t.copy()
    l[:2 * k] *= np.sqrt(2.0)
    want = l @ y @ l.conj().T
    assert np.linalg.norm(want.imag) <= 1e-14 * np.linalg.norm(want)
    assert np.linalg.norm(dynamics._from_pairs(y[kept], k) - want.real) <= 1e-14 * np.linalg.norm(want)


# Times follow the matrix rule (numerics._as_real): input that is not real
# numbers is a ValidationError, more than one dimension or a negative, nan or
# infinite time a PreconditionError.  Each call runs under warnings-as-errors, where
# numpy's ComplexWarning would otherwise drop an imaginary part.
BAD_TIMES = {
    "text": (ValidationError, ["1.5"]),
    "complex": (ValidationError, np.array([1.0 + 2.0j])),
    "none": (ValidationError, None),
    "ragged": (ValidationError, [[1.0], [1.0, 2.0]]),
    "2-d": (PreconditionError, [[0.5, 1.0]]),
    "negative": (PreconditionError, [0.5, -1.0]),
    "nan": (PreconditionError, [np.nan]),
    "inf": (PreconditionError, [1.0, np.inf]),
}
TIME_READERS = {
    "scan": lambda a, b, w, mo, t: DeviationEvaluator(a, b, w, mo).scan(t),
    "terms": lambda a, b, w, mo, t: DeviationEvaluator(a, b, w, mo).terms(t),
    "DeviationEvaluator.delta": lambda a, b, w, mo, t: DeviationEvaluator(a, b, w, mo).delta(t),
    "dynamics.delta": delta,
    "gramian": lambda a, b, w, mo, t: gramian(a, b, t),
}


@pytest.mark.parametrize("entry, case", [(e, c) for e in TIME_READERS for c in BAD_TIMES])
def test_bad_times_raise_typed_error(entry, case):
    error, times = BAD_TIMES[case]
    w, mo = identity_weighting_moments()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            TIME_READERS[entry](*single_mode_system(), w, mo, times)


def test_curve_of_one_time():
    # A number is one time, for terms as for scan: a pair of floats.
    a, b = single_mode_system()
    w, mo = identity_weighting_moments()
    ev = DeviationEvaluator(a, b, w, mo)
    _, sig, noise = ev.scan(1.0)
    assert ev.terms(1.0) == (sig[0], noise[0])
    assert all(type(x) is float for x in ev.terms(1.0))


# t = inf is a PreconditionError on every path, Hurwitz or not: the limit is
# hurwitz_limit's, and a marginal A has none.
@pytest.mark.parametrize("a, path", [(-np.eye(2), SPECTRAL), (np.array([[-1.0, 1.0], [0.0, -1.0]]), VAN_LOAN),
                                     (J2, SPECTRAL)], ids=["spectral", "van-loan", "marginal"])
def test_infinite_time_is_precondition_error(a, path):
    w, mo = identity_weighting_moments()
    ev = DeviationEvaluator(a, J2, w, mo)
    assert ev.path == path
    for call in (lambda: delta(a, J2, w, mo, np.inf), lambda: gramian(a, J2, np.inf),
                 lambda: ev.terms(np.inf)):
        with pytest.raises(PreconditionError, match="finite"):
            call()


@pytest.mark.parametrize("t", [[1.0, 2.0], np.array([])])
def test_gramian_takes_one_time(t):
    with pytest.raises(PreconditionError, match="one time"):
        gramian(*single_mode_system(), t)
    np.testing.assert_array_equal(gramian(*single_mode_system(), [1.0]), gramian(*single_mode_system(), 1.0))


# Each input breaks the single-mode system (A = -I, B = J2, F = P = I) in one
# way; every entry point of the Delta layer must raise the typed error, not
# numpy's ValueError from a matmul or a nan that reaches a later check.
BAD_INPUTS = {
    "b-rows": (DimensionError, {"b": np.ones((3, 2))}),
    "b-vector": (DimensionError, {"b": np.ones(2)}),
    "a-order": (DimensionError, {"a": -np.eye(4), "b": np.ones((4, 2))}),
    "a-not-square": (DimensionError, {"a": np.ones((2, 3))}),
    "f-columns": (DimensionError, {"f": np.eye(2, 4)}),
    "a-nan": (ValidationError, {"a": np.full((2, 2), np.nan)}),
    "b-inf": (ValidationError, {"b": np.array([[np.inf, 0.0], [0.0, 1.0]])}),
}

DELTA_LAYER = {
    "DeviationEvaluator": DeviationEvaluator,
    "delta": lambda a, b, w, mo: delta(a, b, w, mo, 1.0),
    "decoherence_time": lambda a, b, w, mo: decoherence_time((a, b), w, mo, 0.01),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
@pytest.mark.parametrize("entry", DELTA_LAYER)
def test_bad_system_raises_typed_error(entry, case):
    error, broken = BAD_INPUTS[case]
    a, b = single_mode_system()
    inputs = {"a": a, "b": b, "f": np.eye(2)} | broken
    w, mo = Weighting(inputs["f"]), MomentData(np.eye(2), THETA1)
    with pytest.raises(error):
        DELTA_LAYER[entry](inputs["a"], inputs["b"], w, mo)


# The rest of the Delta layer, with the cases that break an input it reads:
# tau_prime reads no A, gramian and asymptotic_rate no F and no P.
AB_CASES = ["b-rows", "b-vector", "a-not-square", "a-nan", "b-inf"]
REST_OF_LAYER = {
    "tau_prime": (lambda a, b, w, mo: tau_prime(b, w, mo),
                  ["b-rows", "b-vector", "a-order", "f-columns", "b-inf"]),
    "tau_second": (lambda a, b, w, mo: tau_second((a, b), w, mo), list(BAD_INPUTS)),
    "tau_hat": (lambda a, b, w, mo: tau_hat((a, b), w, mo, 0.01), list(BAD_INPUTS)),
    "delta_derivatives": (delta_derivatives, list(BAD_INPUTS)),
    "hurwitz_limit": (hurwitz_limit, list(BAD_INPUTS)),
    "gramian": (lambda a, b, w, mo: gramian(a, b, 1.0), AB_CASES),
    "asymptotic_rate": (lambda a, b, w, mo: asymptotic_rate(a, b), AB_CASES),
}


@pytest.mark.parametrize("entry, case", [(entry, case) for entry, (_, cases) in REST_OF_LAYER.items()
                                         for case in cases])
def test_rest_of_layer_raises_typed_error(entry, case):
    error, broken = BAD_INPUTS[case]
    a, b = single_mode_system()
    inputs = {"a": a, "b": b, "f": np.eye(2)} | broken
    w, mo = Weighting(inputs["f"]), MomentData(np.eye(2), THETA1)
    with pytest.raises(error):
        REST_OF_LAYER[entry][0](inputs["a"], inputs["b"], w, mo)


def test_time_scale_of_overflowing_norm():
    # Every entry is finite, but ||A||_F = 3e308 is not.
    with pytest.raises(NumericalError):
        time_scale(np.full((2, 2), 1.5e308))


class TestDeviationCurve:
    def test_evaluated_in_blocks(self, monkeypatch):
        # The curve as `oqho delta-curve` reads it, one terms call on more
        # than three blocks of times: _terms must never be handed more than
        # one block, so memory stays O(n _SCAN_BLOCK) for any grid.
        a, b = single_mode_system()
        w, mo = identity_weighting_moments()
        times = np.linspace(0.0, 5.0, 3 * dynamics._SCAN_BLOCK + 5)
        sizes = []
        terms = DeviationEvaluator._terms
        monkeypatch.setattr(DeviationEvaluator, "_terms",
                            lambda self, t: sizes.append(np.size(t)) or terms(self, t))
        sig, noise = DeviationEvaluator(a, b, w, mo).terms(times)
        assert len(sizes) == 4
        assert max(sizes) <= dynamics._SCAN_BLOCK
        assert sum(sizes) == len(times)
        np.testing.assert_allclose(sig + noise, closed_form_delta(times), rtol=0, atol=1e-14)


class TestDefaultTimeGrid:
    def test_default_grid(self):
        times = default_time_grid(-np.eye(2))
        assert len(times) == 400
        assert np.all(np.diff(times) > 0)

    @pytest.mark.parametrize("points", [1, 2, 400])
    def test_default_grid_ends_at_horizon(self, points):
        # np.geomspace of one point returns its start, 1e-4 t_ref.
        times = default_time_grid(-np.eye(2), t_ref=5.0, points=points)
        assert len(times) == points
        assert times[-1] == 5.0
        if points > 1:
            np.testing.assert_array_equal(times, np.geomspace(5e-4, 5.0, points))


# The a-priori bound behind decoherence_time's skipped grid prefix.  It is
# Delta itself for A = 50 I, B = 0, F = 2 I, P = I (alpha and phi are then
# exact norms) and for A = 0, where Delta = t ||F B||^2, so Delta may exceed
# it by rounding.  The Van Loan path forms e^{tA} - I, which cancels to
# ~eps / (t ||A||) relative at small t (3e-10 at t = 1e-8, A = 50 I), so
# 1e-9 relative is allowed.
BOUND_SYSTEMS = ("hurwitz", "marginal", "unstable", "unstable-noiseless", "diffusion", "few-rows",
                 "defective")


def bound_system(name):
    """(A, B, Weighting, MomentData) of one of BOUND_SYSTEMS, n = 8 (2 for defective)."""
    if name == "defective":
        return np.array([[-1.0, 1.0], [0.0, -1.0]]), np.eye(2), *identity_weighting_moments()
    rng = np.random.default_rng(33)
    params, real = random_damped_realization(rng, 4)
    a, b, n = real.a, real.b, len(real.a)
    w, mo = Weighting(rng.standard_normal((n, n))), MomentData(random_spd(rng, n), params.ccr)
    if name == "marginal":
        a, b = random_marginal_modes(rng, 4)
    elif name == "unstable":
        a = 50.0 * np.eye(n)
    elif name == "unstable-noiseless":
        a, b, w, mo = 50.0 * np.eye(n), np.zeros((n, n)), Weighting(2.0 * np.eye(n)), MomentData(np.eye(n), params.ccr)
    elif name == "diffusion":
        a = np.zeros((n, n))
    elif name == "few-rows":
        w = Weighting(rng.standard_normal((2, n)))
    return a, b, w, mo


def random_bound_system(kind, nu, rng):
    """(A, B, Weighting, MomentData) of a physically realizable system of
    nu modes: Hurwitz (random_damped_realization), marginal (rotations
    through a near-identity similarity, random_marginal_modes) or defective
    (energy r u u^T and coupling c I2 per mode: A = J R - c^2 I has the
    nilpotent part r J u u^T)."""
    n = 2 * nu
    params, real = random_damped_realization(rng, nu)
    a, b = real.a, real.b
    if kind == "marginal":
        a, b = random_marginal_modes(rng, nu)
    elif kind == "defective":
        u = rng.standard_normal((nu, 2))
        u /= np.linalg.norm(u, axis=1)[:, None]
        energy = scipy.linalg.block_diag(*[r * np.outer(x, x) for r, x in zip(rng.uniform(0.5, 2.0, nu), u)])
        coupling = np.kron(np.diag(rng.uniform(0.5, 1.5, nu)), np.eye(2))
        real = build_realization(OqhoParams(ccr=params.ccr, energy=energy, coupling=coupling, selector=np.eye(n)))
        a, b = real.a, real.b
    return a, b, Weighting(rng.standard_normal((n, n))), MomentData(random_spd(rng, n), params.ccr)


class TestDeltaBound:
    @pytest.mark.parametrize("van_loan", [False, True])
    @pytest.mark.parametrize("name", BOUND_SYSTEMS)
    def test_bound_holds_and_grows(self, monkeypatch, name, van_loan):
        a, b, w, mo = bound_system(name)
        if van_loan:
            monkeypatch.setattr(dynamics, "_SPECTRAL_COND_LIMIT", 0.0)
        times = np.unique(np.concatenate([np.geomspace(1e-8, 20.0, 400), np.linspace(0.0, 20.0, 401)]))
        bound = dynamics._delta_bound(a, b, w.f, mo.p, dynamics._dot_delta(w.f, b), times)
        finite = np.isfinite(bound)
        assert finite.sum() >= 300
        assert np.all(finite[:finite.sum()])  # it overflows only past every finite value
        times, bound = times[finite], bound[finite]
        ev = DeviationEvaluator(a, b, w, mo)
        assert ev.path == (VAN_LOAN if van_loan or name == "defective" else SPECTRAL)
        d = ev.delta(times)
        assert np.all(d <= bound * (1.0 + 1e-9)), times[d > bound * (1.0 + 1e-9)]
        assert np.all(np.diff(bound) >= 0.0)

    def test_overflow_is_not_finite(self):
        # A = 50 I, B = 0: the bound overflows from t ~ 7.1 on, quietly, to
        # inf or, where 0 ||B||_F meets expm1 = inf, nan.
        a, b, w, mo = bound_system("unstable-noiseless")
        bound = dynamics._delta_bound(a, b, w.f, mo.p, 0.0, np.array([7.0, 7.2, 1e300]))
        assert np.isfinite(bound[0]) and not np.isfinite(bound[1:]).any()

    # (s A, sqrt(s) b B, c F, p P) has Delta(t) = c^2 (p signal(s t) + b^2 noise(s t)),
    # with the terms of (A, B, F, P), so the bound is checked at scales where a
    # product of the norms in it, taken factor by factor, would under- or overflow.
    # On the unstable system ||F e^{tA} B||_F grows, so the noise term's bound
    # needs its ||B||_F part.
    @pytest.mark.parametrize("name, s, b, c, p", [
        ("hurwitz", 1e-200, 1.0, 1.0, 1.0),  # ||A||_1 ||A||_inf ~ 1e-400
        ("hurwitz", 1.0, 1e125, 1e-200, 1e250),  # ||F||_1 ||F||_inf ~ 1e-400
        ("unstable", 1.0, 1e-200, 1e200, 0.0),  # ||B||_F^2 ~ 1e-400, ||F||_1 ||F||_inf ~ 1e400
        ("hurwitz", 1e-300, 1e-50, 1.0, 0.0),  # ||F B||_F^2 ~ 1e-400 underflows to dot = 0, at t ~ 1e300
    ])
    def test_bound_holds_at_extreme_scales(self, name, s, b, c, p):
        a0, b0, w, mo = bound_system(name)
        times = np.unique(np.concatenate([np.geomspace(1e-8, 6.0, 400), np.linspace(0.0, 6.0, 401)]))
        sig, noise = DeviationEvaluator(a0, b0, w, mo).terms(times)  # finite up to t = 7 at A = 50 I
        want = c * (c * p) * sig + (c * b) ** 2 * noise
        bs, fs = np.sqrt(s) * b * b0, c * w.f
        bound = dynamics._delta_bound(s * a0, bs, fs, p * mo.p, dynamics._dot_delta(fs, bs), times / s)
        assert np.isfinite(bound).all()
        assert np.all(want <= bound * (1.0 + 1e-9))
        assert np.all(np.diff(bound) >= 0.0)

    # The first Taylor coefficients of the bound are exact, so as t -> 0 it is
    # t ||F B||_F^2 (1 + O(alpha t)), as Delta is: within 1e-3 of it at
    # alpha t = 1e-6 wherever F B != 0.
    @pytest.mark.parametrize("name", [x for x in BOUND_SYSTEMS if x != "unstable-noiseless"])
    def test_bound_meets_delta_at_leading_order(self, name):
        a, b, w, mo = bound_system(name)
        alpha = dynamics._norm2_bound(a)
        t = np.array([1e-6 / alpha if alpha else 1e-6])
        bound = dynamics._delta_bound(a, b, w.f, mo.p, dynamics._dot_delta(w.f, b), t)[0]
        d = DeviationEvaluator(a, b, w, mo).delta(t)[0]
        assert d <= bound * (1.0 + 1e-9)
        assert bound <= d * (1.0 + 1e-3)

    # A = 50 I, F = 2 I, P = I and B = b I: e^{tA} = e^{50 t} I, and every term
    # of its series is bounded without loss, so both roots are exact:
    # bound = 4 n (expm1(50 t)^2 + t b^2 e^{100 t}), which is Delta at b = 0.
    # To rounding and to alpha's: sqrt(50) sqrt(50) is 50 (1 + ~1e-16), which
    # moves e^{50 t} by ~1e-16 50 t relative (~7e-14 at t = 7).
    @pytest.mark.parametrize("b", [0.0, 0.5])
    def test_bound_is_exact_on_a_scalar_system(self, b):
        n = 8
        a, bb = 50.0 * np.eye(n), b * np.eye(n)
        w, mo = Weighting(2.0 * np.eye(n)), MomentData(np.eye(n), canonical_ccr(n // 2))
        times = np.unique(np.concatenate([np.geomspace(1e-8, 7.0, 300), np.linspace(0.0, 7.0, 201)]))
        bound = dynamics._delta_bound(a, bb, w.f, mo.p, dynamics._dot_delta(w.f, bb), times)
        want = 4.0 * n * (np.expm1(50.0 * times) ** 2 + b * b * times * np.exp(100.0 * times))
        np.testing.assert_allclose(bound, want, rtol=1e-12, atol=0)
        if not b:
            np.testing.assert_allclose(DeviationEvaluator(a, bb, w, mo).delta(times), want, rtol=1e-12, atol=0)

    # T_4(x) = sum_{j >= 4} x^j / j! against exact rational sums, and
    # nondecreasing between adjacent floats, where its two forms meet (x = 1)
    # and where expm1(x) minus the first terms rounds down (near x = 1.5).
    def test_taylor_tail(self):
        def exact(x):
            term, total, j = Fraction(1), Fraction(0), 0
            while j < 4 or term > total / 10**20:
                j += 1
                term = term * Fraction(x) / j
                total += term if j >= 4 else 0
            return float(total)

        x = np.array([0.0, 1e-300, 1e-8, 1e-3, 0.5, 1.0, np.nextafter(1.0, 2.0), 1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 40.0])
        np.testing.assert_allclose(dynamics._taylor_tail(x, 4), [exact(v) for v in x], rtol=1e-14, atol=0)
        for c in (1.0, 1.5, 2.0):
            x = c + np.arange(-1000, 1000) * np.spacing(c)
            assert np.all(np.diff(dynamics._taylor_tail(x, 4)) >= 0.0)

    # Small realizable systems of each kind the bound must cover, at
    # log-uniform scales of A, B, F and P (each over 1e-60 .. 1e60), checked
    # as the extreme scales above are: Delta(t) of (s A, sqrt(s) b B, c F, p P)
    # is c^2 (p signal(s t) + b^2 noise(s t)).
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["hurwitz", "marginal", "defective"]), nu=st.integers(1, 3),
           seed=st.integers(0, 2**16), exponents=st.tuples(*[st.floats(-60.0, 60.0)] * 4))
    def test_bound_holds_on_random_systems(self, kind, nu, seed, exponents):
        a0, b0, w, mo = random_bound_system(kind, nu, np.random.default_rng(seed))
        s, b, c, p = 10.0 ** np.array(exponents)
        alpha = dynamics._norm2_bound(a0)
        times = np.unique(np.concatenate([np.geomspace(1e-8, 30.0, 200), np.linspace(0.0, 30.0, 101)])) / alpha
        ev = DeviationEvaluator(a0, b0, w, mo)
        assert ev.path == (VAN_LOAN if kind == "defective" else SPECTRAL)
        sig, noise = ev.terms(times)
        want = c * (c * p) * sig + (c * b) ** 2 * noise
        bs, fs = np.sqrt(s) * b * b0, c * w.f
        bound = dynamics._delta_bound(s * a0, bs, fs, p * mo.p, dynamics._dot_delta(fs, bs), times / s)
        assert np.isfinite(bound).all()
        assert np.all(want <= bound * (1.0 + 1e-9)), times[want > bound * (1.0 + 1e-9)]
        assert np.all(np.diff(bound) >= 0.0)
