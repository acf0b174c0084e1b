import warnings

import numpy as np
import pytest

from oqho_memory.errors import DimensionError, NumericalError, ValidationError
from oqho_memory.model import (
    HURWITZ,
    J2,
    MARGINALLY_STABLE,
    CcrMatrix,
    OqhoParams,
    Realization,
    build_realization,
    canonical_ccr,
    check_physical_realizability,
    classify_spectrum,
    ito_j,
)

from oracles import random_params


def single_mode_params(energy=None, coupling=None):
    theta = canonical_ccr(1)
    if energy is None:
        energy = np.zeros((2, 2))
    if coupling is None:
        coupling = np.eye(2)
    return OqhoParams(ccr=theta, energy=energy, coupling=coupling, selector=np.eye(2))


class TestBuildRealization:
    def test_single_mode(self):
        # Theta = J2/2, R = 0, N = I: A = J2^2 = -I, B = J2, C = 2 J2.
        real = build_realization(single_mode_params())
        np.testing.assert_allclose(real.a, -np.eye(2), atol=1e-15)
        np.testing.assert_allclose(real.b, J2, atol=1e-15)
        np.testing.assert_allclose(real.c, 2 * J2, atol=1e-15)

    def test_decoupled_has_zero_b_c(self):
        rng = np.random.default_rng(0)
        theta = canonical_ccr(2)
        r = rng.standard_normal((4, 4))
        r = 0.5 * (r + r.T)
        params = OqhoParams(ccr=theta, energy=r, coupling=np.zeros((2, 4)),
                            selector=np.eye(2))
        real = build_realization(params)
        assert np.all(real.b == 0)
        assert np.all(real.c == 0)
        assert np.all(real.a_tilde == 0)
        np.testing.assert_allclose(real.a, 2 * theta.theta @ r, atol=1e-15)

    def test_identity_energy_gives_symplectic_a(self):
        params = single_mode_params(energy=np.eye(2), coupling=np.zeros((2, 2)))
        real = build_realization(params)
        np.testing.assert_allclose(real.a, J2, atol=1e-15)

    def test_hamiltonian_split(self):
        rng = np.random.default_rng(1)
        params = random_params(rng, 2, 4)
        real = build_realization(params)
        np.testing.assert_allclose(real.a, real.a0 + real.a_tilde, atol=1e-14)

    def test_dimension_mismatch_raises(self):
        theta = canonical_ccr(1)
        with pytest.raises(DimensionError):
            OqhoParams(ccr=theta, energy=np.zeros((4, 4)), coupling=np.eye(2),
                       selector=np.eye(2))
        with pytest.raises(DimensionError):
            OqhoParams(ccr=theta, energy=np.zeros((2, 2)),
                       coupling=np.zeros((2, 4)), selector=np.eye(2))

    def test_overflow_raises(self):
        with warnings.catch_warnings(), pytest.raises(NumericalError):
            warnings.simplefilter("error")
            build_realization(single_mode_params(coupling=np.diag([1e200, 1e200])))


class TestRealization:
    # A and B are read by model._system, as every (A, B) pair is, and copied.
    def test_reads_nested_lists_and_keeps_copies(self):
        b = np.eye(2)
        real = Realization(a=[[0, 1], [-1, 0]], b=b, c=None, d=None)
        b[0, 0] = 5.0
        assert (real.n, real.m) == (2, 2)
        assert real.a.dtype == np.float64
        np.testing.assert_array_equal(real.a, J2)
        np.testing.assert_array_equal(real.b, np.eye(2))

    @pytest.mark.parametrize("a, b, error", [
        (None, np.eye(2), ValidationError),
        (np.eye(2), None, ValidationError),
        ("A", np.eye(2), ValidationError),
        (np.eye(2), np.array([[0.0, np.inf], [0.0, 1.0]]), ValidationError),
        (1.0, np.eye(2), DimensionError),  # a number where a matrix belongs
        (np.ones((2, 3)), np.eye(2), DimensionError),
        (np.eye(2), np.eye(3), DimensionError),
    ])
    def test_malformed_a_or_b_is_typed_error(self, a, b, error):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                Realization(a, b, None, None)


class TestValidation:
    def test_energy_not_symmetric(self):
        theta = canonical_ccr(1)
        with pytest.raises(ValidationError, match="not symmetric"):
            OqhoParams(ccr=theta, energy=np.array([[0.0, 1.0], [0.0, 0.0]]),
                       coupling=np.eye(2), selector=np.eye(2))

    def test_singular_ccr(self):
        with pytest.raises(ValidationError, match="singular"):
            CcrMatrix(np.zeros((2, 2)))

    def test_odd_order_ccr(self):
        with pytest.raises((ValidationError, DimensionError)):
            CcrMatrix(np.zeros((3, 3)))

    def test_non_antisymmetric_ccr(self):
        with pytest.raises(ValidationError, match="antisymmetric"):
            CcrMatrix(np.eye(2))

    def test_bad_selector(self):
        theta = canonical_ccr(1)
        with pytest.raises(ValidationError):
            OqhoParams(ccr=theta, energy=np.zeros((2, 2)), coupling=np.eye(2),
                       selector=2.0 * np.eye(2))

    # A norm test such as ||R - R^T|| > tol is false for nan, so each
    # validator rejects entries that are not finite before its other tests.
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_ccr_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            CcrMatrix(np.array([[0.0, bad], [-0.5, 0.0]]))

    @pytest.mark.parametrize("field", ["energy", "coupling", "selector"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_params_rejected(self, field, bad):
        matrices = {"energy": np.zeros((2, 2)), "coupling": np.eye(2), "selector": np.eye(2)}
        matrices[field][1, 1] = bad
        with pytest.raises(ValidationError, match="finite"):
            OqhoParams(ccr=canonical_ccr(1), **matrices)

    def test_selector_without_rows_rejected(self):
        # r = 0 is even and <= m; the coupling still has channels, so the
        # selector is the matrix at fault.
        with pytest.raises(ValidationError, match="selector D must have an even number 0 < r <= m of rows, got r=0"):
            OqhoParams(ccr=canonical_ccr(1), energy=np.zeros((2, 2)), coupling=np.eye(2),
                       selector=np.zeros((0, 2)))
        # Without channels the coupling is at fault, not its empty selector.
        with pytest.raises(ValidationError, match="field channels must be even and positive, got 0"):
            OqhoParams(ccr=canonical_ccr(1), energy=np.zeros((2, 2)), coupling=np.zeros((0, 2)),
                       selector=np.zeros((0, 0)))

    def test_selector_must_keep_conjugate_pairs(self):
        # Picking channels 1 and 3 from m=4 mixes two different pairs.
        theta = canonical_ccr(1)
        d = np.eye(4)[[0, 2]]
        with pytest.raises(ValidationError, match="conjugate"):
            OqhoParams(ccr=theta, energy=np.zeros((2, 2)),
                       coupling=np.zeros((4, 2)), selector=d)


class TestPhysicalRealizability:
    def test_constructed_realizations_satisfy_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            nu = rng.choice([1, 2, 3])
            m = rng.choice([2, 4])
            params = random_params(rng, nu, m)
            real = build_realization(params)
            assert check_physical_realizability(real.a, real.b, params.ccr) <= 1e-12

    def test_known_violation_magnitude(self):
        # A = I, B = 0: residual is ||2 Theta|| = ||J2|| = sqrt(2).
        theta = canonical_ccr(1)
        res = check_physical_realizability(np.eye(2), np.zeros((2, 2)), theta)
        assert abs(res - np.sqrt(2)) < 1e-14

    def test_single_mode_matrices(self):
        theta = canonical_ccr(1)
        assert check_physical_realizability(-np.eye(2), J2, theta) <= 1e-12

    def test_coupling_quadratic_form_antisymmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n_mat = rng.standard_normal((4, 6))
            q = n_mat.T @ ito_j(4) @ n_mat
            assert np.linalg.norm(q + q.T) <= 1e-12


class TestClassifySpectrum:
    def test_hurwitz(self):
        spec = classify_spectrum(-np.eye(2))
        assert spec.category == HURWITZ
        assert not spec.on_bisectors

    def test_marginal_symplectic_unit(self):
        spec = classify_spectrum(J2)
        assert spec.category == MARGINALLY_STABLE
        assert spec.on_bisectors
        np.testing.assert_allclose(sorted(spec.eigenvalues.imag), [-1, 1], atol=1e-12)

    def test_isolated_oscillator_frequencies(self):
        # Theta = J2/2, R = diag(1, 4): A = J2 diag(1, 4), eigenvalues +-2i.
        a = J2 @ np.diag([1.0, 4.0])
        spec = classify_spectrum(a)
        assert spec.category == MARGINALLY_STABLE
        np.testing.assert_allclose(np.sort(spec.eigenvalues.imag), [-2, 2], atol=1e-12)
        np.testing.assert_allclose(spec.eigenvalues.real, 0, atol=1e-12)

    def test_definite_energy_isolated_spectrum_imaginary(self):
        # Decoupled oscillator with definite R: purely imaginary spectrum.
        rng = np.random.default_rng(4)
        for _ in range(10):
            nu = rng.choice([1, 2, 3])
            n = 2 * nu
            g = rng.standard_normal((n, n))
            r = g @ g.T + 0.1 * np.eye(n)
            theta = canonical_ccr(nu)
            spec = classify_spectrum(2 * theta.theta @ r)
            assert np.max(np.abs(spec.eigenvalues.real)) <= 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError):
            classify_spectrum(np.array([[bad, 1.0], [-1.0, 0.0]]))

    def test_zero_energy_even_multiplicities(self):
        # R = 0 leaves A = 2 Theta N^T J N; nonzero eigenvalues pair up.
        rng = np.random.default_rng(5)
        for _ in range(10):
            params = random_params(rng, 2, 4)
            params = OqhoParams(ccr=params.ccr, energy=np.zeros((4, 4)),
                                coupling=params.coupling, selector=params.selector)
            real = build_realization(params)
            eigs = classify_spectrum(real.a).eigenvalues
            nonzero = eigs[np.abs(eigs) > 1e-6]
            used = np.zeros(len(nonzero), dtype=bool)
            for i, lam in enumerate(nonzero):
                if used[i]:
                    continue
                close = np.where(~used & (np.abs(nonzero - lam) < 1e-6))[0]
                assert len(close) % 2 == 0, f"odd multiplicity near {lam}"
                used[close] = True
