import warnings

import numpy as np
import pytest

from oqho_memory.errors import (
    InvalidMomentMatrixError,
    NumericalError,
    PreconditionError,
    ResonanceError,
    ValidationError,
)
from oqho_memory.model import J2
from oqho_memory.numerics import (
    eigh_definite,
    matrix_exp,
    solve_lyapunov,
    solve_sylvester,
    solve_symmetric_constrained,
    sqrt_psd,
)

from oracles import (
    kron_min_norm_solve,
    kron_offdiag_operator,
    kron_solve_lyapunov,
    random_spd,
    random_sym,
)


def series_expm(a, t, terms=60):
    """Plain Taylor-series exponential, reference only."""
    acc = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms):
        term = term @ (t * a) / k
        acc = acc + term
    return acc


class TestMatrixExp:
    def test_zero_matrix(self):
        np.testing.assert_allclose(matrix_exp(np.zeros((3, 3)), 5.0), np.eye(3), atol=1e-15)

    def test_planar_rotation(self):
        # e^{t J2} rotates by t; a quarter turn reproduces J2 itself.
        got = matrix_exp(J2, np.pi / 2)
        np.testing.assert_allclose(got, J2, atol=1e-14)
        np.testing.assert_allclose(got, series_expm(J2, np.pi / 2), atol=1e-13)

    def test_diagonal(self):
        np.testing.assert_allclose(matrix_exp(-np.eye(2), 1.0),
                                   np.exp(-1) * np.eye(2), atol=1e-15)

    def test_semigroup(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            a = rng.standard_normal((4, 4))
            a *= 10.0 / np.linalg.norm(a)
            s, t = rng.uniform(0, 5, 2)
            lhs = matrix_exp(a, s + t)
            rhs = matrix_exp(a, s) @ matrix_exp(a, t)
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(lhs)


class TestSolveLyapunov:
    def test_scalar_like(self):
        x = solve_lyapunov(-np.eye(2), np.eye(2))
        np.testing.assert_allclose(x, 0.5 * np.eye(2), atol=1e-13)

    def test_rotation_plus_damping(self):
        # M = -I + J2: the commutator part vanishes at X = I/2.
        x = solve_lyapunov(-np.eye(2) + J2, np.eye(2))
        np.testing.assert_allclose(x, 0.5 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(x, kron_solve_lyapunov(-np.eye(2) + J2, np.eye(2)),
                                   atol=1e-12)

    def test_resonant_spectrum_rejected(self):
        with pytest.raises(ResonanceError):
            solve_lyapunov(J2, np.eye(2))

    def test_matches_kronecker_solve(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = rng.standard_normal((4, 4)) - 2.0 * np.eye(4)
            q = random_sym(rng, 4)
            x = solve_lyapunov(m, q)
            x_ref = kron_solve_lyapunov(m, q)
            assert np.linalg.norm(x - x_ref) <= 1e-9 * max(np.linalg.norm(x_ref), 1.0)
            res = np.linalg.norm(m @ x + x @ m.T + q)
            assert res <= 1e-10 * (np.linalg.norm(q) + np.linalg.norm(m) * np.linalg.norm(x) + 1)
            assert np.linalg.norm(x - x.T) <= 1e-12 * max(np.linalg.norm(x), 1.0)

    def test_non_finite_residual_rejected(self):
        # The solution diag(5e312, 2.5e312) overflows; LAPACK returns a scaled-down
        # X, whose residual ~1e308 I has an infinite norm, as has the bound.
        with pytest.raises(NumericalError):
            solve_lyapunov(-1e-5 * np.diag([1.0, 2.0]), 1e308 * np.eye(2))


def _psd(rng, n, rank):
    g = rng.standard_normal((n, rank))
    return g @ g.T


class TestSolveSylvester:
    def test_identity_coefficients(self):
        # S = -I, P = I on both sides: -2 X + Q = 0.
        q = np.arange(6.0).reshape(2, 3)
        x, res = solve_sylvester(-np.eye(2), np.eye(2), -np.eye(3), np.eye(3), q)
        np.testing.assert_allclose(x, 0.5 * q, atol=1e-14)
        assert res <= 1e-13

    def test_matches_kronecker_solve(self):
        # n1 != n2 and both S singular: the solution is unique only up to
        # V10 Z V20^T, and the minimum-norm one must be returned.
        rng = np.random.default_rng(12)
        n1, n2 = 3, 5
        for _ in range(10):
            s1, s2 = -_psd(rng, n1, 2), -_psd(rng, n2, 3)
            p1, p2 = random_spd(rng, n1), random_spd(rng, n2)
            x0 = rng.standard_normal((n1, n2))
            q = -(s1 @ x0 @ p2 + p1 @ x0 @ s2)
            x, res = solve_sylvester(s1, p1, s2, p2, q)
            x_ref = kron_min_norm_solve(np.kron(s1, p2) + np.kron(p1, s2), q)
            assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
            assert res <= 1e-10 * np.linalg.norm(q)

    def test_indefinite_p_rejected(self):
        with pytest.raises(NumericalError):
            solve_sylvester(-np.eye(2), np.diag([1.0, -1.0]), -np.eye(2), np.eye(2), np.eye(2))

    def test_infinite_residual_rejected(self):
        # S = -P = -1e-200 I gives X = 0.5e400 I, which overflows.
        tiny = 1e-200 * np.eye(2)
        with pytest.raises(NumericalError):
            solve_sylvester(-tiny, tiny, -tiny, tiny, np.eye(2))

    def test_bound_does_not_overflow(self):
        # X = 0.5e-100 I.  The residual (~1e284, rounding) and its bound
        # (~3e290) are finite, although numpy's norm of the residual overflows
        # and so does ||S|| ||P|| = 2e400.
        big = 1e200 * np.eye(2)
        x, res = solve_sylvester(-big, big, -big, big, 1e300 * np.eye(2))
        np.testing.assert_allclose(x, 0.5e-100 * np.eye(2), rtol=1e-15, atol=0.0)
        assert res <= 1e-15 * 1e300

    def test_positive_s_rejected(self):
        # S1 = I, S2 = -I would make lam1 + lam2 = 0 everywhere.
        with pytest.raises(PreconditionError):
            solve_sylvester(np.eye(2), np.eye(2), -np.eye(2), np.eye(2), np.eye(2))


class TestSymmetricConstrained:
    def test_matches_min_norm_oracle(self):
        # op(X) is the (1,2) block of T R P + P R T for R = [[0, X], [X^T, 0]]
        # with T <= 0 and P >= 0 both singular: self-adjoint, negative
        # semidefinite and with a nontrivial kernel, so only the minimum-norm
        # solution is unique.
        rng = np.random.default_rng(13)
        n1, n2 = 3, 4
        for _ in range(5):
            t = -_psd(rng, n1 + n2, 2)
            p = _psd(rng, n1 + n2, 3)
            t11, t12, t22 = t[:n1, :n1], t[:n1, n1:], t[n1:, n1:]
            p11, p12, p22 = p[:n1, :n1], p[:n1, n1:], p[n1:, n1:]

            def op(x):
                return t11 @ x @ p22 + t12 @ x.T @ p12 + p11 @ x @ t22 + p12 @ x.T @ t12

            lhs = kron_offdiag_operator(t, p, n1)
            assert np.max(np.linalg.eigvalsh(0.5 * (lhs + lhs.T))) <= 1e-12 * np.linalg.norm(lhs)
            q = -op(rng.standard_normal((n1, n2)))
            x, res = solve_symmetric_constrained(op, q)
            x_ref = kron_min_norm_solve(lhs, q)
            assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
            assert res <= 1e-10 * np.linalg.norm(q)

    def test_zero_operator_zero_rhs(self):
        x, res = solve_symmetric_constrained(lambda x: np.zeros((2, 2)), np.zeros((2, 2)))
        assert np.all(x == 0)
        assert res == 0

    def test_homogeneous_definite_equation_gives_zero(self):
        # S X P + P X S + 0 = 0 with S < 0, P > 0 has only the zero solution.
        rng = np.random.default_rng(14)
        s = -random_spd(rng, 4)
        p = random_spd(rng, 4)
        x, res = solve_symmetric_constrained(lambda x: s @ x @ p + p @ x @ s, np.zeros((4, 4)))
        assert np.linalg.norm(x) <= 1e-12
        assert res <= 1e-12

    def test_inconsistent_equation_rejected(self):
        with pytest.raises(NumericalError):
            solve_symmetric_constrained(lambda x: np.zeros((2, 2)), np.eye(2))

    # Q and op are scaled to about 1 before the iteration, so no sum of
    # squares over- or underflows: X = Q / c solves -c X + Q = 0, also for a
    # subnormal c.
    @pytest.mark.parametrize("c, scale", [(1.0, 1e160), (1.0, 1e-300), (1e-310, 1e-300)])
    def test_scale_free(self, c, scale):
        x, _ = solve_symmetric_constrained(lambda x: -c * x, scale * np.eye(2))
        np.testing.assert_allclose(x, scale / c * np.eye(2), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("scale", [1e-300, np.nan])
    def test_non_finite_residual_rejected(self, scale):
        # The solution 1e300 / scale overflows (or the operator is nan), so the
        # residual is not finite; a test `residual > bound` lets it through.
        with pytest.raises(NumericalError):
            solve_symmetric_constrained(lambda x: -scale * x, 1e300 * np.eye(2))


class TestEighDefinite:
    def test_simultaneous_diagonalization(self):
        rng = np.random.default_rng(18)
        a, b = random_sym(rng, 4), random_spd(rng, 4)
        lam, v = eigh_definite(a, b)
        np.testing.assert_allclose(v.T @ b @ v, np.eye(4), atol=1e-12)
        np.testing.assert_allclose(v.T @ a @ v, np.diag(lam), atol=1e-12)

    def test_indefinite_b_rejected(self):
        with pytest.raises(NumericalError):
            eigh_definite(np.eye(2), np.diag([1.0, -1.0]))

    # LAPACK reads one triangle: [[1, 2], [0, 1]] against I would give
    # eigenvalues (1, 1) and its transpose (-1, 3).
    @pytest.mark.parametrize("m", [np.array([[1.0, 2.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [2.0, 1.0]])],
                             ids=["upper", "lower"])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_asymmetric_rejected(self, m, side):
        with pytest.raises(PreconditionError, match="symmetric"):
            eigh_definite(m, np.eye(2)) if side == "a" else eigh_definite(np.eye(2), m + np.eye(2))

    # A non-finite argument is a ValidationError, as in every kernel; an
    # overflowed Theta Sigma Theta is a NumericalError where design forms it.
    @pytest.mark.parametrize("a, b", [
        (np.diag([np.inf, 1.0]), np.eye(2)),
        (np.eye(2), np.diag([1.0, np.nan])),
    ])
    def test_non_finite_rejected(self, a, b):
        with pytest.raises(ValidationError, match="must be finite"):
            eigh_definite(a, b)


class TestSqrtPsd:
    def test_identity(self):
        np.testing.assert_allclose(sqrt_psd(np.eye(3)), np.eye(3), atol=1e-15)

    def test_diagonal(self):
        np.testing.assert_allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]),
                                   atol=1e-14)

    def test_reconstruction(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            g = rng.standard_normal((5, 5))
            p = g.T @ g
            s = sqrt_psd(p)
            assert np.linalg.norm(s @ s - p) <= 1e-10 * max(np.linalg.norm(p), 1.0)
            assert np.min(np.linalg.eigvalsh(s)) >= -1e-12

    def test_indefinite_rejected(self):
        with pytest.raises(InvalidMomentMatrixError):
            sqrt_psd(np.diag([1.0, -1.0]))

    def test_asymmetric_rejected_when_norm_overflows(self):
        # ||P|| = inf must not make the symmetry bound inf.
        with pytest.raises(InvalidMomentMatrixError, match="not symmetric"):
            sqrt_psd(np.array([[1e308, 1e300], [0.0, 1e308]]))

    def test_huge_entries_do_not_overflow(self):
        # 0.5 (P + P^T) would overflow; sqrt(diag(1e308, 1e308)) = 1e154 I.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            s = sqrt_psd(np.diag([1e308, 1e308]))
        np.testing.assert_allclose(s, 1e154 * np.eye(2), rtol=1e-15, atol=0.0)
