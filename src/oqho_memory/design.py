"""Optimal energy matrix for a fixed coupling (Theorem-1-style stationarity).

For fixed coupling N, the quadratic coefficient ddot(Delta) of the
deviation is convex in the symmetric energy matrix R, and R maximizes the
quadratic decoherence-time approximation iff

    L(R) + K = 0,  L(R) = Theta Sigma Theta R P + P R Theta Sigma Theta,
    K = K(Atilde) = (1/2) sym(Theta Sigma (B B^T + 2 Atilde P)),

B and Atilde from model.build_realization.  k_matrix is the one formula for
K: the gradient of ddot(Delta) in R is -8 K(A), and the zero-Hamiltonian
residual, which vanishes iff R = 0 is optimal, is 4 ||K(Atilde)||.

R* and R12* solve it restricted to a subspace S of symmetric matrices,
P_S(L(X) + Q) = 0, by one solver, _stationary_point.  On every symmetric
matrix (R*, Q = K) it is the congruence equation of numerics.solve_sylvester
with the pair (Theta Sigma Theta, P) on both sides, solved for every
Sigma >= 0 by one simultaneous diagonalization at O(n^3) cost.  Admissible
moments force P > 0; when Sigma is singular the solution is unique only up
to the kernel of Theta Sigma Theta, and the minimum-norm solution is returned.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import _weighted_trace, delta_derivatives
from .errors import NumericalError, PreconditionError
from .model import _system, build_realization, OqhoParams
from .numerics import _as_finite, _as_matrix, _guarded, _norm, solve_sylvester, solve_symmetric_constrained

__all__ = [
    "EnergyOptimum",
    "k_matrix",
    "optimal_energy_matrix",
    "grad_ddot_delta_wrt_energy",
    "zero_hamiltonian_condition",
    "a_hat_minimizer",
    "ddot_delta_of_state",
    "ddot_delta_of_energy",
    "ddot_delta_quad_form",
]

_DECOUPLED_RTOL = 1e-14  # _stationary_point: Sigma12 or P12 this small, relative to Sigma or P, is 0


@dataclass(frozen=True)
class EnergyOptimum:
    r_star: np.ndarray
    k_matrix: np.ndarray
    stationarity_residual: float
    ddot_delta_at_opt: float
    method: str  # always "ALE": the stationarity equation is an algebraic Lyapunov equation
    null_space_dim: int = 0


def _sym(x):
    return 0.5 * (x + x.T)


def _realization(ccr, coupling_n, r=None):
    """build_realization for energy R (None: 0) and coupling N; B, Atilde do not depend on R."""
    coupling_n = _as_matrix(coupling_n, "coupling N", cols=ccr.n)
    return build_realization(OqhoParams(ccr=ccr, energy=np.zeros((ccr.n, ccr.n)) if r is None else r,
                                        coupling=coupling_n, selector=np.eye(coupling_n.shape[0])))


def ddot_delta_of_state(a, b, weighting, moments):
    """<Sigma, A B B^T + B B^T A^T + 2 A P A^T> for raw state matrices."""
    return delta_derivatives(a, b, weighting, moments)[1]


def ddot_delta_of_energy(r, ccr, weighting, coupling_n, moments):
    """ddot(Delta) as a function of the energy matrix for fixed coupling."""
    _as_matrix(moments.p, "P", ccr.n, ccr.n)
    real = _realization(ccr, coupling_n, r)
    return ddot_delta_of_state(real.a, real.b, weighting, moments)


@_guarded("the stationarity constant K")
def k_matrix(ccr, weighting, b, a_tilde, moments):
    """K = (1/2) sym(Theta Sigma (B B^T + 2 Atilde P)) of the stationarity
    equation; NumericalError when it overflows.  F, B, Atilde and P must fit Theta's order n,
    and B and Atilde, read by numerics._as_finite, be finite (ValidationError)."""
    n = ccr.n
    _as_matrix(weighting.f, "F", cols=n)
    _as_matrix(moments.p, "P", n, n)
    b, a_tilde = _as_finite(b, "B", rows=n), _as_finite(a_tilde, "Atilde", n, n)
    return 0.5 * _sym(ccr.theta @ weighting.sigma @ (b @ b.T + 2.0 * a_tilde @ moments.p))


@_guarded("the gradient of ddot(Delta)")
def grad_ddot_delta_wrt_energy(ccr, weighting, system, moments):
    """Gradient of ddot(Delta) in R: -8 K(A), i.e. k_matrix with A for Atilde; system is a
    Realization or an (A, B) pair (model._system)."""
    a, b = _system(system, ccr.n)
    return -8.0 * k_matrix(ccr, weighting, b, a, moments)


def _stationarity_operator(theta, weighting, moments, n1=None):
    """(op, Theta Sigma Theta): op(X) = P_S L(X) for X in S, every symmetric matrix (n1 None)
    or the off-diagonal blocks [[0, X], [X^T, 0]] at the split n1, X then the (1, 2) block.
    NumericalError when Theta Sigma Theta overflows."""
    tst = theta @ weighting.sigma @ theta
    if not np.isfinite(tst).all():
        raise NumericalError("Theta Sigma Theta is not finite")
    rows, cols = (slice(None),) * 2 if n1 is None else (slice(n1), slice(n1, None))
    r = np.zeros_like(tst)

    def op(x):
        r[rows, cols], r[cols, rows] = x, x.T
        m = tst @ r @ moments.p  # L(R) = M + M^T for a symmetric R
        return m[rows, cols] + m[cols, rows].T

    return op, tst


@_guarded("the stationary point")
def _stationary_point(theta, weighting, moments, q, n1=None):
    """Minimum-norm X in S with P_S(L(X) + Q) = 0, as (X, ||P_S(L(X) + Q)||, method).  It is the
    congruence equation of numerics.solve_sylvester on every symmetric matrix ("ALE") and, with
    Sigma12 or P12 zero, on the off-diagonal blocks ("Sylvester"); else conjugate gradients solve
    it, -P_S L P_S being self-adjoint and positive semidefinite ("LeastSquares")."""
    op, tst = _stationarity_operator(theta, weighting, moments, n1)
    p = moments.p
    if n1 is None:
        x, method = _sym(solve_sylvester(tst, p, tst, p, q)[0]), "ALE"
    elif (_norm(weighting.sigma[:n1, n1:]) <= _DECOUPLED_RTOL * _norm(weighting.sigma)
            or _norm(p[:n1, n1:]) <= _DECOUPLED_RTOL * _norm(p)):
        x, method = solve_sylvester(tst[:n1, :n1], p[:n1, :n1], tst[n1:, n1:], p[n1:, n1:], q)[0], "Sylvester"
    else:
        x, method = solve_symmetric_constrained(op, q)[0], "LeastSquares"
    return x, float(_norm(op(x) + q)), method


@_guarded()  # _stationary_point checks R* and its residual
def optimal_energy_matrix(ccr, weighting, coupling_n, moments):
    """Energy matrix maximizing the quadratic decoherence-time approximation.

    Returns the minimum-Frobenius-norm solution R* of the stationarity
    equation for every Sigma >= 0; null_space_dim is the dimension of the
    symmetric solutions of the homogeneous equation, k (k + 1) / 2 for a
    k-dimensional kernel of Theta Sigma Theta.
    """
    real = _realization(ccr, coupling_n)
    k = k_matrix(ccr, weighting, real.b, real.a_tilde, moments)
    r_star, residual, method = _stationary_point(ccr.theta, weighting, moments, k)
    ddot_at_opt = ddot_delta_of_energy(r_star, ccr, weighting, coupling_n, moments)
    n_null = ccr.n - weighting.s  # dim ker(Theta Sigma Theta); F has full row rank
    return EnergyOptimum(
        r_star=r_star,
        k_matrix=k,
        stationarity_residual=residual,
        ddot_delta_at_opt=ddot_at_opt,
        method=method,
        null_space_dim=n_null * (n_null + 1) // 2,
    )


@_guarded("the zero-Hamiltonian residual")
def zero_hamiltonian_condition(ccr, weighting, coupling_n, moments):
    """Residual 4 ||K(Atilde)|| whose vanishing certifies that R = 0 is optimal;
    NumericalError when it overflows."""
    real = _realization(ccr, coupling_n)
    return 4.0 * float(_norm(k_matrix(ccr, weighting, real.b, real.a_tilde, moments)))


@_guarded("Ahat")
def a_hat_minimizer(b, moments):
    """Unconstrained minimizer Ahat = -1/2 B B^T P^{-1} of ddot(Delta) over A."""
    p = moments.p
    _, b = _system((None, b), len(p), b_only=True)
    if np.min(np.linalg.eigvalsh(p)) <= 0:
        raise PreconditionError("P must be positive definite for the completed square")
    return -0.5 * b @ b.T @ np.linalg.inv(p)


@_guarded("ddot(Delta) in completed-square form")
def ddot_delta_quad_form(a, b, weighting, moments):
    """Completed-square form 2 tr(F (A - Ahat) P (A - Ahat)^T F^T)
    - 1/2 tr(F B B^T P^-1 B B^T F^T); NumericalError when it overflows."""
    a, b = _system((a, b), len(moments.p), weighting.f)
    quad = 2.0 * _weighted_trace(weighting.f @ (a - a_hat_minimizer(b, moments)), moments.p)
    const = 0.5 * _weighted_trace(weighting.f @ b @ b.T, np.linalg.inv(moments.p))
    return float(quad - const)
