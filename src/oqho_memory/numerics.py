"""Dense numerical kernels: matrix exponential, eigendecompositions
(including the generalized symmetric-definite one), PSD square root and
Lyapunov/Sylvester/self-adjoint linear matrix equations.

All solvers are desk-scale (n <= a few hundred) and double precision.  The
Lyapunov and Sylvester paths delegate to LAPACK-backed Bartels-Stewart
routines after an explicit resonance pre-check; solve_symmetric_constrained
runs matrix-free conjugate gradients (Hestenes & Stiefel 1952) on a
self-adjoint positive-semidefinite operator and returns the minimum-norm
solution, at one operator application (O(n^3)) per iteration.
"""

import numpy as np
import scipy.linalg

from .errors import (
    DiagonalizabilityError,
    DimensionError,
    InvalidMomentMatrixError,
    NumericalError,
    ResonanceError,
)

__all__ = [
    "matrix_exp",
    "solve_lyapunov",
    "solve_sylvester",
    "solve_symmetric_constrained",
    "sqrt_psd",
    "eig_real",
    "eigh_definite",
]

# Conjugate gradients stop once the recurrence residual is below
# _CG_RTOL ||Q|| (it keeps falling after the true residual reaches its
# rounding floor), or after _CG_MAX_ITER_PER_UNKNOWN iterations per unknown:
# exact arithmetic needs at most one, rounding can need a few more.  The
# true residual must then be within _CG_ACCEPT (||Q|| + ||op|| ||X||).
_CG_RTOL = 1e-14
_CG_ACCEPT = 1e-10
_CG_MAX_ITER_PER_UNKNOWN = 2


def matrix_exp(a, t=1.0):
    """exp(t*A) by scaling-and-squaring with Pade approximation."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"matrix must be square, got {a.shape}")
    if not np.all(np.isfinite(a)) or not np.isfinite(t):
        raise NumericalError("matrix_exp requires finite entries")
    out = scipy.linalg.expm(t * a)
    if not np.all(np.isfinite(out)):
        raise NumericalError(f"matrix exponential overflow at ||tA|| = {abs(t) * np.linalg.norm(a):.3e}")
    return out


def _check_resonance_pair(eigs1, eigs2, scale):
    """Raise if some lambda in eigs1 and mu in eigs2 have lambda + mu ~ 0."""
    s = np.abs(eigs1[:, None] + eigs2[None, :])
    i, j = np.unravel_index(np.argmin(s), s.shape)
    if s[i, j] <= 1e-10 * max(scale, 1.0):
        raise ResonanceError(
            f"resonant spectra: eigenvalues {eigs1[i]:.6g} and {eigs2[j]:.6g} sum to {eigs1[i] + eigs2[j]:.3e}",
            eig_pair=(eigs1[i], eigs2[j]),
        )


def solve_lyapunov(m, q):
    """Solve M X + X M^T + Q = 0 for symmetric Q (Bartels-Stewart).

    Raises ResonanceError when the spectra of M and -M^T intersect.
    """
    m = np.asarray(m, dtype=float)
    q = np.asarray(q, dtype=float)
    if m.shape != q.shape or m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"incompatible shapes M {m.shape}, Q {q.shape}")
    eigs = np.linalg.eigvals(m)
    _check_resonance_pair(eigs, eigs, np.max(np.abs(eigs)) if eigs.size else 1.0)
    x = scipy.linalg.solve_continuous_lyapunov(m, -q)
    if np.linalg.norm(q - q.T) <= 1e-12 * max(np.linalg.norm(q), 1.0):
        x = 0.5 * (x + x.T)
    res = np.linalg.norm(m @ x + x @ m.T + q)
    bound = 1e-10 * (np.linalg.norm(q) + np.linalg.norm(m) * np.linalg.norm(x) + 1.0)
    if res > bound:
        raise NumericalError(f"Lyapunov residual {res:.3e} exceeds bound {bound:.3e}")
    return x


def solve_sylvester(m1, m2, q):
    """Solve M1 X + X M2 + Q = 0 (Bartels-Stewart with resonance pre-check)."""
    m1 = np.asarray(m1, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    q = np.asarray(q, dtype=float)
    if q.shape != (m1.shape[0], m2.shape[0]):
        raise DimensionError(
            f"Q shape {q.shape} incompatible with M1 {m1.shape}, M2 {m2.shape}"
        )
    e1 = np.linalg.eigvals(m1)
    e2 = np.linalg.eigvals(m2)
    scale = max(np.max(np.abs(e1), initial=0.0), np.max(np.abs(e2), initial=0.0))
    _check_resonance_pair(e1, e2, scale)
    x = scipy.linalg.solve_sylvester(m1, m2, -q)
    res = np.linalg.norm(m1 @ x + x @ m2 + q)
    bound = 1e-10 * (np.linalg.norm(q) + scale * np.linalg.norm(x) + 1.0)
    if res > bound:
        raise NumericalError(f"Sylvester residual {res:.3e} exceeds bound {bound:.3e}")
    return x


def solve_symmetric_constrained(operator, q):
    """Minimum-norm solution of op(X) + Q = 0 by conjugate gradients.

    -op must be self-adjoint and positive semidefinite under the Frobenius
    inner product, and the equation consistent (Q in the range of op), as for
    the stationarity condition of a convex quadratic that is bounded below.
    Started at X = 0, every iterate lies in the range of op, so the limit is
    the minimum-norm solution.  op is applied matrix-free, once per
    iteration.  Returns (X, residual) with residual = ||op(X) + Q||_F; raises
    NumericalError when the residual bound is not met within a small
    multiple of the number of unknowns.
    """
    q = np.asarray(q, dtype=float)
    q_norm = np.linalg.norm(q)
    x = np.zeros_like(q)
    r = q.copy()  # Q + op(X), the residual of -op(X) = Q
    d = r.copy()
    rr = float(np.sum(r * r))
    op_norm = 0.0  # running lower estimate of ||op||
    for _ in range(_CG_MAX_ITER_PER_UNKNOWN * q.size):
        if np.sqrt(rr) <= _CG_RTOL * q_norm:
            break
        ad = -operator(d)
        dad = float(np.sum(d * ad))
        if dad <= 0.0:
            break  # d has no component in the range: Q is not in the range
        op_norm = max(op_norm, np.linalg.norm(ad) / np.linalg.norm(d))
        alpha = rr / dad
        x += alpha * d
        r -= alpha * ad
        rr_next = float(np.sum(r * r))
        d = r + (rr_next / rr) * d
        rr = rr_next
    residual = float(np.linalg.norm(operator(x) + q))
    bound = _CG_ACCEPT * (q_norm + op_norm * np.linalg.norm(x))
    if residual > bound:
        raise NumericalError(
            f"conjugate gradients stopped at residual {residual:.3e} (bound {bound:.3e}); "
            "the equation is inconsistent or -op is not positive semidefinite"
        )
    return x, residual


def sqrt_psd(p, neg_tol=1e-8):
    """Unique PSD square root of a symmetric PSD matrix via eigendecomposition."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise DimensionError(f"matrix must be square, got {p.shape}")
    if np.linalg.norm(p - p.T) > 1e-10 * max(np.linalg.norm(p), 1.0):
        raise InvalidMomentMatrixError("matrix not symmetric")
    w, v = np.linalg.eigh(0.5 * (p + p.T))
    scale = max(np.max(np.abs(w), initial=0.0), 1e-300)
    if np.min(w) < -neg_tol * scale:
        raise InvalidMomentMatrixError(
            f"matrix has a significantly negative eigenvalue {np.min(w):.3e}"
        )
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def eig_real(a, cond_limit=1e12):
    """Eigendecomposition of a real matrix with conjugate pairs paired up.

    Returns (eigenvalues, U) with A U = U diag(eigenvalues).  Complex
    eigenvalues are ordered as all upper-half-plane representatives first,
    followed by their conjugates in the same order (so for a purely
    imaginary spectrum the second half is the elementwise conjugate of the
    first).  Real eigenvalues precede the complex ones, in increasing order.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"matrix must be square, got {a.shape}")
    w, u = np.linalg.eig(a)
    cond = np.linalg.cond(u)
    if not np.isfinite(cond) or cond > cond_limit:
        raise DiagonalizabilityError(
            f"eigenvector matrix condition number {cond:.3e} exceeds {cond_limit:.1e}; "
            "matrix is (numerically) defective"
        )
    real_idx = [k for k in range(len(w)) if w[k].imag == 0.0]
    pos_idx = [k for k in range(len(w)) if w[k].imag > 0.0]
    real_idx.sort(key=lambda k: w[k].real)
    pos_idx.sort(key=lambda k: (w[k].imag, w[k].real))
    # Match each upper-half representative with its conjugate partner.
    neg_pool = [k for k in range(len(w)) if w[k].imag < 0.0]
    neg_idx = []
    for k in pos_idx:
        target = np.conj(w[k])
        best = min(neg_pool, key=lambda j: abs(w[j] - target))
        neg_pool.remove(best)
        neg_idx.append(best)
    order = real_idx + pos_idx + neg_idx
    return w[order], u[:, order]


def eigh_definite(a, b):
    """Generalized symmetric-definite eigenproblem A V = B V diag(lam).

    Returns (lam, V) with ascending lam and V^T B V = I.  Raises
    NumericalError when B is not numerically positive definite.
    """
    try:
        return scipy.linalg.eigh(a, b)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"generalized eigenproblem needs a positive definite B: {exc}") from None
