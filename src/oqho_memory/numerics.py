"""Dense numerical kernels: matrix exponential, the generalized
symmetric-definite eigendecomposition, PSD square root and
Lyapunov/Sylvester/self-adjoint linear matrix equations.

All solvers are desk-scale (n <= a few hundred) and double precision.
solve_lyapunov runs LAPACK-backed Bartels-Stewart after a resonance
pre-check.  solve_sylvester solves S1 X P2 + P1 X S2 + Q = 0 (S_k <= 0,
P_k > 0), the form of both stationarity equations, by simultaneous
diagonalization of each pair by congruence (Golub & Van Loan, Matrix
Computations, 8.7).  solve_symmetric_constrained runs matrix-free conjugate
gradients (Hestenes & Stiefel 1952) on a self-adjoint positive-semidefinite
operator, at one operator application (O(n^3)) per iteration.  Both return
the minimum-norm solution.

The library's policies have one home each, here: _guarded for results (what
it names must be finite), _norm for tolerances (every decision is relative to
the _norm of its own inputs) and _as_finite for inputs (every matrix argument
is converted by _as_real, shape-checked by _as_matrix and must be finite, else
a ValidationError naming it; time arrays share _as_real).  A matrix the library
forms is checked where it is formed: NumericalError when it overflowed.
_LastValue is a one-entry memo found by its key's value.
"""

import functools
import math

import numpy as np
import scipy.linalg

from .errors import (
    DimensionError,
    InvalidMomentMatrixError,
    NumericalError,
    PreconditionError,
    ResonanceError,
    ValidationError,
)

__all__ = [
    "matrix_exp",
    "solve_lyapunov",
    "solve_sylvester",
    "solve_symmetric_constrained",
    "sqrt_psd",
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

# Generalized eigenvalues at most _NULL_RTOL times the largest one count as
# the kernel of S in solve_sylvester, whose residual must be within
# _SYLVESTER_RTOL (||Q|| + ||op|| ||X||).
_NULL_RTOL = 1e-12
_SYLVESTER_RTOL = 1e-10
_PSD_NEG_RTOL = 1e-8  # _check_psd: least eigenvalue allowed, relative to the largest
_SYM_RTOL = 1e-10  # _asymmetric
_SPECTRAL_RTOL = 1e-9  # _on_axis
_LYAPUNOV_RTOL = 1e-10  # solve_lyapunov: resonant eigenvalue sums and the residual, relative
_NORM_TINY = 1e-150  # _norm rescales a plain norm below this or inf, where squares may under- or overflow
_FLOAT64 = np.dtype(float)  # _as_real returns an ndarray of this dtype as it is


def _as_real(x, name):
    """x as a float64 array (a float64 ndarray as it is), the conversion half of _as_matrix:
    ValidationError naming name unless x is a number or a rectangular array of real numbers."""
    if type(x) is not np.ndarray or x.dtype is not _FLOAT64:
        try:
            x = np.asarray(x)
        except ValueError:  # a ragged nested list
            x = None
        if x is None or x.dtype.kind not in "biuf":  # bool, integer or float
            raise ValidationError(f"{name} must be a rectangular array of real numbers")
        x = x.astype(float, copy=False)
    return x


def _as_matrix(x, name, rows=None, cols=None, square=False):
    """_as_real(x, name) as a matrix, the shape half of _as_finite: DimensionError unless it is 2-D
    with rows rows and cols columns (None: any), square with square.  Alone it re-reads matrices
    the library holds (F and P of a Weighting and MomentData, L of SubsystemParams), and op(X)."""
    x = _as_real(x, name)
    shape = x.shape
    if (len(shape) != 2 or (rows is not None and shape[0] != rows) or (cols is not None and shape[1] != cols)
            or (square and shape[0] != shape[1])):
        want = "square" if square else f"({'*' if rows is None else rows}, {'*' if cols is None else cols})"
        raise DimensionError(f"{name} has shape {shape}, not {want}")
    return x


def _as_finite(x, name, rows=None, cols=None, square=False):
    """_as_matrix(x, name, rows, cols, square) with every entry finite, the library's one input
    gate: ValidationError naming name otherwise."""
    x = _as_matrix(x, name, rows, cols, square)
    if not np.isfinite(x).all():
        raise ValidationError(f"{name} must be finite")
    return x


def _exponent(x):
    """e with 2^(e-1) <= max|x| < 2^e, so that 2^-e x ~ x / max|x| (exact);
    0 for x = 0 or not finite."""
    return int(np.frexp(np.max(np.abs(x), initial=0.0))[1])


def _norm(x):
    """Frobenius norm that over- or underflows only when the norm itself does
    (Blue 1978, ACM TOMS 4:15): np.linalg.norm, taken again of 2^-e x ~ x / max|x|
    only when that is inf or below _NORM_TINY.  Callers run it under _guarded."""
    norm = np.linalg.norm(x)
    if _NORM_TINY <= norm < math.inf:
        return norm
    e = _exponent(x)
    return np.ldexp(np.linalg.norm(np.ldexp(x, -e)), e)


def _product(*factors):
    """The product of factors (numbers or arrays, broadcast) that over- or underflows
    only where the product itself does: their mantissas (np.frexp, each in [1/2, 1))
    are multiplied and their exponents added apart, and np.ldexp rounds once.
    Callers run it under _guarded."""
    mantissa, exponent = 1.0, 0
    for x in factors:
        m, e = np.frexp(x)
        mantissa, exponent = mantissa * m, exponent + e
    return np.ldexp(mantissa, exponent)


def _guarded(what=None):
    """Run func with numpy's float warnings off (a fresh errstate per call); given what,
    raise NumericalError unless each float or array returned, alone or in a tuple, is finite."""
    def decorate(func):
        @functools.wraps(func)
        def guarded(*args, **kwargs):
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                out = func(*args, **kwargs)
            parts = out if isinstance(out, tuple) else (out,)
            if what is not None and not all(np.isfinite(x).all() for x in parts
                                            if isinstance(x, (float, np.ndarray))):
                raise NumericalError(f"{what} is not finite")
            return out
        return guarded
    return decorate


class _LastValue:
    """One-entry memo of func(key, *args), for a func whose value depends on its
    arguments only through key: the value of the last call is served again while
    key == that call's key.  The key is compared, not hashed: two equal bytes
    objects compare by one memcmp, while hashing a new one reads it at several
    times that cost.  A miss drops the entry before func runs, so at most one
    value is held, and a call that raises stores nothing.  The entry is one
    (key, value) pair, replaced whole.  cache_clear empties it."""

    def __init__(self, func):
        functools.update_wrapper(self, func)
        self.cache_clear()

    def __call__(self, key, *args):
        last = self._last
        if last is not None and last[0] == key:
            return last[1]
        self._last = None
        value = self.__wrapped__(key, *args)
        self._last = key, value
        return value

    def cache_clear(self):
        self._last = None


@_guarded("the matrix exponential")
def matrix_exp(a, t=1.0):
    """exp(t*A) by scaling-and-squaring with Pade approximation; A is read by _as_finite,
    NumericalError when t is not finite."""
    a = _as_finite(a, "A", square=True)
    if not np.isfinite(t):
        raise NumericalError("matrix_exp requires a finite t")
    return scipy.linalg.expm(t * a)


@_guarded()  # the accept test below requires a finite residual
def solve_lyapunov(m, q):
    """Solve M X + X M^T + Q = 0 for symmetric Q (Bartels-Stewart).

    Raises ResonanceError when the spectra of M and -M^T intersect.
    """
    m = _as_finite(m, "M", square=True)
    q = _as_finite(q, "Q", *m.shape)
    eigs = np.linalg.eigvals(m)
    sums = np.abs(eigs[:, None] + eigs[None, :])
    i, j = np.unravel_index(np.argmin(sums), sums.shape)
    m_norm = _norm(m)
    if sums[i, j] <= _LYAPUNOV_RTOL * m_norm:
        raise ResonanceError(
            f"resonant spectra: eigenvalues {eigs[i]:.6g} and {eigs[j]:.6g} sum to {eigs[i] + eigs[j]:.3e} "
            f"(||M|| = {m_norm:.3e})",
            eig_pair=(eigs[i], eigs[j]),
        )
    x = scipy.linalg.solve_continuous_lyapunov(m, -q)
    if not _asymmetric(q):
        x = 0.5 * (x + x.T)
    res = _norm(m @ x + x @ m.T + q)
    bound = _LYAPUNOV_RTOL * (_norm(q) + m_norm * _norm(x))
    if not (np.isfinite(res) and res <= bound):
        raise NumericalError(f"Lyapunov residual {res:.3e} exceeds bound {bound:.3e}")
    return x


@_guarded()  # the accept test below requires a finite residual
def solve_sylvester(s1, p1, s2, p2, q):
    """Minimum-norm solution of S1 X P2 + P1 X S2 + Q = 0.

    Each S_k must be symmetric negative semidefinite and each P_k positive
    definite.  With -S_k V_k = P_k V_k diag(lam_k), V_k^T P_k V_k = I and
    X = V1 Y V2^T the equation reads (lam1_i + lam2_j) Y_ij = (V1^T Q V2)_ij;
    Y_ij = 0 where both eigenvalues lie in the kernel, and the Frobenius
    projection onto the homogeneous solutions V10 Z V20^T is subtracted.  A
    pair passed as the same objects on both sides is factored once.  S1, S2
    and Q are first scaled by 2^-e ~ 1 / max|S| (exact; the equation is
    homogeneous in (S, Q)), so X is bit for bit the same under (S, Q) -> 2^k (S, Q).
    Returns (X, residual); raises PreconditionError when an S_k is not negative
    semidefinite or not symmetric, or a P_k not symmetric, NumericalError
    when a P_k is not positive definite or the residual bound is not met
    (e.g. Q inconsistent on the kernel).
    """
    same_pair = s2 is s1 and p2 is p1
    s1, s2 = _as_finite(s1, "S1", square=True), _as_finite(s2, "S2", square=True)
    p1, p2 = _as_finite(p1, "P1", *s1.shape), _as_finite(p2, "P2", *s2.shape)
    q = _as_finite(q, "Q", len(s1), len(s2))
    e = max(_exponent(s1), _exponent(s2))
    s1, q = np.ldexp(s1, -e), np.ldexp(q, -e)
    s2 = s1 if same_pair else np.ldexp(s2, -e)
    lam1, v1 = eigh_definite(-s1, p1)
    lam2, v2 = (lam1, v1) if same_pair else eigh_definite(-s2, p2)
    scale = max(np.max(np.abs(lam1), initial=0.0), np.max(np.abs(lam2), initial=0.0))
    if min(np.min(lam1, initial=0.0), np.min(lam2, initial=0.0)) < -_NULL_RTOL * scale:
        raise PreconditionError("S1 and S2 must be negative semidefinite")
    null1 = np.abs(lam1) <= _NULL_RTOL * scale
    null2 = np.abs(lam2) <= _NULL_RTOL * scale
    denom = lam1[:, None] + lam2[None, :]
    denom[null1[:, None] & null2[None, :]] = np.inf
    x = v1 @ (v1.T @ q @ v2 / denom) @ v2.T
    v10, v20 = v1[:, null1], v2[:, null2]
    x -= (v10 @ np.linalg.inv(v10.T @ v10) @ (v10.T @ x @ v20)
          @ np.linalg.inv(v20.T @ v20) @ v20.T)
    residual = float(_norm(s1 @ x @ p2 + p1 @ x @ s2 + q))
    x_norm = _norm(x)  # each term's norms multiplied in its own order, so that none overflows early
    bound = _SYLVESTER_RTOL * (_norm(q) + _norm(s1) * x_norm * _norm(p2) + _norm(p1) * x_norm * _norm(s2))
    if not (np.isfinite(residual) and residual <= bound):
        raise NumericalError(f"Sylvester residual {np.ldexp(residual, e):.3e} exceeds bound "
                             f"{np.ldexp(bound, e):.3e}")
    return x, float(np.ldexp(residual, e))


@_guarded("the solution of op(X) + Q = 0")
def solve_symmetric_constrained(operator, q):
    """Minimum-norm solution of op(X) + Q = 0 by conjugate gradients.

    -op must be self-adjoint and positive semidefinite under the Frobenius
    inner product, and the equation consistent (Q in the range of op), as for
    the stationarity condition of a convex quadratic that is bounded below.
    Started at X = 0, every iterate lies in the range of op, so the limit is
    the minimum-norm solution.  op is applied matrix-free, once per
    iteration; the first application, op(Q), also sets its scale: Q and op
    are each scaled by a power of two to about 1 (exact), so no sum of
    squares over- or underflows for a finite X.  Returns (X, residual) with
    residual = ||op(X) + Q||_F; raises NumericalError when the residual
    bound is not met within a small multiple of the number of unknowns.
    """
    q = _as_finite(q, "Q")
    eq = _exponent(q)
    q = np.ldexp(q, -eq)
    op_q = _as_matrix(operator(q), "op(X)", *q.shape)
    eo = max(_exponent(op_q), -1022)  # 2^-eo is finite even when op(Q) is subnormal
    factor = -np.ldexp(1.0, -eo)

    def minus_op(x):  # -op scaled by 2^-eo, exactly
        return operator(x) * factor

    q_norm = _norm(q)
    x = np.zeros_like(q)
    r = q.copy()  # Q + op(X), the residual of -op(X) = Q
    d, ad = r.copy(), op_q * factor  # the search direction and -op(d)
    rr = float(np.sum(r * r))
    op_norm = 0.0  # running lower estimate of ||op||
    for _ in range(_CG_MAX_ITER_PER_UNKNOWN * q.size):
        dad = float(np.sum(d * ad))
        if dad <= 0.0:
            break  # d has no component in the range: Q is 0 or not in the range
        op_norm = max(op_norm, np.linalg.norm(ad) / np.linalg.norm(d))
        alpha = rr / dad
        x += alpha * d
        r -= alpha * ad
        rr_next = float(np.sum(r * r))
        if np.sqrt(rr_next) <= _CG_RTOL * q_norm:
            break
        d = r + (rr_next / rr) * d
        ad = minus_op(d)
        rr = rr_next
    residual = _norm(q - minus_op(x))
    bound = _CG_ACCEPT * (q_norm + op_norm * _norm(x))
    if not (np.isfinite(residual) and residual <= bound):
        raise NumericalError(
            f"conjugate gradients stopped at residual {np.ldexp(residual, eq):.3e} "
            f"(bound {np.ldexp(bound, eq):.3e}); the equation is inconsistent or -op is not "
            "positive semidefinite"
        )
    return np.ldexp(x, eq - eo), float(np.ldexp(residual, eq))


def _asymmetric(p, anti=False):
    """||P -+ P^T|| > _SYM_RTOL ||P||: P is not symmetric or, with anti, not antisymmetric."""
    d = p + p.T if anti else p - p.T
    if not d.any():
        return False
    norm = _norm(p)
    if norm == math.inf:  # compare 2^-e P ~ P / max|P|, whose norm is finite
        return _asymmetric(np.ldexp(p, -_exponent(p)), anti)
    return _norm(d) > _SYM_RTOL * norm


def _on_axis(lam, a):
    """|Re lam| <= _SPECTRAL_RTOL ||A||: which eigenvalues lam of A lie on the imaginary axis."""
    return np.abs(lam.real) <= _SPECTRAL_RTOL * _norm(a)


def _scaled_eigh(p, vectors=True):
    """(w, V, k) with sym(P) = 4^k V diag(w) V^T (V is None without vectors);
    P is scaled by 4^-k ~ 1 / max|P| first, which is exact and keeps every
    step finite for a finite P."""
    k = _exponent(p) // 2
    q = np.ldexp(p, -2 * k)
    q = 0.5 * (q + q.T)
    if not vectors:
        return np.linalg.eigvalsh(q), None, k
    w, v = np.linalg.eigh(q)
    return w, v, k


def _check_psd(w, k, what):
    """InvalidMomentMatrixError naming what unless 4^k diag(w), the eigenvalues
    of _scaled_eigh, has none below -_PSD_NEG_RTOL times the largest |w|."""
    if np.min(w) < -_PSD_NEG_RTOL * np.max(np.abs(w)):
        raise InvalidMomentMatrixError(
            f"{what} has a significantly negative eigenvalue {np.ldexp(np.min(w), 2 * k):.3e}"
        )


@_guarded()  # a norm in _asymmetric may overflow for a huge P
def sqrt_psd(p):
    """Unique PSD square root of a symmetric PSD matrix via eigendecomposition."""
    p = _as_finite(p, "P", square=True)
    if _asymmetric(p):
        raise InvalidMomentMatrixError("matrix not symmetric")
    w, v, k = _scaled_eigh(p)  # sqrt(P) = 2^k sqrt(P / 4^k)
    _check_psd(w, k, "matrix")
    w = np.clip(w, 0.0, None)
    return np.ldexp((v * np.sqrt(w)) @ v.T, k)


@_guarded("the generalized eigendecomposition")
def eigh_definite(a, b):
    """Generalized symmetric-definite eigenproblem A V = B V diag(lam).

    Returns (lam, V) with ascending lam and V^T B V = I.  A and B are read
    by _as_finite (ValidationError unless finite).  Raises NumericalError
    when B is not numerically positive definite, PreconditionError when A or
    B is not symmetric (numerics._asymmetric).
    """
    a = _as_finite(a, "A", square=True)
    b = _as_finite(b, "B", *a.shape)
    if _asymmetric(a) or _asymmetric(b):
        raise PreconditionError("generalized eigenproblem needs symmetric A and B")
    try:
        return scipy.linalg.eigh(a, b)
    except scipy.linalg.LinAlgError as exc:
        raise NumericalError(f"generalized eigenproblem needs a positive definite B: {exc}") from None
