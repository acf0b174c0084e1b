"""Deviation of the system variables from their initial values.

The central quantity is the weighted mean-square deviation

    Delta(t) = <Sigma, E P E^T> + <Sigma, Re V(t)>,   E = e^{tA} - I,

where V(t) = int_0^t e^{sA} B Omega B^T e^{sA^T} ds is the finite-horizon
noise Gramian and Sigma = F^T F the weighting matrix.

DeviationEvaluator is the one way to evaluate Delta.  It factors
A = U diag(lam) U^-1 once, and both summands are quadratic forms in
d = expm1(lam t).  The signal term is Re d^T H conj(d).  The noise term
<Sigma, Re V(t)>, with V(t) = U (Q~ o Phi(t)) U^H, Q~ = U^-1 Q U^-H and
Phi_ij(t) = (e^{Z_ij t} - 1) / Z_ij, Z_ij = lam_i + conj(lam_j), follows from
e^{Z_ij t} = e_i conj(e_j) with e = 1 + d (Van Loan 1978; Moler & Van Loan
2003).  The few near-resonant entries,
|Z_ij| <= _NEAR_RESONANT max(|lam_i|, |lam_j|), where that form would cancel,
take Phi_ij directly.  A is real, so the evaluator works in its real modal
basis V (the real and imaginary parts of each conjugate pair of
eigenvectors, U = V T with T unitary and block diagonal): its n^3 work
after eig is one real inverse and three real congruences, and the
condition check reads the bound ||V||_F ||V^-1||_F, taking an SVD only
when that bound is above the limit.  Every matrix formed in the eigenbasis
is held in pair form, by the rows of the first eigenvalue of each conjugate
pair and of each real eigenvalue (the other rows are their conjugates), so
its O(n^2) work computes each conjugate pair of entries once and builds no
complex n x n array; the maps into and out of that form apply T, one 2 x 2
matrix per pair, a side at a time (a row step and a column step).  The
forms become real n x n matrices in the n real numbers theta(t), Re and Im
of expm1(lam t) for each pair and expm1(lam t) for each real eigenvalue.
When A is defective or cond(U) exceeds _SPECTRAL_COND_LIMIT, each point
instead takes e^{tA} and V(t) from one Van Loan block exponential over
h = t / 2^k, extended to t by k doublings, so its cost grows with
log(t ||A||), not with t.  gramian takes the same two paths.  The t -> inf
limits come from the same eigenbasis: Phi(inf) = -1 / Z gives
DeviationEvaluator.hurwitz_limit, the diagonal of Q~ asymptotic_rate.

Every evaluation goes through one walker, DeviationEvaluator.scan: times
(a single time is an array of one) _SCAN_BLOCK at a time, one real
K x n x (2n + 1) matrix product per block of K (the Van Loan path loops), up
to the first point above a threshold; terms is the walk with none.  So memory
stays O(n _SCAN_BLOCK) beside the values returned, for any number of times.
A caller that needs Delta at many times, such as `oqho delta-curve`, holds
one evaluator; delta and hurwitz_limit are one-call shortcuts that build one.
Every (A, B) is read by model._system, every time array by _times: a time
is finite and nonnegative on every path, and Delta at t = inf is
hurwitz_limit.

A is factored once per distinct A, not once per call: _modal_basis keeps
the last factorization, keyed by A's value (its n, its bytes and
_SPECTRAL_COND_LIMIT), so tau at several eps, delta, hurwitz_limit,
gramian and asymptotic_rate on one A run eig once between them.  The one
entry holds 4 to 5 n^2 doubles (the key, V, V^-1 and Z), 0.32 to 0.4 MB at
n = 100 and 32 to 40 MB at n = 1000.  A process that asks one question of
each A gains nothing from it.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidMomentMatrixError,
    NumericalError,
    PreconditionError,
    ValidationError,
)
from .model import _system, ito_j
from .numerics import (_as_finite, _as_matrix, _as_real, _asymmetric, _check_psd, _guarded, _norm, _on_axis,
                       _product, _scaled_eigh, matrix_exp, solve_lyapunov)

__all__ = [
    "MomentData",
    "Weighting",
    "DeviationEvaluator",
    "SPECTRAL",
    "VAN_LOAN",
    "MAX_GRID_POINTS",
    "gramian",
    "delta",
    "delta_derivatives",
    "hurwitz_limit",
    "asymptotic_rate",
    "time_scale",
    "default_time_grid",
]


@dataclass(frozen=True)
class MomentData:
    """Initial second moments: Pi = P + i Theta must be PSD (Heisenberg); pi_min = min eig(Pi)."""

    p: np.ndarray
    ccr: "CcrMatrix"

    @_guarded()  # huge finite P: no RuntimeWarning
    def __post_init__(self):
        p = _as_matrix(self.p, "P", self.ccr.n, self.ccr.n).copy()
        object.__setattr__(self, "p", p)
        if not np.all(np.isfinite(p)):
            raise InvalidMomentMatrixError("P has an entry that is not finite")
        if _asymmetric(p):
            raise InvalidMomentMatrixError("P not symmetric")
        w, _, k = _scaled_eigh(p, vectors=False)
        _check_psd(w, k, "P")
        # Heisenberg, relative to Theta's scale 2 max|Theta_ij| (1 for the canonical CCR)
        pi_min = float(np.min(np.linalg.eigvalsh(p + 1j * self.ccr.theta)))
        if pi_min < -1e-10 * 2.0 * np.max(np.abs(self.ccr.theta)):
            raise InvalidMomentMatrixError(
                f"P + i Theta has negative eigenvalue {pi_min:.3e}; moments are not Heisenberg-admissible"
            )
        object.__setattr__(self, "pi_min", pi_min)  # read-only and outside equality, like Weighting.sigma


@dataclass(frozen=True)
class Weighting:
    """Weighting factor F (full row rank) with Sigma = F^T F."""

    f: np.ndarray

    @_guarded()  # Sigma may overflow for a finite F; its users raise on the result
    def __post_init__(self):
        f = _as_finite(self.f, "F").copy()
        object.__setattr__(self, "f", f)
        # Full row rank: a row or more, one singular value per row, none below
        # numpy's default rank tolerance (scaled last, so it cannot overflow).
        sv = np.linalg.svd(f, compute_uv=False)
        tol = sv.max(initial=0.0) * (max(f.shape) * np.finfo(float).eps)
        if f.shape[0] == 0 or sv.size < f.shape[0] or np.any(sv <= tol):
            raise ValidationError("F must have full row rank and at least one row")
        sigma = f.T @ f
        f.flags.writeable = sigma.flags.writeable = False
        object.__setattr__(self, "_sigma", sigma)

    @classmethod
    @_guarded()  # 4^-k is inf only for a subnormal Sigma, which passes the PSD test
    def from_sigma(cls, sigma):
        """Factor a symmetric PSD Sigma as F^T F with F of full row rank; Sigma
        is scaled as in numerics.sqrt_psd, so a huge finite Sigma gives a finite F."""
        sigma = _as_finite(sigma, "Sigma", square=True)
        if _asymmetric(sigma):
            raise InvalidMomentMatrixError("Sigma not symmetric")
        w, v, k = _scaled_eigh(sigma)
        _check_psd(w, k, "Sigma")
        keep = w > _RANK_RTOL * np.max(w)
        return cls(np.ldexp(np.sqrt(w[keep])[:, None] * v[:, keep].T, k))

    @property
    def sigma(self):
        """Sigma = F^T F, computed once (read-only, like F)."""
        return self._sigma

    @property
    def s(self):
        return self.f.shape[0]


# The block exponential is taken over a step h with h ||A||_2 <= _MAX_STEP_NORM,
# so the -A^T block (it grows like e^{h |Re lambda|}) cannot amplify rounding
# errors.
_MAX_STEP_NORM = 5.0


def _norm2_bound(x):
    """sqrt(||X||_1 ||X||_inf) >= ||X||_2 (the largest column and row sums of
    |X|), with each norm's root taken apart, so that it over- or underflows
    only where the bound itself does."""
    x = np.abs(x)
    return math.sqrt(x.sum(axis=0).max(initial=0.0)) * math.sqrt(x.sum(axis=1).max(initial=0.0))


def _propagate(a, q, t):
    """(e^{tA}, V(t)) with V(t) = int_0^t e^{sA} Q e^{sA^T} ds.

    Exponentiates the block [[A, Q], [0, -A^T]] once, over h = t / 2^k with
    h _norm2_bound(A) <= _MAX_STEP_NORM (a bound on h ||A||_2), then
    doubles k times: E(2h) = E(h)^2, V(2h) = V(h) + E(h) V(h) E(h)^T.
    NumericalError when Q, formed by the caller from B, overflowed.
    """
    if not np.isfinite(q).all():
        raise NumericalError("the source term Q, formed from B, is not finite")
    n = a.shape[0]
    steps = t * _norm2_bound(a) / _MAX_STEP_NORM
    k = math.frexp(steps)[1] if steps > 1.0 else 0  # 2^(k-1) <= steps < 2^k
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = a
    aug[:n, n:] = q
    aug[n:, n:] = -a.T
    block = matrix_exp(aug, math.ldexp(t, -k))
    e = block[:n, :n]
    v = block[:n, n:] @ e.T
    for _ in range(k):
        v = v + e @ v @ e.T
        e = e @ e
    return e, v


# With U of unit columns, the eigenbasis A = U diag(lam) U^-1 loses about
# cond(U)^2 eps of relative accuracy, ~1e-10 at this limit.  Above it, and for
# a defective A (cond(U) ~ 1/eps), Delta and the Gramian take the Van Loan path.
_SPECTRAL_COND_LIMIT = 1e3

# asymptotic_rate reads eigenvalue gaps <= _RATE_TOL max|lam| as 0.
_RATE_TOL = 1e-7
_RANK_RTOL = 1e-12  # Weighting.from_sigma drops eigenvalues of Sigma <= _RANK_RTOL max(eig)

# Z_ij = lam_i + conj(lam_j) is near resonant when |Z_ij| <= _NEAR_RESONANT *
# max(|lam_i|, |lam_j|): there the quadratic form for the noise term cancels to
# ~eps / _NEAR_RESONANT relative, and the evaluator takes _phi instead.
_NEAR_RESONANT = 1e-3

# Grids are evaluated _SCAN_BLOCK times at a time.  At n = 100 a block of 64
# costs less per point than blocks of 16 or of the whole grid; a scan that
# stops at a crossing wastes at most _SCAN_BLOCK - 1 points.
_SCAN_BLOCK = 64

# A time grid and a deviation curve are held whole: at 1e6 points, 500 times
# decoherence_time's default grid, `oqho tau` and `oqho delta-curve` (an
# 83 MB CSV) each peak near 100 MB.
MAX_GRID_POINTS = 10**6

SPECTRAL = "spectral"
VAN_LOAN = "van_loan"


def _times(times):
    """times, a number or a 1-D array, as a 1-D float64 array: converted by numerics._as_real
    as every matrix is (ValidationError), PreconditionError unless 1-D, finite and nonnegative
    (the t -> inf limit is hurwitz_limit)."""
    times = _as_real(times, "times")
    if times.ndim > 1:
        raise PreconditionError(f"times must be a number or a 1-D array, got shape {times.shape}")
    times = times.reshape(-1)
    bad = ~((times >= 0) & (times < math.inf))  # nan fails both
    if bad.any():
        raise PreconditionError(f"times must be finite and nonnegative, got {times[bad][0]}")
    return times


def _dot_delta(f, b):
    """||F B||^2, dot(Delta) at t = 0."""
    return float(np.linalg.norm(f @ b) ** 2)


def _weighted_trace(f, x):
    """tr(F X F^T) = <Sigma, X>, formed without Sigma = F^T F, which can
    overflow where the trace does not."""
    return float(np.sum((f @ x) * f))


@_guarded()  # an overflow gives inf or nan, which no caller reads as below anything
def _delta_bound(a, b, f, p, dot, times):
    """An upper bound on Delta at each of times (a 1-D array), nondecreasing in t:

        bound(t) = (phi sqrt(tr P) expm1(alpha t))^2 + (sqrt(t) (g + phi ||B||_F expm1(alpha t)))^2

    with alpha = _norm2_bound(A) >= ||A||_2 (the bound _propagate reads),
    phi = _norm2_bound(F) >= ||F||_2 and g = sqrt(dot) = ||F B||_F, dot as
    _dot_delta forms it.  E = e^{tA} - I has ||E||_2 <= expm1(t ||A||_2)
    (Moler & Van Loan 2003; Higham, Functions of Matrices, 2008, ch. 10), so
    the signal term ||F E P^{1/2}||_F^2 is at most the first square, and the
    noise term is the integral over [0, t] of ||F e^{sA} B||_F^2, whose root is
    at most g + phi ||B||_F expm1(alpha s).  Each root is one _product, and
    ||B||_F is numerics._norm, so the bound over- or underflows only where
    its value does.  A dot below the normal range (||F B||_F^2 underflowed)
    is read as g = sqrt(2 tiny), above what underflowed.  O(n^2) once, O(1)
    a time.
    """
    phi = _norm2_bound(f)
    e = np.expm1(_norm2_bound(a) * times)
    g = math.sqrt(max(dot, 2.0 * np.finfo(float).tiny))
    signal = _product(phi, math.sqrt(np.trace(p)), e)
    noise = _product(np.sqrt(times), g + _product(phi, _norm(b), e))
    return signal * signal + noise * noise


def _modal_basis(a):
    """(lam, basis): the eigenvalues of A and its real modal basis
    (k, V, V^-1, kept, Z), for a float64 A read by model._system.

    Memoized by A's value: _factor keeps the last factorization under the
    key (n, A's bytes, _SPECTRAL_COND_LIMIT).  An A changed in place has
    other bytes and is factored again; -0.0 against 0.0 is only a miss.
    The entry holds the key, V and V^-1 (3 n^2 doubles) and Z ((n - k) n
    complex numbers).  Every array returned is read-only, so no caller can
    alter the memo.
    """
    return _factor(len(a), a.tobytes(), _SPECTRAL_COND_LIMIT)


@functools.lru_cache(maxsize=1)
def _factor(n, data, limit):
    """_modal_basis of the n x n A whose bytes are data, with limit for
    _SPECTRAL_COND_LIMIT.

    np.linalg.eig (LAPACK dgeev) lists each conjugate pair next to each
    other, Im lam > 0 first, with conjugate eigenvectors.  lam is reordered
    so that the k pairs come first, (lam, conj(lam)) each, then the real
    eigenvalues.  V has columns sqrt(2) Re u and sqrt(2) Im u for a pair's
    eigenvector u, and u for a real eigenvalue, so U = V T with T block
    diagonal and unitary, (1, i) / sqrt(2) and (1, -i) / sqrt(2) on each
    pair: cond_2(V) = cond_2(U), and every n^3 product in this basis is real.
    kept indexes the rows of the pair form, the first eigenvalue of each pair
    and every real one, and Z_ij = lam_i + conj(lam_j) is formed on them.
    basis is None (lam in LAPACK order) when A is defective or cond(U)
    exceeds limit.  That is decided without an SVD wherever the bound
    cond_2(V) <= ||V||_F ||V^-1||_F (Golub & Van Loan, Matrix Computations,
    2.3) is within the limit; only above it does np.linalg.cond decide.
    NumericalError if eig fails; an error is not memoized.
    """
    a = np.frombuffer(data).reshape(n, n)
    try:
        lam, u = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalues of A did not converge: {exc}") from None
    pairs, reals = np.flatnonzero(lam.imag > 0), np.flatnonzero(lam.imag == 0)
    k = len(pairs)
    v = np.empty(u.shape)
    v[:, 0:2 * k:2] = u[:, pairs].real
    v[:, 1:2 * k:2] = u[:, pairs].imag
    v[:, :2 * k] *= math.sqrt(2.0)
    v[:, 2 * k:] = u[:, reals].real
    try:
        v_inv = np.linalg.inv(v)
    except np.linalg.LinAlgError:  # V is singular: A is defective
        v_inv = None
    if v_inv is None or not (np.linalg.norm(v) * np.linalg.norm(v_inv) <= limit or np.linalg.cond(v) <= limit):
        lam.flags.writeable = False
        return lam, None
    lam = np.concatenate([np.stack([lam[pairs], lam[pairs].conj()], axis=1).ravel(), lam[reals]])
    kept = np.r_[0:2 * k:2, 2 * k:len(lam)]
    basis = (k, v, v_inv, kept, lam[kept][:, None] + lam.conj()[None, :])
    for x in (lam,) + basis[1:]:
        x.flags.writeable = False
    return lam, basis


# The pair form.  A is real, so every matrix Y the spectral path forms in
# the eigenbasis satisfies Y[pi i, pi j] = conj Y[i, j], where pi swaps the
# two eigenvalues of each pair and fixes the real ones: Y is held by its kept
# rows, the first of each pair and every real one (kept of _modal_basis), an
# (n - k) x n array.  Sums, Hadamard products and quotients of such Y keep
# the form.  T is one 2 x 2 matrix per pair, so _to_pairs and _from_pairs
# apply it a side at a time: a row step and a column step.

def _to_pairs(x, k):
    """T^H x T in pair form, for a real x congruent through V (V^T X V or
    V^-1 X V^-T) and U = V T.  The row step keeps (r0 - i r1) / sqrt(2) for
    each pair of rows (r0, r1) and the real rows as they are; the column
    step maps each pair of columns (c0, c1) to ((c0 + i c1) / sqrt(2),
    (c0 - i c1) / sqrt(2))."""
    h = math.sqrt(0.5)
    y = np.concatenate([h * (x[0:2 * k:2] - 1j * x[1:2 * k:2]), x[2 * k:]])
    c0, c1 = h * y[:, 0:2 * k:2], 1j * h * y[:, 1:2 * k:2]
    y[:, 0:2 * k:2], y[:, 1:2 * k:2] = c0 + c1, c0 - c1
    return y


def _from_pairs(y, k):
    """The real n x n matrix L Y L^H of a Y in pair form, L block diagonal
    with [[1, 1], [i, -i]] (sqrt(2) T) on each pair and 1 on each real
    eigenvalue.  The column step maps each pair of columns (c0, c1) to
    (c0 + c1, i (c1 - c0)); the conjugate row of a pair's row r is then
    conj(r), so the row step gives 2 Re r and -2 Im r for each pair row and
    Re r for each real row."""
    xs, ys = slice(0, 2 * k, 2), slice(1, 2 * k, 2)
    w = y.copy()
    w[:, xs], w[:, ys] = y[:, xs] + y[:, ys], 1j * (y[:, ys] - y[:, xs])
    out = np.empty((y.shape[1], y.shape[1]))
    out[xs], out[ys], out[2 * k:] = 2.0 * w[:k].real, -2.0 * w[:k].imag, w[k:].real
    return out


def _phi(z, t):
    """int_0^t e^{z s} ds elementwise: expm1(z t) / z, t exactly where z = 0,
    and 0 where z is not finite and Re z <= 0, since |phi| <= 2 / |z| there."""
    zero = z == 0
    phi = np.where(zero, t, np.expm1(z * t) / np.where(zero, 1.0, z))
    return np.where(~np.isfinite(z) & (z.real <= 0), 0.0, phi)


def _noise_system(a, b):
    """(A, Q, lam, basis): A from model._system, Q = B (I + i J) B^T as
    (Re Q, Im Q), and lam and basis from _modal_basis."""
    a, b = _system((a, b))
    q = b @ b.T, b @ ito_j(b.shape[1]) @ b.T
    return (a, q) + _modal_basis(a)


def _modal_congruence(basis, q, weight):
    """U (Q~ o weight) U^H with Q~ = U^-1 Q U^-H, for U = V T and the real
    modal basis (k, V, V^-1) of _modal_basis; Q = q[0] + i q[1], weight in
    pair form.  Q~ o weight is the sum of two pair forms, of q[0] and of
    i q[1], and U = W L with W = V / sqrt(2) on the pair columns and the L
    of _from_pairs, so each part is a real congruence."""
    k, v, v_inv = basis[:3]
    w = v.copy()
    w[:, :2 * k] *= math.sqrt(0.5)
    re, im = (w @ _from_pairs(_to_pairs(v_inv @ x @ v_inv.T, k) * weight, k) @ w.T for x in q)
    return re + 1j * im


@_guarded("the noise Gramian")
def gramian(a, b, t):
    """Complex Hermitian noise Gramian V(t) of the pair (A, B sqrt(Omega)) at one time t, read
    by _times; raises NumericalError when V(t) is not finite."""
    a, q, lam, basis = _noise_system(a, b)
    t = _times(t)
    if t.size != 1:
        raise PreconditionError(f"gramian takes one time, got {t.size}")
    t = t[0]
    if basis is None:
        v = _propagate(a, q[0], t)[1] + 1j * _propagate(a, q[1], t)[1]
    else:
        v = _modal_congruence(basis, q, _phi(basis[4], t))  # basis[4] is Z
    return 0.5 * (v + v.conj().T)


class DeviationEvaluator:
    """(signal, noise) summands of Delta(t) at any t from one factorization of A.

    On the spectral path, with S = U^H Sigma U and d = expm1(lam t), both
    summands are quadratic forms in d:

        signal = Re d^T H conj(d),
        noise  = Re [d^T M conj(d) + d^T M 1 + 1^T M conj(d)] + near terms
               = Re [d^T M conj(d) + c^T conj(d)] + near terms,

    with H = S^T o (U^-1 P U^-H), M = G / Z, G = S^T o (U^-1 B B^T U^-H) and
    c = conj(M 1) + M^T 1.  The noise form follows from
    e^{Z_ij t} - 1 = d_i conj(d_j) + d_i + conj(d_j).  Where Z_ij is near
    resonant, |Z_ij| <= _NEAR_RESONANT * max(|lam_i|, |lam_j|) (Z = 0
    included), the form would cancel to ~eps / _NEAR_RESONANT relative, so M
    is zero there and those few entries add Re G_ij _phi(Z_ij, t) directly,
    each conjugate pair of them off the real rows once, with weight 2.

    A is real, so the forms are evaluated in real arithmetic.  The congruences
    run through the real modal basis V of _modal_basis; _to_pairs takes each
    to the eigenbasis in pair form by a row step and a column step, one 2 x 2
    matrix per pair, and there S^T = conj(S) (S is Hermitian), H, G, Z and M
    are formed entry by entry on the kept rows.  d is linear in n real numbers
    theta: for a pair lam = alpha +- i beta, d_k and d_{k+1} = x +- i y with

        x = Re expm1(lam t) = expm1(alpha t) cos(beta t) - 2 sin^2(beta t / 2),
        y = Im expm1(lam t) = e^{alpha t} sin(beta t),

    and d_j = expm1(lam_j t) for a real lam_j, i.e. d = L^T theta for the L
    of _from_pairs.  So the forms become the real n x n matrices
    H_theta = L H L^H and M_theta = L M L^H, which _from_pairs forms by a
    column step and a row step, and the real vector
    c_theta = M_theta e + M_theta^T e, e = 1 at the kept indices and 0
    elsewhere (1 = L^T e = L^H e), stacked once as
    [H_theta; M_theta; c_theta^T]; hurwitz_limit reads
    Re sum(M) = e^T c_theta / 2.  K points cost one expm1 value per pair and
    per real eigenvalue each and one real K x n x (2n + 1) product.  On the
    Van Loan path each point takes one _propagate.  path names the one taken.
    """

    @_guarded()  # an overflow here makes every point non-finite, which terms reports
    def __init__(self, a, b, weighting, moments):
        a, b = _system((a, b), moments.p.shape[0], weighting.f)
        self._a, self._bbt, self._p, self._sigma = a, b @ b.T, moments.p, weighting.sigma
        self._scale = _weighted_trace(weighting.f, moments.p)  # the signal term at t = inf
        lam, basis = _modal_basis(a)
        self._lam = lam
        self.path = VAN_LOAN if basis is None else SPECTRAL
        if basis is None:
            return
        k, v, v_inv, kept, z = basis
        s_t = _to_pairs(v.T @ self._sigma @ v, k).conj()  # S^T = conj(S): S is Hermitian
        g = s_t * _to_pairs(v_inv @ self._bbt @ v_inv.T, k)
        h = s_t * _to_pairs(v_inv @ moments.p @ v_inv.T, k)
        near = np.abs(z) <= _NEAR_RESONANT * np.maximum(np.abs(lam[kept])[:, None], np.abs(lam)[None, :])
        m_theta = _from_pairs(np.where(near, 0.0, g) / np.where(near, 1.0, z), k)
        self._hmc = np.vstack([_from_pairs(h, k), m_theta,
                               m_theta[:, kept].sum(axis=1) + m_theta[kept].sum(axis=0)])
        g[:k] *= 2.0  # a pair's row stands for its conjugate row too, which adds the same real part
        self._g_near, self._z_near = g[near], z[near]
        # alpha for one mode per pair (Im lam > 0) and per real eigenvalue.
        self._alpha = lam[kept].real
        self._half_freq = 0.5 * lam[0:2 * k:2].imag
        self._kept = kept

    @_guarded()
    def scan(self, times, threshold=math.inf):
        """(k, signal, noise): times (a number or a 1-D array, read by _times)
        walked through _terms _SCAN_BLOCK at a time up to the first point whose
        Delta is above threshold or not finite, its index k (len(times) if
        none), and the summands up to and including it.  NumericalError naming
        that time when Delta there is not finite."""
        times = _times(times)
        sig, noise = np.empty(len(times)), np.empty(len(times))
        for start in range(0, len(times), _SCAN_BLOCK):
            block = slice(start, start + _SCAN_BLOCK)
            sig[block], noise[block] = self._terms(times[block])
            d = sig[block] + noise[block]
            stop = ~(np.isfinite(d) & (d <= threshold))  # inf <= inf holds
            if stop.any():
                k = start + int(np.argmax(stop))
                if not math.isfinite(d[k - start]):
                    raise NumericalError(f"deviation not finite at t = {times[k]:.6g}: "
                                         f"signal {sig[k]}, noise {noise[k]}")
                return k, sig[:k + 1], noise[:k + 1]
        return len(times), sig, noise

    def terms(self, t):
        """(signal, noise) at a time t, or two arrays of them for a 1-D array t:
        the walk of scan with no threshold."""
        _, sig, noise = self.scan(t)
        if np.ndim(t) == 0:
            return float(sig[0]), float(noise[0])
        return sig, noise

    def _terms(self, t):
        """terms(t) for a 1-D float array t >= 0, unchecked: a summand that
        overflows comes back inf or nan.  scan runs it under _guarded."""
        if self.path == VAN_LOAN:
            sig, noise = np.empty(len(t)), np.empty(len(t))
            for j, s in enumerate(t):
                e, v = _propagate(self._a, self._bbt, s)
                e = e - np.eye(len(e))
                sig[j] = np.sum(self._sigma * (e @ self._p @ e.T))
                noise[j] = np.sum(self._sigma * v)
            return sig, noise
        # theta is K x n: one row per point.
        theta = self._modal_values(t)
        n = theta.shape[1]
        prod = theta @ self._hmc.T
        sig, noise = np.einsum("kjn,kn->jk", prod[:, :2 * n].reshape(-1, 2, n), theta)
        noise = noise + prod[:, 2 * n]
        if self._z_near.size:
            noise = noise + (self._g_near @ _phi(self._z_near[:, None], t)).real
        return sig, noise

    def _modal_values(self, t):
        """theta(t) for a 1-D array of K times: K x n, each row
        [x_1, y_1, ..., x_k, y_k, then expm1(lam_j t) for each real lam_j].

        x and y come from real expm1, sin and cos, which numpy vectorizes,
        with sin(beta t) = 2 s c and cos(beta t) = 1 - 2 s^2 for
        s, c = sin, cos(beta t / 2): x = expm1(alpha t) - 2 s^2 e^{alpha t}.
        """
        k = len(self._half_freq)
        e = np.expm1(np.multiply.outer(t, self._alpha))
        half = np.multiply.outer(t, self._half_freq)
        s, c = np.sin(half), np.cos(half)
        theta = np.empty((len(t), self._hmc.shape[1]))
        w = e[:, :k] + 1.0
        w *= s
        w += w  # 2 s e^{alpha t}
        np.multiply(c, w, out=theta[:, 1:2 * k:2])
        w *= s
        np.subtract(e[:, :k], w, out=theta[:, 0:2 * k:2])
        theta[:, 2 * k:] = e[:, k:]
        return theta

    def delta(self, t):
        """Delta(t) = signal + noise, at a time t or at each time of a 1-D array t."""
        sig, noise = self.terms(t)
        return sig + noise

    @_guarded("the t -> inf limit of Delta")
    def hurwitz_limit(self):
        """lim Delta(t) as t -> inf: tr(F P F^T) + <Sigma, P_inf>, A P_inf + P_inf A^T + B B^T = 0.

        An O(n^2) read of M and the near terms on the spectral path, a
        Lyapunov solve on the Van Loan path.  PreconditionError unless A is
        Hurwitz by numerics._on_axis, as in classify_spectrum; NumericalError
        when the limit overflows.
        """
        if not np.all((self._lam.real < 0) & ~_on_axis(self._lam, self._a)):
            raise PreconditionError(f"A must be Hurwitz, its largest Re lambda is {self._lam.real.max():.3e}")
        if self.path == VAN_LOAN:
            if not np.isfinite(self._bbt).all():
                raise NumericalError("B B^T is not finite")
            noise = np.sum(self._sigma * solve_lyapunov(self._a, self._bbt))
        else:
            noise = -(0.5 * self._hmc[-1, self._kept].sum() + np.sum(self._g_near / self._z_near).real)
        return float(self._scale + noise)


def delta(a, b, weighting, moments, t):
    """Weighted mean-square deviation Delta(t) >= 0.

    Each call builds a DeviationEvaluator.  The factorization of A is
    memoized by A's value (_modal_basis: one entry, 4 to 5 n^2 doubles), so
    a repeated call on the same A skips eig; the O(n^3) congruences of the
    set-up still run per call, and a caller that needs Delta at many times
    should hold one evaluator and call its delta.
    """
    return DeviationEvaluator(a, b, weighting, moments).delta(t)


@_guarded("(dot(Delta), ddot(Delta)) at t = 0")
def delta_derivatives(a, b, weighting, moments):
    """Small-time derivatives of Delta at t = 0.

    Returns (dot, ddot) with dot = ||F B||^2 and
    ddot = <Sigma, A B B^T + B B^T A^T + 2 A P A^T> = 2 <Sigma A, B B^T + A P>
    (Sigma, B B^T and P are symmetric); raises NumericalError when either overflows.
    """
    a, b = _system((a, b), moments.p.shape[0], weighting.f)
    dot = _dot_delta(weighting.f, b)
    ddot = 2.0 * float(np.sum((weighting.sigma @ a) * (b @ b.T + a @ moments.p)))
    return dot, ddot


def hurwitz_limit(a, b, weighting, moments):
    """Infinite-horizon value tr(F (P + P_inf) F^T) for Hurwitz A."""
    return DeviationEvaluator(a, b, weighting, moments).hurwitz_limit()


@_guarded("the asymptotic rate")
def asymptotic_rate(a, b):
    """Limit of V(t)/t for diagonalizable A with distinct imaginary spectrum.

    Phi_ij(t) / t -> 0 off the diagonal and Phi_ii(t) = t, so the rate is
    gramian's spectral congruence with the identity as weight.  Raises
    PreconditionError also when cond(U) is above _SPECTRAL_COND_LIMIT.
    """
    a, q, lam, basis = _noise_system(a, b)
    if not np.all(_on_axis(lam, a)):
        raise PreconditionError("spectrum of A is not purely imaginary")
    gaps = np.abs(lam[:, None] - lam[None, :]) + np.diag(np.full(len(lam), np.inf))
    if np.min(gaps) <= _RATE_TOL * np.max(np.abs(lam)):
        raise PreconditionError("extended eigenfrequencies of A are not pairwise distinct")
    if basis is None:
        raise PreconditionError(f"A is defective or cond(U) > {_SPECTRAL_COND_LIMIT:g}")
    rate = _modal_congruence(basis, q, basis[3][:, None] == np.arange(len(lam)))  # basis[3] is kept
    return 0.5 * (rate + rate.conj().T)


@_guarded("the time scale 1 / ||A||_F")
def time_scale(a):
    """1 / ||A||_F (1 for A = 0); ValidationError unless A is finite, NumericalError when
    ||A||_F or its inverse overflows."""
    norm = _norm(_as_finite(a, "A", square=True))
    if norm == math.inf:
        raise NumericalError(f"||A|| is not finite ({norm}): A is too large to set a time scale")
    return float(1.0 / norm) if norm else 1.0


def _check_horizon(horizon):
    """PreconditionError unless horizon is finite and normal: a time grid starts
    at a fixed fraction of its horizon, which underflows for a subnormal one."""
    tiny = np.finfo(float).tiny
    if isinstance(horizon, (bool, np.bool_)) or not tiny <= horizon < math.inf:
        raise PreconditionError(f"horizon must be finite and at least {tiny:.6g}, got {horizon!r}")


def _check_grid_points(points, name):
    """PreconditionError unless points is an integer in [1, MAX_GRID_POINTS]."""
    if (not isinstance(points, numbers.Integral) or isinstance(points, bool)
            or not 0 < points <= MAX_GRID_POINTS):
        raise PreconditionError(f"{name} must be a positive integer at most {MAX_GRID_POINTS}, "
                                f"got {points!r}")


def default_time_grid(a, t_ref=None, points=400):
    """Log-spaced grid of points (at most MAX_GRID_POINTS) from 1e-4 * t_ref to
    t_ref with t_ref = 10 time_scale(A), ending at t_ref (a grid of one point
    is [t_ref]); ValidationError unless A is finite."""
    a = _as_finite(a, "A", square=True)
    _check_grid_points(points, "points")
    if t_ref is None:
        t_ref = 10.0 * time_scale(a)
    _check_horizon(t_ref)
    grid = np.geomspace(1e-4 * t_ref, t_ref, points)
    grid[-1] = t_ref  # geomspace ends at t_ref only for two points or more
    return grid
