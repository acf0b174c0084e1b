"""Deviation of the system variables from their initial values.

The central quantity is the weighted mean-square deviation

    Delta(t) = ||F (e^{tA} - I) sqrt(P)||^2 + <Sigma, Re V(t)>,

where V(t) = int_0^t e^{sA} B Omega B^T e^{sA^T} ds is the finite-horizon
noise Gramian and Sigma = F^T F the weighting matrix.  Both e^{tA} and a
Gramian come from one Van Loan block exponential (Van Loan 1978) taken over
h = t / 2^k and extended to t by k doublings, so the cost of a point grows
with log(t ||A||), not with t.  The real and imaginary parts of V are
obtained separately from the source terms B B^T and B J B^T.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InvalidMomentMatrixError,
    NumericalError,
    PreconditionError,
    ValidationError,
)
from .model import HURWITZ, classify_spectrum, ito_j
from .numerics import eig_real, matrix_exp, solve_lyapunov, sqrt_psd

__all__ = [
    "MomentData",
    "Weighting",
    "DeviationCurve",
    "gramian",
    "delta",
    "delta_terms",
    "delta_derivatives",
    "hurwitz_limit",
    "asymptotic_rate",
    "oscillatory_signal_term",
    "default_time_grid",
    "compute_deviation_curve",
]


@dataclass(frozen=True)
class MomentData:
    """Initial second moments: Pi = P + i Theta must be PSD (Heisenberg)."""

    p: np.ndarray
    ccr: "CcrMatrix"

    def __post_init__(self):
        p = np.array(self.p, dtype=float)
        object.__setattr__(self, "p", p)
        n = self.ccr.n
        if p.shape != (n, n):
            raise DimensionError(f"P shape {p.shape} does not match CCR order {n}")
        if np.linalg.norm(p - p.T) > 1e-10 * max(np.linalg.norm(p), 1.0):
            raise InvalidMomentMatrixError("P not symmetric")
        pi_min = np.min(np.linalg.eigvalsh(p + 1j * self.ccr.theta))
        if pi_min < -1e-10:
            raise InvalidMomentMatrixError(
                f"P + i Theta has negative eigenvalue {pi_min:.3e}; moments are not Heisenberg-admissible"
            )
        object.__setattr__(self, "_sqrt_p", sqrt_psd(p))

    @property
    def sqrt_p(self):
        return self._sqrt_p


@dataclass(frozen=True)
class Weighting:
    """Weighting factor F (full row rank) with Sigma = F^T F."""

    f: np.ndarray

    def __post_init__(self):
        f = np.array(self.f, dtype=float)
        object.__setattr__(self, "f", f)
        if f.ndim != 2:
            raise DimensionError("F must be a matrix")
        # Full row rank: one singular value per row, none below numpy's
        # default rank tolerance.
        sv = np.linalg.svd(f, compute_uv=False)
        tol = sv.max(initial=0.0) * max(f.shape) * np.finfo(float).eps
        if sv.size < f.shape[0] or np.any(sv <= tol):
            raise ValidationError("F must have full row rank")

    @classmethod
    def from_sigma(cls, sigma, tol=1e-12):
        """Factor a symmetric PSD Sigma as F^T F with F of full row rank."""
        sigma = np.asarray(sigma, dtype=float)
        w, v = np.linalg.eigh(0.5 * (sigma + sigma.T))
        if np.min(w) < -1e-10 * max(np.max(np.abs(w), initial=0.0), 1.0):
            raise InvalidMomentMatrixError("Sigma is not positive semi-definite")
        keep = w > tol * max(np.max(w, initial=0.0), 1e-300)
        f = (np.sqrt(w[keep])[:, None]) * v[:, keep].T
        return cls(f)

    @property
    def sigma(self):
        return self.f.T @ self.f

    @property
    def s(self):
        return self.f.shape[0]


# The block exponential is taken over a step h with h ||A||_2 <= _MAX_STEP_NORM,
# so the -A^T block (it grows like e^{h |Re lambda|}) cannot amplify rounding
# errors.
_MAX_STEP_NORM = 5.0


def _propagate(a, q, t):
    """(e^{tA}, V(t)) with V(t) = int_0^t e^{sA} Q e^{sA^T} ds.

    Exponentiates the block [[A, Q], [0, -A^T]] once, over h = t / 2^k with
    h sqrt(||A||_1 ||A||_inf) <= _MAX_STEP_NORM (a bound on h ||A||_2), then
    doubles k times: E(2h) = E(h)^2, V(2h) = V(h) + E(h) V(h) E(h)^T.
    """
    n = a.shape[0]
    steps = t * math.sqrt(np.linalg.norm(a, 1) * np.linalg.norm(a, np.inf)) / _MAX_STEP_NORM
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


def gramian(a, b, t):
    """Complex Hermitian noise Gramian V(t) of the pair (A, B sqrt(Omega))."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if t < 0:
        raise PreconditionError(f"time must be nonnegative, got {t}")
    if b.shape[0] != a.shape[0]:
        raise DimensionError(f"B shape {b.shape} incompatible with A shape {a.shape}")
    j = ito_j(b.shape[1])
    if t == 0:
        n = a.shape[0]
        return np.zeros((n, n), dtype=complex)
    _, v_re = _propagate(a, b @ b.T, t)
    _, v_im = _propagate(a, b @ j @ b.T, t)
    v = v_re + 1j * v_im
    return 0.5 * (v + v.conj().T)


def delta_terms(a, b, weighting, moments, t):
    """(signal, noise) summands of the deviation functional at time t.

    Raises NumericalError when either summand overflows.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    e, v = _propagate(a, b @ b.T, t)
    sig = float(np.linalg.norm(weighting.f @ (e - np.eye(a.shape[0])) @ moments.sqrt_p) ** 2)
    noise = float(np.sum(weighting.sigma * v))
    if not (math.isfinite(sig) and math.isfinite(noise)):
        raise NumericalError(f"deviation not finite at t = {t:.6g}: signal {sig}, noise {noise}")
    return sig, noise


def delta(a, b, weighting, moments, t):
    """Weighted mean-square deviation Delta(t) >= 0."""
    sig, noise = delta_terms(a, b, weighting, moments, t)
    return sig + noise


def delta_derivatives(a, b, weighting, moments):
    """Small-time derivatives of Delta at t = 0.

    Returns (dot, ddot) with dot = ||F B||^2 and
    ddot = <Sigma, A B B^T + B B^T A^T + 2 A P A^T>.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    f = weighting.f
    sigma = weighting.sigma
    bbt = b @ b.T
    dot = float(np.linalg.norm(f @ b) ** 2)
    ddot = float(np.sum(sigma * (a @ bbt + bbt @ a.T + 2.0 * a @ moments.p @ a.T)))
    return dot, ddot


def hurwitz_limit(a, b, weighting, moments):
    """Infinite-horizon value ||F sqrt(P + P_inf)||^2 for Hurwitz A."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    spec = classify_spectrum(a)
    if spec.category != HURWITZ:
        raise PreconditionError(f"A must be Hurwitz, classified {spec.category}")
    p_inf = solve_lyapunov(a, b @ b.T)
    return float(np.sum(weighting.sigma * (moments.p + p_inf)))


def asymptotic_rate(a, b, tol=1e-7):
    """Limit of V(t)/t for diagonalizable A with distinct imaginary spectrum."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    j = ito_j(b.shape[1])
    w, u = eig_real(a)
    scale = max(np.max(np.abs(w), initial=0.0), 1.0)
    if np.max(np.abs(w.real)) > tol * scale:
        raise PreconditionError("spectrum of A is not purely imaginary")
    gaps = np.abs(w[:, None] - w[None, :]) + np.diag(np.full(len(w), np.inf))
    if np.min(gaps) <= tol * scale:
        raise PreconditionError("extended eigenfrequencies of A are not pairwise distinct")
    u_inv = np.linalg.inv(u)
    inner = u_inv @ (b @ b.T + 1j * (b @ j @ b.T)) @ u_inv.conj().T
    rate = u @ np.diag(np.diag(inner)) @ u.conj().T
    return 0.5 * (rate + rate.conj().T)


def oscillatory_signal_term(a, weighting, moments, t):
    """Signal term evaluated through the eigendecomposition of A.

    Cross-validation path for ||F (e^{tA} - I) sqrt(P)||^2; requires A
    diagonalizable.
    """
    a = np.asarray(a, dtype=float)
    w, u = eig_real(a)
    u_inv = np.linalg.inv(u)
    e_ta = u @ np.diag(np.exp(t * w) - 1.0) @ u_inv
    m = weighting.f @ e_ta @ moments.sqrt_p
    return float(np.sum(np.abs(m) ** 2))


def default_time_grid(a, t_ref=None, points=400):
    """Log-spaced grid from 1e-4 * t_ref to t_ref with t_ref = 10/max(||A||, 1)."""
    if t_ref is None:
        t_ref = 10.0 / max(np.linalg.norm(np.asarray(a, dtype=float)), 1.0)
    return np.geomspace(1e-4 * t_ref, t_ref, points)


@dataclass(frozen=True)
class DeviationCurve:
    """Sampled deviation Delta(t) with its signal/noise decomposition."""

    times: np.ndarray
    delta_values: np.ndarray
    signal_term: np.ndarray
    noise_term: np.ndarray


def compute_deviation_curve(a, b, weighting, moments, times=None):
    """Evaluate Delta on a time grid (grid points are independent)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if times is None:
        times = default_time_grid(a)
    times = np.asarray(times, dtype=float)
    if np.any(np.diff(times) <= 0) or np.any(times < 0):
        raise PreconditionError("time grid must be increasing and nonnegative")
    sig = np.empty(len(times))
    noise = np.empty(len(times))
    for k, t in enumerate(times):
        sig[k], noise[k] = delta_terms(a, b, weighting, moments, t)
    return DeviationCurve(
        times=times,
        delta_values=sig + noise,
        signal_term=sig,
        noise_term=noise,
    )
