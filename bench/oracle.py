"""Output checks that do not go through the library's solver paths.

Delta(t) is recomputed from scipy.linalg.expm: the signal term as
tr(Sigma E P E^T) with E = e^{tA} - I (no matrix square root), and the
noise Gramian from the classical Van Loan block [[-A, Q], [0, A^T]] over a
short step, extended to t by doubling V(2h) = V(h) + e^{hA} V(h) e^{hA^T}.
Optimality of R* and R12* is checked through the gradient of
ddot(Delta) = <Sigma, A M + M A^T + 2 A P A^T>, M = B B^T, derived here
directly rather than through the library's stationarity equations.
"""

import math

import numpy as np
import scipy.linalg

from systems import closed_loop, closed_loop_ab, j_matrix


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def _noise_gramian(a, q, t):
    """int_0^t e^{sA} Q e^{sA^T} ds; h ||A|| <= 1 keeps the -A block from amplifying rounding."""
    n = a.shape[0]
    doublings = max(0, math.ceil(math.log2(max(t * np.linalg.norm(a, 1), 1e-300))))
    h = t / 2.0 ** doublings
    blk = np.zeros((2 * n, 2 * n))
    blk[:n, :n] = -a
    blk[:n, n:] = q
    blk[n:, n:] = a.T
    e = scipy.linalg.expm(h * blk)
    e_ha = e[n:, n:].T
    v = e_ha @ e[:n, n:]
    for _ in range(doublings):
        v = v + e_ha @ v @ e_ha.T
        e_ha = e_ha @ e_ha
    return 0.5 * (v + v.T)


def delta(a, b, f, p, t):
    """(Delta, signal, noise) at time t."""
    sigma = f.T @ f
    if t == 0.0:
        return 0.0, 0.0, 0.0
    e = scipy.linalg.expm(t * a) - np.eye(a.shape[0])
    signal = float(np.sum(sigma * (e @ p @ e.T)))
    noise = float(np.sum(sigma * _noise_gramian(a, b @ b.T, t)))
    return signal + noise, signal, noise


def check_crossing(a, b, f, p, tau, threshold, rel_step=1e-6):
    """Delta is below the threshold just before tau and above it just after."""
    require(math.isfinite(tau) and tau > 0, f"tau {tau} is not a positive crossing time")
    before = delta(a, b, f, p, tau * (1.0 - rel_step))[0]
    after = delta(a, b, f, p, tau * (1.0 + rel_step))[0]
    require(before < threshold < after,
            f"Delta does not cross {threshold:.6g} at tau={tau:.6g}: {before:.6g} -> {after:.6g}")


def _ddot_gradient(theta, r, coupling, f, p):
    """X with d ddot(Delta) = <X, dR> for unconstrained dR, plus its term scale."""
    sigma = f.T @ f
    a = 2.0 * theta @ (r + coupling.T @ j_matrix(coupling.shape[0]) @ coupling)
    b = 2.0 * theta @ coupling.T
    noise_part = 4.0 * (b @ b.T) @ sigma @ theta
    signal_part = 8.0 * p @ a.T @ sigma @ theta
    scale = np.linalg.norm(noise_part) + np.linalg.norm(signal_part)
    return (noise_part + signal_part).T, scale


def check_energy_optimum(theta, r_star, coupling, f, p, rel_tol=1e-8):
    require(np.allclose(r_star, r_star.T, rtol=0, atol=1e-12 * max(1.0, np.abs(r_star).max())),
            "R* is not symmetric")
    x, scale = _ddot_gradient(theta, r_star, coupling, f, p)
    res = np.linalg.norm(x + x.T)
    require(res <= rel_tol * scale, f"R* gradient residual {res:.3e} > {rel_tol:.0e} * {scale:.3e}")


def check_r12_optimum(pair, r12_star, rel_tol=1e-8):
    theta, r_cl, n_cl, _ = closed_loop(pair, r12_star)
    x, scale = _ddot_gradient(theta, r_cl, n_cl, pair.weight_f, pair.moments_p)
    n1 = pair.sub1.n
    res = np.linalg.norm(x[:n1, n1:] + x[n1:, :n1].T)
    require(res <= rel_tol * scale, f"R12* gradient residual {res:.3e} > {rel_tol:.0e} * {scale:.3e}")


def zero_hamiltonian_value(theta, coupling, f, p):
    """4 ||K|| with K the constant term of the R* stationarity equation at R = 0."""
    sigma = f.T @ f
    m = coupling.shape[0]
    b = 2.0 * theta @ coupling.T
    a_field = 2.0 * theta @ coupling.T @ j_matrix(m) @ coupling
    k = 0.25 * (theta @ sigma @ (b @ b.T + 2.0 * a_field @ p)
                - (b @ b.T + 2.0 * p @ a_field.T) @ sigma @ theta)
    return 4.0 * float(np.linalg.norm(k))


def check_close(got, want, rel_tol, what):
    scale = max(np.max(np.abs(want)), 1.0)
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    require(err <= rel_tol * scale, f"{what}: deviation {err:.3e} > {rel_tol:.0e} * {scale:.3e}")


def check_closed_loop(pair, r12, a, b):
    want_a, want_b = closed_loop_ab(pair, r12)
    check_close(a, want_a, 1e-10, "closed-loop A")
    check_close(b, want_b, 1e-10, "closed-loop B")
    theta = closed_loop(pair, r12)[0]
    pr = a @ theta + theta @ a.T + b @ j_matrix(b.shape[1]) @ b.T
    check_close(pr, np.zeros_like(pr), 1e-10 * max(1.0, np.linalg.norm(a)), "realizability residual")


def check_zero_hamiltonian_r12(pair, r12):
    r_field = closed_loop(pair, r12)[3]
    check_close(r12 + r_field, np.zeros_like(r12), 1e-12, "R12 + field cross-term")
