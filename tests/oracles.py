"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the library's own solver paths:
Lyapunov/Sylvester equations are solved by dense Kronecker vectorization,
Gramians by adaptive quadrature, the spectral forms of Delta and the
Gramian in the complex eigenbasis, gradients by central differences, and
minimizers by plain steepest descent.  Agreement between these and the
library is the point of the tests.
"""

import numpy as np
import scipy.integrate
import scipy.linalg

from oqho_memory.model import J2, CcrMatrix, OqhoParams, build_realization, canonical_ccr, ito_j


# --- Kronecker-vectorized matrix-equation solves (row-major vec) ------------
#
# With x = X.ravel() (row-major): vec(M X) = (M kron I) x and
# vec(X M) = (I kron M^T) x.

def kron_solve_lyapunov(m, q):
    """Solve M X + X M^T + Q = 0 by a dense n^2 x n^2 linear system."""
    n = m.shape[0]
    eye = np.eye(n)
    lhs = np.kron(m, eye) + np.kron(eye, m)
    x = np.linalg.solve(lhs, -q.ravel())
    return x.reshape(n, n)


def kron_min_norm_solve(lhs, q):
    """Minimum-norm least-squares solution of lhs @ vec(X) + vec(Q) = 0.

    lhs is the dense operator matrix (built with np.kron); singular values
    below 1e-12 of the largest are treated as zero.
    """
    x = np.linalg.pinv(lhs, rcond=1e-12) @ -q.ravel()
    return x.reshape(q.shape)


def kron_offdiag_operator(t, p, n1):
    """Dense matrix of X -> (1,2) block of T R P + P R T, R = [[0, X], [X^T, 0]].

    X is n1 x n2 with n2 = t.shape[0] - n1; vec(A X^T B) = (A kron B^T) vec(X^T).
    """
    n2 = t.shape[0] - n1
    transpose = np.eye(n1 * n2)[np.arange(n1 * n2).reshape(n1, n2).T.ravel()]
    t11, t12, t22 = t[:n1, :n1], t[:n1, n1:], t[n1:, n1:]
    p11, p12, p22 = p[:n1, :n1], p[:n1, n1:], p[n1:, n1:]
    return (np.kron(t11, p22) + np.kron(p11, t22)
            + (np.kron(t12, p12.T) + np.kron(p12, t12.T)) @ transpose)


def symmetric_basis(n):
    """Frobenius-orthonormal basis of the symmetric n x n matrices."""
    basis = []
    for i in range(n):
        for j in range(i, n):
            e = np.zeros((n, n))
            e[i, j] = e[j, i] = 1.0 if i == j else 1.0 / np.sqrt(2.0)
            basis.append(e)
    return basis


# --- Quadrature Gramian ------------------------------------------------------

def quad_gramian(a, b, t, epsabs=1e-12, epsrel=1e-12):
    """int_0^t e^{sA} B Omega B^T e^{sA^T} ds by adaptive quadrature."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    omega = np.eye(b.shape[1]) + 1j * ito_j(b.shape[1])
    src = b @ omega @ b.T

    def integrand(s):
        e = scipy.linalg.expm(s * a)
        return e @ src @ e.T

    val, _ = scipy.integrate.quad_vec(integrand, 0.0, t, epsabs=epsabs, epsrel=epsrel)
    return val


# --- Complex eigenbasis -------------------------------------------------------
#
# The textbook form of the spectral path, in A's complex eigenbasis
# A = U diag(lam) U^-1 from np.linalg.eig: no real modal basis, no
# conjugate-pair blocks.  Z_ij = lam_i + conj(lam_j) and
# Phi_ij(t) = int_0^t e^{Z_ij s} ds.

NEAR_RESONANT = 1e-3  # |Z_ij| <= NEAR_RESONANT max(|lam_i|, |lam_j|) takes Phi_ij directly


def complex_eigenbasis(a):
    """(lam, U, U^-1, Z) as complex arrays."""
    lam, u = np.linalg.eig(a)
    lam, u = lam.astype(complex), u.astype(complex)
    return lam, u, np.linalg.inv(u), lam[:, None] + lam.conj()[None, :]


def phi(z, t):
    """Phi(z, t) = expm1(z t) / z elementwise, t where z = 0."""
    zero = z == 0
    return np.where(zero, t, np.expm1(z * t) / np.where(zero, 1.0, z))


def complex_modal_terms(a, b, sigma, p, t):
    """(signal, noise) of Delta(t) as quadratic forms in d = expm1(lam t):
    signal = Re d^T H conj(d) and noise = Re [d^T M conj(d) + d^T M 1 +
    1^T M conj(d)] + sum over the near entries of Re G_ij Phi_ij(t), with
    S = U^H Sigma U, H = S^T o (U^-1 P U^-H), G = S^T o (U^-1 B B^T U^-H) and
    M = G / Z off the near entries, 0 on them."""
    lam, u, u_inv, z = complex_eigenbasis(a)
    s_t = (u.conj().T @ sigma @ u).T
    h = s_t * (u_inv @ p @ u_inv.conj().T)
    g = s_t * (u_inv @ b @ b.T @ u_inv.conj().T)
    scale = np.abs(lam)
    near = np.abs(z) <= NEAR_RESONANT * np.maximum(scale[:, None], scale[None, :])
    m = np.where(near, 0.0, g) / np.where(near, 1.0, z)
    d = np.expm1(lam * t)
    ones = np.ones(len(lam))
    signal = (d @ h @ d.conj()).real
    noise = (d @ m @ d.conj() + d @ m @ ones + ones @ m @ d.conj() + np.sum(g[near] * phi(z[near], t))).real
    return float(signal), float(noise)


def complex_modal_congruence(a, b, t=None):
    """U (Q~ o W) U^H, symmetrized, with Q~ = U^-1 B (I + iJ) B^T U^-H and
    W = Phi(t): the noise Gramian V(t); t None takes W = I, the rate
    lim V(t) / t of a distinct imaginary spectrum."""
    lam, u, u_inv, z = complex_eigenbasis(a)
    q = b @ (np.eye(b.shape[1]) + 1j * ito_j(b.shape[1])) @ b.T
    w = np.eye(len(lam)) if t is None else phi(z, t)
    v = u @ ((u_inv @ q @ u_inv.conj().T) * w) @ u.conj().T
    return 0.5 * (v + v.conj().T)


# --- Finite-difference gradients ----------------------------------------------

def fd_gradient(fun, x0, h=1e-5):
    """Central-difference gradient of a scalar function of a flat vector."""
    x0 = np.asarray(x0, dtype=float)
    g = np.empty(x0.size)
    for i in range(x0.size):
        e = np.zeros(x0.size)
        e[i] = h
        g[i] = (fun(x0 + e) - fun(x0 - e)) / (2.0 * h)
    return g


def fd_sym_gradient(fun, r0, h=1e-5):
    """Central-difference gradient of fun over symmetric matrices.

    fun takes a symmetric matrix; the result is the symmetric matrix dual to
    the differential under the Frobenius inner product.
    """
    n = r0.shape[0]
    grad = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            e = np.zeros((n, n))
            e[i, j] = e[j, i] = 1.0
            d = (fun(r0 + h * e) - fun(r0 - h * e)) / (2.0 * h)
            grad[i, j] = grad[j, i] = d if i == j else 0.5 * d
    return grad


# --- Steepest-descent minimizer ------------------------------------------------
#
# Steepest descent on flat coordinates with Armijo backtracking, seeded at 0,
# gradient tolerance 1e-10, at most 1e5 iterations.  Gradients come from
# central differences with step h; h = 0.05 is exact for quadratics.  The
# acceptance test allows a rounding allowance of 32 eps |f| so the search can
# terminate once decreases fall below what doubles can represent.

def descent_minimize(f, dim, h=0.05, gtol=1e-10, max_iter=100000):
    x = np.zeros(dim)
    fx = f(x)
    for it in range(max_iter):
        g = np.empty(dim)
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
        gn = np.linalg.norm(g)
        if gn <= gtol:
            return x, it
        u = g / gn
        curv = (f(x + h * u) - 2.0 * fx + f(x - h * u)) / h ** 2
        t = gn / curv if curv > 0 else 1.0
        noise = 32.0 * np.finfo(float).eps * max(abs(fx), 1.0)
        accepted = False
        for _ in range(40):
            xn = x - t * u
            fn = f(xn)
            if fn <= fx - 1e-4 * t * gn + noise:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            return x, it
        x, fx = xn, fn
    return x, max_iter


def descent_minimize_sym(fun, n, **kw):
    """Minimize a function of a symmetric n x n matrix; returns the matrix."""
    basis = symmetric_basis(n)

    def f(v):
        r = np.zeros((n, n))
        for c, e in zip(v, basis):
            r = r + c * e
        return fun(r)

    v_star, iters = descent_minimize(f, len(basis), **kw)
    r_star = np.zeros((n, n))
    for c, e in zip(v_star, basis):
        r_star = r_star + c * e
    return r_star, iters


# --- Random instance generators -----------------------------------------------

def random_sym(rng, n, scale=1.0):
    g = scale * rng.standard_normal((n, n))
    return 0.5 * (g + g.T)


def random_spd(rng, n, shift=2.0, scale=1.0):
    g = scale * rng.standard_normal((n, n))
    return g @ g.T + shift * np.eye(n)


def random_ccr(rng, nu, perturb=0.2):
    """Random nonsingular antisymmetric CCR matrix congruent to the canonical one."""
    n = 2 * nu
    t = np.eye(n) + perturb * rng.standard_normal((n, n))
    return CcrMatrix(t @ canonical_ccr(nu).theta @ t.T)


def random_selector(m, r):
    """First r rows of I_m: orthonormal and conjugate-pair preserving."""
    return np.eye(m)[:r]


def random_params(rng, nu, m, r=None, ccr=None, scale=1.0):
    """Random OqhoParams over n = 2 nu variables and m field channels."""
    n = 2 * nu
    if ccr is None:
        ccr = canonical_ccr(nu)
    return OqhoParams(
        ccr=ccr,
        energy=random_sym(rng, n, scale),
        coupling=scale * rng.standard_normal((m, n)),
        selector=random_selector(m, m if r is None else r),
    )


def random_hurwitz_realization(rng, nu=1, m=2, re_min=None, re_max=None, max_tries=2000):
    """Rejection-sample a PR realization with Hurwitz A (optional Re-lambda band).

    Returns (params, realization).
    """
    from oqho_memory.model import classify_spectrum

    for _ in range(max_tries):
        params = random_params(rng, nu, m)
        real = build_realization(params)
        spec = classify_spectrum(real.a)
        if spec.category != "Hurwitz":
            continue
        re = spec.eigenvalues.real
        if re_max is not None and re.max() > re_max:
            continue
        if re_min is not None and re.min() < re_min:
            continue
        return params, real
    raise RuntimeError("no Hurwitz instance found")


def random_marginal_system(rng, freqs_lo=5.0, freqs_hi=20.0, gap=3.0,
                           t_perturb=0.1, b_scale=0.3):
    """A with distinct purely imaginary spectrum plus a mild similarity.

    Frequencies are kept well separated so the time-averaged Gramian growth
    converges to its linear rate within a few hundred time units.
    """
    freqs = np.sort(rng.uniform(freqs_lo, freqs_hi, 2))
    while freqs[1] - freqs[0] < gap or freqs[0] < gap / 2:
        freqs = np.sort(rng.uniform(freqs_lo, freqs_hi, 2))
    a0 = scipy.linalg.block_diag(*[f * J2 for f in freqs])
    t = np.eye(4) + t_perturb * rng.standard_normal((4, 4))
    a = t @ a0 @ np.linalg.inv(t)
    b = b_scale * rng.standard_normal((4, 2))
    return a, b


def random_damped_realization(rng, nu, perturb=0.1):
    """Physically realizable system with R > 0 and N = I + a perturbation (m = n).

    With N = I the field term 2 Theta N^T J N is -I, so Re(lambda) sits near
    -1 at any order, where random_hurwitz_realization's rejection sampler
    finds no instance.  Returns (params, realization).
    """
    n = 2 * nu
    params = OqhoParams(
        ccr=canonical_ccr(nu),
        energy=random_spd(rng, n, shift=1.0, scale=1.0 / np.sqrt(n)),
        coupling=np.eye(n) + perturb / np.sqrt(n) * rng.standard_normal((n, n)),
        selector=random_selector(n, n),
    )
    return params, build_realization(params)


def random_marginal_modes(rng, nu, m=2, t_perturb=0.1, b_scale=0.3, near_gap=None):
    """(A, B) with A similar to the rotations f_k J2, f_k in [k, k + 1/2).

    Any number nu of modes with distinct, purely imaginary eigenvalues; the
    similarity stays near the identity, so the eigenvectors are well
    conditioned.  With near_gap (nu >= 2), the second frequency becomes
    f_1 (1 + near_gap): a near-degenerate pair.  The random draws are the
    same with or without it.
    """
    n = 2 * nu
    freqs = np.arange(1, nu + 1) + rng.uniform(0.0, 0.5, nu)
    if near_gap is not None:
        freqs[1] = freqs[0] * (1.0 + near_gap)
    a0 = scipy.linalg.block_diag(*[f * J2 for f in freqs])
    t = np.eye(n) + t_perturb / np.sqrt(n) * rng.standard_normal((n, n))
    return t @ a0 @ np.linalg.inv(t), b_scale * rng.standard_normal((n, m))
