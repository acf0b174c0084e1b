"""Metamorphic tests: exact invariances of the model, checked without an oracle.

model.build_realization gives A = 2 Theta (R + N^T J N) and B = 2 Theta N^T,
so three transformations of a system change its results in a known way:

- coupling scale: (kappa^2 R, kappa N) gives (kappa^2 A, kappa B), so
  Delta_kappa(t) = Delta(kappa^2 t), and tau, tau', tau'' and tau_hat are
  1 / kappa^2 times those of (R, N) when the horizon is scaled alike;
- change of variables x -> S x: Theta' = S Theta S^T, R' = S^-T R S^-1,
  N' = N S^-1, F' = F S^-1 and P' = S P S^T give A' = S A S^-1 and B' = S B,
  so Delta and tau are unchanged, and R* maps to S^-T R* S^-1; on a feedback
  loop of two oscillators S = diag(S1, S2) (L_k' = L_k S_k^-1 as well) maps
  R12* to S1^-T R12* S2^-1, on the Sylvester path and on the
  conjugate-gradient path alike;
- F -> Q F with Q orthogonal leaves Sigma = F^T F, so nothing changes.

Each comparison is bounded by first-order rounding: gamma_k = k u / (1 - k u)
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, 3.1)
with k = 8 n, a bound on the length of the longest chain of products behind
each value, times a condition number of the value computed from the system
itself.  Both sides of a comparison round, and so does forming the
transformed inputs, whose error the change of variables amplifies by up to
cond(S)^2.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oqho_memory import decoherence, design, network
from oqho_memory.dynamics import MomentData, Weighting, delta, delta_derivatives
from oqho_memory.model import CcrMatrix, OqhoParams, build_realization, canonical_ccr, ito_j
from oqho_memory.numerics import _CG_RTOL

from oracles import random_spd

U = np.finfo(float).eps
EPSILONS = (0.01, 0.1)
HORIZON = 50.0


def gamma(k):
    return k * U / (1.0 - k * U)


def sym(x):
    return 0.5 * (x + x.T)


class System:
    """One OQHO (Theta, R, N) with weighting F and moments P, and the results
    the tests compare, each with its condition number."""

    def __init__(self, theta, r, n_mat, f, p):
        self.theta, self.r, self.n_mat, self.f, self.p = theta, r, n_mat, f, p
        self.ccr = CcrMatrix(theta)
        self.real = build_realization(OqhoParams(ccr=self.ccr, energy=r, coupling=n_mat,
                                                 selector=np.eye(len(n_mat))))
        self.w, self.mo = Weighting(f), MomentData(p, self.ccr)
        self.order = len(theta)

    def report(self, eps, horizon):
        return decoherence.decoherence_time(self.real, self.w, self.mo, eps, horizon=horizon)

    def r_star(self):
        return design.optimal_energy_matrix(self.ccr, self.w, self.n_mat, self.mo).r_star

    def abs_ab(self):
        """Entrywise bounds |A| and |B| of the products that form A and B."""
        th, n_mat = np.abs(self.theta), np.abs(self.n_mat)
        j = np.abs(ito_j(len(n_mat)))
        return 2.0 * th @ (np.abs(self.r) + n_mat.T @ j @ n_mat), 2.0 * th @ n_mat.T

    def cond_tau_prime(self):
        """Condition of tau' = tr(F P F^T) / ||F B||^2 under entrywise relative
        perturbations of its inputs."""
        f, b = np.abs(self.f), self.abs_ab()[1]
        dot = np.linalg.norm(f @ b) ** 2 / np.linalg.norm(self.f @ self.real.b) ** 2
        scale = np.trace(f @ np.abs(self.p) @ f.T) / np.trace(self.f @ self.p @ self.f.T)
        return dot + scale

    def cond_tau_second(self):
        """Condition of tau'' = -ddot tau'^2 / ||F B||^2, ddot = <Sigma, A B B^T + B B^T A^T + 2 A P A^T>."""
        a, b = self.abs_ab()
        sigma = np.abs(self.f).T @ np.abs(self.f)
        ddot_abs = np.sum(sigma * (2.0 * a @ b @ b.T + 2.0 * a @ np.abs(self.p) @ a.T))
        ddot = delta_derivatives(self.real.a, self.real.b, self.w, self.mo)[1]
        return ddot_abs / abs(ddot) + 3.0 * self.cond_tau_prime()

    def cond_tau_hat(self, rep):
        first, second = abs(rep.tau_prime * rep.epsilon), abs(0.5 * rep.tau_second * rep.epsilon ** 2)
        return (first * self.cond_tau_prime() + second * self.cond_tau_second()) / abs(rep.tau_hat)

    def cond_tau(self, rep):
        """cond(U)^2 (1 + tau ||A||) times the root's condition
        Delta(tau) / (tau Delta'(tau)), Delta' by central differences."""
        vecs = np.linalg.eig(self.real.a)[1]
        tau, h = rep.tau, 1e-5 * rep.tau
        d_lo, d_hi = (delta(self.real.a, self.real.b, self.w, self.mo, t) for t in (tau - h, tau + h))
        root = rep.threshold / (tau * (d_hi - d_lo) / (2.0 * h))
        return np.linalg.cond(vecs) ** 2 * (1.0 + tau * np.linalg.norm(self.abs_ab()[0], 2)) * root

    def cond_r_star(self):
        """cond of X -> T X P + P X T (T = Theta Sigma Theta) times the
        condition of its constant K."""
        t = self.theta @ self.w.sigma @ self.theta
        op = np.kron(t, self.p) + np.kron(self.p, t)
        k = design.k_matrix(self.ccr, self.w, self.real.b, self.real.a_tilde, self.mo)
        a, b = self.abs_ab()
        a_tilde = a - 2.0 * np.abs(self.theta) @ np.abs(self.r)
        k_abs = np.abs(self.theta) @ (np.abs(self.f).T @ np.abs(self.f)) @ (b @ b.T + 2.0 * a_tilde @ np.abs(self.p))
        return np.linalg.cond(op) * np.linalg.norm(k_abs) / np.linalg.norm(k)


def random_system(seed, nu):
    """A damped OQHO of order n = 2 nu: R > 0, N near I (m = n), F square
    near 2 I, P >= 2 I (so P + i Theta >= 0 for the canonical Theta)."""
    rng = np.random.default_rng(seed)
    n = 2 * nu
    return System(canonical_ccr(nu).theta, random_spd(rng, n, shift=1.0, scale=1.0 / np.sqrt(n)),
                  np.eye(n) + 0.3 / np.sqrt(n) * rng.standard_normal((n, n)),
                  rng.standard_normal((n, n)) + 2.0 * np.eye(n), random_spd(rng, n))


def check_close(got, want, tol, what):
    assert abs(got - want) <= tol * abs(want), (what, got, want, abs(got - want) / abs(want), tol)


def conditions(s, rep):
    return {"tau": s.cond_tau(rep), "tau_prime": s.cond_tau_prime(),
            "tau_second": s.cond_tau_second(), "tau_hat": s.cond_tau_hat(rep)}


def check_tau_fields(s0, s1, rep0, rep1, factor, c_in):
    """rep1's tau, tau', tau'', tau_hat times factor equal rep0's, within the
    rounding bound of both systems plus c_in times rep1's for its inputs."""
    assert rep0.certificate == rep1.certificate == decoherence.CERT_CROSSING
    c0, c1 = conditions(s0, rep0), conditions(s1, rep1)
    for name in c0:
        tol = gamma(8 * s0.order) * (c0[name] + (1.0 + c_in) * c1[name]) + 8.0 * U
        check_close(factor * getattr(rep1, name), getattr(rep0, name), tol, name)


SEEDS = st.integers(0, 2 ** 32 - 1)
ORDERS = st.integers(1, 4)  # n = 2 nu <= 8


@settings(derandomize=True, max_examples=15, deadline=None)
@given(seed=SEEDS, nu=ORDERS, kappa=st.sampled_from([0.1, 0.3, 3.0]))
def test_coupling_scale_law(seed, nu, kappa):
    s0 = random_system(seed, nu)
    s1 = System(s0.theta, kappa ** 2 * s0.r, kappa * s0.n_mat, s0.f, s0.p)
    for eps in EPSILONS:
        check_tau_fields(s0, s1, s0.report(eps, HORIZON), s1.report(eps, HORIZON / kappa ** 2),
                         kappa ** 2, 1.0)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(seed=SEEDS, nu=ORDERS)
def test_change_of_variables(seed, nu):
    s0 = random_system(seed, nu)
    n = s0.order
    rng = np.random.default_rng(seed + 1)
    s = np.eye(n) + 0.3 / np.sqrt(n) * rng.standard_normal((n, n))
    s_inv = np.linalg.inv(s)
    theta = s @ s0.theta @ s.T
    s1 = System(0.5 * (theta - theta.T), sym(s_inv.T @ s0.r @ s_inv), s0.n_mat @ s_inv,
                s0.f @ s_inv, sym(s @ s0.p @ s.T))
    c_in = np.linalg.cond(s) ** 2
    for eps in EPSILONS:
        check_tau_fields(s0, s1, s0.report(eps, HORIZON), s1.report(eps, HORIZON), 1.0, c_in)
    r0, r1 = s0.r_star(), s1.r_star()
    mapped = s_inv.T @ r0 @ s_inv
    tol = gamma(8 * n) * (c_in * s0.cond_r_star() + (1.0 + c_in) * s1.cond_r_star())
    assert np.linalg.norm(r1 - mapped) <= tol * np.linalg.norm(mapped)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(seed=SEEDS, nu=ORDERS)
def test_orthogonal_weighting(seed, nu):
    s0 = random_system(seed, nu)
    q, _ = np.linalg.qr(np.random.default_rng(seed + 2).standard_normal((s0.order, s0.order)))
    s1 = System(s0.theta, s0.r, s0.n_mat, q @ s0.f, s0.p)
    for eps in EPSILONS:
        check_tau_fields(s0, s1, s0.report(eps, HORIZON), s1.report(eps, HORIZON), 1.0, 1.0)
    r0, r1 = s0.r_star(), s1.r_star()
    tol = gamma(8 * s0.order) * (s0.cond_r_star() + 2.0 * s1.cond_r_star())
    assert np.linalg.norm(r1 - r0) <= tol * np.linalg.norm(r0)


class Loop:
    """Two oscillators in a feedback loop with weighting F and moments P of
    the closed loop, and R12* with its method and condition number."""

    def __init__(self, subs, f, p):
        self.subs, self.f, self.p = subs, f, p
        self.theta = scipy.linalg.block_diag(*(sub.ccr.theta for sub in subs))
        self.w, self.mo = Weighting(f), MomentData(p, CcrMatrix(self.theta))
        self.r12, _, self.method = network.optimal_r12(*subs, self.w, self.mo)
        self.order = len(self.theta)

    def cond_op(self):
        """cond of the stationarity operator X -> op(X), as a matrix."""
        op = design._stationarity_operator(self.theta, self.w, self.mo, len(self.r12))[0]
        shape = self.r12.shape
        basis = np.eye(self.r12.size).reshape(-1, *shape)
        return np.linalg.cond(np.array([op(e).ravel() for e in basis]).T)

    def cond_r12(self):
        """cond_op times the condition of Q, the (1, 2) block of
        K = (1/2) sym(Theta Sigma (B B^T + 2 Abreve P)), under entrywise
        relative perturbations of the closed loop's (Theta, R, N), F and P."""
        inter = network.assemble(*self.subs, np.zeros(self.r12.shape))
        closed = System(inter.closed_theta.theta, inter.closed_r, inter.closed_n, self.f, self.p)
        a, b = closed.abs_ab()
        f = np.abs(self.f)
        k_abs = np.abs(closed.theta) @ f.T @ f @ (b @ b.T + 2.0 * a @ np.abs(self.p))
        n1 = len(self.r12)
        q_abs = 0.25 * (k_abs + k_abs.T)[:n1, n1:]
        q = network.q_matrix(inter, self.w, self.mo)
        return self.cond_op() * np.linalg.norm(q_abs) / np.linalg.norm(q)

    def error_bound(self):
        """Relative error of R12*: rounding, and the conjugate gradients' stopping residual."""
        cg = _CG_RTOL * self.cond_op() if self.method == "LeastSquares" else 0.0
        return gamma(8 * self.order) * self.cond_r12() + cg


def random_subsystem(rng, nu):
    """An oscillator of order 2 nu with R > 0, N and L of two channels each."""
    n = 2 * nu
    return network.SubsystemParams(
        ccr=canonical_ccr(nu), energy=random_spd(rng, n, shift=1.0, scale=1.0 / np.sqrt(n)),
        coupling_external=rng.standard_normal((2, n)), coupling_internal=0.5 * rng.standard_normal((2, n)),
        selector=np.eye(2))


def transformed_subsystem(sub, s):
    """sub in the variables S x."""
    s_inv = np.linalg.inv(s)
    theta = s @ sub.ccr.theta @ s.T
    return network.SubsystemParams(
        ccr=CcrMatrix(0.5 * (theta - theta.T)), energy=sym(s_inv.T @ sub.energy @ s_inv),
        coupling_external=sub.coupling_external @ s_inv, coupling_internal=sub.coupling_internal @ s_inv,
        selector=sub.selector)


@pytest.mark.parametrize("coupled", [False, True])
@settings(derandomize=True, max_examples=15, deadline=None)
@given(seed=SEEDS, nu1=st.integers(1, 2), nu2=st.integers(1, 2))
def test_block_change_of_variables_on_r12(seed, nu1, nu2, coupled):
    rng = np.random.default_rng(seed)
    subs = (random_subsystem(rng, nu1), random_subsystem(rng, nu2))
    n1, n2 = 2 * nu1, 2 * nu2
    # Sigma with (1, 2) blocks takes conjugate gradients, block-diagonal Sigma the Sylvester path.
    f_blocks = [np.eye(k) + 0.3 / np.sqrt(k) * rng.standard_normal((k, k)) for k in (n1, n2)]
    f = scipy.linalg.block_diag(*f_blocks)
    if coupled:
        f = f + 0.3 / np.sqrt(n1 + n2) * rng.standard_normal(f.shape)
    loop0 = Loop(subs, f, random_spd(rng, n1 + n2, scale=1.0 / np.sqrt(n1 + n2)))
    assert loop0.method == ("LeastSquares" if coupled else "Sylvester")
    s_blocks = [np.eye(k) + 0.3 / np.sqrt(k) * rng.standard_normal((k, k)) for k in (n1, n2)]
    s = scipy.linalg.block_diag(*s_blocks)
    loop1 = Loop(tuple(transformed_subsystem(sub, sk) for sub, sk in zip(subs, s_blocks)),
                 loop0.f @ np.linalg.inv(s), sym(s @ loop0.p @ s.T))
    assert loop1.method == loop0.method
    inv1, inv2 = (np.linalg.inv(sk) for sk in s_blocks)
    mapped = inv1.T @ loop0.r12 @ inv2
    c_in = np.linalg.cond(s) ** 2
    tol = c_in * loop0.error_bound() + loop1.error_bound() + gamma(8 * loop0.order) * c_in * loop1.cond_r12()
    assert np.linalg.norm(loop1.r12 - mapped) <= tol * np.linalg.norm(mapped)
