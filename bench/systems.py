"""Seeded generator of physically realizable oscillators for the benchmark.

Every system uses the canonical commutation matrix Theta = (1/2) I (x) J2,
so A = 2 Theta (R + N^T J N) and B = 2 Theta N^T satisfy the realizability
identity by construction.  Each constructor checks the spectral class it
promises with plain numpy eigenvalues, so a generator change that breaks
the promise fails loudly instead of silently changing the workload.

- Hurwitz: R > 0 and N = I + a small perturbation.  With N = I the field
  term 2 Theta N^T J N is -I, so Re(lambda) sits near -1 at every n.
- Marginal with noise: two field channels whose rows are proportional, so
  N^T J N = 0 while B != 0; A = 2 Theta R then has a purely imaginary,
  simple spectrum.
- Interconnection pairs: two Hurwitz subsystems joined through small
  internal couplings L1, L2; the closed loop is checked to stay Hurwitz.

The seed changes structure, not scale: ||R|| is fixed, and P (Hurwitz) or
the noise row (marginal) is scaled to a fixed tau' = ||F sqrt(P)||^2 /
||F B||^2.  tau' sets the scan horizon and the crossing time, so fixing it
keeps the work per operation nearly the same for every seed.
"""

from dataclasses import dataclass

import numpy as np

HURWITZ = "Hurwitz"
MARGINAL = "MarginallyStable"
TAU_PRIME_HURWITZ = 1.5  # marginal systems get tau' = n


def j_matrix(m):
    """Field commutation matrix I_{m/2} (x) J2."""
    return np.kron(np.eye(m // 2), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def canonical_theta(n):
    return 0.5 * j_matrix(n)


@dataclass(frozen=True)
class Single:
    """One oscillator with its weighting factor F and initial moments P."""

    kind: str
    theta: np.ndarray
    energy: np.ndarray
    coupling: np.ndarray
    weight_f: np.ndarray
    moments_p: np.ndarray

    @property
    def n(self):
        return self.theta.shape[0]

    @property
    def a(self):
        nn = self.coupling
        return 2.0 * self.theta @ (self.energy + nn.T @ j_matrix(nn.shape[0]) @ nn)

    @property
    def b(self):
        return 2.0 * self.theta @ self.coupling.T


@dataclass(frozen=True)
class Subsystem:
    theta: np.ndarray
    energy: np.ndarray
    coupling: np.ndarray
    coupling_internal: np.ndarray
    selector: np.ndarray

    @property
    def n(self):
        return self.theta.shape[0]


@dataclass(frozen=True)
class Pair:
    """Two subsystems plus closed-loop weighting F, moments P and R12."""

    sub1: Subsystem
    sub2: Subsystem
    weight_f: np.ndarray
    moments_p: np.ndarray
    r12: np.ndarray


def _spd(rng, n, spread=1.0, norm=5.0):
    """Random symmetric positive definite matrix with spectral norm `norm`.

    Fixing the norm keeps ||A|| (and so the work per Delta evaluation and
    the scan horizon) nearly the same for every seed at a given n.
    """
    g = rng.standard_normal((n, n)) / np.sqrt(n)
    s = np.eye(n) + spread * (g @ g.T)
    s = 0.5 * (s + s.T)
    return (norm / np.linalg.norm(s, 2)) * s


def _moments(rng, n):
    # I + G G^T / 2 has norm below 3 (Marchenko-Pastur), so lambda_min > 2/3.
    return _spd(rng, n, 0.5, norm=2.0)


def _tau_prime(f, p, b):
    return float(np.trace(f @ p @ f.T) / np.linalg.norm(f @ b) ** 2)


def _admissible(theta, p):
    return float(np.min(np.linalg.eigvalsh(p + 1j * theta))) > 1e-3


def _max_real_eig(a):
    return float(np.max(np.linalg.eigvals(a).real))


def _require(ok, message):
    if not ok:
        raise RuntimeError(f"generator broke its promise: {message}")


def hurwitz(rng, n, f_rows=None):
    """Hurwitz oscillator; F has f_rows rows (fewer than n makes Sigma singular)."""
    theta = canonical_theta(n)
    energy = _spd(rng, n)
    coupling = np.eye(n) + 0.1 * rng.standard_normal((n, n)) / np.sqrt(n)
    f_rows = n if f_rows is None else f_rows
    weight_f = np.eye(f_rows, n) + 0.1 * rng.standard_normal((f_rows, n)) / np.sqrt(n)
    p = _moments(rng, n)
    p *= TAU_PRIME_HURWITZ / _tau_prime(weight_f, p, 2.0 * theta @ coupling.T)
    s = Single(HURWITZ, theta, energy, coupling, weight_f, p)
    _require(_max_real_eig(s.a) < -0.3, f"A not Hurwitz at n={n}")
    _require(_admissible(theta, p), f"P + i Theta not PSD at n={n}")
    return s


def marginal(rng, n):
    """Marginally stable oscillator driven by noise (N^T J N = 0, B != 0)."""
    theta = canonical_theta(n)
    energy = _spd(rng, n)
    row = rng.standard_normal(n)
    weight_f = np.eye(n) + 0.1 * rng.standard_normal((n, n)) / np.sqrt(n)
    p = _moments(rng, n)
    row *= np.sqrt(_tau_prime(weight_f, p, 2.0 * theta @ row[:, None]) / (1.25 * n))
    coupling = np.vstack([row, 0.5 * row])
    s = Single(MARGINAL, theta, energy, coupling, weight_f, p)
    eigs = np.linalg.eigvals(s.a)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    _require(np.max(np.abs(eigs.real)) < 1e-10 * scale, f"A not marginal at n={n}")
    gaps = np.abs(eigs[:, None] - eigs[None, :]) + np.diag(np.full(n, np.inf))
    _require(np.min(gaps) > 1e-6 * scale, f"repeated frequencies at n={n}")
    _require(np.linalg.norm(s.b) > 0.1, "noise input vanished")
    return s


def _subsystem(rng, n):
    theta = canonical_theta(n)
    return Subsystem(
        theta=theta,
        energy=_spd(rng, n),
        coupling=np.eye(n) + 0.1 * rng.standard_normal((n, n)) / np.sqrt(n),
        coupling_internal=0.2 * rng.standard_normal((2, n)) / np.sqrt(n),
        selector=np.eye(2, n),
    )


def closed_loop(pair, r12=None):
    """Closed-loop (Theta, R, N) of a pair from the feedback formulas."""
    s1, s2 = pair.sub1, pair.sub2
    r12 = pair.r12 if r12 is None else r12
    j1, j2 = j_matrix(s1.coupling.shape[0]), j_matrix(s2.coupling.shape[0])
    l1, l2, d1, d2 = s1.coupling_internal, s2.coupling_internal, s1.selector, s2.selector
    r_field = l1.T @ d2 @ j2 @ s2.coupling - s1.coupling.T @ j1 @ d1.T @ l2
    r_cl = np.block([[s1.energy, r12 + r_field], [(r12 + r_field).T, s2.energy]])
    n_cl = np.block([[s1.coupling, d1.T @ l2], [d2.T @ l1, s2.coupling]])
    theta = np.block([
        [s1.theta, np.zeros((s1.n, s2.n))],
        [np.zeros((s2.n, s1.n)), s2.theta],
    ])
    return theta, r_cl, n_cl, r_field


def closed_loop_ab(pair, r12=None):
    theta, r_cl, n_cl, _ = closed_loop(pair, r12)
    a = 2.0 * theta @ (r_cl + n_cl.T @ j_matrix(n_cl.shape[0]) @ n_cl)
    return a, 2.0 * theta @ n_cl.T


def pair(rng, n1, n2, coupled_moments=True):
    """Hurwitz interconnection of two subsystems.

    With coupled_moments the closed-loop P and Sigma have nonzero off-diagonal
    blocks; otherwise P is block diagonal (the Sylvester case for R12*).
    """
    n = n1 + n2
    weight_f = np.eye(n) + 0.1 * rng.standard_normal((n, n)) / np.sqrt(n)
    if coupled_moments:
        p = _moments(rng, n)
    else:
        p = np.zeros((n, n))
        p[:n1, :n1] = _moments(rng, n1)
        p[n1:, n1:] = _moments(rng, n2)
    pr = Pair(_subsystem(rng, n1), _subsystem(rng, n2), weight_f, p,
              0.1 * rng.standard_normal((n1, n2)) / np.sqrt(n))
    a, b = closed_loop_ab(pr)
    p *= TAU_PRIME_HURWITZ / _tau_prime(weight_f, p, b)
    _require(_max_real_eig(a) < -0.3, f"closed loop not Hurwitz at n1={n1}, n2={n2}")
    _require(_admissible(closed_loop(pr)[0], p), f"P + i Theta not PSD at n1={n1}, n2={n2}")
    return pr
