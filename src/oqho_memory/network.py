"""Coherent feedback interconnection of two oscillators.

Two OQHOs are coupled directly through an energy cross-term R12 and
indirectly through exchanged output fields (internal couplings L1, L2).
The closed loop is again an OQHO over the stacked variables; its block
state-space assembly must coincide with the realization built from the
closed-loop (Theta, R, N), which is the module's central consistency
identity, and the closed loop's C and A0 are read from that realization.
The fields add Rtilde12 to the energy cross-term; the zero-Hamiltonian R12
is -Rtilde12.  optimal_r12 solves the closed-loop stationarity equation of
design for the direct coupling matrix, restricted to the off-diagonal
blocks, with the constant Q = q_matrix, the (1, 2) block of design.k_matrix.
"""

from dataclasses import dataclass

import numpy as np

from .design import _stationary_point, k_matrix
from .errors import NumericalError
from .model import CcrMatrix, OqhoParams, Realization, build_realization, ito_j
from .numerics import _as_finite, _as_matrix, _guarded, _norm

__all__ = [
    "SubsystemParams",
    "Interconnection",
    "assemble",
    "zero_hamiltonian_r12",
    "q_matrix",
    "optimal_r12",
]

_CONSISTENCY_TOL = 1e-10


@dataclass(frozen=True)
class SubsystemParams:
    """One constituent oscillator with an extra internal coupling L.

    coupling_internal (L) couples this oscillator to the selected output of
    the other one, so L for subsystem k has r_{3-k} rows.
    """

    ccr: CcrMatrix
    energy: np.ndarray
    coupling_external: np.ndarray
    coupling_internal: np.ndarray
    selector: np.ndarray

    def __post_init__(self):
        # Reuse single-oscillator validation for (Theta, R, N, D), and its copies.
        params = OqhoParams(ccr=self.ccr, energy=self.energy, coupling=self.coupling_external,
                            selector=self.selector)
        object.__setattr__(self, "energy", params.energy)
        object.__setattr__(self, "coupling_external", params.coupling)
        object.__setattr__(self, "selector", params.selector)
        internal = _as_finite(self.coupling_internal, "internal coupling L", cols=self.ccr.n).copy()
        object.__setattr__(self, "coupling_internal", internal)

    @property
    def n(self):
        return self.ccr.n

    @property
    def m(self):
        return self.coupling_external.shape[0]

    @property
    def r(self):
        return self.selector.shape[0]


@dataclass(frozen=True)
class Interconnection:
    sub1: SubsystemParams
    sub2: SubsystemParams
    r12: np.ndarray
    closed_theta: CcrMatrix
    closed_r: np.ndarray
    closed_n: np.ndarray
    closed_realization: Realization
    consistency_residual: float


def _blocks(diag1, diag2, upper=None, lower=None):
    """[[diag1, upper], [lower, diag2]] filled into one preallocated array.

    The diagonal blocks set the sizes; an off-diagonal block left as None is
    zero, so _blocks(x, y) is the block-diagonal matrix of x and y.
    """
    (h1, w1), (h2, w2) = diag1.shape, diag2.shape
    out = np.zeros((h1 + h2, w1 + w2))
    out[:h1, :w1] = diag1
    out[h1:, w1:] = diag2
    if upper is not None:
        out[:h1, w1:] = upper
    if lower is not None:
        out[h1:, :w1] = lower
    return out


def _field_cross_term(sub1, sub2):
    """Rtilde12 = L1^T D2 J_2 N2 - N1^T J_1 D1^T L2, the (1, 2) block of the
    closed-loop energy matrix that the exchanged fields contribute.  L_k couples
    to the other subsystem's selected outputs, so it must have r_{3-k} rows."""
    l1 = _as_matrix(sub1.coupling_internal, "L1", rows=sub2.r)
    l2 = _as_matrix(sub2.coupling_internal, "L2", rows=sub1.r)
    return (l1.T @ sub2.selector @ ito_j(sub2.m) @ sub2.coupling_external
            - sub1.coupling_external.T @ ito_j(sub1.m) @ sub1.selector.T @ l2)


@_guarded()  # the closed loop is a record; overflow fails the consistency test
def assemble(sub1, sub2, r12):
    """Closed-loop OQHO of the two-oscillator coherent feedback loop."""
    r12 = _as_finite(r12, "R12", sub1.n, sub2.n)
    r12_closed = r12 + _field_cross_term(sub1, sub2)
    if not np.isfinite(r12_closed).all():
        raise NumericalError("R12 plus the field cross-term Rtilde12 is not finite: the internal "
                             "and external couplings are too large")

    subs = (sub1, sub2)
    thetas = [s.ccr.theta for s in subs]
    js = [ito_j(s.m) for s in subs]
    jt = [s.selector @ ito_j(s.m) @ s.selector.T for s in subs]  # selected-output CCRs
    r_cross = [r12, r12.T]

    a_blk, b_blk, c_blk, e_blk, f_blk = [], [], [], [], []
    for k in range(2):
        o = 1 - k
        s = subs[k]
        nk, lk, dk = s.coupling_external, s.coupling_internal, s.selector
        a_blk.append(2.0 * thetas[k] @ (s.energy + nk.T @ js[k] @ nk + lk.T @ jt[o] @ lk))
        b_blk.append(2.0 * thetas[k] @ nk.T)
        c_blk.append(2.0 * dk @ js[k] @ nk)
        e_blk.append(2.0 * thetas[k] @ lk.T)
        f_blk.append(2.0 * thetas[k] @ r_cross[k])

    a_closed = _blocks(a_blk[0], a_blk[1],
                       f_blk[0] + e_blk[0] @ c_blk[1], f_blk[1] + e_blk[1] @ c_blk[0])
    b_closed = _blocks(b_blk[0], b_blk[1],
                       e_blk[0] @ subs[1].selector, e_blk[1] @ subs[0].selector)

    # Closed-loop physical parameters.
    closed_r = _blocks(sub1.energy, sub2.energy, r12_closed, r12_closed.T)
    closed_n = _blocks(sub1.coupling_external, sub2.coupling_external,
                       sub1.selector.T @ sub2.coupling_internal, sub2.selector.T @ sub1.coupling_internal)
    closed_theta = CcrMatrix(_blocks(thetas[0], thetas[1]))

    # The block assembly must reproduce the PR construction from (Theta, R, N).
    ref = build_realization(OqhoParams(
        ccr=closed_theta,
        energy=closed_r,
        coupling=closed_n,
        selector=np.eye(closed_n.shape[0]),
    ))
    residual = float(max(_norm(ref.a - a_closed), _norm(ref.b - b_closed)))
    scale = max(_norm(a_closed), _norm(b_closed))
    if not (np.isfinite(residual) and residual <= _CONSISTENCY_TOL * scale):
        raise NumericalError(
            f"closed-loop assembly inconsistent with PR construction (residual {residual:.3e}, "
            f"scale {scale:.3e}): the closed loop overflows, or the implementation is wrong"
        )

    d_closed = _blocks(sub1.selector, sub2.selector)
    realization = Realization(a=a_closed, b=b_closed, c=d_closed @ ref.c, d=d_closed,
                              a0=ref.a0, a_tilde=a_closed - ref.a0)
    return Interconnection(
        sub1=sub1,
        sub2=sub2,
        r12=r12,
        closed_theta=closed_theta,
        closed_r=closed_r,
        closed_n=closed_n,
        closed_realization=realization,
        consistency_residual=residual,
    )


@_guarded("the zero-Hamiltonian R12")
def zero_hamiltonian_r12(sub1, sub2):
    """Direct coupling cancelling the field-mediated energy cross-term.

    Returns (R12, warning) where warning is set when R1 or R2 is nonzero, in
    which case the closed-loop energy matrix cannot vanish.
    """
    r12 = -_field_cross_term(sub1, sub2)
    warning = None
    if sub1.energy.any() or sub2.energy.any():
        warning = "R1 or R2 nonzero: closed-loop energy matrix will not vanish"
    return r12, warning


def q_matrix(interconnection, weighting, moments):
    """(1,2) block of the closed-loop stationarity constant K (design.k_matrix).

    K is taken with Atilde = Abreve, the closed-loop A with the direct
    coupling R12 removed, A - 2 Theta [[0, R12], [R12^T, 0]], i.e. built from
    blockdiag(R1, R2) + Rtilde + N^T J N.
    """
    n1, n2 = interconnection.sub1.n, interconnection.sub2.n
    r12 = interconnection.r12
    direct = _blocks(np.zeros((n1, n1)), np.zeros((n2, n2)), r12, r12.T)
    a_breve = interconnection.closed_realization.a - 2.0 * interconnection.closed_theta.theta @ direct
    k = k_matrix(interconnection.closed_theta, weighting,
                 interconnection.closed_realization.b, a_breve, moments)
    return k[:n1, n1:]


@_guarded()  # _stationary_point checks R12* and its residual
def optimal_r12(sub1, sub2, weighting, moments):
    """(R12, residual, method): the minimum-norm direct coupling solving the
    closed-loop stationarity equation, from design._stationary_point."""
    base = assemble(sub1, sub2, np.zeros((sub1.n, sub2.n)))
    return _stationary_point(base.closed_theta.theta, weighting, moments,
                             q_matrix(base, weighting, moments), sub1.n)
