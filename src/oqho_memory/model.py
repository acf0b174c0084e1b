"""Physical parameterization of a single open quantum harmonic oscillator.

An oscillator with n system variables (n even) is described by an
antisymmetric commutation matrix Theta, a symmetric energy matrix R, a
coupling matrix N to m external field channels and a row-selector D picking
0 < r <= m output channels.  The induced state-space realization

    A = 2 Theta (R + N^T J N),   B = 2 Theta N^T,   C = 2 D J N

automatically satisfies the physical-realizability identity

    A Theta + Theta A^T + B J B^T = 0.

A system is a Realization or an (A, B) pair, read in one place, _system.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .numerics import _as_finite, _as_matrix, _asymmetric, _guarded, _norm, _on_axis

__all__ = [
    "J2",
    "CcrMatrix",
    "OqhoParams",
    "Realization",
    "SpectralClass",
    "HURWITZ",
    "MARGINALLY_STABLE",
    "UNSTABLE",
    "canonical_ccr",
    "ito_j",
    "build_realization",
    "check_physical_realizability",
    "classify_spectrum",
]

# Single-channel symplectic unit.
J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])

HURWITZ = "Hurwitz"
MARGINALLY_STABLE = "MarginallyStable"
UNSTABLE = "Unstable"

_SINGULAR_TOL = 1e-10  # Theta is singular when sigma_min <= _SINGULAR_TOL sigma_max


def ito_j(m):
    """Field commutation matrix J = I_{m/2} (x) J2 for m channels (m even)."""
    if m % 2 != 0 or m <= 0:
        raise ValidationError(f"channel count must be even and positive, got {m}")
    j = np.zeros((m, m))
    k = np.arange(0, m, 2)
    j[k, k + 1] = 1.0
    j[k + 1, k] = -1.0
    return j


def canonical_ccr(nu):
    """Canonical position/momentum CCR matrix Theta = (1/2) I_nu (x) J2."""
    return CcrMatrix(0.5 * ito_j(2 * nu))


@dataclass(frozen=True)
class CcrMatrix:
    """Antisymmetric, nonsingular commutation matrix of the system variables."""

    theta: np.ndarray

    @_guarded()  # an overflowing norm fails its check
    def __post_init__(self):
        theta = _as_finite(self.theta, "Theta", square=True).copy()
        object.__setattr__(self, "theta", theta)
        n = theta.shape[0]
        if n % 2 != 0 or n == 0:
            raise ValidationError(f"CCR matrix order must be even and positive, got {n}")
        if _asymmetric(theta, anti=True):
            raise ValidationError("CCR matrix is not antisymmetric")
        sv = np.linalg.svd(theta, compute_uv=False)
        if sv[-1] <= _SINGULAR_TOL * sv[0]:
            raise ValidationError(
                f"CCR matrix singular: smallest singular value {sv[-1]:.3e}"
            )

    @property
    def n(self):
        return self.theta.shape[0]


@dataclass(frozen=True)
class OqhoParams:
    """Energy matrix R, external coupling N and output selector D of one OQHO."""

    ccr: CcrMatrix
    energy: np.ndarray
    coupling: np.ndarray
    selector: np.ndarray

    @_guarded()  # an overflowing norm fails its check
    def __post_init__(self):
        n = self.ccr.n
        r_mat = _as_finite(self.energy, "energy R", n, n).copy()
        n_mat = _as_finite(self.coupling, "coupling N", cols=n).copy()
        m = n_mat.shape[0]
        d_mat = _as_finite(self.selector, "selector D", cols=m).copy()
        object.__setattr__(self, "energy", r_mat)
        object.__setattr__(self, "coupling", n_mat)
        object.__setattr__(self, "selector", d_mat)
        if _asymmetric(r_mat):
            raise ValidationError("energy matrix not symmetric")
        if m % 2 != 0 or m == 0:
            raise ValidationError(f"number of field channels must be even and positive, got {m}")
        r = d_mat.shape[0]
        if r % 2 != 0 or not 0 < r <= m:
            raise ValidationError(f"selector D must have an even number 0 < r <= m of rows, got r={r}")
        j = ito_j(m)
        # Per entry, so that a block-diagonal of valid selectors (a closed loop's) is valid.
        if np.max(np.abs(d_mat @ d_mat.T - np.eye(r))) > 1e-10:
            raise ValidationError("selector rows are not orthonormal (D D^T != I)")
        if np.max(np.abs(d_mat @ j @ d_mat.T - ito_j(r))) > 1e-10:
            raise ValidationError("selector rows do not form conjugate pairs (D J D^T invalid)")

    @property
    def n(self):
        return self.ccr.n

    @property
    def m(self):
        return self.coupling.shape[0]

    @property
    def r(self):
        return self.selector.shape[0]


def _system(system, n=None, f=None):
    """(A, B) of a Realization (anything with .a and .b) or an (A, B) pair, the library's one
    reader of a system: by numerics._as_finite A square (n x n given n) and B with as many
    rows; F (if given, a Weighting's) has as many columns (_as_matrix)."""
    if hasattr(system, "a") and hasattr(system, "b"):
        system = system.a, system.b
    if not isinstance(system, (tuple, list)) or len(system) != 2:
        raise ValidationError(f"a system is a Realization or an (A, B) pair, got {type(system).__name__}")
    a, b = system
    a = _as_finite(a, "A", n, n, square=n is None)
    b = _as_finite(b, "B", rows=len(a))
    if f is not None:
        _as_matrix(f, "F", cols=len(b))
    return a, b


def _optional_matrix(x, name, rows=None, cols=None):
    """None for None, else a copy of x read by numerics._as_finite."""
    return None if x is None else _as_finite(x, name, rows, cols).copy()


@dataclass(frozen=True)
class Realization:
    """State-space quadruple (A, B, C, D) with the Hamiltonian split A = A0 + Atilde.

    _system reads A and B.  C (n columns), D (C's rows, m columns), A0 and
    Atilde (n x n) may each be None; _optional_matrix reads the others.
    Every matrix is stored as a copy.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    a0: np.ndarray = None
    a_tilde: np.ndarray = None

    def __post_init__(self):
        a, b = _system(self)
        n, m = b.shape
        c = _optional_matrix(self.c, "C", cols=n)
        d = _optional_matrix(self.d, "D", None if c is None else len(c), m)
        a0 = _optional_matrix(self.a0, "A0", n, n)
        a_tilde = _optional_matrix(self.a_tilde, "Atilde", n, n)
        for name, x in zip(("a", "b", "c", "d", "a0", "a_tilde"), (a.copy(), b.copy(), c, d, a0, a_tilde)):
            object.__setattr__(self, name, x)

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def m(self):
        return self.b.shape[1]


@_guarded()  # the realization is a record, so overflow is checked below
def build_realization(params):
    """State-space matrices of the OQHO induced by (Theta, R, N, D).

    Raises NumericalError when A, B or C overflows.
    """
    theta = params.ccr.theta
    r_mat = params.energy
    n_mat = params.coupling
    d_mat = params.selector
    j = ito_j(params.m)

    a0 = 2.0 * theta @ r_mat
    a_tilde = 2.0 * theta @ n_mat.T @ j @ n_mat
    a = a0 + a_tilde
    b = 2.0 * theta @ n_mat.T
    c = 2.0 * d_mat @ j @ n_mat
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b)) and np.all(np.isfinite(c))):
        raise NumericalError("the realization (A, B, C) overflows: energy or coupling entries too large")
    return Realization(a=a, b=b, c=c, d=d_mat, a0=a0, a_tilde=a_tilde)


@_guarded("the physical-realizability residual")
def check_physical_realizability(a, b, ccr):
    """Frobenius residual of A Theta + Theta A^T + B J B^T = 0."""
    theta = ccr.theta
    a, b = _system((a, b), ccr.n)
    return float(_norm(a @ theta + theta @ a.T + b @ ito_j(b.shape[1]) @ b.T))


@dataclass(frozen=True)
class SpectralClass:
    """Eigenvalues of A with a stability category and a bisector flag.

    on_bisectors is true when some eigenvalue of A is purely imaginary
    (within tolerance), i.e. some square root of an eigenvalue lies on the
    two lines |Re| = |Im| bisecting the orthants of the complex plane.
    """

    eigenvalues: np.ndarray
    category: str
    on_bisectors: bool


@_guarded()  # eigvals and ||A|| of a huge A: the eigenvalues are checked
def classify_spectrum(a):
    """Stability classification of a real square matrix by its eigenvalues (numpy's: scipy
    1.17 shrinks those of an A above ~1.5e138 to that size), each on the axis or not by
    numerics._on_axis."""
    a = _as_finite(a, "A", square=True)
    try:
        eigs = np.linalg.eigvals(a).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigenvalue computation failed (cond(A) ~ {np.linalg.cond(a):.3e}): {exc}"
        ) from exc
    if not np.isfinite(eigs).all():
        raise NumericalError("an eigenvalue of A overflows")
    on_axis = _on_axis(eigs, a)
    if np.any((eigs.real > 0) & ~on_axis):
        category = UNSTABLE
    elif on_axis.any():
        category = MARGINALLY_STABLE
    else:
        category = HURWITZ
    return SpectralClass(eigenvalues=eigs, category=category, on_bisectors=bool(on_axis.any()))
