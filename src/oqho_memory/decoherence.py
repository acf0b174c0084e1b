"""Memory decoherence time and its small-fidelity expansion.

tau(eps) is the first time the deviation Delta(t) exceeds the relative
threshold eps tr(F P F^T) (inf over an empty set is +inf).  tau is
located by a dense grid scan, and Brent's method (Brent 1973, Algorithms for
Minimization without Derivatives, ch. 4) refines the first bracketing
interval; a pure root-finder could miss early excursions of an oscillatory
Delta.  Scan, refinement and the t -> inf limit behind the Hurwitz
certificate share one dynamics.DeviationEvaluator, and each point costs
O(n^2) on its spectral path (the Van Loan path when A is defective or its
eigenvectors ill-conditioned).

A tau has two halves.  The per-system half does not depend on eps: the
evaluator, the _Expansion (one delta_derivatives), the horizon, the grid and
the a-priori bound over it.  _set_up keeps the last one built, keyed by the
shape and bytes of A, B, F and P and by horizon and grid_points as passed, so
tau at several eps builds it once, and a system changed in place, or another
horizon or grid_points, is built again.  The key holds no module limit of
dynamics: code that patches one, or _delta_bound, keeps its set-ups out of
the memo.  The per-eps half runs on every call: the threshold, tau_hat, the
scan from the certified prefix, the certificate, Brent's method and the
report.  A set-up that raises is not memoized, and the inputs are checked on
every call.  The set-up reads F scaled by a power of two to unit size, so
Delta and the threshold that the scan compares stay in the normal range at
any scale of F; the report keeps the threshold at F.  _set_up is the
library's one process-wide state: delta and the others build their own
evaluator on every call.

The scan skips the grid's prefix where an a-priori bound certifies Delta
below the threshold.  dynamics._delta_bound is nondecreasing in t, of order
K = 4 in x = alpha t:

    Delta(t) <= r_s(t)^2 + t r_n(t)^2,
    r_s(t) = sum_{j=1}^{K-1} (x^j / j!) ||F Ah^j P^{1/2}||_F + phi sqrt(tr P) T_K(x),
    r_n(t) = ||F B||_F + sum_{j=1}^{K-1} (x^j / j!) ||F Ah^j B||_F + phi ||B||_F T_K(x),

with alpha >= ||A||_2, Ah = A / alpha, phi >= ||F||_2 and the Taylor tail
T_K(x) = sum_{j >= K} x^j / j!: each term bounds its own part of the series
of e^{tA}, with ||A^j||_2 <= alpha^j (Moler & Van Loan 2003).  It costs
O(K n^3) once, in the set-up, and O(K) a grid point.  A point
whose bound is at most half the threshold is decided without evaluating
Delta; the margin of 1/2 leaves room for rounding in Delta and in the bound.
The scan is one DeviationEvaluator.scan from the last such point (the
bracket's lower end if the crossing comes next) up to the first point above
the threshold, so the bracket, tau and the certificate are those of a scan
from t = 0.  Should that first point be above the threshold, Delta there
is off by more than half the threshold or the bound is wrong, and a
NumericalError names the time, Delta and the bound.  The bound's norms and
products are formed so that it under- or overflows only where its value
does.  Brent's method refines Delta / threshold - 1, O(1) near tau at any
threshold (one that underflows to 0 is a NumericalError), a point per step;
on the bracket [0, grid[0]] its tolerance is that of t = 0.  The report names
the path and counts the Delta evaluations made: the scanned points up to and
including the crossing, and Brent's steps.  The expansion coefficients are

    tau'  = tr(F P F^T) / ||F B||^2,
    tau'' = -ddot(Delta) * tau'^2 / dot(Delta),
    tau_hat(eps) = tau' eps + (1/2) tau'' eps^2,

each formed by _Expansion only and checked there.  Every function that takes
a system takes a Realization or an (A, B) pair, read by model._system.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (DeviationEvaluator, _check_grid_points, _check_horizon, _delta_bound, _dot_delta,
                       _weighted_trace, delta_derivatives, time_scale)
from .errors import NumericalError, PreconditionError
from .model import _system
from .numerics import _as_finite, _as_matrix, _exponent, _guarded, _LastValue

__all__ = [
    "DecoherenceReport",
    "decoherence_time",
    "tau_prime",
    "tau_second",
    "tau_hat",
    "CERT_DELTA_ZERO",
    "CERT_HURWITZ",
    "CERT_INCONCLUSIVE",
    "CERT_CROSSING",
]

# What each certificate proves; DecoherenceReport says what two of them do not.
CERT_DELTA_ZERO = "delta_identically_zero"  # A = B = 0: Delta = 0 and tau = inf
CERT_HURWITZ = "hurwitz_below_threshold"  # no grid point above the threshold, Delta(inf) at most it
CERT_INCONCLUSIVE = "horizon_exhausted"  # no grid point above the threshold, and A not certified
CERT_CROSSING = "crossing_found"  # tau in the first grid interval that ends above the threshold

_MAX_REFINEMENTS = 200
_BRENT_RTOL = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class DecoherenceReport:
    """One tau(eps) and how it was found.  The certificate proves what its
    CERT_* comment says, no more: crossing_found need not be the first
    crossing (one before grid[0], or inside an interval whose ends are both
    below the threshold, is not looked at), and hurwitz_below_threshold is
    not tau = inf (Delta may overshoot its limit after the horizon)."""

    epsilon: float
    threshold: float
    tau: float
    tau_prime: float
    tau_second: float
    tau_hat: float
    horizon_used: float
    certificate: str
    grid_points: int
    bisection_iterations: int  # Delta evaluations of Brent's refinement (old name)
    expansion_valid: bool  # false when FB = 0 and the eps-expansion is inapplicable
    # Delta evaluations made: the grid points scanned, from the last one whose
    # a-priori bound (dynamics._delta_bound) is at most half the threshold up
    # to and including the first one above the threshold, plus the
    # refinement's evaluations; 0 when the bound certifies the whole grid.
    # A first scanned point that the bound certifies but Delta puts above the
    # threshold is a NumericalError, not a count.
    # The scan evaluates whole blocks of dynamics._SCAN_BLOCK points, so up
    # to _SCAN_BLOCK - 1 points after the crossing are computed but not counted.
    delta_evaluations: int
    delta_path: str  # dynamics.SPECTRAL or dynamics.VAN_LOAN


@dataclass(frozen=True)
class _Expansion:
    """What the small-eps expansion of tau reads for one system: the threshold
    scale tr(F P F^T) and (dot, ddot) = delta_derivatives, dot = ||F B||^2.
    tau', tau'' and tau_hat are formed here only, and checked where formed."""

    scale: float
    dot: float
    ddot: float = 0.0  # tau' reads no ddot

    def coefficients(self):
        """(tau', tau''), or (inf, nan) when F B = 0.  PreconditionError when
        the scale is 0, NumericalError when a value is not finite."""
        if self.scale == 0.0:
            raise PreconditionError("F P F^T = 0: decoherence time undefined")
        tp = self.scale / self.dot if self.dot else math.inf
        ts = -self.ddot * tp * tp / self.dot if self.dot else math.nan
        checked = (self.scale, self.dot, tp, ts) if self.dot else (self.scale, self.dot)
        if not all(map(math.isfinite, checked)):
            raise NumericalError(f"tau' = {tp} or tau'' = {ts} is not finite "
                                 f"(tr(F P F^T) = {self.scale}, ||F B||^2 = {self.dot})")
        return tp, ts

    def tau_hat(self, epsilon):
        """tau' eps + (1/2) tau'' eps^2: nan when F B = 0, else finite or NumericalError."""
        tp, ts = self.coefficients()
        value = tp * epsilon + 0.5 * ts * epsilon * epsilon
        if self.dot and not math.isfinite(value):
            raise NumericalError(f"tau_hat at eps = {epsilon:.6g} is not finite ({value})")
        return value


def _check_epsilon(epsilon):
    """PreconditionError unless epsilon is a finite positive number (not a bool)."""
    if isinstance(epsilon, (bool, np.bool_)) or not (math.isfinite(epsilon) and epsilon > 0):
        raise PreconditionError(f"epsilon must be finite and positive, got {epsilon!r}")


def _expansion(system, weighting, moments, applicable=False):
    """The _Expansion of a Realization or (A, B) pair, from one delta_derivatives
    call; with applicable, PreconditionError when F B = 0."""
    dot, ddot = delta_derivatives(*_system(system), weighting, moments)
    if applicable and dot == 0.0:
        raise PreconditionError("F B = 0: eps-expansion of tau inapplicable")
    return _Expansion(_weighted_trace(weighting.f, moments.p), dot, ddot)


@_guarded()  # tau' = inf is a result; _Expansion raises when a value overflows
def tau_prime(b, weighting, moments):
    """Signal-to-noise-like ratio tr(F P F^T) / ||F B||^2 (time units).

    Returns +inf when F B = 0, in which case the small-eps expansion of tau
    does not apply.  Raises NumericalError when either overflows.
    """
    n = moments.p.shape[0]
    b = _as_finite(b, "B", rows=n)
    _as_matrix(weighting.f, "F", cols=n)
    return _Expansion(_weighted_trace(weighting.f, moments.p), _dot_delta(weighting.f, b)).coefficients()[0]


@_guarded()  # _Expansion checks what it forms
def tau_second(system, weighting, moments):
    """Second derivative of tau in eps at 0: -ddot(Delta) tau'^2 / dot(Delta);
    PreconditionError when F B = 0."""
    return _expansion(system, weighting, moments, applicable=True).coefficients()[1]


@_guarded()  # _Expansion checks what it forms
def tau_hat(system, weighting, moments, epsilon):
    """Quadratic approximation tau' eps + (1/2) tau'' eps^2; PreconditionError
    unless eps is finite and positive, or when F B = 0."""
    _check_epsilon(epsilon)
    return _expansion(system, weighting, moments, applicable=True).tau_hat(epsilon)


def _hybrid_grid(horizon, points):
    """Log+linear hybrid grid of points distinct times on (0, horizon]; dense
    near 0 and uniform overall.  A log part of two or more points ends at the
    horizon too, so the linear part takes one point more."""
    n_log = points // 2
    n_lin = points - n_log + (n_log > 1)
    log_part = np.geomspace(horizon * 1e-8, horizon, n_log)
    lin_part = np.linspace(horizon / n_lin, horizon, n_lin)
    return np.unique(np.concatenate([log_part, lin_part]))


@_LastValue
def _set_up(key, a, b, weighting, moments, horizon, grid_points):
    """(evaluator, expansion, horizon, grid, bound, shift): the eps-independent
    half of a tau, horizon resolved (None is 50 max(tau', time_scale(A)), tau'
    read as 0 when F B = 0), memoized by key; a system whose expansion
    coefficients raise is not memoized.  Evaluator, expansion and bound are
    built on F 2^shift, whose largest entry is in [1, 2): Delta, the threshold
    and the bound are 4^shift theirs at F, exactly while both stay normal,
    and normal at any scale of F."""
    shift = 1 - _exponent(weighting.f)
    weighting = weighting._scaled(shift)
    evaluator = DeviationEvaluator(a, b, weighting, moments)
    expansion = _expansion((a, b), weighting, moments)
    tp = expansion.coefficients()[0]
    if horizon is None:
        horizon = 50.0 * max(tp if math.isfinite(tp) else 0.0, time_scale(a))
    grid = _hybrid_grid(horizon, grid_points)
    bound = _delta_bound(a, b, weighting.f, moments.p, expansion.dot, grid)
    return evaluator, expansion, horizon, grid, bound, shift


@_guarded()  # the report is a record; the scan and _brent check their values
def decoherence_time(system, weighting, moments, epsilon, horizon=None, grid_points=2000):
    """Decoherence time tau(eps) with a crossing or no-crossing certificate.

    The scan evaluates Delta on a hybrid log/linear grid of grid_points (at
    most MAX_GRID_POINTS, else PreconditionError) points over [0, horizon]
    in one DeviationEvaluator.scan; Brent's method refines the interval
    before the first point above the threshold to a few ulps (NumericalError
    if it takes more than _MAX_REFINEMENTS steps).  Grid points where the
    a-priori bound dynamics._delta_bound is at most half the threshold are
    not evaluated: the scan starts at the last of them, which leaves the
    bracket, tau and the certificate as a scan from t = 0 finds them, and
    delta_evaluations counts the points scanned up to and including the
    crossing plus Brent's steps.  Should that last certified point read above
    the threshold, Delta or the bound is in error: NumericalError, naming the
    time, Delta there and the bound.  A summand that is not finite at a
    scanned point at or before the crossing raises NumericalError; points
    after it are not looked at.  +inf is returned with a certificate: the
    deviation is identically zero, or A is Hurwitz with its limit below the
    threshold; otherwise the horizon was exhausted and the result is
    inconclusive.  What eps does not change, from the evaluator to the
    bound over the grid, comes from _set_up, memoized by the system's value.
    """
    _check_epsilon(epsilon)
    a, b = _system(system)
    if horizon is not None:
        _check_horizon(horizon)
    _check_grid_points(grid_points, "grid_points")
    key = tuple(x for m in (a, b, weighting.f, moments.p) for x in (m.shape, m.tobytes())) + (horizon, grid_points)
    evaluator, expansion, horizon, grid, bound, shift = _set_up(key, a, b, weighting, moments, horizon, grid_points)
    tp, ts = expansion.coefficients()
    hat = expansion.tau_hat(epsilon)
    # The scan, the bound and Brent's method read F 2^shift: Delta, the bound
    # and this threshold are 4^shift theirs at F.  The report keeps F's.
    threshold = float(epsilon * expansion.scale)
    scale = float(np.ldexp(expansion.scale, -2 * shift))  # tr(F P F^T)
    if scale == math.inf:
        raise NumericalError("tr(F P F^T) overflows")
    reported = float(epsilon * scale)
    if not reported:
        raise NumericalError(f"the threshold eps tr(F P F^T) = {epsilon:.6g} * {scale:.6g} underflows to 0")
    # Delta <= bound <= threshold / 2 on the certified prefix of the grid.  The
    # scan starts at its last point, the bracket's lower end if the crossing
    # comes next, and skips the whole grid when every point is certified.
    certified = bound <= 0.5 * threshold
    start = len(grid) if certified.all() else max(int(np.argmin(certified)) - 1, 0)
    times = grid[start:]
    k, sig, noise = evaluator.scan(times, threshold)
    tau, steps = math.inf, 0
    if k == len(times):
        if not (a.any() or b.any()):  # Delta = 0
            certificate = CERT_DELTA_ZERO
        else:
            try:
                below = evaluator.hurwitz_limit() <= threshold
            except PreconditionError:  # A is not Hurwitz
                below = False
            certificate = CERT_HURWITZ if below else CERT_INCONCLUSIVE
    elif start and not k:  # Delta is off by more than threshold / 2, or the bound is wrong
        unscaled = np.ldexp([sig[0] + noise[0], threshold, bound[start]], -2 * shift)
        raise NumericalError("Delta at t = {:.6g} is {:.6g}, above the threshold {:.6g}, where the a-priori "
                             "bound {:.6g} is at most half of it".format(times[0], *unscaled))
    else:
        # Delta / threshold - 1 keeps Brent's products from underflowing at a
        # tiny threshold.  The bracket's end values come from the scan, so
        # their signs are the scan's; at k = 0 the lower end is t = 0, where
        # Delta = 0, and the tolerance is that end's, for a crossing far below grid[0].
        certificate, r = CERT_CROSSING, (sig + noise) / threshold - 1.0
        lo, r_lo = (times[k - 1], r[k - 1]) if k else (0.0, -1.0)
        tau, steps = _brent(lambda t: evaluator._delta_at(t) / threshold - 1.0, lo, r_lo,
                            times[k], r[k], 4.0 * np.spacing(times[k] if k else 0.0))
    return DecoherenceReport(
        epsilon=float(epsilon), threshold=reported, tau=tau, tau_prime=tp, tau_second=ts, tau_hat=hat,
        horizon_used=float(horizon), certificate=certificate, grid_points=grid_points,
        bisection_iterations=steps, expansion_valid=math.isfinite(tp),
        delta_evaluations=min(k + 1, len(times)) + steps, delta_path=evaluator.path)


# A trial step that overflows or divides by 0 is inf or nan, fails the step
# test and bisects, as in C.
@_guarded()
def _brent(f, a, fa, b, fb, xtol):
    """(x, steps): a root of f in [a, b] by Brent's method (Brent 1973, ch. 4),
    step for step as scipy.optimize.brentq with rtol _BRENT_RTOL, given
    fa = f(a) and fb = f(b) of opposite signs.  Each step is one call of f;
    NumericalError after _MAX_REFINEMENTS steps."""
    if fa == 0.0 or fb == 0.0:
        return float(a if fa == 0.0 else b), 0
    pre, fpre, cur, fcur = map(np.float64, (a, fa, b, fb))
    blk = fblk = spre = scur = 0.0
    for steps in range(_MAX_REFINEMENTS):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            blk, fblk = pre, fpre
            spre = scur = cur - pre
        if abs(fblk) < abs(fcur):  # cur is the best estimate, blk brackets it
            pre, cur, blk, fpre, fcur, fblk = cur, blk, cur, fcur, fblk, fcur
        delta = 0.5 * (xtol + _BRENT_RTOL * abs(cur))
        sbis = 0.5 * (blk - cur)
        if fcur == 0.0 or abs(sbis) < delta:
            return float(cur), steps
        interpolate = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if pre == blk:  # secant
                stry = -fcur * (cur - pre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre, dblk = (fpre - fcur) / (pre - cur), (fblk - fcur) / (blk - cur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            interpolate = 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)
        spre, scur = (scur, stry) if interpolate else (sbis, sbis)
        pre, fpre = cur, fcur
        cur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(cur)
    raise NumericalError(f"Brent's method did not locate tau in [{a:.17g}, {b:.17g}] "
                         f"within {_MAX_REFINEMENTS} steps")
