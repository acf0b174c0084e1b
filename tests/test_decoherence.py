import collections
import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from oqho_memory import decoherence, dynamics
from oqho_memory.decoherence import (
    CERT_CROSSING,
    CERT_DELTA_ZERO,
    CERT_HURWITZ,
    CERT_INCONCLUSIVE,
    _hybrid_grid,
    decoherence_time,
    tau_hat,
    tau_prime,
    tau_second,
)
from oqho_memory.dynamics import DeviationEvaluator, MomentData, Weighting, delta, hurwitz_limit
from oqho_memory.errors import NumericalError, PreconditionError
from oqho_memory.model import J2, OqhoParams, Realization, build_realization, canonical_ccr

from golden.generate import SYSTEMS as GOLDEN_SYSTEMS
from golden.generate import system as golden_system
from oracles import (
    random_damped_realization,
    random_hurwitz_realization,
    random_marginal_modes,
    random_params,
    random_spd,
)


THETA1 = canonical_ccr(1)


def single_mode():
    """A = -I, B = J2 with identity weighting and moments."""
    real = Realization(-np.eye(2), J2, None, None)
    return real, Weighting(np.eye(2)), MomentData(np.eye(2), THETA1)


def bits(rep):
    """A report's fields, each float as its hex string, so that nan equals nan."""
    return [x.hex() if isinstance(x, float) else x for x in dataclasses.astuple(rep)]


def bypass_set_up_memo(patch, _unmemoized=decoherence._set_up.__wrapped__):
    """Make decoherence._set_up build every set-up afresh while patch (a
    monkeypatch or one of its contexts) holds.  The memo's key holds no
    dynamics limit and no bound function, so a set-up built under a patched
    one must neither be read from the memo nor be left in it."""
    patch.setattr(decoherence, "_set_up", _unmemoized)


def closed_form_delta(t):
    return 2.0 * (1.0 - np.exp(-t)) ** 2 + 1.0 - np.exp(-2.0 * t)


class TestTauPrime:
    def test_unit_ratio(self):
        _, w, mo = single_mode()
        assert abs(tau_prime(J2, w, mo) - 1.0) <= 1e-14

    def test_moment_scaling(self):
        w = Weighting(np.eye(2))
        mo = MomentData(4.0 * np.eye(2), THETA1)
        # ||F sqrt(P)||^2 = 8, ||F B||^2 = 2.
        assert abs(tau_prime(J2, w, mo) - 4.0) <= 1e-14

    def test_unobserved_noise_is_infinite(self):
        _, w, mo = single_mode()
        assert tau_prime(np.zeros((2, 2)), w, mo) == math.inf

    def test_zero_weighted_moments_rejected(self):
        # A Heisenberg-admissible P is positive definite (it dominates the
        # nonsingular Theta), so F P F^T = 0 can only arise from degenerate
        # moment stubs; the precondition must still be enforced.
        w = Weighting(np.eye(2))
        with pytest.raises(PreconditionError):
            tau_prime(J2, w, _ZeroMoments())


class _ZeroMoments:
    p = np.zeros((2, 2))


class TestTauSecond:
    def test_single_mode_vanishes(self):
        real, w, mo = single_mode()
        assert abs(tau_second(real, w, mo)) <= 1e-14

    def test_pure_noise_vanishes(self):
        _, w, mo = single_mode()
        assert tau_second((np.zeros((2, 2)), J2), w, mo) == 0.0

    def test_compositional(self):
        from oqho_memory.dynamics import delta_derivatives
        rng = np.random.default_rng(40)
        for _ in range(5):
            params = random_params(rng, 1, 2)
            real = build_realization(params)
            w = Weighting(rng.standard_normal((2, 2)) + 2 * np.eye(2))
            mo = MomentData(random_spd(rng, 2), THETA1)
            dot, ddot = delta_derivatives(real.a, real.b, w, mo)
            tp = tau_prime(real.b, w, mo)
            expect = -ddot * tp * tp / dot
            assert abs(tau_second(real, w, mo) - expect) <= 1e-12 * max(abs(expect), 1.0)

    def test_unobserved_noise_rejected(self):
        _, w, mo = single_mode()
        with pytest.raises(PreconditionError):
            tau_second((np.eye(2), np.zeros((2, 2))), w, mo)


class TestTauHat:
    def test_single_mode(self):
        real, w, mo = single_mode()
        assert abs(tau_hat(real, w, mo, 0.01) - 0.01) <= 1e-14


# tau_hat checks epsilon as decoherence_time does, before A is factored.
BAD_EPSILONS = {"zero": 0.0, "negative": -0.5, "nan": math.nan, "inf": math.inf, "bool": True}


@pytest.mark.parametrize("kind", BAD_EPSILONS)
@pytest.mark.parametrize("call", [tau_hat, decoherence_time], ids=["tau_hat", "decoherence_time"])
def test_bad_epsilon_is_precondition_error(call, kind):
    real, w, mo = single_mode()
    with pytest.raises(PreconditionError, match="epsilon must be finite and positive"):
        call(real, w, mo, BAD_EPSILONS[kind])


class TestTauHatChecked:
    """tau_hat is finite or a NumericalError on every path: the public
    tau_hat, the decoherence_time report and (in test_cli) the CLI.  It is
    nan only when F B = 0, where the expansion does not apply."""

    # The README system with R = diag(1, 2): tau' = 1 and tau'' = -5, so
    # tau_hat(1e300) = 1e300 - 2.5e600 overflows, while tau is certified
    # infinite (the limit of Delta is below the threshold).
    def readme_energy(self):
        real = build_realization(OqhoParams(ccr=THETA1, energy=np.diag([1.0, 2.0]),
                                            coupling=np.eye(2), selector=np.eye(2)))
        return real, Weighting(np.eye(2)), MomentData(np.eye(2), THETA1)

    @pytest.mark.parametrize("call", [tau_hat, decoherence_time])
    def test_overflow_is_numerical_error(self, call):
        real, w, mo = self.readme_energy()
        assert abs(tau_second(real, w, mo) + 5.0) <= 1e-14
        with pytest.raises(NumericalError, match="tau_hat at eps = 1e\\+300 is not finite"):
            call(real, w, mo, 1e300)

    def test_tau_hat_overflow_is_numerical_error(self):
        # The unstable system of TestDecoherenceTime with B = 0.1 I: the
        # scan would cross near t = 6.7, but tau_hat(1e290) overflows first.
        w, mo = Weighting(np.eye(2)), MomentData(np.eye(2), THETA1)
        with pytest.raises(NumericalError, match="tau_hat"):
            decoherence_time((50.0 * np.eye(2), 0.1 * np.eye(2)), w, mo, 1e290)

    def test_finite_below_overflow(self):
        real, w, mo = self.readme_energy()
        rep = decoherence_time(real, w, mo, 1e150)
        assert rep.tau_hat == tau_hat(real, w, mo, 1e150)
        assert abs(rep.tau_hat / -2.5e300 - 1.0) <= 1e-14

    def test_nan_only_without_noise(self):
        _, w, mo = single_mode()
        rep = decoherence_time((J2, np.zeros((2, 2))), w, mo, 1e300)
        assert not rep.expansion_valid and math.isnan(rep.tau_hat)
        with pytest.raises(PreconditionError, match="F B = 0"):
            tau_hat((J2, np.zeros((2, 2))), w, mo, 0.01)


# _brent is scipy.optimize.brentq written out, because importing
# scipy.optimize adds ~20 MB and ~0.2 s to every process that imports the
# package (test_imports.py checks that the package leaves it unloaded).
# It must take the same steps: the same root bit for bit, and two
# fewer calls of f, because it is given f at both ends.  The "huge" case
# overflows the interpolation, which must then bisect without a warning.
BRENT_CASES = {
    "cubic": (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    "cos": (lambda x: math.cos(x) - x, 0.0, 1.0),
    "exp": (lambda x: math.exp(x) - 10.0, 0.0, 5.0),
    "flat": (lambda x: (x - 0.1) ** 5, 0.0, 1.0),
    "single-mode": (lambda t: float(closed_form_delta(t)) - 0.02, 0.005, 0.02),
    "huge": (lambda x: 1e300 * (x - 0.3) ** 3 + 1e300 * (x - 0.3), 0.0, 1.0),
}


@pytest.mark.parametrize("case", BRENT_CASES)
@pytest.mark.parametrize("xtol", [2e-12, "4 ulp"])
def test_brent_matches_scipy(case, xtol):
    f, a, b = BRENT_CASES[case]
    xtol = 4.0 * np.spacing(b) if xtol == "4 ulp" else xtol
    root, steps = decoherence._brent(f, a, f(a), b, f(b), xtol)
    want = scipy.optimize.brentq(f, a, b, xtol=xtol, rtol=decoherence._BRENT_RTOL,
                                 maxiter=decoherence._MAX_REFINEMENTS, full_output=True)[1]
    assert want.converged
    assert root == want.root
    assert steps + 2 == want.function_calls


def test_brent_returns_a_zero_end():
    assert decoherence._brent(math.sin, 0.0, 0.0, 1.0, math.sin(1.0), 1e-12) == (0.0, 0)
    assert decoherence._brent(math.sin, -1.0, math.sin(-1.0), 0.0, 0.0, 1e-12) == (0.0, 0)


# Both parts of the hybrid grid end at the horizon; the grid still holds
# exactly the grid_points times the report names, distinct and increasing.
@pytest.mark.parametrize("points", [1, 2, 3, 4, 5, 2000, 2001])
@pytest.mark.parametrize("horizon", [2.2250738585072014e-308, 0.3, 7.0, 1e300])
def test_hybrid_grid_has_grid_points_times(points, horizon):
    grid = _hybrid_grid(horizon, points)
    assert len(grid) == points
    assert grid[0] > 0.0 and grid[-1] == horizon
    assert np.all(np.diff(grid) > 0.0)


class TestDecoherenceTime:
    def test_isolated_zero_hamiltonian(self):
        _, w, mo = single_mode()
        rep = decoherence_time((np.zeros((2, 2)), np.zeros((2, 2))), w, mo, 0.5)
        assert rep.tau == math.inf
        assert rep.certificate == CERT_DELTA_ZERO
        assert rep.delta_path == dynamics.SPECTRAL
        # The a-priori bound is 0 at every point: no point is evaluated.
        assert rep.grid_points == 2000
        assert rep.delta_evaluations == 0

    def test_tiny_decay_is_not_identically_zero(self):
        # A = -1e-200 I, B = 0: Delta tends to tr(P) = 2 above the threshold
        # 0.2, but stays below it up to t = 50; ||A||_F underflows to 0.
        _, w, mo = single_mode()
        rep = decoherence_time((-1e-200 * np.eye(2), np.zeros((2, 2))), w, mo, 0.1, horizon=50.0)
        assert rep.tau == math.inf
        assert rep.certificate == CERT_INCONCLUSIVE

    # A = s I with |s| = 1e-200, B = 0: Delta(t) = 2 expm1(s t)^2 reaches the
    # threshold 2 eps where s t = log1p(+-sqrt(eps)), near 1e199, inside the
    # default horizon 50 / ||A||_F ~ 3.5e201.  ||A||_1 ||A||_inf underflows,
    # so the a-priori bound must not be formed from it: the report is the
    # full scan's, but for the points the bound lets the scan skip.
    @pytest.mark.parametrize("s", [1e-200, -1e-200])
    def test_tiny_a_crosses_as_the_full_scan_does(self, monkeypatch, s):
        _, w, mo = single_mode()
        system = (s * np.eye(2), np.zeros((2, 2)))
        rep = decoherence_time(system, w, mo, 0.1)
        assert rep.certificate == CERT_CROSSING
        want = math.log1p(math.copysign(math.sqrt(0.1), s)) / s
        assert abs(rep.tau - want) <= 1e-12 * want
        monkeypatch.setattr(decoherence, "_delta_bound", lambda *args: np.full(len(args[-1]), np.inf))
        bypass_set_up_memo(monkeypatch)
        ref = decoherence_time(system, w, mo, 0.1)
        assert bits(dataclasses.replace(rep, delta_evaluations=ref.delta_evaluations)) == bits(ref)
        assert rep.delta_evaluations < ref.delta_evaluations

    def test_undamped_below_threshold_is_inconclusive(self):
        # A = J2 rotates, B = 0: Delta(t) = ||e^{t J2} - I||^2 = 4 (1 - cos t) <= 8
        # stays below the threshold 5 ||F sqrt(P)||^2 = 10, and A is not Hurwitz,
        # so no certificate applies.  The a-priori bound 2 expm1(t)^2 is at most
        # half the threshold up to t = log1p(sqrt(2.5)); the scan runs from the
        # last grid point there to the horizon.
        _, w, mo = single_mode()
        rep = decoherence_time((J2, np.zeros((2, 2))), w, mo, 5.0)
        assert rep.tau == math.inf
        assert rep.certificate == CERT_INCONCLUSIVE
        assert abs(rep.threshold - 10.0) <= 1e-14
        assert not rep.expansion_valid
        grid = _hybrid_grid(rep.horizon_used, rep.grid_points)
        start = int(np.sum(grid <= math.log1p(math.sqrt(2.5)))) - 1
        assert start > 0
        assert rep.delta_evaluations == len(grid) - start

    def test_delta_evaluations_count(self):
        # The scan runs from the last grid point whose a-priori bound
        # 2 expm1(t)^2 + 2 t e^{2t} (alpha = phi = 1, tr(P) = ||F B||^2 = 2,
        # ||B||_F^2 = 2) is at most half the threshold, up to the crossing.
        real, w, mo = single_mode()
        rep = decoherence_time(real, w, mo, 0.01)
        grid = _hybrid_grid(rep.horizon_used, rep.grid_points)
        bound = 2.0 * np.expm1(grid) ** 2 + 2.0 * grid * np.exp(2.0 * grid)
        start = int(np.sum(bound <= 0.5 * rep.threshold)) - 1
        crossing = int(np.argmax(closed_form_delta(grid) > rep.threshold))
        assert 0 < start < crossing
        assert rep.bisection_iterations > 0
        assert rep.delta_evaluations == crossing - start + 1 + rep.bisection_iterations
        assert rep.delta_path == dynamics.SPECTRAL

    # One tau takes the threshold scale tr(F P F^T) from one _weighted_trace
    # call and the derivatives at t = 0 from one delta_derivatives call; so
    # does tau_hat.  (The evaluator reads the scale through dynamics' own
    # binding, which is not counted.)  The set-up memo is emptied first: a
    # system an earlier test left in it takes no call.
    def test_one_expansion_pass(self, monkeypatch):
        real, w, mo = single_mode()
        decoherence._set_up.cache_clear()
        calls = collections.Counter()
        for name in ("_weighted_trace", "delta_derivatives"):
            original = getattr(decoherence, name)
            monkeypatch.setattr(decoherence, name,
                                lambda *args, _name=name, _f=original: calls.update([_name]) or _f(*args))
        rep = decoherence_time(real, w, mo, 0.01)
        assert calls == {"_weighted_trace": 1, "delta_derivatives": 1}
        calls.clear()
        assert tau_hat(real, w, mo, 0.01) == rep.tau_hat
        assert calls == {"_weighted_trace": 1, "delta_derivatives": 1}
        assert (rep.tau_prime, rep.tau_second) == (tau_prime(real.b, w, mo), tau_second(real, w, mo))

    def test_same_scan_as_van_loan(self, monkeypatch):
        # The spectral path must reproduce the Van Loan scan: the same first
        # bracketing interval (given by the number of grid points scanned)
        # and tau to rounding.  Brent's steps depend on Delta values, which
        # differ between the paths at rounding level, so their count may
        # differ.  The marginal system takes the _phi route on the diagonal
        # of Z.
        rng = np.random.default_rng(42)
        params, real = random_damped_realization(rng, 16)
        w = Weighting(rng.standard_normal((16, 32)))
        mo = MomentData(random_spd(rng, 32), params.ccr)
        marginal = random_marginal_modes(rng, 16)
        for system, eps in itertools.product((real, marginal), (0.01, 0.1)):
            rep = decoherence_time(system, w, mo, eps)
            with monkeypatch.context() as m:
                m.setattr(dynamics, "_SPECTRAL_COND_LIMIT", 0.0)
                bypass_set_up_memo(m)
                ref = decoherence_time(system, w, mo, eps)
            assert (rep.delta_path, ref.delta_path) == (dynamics.SPECTRAL, dynamics.VAN_LOAN)
            assert rep.certificate == ref.certificate == CERT_CROSSING
            assert (rep.delta_evaluations - rep.bisection_iterations
                    == ref.delta_evaluations - ref.bisection_iterations)
            assert abs(rep.tau - ref.tau) <= 1e-12 * ref.tau

    # Delta = (1 - x)(3 - x) with x = e^{-t}, so Delta = c at
    # x = 1 - c / (1 + sqrt(1 + c)).  Brent's method refines the scan's
    # bracket to full precision in a few Delta evaluations (bisection took 45).
    def test_refinement_takes_few_evaluations(self):
        real, w, mo = single_mode()
        rep = decoherence_time(real, w, mo, 0.01)
        c = rep.threshold
        want = -math.log1p(-c / (1.0 + math.sqrt(1.0 + c)))
        assert rep.certificate == CERT_CROSSING
        assert 0 < rep.bisection_iterations <= 10
        assert abs(rep.tau - want) <= 1e-14 * want

    # A = -s I, B = s J2, F = P = I: tau' = 1 / s^2, and the crossing lies far
    # before grid[0].  Brent's tolerance on the bracket [0, grid[0]] is that
    # of t = 0, not of grid[0], which is far above the root and once returned
    # tau = 0.
    @pytest.mark.parametrize("s, eps", [(1e30, 0.01), (1e50, 0.01), (1e100, 0.01), (1.0, 1e-20), (1.0, 1e-100)])
    def test_crossing_before_the_first_grid_point(self, s, eps):
        _, w, mo = single_mode()
        rep = decoherence_time((-s * np.eye(2), s * J2), w, mo, eps)
        assert rep.certificate == CERT_CROSSING
        assert 0.0 < rep.tau < _hybrid_grid(rep.horizon_used, rep.grid_points)[0]
        assert abs(rep.tau - rep.tau_hat) <= 1e-12 * rep.tau_hat
        assert abs(rep.tau_hat - eps / s**2) <= 1e-12 * rep.tau_hat
        assert rep.bisection_iterations <= 5

    # A = -I, B = J2, F = P = I: Delta = 2 expm1(-t)^2 - expm1(-2t) reaches
    # 2 eps at tau ~ eps.  Near tau the residual Delta - threshold is ~1e-13
    # of the threshold, and its products with steps ~tau underflow below
    # ~1e-150; Delta / threshold - 1 is O(1) there at every scale, subnormal
    # thresholds included.
    @pytest.mark.parametrize("eps", [1e-150, 1e-160, 1e-200, 1e-300, 1e-308, 1e-310])
    def test_refinement_is_scale_free(self, eps):
        real, w, mo = single_mode()
        rep = decoherence_time(real, w, mo, eps)
        root = scipy.optimize.brentq(lambda t: (2.0 * math.expm1(-t) ** 2 - math.expm1(-2.0 * t)) / (2.0 * eps) - 1.0,
                                     0.0, 4.0 * eps, xtol=5e-324, rtol=4.0 * np.finfo(float).eps)
        assert rep.certificate == CERT_CROSSING
        assert rep.bisection_iterations <= 10
        assert abs(rep.tau - root) <= 1e-14 * root

    def test_threshold_underflow_is_numerical_error(self):
        # eps tr(F P F^T) = 1e-10 * 2e-320 is 0 in double precision.
        real, _, mo = single_mode()
        with pytest.raises(NumericalError, match="threshold .* underflows to 0"):
            decoherence_time(real, Weighting(1e-160 * np.eye(2)), mo, 1e-10)

    def test_refinement_failure_is_numerical_error(self, monkeypatch):
        real, w, mo = single_mode()
        monkeypatch.setattr(decoherence, "_MAX_REFINEMENTS", 1)
        with pytest.raises(NumericalError, match="did not locate tau"):
            decoherence_time(real, w, mo, 0.01)

    def test_subnormal_horizon_rejected(self):
        # A grid starting at 1e-8 horizon would underflow to 0.
        real, w, mo = single_mode()
        with pytest.raises(PreconditionError, match="horizon"):
            decoherence_time(real, w, mo, 0.01, horizon=1e-320)

    # A = 50 I, B = 0, F = P = I: Delta = 2 (x - 1)^2 with x = e^{50 t}, so
    # Delta reaches eps tr(F P F^T) = 2e290 at t = 290 ln(10) / 100 to double
    # precision, and overflows from t ~ 7.1 on.  B is 0 because with noise
    # tau_hat = tau' eps + (1/2) tau'' eps^2 overflows at eps = 1e290, which
    # is a NumericalError of its own (test_tau_hat_overflow_is_numerical_error).
    # The horizon is the one that B = 0.1 I gave, 50 tau' = 5000.
    def unstable(self):
        w, mo = Weighting(np.eye(2)), MomentData(np.eye(2), THETA1)
        return (50.0 * np.eye(2), np.zeros((2, 2))), w, mo

    def test_crossing_before_overflow(self):
        # The grid points after the crossing overflow, some in the same
        # block as the crossing; only the crossing counts.  The a-priori
        # bound is Delta itself here, at most half the threshold up to
        # t = log1p(sqrt(5e289)) / 50, and the scan starts at the last grid
        # point there.
        system, w, mo = self.unstable()
        rep = decoherence_time(system, w, mo, 1e290, horizon=5000.0)
        assert rep.certificate == CERT_CROSSING
        want = 290.0 * math.log(10.0) / 100.0
        assert abs(rep.tau - want) <= 1e-12 * want
        grid = _hybrid_grid(rep.horizon_used, rep.grid_points)
        start = int(np.sum(grid <= math.log1p(math.sqrt(5e289)) / 50.0)) - 1
        crossing = int(np.sum(grid <= rep.tau))
        assert 0 < start < crossing
        assert rep.delta_evaluations == crossing - start + 1 + rep.bisection_iterations

    def test_overflow_before_crossing(self):
        # On a coarse grid the first point past the crossing is already
        # beyond the overflow: that is a numerical error, naming the point.
        system, w, mo = self.unstable()
        grid = _hybrid_grid(100.0, 20)
        t_bad = grid[grid > 6.7][0]
        assert t_bad > 7.5
        with pytest.raises(NumericalError, match=f"t = {t_bad:.6g}:"):
            decoherence_time(system, w, mo, 1e290, horizon=100.0, grid_points=20)

    @pytest.mark.parametrize("block", [1, 7, 10_000])
    def test_scan_does_not_depend_on_block_size(self, monkeypatch, block):
        rng = np.random.default_rng(43)
        params, real = random_damped_realization(rng, 8)
        w = Weighting(rng.standard_normal((8, 16)))
        mo = MomentData(random_spd(rng, 16), params.ccr)
        for system in (real, random_marginal_modes(rng, 8)):
            ref = decoherence_time(system, w, mo, 0.05)
            monkeypatch.setattr(dynamics, "_SCAN_BLOCK", block)
            rep = decoherence_time(system, w, mo, 0.05)
            monkeypatch.undo()
            assert rep.certificate == ref.certificate == CERT_CROSSING
            assert rep.delta_evaluations == ref.delta_evaluations
            assert rep.bisection_iterations == ref.bisection_iterations
            assert abs(rep.tau - ref.tau) <= 1e-14 * ref.tau

    # The skipped prefix changes what is evaluated, not what is found.  With
    # the a-priori bound patched to +inf the scan starts at t = 0, as the
    # full scan does: every other field of the report is bit-identical, and
    # delta_evaluations is never higher.  With the bound patched to certify
    # the crossing's grid point too, the scan starts above the threshold,
    # which contradicts the bound: a NumericalError naming that point.
    @pytest.mark.parametrize("name, van_loan", [(name, False) for name in GOLDEN_SYSTEMS]
                             + [(f"{kind}-{n}", van_loan) for kind in ("hurwitz", "marginal")
                                for n in (8, 16) for van_loan in (False, True)])
    def test_skipped_prefix_finds_what_the_full_scan_finds(self, monkeypatch, name, van_loan):
        if name in GOLDEN_SYSTEMS:
            a, b, w, mo = golden_system(name)
        else:
            kind, n = name.split("-")
            rng = np.random.default_rng(44 + int(n))
            params, real = random_damped_realization(rng, int(n) // 2)
            a, b = (real.a, real.b) if kind == "hurwitz" else random_marginal_modes(rng, int(n) // 2)
            w, mo = Weighting(rng.standard_normal((int(n), int(n)))), MomentData(random_spd(rng, int(n)), params.ccr)
        if van_loan:
            monkeypatch.setattr(dynamics, "_SPECTRAL_COND_LIMIT", 0.0)
            bypass_set_up_memo(monkeypatch)

        for eps in (1e-12, 1e-6, 0.01, 0.1, 1.0):
            rep = decoherence_time((a, b), w, mo, eps)
            assert rep.delta_path == (dynamics.VAN_LOAN if van_loan or name == "van-loan" else dynamics.SPECTRAL)
            with monkeypatch.context() as m:
                m.setattr(decoherence, "_delta_bound", lambda *args: np.full(len(args[-1]), np.inf))
                bypass_set_up_memo(m)
                ref = decoherence_time((a, b), w, mo, eps)
            assert bits(dataclasses.replace(rep, delta_evaluations=ref.delta_evaluations)) == bits(ref), eps
            assert rep.delta_evaluations <= ref.delta_evaluations
            if ref.certificate != CERT_CROSSING:
                continue
            grid = _hybrid_grid(ref.horizon_used, ref.grid_points)
            above = grid[np.sum(grid < ref.tau)]  # the crossing's grid point
            with monkeypatch.context() as m:
                m.setattr(decoherence, "_delta_bound", lambda *args: np.where(args[-1] <= above, 0.0, np.inf))
                bypass_set_up_memo(m)
                if above == grid[0]:  # the scan starts at t = 0 all the same
                    assert bits(decoherence_time((a, b), w, mo, eps)) == bits(ref), eps
                    continue
                with pytest.raises(NumericalError, match=re.escape(f"Delta at t = {above:.6g} is ")):
                    decoherence_time((a, b), w, mo, eps)

    def test_single_mode_against_root_finder(self):
        real, w, mo = single_mode()
        rep = decoherence_time(real, w, mo, 0.01)
        root = scipy.optimize.brentq(lambda t: closed_form_delta(t) - 0.02, 1e-8, 1.0,
                                     xtol=1e-14)
        assert rep.certificate == CERT_CROSSING
        assert abs(rep.tau - root) <= 1e-8
        assert abs(rep.tau_hat - 0.01) <= 1e-14
        # The threshold is met at tau itself, to bisection resolution.
        assert abs(delta(real.a, real.b, w, mo, rep.tau) - rep.threshold) <= 1e-10

    def test_certified_infinite_for_large_epsilon(self):
        real, w, mo = single_mode()
        # Limit of Delta is 3 = 1.5 ||F sqrt(P)||^2; any epsilon above that
        # is certified unreachable.
        lim = hurwitz_limit(real.a, real.b, w, mo)
        assert abs(lim - 3.0) <= 1e-12
        rep = decoherence_time(real, w, mo, 1.6)
        assert rep.tau == math.inf
        assert rep.certificate == CERT_HURWITZ

    def test_one_eigendecomposition_on_no_crossing_path(self, monkeypatch):
        # The scan, the Hurwitz test and the limit all read one factorization
        # of A, and a second tau on the same system reads the set-up memo:
        # from an empty memo, eig runs once for both.
        real, w, mo = single_mode()
        decoherence._set_up.cache_clear()
        calls = []
        for module, name in itertools.product((np.linalg, scipy.linalg), ("eig", "eigvals")):
            func = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *args, _func=func, **kw: calls.append(_func) or _func(*args, **kw))
        rep = decoherence_time(real, w, mo, 1.6)
        assert rep.certificate == CERT_HURWITZ
        assert decoherence_time(real, w, mo, 0.5).certificate == CERT_CROSSING
        assert len(calls) == 1

    def test_monotone_in_epsilon(self):
        real, w, mo = single_mode()
        taus = [decoherence_time(real, w, mo, e).tau for e in np.linspace(0.01, 1.4, 10)]
        assert all(t > 0 for t in taus)
        assert all(t2 >= t1 for t1, t2 in zip(taus, taus[1:]))

    def test_grid_points_below_tau_stay_under_threshold(self):
        rng = np.random.default_rng(41)
        _, real = random_hurwitz_realization(rng)
        w = Weighting(np.eye(2))
        mo = MomentData(np.eye(2), THETA1)
        rep = decoherence_time(real, w, mo, 0.05)
        ts = np.linspace(0.0, rep.tau * (1 - 1e-9), 50)
        vals = DeviationEvaluator(real.a, real.b, w, mo).delta(ts)
        assert max(vals) <= rep.threshold * (1 + 1e-9)

    def test_invalid_arguments(self):
        real, w, mo = single_mode()
        with pytest.raises(PreconditionError):
            decoherence_time(real, w, mo, 0.0)
        with pytest.raises(PreconditionError):
            decoherence_time(real, w, mo, 0.01, horizon=-1.0)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_non_finite_epsilon(self, epsilon):
        real, w, mo = single_mode()
        with pytest.raises(PreconditionError, match="epsilon"):
            decoherence_time(real, w, mo, epsilon)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_non_finite_horizon(self, horizon):
        real, w, mo = single_mode()
        with pytest.raises(PreconditionError, match="horizon"):
            decoherence_time(real, w, mo, 0.01, horizon=horizon)

    @pytest.mark.parametrize("name", ["epsilon", "horizon"])
    @pytest.mark.parametrize("flag", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_boolean_epsilon_or_horizon(self, name, flag):
        real, w, mo = single_mode()
        args = {"epsilon": 0.01, name: flag}
        with pytest.raises(PreconditionError, match=name):
            decoherence_time(real, w, mo, **args)

    @pytest.mark.parametrize("grid_points", [0, -5, 2.5, True, dynamics.MAX_GRID_POINTS + 1])
    def test_invalid_grid_points(self, grid_points):
        real, w, mo = single_mode()
        with pytest.raises(PreconditionError, match="grid_points"):
            decoherence_time(real, w, mo, 0.01, grid_points=grid_points)

    def test_unobserved_noise_still_scannable(self):
        # FB = 0 but the signal term grows through A: tau is found by
        # scanning even though the expansion is flagged inapplicable.
        w = Weighting(np.eye(2))
        mo = MomentData(np.eye(2), THETA1)
        rep = decoherence_time((J2, np.zeros((2, 2))), w, mo, 0.5)
        assert rep.certificate == CERT_CROSSING
        assert not rep.expansion_valid
        assert math.isfinite(rep.tau) and rep.tau > 0


# decoherence_time keeps the eps-independent half of its last system, from the
# DeviationEvaluator and the _Expansion to the grid and the a-priori bound,
# keyed by the system's value and horizon and grid_points as passed: the
# library's one process-wide state.
class TestSetUpMemo:
    # What a set-up calls in decoherence's namespace; time_scale only for the
    # default horizon.
    SET_UP = ("DeviationEvaluator", "delta_derivatives", "time_scale", "_hybrid_grid", "_delta_bound")

    @staticmethod
    def count_set_ups(monkeypatch, names=("DeviationEvaluator", "delta_derivatives")):
        """A Counter of the calls of names (by default the evaluator set-ups
        and delta_derivatives) that decoherence makes from now on."""
        calls = collections.Counter()
        for name in names:
            original = getattr(decoherence, name)
            monkeypatch.setattr(decoherence, name,
                                lambda *args, _name=name, _f=original: calls.update([_name]) or _f(*args))
        return calls

    @staticmethod
    def systems():
        """(name, (A, B), Weighting, MomentData) of a damped system, the same on
        the Van Loan path, and a marginal one, each at n = 8 with its own arrays."""
        rng = np.random.default_rng(43)
        params, real = random_damped_realization(rng, 4)
        w = Weighting(rng.standard_normal((4, 8)))
        mo = MomentData(random_spd(rng, 8), params.ccr)
        marginal = random_marginal_modes(rng, 4)
        return [(name, tuple(np.array(x) for x in system), w, mo)
                for name, system in (("spectral", (real.a, real.b)), ("van_loan", (real.a, real.b)),
                                     ("marginal", marginal))]

    def test_second_epsilon_takes_no_set_up(self, monkeypatch):
        real, w, mo = single_mode()
        decoherence._set_up.cache_clear()
        calls = self.count_set_ups(monkeypatch)
        first = decoherence_time(real, w, mo, 0.01)
        assert calls == {"DeviationEvaluator": 1, "delta_derivatives": 1}
        second = decoherence_time(real, w, mo, 0.1)
        assert calls == {"DeviationEvaluator": 1, "delta_derivatives": 1}
        assert second.tau > first.tau

    # A second and a third eps at the same horizon and grid_points build
    # nothing again: no evaluator, expansion, default horizon, grid or bound.
    @pytest.mark.parametrize("horizon, grid_points", [(None, 2000), (2.0, 500)])
    def test_more_epsilons_take_no_set_up(self, monkeypatch, horizon, grid_points):
        _, system, w, mo = self.systems()[0]
        decoherence._set_up.cache_clear()
        calls = self.count_set_ups(monkeypatch, self.SET_UP)
        decoherence_time(system, w, mo, 0.01, horizon, grid_points)
        once = {name: 1 for name in self.SET_UP if horizon is None or name != "time_scale"}
        assert calls == once
        for epsilon in (0.1, 1.0):
            decoherence_time(system, w, mo, epsilon, horizon, grid_points)
        assert calls == once

    # Another horizon or grid_points on the system in the memo sets it up
    # once more, and its report is an empty memo's; its next eps is a hit.
    @pytest.mark.parametrize("change", [{"horizon": 2.0}, {"grid_points": 500}, {"horizon": 2.0, "grid_points": 500}],
                             ids=["horizon", "grid_points", "both"])
    def test_changed_horizon_or_grid_points_is_set_up_again(self, monkeypatch, change):
        _, system, w, mo = self.systems()[0]
        decoherence_time(system, w, mo, 0.1)
        calls = self.count_set_ups(monkeypatch, self.SET_UP)
        warm = decoherence_time(system, w, mo, 0.1, **change)
        decoherence_time(system, w, mo, 1.0, **change)
        assert calls == {name: 1 for name in self.SET_UP if "horizon" not in change or name != "time_scale"}
        decoherence._set_up.cache_clear()
        assert bits(warm) == bits(decoherence_time(system, w, mo, 0.1, **change))

    # A report from a memo that holds the system equals the report from an
    # empty one in every field, on each path; eps = 10 certifies the damped
    # system by its Hurwitz limit, every other eps crosses.
    @pytest.mark.parametrize("epsilon", [0.01, 0.1, 1.0, 10.0])
    @pytest.mark.parametrize("index", [0, 1, 2], ids=["spectral", "van_loan", "marginal"])
    def test_warm_report_is_the_cold_report(self, monkeypatch, index, epsilon):
        name, system, w, mo = self.systems()[index]
        if name == "van_loan":
            monkeypatch.setattr(dynamics, "_SPECTRAL_COND_LIMIT", 0.0)
        decoherence._set_up.cache_clear()
        cold = decoherence_time(system, w, mo, epsilon)
        decoherence_time(system, w, mo, 2.0 * epsilon)
        calls = self.count_set_ups(monkeypatch)
        warm = decoherence_time(system, w, mo, epsilon)
        assert not calls
        assert bits(warm) == bits(cold)
        assert warm.delta_path == (dynamics.VAN_LOAN if name == "van_loan" else dynamics.SPECTRAL)

    # An array changed in place has other bytes: the memo misses, and the
    # report is the one an empty memo gives for the changed system.
    @pytest.mark.parametrize("which", ["A", "B", "F", "P"])
    def test_changed_in_place_is_set_up_again(self, monkeypatch, which):
        _, (a, b), w, mo = self.systems()[0]
        before = decoherence_time((a, b), w, mo, 0.1)
        array = {"A": a, "B": b, "F": w.f, "P": mo.p}[which]
        array.flags.writeable = True  # F is read-only in its Weighting
        array *= 1.25
        calls = self.count_set_ups(monkeypatch)
        warm = decoherence_time((a, b), w, mo, 0.1)
        assert calls == {"DeviationEvaluator": 1, "delta_derivatives": 1}
        decoherence._set_up.cache_clear()
        assert bits(warm) == bits(decoherence_time((a, b), w, mo, 0.1))
        assert warm.tau != before.tau

    # An evaluator keeps nothing of the caller's arrays, so a caller that
    # changes them after the call reaches neither a later hit from equal ones
    # nor an evaluator built before the change: the Van Loan path reads its
    # own copies of A and P at every point, the spectral path keeps only what
    # it formed from them, and both decide the Hurwitz test at set-up.
    @pytest.mark.parametrize("index", [0, 1], ids=["spectral", "van_loan"])
    def test_evaluator_keeps_its_own_a_and_p(self, monkeypatch, index):
        name, (a, b), w, mo = self.systems()[index]
        if name == "van_loan":
            monkeypatch.setattr(dynamics, "_SPECTRAL_COND_LIMIT", 0.0)
        equal_a, equal_mo = a.copy(), MomentData(mo.p, mo.ccr)
        decoherence._set_up.cache_clear()
        cold = decoherence_time((a, b), w, mo, 0.1)
        evaluator = DeviationEvaluator(a, b, w, mo)
        limit = evaluator.hurwitz_limit()
        a *= -1.0
        mo.p[:] *= 1.25
        calls = self.count_set_ups(monkeypatch)
        assert bits(decoherence_time((equal_a, b), w, equal_mo, 0.1)) == bits(cold)
        assert not calls
        assert evaluator.hurwitz_limit() == limit

    # tr(F P F^T) = 0 (a degenerate moment stub) and B = 1e200 J2, whose
    # ||F B||^2 overflows: each call sets up again and raises again.
    @pytest.mark.parametrize("case, error", [("zero scale", PreconditionError),
                                             ("overflowing B", NumericalError)])
    def test_set_up_error_is_not_memoized(self, monkeypatch, case, error):
        real, w, mo = single_mode()
        system, mo = ((real, _ZeroMoments()) if case == "zero scale" else ((real.a, 1e200 * J2), mo))
        calls = self.count_set_ups(monkeypatch)
        for repeat in (1, 2):
            with pytest.raises(error):
                decoherence_time(system, w, mo, 0.01)
            assert calls == {"DeviationEvaluator": repeat, "delta_derivatives": repeat}


# Two weakly coupled memories on which tau is wrong (ROADMAP item 21): Theta =
# (1/2) I2 (x) J2, selector and F the identity, the default horizon.  Each is
# pinned as a strict expected failure, so the fix must turn it into a pass.
class TestWeaklyCoupledMemory:
    @staticmethod
    def system(energy, coupling, p):
        ccr = canonical_ccr(2)
        real = build_realization(OqhoParams(ccr=ccr, energy=np.diag(energy), coupling=coupling, selector=np.eye(4)))
        return real, Weighting(np.eye(4)), MomentData(np.diag(p), ccr)

    # tau' = 2.75e7, so the grid starts at 13.75, past the first crossing near
    # t = 0.2661, which a horizon of 1e3, 1e5 or 1e7 finds; the scan reports
    # a later one (14.27).
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="the interval (0, grid[0]) is never evaluated")
    def test_first_crossing_before_the_grid(self):
        real, w, mo = self.system([6.28, 6.28, 0.003, 0.003], 1e-3 * np.eye(4), [5.0, 5.0, 50.0, 50.0])
        rep = decoherence_time(real, w, mo, 0.2)
        assert abs(rep.tau - 0.26607655839637) <= 1e-12 * 0.26607655839637

    # A damped mode beside a memory mode: the Hurwitz limit (103) is below the
    # threshold 252.5, and no point up to the default horizon 25.25 is above
    # it, but Delta crosses at t = 1828.41, long after the horizon.
    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="hurwitz_below_threshold reads only Delta at the scanned points and at infinity")
    def test_no_hurwitz_certificate_where_delta_crosses(self):
        real, w, mo = self.system([1.0, 1.0, 1e-3, 1e-3], np.diag([10.0, 10.0, 1e-3, 1e-3]), [0.5, 0.5, 50.0, 50.0])
        far = decoherence_time(real, w, mo, 2.5, horizon=1e4)
        assert far.certificate == CERT_CROSSING
        assert abs(far.tau - 1828.4084705824105) <= 1e-12 * 1828.4084705824105
        assert decoherence_time(real, w, mo, 2.5).certificate != CERT_HURWITZ
