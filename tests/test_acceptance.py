"""End-to-end acceptance checks, one numbered criterion per test.

Each test prints a single PASS/FAIL line (run with -s to see them on
success).  All random instances are seeded; tolerances are stated inline.
"""

import numpy as np
import scipy.linalg
import scipy.optimize

import oqho_memory as om
from oqho_memory import design, dynamics, network
from oqho_memory.model import OqhoParams, build_realization, canonical_ccr

from oracles import (
    descent_minimize,
    descent_minimize_sym,
    fd_sym_gradient,
    quad_gramian,
    random_marginal_system,
    random_params,
    random_spd,
    random_sym,
)


def _report(num, name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}"
    print(line)
    assert ok, line


def _single_mode():
    theta = canonical_ccr(1)
    real = build_realization(OqhoParams(ccr=theta, energy=np.zeros((2, 2)),
                                        coupling=np.eye(2), selector=np.eye(2)))
    w = dynamics.Weighting(np.eye(2))
    mo = dynamics.MomentData(np.eye(2), theta)
    return theta, real, w, mo


def _hurwitz_instance_stream(rng, tp_band=None, ts_band=None, re_band=None):
    """Rejection-sampled single-oscillator instances with conditioning filters."""
    theta = canonical_ccr(1)
    while True:
        params = random_params(rng, 1, 2)
        real = build_realization(params)
        spec = om.classify_spectrum(real.a)
        if spec.category != "Hurwitz":
            continue
        if re_band is not None:
            re = spec.eigenvalues.real
            if re.max() > re_band[1] or re.min() < re_band[0]:
                continue
        w = om.Weighting(rng.standard_normal((2, 2)) + 2 * np.eye(2))
        p = rng.standard_normal((2, 2))
        mo = om.MomentData(p @ p.T + 2 * np.eye(2), theta)
        if tp_band is not None:
            tp = om.tau_prime(real.b, w, mo)
            if not (tp_band[0] <= tp <= tp_band[1]):
                continue
        if ts_band is not None:
            ts = om.tau_second(real, w, mo)
            if not (ts_band[0] <= abs(ts) <= ts_band[1]):
                continue
        yield real, w, mo, spec


def test_criterion_01_physical_realizability_identity():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(200):
        nu = int(rng.choice([1, 2, 3]))
        m = int(rng.choice([2, 4]))
        params = random_params(rng, nu, m)
        real = build_realization(params)
        worst = max(worst, om.check_physical_realizability(real.a, real.b, params.ccr))
    _report(1, "physical realizability identity", worst <= 1e-12,
            f"worst residual {worst:.3e} over 200 instances (tol 1e-12)")


def test_criterion_02_gramian_cross_validation():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        g = rng.standard_normal((4, 4))
        a = g - (np.max(np.linalg.eigvals(g).real) + 0.2) * np.eye(4)
        b = rng.standard_normal((4, 2))
        for t in (0.1, 1.0, 5.0):
            err = np.max(np.abs(dynamics.gramian(a, b, t) - quad_gramian(a, b, t)))
            worst = max(worst, err)
    _report(2, "Gramian vs quadrature", worst <= 1e-8,
            f"worst elementwise error {worst:.3e} over 50 instances, t in {{0.1,1,5}} (tol 1e-8)")


def test_criterion_03_small_time_derivatives():
    rng = np.random.default_rng(102)
    theta = canonical_ccr(1)
    h = 1e-4
    worst = 0.0
    count = 0
    while count < 30:
        params = random_params(rng, 1, 2)
        real = build_realization(params)
        w = om.Weighting(rng.standard_normal((2, 2)) + 2 * np.eye(2))
        mo = om.MomentData(random_spd(rng, 2), theta)
        dot, ddot = dynamics.delta_derivatives(real.a, real.b, w, mo)
        if abs(ddot) < 1e-2:
            continue
        count += 1
        d1, d2, d3 = (om.delta(real.a, real.b, w, mo, k * h) for k in (1, 2, 3))
        fd_dot = (4.0 * d1 - d2) / (2.0 * h)
        fd_ddot = (-d3 + 4.0 * d2 - 5.0 * d1) / h ** 2
        worst = max(worst, abs(fd_dot - dot) / abs(dot), abs(fd_ddot - ddot) / abs(ddot))
    _report(3, "small-time derivatives vs finite differences", worst <= 1e-4,
            f"worst relative error {worst:.3e} over 30 instances at h = 1e-4 (tol 1e-4)")


def test_criterion_04_expansion_order():
    rng = np.random.default_rng(7)
    stream = _hurwitz_instance_stream(rng, tp_band=(0.1, 5.0), ts_band=(1e-3, 50.0))
    bad = []
    checked = 0
    skipped = 0
    for k in range(20):
        real, w, mo, _ = next(stream)
        errs = [abs((r := om.decoherence_time(real, w, mo, eps)).tau - r.tau_hat)
                for eps in (4e-3, 2e-3, 1e-3)]
        for e1, e2 in zip(errs, errs[1:]):
            if e1 < 1e-12 or e2 < 1e-12:
                skipped += 1
                continue
            checked += 1
            if not (6.0 <= e1 / e2 <= 10.0):
                bad.append((k, e1 / e2))
    _report(4, "quadratic expansion error order", not bad and checked > 0,
            f"{checked} halving ratios in [6,10], {skipped} degenerate skips, "
            f"violations {bad}")


def test_criterion_05_first_order_ratio():
    rng = np.random.default_rng(7)
    stream = _hurwitz_instance_stream(rng, tp_band=(0.1, 5.0), ts_band=(1e-3, 50.0))
    worst = 0.0
    for _ in range(20):
        real, w, mo, _ = next(stream)
        rep = om.decoherence_time(real, w, mo, 1e-4)
        worst = max(worst, abs(rep.tau / 1e-4 / rep.tau_prime - 1.0))
    _report(5, "tau/eps approaches tau'", worst <= 0.02,
            f"worst |tau/(eps tau') - 1| = {worst:.3e} at eps = 1e-4 (tol 0.02)")


def test_criterion_06_optimal_energy_vs_descent_oracle():
    rng = np.random.default_rng(3)
    theta = canonical_ccr(2)
    n, m = 4, 2
    worst_match = 0.0
    worst_res = 0.0
    worst_grad = 0.0
    for _ in range(20):
        coupling = rng.standard_normal((m, n))
        w = om.Weighting(0.3 * rng.standard_normal((n, n)) + 2 * np.eye(n))
        mo = om.MomentData(random_spd(rng, n, shift=2.0, scale=0.3), theta)
        opt = design.optimal_energy_matrix(theta, w, coupling, mo)
        worst_res = max(worst_res, opt.stationarity_residual)

        fun = lambda r: design.ddot_delta_of_energy(r, theta, w, coupling, mo)
        r_oracle, _ = descent_minimize_sym(fun, n)
        worst_match = max(worst_match, np.linalg.norm(opt.r_star - r_oracle)
                          / (1.0 + np.linalg.norm(opt.r_star)))

        r0 = random_sym(rng, n)
        real = build_realization(OqhoParams(ccr=theta, energy=r0, coupling=coupling,
                                            selector=np.eye(m)))
        g = design.grad_ddot_delta_wrt_energy(theta, w, real, mo)
        g_fd = fd_sym_gradient(fun, r0, h=1e-5)
        worst_grad = max(worst_grad, np.linalg.norm(g - g_fd)
                         / max(np.linalg.norm(g_fd), 1.0))
    ok = worst_match <= 1e-6 and worst_res <= 1e-9 and worst_grad <= 1e-6
    _report(6, "optimal energy matrix", ok,
            f"descent-oracle mismatch {worst_match:.3e} (tol 1e-6), stationarity "
            f"residual {worst_res:.3e} (tol 1e-9), gradient FD error {worst_grad:.3e} "
            f"(tol 1e-6), 20 instances")


def test_criterion_07_completed_square():
    rng = np.random.default_rng(103)
    theta = canonical_ccr(2)
    worst_form = 0.0
    worst_min = 0.0
    worst_eig = -np.inf
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 2))
        w = om.Weighting(rng.standard_normal((4, 4)) + 2 * np.eye(4))
        mo = om.MomentData(random_spd(rng, 4), theta)
        direct = design.ddot_delta_of_state(a, b, w, mo)
        quad = design.ddot_delta_quad_form(a, b, w, mo)
        worst_form = max(worst_form, abs(direct - quad) / max(abs(direct), 1.0))
        a_hat = design.a_hat_minimizer(b, mo)
        p_inv_half = np.linalg.inv(scipy.linalg.sqrtm(mo.p).real)
        floor = -0.5 * np.linalg.norm(w.f @ b @ b.T @ p_inv_half) ** 2
        at_min = design.ddot_delta_of_state(a_hat, b, w, mo)
        worst_min = max(worst_min, abs(at_min - floor) / max(abs(floor), 1.0))
        worst_eig = max(worst_eig, np.max(np.linalg.eigvals(a_hat).real))
    ok = worst_form <= 1e-10 and worst_min <= 1e-10 and worst_eig <= 1e-10
    _report(7, "completed square of ddot(Delta)", ok,
            f"form mismatch {worst_form:.3e}, min-value mismatch {worst_min:.3e} "
            f"(tol 1e-10), max Re eig(Ahat) {worst_eig:.3e} (tol 1e-10), 20 instances")


def test_criterion_08_zero_hamiltonian_condition():
    theta, real, w, mo = _single_mode()
    zh0 = design.zero_hamiltonian_condition(theta, w, np.eye(2), mo)
    opt0 = design.optimal_energy_matrix(theta, w, np.eye(2), mo)

    n_pert = np.eye(2)
    n_pert[0, 1] += 0.1
    zh1 = design.zero_hamiltonian_condition(theta, w, n_pert, mo)
    opt1 = design.optimal_energy_matrix(theta, w, n_pert, mo)
    # Frozen reference values for the perturbed instance.
    zh1_ref = 0.141598022585063
    r1_ref = 0.0707990112925315
    ok = (zh0 <= 1e-12 and np.linalg.norm(opt0.r_star) <= 1e-12
          and zh1 > 1e-3 and np.linalg.norm(opt1.r_star) > 1e-3
          and abs(zh1 - zh1_ref) <= 1e-9
          and abs(np.linalg.norm(opt1.r_star) - r1_ref) <= 1e-9)
    _report(8, "zero-Hamiltonian optimality condition", ok,
            f"base residual {zh0:.3e} with ||R*|| = {np.linalg.norm(opt0.r_star):.3e}; "
            f"perturbed residual {zh1:.6f} (ref {zh1_ref}), "
            f"||R*|| = {np.linalg.norm(opt1.r_star):.6f} (ref {r1_ref})")


def _random_subsystem(rng, zero_energy=False, scale=0.7):
    n = 2
    energy = np.zeros((2, 2)) if zero_energy else random_sym(rng, n, scale)
    return network.SubsystemParams(
        ccr=canonical_ccr(1),
        energy=energy,
        coupling_external=scale * rng.standard_normal((2, n)),
        coupling_internal=scale * rng.standard_normal((2, n)),
        selector=np.eye(2),
    )


def test_criterion_09_interconnection_consistency():
    rng = np.random.default_rng(104)
    worst_cons = 0.0
    worst_zero_h = 0.0
    for _ in range(100):
        sub1 = _random_subsystem(rng)
        sub2 = _random_subsystem(rng)
        inter = network.assemble(sub1, sub2, 0.7 * rng.standard_normal((2, 2)))
        worst_cons = max(worst_cons, inter.consistency_residual)

        z1 = _random_subsystem(rng, zero_energy=True)
        z2 = _random_subsystem(rng, zero_energy=True)
        r12, _ = network.zero_hamiltonian_r12(z1, z2)
        closed = network.assemble(z1, z2, r12)
        worst_zero_h = max(worst_zero_h, np.linalg.norm(closed.closed_r))
    ok = worst_cons <= 1e-12 and worst_zero_h <= 1e-12
    _report(9, "interconnection consistency", ok,
            f"worst block-assembly residual {worst_cons:.3e}, worst closed-loop "
            f"||R|| after cancellation {worst_zero_h:.3e} over 100 scenarios (tol 1e-12)")


def test_criterion_10_optimal_r12():
    rng = np.random.default_rng(105)
    worst_match = 0.0
    worst_res = 0.0
    for k in range(20):
        sub1 = _random_subsystem(rng)
        sub2 = _random_subsystem(rng)
        theta = om.CcrMatrix(scipy.linalg.block_diag(sub1.ccr.theta, sub2.ccr.theta))
        if k < 10:
            # Block-diagonal Sigma and P: the Sylvester route applies.
            f_mat = scipy.linalg.block_diag(
                0.3 * rng.standard_normal((2, 2)) + 2 * np.eye(2),
                0.3 * rng.standard_normal((2, 2)) + 2 * np.eye(2))
            p_mat = scipy.linalg.block_diag(random_spd(rng, 2, scale=0.3),
                                            random_spd(rng, 2, scale=0.3))
        else:
            f_mat = 0.3 * rng.standard_normal((4, 4)) + 2 * np.eye(4)
            p_mat = random_spd(rng, 4, shift=2.0, scale=0.3)
        w = om.Weighting(f_mat)
        mo = om.MomentData(p_mat, theta)
        x, residual, method = network.optimal_r12(sub1, sub2, w, mo)
        worst_res = max(worst_res, residual)
        if k < 10:
            assert method == "Sylvester"
            base = network.assemble(sub1, sub2, np.zeros((2, 2)))
            a0 = base.closed_realization.a
            b = base.closed_realization.b
            t1, t2 = sub1.ccr.theta, sub2.ccr.theta

            def f(v):
                r12 = v.reshape(2, 2)
                a = a0 + np.block([[np.zeros((2, 2)), 2.0 * t1 @ r12],
                                   [2.0 * t2 @ r12.T, np.zeros((2, 2))]])
                return design.ddot_delta_of_state(a, b, w, mo)

            v_star, _ = descent_minimize(f, 4)
            worst_match = max(worst_match, np.linalg.norm(v_star.reshape(2, 2) - x)
                              / (1.0 + np.linalg.norm(x)))
    ok = worst_match <= 1e-6 and worst_res <= 1e-9
    _report(10, "optimal direct coupling R12", ok,
            f"descent-oracle mismatch {worst_match:.3e} (tol 1e-6, Sylvester cases), "
            f"worst stationarity residual {worst_res:.3e} (tol 1e-9), 20 instances")


def test_criterion_11_hurwitz_limit():
    rng = np.random.default_rng(5)
    stream = _hurwitz_instance_stream(rng, re_band=(-1.5, -0.3))
    worst = 0.0
    for _ in range(20):
        real, w, mo, spec = next(stream)
        t_end = 40.0 / abs(spec.eigenvalues.real.max())
        lim = dynamics.hurwitz_limit(real.a, real.b, w, mo)
        worst = max(worst, abs(om.delta(real.a, real.b, w, mo, t_end) - lim))
    _report(11, "infinite-horizon limit", worst <= 1e-6,
            f"worst |Delta(40/|Re lambda_max|) - limit| = {worst:.3e} over 20 "
            f"Hurwitz instances (tol 1e-6)")


def test_criterion_12_asymptotic_growth_rate():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(10):
        a, b = random_marginal_system(rng)
        rate = dynamics.asymptotic_rate(a, b)
        emp = (dynamics.gramian(a, b, 400.0) - dynamics.gramian(a, b, 200.0)) / 200.0
        worst = max(worst, np.max(np.abs(emp - rate)))
    _report(12, "marginal-spectrum linear growth rate", worst <= 1e-3,
            f"worst elementwise error {worst:.3e} over 10 instances (tol 1e-3)")


def test_criterion_13_single_mode_closed_form():
    _, real, w, mo = _single_mode()
    ts = np.linspace(0.0, 8.0, 100)
    worst = max(abs(om.delta(real.a, real.b, w, mo, t)
                    - (2.0 * (1.0 - np.exp(-t)) ** 2 + 1.0 - np.exp(-2.0 * t)))
                for t in ts)
    _report(13, "single-mode closed form", worst <= 1e-10,
            f"worst pointwise error {worst:.3e} on a 100-point grid (tol 1e-10)")
