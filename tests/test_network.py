import dataclasses

import numpy as np
import pytest
import scipy.linalg

from oqho_memory import network
from oqho_memory.design import ddot_delta_of_state, grad_ddot_delta_wrt_energy, optimal_energy_matrix
from oqho_memory.dynamics import MomentData, Weighting
from oqho_memory.errors import DimensionError, NumericalError, ValidationError
from oqho_memory.model import (J2, CcrMatrix, OqhoParams, build_realization, canonical_ccr,
                               check_physical_realizability)
from oqho_memory.network import (
    SubsystemParams,
    assemble,
    optimal_r12,
    q_matrix,
    zero_hamiltonian_r12,
)

from oracles import fd_gradient, kron_min_norm_solve, kron_offdiag_operator, random_spd, random_sym


def make_subsystem(rng, nu=1, m=2, r_other=2, zero_energy=False, scale=1.0):
    n = 2 * nu
    energy = np.zeros((n, n)) if zero_energy else random_sym(rng, n, scale)
    return SubsystemParams(
        ccr=canonical_ccr(nu),
        energy=energy,
        coupling_external=scale * rng.standard_normal((m, n)),
        coupling_internal=scale * rng.standard_normal((r_other, n)),
        selector=np.eye(m),
    )


def make_pair(rng, **kw):
    sub1 = make_subsystem(rng, **kw)
    sub2 = make_subsystem(rng, **kw)
    return sub1, sub2


def composite_weighting_moments(rng, n_total, theta):
    w = Weighting(0.3 * rng.standard_normal((n_total, n_total)) + 2.0 * np.eye(n_total))
    mo = MomentData(random_spd(rng, n_total, shift=2.0, scale=0.3), theta)
    return w, mo


class TestAssemble:
    def test_decoupled_is_block_diagonal(self):
        rng = np.random.default_rng(60)
        sub1 = SubsystemParams(ccr=canonical_ccr(1), energy=random_sym(rng, 2),
                               coupling_external=rng.standard_normal((2, 2)),
                               coupling_internal=np.zeros((2, 2)), selector=np.eye(2))
        sub2 = SubsystemParams(ccr=canonical_ccr(1), energy=random_sym(rng, 2),
                               coupling_external=rng.standard_normal((2, 2)),
                               coupling_internal=np.zeros((2, 2)), selector=np.eye(2))
        inter = assemble(sub1, sub2, np.zeros((2, 2)))
        a = inter.closed_realization.a
        b = inter.closed_realization.b
        assert np.all(a[:2, 2:] == 0) and np.all(a[2:, :2] == 0)
        assert np.all(b[:2, 2:] == 0) and np.all(b[2:, :2] == 0)
        assert np.all(inter.closed_r[:2, 2:] == 0)

    def test_field_only_coupling_pattern(self):
        # With N1 = N2 = 0 the drive enters each subsystem only through the
        # other's selected output; B and the closed N are purely off-diagonal.
        rng = np.random.default_rng(61)
        sub = []
        for _ in range(2):
            sub.append(SubsystemParams(
                ccr=canonical_ccr(1), energy=random_sym(rng, 2),
                coupling_external=np.zeros((2, 2)),
                coupling_internal=rng.standard_normal((2, 2)), selector=np.eye(2)))
        inter = assemble(sub[0], sub[1], np.zeros((2, 2)))
        b = inter.closed_realization.b
        assert np.all(b[:2, :2] == 0) and np.all(b[2:, 2:] == 0)
        assert np.all(inter.closed_n[:2, :2] == 0) and np.all(inter.closed_n[2:, 2:] == 0)

    def test_consistency_and_physical_realizability(self):
        rng = np.random.default_rng(62)
        for _ in range(10):
            sub1, sub2 = make_pair(rng)
            inter = assemble(sub1, sub2, rng.standard_normal((2, 2)))
            assert inter.consistency_residual <= 1e-12
            theta = CcrMatrix(scipy.linalg.block_diag(sub1.ccr.theta, sub2.ccr.theta))
            pr = check_physical_realizability(inter.closed_realization.a,
                                              inter.closed_realization.b, theta)
            assert pr <= 1e-12

    def test_realization_is_that_of_the_loop_parameters(self):
        # The closed loop's realization is build_realization of its own
        # (Theta, R, N, D), field for field, not patched from the block form.
        rng = np.random.default_rng(77)
        for nu in (1, 2):
            sub1, sub2 = make_pair(rng, nu=nu)
            inter = assemble(sub1, sub2, rng.standard_normal((2 * nu, 2 * nu)))
            want = build_realization(OqhoParams(inter.closed_theta, inter.closed_r, inter.closed_n,
                                                scipy.linalg.block_diag(sub1.selector, sub2.selector)))
            for field in ("a", "b", "c", "d", "a0", "a_tilde"):
                np.testing.assert_array_equal(getattr(inter.closed_realization, field), getattr(want, field),
                                              err_msg=field)

    def test_loop_of_valid_selectors_is_valid(self):
        # D = diag(1, 1 + 4.5e-11) is off by 9e-11 in one entry of D D^T - I,
        # and so is blockdiag(D, D): the loop's selector is as valid as each.
        rng = np.random.default_rng(78)
        sub1, sub2 = (dataclasses.replace(sub, selector=np.diag([1.0, 1.0 + 4.5e-11])) for sub in make_pair(rng))
        inter = assemble(sub1, sub2, np.zeros((2, 2)))
        np.testing.assert_array_equal(inter.closed_realization.d,
                                      scipy.linalg.block_diag(sub1.selector, sub2.selector))

    def test_closed_theta_block_diagonal(self):
        rng = np.random.default_rng(63)
        sub1, sub2 = make_pair(rng)
        inter = assemble(sub1, sub2, np.zeros((2, 2)))
        assert np.all(inter.closed_theta.theta[:2, 2:] == 0)

    def test_dimension_checks(self):
        rng = np.random.default_rng(64)
        sub1, sub2 = make_pair(rng)
        with pytest.raises(DimensionError):
            assemble(sub1, sub2, np.zeros((2, 3)))

    def test_overflowing_block_fails_consistency(self):
        # With Theta = 0.5e-10 J the blocks 2 Theta (R + N^T J N) overflow inside
        # the sum while the reference 2 Theta R + 2 Theta N^T J N does not, so the
        # residual is nan; a test `residual > bound` lets nan through.
        sub = SubsystemParams(ccr=CcrMatrix(0.5e-10 * J2), energy=np.array([[0.0, 1.5e308], [1.5e308, 0.0]]),
                              coupling_external=np.sqrt(0.5e308) * np.eye(2),
                              coupling_internal=np.zeros((2, 2)), selector=np.eye(2))
        with pytest.raises(NumericalError, match="inconsistent"):
            assemble(sub, sub, np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_internal_coupling_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            SubsystemParams(ccr=canonical_ccr(1), energy=np.zeros((2, 2)), coupling_external=np.eye(2),
                            coupling_internal=np.array([[bad, 0.0], [0.0, 1.0]]), selector=np.eye(2))


class TestZeroHamiltonianR12:
    def test_no_internal_coupling(self):
        rng = np.random.default_rng(65)
        sub1, sub2 = make_pair(rng)
        sub1 = SubsystemParams(ccr=sub1.ccr, energy=sub1.energy,
                               coupling_external=sub1.coupling_external,
                               coupling_internal=np.zeros((2, 2)), selector=sub1.selector)
        sub2 = SubsystemParams(ccr=sub2.ccr, energy=sub2.energy,
                               coupling_external=sub2.coupling_external,
                               coupling_internal=np.zeros((2, 2)), selector=sub2.selector)
        r12, _ = zero_hamiltonian_r12(sub1, sub2)
        assert np.all(r12 == 0)

    def test_cancels_field_mediated_energy(self):
        rng = np.random.default_rng(66)
        for _ in range(5):
            sub1, sub2 = make_pair(rng, zero_energy=True)
            r12, warning = zero_hamiltonian_r12(sub1, sub2)
            assert warning is None
            inter = assemble(sub1, sub2, r12)
            assert np.linalg.norm(inter.closed_r) <= 1e-12

    def test_swap_transpose_symmetry(self):
        rng = np.random.default_rng(67)
        sub1, sub2 = make_pair(rng, zero_energy=True)
        r12, _ = zero_hamiltonian_r12(sub1, sub2)
        r21, _ = zero_hamiltonian_r12(sub2, sub1)
        np.testing.assert_allclose(r21, r12.T, atol=1e-13)

    def test_warns_on_nonzero_subsystem_energy(self):
        rng = np.random.default_rng(68)
        sub1, sub2 = make_pair(rng)
        _, warning = zero_hamiltonian_r12(sub1, sub2)
        assert warning is not None

    def test_warns_on_tiny_subsystem_energy(self):
        # ||1e-200 I||_F underflows to 0; the entries do not.
        rng = np.random.default_rng(68)
        sub1, sub2 = (dataclasses.replace(s, energy=1e-200 * np.eye(2)) for s in make_pair(rng))
        _, warning = zero_hamiltonian_r12(sub1, sub2)
        assert warning is not None


class TestQMatrix:
    def test_fully_decoupled_vanishes(self):
        theta = canonical_ccr(1)
        zero_sub = SubsystemParams(ccr=theta, energy=np.zeros((2, 2)),
                                   coupling_external=np.zeros((2, 2)),
                                   coupling_internal=np.zeros((2, 2)),
                                   selector=np.eye(2))
        inter = assemble(zero_sub, zero_sub, np.zeros((2, 2)))
        w = Weighting(np.eye(4))
        mo = MomentData(np.eye(4), inter.closed_theta)
        assert np.all(q_matrix(inter, w, mo) == 0)

    def test_matches_finite_difference_gradient(self):
        # ddot(Delta) as a function of R12 has gradient -16 Q at R12 = 0
        # (Q is half the symmetrized block, and R12 enters twice).
        rng = np.random.default_rng(69)
        sub1, sub2 = make_pair(rng)
        base = assemble(sub1, sub2, np.zeros((2, 2)))
        w, mo = composite_weighting_moments(rng, 4, base.closed_theta)
        q = q_matrix(base, w, mo)
        a0 = base.closed_realization.a
        b = base.closed_realization.b
        t1, t2 = sub1.ccr.theta, sub2.ccr.theta

        def f(x_flat):
            x = x_flat.reshape(2, 2)
            a = a0 + np.block([[np.zeros((2, 2)), 2.0 * t1 @ x],
                               [2.0 * t2 @ x.T, np.zeros((2, 2))]])
            return ddot_delta_of_state(a, b, w, mo)

        g = fd_gradient(f, np.zeros(4), h=1e-5).reshape(2, 2)
        assert np.linalg.norm(g - (-16.0) * q) <= 1e-6 * max(np.linalg.norm(g), 1.0)

    def test_independent_of_r12(self):
        # Q is built from Abreve, the A of the loop with R12 = 0, so the loops'
        # Q are bit-equal: nothing depending on R12 is added and subtracted.
        rng = np.random.default_rng(76)
        sub1, sub2 = make_pair(rng, nu=2)
        base = assemble(sub1, sub2, np.zeros((4, 4)))
        w, mo = composite_weighting_moments(rng, 8, base.closed_theta)
        coupled = assemble(sub1, sub2, rng.standard_normal((4, 4)))
        np.testing.assert_array_equal(q_matrix(coupled, w, mo), q_matrix(base, w, mo))

    def test_matches_composite_k_block(self):
        # Without internal couplings and with R1 = R2 = 0, the closed loop is
        # a plain OQHO and Q is the (1,2) block of its stationarity constant.
        from oqho_memory.design import k_matrix
        rng = np.random.default_rng(70)
        sub1, sub2 = make_pair(rng, zero_energy=True)
        sub1 = SubsystemParams(ccr=sub1.ccr, energy=sub1.energy,
                               coupling_external=sub1.coupling_external,
                               coupling_internal=np.zeros((2, 2)), selector=sub1.selector)
        sub2 = SubsystemParams(ccr=sub2.ccr, energy=sub2.energy,
                               coupling_external=sub2.coupling_external,
                               coupling_internal=np.zeros((2, 2)), selector=sub2.selector)
        inter = assemble(sub1, sub2, np.zeros((2, 2)))
        w, mo = composite_weighting_moments(rng, 4, inter.closed_theta)
        q = q_matrix(inter, w, mo)
        k = k_matrix(inter.closed_theta, w, inter.closed_realization.b,
                     inter.closed_realization.a_tilde, mo)
        np.testing.assert_allclose(q, k[:2, 2:], atol=1e-12)


class TestOptimalR12:
    def test_trivial_zero(self):
        theta = canonical_ccr(1)
        zero_sub = SubsystemParams(ccr=theta, energy=np.zeros((2, 2)),
                                   coupling_external=np.zeros((2, 2)),
                                   coupling_internal=np.zeros((2, 2)),
                                   selector=np.eye(2))
        w = Weighting(np.eye(4))
        mo = MomentData(np.eye(4), CcrMatrix(scipy.linalg.block_diag(theta.theta,
                                                                     theta.theta)))
        x, residual, method = optimal_r12(zero_sub, zero_sub, w, mo)
        assert np.linalg.norm(x) <= 1e-12
        assert residual <= 1e-12

    def test_calls_no_assemble(self, monkeypatch):
        # Q is read from the loop's parameters; no closed loop is assembled.
        calls = []
        monkeypatch.setattr(network, "assemble", lambda *args: calls.append(args) or assemble(*args))
        rng = np.random.default_rng(78)
        sub1, sub2 = make_pair(rng)
        theta = CcrMatrix(scipy.linalg.block_diag(sub1.ccr.theta, sub2.ccr.theta))
        optimal_r12(sub1, sub2, *composite_weighting_moments(rng, 4, theta))
        assert calls == []

    def test_block_diagonal_case_sylvester(self):
        rng = np.random.default_rng(71)
        sub1, sub2 = make_pair(rng)
        theta = CcrMatrix(scipy.linalg.block_diag(sub1.ccr.theta, sub2.ccr.theta))
        w = Weighting(scipy.linalg.block_diag(
            0.3 * rng.standard_normal((2, 2)) + 2 * np.eye(2),
            0.3 * rng.standard_normal((2, 2)) + 2 * np.eye(2)))
        mo = MomentData(scipy.linalg.block_diag(random_spd(rng, 2, scale=0.3),
                                                random_spd(rng, 2, scale=0.3)), theta)
        x, residual, method = optimal_r12(sub1, sub2, w, mo)
        assert method == "Sylvester"
        assert residual <= 1e-9

    @pytest.mark.parametrize("path", ["ALE", "Sylvester", "LeastSquares"])
    def test_general_case_residual_and_optimality(self, path):
        # Each path's solution is stationary in its subspace S of energy
        # matrices (the gradient of ddot(Delta) projected onto S vanishes) and
        # no step inside S lowers ddot(Delta).  "ALE" is R* of the closed loop's
        # Theta and N over every symmetric R; the other two are R12*, with the
        # moments block-diagonal on the Sylvester path.
        rng = np.random.default_rng(72)
        sub1, sub2 = make_pair(rng)
        base = assemble(sub1, sub2, np.zeros((2, 2)))
        theta, coupling = base.closed_theta, base.closed_n
        w, mo = composite_weighting_moments(rng, 4, theta)
        if path == "ALE":
            opt = optimal_energy_matrix(theta, w, coupling, mo)
            x, residual, method = opt.r_star, opt.stationarity_residual, opt.method
            state = lambda r: build_realization(OqhoParams(theta, r, coupling, np.eye(len(coupling))))
            project, step = (lambda g: g), (lambda: random_sym(rng, 4))
        else:
            if path == "Sylvester":
                mo = MomentData(scipy.linalg.block_diag(random_spd(rng, 2, shift=2.0, scale=0.3),
                                                        random_spd(rng, 2, shift=2.0, scale=0.3)), theta)
            x, residual, method = optimal_r12(sub1, sub2, w, mo)
            state = lambda r12: assemble(sub1, sub2, r12).closed_realization
            project, step = (lambda g: g[:2, 2:]), (lambda: rng.standard_normal((2, 2)))
        assert method == path
        assert residual <= 1e-9

        def grad(x):
            return project(grad_ddot_delta_wrt_energy(theta, w, state(x), mo))

        def ddot_at(x):
            real = state(x)
            return ddot_delta_of_state(real.a, real.b, w, mo)

        assert np.linalg.norm(grad(x)) <= 1e-10 * np.linalg.norm(grad(np.zeros_like(x)))
        best = ddot_at(x)
        for _ in range(30):
            assert best <= ddot_at(x + 1e-3 * step()) + 1e-8

    @pytest.mark.parametrize("nu", [1, 2])
    def test_general_case_matches_min_norm_oracle(self, nu):
        rng = np.random.default_rng(73 + nu)
        n = 2 * nu
        sub1, sub2 = make_pair(rng, nu=nu)
        base = assemble(sub1, sub2, np.zeros((n, n)))
        w, mo = composite_weighting_moments(rng, 2 * n, base.closed_theta)
        x, residual, method = optimal_r12(sub1, sub2, w, mo)
        assert method == "LeastSquares"

        theta = base.closed_theta.theta
        lhs = kron_offdiag_operator(theta @ w.sigma @ theta, mo.p, n)
        x_ref = kron_min_norm_solve(lhs, q_matrix(base, w, mo))
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
        assert residual <= 1e-10
