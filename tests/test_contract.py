"""Every public callable keeps the floating-point and the input contract.

Each row of ROWS calls one callable of the library's public surface (or
several times) with finite inputs whose entries, 1e150 to 1e308 or subnormal,
make an intermediate result overflow, or with a grid too large to allocate.
Under warnings-as-errors each call must either return finite values or raise
an OqhoError; a RuntimeWarning, a raw numpy error, a MemoryError or a silent
inf or nan fails the row.

Each row of OVERFLOWED_INTERMEDIATES overflows an intermediate that the
library forms from finite inputs and passes on to a kernel: it must raise
NumericalError, never the ValidationError of the kernel that reads it.

Each row of MALFORMED calls a callable that takes a matrix with one matrix
argument of the wrong shape, one complex, one ragged nested list, and one
matrix of the right shape with a nan and one with an inf entry.  Each call
must raise DimensionError for the shape and ValidationError for the others,
under warnings-as-errors (numpy's ComplexWarning would drop an imaginary
part).  Both tables must name every callable of the modules' __all__.
"""

import warnings

import numpy as np
import pytest

from oqho_memory import decoherence, design, dynamics, model, network, numerics
from oqho_memory.dynamics import DeviationEvaluator, MomentData, Weighting
from oqho_memory.errors import DimensionError, NumericalError, OqhoError, ValidationError
from oqho_memory.model import J2, CcrMatrix, OqhoParams, Realization, canonical_ccr
from oqho_memory.network import SubsystemParams

MODULES = (model, numerics, dynamics, decoherence, design, network)

# Records (dataclasses that only hold values; Realization reads its A and B
# and is not one) and the two constructors whose arguments are counts.
EXEMPT = {
    "model.SpectralClass", "dynamics.DeviationCurve",
    "decoherence.DecoherenceReport", "design.EnergyOptimum", "network.Interconnection",
    "model.ito_j", "model.canonical_ccr",
}

I2 = np.eye(2)
CCR = canonical_ccr(1)
W = Weighting(I2)
MOM = MomentData(I2, CCR)
BIG_CCR = CcrMatrix(0.5e10 * J2)

# A = a I and B = sqrt(a) I with e^{2a} ~ 0.75e308: at t = 1 the signal and
# the noise summand of Delta are each ~1.5e308, so each is finite and their
# sum is not.
_A_EDGE = 0.5 * np.log(0.75e308)
EDGE = (_A_EDGE * I2, np.sqrt(_A_EDGE) * I2)


def _sub(coupling, internal):
    return SubsystemParams(ccr=CCR, energy=np.zeros((2, 2)), coupling_external=coupling * I2,
                           coupling_internal=internal * I2, selector=I2)


def _coupled_weighting_moments():
    """4 x 4 Sigma and P whose (1, 2) blocks are nonzero (the CG path of optimal_r12)."""
    theta = CcrMatrix(np.kron(I2, 0.5 * J2))
    off = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), 0.2 * I2)
    return Weighting(np.eye(4) + off), MomentData(np.eye(4) + off, theta)


def _evaluator(a, b):
    return DeviationEvaluator(a, b, W, MOM)


ROWS = {
    # model
    "model.CcrMatrix": lambda: CcrMatrix(1e308 * np.ones((2, 2))),
    "model.OqhoParams": lambda: OqhoParams(CCR, np.zeros((2, 2)), I2, 1e200 * I2),
    "model.build_realization": lambda: model.build_realization(OqhoParams(CCR, 1e308 * I2, 1e200 * I2, I2)),
    "model.check_physical_realizability": lambda: model.check_physical_realizability(1e200 * I2, 1e200 * I2, CCR),
    "model.classify_spectrum": lambda: model.classify_spectrum(1e308 * np.ones((2, 2))),
    "model.Realization": lambda: Realization(1e308 * I2, 1e308 * I2, None, None),
    # numerics
    "numerics.matrix_exp": lambda: numerics.matrix_exp(1e200 * I2, 1e200),
    "numerics.solve_lyapunov": lambda: numerics.solve_lyapunov(-1e200 * I2, 1e300 * I2),
    "numerics.solve_sylvester": lambda: numerics.solve_sylvester(-1e200 * I2, 1e200 * I2, -1e200 * I2,
                                                                 1e200 * I2, 1e300 * I2),
    "numerics.solve_symmetric_constrained": lambda: numerics.solve_symmetric_constrained(
        lambda x: -1e200 * x, 1e300 * I2),
    "numerics.sqrt_psd": (lambda: numerics.sqrt_psd(1e308 * I2), lambda: numerics.sqrt_psd(5e-324 * I2)),
    "numerics.eigh_definite": lambda: numerics.eigh_definite(1e300 * I2, 1e-300 * I2),
    # dynamics
    "dynamics.MomentData": (lambda: MomentData(1e308 * np.ones((2, 2)), CCR),
                            lambda: MomentData(5e-324 * I2, CCR)),
    "dynamics.Weighting": lambda: Weighting(1e200 * I2),
    "dynamics.Weighting.from_sigma": (lambda: Weighting.from_sigma(1e308 * I2),
                                      lambda: Weighting.from_sigma(1e-320 * I2)),  # 4^-k overflows
    "dynamics.DeviationEvaluator": lambda: _evaluator(-I2, 1e200 * I2),
    "dynamics.DeviationEvaluator.terms": lambda: _evaluator(800.0 * I2, I2).terms(1.0),
    "dynamics.DeviationEvaluator.scan": lambda: _evaluator(800.0 * I2, I2).scan([0.0, 1.0], 1e300),
    "dynamics.DeviationEvaluator.delta": lambda: _evaluator(*EDGE).delta(1.0),
    "dynamics.DeviationEvaluator.hurwitz_limit": lambda: _evaluator(-1e-8 * I2, 1e152 * I2).hurwitz_limit(),
    "dynamics.gramian": lambda: dynamics.gramian(-1e-200 * I2, 1e200 * I2, 1.0),
    "dynamics.delta": lambda: dynamics.delta(-I2, 1e200 * I2, W, MOM, 1.0),
    "dynamics.delta_derivatives": lambda: dynamics.delta_derivatives(1e200 * I2, 1e200 * I2, W, MOM),
    "dynamics.hurwitz_limit": lambda: dynamics.hurwitz_limit(-I2, 1e200 * I2, W, MOM),
    "dynamics.asymptotic_rate": lambda: dynamics.asymptotic_rate(1e200 * J2, 1e200 * I2),
    "dynamics.time_scale": lambda: dynamics.time_scale(1e300 * np.ones((2, 2))),
    "dynamics.default_time_grid": (lambda: dynamics.default_time_grid(1e300 * np.ones((2, 2))),
                                   lambda: dynamics.default_time_grid(-I2, points=10**12)),
    "dynamics.compute_deviation_curve": lambda: dynamics.compute_deviation_curve(
        -I2, 1e200 * I2, W, MOM, [0.0, 1.0]),
    # decoherence
    "decoherence.decoherence_time": (
        lambda: decoherence.decoherence_time((-I2, 1e200 * I2), W, MOM, 0.1),
        lambda: decoherence.decoherence_time((-I2, I2), W, MOM, 0.1, grid_points=10**12)),
    "decoherence.tau_prime": lambda: decoherence.tau_prime(1e200 * I2, W, MOM),
    "decoherence.tau_second": lambda: decoherence.tau_second((-I2, 1e200 * I2), W, MOM),
    "decoherence.tau_hat": lambda: decoherence.tau_hat((-I2, 1e200 * I2), W, MOM, 0.1),
    # design
    "design.k_matrix": lambda: design.k_matrix(CCR, W, 1e200 * I2, 1e200 * I2, MOM),
    # K = 0, but Theta Sigma Theta overflows.
    "design.optimal_energy_matrix": lambda: design.optimal_energy_matrix(
        BIG_CCR, Weighting(3e148 * I2), np.zeros((2, 2)), MomentData(1e10 * I2, BIG_CCR)),
    # K ~ 4e307 is finite, -8 K is not.
    "design.grad_ddot_delta_wrt_energy": lambda: design.grad_ddot_delta_wrt_energy(
        CCR, W, (8e307 * np.diag([1.0, -1.0]), np.zeros((2, 2))), MOM),
    # K ~ 1e308 is finite, 4 ||K|| is not.
    "design.zero_hamiltonian_condition": lambda: design.zero_hamiltonian_condition(
        CCR, Weighting(np.sqrt(18.75) * I2), np.sqrt(0.8e308) * I2, MomentData(np.diag([0.6, 0.5]), CCR)),
    "design.a_hat_minimizer": lambda: design.a_hat_minimizer(1e200 * I2, MOM),
    "design.ddot_delta_of_state": lambda: design.ddot_delta_of_state(1e200 * I2, 1e200 * I2, W, MOM),
    "design.ddot_delta_of_energy": lambda: design.ddot_delta_of_energy(1e200 * I2, CCR, W, 1e200 * I2, MOM),
    "design.ddot_delta_quad_form": lambda: design.ddot_delta_quad_form(1e200 * I2, I2, W, MOM),
    # network
    "network.SubsystemParams": lambda: _sub(1e200, 1e200),
    "network.assemble": lambda: network.assemble(_sub(1e200, 1e200), _sub(1e200, 1e200), 1e308 * I2),
    "network.zero_hamiltonian_r12": lambda: network.zero_hamiltonian_r12(_sub(1e200, 1e200), _sub(1e200, 1e200)),
    "network.q_matrix": lambda: network.q_matrix(
        network.assemble(_sub(1e150, 1e150), _sub(1e150, 1e150), np.zeros((2, 2))),
        *_coupled_weighting_moments()),
    "network.optimal_r12": (
        lambda: network.optimal_r12(_sub(1e150, 1e150), _sub(1e150, 1e150), *_coupled_weighting_moments()),
        lambda: network.optimal_r12(_sub(0.0, 0.0), _sub(0.0, 0.0), Weighting(1e154 * np.eye(4)),
                                    _coupled_weighting_moments()[1])),
}


def _public_callables():
    names = {f"{m.__name__.rsplit('.', 1)[1]}.{name}"
             for m in MODULES for name in m.__all__ if callable(getattr(m, name))}
    return names | {"dynamics.DeviationEvaluator.scan", "dynamics.DeviationEvaluator.terms",
                    "dynamics.DeviationEvaluator.delta",
                    "dynamics.DeviationEvaluator.hurwitz_limit", "dynamics.Weighting.from_sigma"}


def test_table_is_complete():
    assert not set(ROWS) & EXEMPT
    assert set(ROWS) | EXEMPT == _public_callables()


def _finite(value):
    """True unless value is a float, an array or a tuple holding an inf or nan;
    records and strings are not looked into."""
    if isinstance(value, tuple):
        return all(_finite(v) for v in value)
    if isinstance(value, (float, np.ndarray)):
        return bool(np.all(np.isfinite(value)))
    return True


@pytest.mark.parametrize("name", sorted(ROWS))
def test_overflowing_input_is_finite_or_typed_error(name):
    calls = ROWS[name] if isinstance(ROWS[name], tuple) else (ROWS[name],)
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                result = call()
            except OqhoError:
                continue
        assert _finite(result), (name, result)


# A = [[-1, 1], [0, -1]] is defective, so Delta, the Gramian and the limit take
# the Van Loan path, where B B^T = 1e400 I overflows before any kernel reads it.
DEFECTIVE = np.array([[-1.0, 1.0], [0.0, -1.0]])
OVERFLOWED_INTERMEDIATES = {
    "design.optimal_energy_matrix": ROWS["design.optimal_energy_matrix"],  # Theta Sigma Theta
    "dynamics.delta": lambda: dynamics.delta(DEFECTIVE, 1e200 * I2, W, MOM, 1.0),
    "dynamics.gramian": lambda: dynamics.gramian(DEFECTIVE, 1e200 * I2, 1.0),
    "dynamics.hurwitz_limit": lambda: dynamics.hurwitz_limit(DEFECTIVE, 1e200 * I2, W, MOM),
}


@pytest.mark.parametrize("name", OVERFLOWED_INTERMEDIATES)
def test_overflowed_intermediate_is_numerical_error(name):
    assert _evaluator(DEFECTIVE, I2).path == dynamics.VAN_LOAN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError):
            OVERFLOWED_INTERMEDIATES[name]()


# --- malformed input ---------------------------------------------------------

# Records, the two count-taking constructors, the two callables that take
# only validated records, and the evaluator's methods, which take times or
# nothing (times keep their PreconditionError).
MALFORMED_EXEMPT = {
    "model.SpectralClass", "dynamics.DeviationCurve",
    "decoherence.DecoherenceReport", "design.EnergyOptimum", "network.Interconnection",
    "model.ito_j", "model.canonical_ccr", "model.build_realization", "network.zero_hamiltonian_r12",
    "dynamics.DeviationEvaluator.scan", "dynamics.DeviationEvaluator.terms",
    "dynamics.DeviationEvaluator.delta", "dynamics.DeviationEvaluator.hurwitz_limit",
}

CPLX = (1.0 + 1.0j) * I2  # any complex array: its imaginary part must not be dropped
RAGGED = [[1.0, 0.0], [0.0]]
ORDER3 = np.eye(3)  # square, of the wrong order
WIDE = np.ones((2, 3))  # not square
VECTOR = np.ones(2)  # not a matrix
NAN2 = np.diag([1.0, np.nan])  # the right shape, one entry not finite
INF2 = np.diag([1.0, np.inf])


def _bad(call, wrong):
    """The malformed calls of call(X): ((X = wrong,), X = CPLX, X = RAGGED, X = NAN2, X = INF2)."""
    return ((lambda: call(wrong),), lambda: call(CPLX), lambda: call(RAGGED),
            lambda: call(NAN2), lambda: call(INF2))


def _closed_loop():
    return network.assemble(_sub(1.0, 1.0), _sub(1.0, 1.0), np.zeros((2, 2)))


# name: (calls that must raise DimensionError, complex call, ragged call, nan call, inf call).
# One matrix argument is malformed, the others are those of the single-mode
# system (A = -I, B = I, F = P = I).  q_matrix and optimal_r12 take records
# only, so their rows are a weighting too narrow for the closed loop alone.
MALFORMED = {
    # model
    "model.CcrMatrix": _bad(CcrMatrix, WIDE),
    "model.OqhoParams": _bad(lambda x: OqhoParams(CCR, x, I2, I2), ORDER3),
    "model.check_physical_realizability": _bad(lambda x: model.check_physical_realizability(x, I2, CCR), ORDER3),
    "model.classify_spectrum": _bad(model.classify_spectrum, WIDE),
    "model.Realization": (
        (lambda: Realization(-I2, ORDER3, None, None),
         lambda: Realization(-I2, I2, WIDE, None),  # C with n columns
         lambda: Realization(-I2, I2, I2, ORDER3[:, :2]),  # D with C's rows and m columns
         lambda: Realization(-I2, I2, None, WIDE),
         lambda: Realization(-I2, I2, None, None, a0=WIDE),
         lambda: Realization(-I2, I2, None, None, a_tilde=ORDER3)),
        lambda: Realization(-I2, CPLX, None, None),
        lambda: Realization(-I2, RAGGED, None, None),
        lambda: Realization(-I2, NAN2, None, None),
        lambda: Realization(-I2, INF2, None, None)),
    # numerics
    "numerics.matrix_exp": _bad(numerics.matrix_exp, WIDE),
    "numerics.solve_lyapunov": _bad(lambda x: numerics.solve_lyapunov(-I2, x), ORDER3),
    "numerics.solve_sylvester": _bad(lambda x: numerics.solve_sylvester(-I2, I2, -I2, I2, x), WIDE),
    "numerics.solve_symmetric_constrained": (
        (lambda: numerics.solve_symmetric_constrained(lambda x: -x, VECTOR),
         lambda: numerics.solve_symmetric_constrained(lambda x: -x[:1], I2)),  # op(X) of the wrong shape
        lambda: numerics.solve_symmetric_constrained(lambda x: -x, CPLX),
        lambda: numerics.solve_symmetric_constrained(lambda x: -x, RAGGED),
        lambda: numerics.solve_symmetric_constrained(lambda x: -x, NAN2),
        lambda: numerics.solve_symmetric_constrained(lambda x: -x, INF2)),
    "numerics.sqrt_psd": _bad(numerics.sqrt_psd, WIDE),
    "numerics.eigh_definite": _bad(lambda x: numerics.eigh_definite(I2, x), ORDER3),
    # dynamics
    "dynamics.MomentData": _bad(lambda x: MomentData(x, CCR), ORDER3),
    "dynamics.Weighting": _bad(Weighting, VECTOR),
    "dynamics.Weighting.from_sigma": _bad(Weighting.from_sigma, WIDE),
    "dynamics.DeviationEvaluator": _bad(lambda x: DeviationEvaluator(x, I2, W, MOM), ORDER3),
    "dynamics.gramian": _bad(lambda x: dynamics.gramian(-I2, x, 1.0), ORDER3),
    "dynamics.delta": _bad(lambda x: dynamics.delta(x, I2, W, MOM, 1.0), ORDER3),
    "dynamics.delta_derivatives": _bad(lambda x: dynamics.delta_derivatives(-I2, x, W, MOM), ORDER3),
    "dynamics.hurwitz_limit": _bad(lambda x: dynamics.hurwitz_limit(x, I2, W, MOM), ORDER3),
    "dynamics.asymptotic_rate": _bad(lambda x: dynamics.asymptotic_rate(J2, x), ORDER3),
    "dynamics.time_scale": _bad(dynamics.time_scale, VECTOR),
    "dynamics.default_time_grid": _bad(dynamics.default_time_grid, VECTOR),
    "dynamics.compute_deviation_curve": _bad(
        lambda x: dynamics.compute_deviation_curve(x, I2, W, MOM, [0.0, 1.0]), ORDER3),
    # decoherence
    "decoherence.decoherence_time": _bad(lambda x: decoherence.decoherence_time((x, I2), W, MOM, 0.1), VECTOR),
    "decoherence.tau_prime": _bad(lambda x: decoherence.tau_prime(x, W, MOM), ORDER3),
    "decoherence.tau_second": _bad(lambda x: decoherence.tau_second((-I2, x), W, MOM), ORDER3),
    "decoherence.tau_hat": _bad(lambda x: decoherence.tau_hat((-I2, x), W, MOM, 0.1), ORDER3),
    # design
    "design.k_matrix": _bad(lambda x: design.k_matrix(CCR, W, I2, x, MOM), ORDER3),
    "design.optimal_energy_matrix": (
        (lambda: design.optimal_energy_matrix(CCR, Weighting(np.eye(3)), I2, MOM),),
        lambda: design.optimal_energy_matrix(CCR, W, CPLX, MOM),
        lambda: design.optimal_energy_matrix(CCR, W, RAGGED, MOM),
        lambda: design.optimal_energy_matrix(CCR, W, NAN2, MOM),
        lambda: design.optimal_energy_matrix(CCR, W, INF2, MOM)),
    "design.grad_ddot_delta_wrt_energy": _bad(
        lambda x: design.grad_ddot_delta_wrt_energy(CCR, W, (x, I2), MOM), ORDER3),
    "design.zero_hamiltonian_condition": (
        (lambda: design.zero_hamiltonian_condition(CCR, Weighting(np.eye(3)), I2, MOM),),
        lambda: design.zero_hamiltonian_condition(CCR, W, CPLX, MOM),
        lambda: design.zero_hamiltonian_condition(CCR, W, RAGGED, MOM),
        lambda: design.zero_hamiltonian_condition(CCR, W, NAN2, MOM),
        lambda: design.zero_hamiltonian_condition(CCR, W, INF2, MOM)),
    "design.a_hat_minimizer": _bad(lambda x: design.a_hat_minimizer(x, MOM), ORDER3),
    "design.ddot_delta_of_state": _bad(lambda x: design.ddot_delta_of_state(-I2, x, W, MOM), ORDER3),
    "design.ddot_delta_of_energy": _bad(lambda x: design.ddot_delta_of_energy(x, CCR, W, I2, MOM), ORDER3),
    "design.ddot_delta_quad_form": _bad(lambda x: design.ddot_delta_quad_form(x, I2, W, MOM), ORDER3),
    # network
    "network.SubsystemParams": _bad(lambda x: SubsystemParams(CCR, np.zeros((2, 2)), I2, x, I2), WIDE),
    "network.assemble": _bad(lambda x: network.assemble(_sub(1.0, 1.0), _sub(1.0, 1.0), x), ORDER3),
    "network.q_matrix": ((lambda: network.q_matrix(_closed_loop(), W, _coupled_weighting_moments()[1]),),),
    "network.optimal_r12": ((lambda: network.optimal_r12(_sub(1.0, 1.0), _sub(1.0, 1.0), W,
                                                         _coupled_weighting_moments()[1]),),),
}


def test_malformed_table_is_complete():
    assert not set(MALFORMED) & MALFORMED_EXEMPT
    assert set(MALFORMED) | MALFORMED_EXEMPT == _public_callables()


def _malformed_cases():
    for name, (shape, *rest) in sorted(MALFORMED.items()):
        for k, call in enumerate(shape):
            yield pytest.param(DimensionError, call, id=f"{name}-shape{k}")
        for kind, call in zip(("complex", "ragged", "nan", "inf"), rest):
            yield pytest.param(ValidationError, call, id=f"{name}-{kind}")


@pytest.mark.parametrize("error, call", _malformed_cases())
def test_malformed_input_is_typed_error(error, call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            call()


# --- systems -----------------------------------------------------------------

# A system is a Realization or an (A, B) pair, read by one reader,
# model._system: anything else is a ValidationError, and a pair gives what
# the Realization of the same A and B gives.
SYSTEM = (-I2, J2)
NOT_SYSTEMS = {"triple": (-I2, J2, J2), "none": None, "number": 1.0}
SYSTEM_TAKERS = {
    "decoherence.decoherence_time": lambda s: decoherence.decoherence_time(s, W, MOM, 0.1).tau,
    "decoherence.tau_second": lambda s: decoherence.tau_second(s, W, MOM),
    "decoherence.tau_hat": lambda s: decoherence.tau_hat(s, W, MOM, 0.1),
    "design.grad_ddot_delta_wrt_energy": lambda s: design.grad_ddot_delta_wrt_energy(CCR, W, s, MOM),
}


@pytest.mark.parametrize("kind", NOT_SYSTEMS)
@pytest.mark.parametrize("name", SYSTEM_TAKERS)
def test_not_a_system_is_validation_error(name, kind):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="a Realization or an"):
            SYSTEM_TAKERS[name](NOT_SYSTEMS[kind])


@pytest.mark.parametrize("name", SYSTEM_TAKERS)
def test_pair_reads_as_its_realization(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        from_pair = SYSTEM_TAKERS[name](SYSTEM)
        from_lists = SYSTEM_TAKERS[name]([x.tolist() for x in SYSTEM])
        from_record = SYSTEM_TAKERS[name](Realization(*SYSTEM, None, None))
    np.testing.assert_array_equal(from_pair, from_record)
    np.testing.assert_array_equal(from_lists, from_record)


# A nan in A is a ValidationError wherever A is read, as from delta.
NAN_A = np.array([[np.nan, 0.0], [0.0, -1.0]])
NAN_A_READERS = {
    "dynamics.delta": lambda: dynamics.delta(NAN_A, J2, W, MOM, 1.0),
    "dynamics.time_scale": lambda: dynamics.time_scale(NAN_A),
    "dynamics.default_time_grid": lambda: dynamics.default_time_grid(NAN_A),
    "dynamics.default_time_grid-t_ref": lambda: dynamics.default_time_grid(NAN_A, t_ref=1.0),
    "design.k_matrix": lambda: design.k_matrix(CCR, W, J2, NAN_A, MOM),
    "model.check_physical_realizability": lambda: model.check_physical_realizability(NAN_A, J2, CCR),
    "design.ddot_delta_quad_form": lambda: design.ddot_delta_quad_form(NAN_A, J2, W, MOM),
    "design.grad_ddot_delta_wrt_energy": lambda: design.grad_ddot_delta_wrt_energy(CCR, W, (NAN_A, J2), MOM),
    "model.Realization": lambda: Realization(NAN_A, J2, None, None),
}


@pytest.mark.parametrize("name", NAN_A_READERS)
def test_nan_in_a_is_validation_error(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="must be finite"):
            NAN_A_READERS[name]()


# Realization reads C, D, A0 and Atilde as _system reads A and B: each is None
# or a finite matrix of the right shape (numerics._as_matrix), stored as a copy.
REALIZATION_MATRICES = {"c": I2, "d": I2, "a0": -I2, "a_tilde": np.zeros((2, 2))}
NOT_MATRICES = {"complex": CPLX, "ragged": RAGGED, "string": "x", "nan": NAN_A}


@pytest.mark.parametrize("kind", NOT_MATRICES)
@pytest.mark.parametrize("field", REALIZATION_MATRICES)
def test_realization_matrix_not_real_is_validation_error(field, kind):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError):
            Realization(-I2, J2, **(REALIZATION_MATRICES | {field: NOT_MATRICES[kind]}))


def test_realization_stores_copies():
    given = {name: x.copy() for name, x in REALIZATION_MATRICES.items()}
    real = Realization(-I2, J2, **{name: x.tolist() for name, x in given.items()})
    for name, x in given.items():
        stored = getattr(real, name)
        assert type(stored) is np.ndarray and stored.dtype == float
        np.testing.assert_array_equal(stored, x)
    real = Realization(-I2, J2, **given)
    for name, x in given.items():
        assert getattr(real, name) is not x
