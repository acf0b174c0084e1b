"""Memory-decoherence analysis of open quantum harmonic oscillators.

Models an OQHO (or a coherent feedback interconnection of two) as a
physically realizable linear stochastic system, computes the weighted
mean-square deviation of its variables from their initial values, the
resulting decoherence time, and the energy/coupling matrices maximizing its
quadratic approximation.
"""

from .model import (
    CcrMatrix,
    OqhoParams,
    Realization,
    SpectralClass,
    build_realization,
    canonical_ccr,
    check_physical_realizability,
    classify_spectrum,
)
from .dynamics import (
    DeviationEvaluator,
    MomentData,
    Weighting,
    delta,
    delta_derivatives,
    gramian,
    hurwitz_limit,
)
from .decoherence import DecoherenceReport, decoherence_time, tau_hat, tau_prime, tau_second
from .design import EnergyOptimum, optimal_energy_matrix, zero_hamiltonian_condition
from .network import Interconnection, SubsystemParams, assemble, optimal_r12, zero_hamiltonian_r12

__version__ = "0.1.0"
