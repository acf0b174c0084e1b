"""Write tests/golden/design_network.json, the golden table of the design and
network layers.

Run from anywhere: python tests/golden/generate_network.py

Each entry of PAIRS is a seeded pair of subsystems from the generators of
tests/oracles.py, with a direct coupling R12, a Weighting and MomentData over
the stacked variables.  For each pair the table holds:

- design: R*, K, the stationarity residual, ddot(Delta) at R*, the method and
  null_space_dim of optimal_energy_matrix, and zero_hamiltonian_condition,
  all for the closed loop's Theta and N;
- assemble: the closed loop's A, B, C, A0, Atilde, R and N at R12;
- network: R12*, its residual and method, q_matrix, and
  zero_hamiltonian_r12 with its warning.

tests/test_golden.py recomputes the same values with `compute` and compares
them with the table.  The file is written only by this script, never edited
by hand.
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import scipy.linalg

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

from oqho_memory.design import optimal_energy_matrix, zero_hamiltonian_condition  # noqa: E402
from oqho_memory.dynamics import MomentData, Weighting  # noqa: E402
from oqho_memory.model import CcrMatrix  # noqa: E402
from oqho_memory.network import (  # noqa: E402
    SubsystemParams,
    assemble,
    optimal_r12,
    q_matrix,
    zero_hamiltonian_r12,
)

from oracles import random_ccr, random_params, random_spd  # noqa: E402

TABLE = HERE / "design_network.json"

# Name -> (seed, nu, m, r, coupled) of `system`: nu modes, m field channels and r
# selected outputs per subsystem, F and P coupled across the subsystems or
# block-diagonal.  The 1+1 pairs have R1 = R2 = 0 (no zero-Hamiltonian
# warning); a coupled F has two rows fewer than the loop's order, so Sigma is
# singular and null_space_dim is 3.
PAIRS = {
    "1+1-decoupled": (81, 1, 2, 2, False),
    "1+1-coupled": (82, 1, 2, 2, True),
    "2+2-decoupled": (83, 2, 4, 2, False),
    "2+2-coupled": (84, 2, 4, 2, True),
    "8+8-decoupled": (85, 8, 6, 4, False),
    "8+8-coupled": (86, 8, 6, 4, True),
}


def _weighting_block(rng, rows, n):
    return 0.3 * rng.standard_normal((rows, n)) + 2.0 * np.eye(rows, n)


def system(name):
    """(sub1, sub2, R12, Weighting, MomentData) of one of PAIRS."""
    seed, nu, m, r, coupled = PAIRS[name]
    rng = np.random.default_rng(seed)
    n = 2 * nu
    subs = []
    for _ in range(2):
        p = random_params(rng, nu, m, r, ccr=random_ccr(rng, nu, 0.2 / np.sqrt(nu)))
        subs.append(SubsystemParams(ccr=p.ccr, energy=p.energy if nu > 1 else np.zeros((n, n)),
                                    coupling_external=p.coupling,
                                    coupling_internal=rng.standard_normal((r, n)), selector=p.selector))
    r12 = rng.standard_normal((n, n))
    if coupled:
        f, p = _weighting_block(rng, 2 * n - 2, 2 * n), random_spd(rng, 2 * n, scale=0.3)
    else:
        f = scipy.linalg.block_diag(*(_weighting_block(rng, n, n) for _ in range(2)))
        p = scipy.linalg.block_diag(*(random_spd(rng, n, scale=0.3) for _ in range(2)))
    theta = CcrMatrix(scipy.linalg.block_diag(subs[0].ccr.theta, subs[1].ccr.theta))
    return subs[0], subs[1], r12, Weighting(f), MomentData(p, theta)


def compute(name):
    """The table's entry for one pair, as plain JSON values."""
    sub1, sub2, r12, w, mo = system(name)
    inter = assemble(sub1, sub2, r12)
    real = inter.closed_realization
    opt = optimal_energy_matrix(inter.closed_theta, w, inter.closed_n, mo)
    r12_star, residual, method = optimal_r12(sub1, sub2, w, mo)
    zero_r12, warning = zero_hamiltonian_r12(sub1, sub2)
    return {
        "design": {
            "r_star": opt.r_star.tolist(),
            "k_matrix": opt.k_matrix.tolist(),
            "stationarity_residual": opt.stationarity_residual,
            "ddot_delta_at_opt": opt.ddot_delta_at_opt,
            "method": opt.method,
            "null_space_dim": opt.null_space_dim,
            "zero_hamiltonian_condition": zero_hamiltonian_condition(inter.closed_theta, w, inter.closed_n, mo),
        },
        "assemble": {
            "a": real.a.tolist(),
            "b": real.b.tolist(),
            "c": real.c.tolist(),
            "a0": real.a0.tolist(),
            "a_tilde": real.a_tilde.tolist(),
            "r": inter.closed_r.tolist(),
            "n": inter.closed_n.tolist(),
        },
        "network": {
            "r12_star": r12_star.tolist(),
            "stationarity_residual": residual,
            "method": method,
            "q_matrix": q_matrix(inter, w, mo).tolist(),
            "zero_hamiltonian_r12": zero_r12.tolist(),
            "warning": warning,
        },
    }


def main():
    table = {"pairs": {name: compute(name) for name in PAIRS}}
    # One line per list of numbers: a row of a matrix.
    text = re.sub(r'\[[^\[\]{}"]*\]', lambda m: "[" + " ".join(m.group()[1:-1].split()) + "]",
                  json.dumps(table, indent=1))
    TABLE.write_text(text + "\n")


if __name__ == "__main__":
    main()
