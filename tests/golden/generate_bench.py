"""Write tests/golden/bench_reports.json, the golden table of the benchmark's taus.

Run from anywhere: python tests/golden/generate_bench.py

The table holds every DecoherenceReport field of decoherence_time at each
of EPSILONS on the benchmark's n = N systems: bench/systems.py's Hurwitz and
marginal generators at each of SEEDS, built into a Realization as the
tau-n100 workload builds its system.  bench/systems.py is read, never
changed.  Each entry also holds a fingerprint of the system's A, so that a
change of the benchmark's generator reads as "bench systems changed", not as
a moved tau.  tests/test_golden.py recomputes every entry with `compute` and
compares, with the tolerances of the Delta layer's table.  Before writing,
the script checks the scans' brackets and starts as generate.py does, so the
counts of Delta evaluations are pinned.
"""

import sys
import types
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

import oqho_memory as om  # noqa: E402

from golden.generate import check_brackets, write  # noqa: E402

TABLE = HERE / "bench_reports.json"
BENCH_SYSTEMS = HERE.parents[1] / "bench" / "systems.py"
EPSILONS = (0.01, 0.1, 1.0)
SEEDS = (1, 2, 3)
N = 100
KINDS = ("hurwitz", "marginal")
SYSTEMS = tuple(f"{kind}-seed{seed}" for kind in KINDS for seed in SEEDS)


def _bench_systems():
    """bench/systems.py as a module, executed from its source (no bytecode is
    written under bench/)."""
    module = sys.modules.get("bench_systems")
    if module is None:
        module = types.ModuleType("bench_systems")
        module.__file__ = str(BENCH_SYSTEMS)
        sys.modules[module.__name__] = module
        exec(compile(BENCH_SYSTEMS.read_text(), str(BENCH_SYSTEMS), "exec"), module.__dict__)
    return module


def system(name):
    """(Realization, Weighting, MomentData) of one of SYSTEMS: the generator's
    first system from np.random.default_rng(seed), as the benchmark draws it."""
    kind, seed = name.split("-seed")
    s = getattr(_bench_systems(), kind)(np.random.default_rng(int(seed)), N)
    ccr = om.CcrMatrix(s.theta)
    params = om.OqhoParams(ccr=ccr, energy=s.energy, coupling=s.coupling,
                           selector=np.eye(2, s.coupling.shape[0]))
    return om.build_realization(params), om.Weighting(s.weight_f), om.MomentData(s.moments_p, ccr)


def fingerprint(a):
    """[||A||_F, sum |A_ij|, sum A_ij w_ij] with w_ij = sin(1 + i n + j)."""
    w = np.sin(1.0 + np.arange(a.size)).reshape(a.shape)
    return [float(np.linalg.norm(a)), float(np.abs(a).sum()), float(np.sum(a * w))]


def compute(name):
    """The table's entry for one system, as plain JSON values."""
    real, w, mo = system(name)
    return {
        "a_fingerprint": fingerprint(real.a),
        "reports": [vars(om.decoherence_time(real, w, mo, eps)) for eps in EPSILONS],
    }


def main():
    table = {"epsilons": list(EPSILONS), "n": N, "systems": {name: compute(name) for name in SYSTEMS}}
    for name, entry in table["systems"].items():
        real, w, mo = system(name)
        check_brackets(name, (real.a, real.b, w, mo), entry["reports"])
    write(TABLE, table)


if __name__ == "__main__":
    main()
