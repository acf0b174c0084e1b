"""Write tests/golden/delta_layer.json, the golden table of the Delta layer.

Run from anywhere: python tests/golden/generate.py

For each system, the table holds every DecoherenceReport field at each of
EPSILONS, Delta at TIMES from one DeviationEvaluator.terms call,
hurwitz_limit where A is Hurwitz, the noise Gramian at GRAMIAN_TIME, and
asymptotic_rate on the marginal kinds.  tests/test_golden.py recomputes the
same values with `compute` and compares them with the table.  The file is
written only by this script, never edited by hand.

Before writing, the script checks that every scan's bracketing points, the
last grid point at or below the threshold and the first above it, lie at
least BRACKET_MARGIN relative from the threshold, and so does the Hurwitz
limit that certifies a scan without a crossing: a change of rounding on
another host cannot move the crossing to another grid point.  The crossing's
index is read from the grid and tau.  The a-priori bound that sets where the
scan starts (dynamics._delta_bound) is checked the same way at its last
point at or below half the threshold and its first above: rounding cannot
move the start either, so the counts of Delta evaluations are pinned.
"""

import json
import re
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

from oqho_memory.decoherence import _hybrid_grid, decoherence_time  # noqa: E402
from oqho_memory.dynamics import (  # noqa: E402
    DeviationEvaluator,
    MomentData,
    Weighting,
    _delta_bound,
    _dot_delta,
    asymptotic_rate,
    gramian,
)
from oqho_memory.errors import PreconditionError  # noqa: E402
from oqho_memory.model import canonical_ccr  # noqa: E402

from oracles import spectral_family  # noqa: E402

TABLE = HERE / "delta_layer.json"
EPSILONS = (0.01, 0.1, 1.0)
TIMES = np.geomspace(1e-6, 1e3, 41)
GRAMIAN_TIME = 1.0
BRACKET_MARGIN = 1e-9
NU = 16

# Name -> (kind, near_gap) of tests/oracles.spectral_family at nu = NU, or
# None for the defective A = [[-1, 1], [0, -1]] of the Van Loan path.
SYSTEMS = {
    "hurwitz": ("hurwitz", None),
    "marginal": ("marginal", None),
    "marginal-gap-1e-4": ("marginal", 1e-4),
    "marginal-gap-1e-2": ("marginal", 1e-2),
    "real": ("real", None),
    "mixed": ("mixed", None),
    "zero-eigenvalue": ("zero-eigenvalue", None),
    "van-loan": None,
}


def system(name):
    """(A, B, Weighting, MomentData) of one of SYSTEMS."""
    if SYSTEMS[name] is None:
        return (np.array([[-1.0, 1.0], [0.0, -1.0]]), np.eye(2),
                Weighting(np.eye(2)), MomentData(np.eye(2), canonical_ccr(1)))
    return spectral_family(*SYSTEMS[name], NU)


def _complex(x):
    return {"re": x.real.tolist(), "im": x.imag.tolist()}


def compute(name):
    """The table's entry for one system, as plain JSON values."""
    a, b, w, mo = system(name)
    ev = DeviationEvaluator(a, b, w, mo)
    sig, noise = ev.terms(TIMES)
    reports = [vars(decoherence_time((a, b), w, mo, eps)) for eps in EPSILONS]
    try:
        limit = ev.hurwitz_limit()
    except PreconditionError:  # A is not Hurwitz
        limit = None
    marginal = SYSTEMS[name] is not None and SYSTEMS[name][0] == "marginal"
    return {
        "marginal": marginal,
        "reports": reports,
        "delta": (sig + noise).tolist(),
        "hurwitz_limit": limit,
        "gramian": _complex(gramian(a, b, GRAMIAN_TIME)),
        "asymptotic_rate": _complex(asymptotic_rate(a, b)) if marginal else None,
    }


def check_brackets(name, entry):
    """AssertionError unless each scan decides BRACKET_MARGIN away from its
    threshold, and the a-priori bound that sets where the scan starts decides
    BRACKET_MARGIN away from half the threshold."""
    a, b, w, mo = system(name)
    ev = DeviationEvaluator(a, b, w, mo)
    for r in entry["reports"]:
        grid = _hybrid_grid(r["horizon_used"], r["grid_points"])
        if r["certificate"] == "crossing_found":
            # tau lies in (grid[k - 1], grid[k]]; Delta(0) = 0 exactly when the first point crosses.
            k = int(np.sum(grid < r["tau"]))
            decided = list(ev.delta(grid[:k + 1])[-2:])
        else:
            certified = r["certificate"] == "hurwitz_below_threshold"
            decided = [ev.delta(grid).max()] + [entry["hurwitz_limit"]] * certified
        bound = _delta_bound(a, b, w.f, mo.p, _dot_delta(w.f, b), grid)
        last = int(np.sum(bound <= 0.5 * r["threshold"])) - 1
        for x in decided:
            assert abs(x - r["threshold"]) >= BRACKET_MARGIN * r["threshold"], (name, r["epsilon"], x)
        for x in bound[max(last, 0):last + 2]:
            assert abs(x - 0.5 * r["threshold"]) >= BRACKET_MARGIN * r["threshold"], (name, r["epsilon"], x)


def main():
    table = {
        "epsilons": list(EPSILONS),
        "times": TIMES.tolist(),
        "gramian_time": GRAMIAN_TIME,
        "systems": {name: compute(name) for name in SYSTEMS},
    }
    for name, entry in table["systems"].items():
        check_brackets(name, entry)
    # One line per list of numbers: a row of a matrix, the Delta values.
    text = re.sub(r'\[[^\[\]{}"]*\]', lambda m: "[" + " ".join(m.group()[1:-1].split()) + "]",
                  json.dumps(table, indent=1))
    TABLE.write_text(text + "\n")


if __name__ == "__main__":
    main()
