"""The Delta, design and network layers against their golden tables.

tests/golden/generate.py writes tests/golden/delta_layer.json and
tests/golden/generate_network.py writes tests/golden/design_network.json; each
computes its entries with its `compute`, and these tests recompute every entry
and compare.  The tolerances hold on any BLAS:
OpenBLAS picks its kernel per CPU, and forcing another one (OPENBLAS_CORETYPE
Prescott, Core2, Nehalem, Sandybridge or Haswell) moved tau by up to 7.3e-14
relative, Delta on the marginal kinds by up to 1.1e-12 and every other Delta
by up to 2.9e-15, the asymptotic rate of the near-degenerate marginal kind
(conditioned like 1 / gap) by up to 3.1e-12, every other value by up to
1.4e-14, and Brent's method by up to two steps.  The scanned counts never
moved: the generator keeps every bracketing point 1e-9 relative from its
threshold.  On the design and network table the same core types moved R* by
up to 2.2e-14 relative (the singular-Sigma pair at 8 + 8 modes), R12* by up
to 4.1e-15, ddot(Delta) at R* by up to 2.7e-15, every other matrix and value
by up to 5.5e-16, and each stationarity residual by up to 5.7e-16 of the
norm of its constant K or Q; methods, null-space dimensions and warnings
never moved.  A change that moves a value beyond these tolerances regenerates
the table in the same commit and says which values moved and by how much; a
tolerance is never widened to absorb a move.
"""

import json

import numpy as np
import pytest

from golden import generate_network
from golden.generate import SYSTEMS, TABLE, compute
from oqho_memory.network import assemble

GOLDEN = json.loads(TABLE.read_text())["systems"]
NETWORK_GOLDEN = json.loads(generate_network.TABLE.read_text())["pairs"]

EXACT = ("certificate", "delta_path", "grid_points", "expansion_valid")
RTOL = 1e-13  # every value not named otherwise
TAU_RTOL = 1e-12
MARGINAL_RTOL = 1e-10  # Delta and the asymptotic rate on the marginal kinds
BRENT_SLACK = 2  # steps of Brent's method
NETWORK_EXACT = ("method", "null_space_dim", "warning")
# A stationarity residual is a rounding-level number: it compares within RTOL of the
# norm of its equation's constant, K for R* and Q for R12*.
RESIDUAL_SCALE = {"design": "k_matrix", "network": "q_matrix"}


def assert_close(got, want, rtol, what):
    """Equal where want is not finite; elsewhere within rtol relative, in the
    Frobenius norm for a matrix (a dict of its real and imaginary parts)."""
    if isinstance(want, dict):
        got, want = [got["re"], got["im"]], [want["re"], want["im"]]
    got, want = np.asarray(got, float), np.asarray(want, float)
    if not np.isfinite(want).all():
        np.testing.assert_array_equal(got, want, err_msg=what)
    else:
        assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want), (what, got, want)


@pytest.mark.parametrize("name", SYSTEMS)
def test_delta_layer_matches_golden_table(name):
    got, want = compute(name), GOLDEN[name]
    assert len(got["reports"]) == len(want["reports"])
    for r, w in zip(got["reports"], want["reports"]):
        eps = w["epsilon"]
        for field in EXACT:
            assert r[field] == w[field], (eps, field)
        scanned = r["delta_evaluations"] - r["bisection_iterations"]
        assert scanned == w["delta_evaluations"] - w["bisection_iterations"], eps
        assert abs(r["bisection_iterations"] - w["bisection_iterations"]) <= BRENT_SLACK, eps
        for field in set(w) - set(EXACT) - {"delta_evaluations", "bisection_iterations"}:
            assert_close(r[field], w[field], TAU_RTOL if field == "tau" else RTOL, (eps, field))
    marginal_rtol = MARGINAL_RTOL if want["marginal"] else RTOL
    np.testing.assert_allclose(got["delta"], want["delta"], rtol=marginal_rtol, atol=0)
    for field, rtol in (("hurwitz_limit", RTOL), ("gramian", RTOL), ("asymptotic_rate", marginal_rtol)):
        assert (got[field] is None) == (want[field] is None), field
        if want[field] is not None:
            assert_close(got[field], want[field], rtol, field)



@pytest.mark.parametrize("name", generate_network.PAIRS)
def test_design_and_network_layers_match_golden_table(name):
    got, want = generate_network.compute(name), NETWORK_GOLDEN[name]
    for layer in want:
        for field, w in want[layer].items():
            g, what = got[layer][field], (layer, field)
            if field in NETWORK_EXACT:
                assert g == w, what
            elif field == "stationarity_residual":
                assert abs(g - w) <= RTOL * np.linalg.norm(want[layer][RESIDUAL_SCALE[layer]]), (what, g, w)
            else:
                assert_close(g, w, RTOL, what)


@pytest.mark.parametrize("name", generate_network.PAIRS)
def test_consistency_residual_within_its_bound(name):
    # Not pinned: the block form and the realization agree to rounding, and
    # the bound is the one assemble documents, 1e-10 max(||A||, ||B||).
    sub1, sub2, r12, _, _ = generate_network.system(name)
    inter = assemble(sub1, sub2, r12)
    real = inter.closed_realization
    assert inter.consistency_residual <= 1e-10 * max(np.linalg.norm(real.a), np.linalg.norm(real.b))
