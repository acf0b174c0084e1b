"""The benchmark workloads.

A workload is built from a seed into a fixed cycle of operations.  Each
operation calls into the library through module attributes looked up at
call time (so the tracer's wrappers are seen) and returns its output; its
check recomputes or verifies that output with oracle.py and raises
CheckFailed on a mismatch.  Inputs and scenario files are made in set-up;
the library receives only matrices or scenario files.
"""

import contextlib
import io
import json
import os
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oqho_memory as om
from oqho_memory import cli, network

import oracle
import systems
from oracle import require

TAU_EPSILONS = (0.01, 0.1)
DESIGN_BATCH = 8  # independent n = 32 input sets per design-n32 operation
CROSSING = "crossing_found"


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Workload:
    ops: list  # one cycle
    warm: list  # operations run once, untimed, before the first cycle


def _library_single(s):
    ccr = om.CcrMatrix(s.theta)
    params = om.OqhoParams(ccr=ccr, energy=s.energy, coupling=s.coupling,
                           selector=np.eye(2, s.coupling.shape[0]))
    return ccr, om.Weighting(s.weight_f), om.MomentData(s.moments_p, ccr), params


def _library_pair(pr):
    subs = [network.SubsystemParams(ccr=om.CcrMatrix(x.theta), energy=x.energy,
                                    coupling_external=x.coupling,
                                    coupling_internal=x.coupling_internal, selector=x.selector)
            for x in (pr.sub1, pr.sub2)]
    theta = systems.closed_loop(pr)[0]
    moments = om.MomentData(pr.moments_p, om.CcrMatrix(theta))
    return subs[0], subs[1], om.Weighting(pr.weight_f), moments


def _threshold(s, eps):
    return eps * float(np.trace(s.weight_f @ s.moments_p @ s.weight_f.T))


# --- tau-n100 ------------------------------------------------------------------

def _tau_ops(s, label):
    _, weighting, moments, params = _library_single(s)
    real = om.build_realization(params)
    ops = []
    for eps in TAU_EPSILONS:
        def run(eps=eps):
            return om.decoherence_time(real, weighting, moments, eps)

        def check(rep, eps=eps):
            require(rep.certificate == CROSSING, f"certificate {rep.certificate}, expected {CROSSING}")
            oracle.check_crossing(s.a, s.b, s.weight_f, s.moments_p, rep.tau, _threshold(s, eps))
        ops.append(Op(f"{label}/tau eps={eps}", run, check))
    return ops


def tau_n100(rng):
    s = systems.hurwitz(rng, 100)
    _, weighting, moments, _ = _library_single(s)
    warm = _tau_ops(systems.hurwitz(rng, 4), "warm-up") + [
        Op("warm-up/delta n=100", lambda: om.delta(s.a, s.b, weighting, moments, 0.01), lambda _: None)]
    return Workload(_tau_ops(s, "n100"), warm)


# --- design-n32 ----------------------------------------------------------------

def _design_op(rng, n, label, workdir):
    full = systems.hurwitz(rng, n)
    deficient = systems.hurwitz(rng, n, f_rows=n - n // 4)
    marginal = systems.marginal(rng, n)
    singles = [(s, _library_single(s)) for s in (full, deficient)]
    pairs = [(pr, _library_pair(pr)) for pr in (
        systems.pair(rng, n // 2, n // 2, coupled_moments=False),
        systems.pair(rng, n // 2, n // 2, coupled_moments=True))]
    # The same solvers through the CLI, which no other workload runs.
    c = _Cli(workdir)
    path = c.write(_single_scenario(full))
    c.inspect("cli", path, full.kind)
    c.inspect("cli marginal", c.write(_single_scenario(marginal)), marginal.kind)
    c.energy("cli", path, full)
    c.coupling("cli", c.write(_pair_scenario(pairs[0][0])), pairs[0][0])
    bad = _single_scenario(full)
    bad["energy"][0][1] += 0.5
    c.add("asymmetric energy", ["check", "--scenario", c.write(bad)], _stderr_check, 1)

    def run():
        out = {"energy": [], "pairs": []}
        for s, (ccr, weighting, moments, _) in singles:
            out["energy"].append(om.optimal_energy_matrix(ccr, weighting, s.coupling, moments))
        s, (ccr, weighting, moments, _) = singles[0]
        out["zero_h"] = om.zero_hamiltonian_condition(ccr, weighting, s.coupling, moments)
        for pr, (sub1, sub2, weighting, moments) in pairs:
            inter = om.assemble(sub1, sub2, pr.r12)
            zero_r12, _ = om.zero_hamiltonian_r12(sub1, sub2)
            r12_star = om.optimal_r12(sub1, sub2, weighting, moments)[0]
            out["pairs"].append((inter.closed_realization, zero_r12, r12_star))
        out["cli"] = [op.run() for op in c.ops]
        return out

    def check(out):
        for (s, _), opt in zip(singles, out["energy"]):
            oracle.check_energy_optimum(s.theta, opt.r_star, s.coupling, s.weight_f, s.moments_p)
        want = oracle.zero_hamiltonian_value(full.theta, full.coupling, full.weight_f, full.moments_p)
        oracle.check_close(out["zero_h"], want, 1e-10, "zero-Hamiltonian condition")
        for (pr, _), (real, zero_r12, r12_star) in zip(pairs, out["pairs"]):
            oracle.check_closed_loop(pr, pr.r12, real.a, real.b)
            oracle.check_zero_hamiltonian_r12(pr, zero_r12)
            oracle.check_r12_optimum(pr, r12_star)
        for op, result in zip(c.ops, out["cli"]):
            op.check(result)
    return Op(f"{label}/design n={n}", run, check)


def _batch(ops, name):
    """One operation that runs ops in turn; a failed check names its part."""
    def run():
        return [op.run() for op in ops]

    def check(outs):
        for op, out in zip(ops, outs):
            try:
                op.check(out)
            except oracle.CheckFailed as exc:
                raise oracle.CheckFailed(f"{op.name}: {exc}") from exc
    return Op(name, run, check)


def design_n32(rng, workdir):
    # A single pass is ~0.35 s, shorter than the host's slow and fast
    # stretches, so a median of passes jumps between two levels; an
    # operation of DESIGN_BATCH passes spans several stretches.
    passes = [_design_op(rng, 32, f"set#{k}", workdir) for k in range(DESIGN_BATCH)]
    batch = _batch(passes, f"design n=32 x{DESIGN_BATCH}")
    return Workload([batch], [_design_op(rng, 4, "warm-up", workdir)])


# --- scenario files and in-process CLI calls -------------------------------------

def _single_scenario(s):
    m = s.coupling.shape[0]
    return {"schema_version": 1, "mode": "single", "theta": s.theta.tolist(),
            "energy": s.energy.tolist(), "coupling": s.coupling.tolist(),
            "selector": np.eye(2, m).tolist(), "weight_f": s.weight_f.tolist(),
            "moments_p": s.moments_p.tolist(), "epsilon": list(TAU_EPSILONS)}


def _pair_scenario(pr):
    subs = [{"theta": x.theta.tolist(), "energy": x.energy.tolist(), "coupling": x.coupling.tolist(),
             "coupling_internal": x.coupling_internal.tolist(), "selector": x.selector.tolist()}
            for x in (pr.sub1, pr.sub2)]
    return {"schema_version": 1, "mode": "interconnection", "subsystems": subs,
            "weight_f": pr.weight_f.tolist(), "moments_p": pr.moments_p.tolist(),
            "r12": pr.r12.tolist(), "epsilon": list(TAU_EPSILONS)}


def _call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _matrix_after(text, header):
    lines = text.splitlines()
    start = lines.index(header) + 1
    rows = []
    for line in lines[start:]:
        if not line.startswith("  ["):
            break
        rows.append([float(v) for v in line.strip()[1:-1].split(",")])
    return np.array(rows)


class _Cli:
    """Writes scenario files into workdir and makes CLI operations on them."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.ops = []

    def write(self, content):
        fd, path = tempfile.mkstemp(suffix=".json", dir=self.workdir)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(content, fh)
        return path

    def add(self, name, argv, check, expect=0):
        def run():
            return _call_cli(argv)

        def verify(result):
            code, out, err = result
            require(code == expect, f"exit code {code}, expected {expect}; stderr: {err.strip()[:200]}")
            require("Traceback" not in err, "traceback on stderr")
            check(out, err)
        self.ops.append(Op(f"{name}: {argv[0]}", run, verify))

    def inspect(self, name, path, kind):
        self.add(name, ["check", "--scenario", path], _text_check("check: PASS"))
        self.add(name, ["spectrum", "--scenario", path], _text_check(f"category: {kind}"))

    def energy(self, name, path, s):
        def check(out, _):
            r_star = _matrix_after(out, "R_star:")
            oracle.check_energy_optimum(s.theta, r_star, s.coupling, s.weight_f, s.moments_p)
        self.add(name, ["optimize-energy", "--scenario", path], check)

    def coupling(self, name, path, pr):
        def r12_check(out, _):
            oracle.check_r12_optimum(pr, _matrix_after(out, "R12_star:"))

        def inter_check(out, _):
            oracle.check_close(_matrix_after(out, "closed-loop R:"), systems.closed_loop(pr)[1],
                               1e-12, "closed-loop R")
            oracle.check_zero_hamiltonian_r12(pr, _matrix_after(out, "zero-Hamiltonian R12:"))
        self.add(name, ["optimize-r12", "--scenario", path], r12_check)
        self.add(name, ["interconnect", "--scenario", path], inter_check)


def _text_check(needle):
    def check(out, _):
        require(needle in out, f"{needle!r} not in output")
    return check


def _stderr_check(out, err):
    require("error" in err, "no error message on stderr")


WORKLOADS = {
    "tau-n100": lambda rng, workdir: tau_n100(rng),
    "design-n32": design_n32,
}
