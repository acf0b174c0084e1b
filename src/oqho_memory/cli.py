"""Scenario-file-driven command line interface.

A scenario is a JSON file with row-major nested arrays for all matrices.
Single-oscillator scenarios carry theta/energy/coupling/selector plus the
weighting factor F and initial moments P; interconnection scenarios carry
two subsystem blocks and an optional R12.  load_scenario builds the
scenario's closed-loop system once, the oscillator's realization or the
loop that network.assemble forms, and every command reads it; a system that
cannot be built fails the load.  Numbers are emitted with 17
significant digits so output round-trips exactly.  Each command declares
only the flags it reads besides --scenario: --out, --grid-points and
--horizon for delta-curve and tau.  A flag given to any other command is a
usage error.  The argument parser is built once per process, so repeated
in-process calls of main pay only for their scenario and its linear algebra.
A scenario file is UTF-8 JSON, parsed by orjson; only what orjson rejects
goes to the stdlib parser, which reads NaN, Infinity, numbers beyond the
double range and lone surrogates and words every other parse error.

Exit codes: 0 success, 1 validation failure, 2 parse failure, 3 I/O
failure, 4 numerical failure.
"""

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import sys
from typing import Optional

import numpy as np
import orjson

from . import decoherence, design, dynamics, model, network
from .errors import DimensionError, OqhoError, PreconditionError, ValidationError
from .numerics import _as_matrix, _guarded, _norm

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PARSE = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4

_FMT = "%.17g"
_CSV_ROW = ",".join([_FMT] * 4) + "\n"
_CSV_BLOCK = 4096  # delta-curve rows formatted per write


class ScenarioParseError(Exception):
    def __init__(self, message, location="/"):
        super().__init__(f"{location}: {message}")
        self.location = location


@dataclasses.dataclass
class Scenario:
    mode: str  # "single" or "interconnection"
    weighting: dynamics.Weighting
    moments: dynamics.MomentData
    epsilon: list
    horizon: Optional[float]
    grid_points: int
    system: model.Realization  # the closed loop of either mode
    params: Optional[model.OqhoParams] = None
    interconnection: Optional[network.Interconnection] = None


def _require(data, key, location):
    if key not in data:
        raise ScenarioParseError(f"missing required field '{key}'", location)
    return data[key]


def _matrix(data, key, location, required=True):
    if key not in data and not required:
        return None
    value = _require(data, key, location)
    where = f"{location.rstrip('/')}/{key}"
    try:
        m = _as_matrix(value, key)
    except ValidationError:
        raise ScenarioParseError(f"field '{key}' is not a numeric matrix", where) from None
    except DimensionError:
        raise ScenarioParseError(f"field '{key}' must be a 2-D array", where) from None
    if not np.all(np.isfinite(m)):
        raise ScenarioParseError(f"field '{key}' has non-finite entries", where)
    return m


def _is_number(x):
    """A finite JSON number; JSON booleans are not numbers."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _load_subsystem(data, location):
    if not isinstance(data, dict):
        raise ScenarioParseError("subsystem must be an object", location)
    theta = model.CcrMatrix(_matrix(data, "theta", location))
    return network.SubsystemParams(
        ccr=theta,
        energy=_matrix(data, "energy", location),
        coupling_external=_matrix(data, "coupling", location),
        coupling_internal=_matrix(data, "coupling_internal", location),
        selector=_matrix(data, "selector", location),
    )


def _int_or_inf(text):
    """A JSON integer as an int, or as +-inf (as 1e400 reads) when no double holds it."""
    value = float(text)
    return int(text) if math.isfinite(value) else value


def _parse_json(raw):
    """The JSON value in raw, the bytes of a UTF-8 file.

    orjson parses standard JSON with correctly rounded floats, as the stdlib
    parser does.  What it rejects goes to the stdlib parser, which reads
    NaN, Infinity, numbers beyond the double range (so these fail later,
    against their field, as non-finite entries) and lone surrogates.
    """
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError:
        pass
    try:
        return json.loads(raw.decode("utf-8"), parse_int=_int_or_inf)
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"not UTF-8: {exc}", "/") from None
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"invalid JSON: {exc}", "/") from None
    except RecursionError:
        raise ScenarioParseError("invalid JSON: nested too deeply", "/") from None


def load_scenario(path):
    """The Scenario in the file at path, with its closed-loop system built.

    A single oscillator's realization is built after F and P are read, so
    their errors come first; an interconnection is assembled before P is
    read, against the loop's Theta.  A closed loop that cannot be built
    (a wrong shape, an overflow) raises its OqhoError here, before any
    command runs.
    """
    with open(path, "rb") as fh:
        data = _parse_json(fh.read())
    if not isinstance(data, dict):
        raise ScenarioParseError("scenario root must be an object", "/")

    version = _require(data, "schema_version", "/")
    if version != 1:
        raise ScenarioParseError(f"unsupported schema_version {version}", "/schema_version")
    mode = _require(data, "mode", "/")
    if mode not in ("single", "interconnection"):
        raise ScenarioParseError(f"mode must be 'single' or 'interconnection', got {mode!r}", "/mode")

    epsilon = data.get("epsilon", [0.01])
    if not isinstance(epsilon, list) or not all(_is_number(e) and e > 0 for e in epsilon):
        raise ScenarioParseError("epsilon must be a list of positive numbers", "/epsilon")
    horizon = data.get("horizon")
    if horizon is not None and (not _is_number(horizon) or horizon <= 0):
        raise ScenarioParseError("horizon must be a positive number", "/horizon")
    grid_points = data.get("grid_points", 2000)
    if not isinstance(grid_points, int) or isinstance(grid_points, bool) or grid_points <= 0:
        raise ScenarioParseError("grid_points must be a positive integer", "/grid_points")

    f_mat = _matrix(data, "weight_f", "/")
    p_mat = _matrix(data, "moments_p", "/")

    params = inter = None
    if mode == "single":
        params = model.OqhoParams(
            ccr=model.CcrMatrix(_matrix(data, "theta", "/")),
            energy=_matrix(data, "energy", "/"),
            coupling=_matrix(data, "coupling", "/"),
            selector=_matrix(data, "selector", "/"),
        )
        theta = params.ccr
    else:
        subsystems = _require(data, "subsystems", "/")
        if not isinstance(subsystems, list) or len(subsystems) != 2:
            raise ScenarioParseError("subsystems must be a list of exactly two objects", "/subsystems")
        sub1 = _load_subsystem(subsystems[0], "/subsystems/0")
        sub2 = _load_subsystem(subsystems[1], "/subsystems/1")
        r12 = _matrix(data, "r12", "/", required=False)
        inter = network.assemble(sub1, sub2, np.zeros((sub1.n, sub2.n)) if r12 is None else r12)
        theta = inter.closed_theta
    _as_matrix(f_mat, "weight_f", cols=theta.n)
    weighting = dynamics.Weighting(f_mat)
    moments = dynamics.MomentData(p=p_mat, ccr=theta)
    system = model.build_realization(params) if inter is None else inter.closed_realization
    return Scenario(mode=mode, weighting=weighting, moments=moments,
                    epsilon=[float(e) for e in epsilon], horizon=horizon, grid_points=grid_points,
                    system=system, params=params, interconnection=inter)


def _fmt(x):
    return _FMT % x


def _matrix_lines(m, indent="  "):
    # Python floats print as numpy's float64 (a float subclass) does, but
    # format faster.
    return "\n".join(indent + "[" + ", ".join(_fmt(v) for v in row) + "]"
                      for row in np.atleast_2d(m).tolist())


@contextlib.contextmanager
def _output(path):
    """The stream --out names: stdout for None or '-', else the file."""
    if path is None or path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8") as fh:
        yield fh


@_guarded("the scale of the PR residual")
def _pr_scale(real, theta):
    """||A|| ||Theta|| + ||B||^2, the size of the PR residual's terms: check passes at 1e-10 of it."""
    return float(_norm(real.a) * _norm(theta.theta) + _norm(real.b) ** 2)


def cmd_check(scenario, args):
    real = scenario.system
    theta = scenario.moments.ccr
    pr = model.check_physical_realizability(real.a, real.b, theta)
    spec = model.classify_spectrum(real.a)
    print(f"PR residual:        {_fmt(pr)}")
    print(f"spectral class:     {spec.category}")
    print(f"imaginary-axis eig: {spec.on_bisectors}")
    print(f"min eig(P + iTheta): {_fmt(scenario.moments.pi_min)}")
    ok = pr <= 1e-10 * _pr_scale(real, theta)
    print("check: PASS" if ok else "check: FAIL")
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_spectrum(scenario, args):
    real = scenario.system
    spec = model.classify_spectrum(real.a)
    print(f"category: {spec.category}")
    print(f"on_bisectors: {spec.on_bisectors}")
    for lam in spec.eigenvalues:
        print(f"  {_fmt(lam.real)} {'+' if lam.imag >= 0 else '-'} {_fmt(abs(lam.imag))}j")
    return EXIT_OK


def cmd_delta_curve(scenario, args):
    real = scenario.system
    grid_points = args.grid_points or scenario.grid_points
    horizon = args.horizon or scenario.horizon
    times = np.concatenate([[0.0], dynamics.default_time_grid(real.a, t_ref=horizon, points=grid_points)])
    evaluator = dynamics.DeviationEvaluator(real.a, real.b, scenario.weighting, scenario.moments)
    sig, noise = evaluator.terms(times)  # the whole curve, before the output is opened
    columns = (times, sig + noise, sig, noise)
    with _output(args.out) as out:  # block by block: memory stays O(_CSV_BLOCK) beyond the curve
        out.write("t,delta,signal_term,noise_term\n")
        for k in range(0, len(times), _CSV_BLOCK):
            rows = zip(*(c[k:k + _CSV_BLOCK].tolist() for c in columns))
            out.write("".join(_CSV_ROW % row for row in rows))
    return EXIT_OK


def _report_to_dict(rep):
    def clean(x):
        if isinstance(x, float) and math.isinf(x):
            return "inf"
        if isinstance(x, float) and math.isnan(x):
            return "nan"
        return x
    return {f.name: clean(getattr(rep, f.name)) for f in dataclasses.fields(rep)}


def cmd_tau(scenario, args):
    real = scenario.system
    grid_points = args.grid_points or scenario.grid_points
    horizon = args.horizon or scenario.horizon
    reports = []
    for eps in scenario.epsilon:
        rep = decoherence.decoherence_time(real, scenario.weighting, scenario.moments,
                                           eps, horizon=horizon, grid_points=grid_points)
        reports.append(rep)
        print(f"epsilon={_fmt(eps)}: tau={_fmt(rep.tau)} tau'={_fmt(rep.tau_prime)} "
              f"tau''={_fmt(rep.tau_second)} tau_hat={_fmt(rep.tau_hat)} [{rep.certificate}]")
    with _output(args.out) as out:
        out.write(json.dumps([_report_to_dict(r) for r in reports], indent=2) + "\n")
    return EXIT_OK


def _print_comparison(scenario, header, after, name, optimum):
    """Print header, ddot(Delta) before (the scenario's system) and after, the
    optimum, and tau_hat before and after for every epsilon (nan when F B = 0),
    all read from one expansion of each system."""
    expansions = [decoherence._expansion(s, scenario.weighting, scenario.moments)
                  for s in (scenario.system, after)]
    print("\n".join(header))
    print(f"ddot_delta before: {_fmt(expansions[0].ddot)}  after: {_fmt(expansions[1].ddot)}")
    print(f"{name}:")
    print(_matrix_lines(optimum))
    for eps in scenario.epsilon:
        th_before, th_after = (e.tau_hat(eps) for e in expansions)
        print(f"epsilon={_fmt(eps)}: tau_hat before={_fmt(th_before)} after={_fmt(th_after)}")
    return EXIT_OK


def cmd_optimize_energy(scenario, args):
    if scenario.mode != "single":
        raise ValidationError("optimize-energy requires a single-oscillator scenario")
    params = scenario.params
    weighting, moments = scenario.weighting, scenario.moments
    opt = design.optimal_energy_matrix(params.ccr, weighting, params.coupling, moments)
    after = model.build_realization(dataclasses.replace(params, energy=opt.r_star))
    zh = design.zero_hamiltonian_condition(params.ccr, weighting, params.coupling, moments)
    header = [f"method: {opt.method}",
              f"stationarity residual: {_fmt(opt.stationarity_residual)}",
              f"zero-Hamiltonian condition residual: {_fmt(zh)}"]
    return _print_comparison(scenario, header, after, "R_star", opt.r_star)


def cmd_optimize_r12(scenario, args):
    if scenario.mode != "interconnection":
        raise ValidationError("optimize-r12 requires an interconnection scenario")
    subs = scenario.interconnection.sub1, scenario.interconnection.sub2
    r12_star, residual, method = network.optimal_r12(*subs, scenario.weighting, scenario.moments)
    after = network.assemble(*subs, r12_star)
    header = [f"method: {method}", f"stationarity residual: {_fmt(residual)}"]
    return _print_comparison(scenario, header, after.closed_realization, "R12_star", r12_star)


def cmd_interconnect(scenario, args):
    if scenario.mode != "interconnection":
        raise ValidationError("interconnect requires an interconnection scenario")
    inter, real = scenario.interconnection, scenario.system
    pr = model.check_physical_realizability(real.a, real.b, inter.closed_theta)
    zh_r12, warning = network.zero_hamiltonian_r12(inter.sub1, inter.sub2)
    print(f"consistency residual: {_fmt(inter.consistency_residual)}")
    print(f"PR residual: {_fmt(pr)}")
    print("closed-loop R:")
    print(_matrix_lines(inter.closed_r))
    print("zero-Hamiltonian R12:")
    print(_matrix_lines(zh_r12))
    if warning:
        print(f"warning: {warning}")
    return EXIT_OK


_COMMANDS = {
    "check": cmd_check,
    "spectrum": cmd_spectrum,
    "delta-curve": cmd_delta_curve,
    "tau": cmd_tau,
    "optimize-energy": cmd_optimize_energy,
    "optimize-r12": cmd_optimize_r12,
    "interconnect": cmd_interconnect,
}


def _positive(type_):
    """argparse type accepting only finite positive values of type_."""
    def parse(text):
        value = type_(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value
    return parse


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="oqho",
        description="Decoherence-time analysis and optimization of open quantum harmonic oscillators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="path to a JSON scenario file")
        if name in ("delta-curve", "tau"):
            p.add_argument("--out", default=None, help="output path ('-' for stdout)")
            p.add_argument("--grid-points", type=_positive(int), default=None, dest="grid_points")
            p.add_argument("--horizon", type=_positive(float), default=None)
    return parser


@_guarded()  # numpy's floating-point warnings never reach stderr
def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](load_scenario(args.scenario), args)
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationError, DimensionError, PreconditionError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OqhoError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
