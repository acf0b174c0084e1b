"""Benchmark of oqho-memory: one closed-loop client in one process.

    python3 bench/run.py --workload {tau-n100,design-n32} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the library is imported from ./src only.
Inputs are generated from --seed.  The benchmark runs whole cycles of the
workload's operations, each started when the previous one returns, and
starts another cycle only while it would end no later than half a cycle
past --seconds.  ops_per_s is operations per second of operation time
(bench-side checks excluded); op_s.p50 is the median operation time;
setup_s is the median set-up time (import, input generation, warm-up) of
this process and of fresh processes started, untimed, between cycles.
Every output is checked by oracle.py; a raised error, a wrong exit code
or a failed check counts as a failed operation.

--trace 0 reports the end-to-end metrics; --trace 1 runs every operation
twice, untraced and then with the tracer installed, and reports per-layer
metrics per traced operation plus the tracing overhead.  Human-readable
lines (units, sample counts, environment) come first; the last line of
standard output is one JSON object.  --setup-only is used internally to
repeat the set-up in a fresh process.
"""

import time

_T0 = time.perf_counter()

import os

# Pin BLAS/OpenMP threads before numpy is imported.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse
import json
import logging
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
FRESH_SET_UPS = 8  # set-up is also timed in this many fresh processes
P90_MIN_SAMPLES = 100


def _import_library():
    if not (SRC / "oqho_memory" / "__init__.py").is_file():
        sys.exit(f"bench: {SRC / 'oqho_memory'} not found; run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import oqho_memory
    if SRC.resolve() not in Path(oqho_memory.__file__).resolve().parents:
        sys.exit(f"bench: oqho_memory imported from {oqho_memory.__file__}, not from {SRC}")
    # The CLI calls logging.basicConfig on every run; give the root logger a
    # handler so that does not bind a redirected stderr.
    logging.getLogger().addHandler(logging.NullHandler())


def _environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "blas_threads": THREADS,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _set_up(workload, seed, workdir):
    import numpy as np
    import workloads
    wl = workloads.WORKLOADS[workload](np.random.default_rng(seed), workdir)
    for op in wl.warm:
        _run_op(op)
    return wl


def _run_op(op, tracer=None):
    """(seconds, failure message or None)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            out = op.run()
        else:
            with tracer:
                out = op.run()
    except Exception:
        return time.perf_counter() - start, f"{op.name}: raised\n{traceback.format_exc(limit=3)}"
    elapsed = time.perf_counter() - start
    try:
        op.check(out)
    except Exception as exc:  # an output the check cannot even read fails too
        return elapsed, f"{op.name}: {exc!r}"
    return elapsed, None


def _measure(wl, seconds, tracer=None, between_cycles=None):
    """Per-operation seconds (untraced, traced), failure messages, cycles run.

    between_cycles(share of --seconds elapsed) is called, untimed, after
    each cycle.
    """
    plain, traced, failures = [], [], []
    start = time.perf_counter()
    cycles = 0
    while True:
        for op in wl.ops:
            dt, fail = _run_op(op)
            plain.append(dt)
            failures += [fail] if fail else []
            if tracer is not None:
                dt, fail = _run_op(op, tracer)
                traced.append(dt)
                failures += [fail] if fail else []
        cycles += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / cycles > seconds:
            return plain, traced, failures, cycles
        if between_cycles is not None:
            paused = time.perf_counter()
            between_cycles(elapsed / seconds)
            start += time.perf_counter() - paused


class _FreshSetUps:
    """Set-up seconds of FRESH_SET_UPS fresh processes.

    The host's speed drifts over tens of seconds, so the set-ups are spread
    over the timed window (between cycles, untimed) rather than run back to
    back, and their median samples several stretches.
    """

    def __init__(self, args):
        self.args = args
        self.seconds = []

    def _one(self):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", self.args.workload,
             "--seed", str(self.args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        self.seconds.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])

    def __call__(self, share):
        while len(self.seconds) < FRESH_SET_UPS * min(share, 1.0):
            self._one()

    def finish(self):
        while len(self.seconds) < FRESH_SET_UPS:
            self._one()
        return self.seconds


def _write_spans(tracer, args):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('["name", "start", "end", "parent"]\n')
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["tau-n100", "design-n32"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    _import_library()
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        wl = _set_up(args.workload, args.seed, workdir)
        setup_here = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_here}))
            return 0
        tracer = fresh = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        else:
            fresh = _FreshSetUps(args)
        plain, traced, failures, cycles = _measure(wl, args.seconds, tracer, fresh)
        setups = [setup_here] + fresh.finish() if fresh else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(plain) + len(traced)
    for fail in failures[:5]:
        print(f"FAILED {fail}", file=sys.stderr)
    n = len(plain)
    print(f"workload {args.workload} seed {args.seed}: {n} operations in {cycles} cycles, "
          f"{sum(plain):.4g} s timed, {len(failures)} of {attempted} attempted failed")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in _environment().items()))
    if args.trace:
        metrics = tracer.summary(per=len(traced))
        untraced_rate = n / sum(plain)
        traced_rate = len(traced) / sum(traced)
        metrics["trace.ops_per_s.untraced"] = (untraced_rate, "1/s")
        metrics["trace.ops_per_s.traced"] = (traced_rate, "1/s")
        metrics["trace.overhead_pct"] = (100.0 * (untraced_rate - traced_rate) / untraced_rate, "%")
        print(f"per traced operation (n={len(traced)}); {len(tracer.spans)} spans written to "
              f"{_write_spans(tracer, args).relative_to(ROOT)}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<44} {value:.6g} {unit}")
    else:
        metrics = {
            "ops_per_s": (n / sum(plain), "1/s"),
            "op_s.p50": (statistics.median(plain), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        samples = {"ops_per_s": f"n={n} over {sum(plain):.4g} s", "op_s.p50": f"n={n}",
                   "setup_s": f"median of {len(setups)} set-ups", "peak_rss_mb": "this process"}
        for name, (value, unit) in metrics.items():
            print(f"  {name:<12} {value:<12.6g} {unit:<4} {samples[name]}")
        if n >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(plain, n=10, method="inclusive")[-1]
            print(f"  {'op_s.p90':<12} {p90:<12.6g} {'s':<4} n={n}")
        else:
            print(f"  {'op_s.p90':<12} {'omitted':<12} {'s':<4} n={n} < {P90_MIN_SAMPLES}")
        print(f"  {'failed_ratio':<12} {len(failures) / attempted:<12.6g} {'':<4} "
              f"{len(failures)}/{attempted}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
