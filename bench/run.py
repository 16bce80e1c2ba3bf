"""Benchmark of the wright-poisson library, end to end and layer by layer.

    python3 bench/run.py --workload {fit,query_hot,cli,all} \
        --seed N --seconds S --trace {0,1}

Run from the repository root. Each workload is a closed loop with one
client: the next op starts when the previous one returns or raises.
``--trace 0`` runs ops for S seconds and reports the end-to-end metrics;
``--trace 1`` runs a fixed number of ops untraced and then traced, adds
the workload's probes of known failures to the traced pass, and reports
the per-layer metrics and the tracing overhead. Each run
prints a human-readable report, writes a result file with provenance to
bench/.out/, and prints one JSON object as its last line. See
bench/README.md for the workloads, metrics and oracles.
"""

from __future__ import annotations

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"

SETUP_REPEATS = 5  # fresh processes before the timed ops, and again after
WARMUP_BASE = 10**7  # op indices of the untimed warm-up ops
DIGEST_OPS = 16
# ops per traced run: fixed, so that the exact counts repeat for a seed
TRACE_OPS = {"fit": 18, "query_hot": 90, "cli": 15}
IMPORT_FLOOR_REPEATS = 3
WORKLOAD_NAMES = ("fit", "query_hot", "cli")


def import_library():
    if not (SRC / "wright_poisson" / "__init__.py").is_file():
        raise SystemExit(f"error: library sources not found at {SRC}")
    sys.path.insert(0, str(SRC))
    import wright_poisson
    import wright_poisson.cli
    return wright_poisson


def make_workload(name, lib, seed):
    from workloads import WORKLOADS

    if name == "cli":
        OUT.mkdir(exist_ok=True)
        return WORKLOADS[name](lib, seed, ROOT, OUT)
    return WORKLOADS[name](lib, seed)


def probe_setup(name, seed):
    """One set-up in this fresh process: library import plus the
    workload's set-up, without the benchmark's own input generation."""
    t0 = time.perf_counter()
    lib = import_library()
    t1 = time.perf_counter()
    workload = make_workload(name, lib, seed)
    t2 = time.perf_counter()
    workload.setup()
    t3 = time.perf_counter()
    print(json.dumps({"setup_s": (t1 - t0) + (t3 - t2)}))


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def measure_setup(name, seed):
    """Set-up times of fresh processes, so import cost is paid each time."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, check=True, cwd=ROOT, env=child_env())
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def measure_import_floor():
    """Wall time of a subprocess that only imports the CLI module."""
    times = []
    for _ in range(IMPORT_FLOOR_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import wright_poisson.cli"],
                       check=True, cwd=ROOT, env=child_env())
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


DIST_ORACLES = {"log_normalizer", "quantile", "cdf", "pmf", "moments", "mgf", "sample"}


class Outcomes:
    """Op latencies and failures of one pass."""

    def __init__(self):
        self.latencies = []
        self.kinds = {}
        self.failed = 0
        self.wrong_dist = 0
        self.below_truth = 0
        self.untyped = 0

    def add(self, latency, kinds):
        self.latencies.append(latency)
        if kinds:
            self.failed += 1
        for kind in kinds:
            self.kinds[kind] = self.kinds.get(kind, 0) + 1
        self.untyped += any(k.startswith("untyped:") for k in kinds)
        self.below_truth += "fit.below_truth" in kinds
        self.wrong_dist += any(k.split(".")[0] in DIST_ORACLES for k in kinds)


def run_op(workload, lib, inp, tracer=None):
    """Time one op; return (latency, failure kinds). The checks run with
    the tracer off: the cli oracle calls the library in-process."""
    typed = (lib.NonConvergenceError, lib.DomainError, lib.DegenerateDataError,
             lib.ParseError)
    from oracles import ReferenceUnavailable
    from workloads import Unbuilt

    rec = {}
    error = None
    t0 = time.perf_counter()
    try:
        workload.run(inp, rec)
    except typed + (Unbuilt,) as exc:
        error = f"raised:{type(exc).__name__}"
    except Exception as exc:  # an op that crashes still counts as attempted
        error = f"untyped:{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if error is not None and error.startswith("untyped:"):
        return latency, [error]  # its outputs are not there to check
    if tracer is not None:
        tracer.uninstall()
    try:
        kinds = workload.check(inp, rec)
    except ReferenceUnavailable:  # a result the window sum cannot check
        kinds = ["unverified"]
    if tracer is not None:
        tracer.install()
    return latency, ([error] if error else []) + kinds


def run_pass(workload, lib, count=None, seconds=None, tracer=None, start=0):
    """Ops start, start + 1, ... until ``count`` ops, or until ``seconds``
    of wall time (op plus check) have passed and a whole number of the
    workload's input cycles is done, so that every run sees the same mix."""
    outcomes = Outcomes()
    t_end = time.perf_counter() + (seconds or 0.0)
    i = 0
    while (count is None or i < count) and (
            seconds is None or time.perf_counter() < t_end or i % workload.cycle):
        inp = workload.make_input(start + i)
        if tracer is not None:
            tracer.op_id = start + i
        latency, kinds = run_op(workload, lib, inp, tracer)
        outcomes.add(latency, kinds)
        i += 1
    return outcomes


def run_probes(workload, lib, tracer, outcomes):
    """The workload's ops on known failures, numbered from PROBE_BASE."""
    from inputs import PROBE_BASE

    for j, inp in enumerate(workload.probe_inputs()):
        tracer.op_id = PROBE_BASE + j
        outcomes.add(*run_op(workload, lib, inp, tracer))


def quantile_ms(values, q):
    ordered = sorted(values)
    return 1000.0 * ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def provenance(seed):
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = res.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = "unreadable"
    return {
        "commit": commit,
        "source_sha256": src.hexdigest()[:16],
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max,
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def input_digest(workload):
    from inputs import Digest

    digest = Digest()
    digest.add(*workload.setup_inputs())
    for i in range(DIGEST_OPS):
        digest.add(*workload.digest_items(workload.make_input(i)))
    return digest.hexdigest()


def end_to_end(workload, lib, args):
    setup_times = measure_setup(workload.name, args.seed)
    workload.setup()
    # untimed warm-up on inputs of their own, so that a cache keyed on the
    # inputs gains nothing from it
    run_pass(workload, lib, count=1 if workload.name == "cli" else workload.cycle,
             start=WARMUP_BASE)
    outcomes = run_pass(workload, lib, seconds=args.seconds)
    setup_times += measure_setup(workload.name, args.seed)
    lat = outcomes.latencies
    if workload.name == "cli":
        rss_kb = workload.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "throughput_ops_s": len(lat) / sum(lat),
        "latency_p50_ms": 1000.0 * statistics.median(lat),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    extra = {"error_rate": outcomes.failed / len(lat)}
    if len(lat) >= 100:
        extra["latency_p90_ms"] = quantile_ms(lat, 0.9)
    return outcomes, metrics, extra


def traced(workload, lib, args):
    from tracing import Tracer

    def timed_pass(tracer=None):
        """Set-up plus TRACE_OPS ops; returns outcomes and set-up + op time."""
        t0 = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - t0
        outcomes = run_pass(workload, lib, count=TRACE_OPS[workload.name], tracer=tracer)
        return outcomes, setup_s + sum(outcomes.latencies)

    run_pass(workload, lib, count=1, start=WARMUP_BASE)  # first-call costs

    _, untraced_s = timed_pass()
    workload = make_workload(workload.name, lib, args.seed)  # fresh counters
    if workload.name == "cli":
        workload.command_times = []  # the traced pass times main() in each child
    tracer = Tracer(lib)
    tracer.install()
    try:
        outcomes, traced_s = timed_pass(tracer)
        run_probes(workload, lib, tracer, outcomes)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl")

    totals = tracer.layer_totals()
    sp, di, es = totals["special"], totals["distribution"], totals["estimation"]
    cli = {"cli.import_s": 0.0, "cli.command_s": 0.0, "cli.exit_nonzero": 0,
           "cli.stdout_bytes": 0}
    if workload.name == "cli":
        floor = measure_import_floor()
        cli = {"cli.import_s": floor,
               "cli.command_s": (statistics.median(workload.command_times)
                                 if workload.command_times else 0.0),
               "cli.exit_nonzero": workload.exit_nonzero,
               "cli.stdout_bytes": workload.stdout_bytes}
    fit_m = es["fit_m_calls"]
    metrics = {
        "special.calls": sp["calls"],
        "special.terms": sp["terms"],
        "special.terms_per_call": sp["terms"] / sp["calls"] if sp["calls"] else 0.0,
        "special.self_s": sp["self_s"],
        "special.nonconverged": tracer.nonconverged,
        "distribution.walk_steps": tracer.walk_steps,
        "distribution.calls": di["calls"],
        "distribution.self_s": di["self_s"],
        "distribution.construct_calls": totals["construct"]["calls"],
        "distribution.construct_s": totals["construct"]["s"],
        "distribution.wrong": outcomes.wrong_dist,
        "estimation.fit_m_calls": fit_m,
        "estimation.loglik_evals": es["loglik_evals"],
        "estimation.self_s": es["self_s"],
        "estimation.skipped_points": es["fit_m_failed"],
        "estimation.unconverged": getattr(workload, "unconverged", 0),
        "estimation.below_truth": outcomes.below_truth,
        "estimation.grid_success_ratio": (fit_m - es["fit_m_failed"]) / fit_m if fit_m else 0.0,
        **cli,
        "trace.overhead_ratio": traced_s / untraced_s,
    }
    return outcomes, metrics, {"error_rate": outcomes.failed / len(outcomes.latencies)}


def metric_units(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def run_one(args):
    lib = import_library()
    import oracles

    bad_oracles = oracles.self_check()
    workload = make_workload(args.workload, lib, args.seed)
    digest = input_digest(workload)
    if args.trace:
        outcomes, metrics, extra = traced(workload, lib, args)
        units = metric_units("per_layer")
    else:
        outcomes, metrics, extra = end_to_end(workload, lib, args)
        units = metric_units("end_to_end")
    # every failed op is counted in `failed`; `correct` says the count can be
    # trusted: the oracles passed their self-check and no op failed untyped
    correct = not bad_oracles and outcomes.untyped == 0
    result = {
        "workload": workload.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "input_size": workload.input_size,
        "inputs_sha256": digest,
        "ops": len(outcomes.latencies),
        "failed": outcomes.failed,
        "failures_by_kind": outcomes.kinds,
        "oracle_self_check_failures": bad_oracles,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "extra_metrics": extra,
        "provenance": provenance(args.seed),
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")

    print(f"# {workload.name}: ops={result['ops']} failed={outcomes.failed} "
          f"input={workload.input_size} inputs_sha256={digest}")
    for name, value in {**metrics, **extra}.items():
        unit = units.get(name, {"error_rate": "ratio", "latency_p90_ms": "ms"}.get(name))
        print(f"{workload.name:<11} {name:<32} {value:>14.6g} {unit:<10} ops={result['ops']}")
    for kind, n in sorted(outcomes.kinds.items()):
        print(f"{workload.name:<11} failure {kind}: {n}")
    if bad_oracles:
        print(f"oracle self-check failed: {bad_oracles}")
    print(json.dumps({"correct": correct, "attempted": result["ops"], "failed": outcomes.failed,
                      "metrics": result["metrics"]}))


def run_all(args):
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        res = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)], cwd=ROOT)
        status = status or res.returncode
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
