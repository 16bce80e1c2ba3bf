"""The three closed-loop workloads.

A workload makes op i's input with ``make_input(i)`` (outside the timed
region), runs it with ``run(inp, rec)`` (timed; outputs go into ``rec`` as
they are produced, so a batch that raises half-way is still checked), and
checks it with ``check(inp, rec)``, which returns the names of the oracles
it failed. Library callables are looked up as module attributes at call
time, so the tracer's wrappers see every call.

The timed ops only use inputs in reach of the seed code (see inputs.py).
``probe_inputs()`` lists the traced run's extra ops on known failures:
fit_full for ``fit``, points beyond the cliffs for ``query_hot`` and
``cli``; they run and are checked like any other op.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
from scipy import special as sc

import inputs
import oracles
from oracles import Reference, close, pmf_ok, quantile_ok

HOT_COUNT = 9
HOT_QUERIES = 16
HOT_SAMPLE = 1000
MOMENT_SPREAD = 1e-9
SAMPLE_FALSE_ALARM = 1e-9
CLI_COMMANDS = ("check", "fit", "sample", "moments", "pmf")
# runs the CLI like ``python -m wright_poisson.cli`` and reports on stderr
# how long main() took, without the interpreter start-up and imports
CLI_TIMED_LAUNCHER = """
import sys, time
import wright_poisson.cli as cli
t0 = time.perf_counter()
code = cli.main(sys.argv[1:])
sys.stderr.write("command_s %r\\n" % (time.perf_counter() - t0))
sys.exit(code)
"""
FIT_STRATA = 9
FIT_PROBES = 5
HOT_PROBES = 6
CLI_POINTS = 3


class Unbuilt(LookupError):
    """A query was routed to a distribution whose construction failed."""


def ref_log_likelihood(counts: np.ndarray, alpha, beta, m) -> float:
    uniq, wts = np.unique(counts, return_counts=True)
    return (float(counts.sum()) * math.log(m)
            - float(np.dot(wts, sc.gammaln(alpha * uniq + beta)))
            - counts.size * oracles.log_z(alpha, beta, m))


def check_moments(ref: Reference, rep) -> list:
    bad = []
    if not rep.max_method_spread <= MOMENT_SPREAD * max(1.0, abs(rep.m2_series)):
        bad.append("moments.spread")
    if not close(rep.mean_series, ref.mean, 1e-9, 1e-12):
        bad.append("moments.mean")
    if not close(rep.m2_series, ref.m2, 1e-9, 1e-12):
        bad.append("moments.m2")
    return bad


def check_sample(ref: Reference, values) -> list:
    """Support, and the Kolmogorov distance to the reference cdf; by the
    DKW inequality a correct sampler exceeds the bound with probability
    below 1e-9."""
    values = np.asarray(values)
    if values.min() < ref.lo or values.max() > ref.hi:
        return ["sample.support"]
    counts = np.bincount(values - ref.lo, minlength=ref.hi - ref.lo + 1)
    distance = np.max(np.abs(np.cumsum(counts) / values.size - ref.cdf_window))
    if distance > math.sqrt(math.log(2.0 / SAMPLE_FALSE_ALARM) / (2.0 * values.size)):
        return ["sample.distribution"]
    return []


class Fit:
    """fit_m at the generating (alpha, beta) on one fresh dataset of 10^4
    counts per op, cycling over FIT_STRATA fixed generating points; the
    traced run adds FIT_PROBES fit_full ops over the whole fit domain."""

    name = "fit"
    input_size = f"{inputs.FIT_N} counts per op"
    cycle = FIT_STRATA

    def __init__(self, lib, seed):
        self.lib, self.seed = lib, seed
        self.points = inputs.design("fit", inputs.FIT_BOX, FIT_STRATA, inputs.fit_in_reach)
        self.probes = inputs.design("fit", inputs.FIT_BOX, FIT_PROBES)
        self.unconverged = 0

    def setup(self):
        pass

    def setup_inputs(self):
        return [np.array(self.points)]

    def _input(self, i, truth, full):
        a, b, m = truth
        counts = inputs.draw_counts(inputs.rng_for(self.seed, "fit", 1, i), a, b, m,
                                    inputs.FIT_N, oracles.window(a, b, m), oracles.log_z(a, b, m))
        return {"truth": truth, "counts": counts, "full": full}

    def make_input(self, i):
        return self._input(i, self.points[i % FIT_STRATA], False)

    def probe_inputs(self):
        return [self._input(inputs.PROBE_BASE + j, truth, True)
                for j, truth in enumerate(self.probes)]

    def digest_items(self, inp):
        return [inp["truth"], inp["counts"]]

    def run(self, inp, rec):
        est = self.lib.estimation
        data = est.CountData.from_counts(inp["counts"])
        if inp["full"]:
            rec["fit"] = est.fit_full(data)
        else:
            rec["fit"] = est.fit_m(data, *inp["truth"][:2])

    def check(self, inp, rec):
        fit = rec.get("fit")
        if fit is None:
            return []
        self.unconverged += not fit.converged
        bad = []
        counts = inp["counts"]
        if not close(fit.log_likelihood, ref_log_likelihood(counts, fit.alpha, fit.beta, fit.m), 1e-9):
            bad.append("fit.log_likelihood")
        truth = ref_log_likelihood(counts, *inp["truth"])
        # the truth lies inside the search domain, so the maximum cannot be below it
        if fit.log_likelihood < truth - 1e-9 * abs(truth):
            bad.append("fit.below_truth")
        return bad


def cold_op(lib, point, rec):
    """Build a distribution at ``point``; quantile(0.99), the cdf there,
    the moment report and mgf(0.5)."""
    d = lib.distribution.new_wright_poisson(*point)
    rec["log_normalizer"] = d.log_normalizer
    rec["q"] = q = d.quantile(0.99)
    rec["cdf"] = d.cdf(q)
    rec["moments"] = d.moment_report()
    rec["mgf"] = d.mgf(inputs.MGF_T)


def check_cold(point, rec) -> list:
    if "log_normalizer" not in rec:
        return []
    ref = Reference(*point)
    bad = []
    if not close(rec["log_normalizer"], ref.log_z, 1e-10, 1e-10):
        bad.append("log_normalizer")
    if "q" in rec and not quantile_ok(ref, 0.99, rec["q"]):
        bad.append("quantile")
    if "cdf" in rec and not close(rec["cdf"], ref.cdf(rec["q"]), 0.0, 1e-9):
        bad.append("cdf")
    if "moments" in rec:
        bad += check_moments(ref, rec["moments"])
    if "mgf" in rec and not ref.mgf_ok(inputs.MGF_T, rec["mgf"]):
        bad.append("mgf")
    return bad


class QueryHot:
    """Query batches round-robin against distributions built in setup; the
    traced run adds HOT_PROBES cold ops (build, quantile, cdf, moments,
    mgf) at points beyond the cliffs."""

    name = "query_hot"
    input_size = (f"{HOT_COUNT} distributions; per op {HOT_QUERIES} pmf, {HOT_QUERIES} cdf, "
                  f"{HOT_QUERIES} quantile, sample({HOT_SAMPLE})")
    cycle = HOT_COUNT

    def __init__(self, lib, seed):
        self.lib, self.seed = lib, seed
        self.points = inputs.hot_points(HOT_COUNT)
        self.modes = [int(round(float(inputs.term_peak(*p)))) for p in self.points]
        self.refs = {}
        self.dists = []

    def setup(self):
        dist, lib = self.lib.distribution, self.lib
        self.dists = []
        for point in self.points:
            try:
                self.dists.append(dist.new_wright_poisson(*point))
            except (lib.NonConvergenceError, lib.DomainError):
                self.dists.append(None)

    def setup_inputs(self):
        return [np.array(self.points)]

    def probe_inputs(self):
        return [{"cold": point} for point in inputs.cliff_points(self.seed, "query_hot", HOT_PROBES)]

    def make_input(self, i):
        j = i % HOT_COUNT
        rng = inputs.rng_for(self.seed, "query_hot", 1, i)
        return {
            "dist": j,
            "r": max(self.modes[j] - HOT_QUERIES // 2, 0) + np.arange(HOT_QUERIES),
            "p": 0.999 * (1.0 - rng.random(HOT_QUERIES)),  # in (0, 0.999]
            "seed": int(rng.integers(2**31)),
        }

    def digest_items(self, inp):
        return [inp["dist"], inp["r"], inp["p"], inp["seed"]]

    def run(self, inp, rec):
        if "cold" in inp:
            return cold_op(self.lib, inp["cold"], rec)
        d = self.dists[inp["dist"]]
        if d is None:
            raise Unbuilt(f"distribution {inp['dist']} could not be built")
        rec["pmf"] = [d.pmf(int(r)) for r in inp["r"]]
        rec["cdf"] = [d.cdf(int(r)) for r in inp["r"]]
        rec["quantile"] = [d.quantile(float(p)) for p in inp["p"]]
        rec["sample"] = d.sample(HOT_SAMPLE, inp["seed"]).values

    def reference(self, j):
        if j not in self.refs:
            self.refs[j] = Reference(*self.points[j])
        return self.refs[j]

    def check(self, inp, rec):
        if "cold" in inp:
            return check_cold(inp["cold"], rec)
        if not rec:
            return []
        ref = self.reference(inp["dist"])
        rs = [int(r) for r in inp["r"]]
        bad = []
        if any(not pmf_ok(ref, r, got) for r, got in zip(rs, rec.get("pmf", []))):
            bad.append("pmf")
        if any(not close(got, ref.cdf(r), 0.0, 1e-9) for r, got in zip(rs, rec.get("cdf", []))):
            bad.append("cdf")
        if any(not quantile_ok(ref, p, q) for p, q in zip(inp["p"], rec.get("quantile", []))):
            bad.append("quantile")
        if "sample" in rec:
            bad += check_sample(ref, rec["sample"])
        return bad


class Cli:
    """One ``python -m wright_poisson.cli`` subprocess per op, cycling
    through the commands at CLI_POINTS fixed points of the fit domain; the
    traced run adds every command at one point beyond the cliffs."""

    name = "cli"
    input_size = "1 subprocess per op; fit reads a 10^4-line file"
    cycle = len(CLI_COMMANDS)  # each command once, at one point

    def __init__(self, lib, seed, root, workdir):
        self.lib, self.seed = lib, seed
        self.root, self.workdir = root, workdir
        self.points = inputs.design("cli", inputs.FIT_BOX, CLI_POINTS, inputs.fit_in_reach)
        self.probe = inputs.design("cli", inputs.FIT_BOX, 1,
                                   lambda *p: ~inputs.fit_in_reach(*p))[0]
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.peak_rss_kb = 0
        self.stdout_bytes = 0
        self.exit_nonzero = 0
        self.command_times = None  # a list: launch through CLI_TIMED_LAUNCHER

    def setup(self):
        pass

    def setup_inputs(self):
        return [np.array(self.points)]

    def make_input(self, i):
        cycle, slot = divmod(i, len(CLI_COMMANDS))
        return self._input(cycle, CLI_COMMANDS[slot], self.points[cycle % CLI_POINTS])

    def probe_inputs(self):
        return [self._input(inputs.PROBE_BASE + j, command, self.probe)
                for j, command in enumerate(CLI_COMMANDS)]

    def _input(self, cycle, command, point):
        a, b, m = point
        params = ["--alpha", repr(a), "--beta", repr(b), "--m", repr(m)]
        inp = {"command": command, "params": (a, b, m), "counts": None}
        if command == "check":
            argv = ["check", "--grid-size", "2", "--format", "json"]
        elif command == "fit":
            counts = inputs.draw_counts(inputs.rng_for(self.seed, "cli", 1, cycle), a, b, m,
                                        inputs.FIT_N, oracles.window(a, b, m), oracles.log_z(a, b, m))
            path = self.workdir / f"cli-counts-{self.seed}.txt"
            path.write_text("\n".join(map(str, counts.tolist())) + "\n", encoding="utf-8")
            inp["counts"] = counts
            argv = ["fit", str(path), "--mode", "m-only", "--alpha", repr(a), "--beta", repr(b),
                    "--format", "json"]
        elif command == "sample":
            argv = ["sample", *params, "--n", "10000", "--seed", str(cycle), "--format", "csv"]
        elif command == "moments":
            argv = ["moments", *params, "--format", "json"]
        else:
            argv = ["pmf", *params, "--r-max", "100", "--format", "json"]
        inp["argv"] = argv
        return inp

    def digest_items(self, inp):
        if inp["command"] == "fit":  # the counts, not the file's checkout-specific path
            return [" ".join(inp["argv"][2:]), inp["counts"]]
        return [" ".join(inp["argv"])]

    def run(self, inp, rec):
        timed = self.command_times is not None
        launch = ["-c", CLI_TIMED_LAUNCHER] if timed else ["-m", "wright_poisson.cli"]
        stderr_path = self.workdir / "cli-stderr.txt"
        with open(stderr_path, "wb") as err:
            proc = subprocess.Popen([sys.executable, *launch, *inp["argv"]],
                                    stdout=subprocess.PIPE, stderr=err, env=self.env,
                                    cwd=self.root)
            out = proc.stdout.read()
            proc.stdout.close()
            # wait4 gives this child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        rec["exit"], rec["stdout"] = proc.returncode, out
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if timed:
            for line in stderr_path.read_text(encoding="utf-8").splitlines():
                if line.startswith("command_s "):
                    self.command_times.append(float(line.split()[1]))

    def in_process(self, argv) -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            self.lib.cli.main(list(argv))
        return out.getvalue()

    def check(self, inp, rec):
        self.stdout_bytes += len(rec["stdout"])
        if rec["exit"] != 0:
            self.exit_nonzero += 1
            return [f"cli.exit_{rec['exit']}"]
        text = rec["stdout"].decode("utf-8")
        expected = self.in_process(inp["argv"])
        command = inp["command"]
        if command == "sample":
            if text != expected:
                return ["cli.differs"]
            values = np.array([int(v) for v in text.split()[1:]])
            return check_sample(Reference(*inp["params"]), values)
        got = json.loads(text)
        if got != json.loads(expected):
            return ["cli.differs"]
        if command == "check":
            return [] if all(row["passed"] for row in got) else ["cli.check_failed"]
        if command == "fit":
            fields = {row["field"]: row["value"] for row in got}
            want = ref_log_likelihood(inp["counts"], fields["alpha"], fields["beta"], fields["m"])
            return [] if close(fields["log_likelihood"], want, 1e-9) else ["fit.log_likelihood"]
        ref = Reference(*inp["params"])
        if command == "moments":
            rows = {row["method"]: row["value"] for row in got}
            if not close(rows["mean_series"], ref.mean, 1e-9, 1e-12):
                return ["moments.mean"]
            return []
        return ["pmf"] if any(not pmf_ok(ref, row["r"], row["pmf"]) for row in got) else []


WORKLOADS = {"fit": Fit, "query_hot": QueryHot, "cli": Cli}
