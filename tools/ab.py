"""Compare the answers, or the speed, of two source trees of wright_poisson.

    python tools/ab.py PARENT_SRC CHANGE_SRC [--design {small,full,large}]
    python tools/ab.py PARENT_SRC CHANGE_SRC --time [--rounds N] [--seconds S]

Each tree is imported in a subprocess of its own (``PYTHONPATH=<tree>``),
which evaluates one fixed, seeded design and writes one JSON line per
record: an id, a kind and the ``repr`` of the answer, or the type and
message of the exception it raised. The kinds are the support table, the
scalar queries, ``mgf``, ``moment_report``, ``expectation`` of a falling
and a growing weight, the series functions at z of
both signs, ``fit_m`` and ``log_likelihood`` on a sample at every point
whose distribution builds, ``fit_full`` at the first few of them, and the
typed errors of arguments outside the domain. The two files are then diffed:
changed records are counted by kind, and a change from a value or an
untyped exception to a ``DomainError`` is counted as newly typed. The
Python, numpy and scipy versions of each subprocess are printed.

The design depends only on its seed and size, not on the code under test,
and reads nothing from the network. ``small`` (1115 records) runs in about
a second per tree, ``full`` (12 323 records, the default) in a few seconds
and ``large`` (412 347 records) in about 40 seconds. The exit status is
0 when every record matches and 1 otherwise.

``--time`` times the bench's ``fit`` and ``query_hot`` ops (from
``bench/workloads.py`` of this checkout, at bench seed 1) instead. Each
round runs one subprocess per tree, the parent first in even rounds and
the change first in odd ones. A subprocess sets the two workloads up,
runs one untimed cycle of each, and then times ``run`` on op 0, 1, ...
for S seconds per workload (default 2), ending at a whole input cycle, as
the bench does; it reports the ops per second of timed work and the median
op latency. For each workload and figure the tool prints both trees'
median and quartiles over the rounds (default 10), and in how many rounds
the change was faster. A speed claim needs at least 10 rounds; fewer only
check that the tool runs.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from decimal import Decimal

import numpy as np

DESIGN_SEED = 20240522
# random (alpha, beta, m) points and fit_full data sets per design size; fit_m
# and log_likelihood run on a sample at every point whose distribution builds
SIZES = {"small": (4, 1), "full": (200, 6), "large": (7000, 20)}
# fixed points: corners of the fit box, small and large rates, Poisson
FIXED_POINTS = [(0.1, 0.1, 0.5), (10.0, 10.0, 200.0), (0.5, 2.0, 30.0), (1.0, 1.0, 4.0),
                (0.8, 1.2, 30.0), (3.0, 0.3, 150.0), (1.0, 1.0, 1e-6)]
# arguments outside the domain, given in turn to every argument of every entry point
BAD_ARGUMENTS = {"'1'": "1", "None": None, "1+2j": 1 + 2j, "Decimal('1')": Decimal("1"),
                 "np.array(1.0)": np.array(1.0), "nan": math.nan, "inf": math.inf,
                 "-1": -1, "0": 0, "10**400": 10**400, "2.5": 2.5, "1e6": 1e6}
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
# the timed workloads, the bench seed of their inputs and the op index of
# their untimed warm-up cycle, as in bench/run.py
TIMED = ("fit", "query_hot")
TIME_SEED = 1
WARMUP_BASE = 10**7
# (name, unit, decimals, whether higher is faster) of each figure a timing child reports
FIGURES = (("throughput_ops_s", "1/s", 0, True), ("latency_p50_us", "us", 1, False))


def _outcome(fn):
    """repr of fn()'s value, or '!Type: message' of what it raised."""
    try:
        return repr(fn())
    except Exception as exc:  # every outcome is a record, typed or not
        return f"!{type(exc).__name__}: {exc}"


def _points(rng, count):
    lo = [0.1, 0.1, 0.01]
    hi = [10.0, 10.0, 200.0]
    logs = rng.uniform(size=(count, 3)) * (np.log(hi) - np.log(lo)) + np.log(lo)
    return FIXED_POINTS + [tuple(float(v) for v in row) for row in np.exp(logs).round(6)]


def _records(design):
    """(id, kind, outcome) over the design; imports the library under test."""
    import wright_poisson as wp

    n_random, n_full = SIZES[design]
    rng = np.random.default_rng(DESIGN_SEED)
    points = _points(rng, n_random)
    ok = {}
    for a, b, m in points:
        at = f"a={a!r},b={b!r},m={m!r}"
        try:
            d = ok[(a, b, m)] = wp.new_wright_poisson(a, b, m)
        except Exception as exc:
            yield f"table|{at}", "table", f"!{type(exc).__name__}: {exc}"
            continue
        table = d.support_pmf()
        yield f"table|{at}", "table", repr((d.log_normalizer, table.tolist()))
        end = table.size
        for r in sorted({0, 1, end // 2, end - 1, end, end + 5, 10**400}):
            yield f"log_pmf|{at}|r={r}", "query", _outcome(lambda: d.log_pmf(r))
            yield f"pmf|{at}|r={r}", "query", _outcome(lambda: d.pmf(r))
            yield f"cdf|{at}|r={r}", "query", _outcome(lambda: d.cdf(r))
        # past the table, on both sides of end + 16 and 2 end + 16, where
        # past-table reads may change from one stored tier to the next, and
        # far past both, where only the formula answers
        for r in sorted({end + 15, end + 16, 2 * end + 15, 2 * end + 16, 4 * end + 64}):
            yield f"log_pmf|{at}|r={r}", "query", _outcome(lambda: d.log_pmf(r))
            yield f"pmf|{at}|r={r}", "query", _outcome(lambda: d.pmf(r))
        for r in (0, end // 2):
            yield (f"pmf_recurrence_step|{at}|r={r}", "query",
                   _outcome(lambda: d.pmf_recurrence_step(r, d.pmf(r))))
        for p in (0.0, 0.25, 0.5, 0.99, 0.999999):
            yield f"quantile|{at}|p={p}", "query", _outcome(lambda: d.quantile(p))
        yield f"sample|{at}", "query", _outcome(lambda: d.sample(20, 7).values.tolist())
        for t in (-2.0, -0.1, 0.0, 0.5, 1.0):
            yield f"mgf|{at}|t={t}", "mgf", _outcome(lambda: d.mgf(t))
        yield f"moment_report|{at}", "moment_report", _outcome(d.moment_report)
        for label, weight in (("exp(-r)", lambda r: math.exp(-r)),
                              ("exp(0.5r)", lambda r: math.exp(0.5 * r))):
            yield f"expectation|{at}|{label}", "expectation", _outcome(lambda: d.expectation(weight))
        for z in dict.fromkeys((m, -m, 0.5, -3.0)):  # distinct, so every id is written once
            yield (f"mittag_leffler2|{at}|z={z}", "series",
                   _outcome(lambda: wp.mittag_leffler2(a, b, z)))
            yield (f"mittag_leffler3|{at}|z={z}", "series",
                   _outcome(lambda: wp.mittag_leffler3(a, b, 0.5, z)))
            yield f"mittag_leffler|{at}|z={z}", "series", _outcome(lambda: wp.mittag_leffler(a, z))
            spec = wp.WrightSpec([(1.0, 1.0), (1.0, 1.0)], [(-1.0, 1.0), (b, a)], z)
            yield f"wright_series|{at}|z={z}", "series", _outcome(lambda: wp.wright_series(spec))
        yield f"log_gamma|{at}", "series", _outcome(lambda: wp.log_gamma(a * m + b))

    for i, (a, b, m) in enumerate(pt for pt in points if pt in ok):
        at = f"a={a!r},b={b!r},m={m!r}"
        data = wp.CountData.from_counts(ok[(a, b, m)].sample(500, 11 + i).values)
        yield f"fit_m|{at}", "fit_m", _outcome(lambda: wp.fit_m(data, a, b))
        yield f"log_likelihood|{at}", "log_likelihood", _outcome(lambda: wp.log_likelihood(data, a, b, m))
        if i < n_full:
            yield f"fit_full|{at}", "fit_full", _outcome(lambda: wp.fit_full(data))

    d = wp.new_wright_poisson(1.0, 1.0, 3.0)
    data = wp.CountData.from_counts([0, 1, 2, 3])
    spec = wp.WrightSpec([(1.0, 1.0)], [(1.0, 1.0)], 0.5)
    entry_points = {
        "log_gamma(x)": lambda x: wp.log_gamma(x),
        "WrightSpec(upper a)": lambda x: wp.WrightSpec([(x, 1.0)], [(1.0, 1.0)], 0.5),
        "WrightSpec(upper alpha)": lambda x: wp.WrightSpec([(1.0, x)], [(1.0, 1.0)], 0.5),
        "WrightSpec(lower b)": lambda x: wp.WrightSpec([(1.0, 1.0)], [(x, 1.0)], 0.5),
        "WrightSpec(lower beta)": lambda x: wp.WrightSpec([(1.0, 1.0)], [(1.0, x)], 0.5),
        "WrightSpec(z)": lambda x: wp.WrightSpec([(1.0, 1.0)], [(1.0, 1.0)], x),
        "SeriesControl(rel_tol)": lambda x: wp.SeriesControl(rel_tol=x),
        "SeriesControl(max_terms)": lambda x: wp.SeriesControl(max_terms=x),
        "wright_term(k)": lambda x: wp.wright_term(spec, x),
        "mittag_leffler(alpha)": lambda x: wp.mittag_leffler(x, 0.5),
        "mittag_leffler(z)": lambda x: wp.mittag_leffler(1.0, x),
        "mittag_leffler2(alpha)": lambda x: wp.mittag_leffler2(x, 1.0, 0.5),
        "mittag_leffler2(beta)": lambda x: wp.mittag_leffler2(1.0, x, 0.5),
        "mittag_leffler2(z)": lambda x: wp.mittag_leffler2(1.0, 1.0, x),
        "mittag_leffler3(alpha)": lambda x: wp.mittag_leffler3(x, 1.0, 1.0, 0.5),
        "mittag_leffler3(beta)": lambda x: wp.mittag_leffler3(1.0, x, 1.0, 0.5),
        "mittag_leffler3(gamma)": lambda x: wp.mittag_leffler3(1.0, 1.0, x, 0.5),
        "mittag_leffler3(z)": lambda x: wp.mittag_leffler3(1.0, 1.0, 1.0, x),
        "new_wright_poisson(alpha)": lambda x: wp.new_wright_poisson(x, 1.0, 3.0),
        "new_wright_poisson(beta)": lambda x: wp.new_wright_poisson(1.0, x, 3.0),
        "new_wright_poisson(m)": lambda x: wp.new_wright_poisson(1.0, 1.0, x),
        "log_pmf(r)": lambda x: d.log_pmf(x),
        "pmf(r)": lambda x: d.pmf(x),
        "cdf(r)": lambda x: d.cdf(x),
        "quantile(p)": lambda x: d.quantile(x),
        "mgf(t)": lambda x: d.mgf(x),
        "pmf_recurrence_step(r)": lambda x: d.pmf_recurrence_step(x, 0.1),
        "pmf_recurrence_step(pmf_r)": lambda x: d.pmf_recurrence_step(2, x),
        "sample(n)": lambda x: d.sample(x, 1).values.tolist(),
        "sample(seed)": lambda x: d.sample(3, x).values.tolist(),
        "fit_m(data)": lambda x: wp.fit_m(x, 1.0, 1.0),
        "fit_m(alpha)": lambda x: wp.fit_m(data, x, 1.0),
        "fit_m(beta)": lambda x: wp.fit_m(data, 1.0, x),
        "fit_full(data)": lambda x: wp.fit_full(x),
        "log_likelihood(data)": lambda x: wp.log_likelihood(x, 1.0, 1.0, 3.0),
        "log_likelihood(alpha)": lambda x: wp.log_likelihood(data, x, 1.0, 3.0),
        "log_likelihood(beta)": lambda x: wp.log_likelihood(data, 1.0, x, 3.0),
        "log_likelihood(m)": lambda x: wp.log_likelihood(data, 1.0, 1.0, x),
    }
    for name, call in entry_points.items():
        for text, value in BAD_ARGUMENTS.items():
            yield f"error|{name}|{text}", "error", _outcome(lambda: call(value))


def emit(design, out):
    """Write the design's records as JSON lines, after one line that names
    the library file and the versions it ran with."""
    import importlib.metadata
    import platform

    import wright_poisson

    header = {"id": "_run", "library": wright_poisson.__file__, "python": platform.python_version(),
              "numpy": np.__version__, "scipy": importlib.metadata.version("scipy"),
              "machine": platform.platform()}
    out.write(json.dumps(header, sort_keys=True) + "\n")
    for rid, kind, outcome in _records(design):
        out.write(json.dumps({"id": rid, "kind": kind, "out": outcome}, sort_keys=True) + "\n")


def run_tree(src, design, path):
    """Emit the design's records of the tree at src into the file path;
    return its header."""
    src = os.path.abspath(src)
    env = dict(os.environ, PYTHONPATH=src)
    with open(path, "w", encoding="utf-8") as fh:
        subprocess.run([sys.executable, os.path.abspath(__file__), "--emit", design],
                       env=env, stdout=fh, check=True, cwd=src)
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
    if not os.path.abspath(header["library"]).startswith(src + os.sep):
        raise SystemExit(f"{src}: imported wright_poisson from {header['library']}")
    return header


def time_ops(seconds, out):
    """Time the TIMED workloads' ops for ``seconds`` each and write their
    figures, and the library file, as one JSON line."""
    sys.path.insert(0, BENCH)
    import wright_poisson
    import workloads

    result = {"library": wright_poisson.__file__}
    for name in TIMED:
        work = workloads.WORKLOADS[name](wright_poisson, TIME_SEED)
        work.setup()
        for i in range(work.cycle):
            work.run(work.make_input(WARMUP_BASE + i), {})
        latencies = []
        t_end = time.perf_counter() + seconds
        while time.perf_counter() < t_end or len(latencies) % work.cycle or not latencies:
            inp = work.make_input(len(latencies))
            t0 = time.perf_counter()
            work.run(inp, {})
            latencies.append(time.perf_counter() - t0)
        result[name] = {"throughput_ops_s": len(latencies) / sum(latencies),
                        "latency_p50_us": 1e6 * statistics.median(latencies)}
    out.write(json.dumps(result) + "\n")


def time_tree(src, seconds):
    """One timing child on the tree at src; its figures by workload."""
    src = os.path.abspath(src)
    argv = [sys.executable, os.path.abspath(__file__), "--time-child", repr(seconds)]
    proc = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, check=True, cwd=src)
    result = json.loads(proc.stdout)
    if not os.path.abspath(result["library"]).startswith(src + os.sep):
        raise SystemExit(f"{src}: imported wright_poisson from {result['library']}")
    return result


def compare_times(parent, change, rounds, seconds, out=sys.stdout):
    """Alternate timing children of the two trees for ``rounds`` rounds and
    print each figure's medians, quartiles and the change's wins."""
    trees = {"parent": parent, "change": change}
    runs = {label: [] for label in trees}
    for i in range(rounds):
        for label in (trees if i % 2 == 0 else reversed(trees)):
            runs[label].append(time_tree(trees[label], seconds))
    out.write(f"timing: {rounds} rounds of one subprocess per tree, {seconds:g} s of ops per"
              f" workload, bench seed {TIME_SEED}; the parent runs first in even rounds\n")
    for name in TIMED:
        for figure, unit, decimals, higher in FIGURES:
            old, new = ([r[name][figure] for r in runs[label]] for label in trees)
            cells = []
            for label, values in zip(trees, (old, new)):
                q1, med, q3 = np.percentile(values, [25, 50, 75])
                cells.append(f"{label} {med:.{decimals}f} [{q1:.{decimals}f}, {q3:.{decimals}f}]")
            wins = sum((c > p) if higher else (c < p) for p, c in zip(old, new))
            out.write(f"{name} {figure} ({unit}, median [quartiles]): {cells[0]}; {cells[1]};"
                      f" change faster in {wins} of {rounds} rounds\n")


def _load(path):
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        return {rec["id"]: rec for rec in map(json.loads, fh)}


def _newly_typed(old, new):
    """A value or an untyped exception that became a DomainError."""
    untyped = not old.startswith("!") or old.startswith(("!TypeError", "!AttributeError",
                                                         "!UFuncTypeError", "!OverflowError",
                                                         "!ValueError"))
    return untyped and new.startswith("!DomainError")


def compare(parent_path, change_path, out=sys.stdout):
    """Print the changed records and their counts by kind; return how many changed."""
    parent, change = _load(parent_path), _load(change_path)
    by_kind = collections.Counter()
    typed = 0
    for rid in sorted(parent.keys() | change.keys()):
        old, new = parent.get(rid), change.get(rid)
        old_out = old["out"] if old else "(absent)"
        new_out = new["out"] if new else "(absent)"
        if old_out == new_out:
            continue
        by_kind[(old or new)["kind"]] += 1
        newly = old is not None and new is not None and _newly_typed(old_out, new_out)
        typed += newly
        mark = "newly typed" if newly else "CHANGED"
        out.write(f"{mark}: {rid}\n    parent: {old_out}\n    change: {new_out}\n")
    changed = sum(by_kind.values())
    out.write(f"records: {len(parent)} parent, {len(change)} change; changed: {changed}"
              f" ({typed} newly typed errors, {changed - typed} other)\n")
    for kind in sorted(by_kind):
        out.write(f"  {kind}: {by_kind[kind]}\n")
    return changed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", nargs="?", help="the parent tree's src directory")
    ap.add_argument("change", nargs="?", help="the changed tree's src directory")
    ap.add_argument("--design", choices=sorted(SIZES), default="full")
    ap.add_argument("--time", action="store_true",
                    help="time the bench's fit and query_hot ops instead of comparing answers")
    ap.add_argument("--rounds", type=int, default=10, help="timing rounds (default 10)")
    ap.add_argument("--seconds", type=float, default=2.0,
                    help="seconds of ops per workload in each timing subprocess (default 2)")
    ap.add_argument("--emit", choices=sorted(SIZES), help=argparse.SUPPRESS)
    ap.add_argument("--time-child", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.emit:
        emit(args.emit, sys.stdout)
        return 0
    if args.time_child is not None:
        time_ops(args.time_child, sys.stdout)
        return 0
    if not (args.parent and args.change):
        ap.error("PARENT_SRC and CHANGE_SRC are required")
    if args.time:
        if args.rounds < 1 or not args.seconds > 0.0:
            ap.error("--rounds must be at least 1 and --seconds above 0")
        compare_times(args.parent, args.change, args.rounds, args.seconds)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, "parent.jsonl"), os.path.join(tmp, "change.jsonl")]
        for label, src, path in zip(("parent", "change"), (args.parent, args.change), paths):
            h = run_tree(src, args.design, path)
            print(f"{label}: {h['library']}; Python {h['python']}, numpy {h['numpy']},"
                  f" scipy {h['scipy']}; {h['machine']}")
        return 1 if compare(*paths) else 0

if __name__ == "__main__":
    sys.exit(main())
