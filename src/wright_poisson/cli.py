"""Command-line front-end.

Subcommands: pmf, moments, mgf, sample, fit, check.

Exit codes: 0 success, 1 self-check failures, 2 input/parameter errors,
3 moment-method disagreement, 4 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from typing import List, Optional

import numpy as np

from .distribution import WrightPoisson, new_wright_poisson
from .estimation import ParseError, fit_full, fit_m, load_counts
from .special import (
    DomainError,
    NonConvergenceError,
    SeriesControl,
    WrightSpec,
    _DEFAULT_CTRL,
    wright_term,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_METHOD_DISAGREEMENT = 3
EXIT_NON_CONVERGENCE = 4

SPREAD_LIMIT = 1e-9
ENV_REL_TOL = "WRIGHT_POISSON_REL_TOL"

_CHECK_GRID_SHAPES = [0.5, 1.0, 1.5, 2.0, 3.0]
_CHECK_GRID_M = [0.1, 1.0, 5.0]
# argparse takes only -123 and -1.5 for negative numbers, and -1e-3 for an
# unknown option; its private matcher, widened to exponents, makes it a value
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _fmt(x: float) -> str:
    return f"{x:.11e}"


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _table(headers: List[str], rows: List[List[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _csv(headers: List[str], rows: List[List[str]]) -> str:
    lines = [",".join(headers)]
    lines += [",".join(r) for r in rows]
    return "\n".join(lines) + "\n"


def _render(fmt: str, headers, rows_raw, out_path):
    """rows_raw are lists of python values; formatted per output mode."""
    if fmt == "json":
        recs = [dict(zip(headers, r)) for r in rows_raw]
        _emit(json.dumps(recs, indent=2) + "\n", out_path)
    else:
        rows = [
            [c if isinstance(c, str) else _fmt(float(c)) if isinstance(c, float)
             else str(c) for c in r]
            for r in rows_raw
        ]
        if fmt == "csv":
            _emit(_csv(headers, rows), out_path)
        else:
            _emit(_table(headers, rows), out_path)


def _field_rows(record) -> List[list]:
    """One [name, value] row per field of a result record, in declaration
    order; a bool prints as its str in every format."""
    return [[name, str(v) if isinstance(v, bool) else v]
            for name, v in dataclasses.asdict(record).items()]


def _ctrl_from(args) -> SeriesControl:
    rel_tol = args.rel_tol
    if rel_tol is None:
        env = os.environ.get(ENV_REL_TOL)
        try:
            rel_tol = SeriesControl(rel_tol=float(env)).rel_tol if env else _DEFAULT_CTRL.rel_tol
        except DomainError as exc:  # a number that the control's own rule rejects
            raise DomainError(f"{ENV_REL_TOL}={env!r}: {exc}") from None
        except ValueError:
            raise DomainError(f"{ENV_REL_TOL} must be a number, got {env!r}") from None
    return SeriesControl(rel_tol=rel_tol, max_terms=args.max_terms)


def _dist_from(args) -> WrightPoisson:
    return new_wright_poisson(args.alpha, args.beta, args.m, _ctrl_from(args))


# -- subcommands ------------------------------------------------------


def cmd_pmf(args) -> int:
    if args.r_max < 0:
        raise DomainError("--r-max must be >= 0")
    d = _dist_from(args)
    rows = [[r, d.pmf(r), d.cdf(r)] for r in range(args.r_max + 1)]
    _render(args.format, ["r", "pmf", "cdf"], rows, args.out)
    if args.format == "table":
        sys.stderr.write(f"final cdf: {_fmt(rows[-1][2])}\n")
    return EXIT_OK


def cmd_moments(args) -> int:
    d = _dist_from(args)
    rep = d.moment_report()
    _render(args.format, ["method", "value"], _field_rows(rep), args.out)
    if rep.max_method_spread > SPREAD_LIMIT:
        sys.stderr.write(
            f"moment methods disagree: spread {rep.max_method_spread:.3e}\n"
        )
        return EXIT_METHOD_DISAGREEMENT
    return EXIT_OK


def cmd_mgf(args) -> int:
    d = _dist_from(args)
    rows = [[float(t), float(d.mgf(t))] for t in args.t]
    _render(args.format, ["t", "mgf"], rows, args.out)
    return EXIT_OK


def cmd_sample(args) -> int:
    d = _dist_from(args)
    batch = d.sample(args.n, args.seed)
    vals = batch.values
    mean = float(vals.mean())
    var = float(vals.var())
    if args.format == "json":
        payload = {
            "seed": batch.seed,
            "n": batch.n,
            "values": vals.tolist(),
            "empirical_mean": mean,
            "empirical_variance": var,
        }
        _emit(json.dumps(payload) + "\n", args.out)
    elif args.format == "csv":
        _emit(_csv(["value"], [[str(v)] for v in vals]), args.out)
        sys.stderr.write(f"mean {_fmt(mean)} variance {_fmt(var)}\n")
    else:
        _emit(
            "\n".join(str(v) for v in vals)
            + f"\nmean {_fmt(mean)} variance {_fmt(var)}\n",
            args.out,
        )
    return EXIT_OK


def cmd_fit(args) -> int:
    data = load_counts(args.path, args.column)
    ctrl = _ctrl_from(args)
    if args.mode == "m-only":
        if args.alpha is None or args.beta is None:
            raise ParseError("--mode m-only requires --alpha and --beta")
        res = fit_m(data, args.alpha, args.beta, ctrl)
    else:
        res = fit_full(data, ctrl)
    _render(args.format, ["field", "value"], _field_rows(res), args.out)
    return EXIT_OK if res.converged else EXIT_NON_CONVERGENCE


def _run_checks(shapes, tol_scale: Optional[float], ctrl: SeriesControl):
    """One row per check: (name, params, max_error, tolerance, passed)."""
    results = []

    def add(name, params, err, default_tol):
        tol = tol_scale if tol_scale is not None else default_tol
        results.append(
            {
                "check": name,
                "params": params,
                "max_error": err,
                "tolerance": tol,
                "passed": bool(err <= tol),
            }
        )

    grid = [(a, b, m) for a in shapes for b in shapes for m in _CHECK_GRID_M]

    # classical reduction against the closed-form Poisson pmf
    err = 0.0
    for m in _CHECK_GRID_M:
        d = new_wright_poisson(1.0, 1.0, m, ctrl)
        lp = -m
        for r in range(51):
            if r > 0:
                lp += math.log(m) - math.log(r)
            ref = math.exp(lp)
            err = max(err, abs(d.pmf(r) - ref) / ref)
    add("classical-reduction", "alpha=beta=1", err, 1e-12)

    # pole-zero terms of the 2Psi2 appearing in the second moment
    err = 0.0
    for a, b, m in grid[:: max(1, len(grid) // 8)]:
        spec = WrightSpec([(1.0, 1.0), (1.0, 1.0)], [(-1.0, 1.0), (b, a)], m)
        err = max(err, abs(wright_term(spec, 0)), abs(wright_term(spec, 1)))
    add("pole-zero-terms", "2Psi2", err, 0.0)

    for a, b, m in grid:
        d = new_wright_poisson(a, b, m, ctrl)
        tag = f"alpha={a} beta={b} m={m}"

        total = float(np.sum(d.support_pmf()))
        add("normalization", tag, abs(total - 1.0), 1e-10)

        rep = d.moment_report()
        mean_err = max(
            abs(rep.mean_series - rep.mean_closed_i),
            abs(rep.mean_series - rep.mean_closed_ii),
        ) / max(1.0, abs(rep.mean_series))
        add("mean-methods", tag, mean_err, 1e-9)
        m2_err = max(
            abs(rep.m2_series - rep.m2_closed_i),
            abs(rep.m2_series - rep.m2_closed_ii),
        ) / max(1.0, abs(rep.m2_series))
        add("second-moment-methods", tag, m2_err, 1e-9)

        p = d.pmf(0)
        rec_err = 0.0
        for r in range(200):
            p = d.pmf_recurrence_step(r, p)
            direct = d.pmf(r + 1)
            if direct > 1e-300:
                rec_err = max(rec_err, abs(p - direct) / direct)
        add("recurrence", tag, rec_err, 1e-12)

        mgf_err = 0.0
        for t in (-1.0, -0.5, 0.0, 0.5, 1.0):
            ref = d.expectation(lambda r: math.exp(t * r))
            mgf_err = max(mgf_err, abs(d.mgf(t) - ref) / abs(ref))
        add("mgf", tag, mgf_err, 1e-10)

    results.sort(key=lambda r: (r["check"], r["params"]))
    return results


def cmd_check(args) -> int:
    ctrl = _ctrl_from(args)
    shapes = _CHECK_GRID_SHAPES[: args.grid_size]
    results = _run_checks(shapes, args.tolerance, ctrl)
    rows = [
        [r["check"], r["params"], float(r["max_error"]),
         "pass" if r["passed"] else "FAIL"]
        for r in results
    ]
    if args.format == "json":
        _emit(json.dumps(results, indent=2) + "\n", args.out)
    else:
        _render(args.format, ["check", "params", "max_error", "status"], rows, args.out)
    failures = [r for r in results if not r["passed"]]
    if failures:
        for r in failures:
            sys.stderr.write(
                f"FAIL {r['check']} [{r['params']}] "
                f"max_error {r['max_error']:.3e} > {r['tolerance']:.3e}\n"
            )
        return EXIT_CHECK_FAILED
    return EXIT_OK


# -- argument parsing -------------------------------------------------


def _add_common(p: argparse.ArgumentParser, with_params=True):
    p._negative_number_matcher = _NEGATIVE_NUMBER
    if with_params:
        p.add_argument("--alpha", type=float, required=True)
        p.add_argument("--beta", type=float, required=True)
        p.add_argument("--m", type=float, required=True)
    p.add_argument("--rel-tol", type=float, default=None,
                   help=f"series truncation tolerance (default {_DEFAULT_CTRL.rel_tol:g}, "
                        f"or ${ENV_REL_TOL})")
    p.add_argument("--max-terms", type=int, default=_DEFAULT_CTRL.max_terms)
    p.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p.add_argument("--out", default=None, help="write output to file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wright-poisson",
        description="Wright-type Poisson distribution toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pmf", help="tabulate pmf and cdf")
    _add_common(p)
    p.add_argument("--r-max", type=int, required=True)
    p.set_defaults(func=cmd_pmf)

    p = sub.add_parser("moments", help="mean/second-moment by every method")
    _add_common(p)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("mgf", help="moment generating function values")
    _add_common(p)
    p.add_argument("--t", type=float, nargs="+", required=True)
    p.set_defaults(func=cmd_mgf)

    p = sub.add_parser("sample", help="draw random variates")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("fit", help="maximum-likelihood fit to count data")
    _add_common(p, with_params=False)
    p.add_argument("path")
    p.add_argument("--column", default=None)
    p.add_argument("--mode", choices=["m-only", "full"], default="full")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("check", help="run the self-check suite")
    _add_common(p, with_params=False)
    p.add_argument("--grid-size", type=int, default=len(_CHECK_GRID_SHAPES),
                   choices=range(1, len(_CHECK_GRID_SHAPES) + 1))
    p.add_argument("--tolerance", type=float, default=None,
                   help="override every check's tolerance")
    p.set_defaults(func=cmd_check)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    # DomainError, ParseError and DegenerateDataError are ValueErrors; an
    # OSError is a path that cannot be read or written
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_INPUT
    except NonConvergenceError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NON_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
