"""Maximum-likelihood fitting of the Wright-type Poisson distribution to
observed counts, plus delimited-text ingestion.

The rate m is fitted from the score equation E[X] = sample mean, by
safeguarded Newton steps in log m; the shape (alpha, beta) by L-BFGS-B on
the profile likelihood, whose gradient is exact at the fitted rate. Both
take log Z and the moments from windows of normalized series terms (the
distribution's kernel, without its support table), so a fit builds no
distribution.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np
from scipy import special as sc

from .distribution import _normalized_windows, _positive_real
from .special import (
    DomainError,
    NonConvergenceError,
    SeriesControl,
    mittag_leffler2,
)

__all__ = [
    "ParseError",
    "DegenerateDataError",
    "CountData",
    "FitResult",
    "load_counts",
    "log_likelihood",
    "fit_m",
    "fit_full",
]

M_FLOOR = 1e-8
SHAPE_BOX = (0.1, 10.0)  # search box for alpha and beta
_START_POINTS = 5  # side of fit_full's start grid
_FTOL = 1e-15  # L-BFGS-B's tolerance on -ll: small, so the gradient ends the search
_GRAD_TOL = 1e-8  # on the gradient: per observation and relative to its observed part
# largest change of log m in one Newton step of fit_m, and its stop tolerance
_MAX_STEP = 2.0
_THETA_TOL = 1e-10
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_MAX_ITER = 200


class ParseError(ValueError):
    """Input text could not be parsed as count data."""


class DegenerateDataError(ValueError):
    """Data carries no information about the shape parameters."""


@dataclass(frozen=True)
class CountData:
    counts: np.ndarray
    n: int
    sum: int
    sum_sq: int

    @classmethod
    def from_counts(cls, counts) -> "CountData":
        arr = np.asarray(counts)
        if arr.dtype.kind == "f":
            # integral floats are accepted, as load_counts accepts "3.0"
            bad = arr[~np.isfinite(arr) | (arr != np.trunc(arr))]
            if bad.size:
                raise ParseError(f"{float(bad[0])!r} is not an integer count")
        arr = arr.astype(np.int64, copy=False)
        if arr.ndim != 1 or arr.size == 0:
            raise ParseError("need at least one observation")
        if np.any(arr < 0):
            raise ParseError("counts must be nonnegative")
        return cls(
            counts=arr,
            n=int(arr.size),
            sum=int(arr.sum()),
            sum_sq=int((arr * arr).sum()),
        )

    @property
    def mean(self) -> float:
        return self.sum / self.n

    @cached_property
    def histogram(self) -> tuple:
        """(distinct counts, how often each occurs), computed once."""
        return np.unique(self.counts, return_counts=True)


@dataclass(frozen=True)
class FitResult:
    alpha: float
    beta: float
    m: float
    log_likelihood: float
    iterations: int
    converged: bool
    profile: str  # "m_only" or "full"


def _parse_int(token: str, lineno: int) -> int:
    token = token.strip()
    try:
        val = int(token)
    except ValueError:
        try:
            f = float(token)
        except ValueError:
            raise ParseError(f"line {lineno}: {token!r} is not an integer") from None
        if not f.is_integer():
            raise ParseError(f"line {lineno}: {token!r} is not an integer") from None
        val = int(f)
    if val < 0:
        raise ParseError(f"line {lineno}: negative count {val}")
    return val


def load_counts(path: str, column: Optional[Union[str, int]] = None) -> CountData:
    """Read counts from plain text (one integer per line) or delimited
    text with a header; delimiter auto-detected among comma/tab."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lines = [ln for ln in text.splitlines()]
    stripped = [(i + 1, ln.strip()) for i, ln in enumerate(lines) if ln.strip()]
    if not stripped:
        raise ParseError("empty input")

    first = stripped[0][1]
    delim = None
    if "," in first:
        delim = ","
    elif "\t" in first:
        delim = "\t"

    if delim is None and column is None:
        counts = [_parse_int(tok, lineno) for lineno, tok in stripped]
        return CountData.from_counts(counts)

    if delim is None:
        delim = ","
    reader = csv.reader(io.StringIO(text), delimiter=delim)
    rows = [(i + 1, row) for i, row in enumerate(reader) if any(c.strip() for c in row)]
    header = [c.strip() for c in rows[0][1]]
    has_header = not all(_looks_numeric(c) for c in header)
    idx = 0
    if column is not None:
        if isinstance(column, int) or (isinstance(column, str) and column.isdigit()):
            idx = int(column)
        elif has_header:
            if column not in header:
                raise ParseError(f"column {column!r} not found in header {header}")
            idx = header.index(column)
        else:
            raise ParseError(f"column {column!r} requested but file has no header")
    data_rows = rows[1:] if has_header else rows
    if not data_rows:
        raise ParseError("empty input")
    counts = []
    for lineno, row in data_rows:
        if idx >= len(row):
            raise ParseError(f"line {lineno}: missing column {idx}")
        counts.append(_parse_int(row[idx], lineno))
    return CountData.from_counts(counts)


def _looks_numeric(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _log_likelihood(
    data: CountData, alpha: float, beta: float, log_m: float, log_z: float
) -> float:
    """sum_i log pmf(r_i) = sum(r) log m - sum_i ln Gamma(alpha r_i + beta)
    - n log Z, over the unique observed counts."""
    uniq, wts = data.histogram
    gam = float(np.dot(wts, sc.gammaln(alpha * uniq + beta)))
    return data.sum * log_m - gam - data.n * log_z


def log_likelihood(
    data: CountData,
    alpha: float,
    beta: float,
    m: float,
    ctrl: Optional[SeriesControl] = None,
) -> float:
    """sum_i log pmf(r_i), via sufficient statistics and the unique
    observed counts."""
    if ctrl is None:
        ctrl = SeriesControl()
    alpha = _positive_real("alpha", alpha)
    beta = _positive_real("beta", beta)
    m = _positive_real("m", m)
    norm = mittag_leffler2(alpha, beta, m, ctrl)
    return _log_likelihood(data, alpha, beta, math.log(m), norm.log_value)


def fit_m(
    data: CountData,
    alpha: float,
    beta: float,
    ctrl: Optional[SeriesControl] = None,
) -> FitResult:
    """Maximize the likelihood over m alone, alpha and beta held fixed.

    In theta = log m the law is an exponential family in sum(r), so the
    MLE is the one root of log E[X] = log(mean), whose slope in theta is
    Var[X] / E[X] > 0. Each Newton step in theta takes log Z, E[X] and
    Var[X] from one window of normalized series terms at m = e^theta, and
    the log-likelihood at m-hat comes from one more; each step is capped
    at _MAX_STEP and narrows a bracket of the root, and a step out of the
    bracket becomes a bisection. A root below M_FLOOR (or an all-zero
    sample) gives M_FLOOR, unconverged. ``iterations`` counts the steps.
    """
    if ctrl is None:
        ctrl = SeriesControl()
    if data.n < 1:
        raise DomainError("need at least one observation")
    alpha = _positive_real("alpha", alpha)
    beta = _positive_real("beta", beta)

    def window(theta):
        return next(_normalized_windows(alpha, beta, theta, ctrl))

    floor = math.log(M_FLOOR)
    m_hat, converged, iters = M_FLOOR, False, 0  # an all-zero sample
    if data.sum:
        target = math.log(data.mean)
        # start where the terms m^r / Gamma(alpha r + beta) peak at r = mean
        theta = max(alpha * float(sc.digamma(alpha * data.mean + beta)), floor)
        lo, hi = -math.inf, math.inf
        for iters in range(1, _MAX_ITER + 1):
            if theta > _LOG_FLOAT_MAX:
                raise NonConvergenceError("the rate matching the sample mean overflows")
            pmf = window(theta)[1]
            r = np.arange(pmf.size)
            mean = float(r @ pmf)
            var = float((r - mean) ** 2 @ pmf)
            gap = target - math.log(mean) if mean > 0.0 else math.inf
            if gap <= 0.0 and theta <= floor:
                break  # the root lies below the floor
            if gap > 0.0:
                lo = theta
            else:
                hi = theta
            step = gap * mean / var if var > 0.0 else math.copysign(_MAX_STEP, gap)
            nxt = theta + min(max(step, -_MAX_STEP), _MAX_STEP)
            if not lo <= nxt <= hi:
                nxt = 0.5 * (lo + hi)
            nxt = max(nxt, floor)
            done = abs(nxt - theta) <= _THETA_TOL or hi - lo <= _THETA_TOL
            theta = nxt
            if done:
                m_hat, converged = math.exp(theta), True
                break
        else:
            raise NonConvergenceError(f"rate fit took more than {_MAX_ITER} steps")
    log_m = math.log(m_hat)
    return FitResult(
        alpha=alpha,
        beta=beta,
        m=float(m_hat),
        log_likelihood=_log_likelihood(data, alpha, beta, log_m, window(log_m)[0]),
        iterations=iters,
        converged=converged,
        profile="m_only",
    )


def fit_full(data: CountData, ctrl: Optional[SeriesControl] = None) -> FitResult:
    """Maximize over (alpha, beta, m) by L-BFGS-B on the profile likelihood
    in (log alpha, log beta) from the best point of a log grid on SHAPE_BOX,
    whose centre (1, 1) is the classical fit. As dl/dm = 0 at m-hat,
    dl/dalpha = n E[X psi(aX+b)] - sum_i r_i psi(a r_i+b) and dl/dbeta =
    n E[psi(aX+b)] - sum_i psi(a r_i+b). Returns the best point evaluated,
    ``converged`` if its projected gradient is within _GRAD_TOL."""
    from scipy import optimize  # imported here: it adds 0.3 s to every cli start

    if ctrl is None:
        ctrl = SeriesControl()
    if np.all(data.counts == data.counts[0]):
        raise DegenerateDataError("all counts equal: shape parameters unidentified")

    uniq, wts = data.histogram
    lo, hi = math.log(SHAPE_BOX[0]), math.log(SHAPE_BOX[1])
    best = None  # (key, FitResult, x, gradient of ll in x, its observed part)
    total_iters = 0

    def negative_profile(x):
        nonlocal best, total_iters
        alpha, beta = math.exp(x[0]), math.exp(x[1])
        res = fit_m(data, alpha, beta, ctrl)
        total_iters += res.iterations
        pmf = next(_normalized_windows(alpha, beta, math.log(res.m), ctrl))[1]
        r = np.arange(pmf.size)
        psi = sc.digamma(alpha * r + beta)
        psi_obs = wts * sc.digamma(alpha * uniq + beta)
        observed = np.array([alpha * uniq @ psi_obs, beta * psi_obs.sum()])
        grad = data.n * np.array([alpha * (r * psi) @ pmf, beta * psi @ pmf]) - observed
        # deterministic tie-break: highest ll, then smallest params
        key = (res.log_likelihood, -res.alpha, -res.beta, -res.m)
        if best is None or key > best[0]:
            best = (key, res, np.array(x, dtype=float), grad, observed)
        # per observation, so that the first step (the gradient itself) is short
        return -res.log_likelihood / data.n, -grad / data.n

    for x in itertools.product(np.linspace(lo, hi, _START_POINTS), repeat=2):
        try:
            negative_profile(x)
        except NonConvergenceError:
            continue
    if best is None:
        raise NonConvergenceError("no grid point converged")
    try:
        optimize.minimize(
            negative_profile, best[2], jac=True, method="L-BFGS-B",
            bounds=[(lo, hi)] * 2, options={"ftol": _FTOL, "gtol": _GRAD_TOL},
        )
    except NonConvergenceError:
        pass  # the search ends; the gradient at the best point decides convergence
    _, res, x, grad, observed = best
    # a component pointing out of the box at a bound does not count
    grad[((x <= lo) & (grad < 0.0)) | ((x >= hi) & (grad > 0.0))] = 0.0
    tol = _GRAD_TOL * (data.n + abs(observed))
    converged = res.converged and bool(np.all(abs(grad) <= tol))
    return FitResult(
        alpha=res.alpha,
        beta=res.beta,
        m=res.m,
        log_likelihood=res.log_likelihood,
        iterations=total_iters,
        converged=converged,
        profile="full",
    )
