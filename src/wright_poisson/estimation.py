"""Maximum-likelihood fitting of the Wright-type Poisson distribution to
observed counts, plus delimited-text ingestion.

The rate m is fitted from the score equation E[X] = sample mean, by
safeguarded Halley steps in log m from a start at the mean; the shape
(alpha, beta) by L-BFGS-B on the profile likelihood, whose gradient is
exact at the fitted rate. Both take log Z, the log-terms and their
weights from windows of series terms (the distribution's kernel, without
its support table), so a fit builds no distribution: the rate fit takes
the first three cumulants from the weights, with one exponential pass per
step, and reads its log-likelihood off the last window's log-terms.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .distribution import _window
from .special import (
    DomainError,
    NonConvergenceError,
    SeriesControl,
    _DEFAULT_CTRL,
    _LOG_FLOAT_MAX,
    _control,
    _positive_real,
    mittag_leffler2,
    sc,
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
# largest change of log m in one step of fit_m, and its stop tolerance
_MAX_STEP = 2.0
_THETA_TOL = 1e-10
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

    @classmethod
    def from_counts(cls, counts) -> "CountData":
        arr = np.asarray(counts)
        if arr.ndim != 1:
            raise ParseError(f"counts must be one-dimensional, got shape {arr.shape}")
        if arr.size == 0:
            raise ParseError("need at least one observation")
        kind = arr.dtype.kind
        if kind == "f":
            # integral floats are accepted, as load_counts accepts "3.0"; in
            # float64, where 2**63 below does not overflow
            arr = arr.astype(float, copy=False)
            bad = arr[~np.isfinite(arr) | (arr != np.trunc(arr))]
            if bad.size:
                raise ParseError(f"{float(bad[0])!r} is not an integer count")
        elif kind == "O":
            bad = [
                x for x in arr.tolist()
                if not (isinstance(x, numbers.Integral) or isinstance(x, float) and x.is_integer())
            ]
            if bad:
                raise ParseError(f"{bad[0]!r} is not an integer count")
        elif kind not in "biu":  # complex, text, dates: every element is of the wrong type
            raise ParseError(f"{arr[0].item()!r} is not an integer count")
        if kind in "fuO":
            # numpy holds an int past int64 as uint64, float or object, and
            # converting it would wrap or raise a bare OverflowError
            big = arr[np.asarray(abs(arr) >= 2**63, dtype=bool)]
            if big.size:
                raise ParseError(f"count {big[0]} does not fit in a 64-bit integer")
        arr = arr.astype(np.int64, copy=False)
        if arr.min() < 0:
            raise ParseError("counts must be nonnegative")
        top = int(arr.max())
        if arr.size * top < 2**63:
            total = int(arr.sum())
        else:  # an int64 sum would wrap
            total = sum(arr.tolist())
        data = cls(counts=arr, n=int(arr.size), sum=total)
        data.__dict__["max_count"] = top  # max_count's cache, as cached_property keeps it
        return data

    @property
    def mean(self) -> float:
        return self.sum / self.n

    @cached_property
    def histogram(self) -> tuple:
        """(distinct counts, how often each occurs), computed once."""
        return np.unique(self.counts, return_counts=True)

    @cached_property
    def max_count(self) -> int:
        """The largest count, computed once."""
        return int(self.counts.max())

    @cached_property
    def frequencies(self) -> np.ndarray:
        """How often each of 0..max_count occurs, computed once."""
        return np.bincount(self.counts)


@dataclass(frozen=True)
class FitResult:
    alpha: float
    beta: float
    m: float
    log_likelihood: float
    iterations: int
    converged: bool
    profile: str  # "m_only" or "full"


def _count_data(data) -> CountData:
    """data, which the fits and the log-likelihood take only as CountData."""
    if not isinstance(data, CountData):
        raise DomainError(f"data must be a CountData, got {type(data).__name__}")
    return data


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
    ctrl: SeriesControl = _DEFAULT_CTRL,
) -> float:
    """sum_i log pmf(r_i), via sufficient statistics and the unique
    observed counts."""
    data = _count_data(data)
    alpha = _positive_real("alpha", alpha)
    beta = _positive_real("beta", beta)
    m = _positive_real("m", m)
    norm = mittag_leffler2(alpha, beta, m, ctrl)
    return _log_likelihood(data, alpha, beta, math.log(m), norm.log_value)


def fit_m(
    data: CountData,
    alpha: float,
    beta: float,
    ctrl: SeriesControl = _DEFAULT_CTRL,
) -> FitResult:
    """Maximize the likelihood over m alone, alpha and beta held fixed.

    In theta = log m the law is an exponential family in sum(r), so the
    MLE is the one root of g = log E[X] - log(mean), whose derivatives in
    theta are g' = Var[X] / E[X] > 0 and g'' = k3 / E[X] - g'^2, k3 the
    third cumulant. The search starts at alpha psi(max(alpha mean - 1/2, 0)
    + beta), where the terms t_r = m^r / Gamma(alpha r + beta) peak
    1/(2 alpha) below r = mean; below a mean of 1 it starts no lower than
    where E[X] ~ t1 / t0, if there t2 / t1 < 1/2. Each step in theta takes
    E[X], Var[X] and k3 from the weights of one window of series terms at
    m = e^theta and is the Halley step -2 g g' / (2 g'^2 - g g''), or the
    Newton step -g / g' where that denominator is not above g'^2; it is
    capped at _MAX_STEP and narrows a bracket of the root, and a step out
    of the bracket becomes a bisection. A root below M_FLOOR (or an
    all-zero sample) gives M_FLOOR, unconverged. The log-likelihood is the
    counts' histogram times the log-terms of one more window, at m-hat,
    less n log Z, or, if the largest count lies past that window, the sum
    over the distinct counts. ``iterations`` counts the steps.
    """
    if _count_data(data).n < 1:
        raise DomainError("need at least one observation")
    alpha = _positive_real("alpha", alpha)
    beta = _positive_real("beta", beta)
    ctrl = _control(ctrl)

    floor = math.log(M_FLOOR)
    m_hat, converged, iters = M_FLOOR, False, 0  # an all-zero sample
    if data.sum:
        target = math.log(data.mean)
        # start at the mean, which lies about 1/(2 alpha) past the peak of
        # the terms m^r / Gamma(alpha r + beta)
        theta = alpha * float(sc.psi(max(alpha * data.mean - 0.5, 0.0) + beta))
        if data.mean < 1.0:
            # or no lower than where the first two terms give the mean,
            # E[X] ~ t1 / t0, if the third is below half the second there
            lg1 = float(sc.gammaln(alpha + beta))
            two_terms = target + lg1 - float(sc.gammaln(beta))
            if two_terms + lg1 - float(sc.gammaln(2.0 * alpha + beta)) < math.log(0.5):
                theta = max(theta, two_terms)
        theta = max(theta, floor)
        lo, hi = -math.inf, math.inf
        for iters in range(1, _MAX_ITER + 1):
            if theta > _LOG_FLOAT_MAX:
                raise NonConvergenceError("the rate matching the sample mean overflows")
            _, k, _, w, w_sum = _window(alpha, beta, theta, ctrl)
            mean = float(k @ w) / w_sum
            dev = k - mean
            dev_w = dev * w
            var = float(dev @ dev_w) / w_sum
            gap = target - math.log(mean) if mean > 0.0 else math.inf
            if gap <= 0.0 and theta <= floor:
                break  # the root lies below the floor
            if gap > 0.0:
                lo = theta
            else:
                hi = theta
            if var > 0.0:
                # g = -gap has slope g' = Var / E and curvature g'' = k3 / E - g'^2
                slope = var / mean
                curv = float((dev * dev) @ dev_w) / (w_sum * mean) - slope * slope
                den = 2.0 * slope * slope + gap * curv
                # where den <= g'^2 Halley would more than double the Newton step
                step = 2.0 * gap * slope / den if den > slope * slope else gap / slope
            else:
                step = math.copysign(_MAX_STEP, gap)
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
    log_z, _, lt, _, _ = _window(alpha, beta, log_m, ctrl)
    top = data.max_count
    if top < lt.size:  # sum h_r log pmf(r), h the counts' frequencies
        ll = float(data.frequencies @ lt[:top + 1]) - data.n * log_z
    else:
        ll = _log_likelihood(data, alpha, beta, log_m, log_z)
    return FitResult(
        alpha=alpha,
        beta=beta,
        m=float(m_hat),
        log_likelihood=ll,
        iterations=iters,
        converged=converged,
        profile="m_only",
    )


def fit_full(data: CountData, ctrl: SeriesControl = _DEFAULT_CTRL) -> FitResult:
    """Maximize over (alpha, beta, m) by L-BFGS-B on the profile likelihood
    in (log alpha, log beta) from the best point of a log grid on SHAPE_BOX,
    whose centre (1, 1) is the classical fit. As dl/dm = 0 at m-hat,
    dl/dalpha = n E[X psi(aX+b)] - sum_i r_i psi(a r_i+b) and dl/dbeta =
    n E[psi(aX+b)] - sum_i psi(a r_i+b). Returns the best point evaluated,
    ``converged`` if its projected gradient is within _GRAD_TOL."""
    uniq, wts = _count_data(data).histogram
    ctrl = _control(ctrl)
    if uniq.size == 1:
        raise DegenerateDataError("all counts equal: shape parameters unidentified")
    # imported here, not at module level: with the scipy.special package it
    # pulls in, it would add about 0.4 s to every cli start
    from scipy import optimize

    lo, hi = math.log(SHAPE_BOX[0]), math.log(SHAPE_BOX[1])
    best = None  # (key, FitResult, x, gradient of ll in x, its observed part)
    total_iters = 0

    def negative_profile(x):
        nonlocal best, total_iters
        alpha, beta = math.exp(x[0]), math.exp(x[1])
        res = fit_m(data, alpha, beta, ctrl)
        total_iters += res.iterations
        _, r, _, w, w_sum = _window(alpha, beta, math.log(res.m), ctrl)
        psi = sc.psi(alpha * r + beta)
        psi_obs = wts * sc.psi(alpha * uniq + beta)
        observed = np.array([alpha * uniq @ psi_obs, beta * psi_obs.sum()])
        # E[.] under the law w / sum w at m-hat
        grad = data.n / w_sum * np.array([alpha * (r * psi) @ w, beta * psi @ w]) - observed
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
