"""Scalar special functions: gamma helpers, generalized Wright series,
and the Mittag-Leffler family.

Every series goes through one numpy evaluator that sums a block of
log-space terms scaled by their peak, so very large normalizers stay
representable through their logarithm even when the linear value would
overflow. Terms whose lower gamma argument sits on a pole of the gamma
function contribute exactly zero.

The Mittag-Leffler terms z^k / Gamma(alpha k + beta) with z > 0 and
beta > 0 are log-concave in k, since ln Gamma is convex on (0, inf).
``_term_window`` sizes a window over them from the peak; the
distribution's normalizer is one such window.

One argument rule serves the whole package, and this module owns it: a
real argument must be a ``numbers.Real`` (int, float, Fraction, a numpy
scalar), or a DomainError names it. A str, None, complex, Decimal or 0-d
array is not one, although float() would take some of them. ``_as_float``
states the rule, ``_finite`` adds finiteness and ``_positive_real`` the
model parameters' x > 0; ``_control`` takes a ``ctrl`` only as a
SeriesControl. The distribution and the fits import them.

The gamma ufuncs come from scipy's compiled ``_special_ufuncs`` module,
loaded by file without importing the ``scipy`` package, with
``scipy.special`` as the fallback (see ``_load_ufuncs``).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _load_ufuncs():
    """The compiled module that holds the gamma ufuncs this package calls
    (gammaln, psi, gammasgn, xlogy), loaded by its path without importing
    scipy.special, most of which is its array-API layer, or even the scipy
    package. The module goes into sys.modules under its own name, so a
    later ``from scipy import special`` reuses it and hands out the same
    ufunc objects. Should this fail in any way (scipy moved the file, say),
    the entry is removed again and scipy.special itself is returned."""
    name = "scipy.special._special_ufuncs"
    if name in sys.modules:
        return sys.modules[name]
    try:
        # find_spec locates a top-level package without importing it
        root = importlib.util.find_spec("scipy").submodule_search_locations[0]
        stem = os.path.join(root, "special", "_special_ufuncs")
        path = next(stem + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                    if os.path.isfile(stem + suffix))
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
        return module
    except Exception:
        sys.modules.pop(name, None)
        from scipy import special

        return special


sc = _load_ufuncs()

__all__ = [
    "DomainError",
    "exp_saturating",
    "NonConvergenceError",
    "SeriesDivergenceWarning",
    "WrightSpec",
    "SeriesControl",
    "SeriesResult",
    "log_gamma",
    "wright_convergence_index",
    "wright_term",
    "wright_series",
    "mittag_leffler",
    "mittag_leffler2",
    "mittag_leffler3",
]

# absolute tolerance for snapping a gamma argument onto a pole
_POLE_ATOL = 1e-12

# terms in the first block of a series; each further block doubles it
_FIRST_BLOCK = 32
# a series sums at least _MIN_TERMS terms and stops at the first run of
# _CONSECUTIVE_SMALL terms that are each below rel_tol of the partial sum
_MIN_TERMS = 8
_CONSECUTIVE_SMALL = 3
# largest peak argument and window end _term_window works with: no window
# near it fits in memory
_PEAK_ARG_CAP = 1e300


class DomainError(ValueError):
    """Argument outside the supported domain."""


class NonConvergenceError(RuntimeError):
    """Series truncation criterion not met within max_terms."""


class SeriesDivergenceWarning(UserWarning):
    """Convergence index at or below the standard -1 boundary."""


# log of the largest float: exp of anything above it overflows
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def exp_saturating(x: float) -> float:
    """exp(x) that returns inf instead of raising OverflowError."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


# float and int match by exact type, 20 times faster than the ABC alone
_REAL = (float, int, numbers.Real)
_INTEGRAL = (int, numbers.Integral)


def _integer_at_least(name: str, x, low: int) -> int:
    """x as an int; a count, a seed, a term budget or a term index must be
    an integer >= low."""
    if not (isinstance(x, _INTEGRAL) and x >= low):
        raise DomainError(f"{name} must be an integer >= {low}, got {x!r}")
    return int(x)


def _as_float(name: str, x) -> float:
    """x as a float. A real argument must be a numbers.Real; anything else,
    and an integer too large for a float, is a DomainError naming x, not a
    bare TypeError or OverflowError."""
    if not isinstance(x, _REAL):
        raise DomainError(f"{name} must be a real number, got {type(x).__name__}")
    try:
        return float(x)
    except OverflowError:
        raise DomainError(f"{name} is beyond the float range") from None


def _finite(name: str, x) -> float:
    """x as a float; a series argument or a gamma weight must be finite."""
    x = _as_float(name, x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite")
    return x


def _positive_real(name: str, x) -> float:
    """x as a float; a model parameter must be a finite real number > 0."""
    x = _as_float(name, x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be > 0 and finite, got {x}")
    if not x > 0:
        raise DomainError(f"{name} must be > 0")
    return x


def _is_gamma_pole(x):
    """True where x (a float or an array) is a pole of the gamma function."""
    r = np.round(x)
    return (r <= 0) & (np.abs(x - r) <= _POLE_ATOL)


@dataclass(frozen=True)
class WrightSpec:
    """Parameters of a generalized Wright series: gamma-weight pairs for
    numerator and denominator, and the series argument."""

    upper: tuple  # ((a, alpha), ...)
    lower: tuple  # ((b, beta), ...)
    z: float

    def __init__(self, upper, lower, z):
        upper = tuple((_finite("upper a", a), _finite("upper alpha", al)) for a, al in upper)
        lower = tuple((_finite("lower b", b), _finite("lower beta", be)) for b, be in lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "z", _finite("z", z))


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy shared by every series in the package."""

    rel_tol: float = 1e-15
    max_terms: int = 10000

    def __post_init__(self):
        if not (0.0 < _as_float("rel_tol", self.rel_tol) < 1.0):
            raise DomainError("rel_tol must be in (0, 1)")
        _integer_at_least("max_terms", self.max_terms, _MIN_TERMS)


# what a caller passing no control gets; frozen, so one instance serves all
_DEFAULT_CTRL = SeriesControl()


def _control(ctrl) -> SeriesControl:
    """ctrl as given; a truncation policy must be a SeriesControl."""
    if not isinstance(ctrl, SeriesControl):
        raise DomainError(f"ctrl must be a SeriesControl, got {type(ctrl).__name__}")
    return ctrl


@dataclass(frozen=True)
class SeriesResult:
    """A summed series and the terms it took. ``converged`` is True on every
    result returned: a series that misses its stop rule within max_terms
    raises NonConvergenceError instead."""

    value: float
    log_value: float  # nan when value <= 0
    terms_used: int
    converged: bool


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    x = _as_float("x", x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires finite x > 0, got {x}")
    return float(sc.gammaln(x))


def wright_convergence_index(spec: WrightSpec) -> float:
    """Sum of lower weights minus sum of upper weights; the series is
    entire when this exceeds the standard -1 boundary."""
    return sum(w for _, w in spec.lower) - sum(w for _, w in spec.upper)


def _power(z: float, k: np.ndarray):
    """log|z^k| and the sign of z^k over the indices k, with 0^0 = 1."""
    sign = np.where(k % 2 == 1, -1.0, 1.0) if z < 0.0 else 1.0
    return sc.xlogy(k, abs(z)), sign


def _lower_gamma(logmag, sign, arg):
    """Divide the terms by Gamma(arg). Gamma is positive and finite for
    arg > 0; at and below 0 it takes signs, and its poles kill terms."""
    logmag = logmag - sc.gammaln(arg)
    if arg.min() <= _POLE_ATOL:
        pole = _is_gamma_pole(arg)
        logmag = np.where(pole, -np.inf, logmag)
        sign = sign * np.where(pole, 1.0, sc.gammasgn(arg))
    return logmag, sign


def _wright_log_terms(spec: WrightSpec, k: np.ndarray):
    """Log-magnitudes and signs of the terms k; sign nan marks a term
    whose upper gamma argument sits on a pole."""
    upper_sum = 0.0
    sign = 1.0
    upper_pole = False
    for a, al in spec.upper:
        arg = a + al * k
        upper_pole = upper_pole | _is_gamma_pole(arg)
        upper_sum = upper_sum + sc.gammaln(arg)
        sign = sign * sc.gammasgn(arg)
    logz, zsign = _power(spec.z, k)
    with np.errstate(invalid="ignore"):
        # subtract the k! log right after the upper sum: for the common
        # (1, 1) upper row the two cancel exactly, term by term
        logmag = np.where(upper_pole, -np.inf, upper_sum - sc.gammaln(k + 1) + logz)
    # a term that z^k = 0 kills is 0 whatever its upper gammas are
    sign = np.where(logz > -np.inf, np.where(upper_pole, np.nan, sign * zsign), 0.0)
    for b, be in spec.lower:
        logmag, sign = _lower_gamma(logmag, sign, b + be * k)
    return logmag, sign


def wright_term(spec: WrightSpec, k: int) -> float:
    """Single series term; exactly 0.0 when a lower gamma pole kills it.
    Raises DomainError on an upper-gamma pole."""
    index = _as_float("k", _integer_at_least("k", k, 0))
    logmag, sign = _wright_log_terms(spec, np.array([index]))
    if np.isnan(sign[0]):
        raise DomainError(f"upper gamma argument hits a pole at term k={k}")
    return 0.0 if logmag[0] == -np.inf else float(sign[0] * np.exp(logmag[0]))


def _term_window(alpha: float, beta: float, log_z: float, drop: float) -> float:
    """End K of a window [0, K) past which the log-concave terms
    z^k / Gamma(alpha k + beta) (z > 0, beta > 0) lie about ``drop`` nats
    below their peak; an estimate, large rather than small.

    The peak argument x = alpha k + beta solves alpha psi(x) = log z, with
    psi(x) ~ log(x - 1/2). Past it the log-terms fall by
    x ((1 + u) log(1 + u) - u) at k = k* + u x / alpha, a convex function of
    u; one Newton step from the Gaussian guess sqrt(2 drop / x), which lies
    below its root, lands at or above the root. The spread of the terms is
    about sqrt(k* / alpha). When the terms fall from k = 0, each step falls
    at least as far as the first, which bounds the window too.
    """
    x = max(min(exp_saturating(log_z / alpha), _PEAK_ARG_CAP) + 0.5, beta, 1.0)
    u = math.sqrt(2.0 * drop / x)
    grow = math.log1p(u)
    u += (drop / x - ((1.0 + u) * grow - u)) / grow
    end = ((x - beta) + u * x) / alpha + 1.0
    try:
        first_fall = math.lgamma(alpha + beta) - math.lgamma(beta) - log_z
    except OverflowError:  # Gamma(alpha + beta) overflows: only k = 0 counts
        first_fall = math.inf
    if first_fall > 0.0:
        end = min(end, drop / first_fall + 1.0)
    return min(end, _PEAK_ARG_CAP)


def _sum_terms(log_terms: Callable, ctrl: SeriesControl) -> SeriesResult:
    """Sum sign * exp(logmag) over k in [0, K) for K = _FIRST_BLOCK,
    2 _FIRST_BLOCK, ... up to max_terms, until the consecutive-small stop
    rule holds.

    ``log_terms(k)`` maps an index array to (logmag, sign); a zero term
    has logmag -inf, and an undefined one also has sign nan. The small
    test compares logarithms, so terms far below the peak do not look
    small against a partial sum that underflowed.
    """
    log_tol = math.log(ctrl.rel_tol)
    first = _MIN_TERMS - 1
    size = _FIRST_BLOCK
    while True:
        size = min(size, ctrl.max_terms)
        k = np.arange(size, dtype=float)
        logmag, sign = log_terms(k)
        peak = float(logmag.max())
        if peak == -math.inf:
            peak = 0.0
        rel = logmag - peak
        # an undefined term makes this and every later partial sum nan,
        # and nan is never small
        acc = (sign * np.exp(rel)).cumsum()
        with np.errstate(divide="ignore"):
            small = rel <= log_tol + np.log(np.abs(acc))
        # length of the run of small terms that ends at each k
        run = k - np.maximum.accumulate(np.where(small, -1, k))
        stops = (run[first:] >= _CONSECUTIVE_SMALL).nonzero()[0]
        if stops.size:
            used = first + int(stops[0]) + 1
            total = float(acc[used - 1])
            log_abs = math.log(abs(total)) + peak if total else -math.inf
            # derive the linear value from the log so the two views agree
            # to the last ulp
            value = math.copysign(exp_saturating(log_abs), total)
            return SeriesResult(value, log_abs if total > 0.0 else math.nan, used, True)
        if np.isnan(acc[-1]):
            raise DomainError(f"series term k={int(np.argmax(np.isnan(acc)))} is undefined")
        if size == ctrl.max_terms:
            raise NonConvergenceError(
                f"series did not meet the stop criterion within {ctrl.max_terms} terms"
            )
        size *= 2


def wright_series(spec: WrightSpec, ctrl: SeriesControl = _DEFAULT_CTRL) -> SeriesResult:
    """Evaluate the generalized Wright series at spec.z."""
    ctrl = _control(ctrl)
    if wright_convergence_index(spec) <= -1.0:
        warnings.warn(
            "convergence index <= -1: series may diverge",
            SeriesDivergenceWarning,
            stacklevel=2,
        )
    return _sum_terms(lambda k: _wright_log_terms(spec, k), ctrl)


def mittag_leffler(
    alpha: float, z: float, ctrl: SeriesControl = _DEFAULT_CTRL
) -> SeriesResult:
    """One-parameter Mittag-Leffler: sum z^k / Gamma(1 + alpha k)."""
    if not (_finite("alpha", alpha) > 0.0):
        raise DomainError("mittag_leffler requires alpha > 0")
    return mittag_leffler2(alpha, 1.0, z, ctrl)


def mittag_leffler2(
    alpha: float, beta: float, z: float, ctrl: SeriesControl = _DEFAULT_CTRL
) -> SeriesResult:
    """Two-parameter Mittag-Leffler: sum z^k / Gamma(alpha k + beta).

    beta may be any finite real; pole terms vanish.
    """
    alpha = _finite("alpha", alpha)
    if not (alpha > 0.0):
        raise DomainError("mittag_leffler2 requires alpha > 0")
    beta, z, ctrl = _finite("beta", beta), _finite("z", z), _control(ctrl)
    return _sum_terms(lambda k: _lower_gamma(*_power(z, k), alpha * k + beta), ctrl)


def mittag_leffler3(
    alpha: float,
    beta: float,
    gamma: float,
    z: float,
    ctrl: SeriesControl = _DEFAULT_CTRL,
) -> SeriesResult:
    """Three-parameter (Prabhakar) Mittag-Leffler:
    sum (gamma)_k z^k / (Gamma(alpha k + beta) k!)."""
    alpha = _finite("alpha", alpha)
    if not (alpha > 0.0):
        raise DomainError("mittag_leffler3 requires alpha > 0")
    beta, gamma, z = _finite("beta", beta), _finite("gamma", gamma), _finite("z", z)
    ctrl = _control(ctrl)

    def terms(k):
        # log|(gamma)_k / k!| and its sign as a product of the ratios
        # (gamma+i)/(1+i), so the weight is exactly 0 in log space when
        # gamma = 1, and a zero factor kills every later term
        f = (gamma + k[:-1]) / (1.0 + k[:-1])
        with np.errstate(divide="ignore"):
            logw = np.concatenate(([0.0], np.cumsum(np.log(np.abs(f)))))
        wsign = np.concatenate(([1.0], np.cumprod(np.sign(f))))
        logz, zsign = _power(z, k)
        return _lower_gamma(logw + logz, wsign * zsign, alpha * k + beta)

    return _sum_terms(terms, ctrl)
