"""Wright-type Poisson distribution.

pmf(r) = m^r / (Gamma(alpha r + beta) * Z) with normalizer
Z = sum_k m^k / Gamma(alpha k + beta), the two-parameter Mittag-Leffler
series at m (equivalently a 1Psi1 Wright series). alpha = beta = 1
recovers the classical Poisson law.

Construction evaluates the log-terms k log m - ln Gamma(alpha k + beta)
once, over a window [0, K) sized once from their peak, and takes both log Z
(their log-sum-exp) and the log-pmf/pmf/cdf table (the same array,
normalized) from it. The terms are log-concave, so their ratios fall, and the
terms past any point sum to at most a geometric series in the last ratio
before it. One formula states that bound: a window where it puts the mass
past the window above rel_tol raises NonConvergenceError, and the table ends
at the first point past the bulk where it puts the mass past it below
_TAIL_ATOL (or raises if that point is not inside the window).
The windows come from one kernel, ``_window``, which returns log Z, the
log-terms and their peak-scaled weights; the table, mgf (at log rate
t + log m, so e^t m is never formed) and the rate fit each use one window.
The distribution keeps the whole window: the log-pmf (as a list of Python
floats) and the pmf over [0, K). The cdf, quantile, sample and support_pmf
end at the table's end R, inside the window. log_pmf and pmf read the log-pmf list below K, and cdf and quantile
read the cdf as a list, which they index or bisect without numpy's
per-call cost, checking an int r or a float p by its exact type first;
support_pmf copies the pmf array up to R. sample inverts the cdf through a
guide table, built on its first call, whose buckets give each draw's index
by one lookup and one comparison; only draws in buckets of two or more cdf
points are searched. Only log_pmf, pmf and expectation past the window
evaluate the log-terms: the first two by the scalar formula, expectation in
chunks from K. Every pmf value is the exponential of its own log-pmf, so
none depends on pmf(0), which underflows for large m.

Moments come in three flavors each: a brute-force series over the table's
pmf, and two closed forms (Wright-series differences, and shifted
Mittag-Leffler combinations) whose numerators are series of their own,
each summed at most once per distribution and divided by Z
(log_normalizer) in log space. The closed-form "second moment" routines
return the raw E[X^2]; variance is derived as E[X^2] - mean^2.
"""

from __future__ import annotations

import bisect
import math
import sys
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .special import (
    DomainError,
    _as_float,
    _control,
    _finite,
    _positive_real,
    exp_saturating,
    NonConvergenceError,
    SeriesControl,
    SeriesResult,
    WrightSpec,
    _DEFAULT_CTRL,
    _LOG_FLOAT_MAX,
    _integer_at_least,
    _term_window,
    mittag_leffler2,
    sc,
    wright_series,
)

__all__ = [
    "WrightPoisson",
    "MomentReport",
    "SampleBatch",
    "new_wright_poisson",
]

# the support table holds cumulative mass 1 - _MASS_TOL, and ends where the
# tail bound puts the mass past it below _TAIL_ATOL
_MASS_TOL = 1e-13
_TAIL_ATOL = 1e-15
# expectation stops once its last _LOOKAHEAD contributions are negligible;
# a window not cut at max_terms reaches _LOOKAHEAD terms past the depth the
# table's end rule needs, so log_pmf, pmf and expectation read the terms
# just past the table's end from the window
_LOOKAHEAD = 16
# a kernel window reaches _WINDOW_MARGIN nats below _TAIL_ATOL / _LOOKAHEAD
# of the peak, and _LOOKAHEAD terms further (see _window)
_WINDOW_MARGIN = 3.0
# sample's guide table has _GUIDE_PER_POINT buckets per support point, and
# at least _GUIDE_MIN, rounded up to a power of two; at 16 bytes a bucket
# that is 64 KB up to 256 points. Only a draw in a bucket that holds two or
# more cdf points is searched: the end buckets, where the tails crowd, and
# a few others
_GUIDE_PER_POINT = 16
_GUIDE_MIN = 4096


@dataclass(frozen=True)
class MomentReport:
    mean_series: float
    mean_closed_i: float
    mean_closed_ii: float
    m2_series: float
    m2_closed_i: float
    m2_closed_ii: float
    variance: float
    max_method_spread: float


@dataclass(frozen=True)
class SampleBatch:
    values: np.ndarray  # nonneg integers
    seed: int
    n: int


def _ratio(num: SeriesResult, log_den: float) -> float:
    """num / exp(log_den), in log space when num is positive (its log_value
    is not nan), so a huge or tiny normalizer cancels before exponentiation."""
    if not math.isnan(num.log_value):
        return exp_saturating(num.log_value - log_den)
    return num.value / exp_saturating(log_den)


def _log_terms(alpha: float, beta: float, log_m: float, r: np.ndarray) -> np.ndarray:
    """log(m^r / Gamma(alpha r + beta)) at an ascending array of integers r.

    Where alpha r + beta or r log m passes the float range, the term lies
    below every float and its log is -inf; numpy warns at such an overflow,
    so an array whose last r reaches one is evaluated with the warning off.
    ln Gamma(x) is below x log(DBL_MAX) for x >= 1 (and below 745 under 1),
    so the one check at the last r bounds the difference too."""
    last = r.item(-1)
    if (alpha * last + beta) * _LOG_FLOAT_MAX - last * log_m < math.inf:
        return r * log_m - sc.gammaln(alpha * r + beta)
    with np.errstate(over="ignore"):
        return r * log_m - sc.gammaln(alpha * r + beta)


def _mass_floor(log_z: float) -> float:
    """Cumulative mass that marks the bulk as summed. One ulp of log Z is
    the relative error of every pmf value, and so of their total."""
    return 1.0 - _MASS_TOL - math.ulp(log_z)


def _log_geometric_sum(lt_first, log_rho, xp=math):
    """log of t / (1 - rho), with t = e^lt_first and rho = e^log_rho < 1: a
    bound on t plus every term after it when each term is at most rho times
    the one before. Log-concave terms have falling ratios, so the ratio of
    any two neighbours at or before t serves as rho. xp is math for floats,
    numpy for arrays."""
    return lt_first - xp.log(-xp.expm1(log_rho))


def _log_tail(lt: np.ndarray) -> float:
    """log of a bound on the sum of the terms past the window's log-terms
    lt: the geometric sum from t[K] <= t[K-1] rho, rho = t[K-1] / t[K-2]."""
    if lt[-1] == -math.inf:
        return -math.inf  # Gamma overflowed, here and at every later term
    log_rho = float(lt[-1] - lt[-2]) if lt.size > 1 else 0.0
    if log_rho >= 0.0:
        return math.inf
    return _log_geometric_sum(float(lt[-1]) + log_rho, log_rho)


def _table_end(lt: np.ndarray, cdf: np.ndarray, log_z: float) -> Optional[int]:
    """Length R + 1 of the table over 0..R, where R is the first r whose cdf
    reaches the mass floor and past which the terms sum to below _TAIL_ATOL Z
    by the geometric sum from t[r+1], rho = t[r+1] / t[r]; None if no such r
    has t[r+1] among the window's log-terms lt."""
    start = int(np.searchsorted(cdf, _mass_floor(log_z)))
    after = lt[start:]
    # rho >= 1 bounds nothing: its sum is inf or nan, never below the tolerance
    with np.errstate(divide="ignore", invalid="ignore"):
        log_tails = _log_geometric_sum(after[1:], np.diff(after), np)
    ends = np.flatnonzero(log_tails - log_z < math.log(_TAIL_ATOL))
    return start + int(ends[0]) + 1 if ends.size else None


def _window(alpha: float, beta: float, log_m: float, ctrl: SeriesControl):
    """The window [0, K) of the log-terms, sized once from their peak so
    that the tail bound and the table's end rule hold inside it, and capped
    at max_terms. A window whose terms past K may sum to more than rel_tol Z
    by the tail bound raises NonConvergenceError naming the terms needed.

    Returns (log Z, k, lt, w, sum w): the indices k as floats, the
    log-terms lt at k, and the weights w = exp(lt - peak) whose sum gives
    log Z, so that w / sum w is the law at rate e^log_m.
    """
    log_tol = math.log(ctrl.rel_tol)
    # deeper and longer than the tail bound and the table's end rule need:
    # log Z sums every term in the window, so its depth and length fix the
    # last bits of log Z, and so of the table, mgf and every fit, and a
    # window cut to the bare need moves log Z by up to a few hundred ulps
    drop = max(-log_tol, -math.log(_TAIL_ATOL / _LOOKAHEAD)) + _WINDOW_MARGIN
    need = _term_window(alpha, beta, log_m, drop) + _LOOKAHEAD
    k = np.arange(math.ceil(min(need, ctrl.max_terms)), dtype=float)
    lt = _log_terms(alpha, beta, log_m, k)
    peak = float(lt.max())
    if peak == -math.inf:  # Gamma(beta) overflows, and so does every term
        raise DomainError("normalizer is not positive and finite")
    w = np.exp(lt - peak)
    w_sum = float(w.sum())
    log_z = peak + math.log(w_sum)
    if _log_tail(lt) - log_z > log_tol:
        raise NonConvergenceError(
            f"the normalizer needs about {math.ceil(need):.3g} terms,"
            f" more than max_terms = {ctrl.max_terms}"
        )
    return log_z, k, lt, w, w_sum


@dataclass(frozen=True)
class WrightPoisson:
    """Validated parameters, the log-normalizer, and the log-pmf and pmf
    over the window [0, K) that sums it; the cdf over the support table
    [0, R), R < K. The log-pmf and the cdf also as lists of Python floats,
    for the scalar queries.

    Immutable; build through :func:`new_wright_poisson`.
    """

    alpha: float
    beta: float
    m: float
    log_normalizer: float
    ctrl: SeriesControl
    _pmf: np.ndarray = field(repr=False, compare=False)
    _cdf: np.ndarray = field(repr=False, compare=False)
    _log_pmf_list: list = field(repr=False, compare=False)
    _cdf_list: list = field(repr=False, compare=False)

    # -- pmf / cdf ----------------------------------------------------

    def log_pmf(self, r: int) -> float:
        """Read from the window; past it, evaluated from the log-term."""
        if not (type(r) is int and r >= 0):
            try:
                # nan fails the sign test; inf % 1 is nan; a str, None or
                # complex r fails the comparison itself
                if not (r >= 0 and r % 1 == 0):
                    raise TypeError
            except TypeError:
                raise DomainError(f"r must be a nonnegative integer, got {r!r}") from None
            r = int(r)
        window = self._log_pmf_list
        if r < len(window):
            return window[r]
        if r > sys.float_info.max:  # no float holds r, and its term underflows
            return -math.inf
        # in Python floats inf - inf is a quiet nan: r log m and
        # ln Gamma(alpha r + beta) overflow, far past the peak
        log_p = r * math.log(self.m) - float(sc.gammaln(self.alpha * r + self.beta))
        log_p -= self.log_normalizer
        return -math.inf if math.isnan(log_p) else log_p

    def pmf(self, r: int) -> float:
        return math.exp(self.log_pmf(r))

    def pmf_recurrence_step(self, r: int, pmf_r: float) -> float:
        """pmf(r+1) from pmf(r): multiply by m*Gamma(ar+b)/Gamma(ar+a+b).

        Gamma arguments use the same expression as log_pmf so that
        chained steps telescope against the direct evaluation.
        """
        a, b = self.alpha, self.beta
        if not (type(r) is int and r >= 0):  # exact type first: a chained walk calls this
            r = _integer_at_least("r", r, 0)
        r, pmf_r = _as_float("r", r), _as_float("pmf_r", pmf_r)
        # difference first: the two lgamma values are large and close,
        # and their rounding errors telescope across chained steps
        dlg = float(sc.gammaln(a * r + b)) - float(sc.gammaln(a * (r + 1) + b))
        return math.exp(dlg + math.log(self.m)) * pmf_r

    def cdf(self, r: int) -> float:
        """P(X <= r); past the end of the support table, its total mass."""
        if not (type(r) is int and r >= 0):
            try:
                # nan fails the sign test; an int too large for a float is
                # finite; a str, None or complex r fails the comparison itself
                if not (r >= 0 and r != math.inf):
                    raise TypeError
            except TypeError:
                raise DomainError(f"r must be finite and nonnegative, got {r!r}") from None
            r = int(r)
        cdf = self._cdf_list
        return cdf[r] if r < len(cdf) else cdf[-1]

    def quantile(self, p: float) -> int:
        if not (type(p) is float and 0.0 <= p < 1.0):
            try:
                # a str, None or complex p fails the comparison itself
                if not (0.0 <= p < 1.0):
                    raise TypeError
            except TypeError:
                raise DomainError("quantile requires p in [0, 1)") from None
        cdf = self._cdf_list
        r = bisect.bisect_left(cdf, p)
        if r == len(cdf):
            raise NonConvergenceError(f"p = {p} lies above the tabulated mass {cdf[-1]!r}")
        return r

    # -- support table ------------------------------------------------

    def support_pmf(self) -> np.ndarray:
        """pmf values 0..R, where R is the table's end: the first r whose cdf
        reaches 1 - _MASS_TOL (less an ulp of log Z) and past which the tail
        bound puts less than _TAIL_ATOL of the mass."""
        return self._pmf[: self._cdf.size].copy()

    def expectation(self, weight: Callable[[int], float]) -> float:
        """sum_r weight(r) * pmf(r), stopped once the cumulative mass is
        complete and the last window of contributions is negligible.

        The pmf is read from the window and doubled past its end.
        The window guard matters for growing weights like e^{tr}: the
        sum continues well past the mass cutoff until the weighted
        contributions themselves die out.
        """
        floor = _mass_floor(self.log_normalizer)
        pmf = self._pmf
        partial = 0.0
        mass = 0.0
        window: deque = deque(maxlen=_LOOKAHEAD)
        for r in range(self.ctrl.max_terms + 1):
            if r == pmf.size:  # past the window: evaluate the next r terms
                lt = _log_terms(self.alpha, self.beta, math.log(self.m), np.arange(r, 2 * r))
                pmf = np.append(pmf, np.exp(lt - self.log_normalizer))
            p = float(pmf[r])
            c = weight(r) * p
            partial += c
            mass += p
            window.append(abs(c))
            if (
                r >= _LOOKAHEAD
                and mass >= floor
                and sum(window) <= self.ctrl.rel_tol * max(abs(partial), 1.0)
            ):
                return partial
        raise NonConvergenceError("moment series exceeded max_terms")

    # -- moments ------------------------------------------------------

    def mean_series(self) -> float:
        return self.expectation(lambda r: float(r))

    def second_moment_series(self) -> float:
        return self.expectation(lambda r: float(r) * r)

    # each closed-form numerator is summed at most once per distribution
    # and kept as its ratio to Z

    @cached_property
    def _psi21(self) -> float:
        """Psi[(2,1)] / Z."""
        num = wright_series(
            WrightSpec([(2.0, 1.0)], [(self.beta, self.alpha)], self.m), self.ctrl
        )
        return _ratio(num, self.log_normalizer)

    @cached_property
    def _psi22(self) -> float:
        """2Psi2[(1,1), (1,1); (-1,1), (b,a)] / Z, whose k = 0, 1 terms
        vanish at gamma poles by construction."""
        num = wright_series(
            WrightSpec([(1.0, 1.0), (1.0, 1.0)], [(-1.0, 1.0), (self.beta, self.alpha)], self.m),
            self.ctrl,
        )
        return _ratio(num, self.log_normalizer)

    @cached_property
    def _ml_beta_1(self) -> float:
        """E_{a,b-1}(m) / Z."""
        num = mittag_leffler2(self.alpha, self.beta - 1.0, self.m, self.ctrl)
        return _ratio(num, self.log_normalizer)

    @cached_property
    def _ml_beta_2(self) -> float:
        """E_{a,b-2}(m) / Z."""
        num = mittag_leffler2(self.alpha, self.beta - 2.0, self.m, self.ctrl)
        return _ratio(num, self.log_normalizer)

    def mean_closed_i(self) -> float:
        """Wright-series difference: (Psi[(2,1)] - Psi[(1,1)]) / Psi[(1,1)]."""
        return self._psi21 - 1.0

    def mean_closed_ii(self) -> float:
        """Shifted Mittag-Leffler form:
        (E_{a,b-1}(m) + (1-b) E_{a,b}(m)) / (a E_{a,b}(m))."""
        return (self._ml_beta_1 + (1.0 - self.beta)) / self.alpha

    def second_moment_closed_i(self) -> float:
        """E[X^2] = E[X(X-1)] + E[X]: the 2Psi2 over Z plus mean_closed_i."""
        return self._psi22 + self.mean_closed_i()

    def second_moment_closed_ii(self) -> float:
        """E[X^2] from shifted Mittag-Leffler terms:
        (E_{a,b-2} + (3-2b) E_{a,b-1} + (1-b)^2 E_{a,b}) / (a^2 E_{a,b})."""
        a, b = self.alpha, self.beta
        return (self._ml_beta_2 + (3.0 - 2.0 * b) * self._ml_beta_1 + (1.0 - b) ** 2) / (a * a)

    def moment_report(self) -> MomentReport:
        mean_s = self.mean_series()
        mean_i = self.mean_closed_i()
        mean_ii = self.mean_closed_ii()
        m2_s = self.second_moment_series()
        m2_i = self.second_moment_closed_i()
        m2_ii = self.second_moment_closed_ii()
        spread = max(
            abs(mean_s - mean_i),
            abs(mean_s - mean_ii),
            abs(mean_i - mean_ii),
            abs(m2_s - m2_i),
            abs(m2_s - m2_ii),
            abs(m2_i - m2_ii),
        )
        return MomentReport(
            mean_series=mean_s,
            mean_closed_i=mean_i,
            mean_closed_ii=mean_ii,
            m2_series=m2_s,
            m2_closed_i=m2_i,
            m2_closed_ii=m2_ii,
            variance=m2_s - mean_s * mean_s,
            max_method_spread=spread,
        )

    # -- mgf / sampling -----------------------------------------------

    def mgf(self, t: float) -> float:
        """E[e^{tX}] = E_{a,b}(e^t m) / E_{a,b}(m); the numerator is the
        normalizer at rate e^t m, from the kernel's window at log rate
        t + log m. Where e^t m underflows, that window holds pmf(0)'s term
        alone; where e^t m or the ratio overflows, t is a DomainError."""
        log_z = _finite("t", t) + math.log(self.m)
        if log_z > _LOG_FLOAT_MAX:
            raise DomainError(f"t = {t!r} is too large: e^t * m overflows")
        log_num = _window(self.alpha, self.beta, log_z, self.ctrl)[0]
        mgf = exp_saturating(log_num - self.log_normalizer)
        if mgf == math.inf:
            raise DomainError(f"t = {t!r} is too large: the mgf overflows")
        return mgf

    @cached_property
    def _guide(self):
        """Guide table for sample's inversion (Chen and Asau 1974): B
        buckets [j/B, (j+1)/B), B a power of two, so that u B and j / B
        are exact. Bucket j holds lo = #{cdf < j/B}, or -1 where it holds
        two or more cdf points, and a threshold: cdf[lo] where it holds
        one, +inf where it holds none or lo is the last support point.
        For u in bucket j, every cdf point below j/B lies below u and none
        past the bucket does, so lo + (threshold < u) is the clamped left
        search of u; only the marked buckets need the search itself."""
        cdf = self._cdf
        buckets = 1 << max(cdf.size * _GUIDE_PER_POINT - 1, _GUIDE_MIN - 1).bit_length()
        held = np.bincount((cdf[cdf < 1.0] * buckets).astype(np.intp), minlength=buckets)
        lo = np.cumsum(held) - held
        thr = np.full(buckets, math.inf)
        one = (held == 1) & (lo < cdf.size - 1)
        thr[one] = cdf[lo[one]]
        base = np.minimum(lo, cdf.size - 1).astype(np.int64)
        base[held > 1] = -1
        return base, thr

    def _search(self, u: np.ndarray) -> np.ndarray:
        """The left search of each u in [0, 1) in the cdf, clamped to the
        last support point, as int64: bucket j = floor(u B) gives it
        without a branch per draw, and only draws in marked buckets are
        searched."""
        base, thr = self._guide
        j = (u * base.size).astype(np.intp)
        values = base[j] + (thr[j] < u)
        if values.min() < 0:  # draws in buckets of two or more cdf points
            miss = values < 0
            found = self._cdf.searchsorted(u[miss], side="left")
            # u above the tabulated mass clamps to the last support point
            values[miss] = np.minimum(found, self._cdf.size - 1)
        return values

    def sample(self, n: int, seed: int) -> SampleBatch:
        """n i.i.d. draws by CDF inversion; deterministic given seed."""
        n = _integer_at_least("n", n, 1)
        seed = _integer_at_least("seed", seed, 0)
        u = np.random.default_rng(seed).random(n)
        return SampleBatch(values=self._search(u), seed=seed, n=n)


def new_wright_poisson(
    alpha: float, beta: float, m: float, ctrl: SeriesControl = _DEFAULT_CTRL
) -> WrightPoisson:
    """Validate parameters; build the log-normalizer and the support table."""
    alpha = _positive_real("alpha", alpha)
    beta = _positive_real("beta", beta)
    m = _positive_real("m", m)
    ctrl = _control(ctrl)
    # the window reaches far enough below the peak for the table's end rule
    log_z, _, lt, _, _ = _window(alpha, beta, math.log(m), ctrl)
    log_pmf = lt - log_z
    pmf = np.exp(log_pmf)
    cdf = np.cumsum(pmf)
    end = _table_end(lt, cdf, log_z)
    if end is None:
        raise NonConvergenceError(
            f"the support table's end rule does not hold within its window of {lt.size} terms"
            f" (max_terms = {ctrl.max_terms})"
        )
    cdf = cdf[:end]
    return WrightPoisson(alpha, beta, m, log_z, ctrl, pmf, cdf, log_pmf.tolist(), cdf.tolist())
