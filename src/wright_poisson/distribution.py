"""Wright-type Poisson distribution.

pmf(r) = m^r / (Gamma(alpha r + beta) * Z) with normalizer
Z = sum_k m^k / Gamma(alpha k + beta), the two-parameter Mittag-Leffler
series at m (equivalently a 1Psi1 Wright series). alpha = beta = 1
recovers the classical Poisson law.

Construction evaluates the log-terms k log m - ln Gamma(alpha k + beta)
once, over a window [0, K) sized from their peak, and takes both log Z
(their log-sum-exp) and the pmf/cdf table (the same array, normalized)
from it. The terms are log-concave, so the mass past the window is at
most a geometric series in the last term ratio; the window ends where
that bound is below rel_tol and the table's end rule holds inside it.
The windows come from one kernel, ``_normalized_windows``; the table's
end rule is applied on top of it, and the rate fit uses it alone. cdf,
quantile, sample and support_pmf read the table. Every pmf value is
evaluated directly from its logarithm, so none depends on pmf(0), which
underflows for large m.

Moments come in three flavors each: a brute-force series over the pmf,
and two closed forms (Wright-series differences, and shifted
Mittag-Leffler combinations). The closed-form "second moment" routines
return the raw E[X^2]; variance is derived as E[X^2] - mean^2.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import special as sc

from .special import (
    DomainError,
    exp_saturating,
    NonConvergenceError,
    SeriesControl,
    SeriesResult,
    WrightSpec,
    _term_window,
    mittag_leffler2,
    wright_series,
)

__all__ = [
    "WrightPoisson",
    "MomentReport",
    "SampleBatch",
    "new_wright_poisson",
]

# mass-based truncation of sums over the support
_MASS_TOL = 1e-13
_LOOKAHEAD = 16
_TAIL_ATOL = 1e-15
# nats a window reaches below what the table's end rule needs, for the
# 1 / (1 - rho) factor of the tail bound
_WINDOW_MARGIN = 3.0


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


def _ratio(num: SeriesResult, den: SeriesResult) -> float:
    """num/den with a log-space path when both values are positive, so
    huge normalizers cancel before exponentiation."""
    if num.value > 0.0 and not math.isnan(num.log_value):
        return exp_saturating(num.log_value - den.log_value)
    return num.value / den.value


def _log_terms(alpha: float, beta: float, log_m: float, r):
    """log(m^r / Gamma(alpha r + beta)) at an integer or an array of them."""
    return r * log_m - sc.gammaln(alpha * r + beta)


def _mass_floor(log_z: float) -> float:
    """Cumulative mass that marks the bulk as summed. One ulp of log Z is
    the relative error of every pmf value, and so of their total."""
    return 1.0 - _MASS_TOL - math.ulp(log_z)


def _log_tail(lt: np.ndarray) -> float:
    """log of a bound on the sum of the terms past the window's log-terms
    lt. The terms are log-concave, so their ratios fall: past the window
    they sum to at most t[K-1] rho / (1 - rho), rho = t[K-1] / t[K-2] < 1."""
    if lt[-1] == -math.inf:
        return -math.inf  # Gamma overflowed, here and at every later term
    log_rho = float(lt[-1] - lt[-2]) if lt.size > 1 else 0.0
    if log_rho >= 0.0:
        return math.inf
    return float(lt[-1]) + log_rho - math.log(-math.expm1(log_rho))


def _table_end(pmf: np.ndarray, cdf: np.ndarray, log_z: float) -> Optional[int]:
    """Length R + 1 of the table over 0..R, where R is the first r whose cdf
    reaches the mass floor while pmf(r+1) + ... + pmf(r+_LOOKAHEAD) is below
    _TAIL_ATOL; None if no such r has its lookahead inside the arrays."""
    start = int(np.searchsorted(cdf, _mass_floor(log_z)))
    after = pmf[start + 1:]
    if after.size < _LOOKAHEAD:
        return None
    ends = np.flatnonzero(np.convolve(after, np.ones(_LOOKAHEAD), "valid") < _TAIL_ATOL)
    return start + int(ends[0]) + 1 if ends.size else None


def _positive_real(name: str, x) -> float:
    """x as a float; a model parameter must be a finite real number > 0."""
    if not isinstance(x, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {type(x).__name__}")
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"{name} must be > 0")
    return float(x)


def _normalized_windows(alpha: float, beta: float, log_m: float, ctrl: SeriesControl):
    """Yield (log Z, the terms over a window [0, K) divided by Z) for each
    window, in order of length, whose terms past K sum to at most rel_tol Z
    by the tail bound. The first K is sized from the peak to hold the
    table's end rule too; each next one doubles it. Asking for one past
    max_terms raises NonConvergenceError naming the terms needed.
    """
    log_tol = math.log(ctrl.rel_tol)
    drop = max(-log_tol, -math.log(_TAIL_ATOL / _LOOKAHEAD)) + _WINDOW_MARGIN
    need = _term_window(alpha, beta, log_m, drop) + _LOOKAHEAD
    size = math.ceil(min(need, ctrl.max_terms))
    while True:
        lt = _log_terms(alpha, beta, log_m, np.arange(size))
        peak = float(lt.max())
        if peak == -math.inf:  # Gamma(beta) overflows, and so does every term
            raise DomainError("normalizer is not positive and finite")
        log_z = peak + math.log(float(np.exp(lt - peak).sum()))
        if _log_tail(lt) - log_z <= log_tol:
            yield log_z, np.exp(lt - log_z)
        if size == ctrl.max_terms:
            raise NonConvergenceError(
                f"the normalizer needs about {math.ceil(max(need, size + 1)):.3g} terms,"
                f" more than max_terms = {ctrl.max_terms}"
            )
        size = min(2 * size, ctrl.max_terms)


def _normalized_window(alpha: float, beta: float, m: float, ctrl: SeriesControl):
    """log Z and the (pmf, cdf) table, from the first window whose table
    end rule holds inside it."""
    for log_z, pmf in _normalized_windows(alpha, beta, math.log(m), ctrl):
        cdf = np.cumsum(pmf)
        end = _table_end(pmf, cdf, log_z)
        if end is not None:
            return log_z, pmf[:end], cdf[:end]


@dataclass(frozen=True)
class WrightPoisson:
    """Validated parameters, the log-normalizer and the pmf/cdf table over
    the support, from one window of log-terms.

    Immutable; build through :func:`new_wright_poisson`.
    """

    alpha: float
    beta: float
    m: float
    log_normalizer: float
    ctrl: SeriesControl
    _pmf: np.ndarray = field(repr=False, compare=False)
    _cdf: np.ndarray = field(repr=False, compare=False)

    # -- pmf / cdf ----------------------------------------------------

    def _log_pmf(self, r):
        """log pmf at an integer or at an array of integers."""
        return _log_terms(self.alpha, self.beta, math.log(self.m), r) - self.log_normalizer

    def log_pmf(self, r: int) -> float:
        # nan fails the sign test; inf % 1 is nan
        if not (r >= 0 and r % 1 == 0):
            raise DomainError(f"r must be a nonnegative integer, got {r!r}")
        return float(self._log_pmf(int(r)))

    def pmf(self, r: int) -> float:
        return math.exp(self.log_pmf(r))

    def pmf_recurrence_step(self, r: int, pmf_r: float) -> float:
        """pmf(r+1) from pmf(r): multiply by m*Gamma(ar+b)/Gamma(ar+a+b).

        Gamma arguments use the same expression as log_pmf so that
        chained steps telescope against the direct evaluation.
        """
        a, b = self.alpha, self.beta
        # difference first: the two lgamma values are large and close,
        # and their rounding errors telescope across chained steps
        dlg = float(sc.gammaln(a * r + b)) - float(sc.gammaln(a * (r + 1) + b))
        return math.exp(dlg + math.log(self.m)) * pmf_r

    def cdf(self, r: int) -> float:
        """P(X <= r); past the end of the support table, its total mass."""
        if not (r >= 0 and math.isfinite(r)):
            raise DomainError(f"r must be finite and nonnegative, got {r!r}")
        return float(self._cdf[min(int(r), self._cdf.size - 1)])

    def quantile(self, p: float) -> int:
        if not (0.0 <= p < 1.0):
            raise DomainError("quantile requires p in [0, 1)")
        r = int(np.searchsorted(self._cdf, p, side="left"))
        if r == self._cdf.size:
            raise NonConvergenceError(
                f"p = {p} lies above the tabulated mass {self._cdf[-1]!r}"
            )
        return r

    # -- support table ------------------------------------------------

    def support_pmf(self) -> np.ndarray:
        """pmf values 0..R where R is the 1 - _MASS_TOL cutoff (with a
        16-term lookahead confirming the tail is dead)."""
        return self._pmf.copy()

    def expectation(self, weight: Callable[[int], float]) -> float:
        """sum_r weight(r) * pmf(r), stopped once the cumulative mass is
        complete and the last window of contributions is negligible.

        The window guard matters for growing weights like e^{tr}: the
        sum continues well past the mass cutoff until the weighted
        contributions themselves die out.
        """
        floor = _mass_floor(self.log_normalizer)
        pmf = np.empty(0)
        partial = 0.0
        mass = 0.0
        window: deque = deque(maxlen=_LOOKAHEAD)
        for r in range(self.ctrl.max_terms + 1):
            if r == pmf.size:
                pmf = np.exp(self._log_pmf(np.arange(max(64, 2 * r))))
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

    def _normalizer_result(self) -> SeriesResult:
        return mittag_leffler2(self.alpha, self.beta, self.m, self.ctrl)

    def mean_closed_i(self) -> float:
        """Wright-series difference: (Psi[(2,1)] - Psi[(1,1)]) / Psi[(1,1)]."""
        num = wright_series(
            WrightSpec([(2.0, 1.0)], [(self.beta, self.alpha)], self.m), self.ctrl
        )
        return math.exp(num.log_value - self.log_normalizer) - 1.0

    def mean_closed_ii(self) -> float:
        """Shifted Mittag-Leffler form:
        (E_{a,b-1}(m) + (1-b) E_{a,b}(m)) / (a E_{a,b}(m))."""
        den = self._normalizer_result()
        s1 = mittag_leffler2(self.alpha, self.beta - 1.0, self.m, self.ctrl)
        return (_ratio(s1, den) + (1.0 - self.beta)) / self.alpha

    def second_moment_closed_i(self) -> float:
        """E[X^2] from the 2Psi2 + 1Psi1 difference form. The 2Psi2's
        k = 0, 1 terms vanish at gamma poles by construction."""
        a, b, m = self.alpha, self.beta, self.m
        psi22 = wright_series(
            WrightSpec([(1.0, 1.0), (1.0, 1.0)], [(-1.0, 1.0), (b, a)], m),
            self.ctrl,
        )
        psi21 = wright_series(WrightSpec([(2.0, 1.0)], [(b, a)], m), self.ctrl)
        den = self._normalizer_result()
        return (
            _ratio(psi22, den)
            + math.exp(psi21.log_value - self.log_normalizer)
            - 1.0
        )

    def second_moment_closed_ii(self) -> float:
        """E[X^2] from shifted Mittag-Leffler terms:
        (E_{a,b-2} + (3-2b) E_{a,b-1} + (1-b)^2 E_{a,b}) / (a^2 E_{a,b})."""
        a, b, m = self.alpha, self.beta, self.m
        den = self._normalizer_result()
        s2 = mittag_leffler2(a, b - 2.0, m, self.ctrl)
        s1 = mittag_leffler2(a, b - 1.0, m, self.ctrl)
        return (
            _ratio(s2, den) + (3.0 - 2.0 * b) * _ratio(s1, den) + (1.0 - b) ** 2
        ) / (a * a)

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
        normalizer at rate e^t m, from a window of its own."""
        if not math.isfinite(t):
            raise DomainError("t must be finite")
        z = exp_saturating(t) * self.m
        if z == math.inf:
            raise DomainError(f"t = {t!r} is too large: e^t * m overflows")
        log_num = _normalized_window(self.alpha, self.beta, z, self.ctrl)[0]
        return exp_saturating(log_num - self.log_normalizer)

    def sample(self, n: int, seed: int) -> SampleBatch:
        """n i.i.d. draws by CDF inversion; deterministic given seed."""
        if n < 1:
            raise DomainError("sample requires n >= 1")
        rng = np.random.default_rng(seed)
        u = rng.random(n)
        # u above the tabulated mass clamps to the last support point
        values = np.searchsorted(self._cdf, u, side="left")
        values = np.minimum(values, len(self._cdf) - 1)
        return SampleBatch(values=values.astype(np.int64), seed=int(seed), n=int(n))


def new_wright_poisson(
    alpha: float, beta: float, m: float, ctrl: Optional[SeriesControl] = None
) -> WrightPoisson:
    """Validate parameters; build the log-normalizer and the support table."""
    if ctrl is None:
        ctrl = SeriesControl()
    alpha = _positive_real("alpha", alpha)
    beta = _positive_real("beta", beta)
    m = _positive_real("m", m)
    log_z, pmf, cdf = _normalized_window(alpha, beta, m, ctrl)
    return WrightPoisson(alpha, beta, m, log_z, ctrl, pmf, cdf)
