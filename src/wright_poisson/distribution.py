"""Wright-type Poisson distribution.

pmf(r) = m^r / (Gamma(alpha r + beta) * Z) with normalizer
Z = sum_k m^k / Gamma(alpha k + beta), the two-parameter Mittag-Leffler
series at m (equivalently a 1Psi1 Wright series). alpha = beta = 1
recovers the classical Poisson law.

Every pmf value is evaluated directly from its logarithm, so none
depends on pmf(0), which underflows for large m. cdf, quantile, sample
and support_pmf read one table over the support, built on first use.

Moments come in three flavors each: a brute-force series over the pmf,
and two closed forms (Wright-series differences, and shifted
Mittag-Leffler combinations). The closed-form "second moment" routines
return the raw E[X^2]; variance is derived as E[X^2] - mean^2.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special as sc

from .special import (
    DomainError,
    exp_saturating,
    NonConvergenceError,
    SeriesControl,
    SeriesResult,
    WrightSpec,
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
_SUPPORT_CAP = 10**6


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


@dataclass(frozen=True)
class WrightPoisson:
    """Validated parameters plus the precomputed log-normalizer.

    Immutable; build through :func:`new_wright_poisson`.
    """

    alpha: float
    beta: float
    m: float
    log_normalizer: float
    ctrl: SeriesControl

    # -- pmf / cdf ----------------------------------------------------

    def _log_pmf(self, r):
        """log pmf at an integer or at an array of integers."""
        return (
            r * math.log(self.m)
            - sc.gammaln(self.alpha * r + self.beta)
            - self.log_normalizer
        )

    def log_pmf(self, r: int) -> float:
        if r < 0:
            raise DomainError("r must be a nonnegative integer")
        return float(self._log_pmf(r))

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
        if r < 0:
            raise DomainError("r must be a nonnegative integer")
        cdf = self._support[1]
        return float(cdf[min(int(r), cdf.size - 1)])

    def quantile(self, p: float) -> int:
        if not (0.0 <= p < 1.0):
            raise DomainError("quantile requires p in [0, 1)")
        cdf = self._support[1]
        r = int(np.searchsorted(cdf, p, side="left"))
        if r == cdf.size:
            raise NonConvergenceError(
                f"p = {p} lies above the tabulated mass {cdf[-1]!r}"
            )
        return r

    # -- support table ------------------------------------------------

    def _mass_floor(self) -> float:
        """Cumulative mass that marks the bulk as summed. One ulp of log Z
        is the relative error of every pmf value, and so of their total."""
        return 1.0 - _MASS_TOL - math.ulp(self.log_normalizer)

    @cached_property
    def _support(self):
        """(pmf, cdf) over 0..R, built once: R is the first r whose cdf reaches
        the mass floor while the next _LOOKAHEAD pmf values sum below _TAIL_ATOL."""
        floor = self._mass_floor()
        size = 64
        while True:
            pmf = np.exp(self._log_pmf(np.arange(size)))
            cdf = np.cumsum(pmf)
            # tail[r] = pmf(r+1) + ... + pmf(r+_LOOKAHEAD)
            tail = sliding_window_view(pmf[1:], _LOOKAHEAD).sum(axis=1)
            ends = np.flatnonzero((cdf[: tail.size] >= floor) & (tail < _TAIL_ATOL))
            if ends.size:
                end = int(ends[0]) + 1
                return pmf[:end], cdf[:end]
            if size > _SUPPORT_CAP:
                raise NonConvergenceError("support table exceeded cap")
            size = min(2 * size, _SUPPORT_CAP + _LOOKAHEAD + 1)

    def support_pmf(self) -> np.ndarray:
        """pmf values 0..R where R is the 1 - _MASS_TOL cutoff (with a
        16-term lookahead confirming the tail is dead)."""
        return self._support[0].copy()

    def expectation(self, weight: Callable[[int], float]) -> float:
        """sum_r weight(r) * pmf(r), stopped once the cumulative mass is
        complete and the last window of contributions is negligible.

        The window guard matters for growing weights like e^{tr}: the
        sum continues well past the mass cutoff until the weighted
        contributions themselves die out.
        """
        floor = self._mass_floor()
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
        """E[e^{tX}] = E_{a,b}(e^t m) / E_{a,b}(m)."""
        if not math.isfinite(t):
            raise DomainError("t must be finite")
        z = exp_saturating(t) * self.m
        if z == math.inf:
            raise DomainError(f"t = {t!r} is too large: e^t * m overflows")
        num = mittag_leffler2(self.alpha, self.beta, z, self.ctrl)
        return exp_saturating(num.log_value - self.log_normalizer)

    def sample(self, n: int, seed: int) -> SampleBatch:
        """n i.i.d. draws by CDF inversion; deterministic given seed."""
        if n < 1:
            raise DomainError("sample requires n >= 1")
        cdf = self._support[1]
        rng = np.random.default_rng(seed)
        u = rng.random(n)
        # u above the tabulated mass clamps to the last support point
        values = np.searchsorted(cdf, u, side="left")
        values = np.minimum(values, len(cdf) - 1)
        return SampleBatch(values=values.astype(np.int64), seed=int(seed), n=int(n))


def new_wright_poisson(
    alpha: float, beta: float, m: float, ctrl: Optional[SeriesControl] = None
) -> WrightPoisson:
    """Validate parameters and precompute the log-normalizer."""
    if ctrl is None:
        ctrl = SeriesControl()
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha) and alpha > 0):
        raise DomainError("alpha must be > 0")
    if not (isinstance(beta, (int, float)) and math.isfinite(beta) and beta > 0):
        raise DomainError("beta must be > 0")
    if not (isinstance(m, (int, float)) and math.isfinite(m) and m > 0):
        raise DomainError("m must be > 0")
    norm = mittag_leffler2(float(alpha), float(beta), float(m), ctrl)
    if not (norm.value > 0.0) or math.isnan(norm.log_value):
        raise DomainError("normalizer is not positive and finite")
    return WrightPoisson(
        alpha=float(alpha),
        beta=float(beta),
        m=float(m),
        log_normalizer=norm.log_value,
        ctrl=ctrl,
    )
