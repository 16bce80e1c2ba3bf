"""Reference values the benchmark checks the library against.

Independent of the library: the normalizer is a numpy gammaln +
logsumexp sum over a window around the (analytic) peak term, and the
Poisson case uses scipy.stats.poisson. ``self_check`` ties both to
mpmath and to closed forms before any workload trusts them.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import special as sc

from inputs import log_pmf_table, term_peak

# log-terms this far below the peak are dropped; the terms are
# log-concave, so the dropped tail is below exp(-55) of the peak
_DROP = 60.0
_MAX_WINDOW = 5_000_000


class ReferenceUnavailable(ArithmeticError):
    """The reference window would exceed _MAX_WINDOW terms."""


def _log_term(alpha, beta, m, k):
    return k * math.log(m) - float(sc.gammaln(alpha * k + beta))


def window(alpha: float, beta: float, m: float):
    """Integer range (lo, hi) holding every term within _DROP of the peak."""
    peak = float(term_peak(alpha, beta, m))
    if peak > _MAX_WINDOW:
        raise ReferenceUnavailable(f"series peak at k={peak:.3g}")
    k0 = int(round(peak))
    top = max(_log_term(alpha, beta, m, k) for k in (max(k0 - 1, 0), k0, k0 + 1))

    def edge(direction):
        step, k = 16, k0
        while True:
            nxt = k + direction * step
            if nxt <= 0:
                return 0
            if _log_term(alpha, beta, m, nxt) < top - _DROP:
                lo, hi = sorted((k, nxt))
                while hi - lo > 1:  # bisect on the concave log-term
                    mid = (lo + hi) // 2
                    inside = _log_term(alpha, beta, m, mid) >= top - _DROP
                    if direction > 0:
                        lo, hi = (mid, hi) if inside else (lo, mid)
                    else:
                        lo, hi = (lo, mid) if inside else (mid, hi)
                return hi if direction > 0 else lo
            k, step = nxt, step * 2
            if abs(k - k0) > _MAX_WINDOW:
                raise ReferenceUnavailable("window wider than the cap")

    return edge(-1), edge(+1)


@lru_cache(maxsize=4096)
def log_z(alpha: float, beta: float, m: float) -> float:
    """log E_{alpha,beta}(m) by logsumexp over the peak window."""
    lo, hi = window(alpha, beta, m)
    return float(sc.logsumexp(log_pmf_table(alpha, beta, m, 0.0, lo, hi)))


class Reference:
    """Reference pmf, cdf and moments of one parameter point, tabulated
    over its window; on the Poisson line the table is scipy.stats.poisson."""

    def __init__(self, alpha: float, beta: float, m: float):
        self.alpha, self.beta, self.m = alpha, beta, m
        self.lo, self.hi = window(alpha, beta, m)
        self.log_z = log_z(alpha, beta, m)
        r = np.arange(self.lo, self.hi + 1)
        self.poisson = alpha == 1.0 and beta == 1.0
        if self.poisson:
            from scipy import stats  # slow to import; only the Poisson line needs it

            self.dist = stats.poisson(m)
            self.log_pmf_window = self.dist.logpmf(r)
            self.cdf_window = self.dist.cdf(r)
        else:
            self.log_pmf_window = log_pmf_table(alpha, beta, m, self.log_z, self.lo, self.hi)
            self.cdf_window = np.cumsum(np.exp(self.log_pmf_window))
        pmf = np.exp(self.log_pmf_window)
        self.mean = float(np.dot(r, pmf))
        self.m2 = float(np.dot(r * r.astype(float), pmf))

    def log_pmf(self, r: int) -> float:
        if self.lo <= r <= self.hi:
            return float(self.log_pmf_window[r - self.lo])
        if self.poisson:
            return float(self.dist.logpmf(r))
        return _log_term(self.alpha, self.beta, self.m, r) - self.log_z

    def cdf(self, r: int) -> float:
        if r < 0:
            return 0.0
        if r < self.lo:  # below exp(-55) of the peak term
            return float(self.dist.cdf(r)) if self.poisson else 0.0
        return float(self.cdf_window[min(r, self.hi) - self.lo])

    def mgf_ok(self, t: float, got: float) -> bool:
        """Relative agreement, or inf where the true value overflows."""
        log_ratio = log_z(self.alpha, self.beta, self.m * math.exp(t)) - self.log_z
        if log_ratio > 709.0:
            return got == math.inf
        return close(got, math.exp(log_ratio), 1e-9)


def close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    return math.isfinite(got) and abs(got - want) <= atol + rtol * abs(want)


def pmf_ok(ref: Reference, r: int, got: float) -> bool:
    """Relative agreement where the pmf is representable; below that the
    library value must be negligible too."""
    lp = ref.log_pmf(r)
    if lp < -700.0:
        return 0.0 <= got <= 1e-290
    return close(got, math.exp(lp), 1e-9)


def quantile_ok(ref: Reference, p: float, q: int, tol: float = 1e-9) -> bool:
    """cdf(q) >= p > cdf(q - 1), to within the summation error."""
    return ref.cdf(q) >= p - tol and ref.cdf(q - 1) < p + tol


def self_check() -> list:
    """Names of failed checks of the reference against mpmath and closed
    forms; empty when the oracles can be trusted."""
    import mpmath as mp

    mp.mp.dps = 40
    failed = []

    def mp_log_z(alpha, beta, m):
        total, k = mp.mpf(0), 0
        while True:
            term = mp.power(m, k) * mp.rgamma(mp.mpf(alpha) * k + beta)
            total += term
            if k > 20 and term < total * mp.mpf(10) ** -38:
                return float(mp.log(total))
            k += 1

    closed = {
        (1.0, 1.0, 100.0): 100.0,
        (0.5, 1.0, 10.0): float(100 + mp.log(mp.erfc(-10))),
        (2.0, 1.0, 5.0): float(mp.log(mp.cosh(mp.sqrt(5)))),
    }
    for (a, b, m), want in closed.items():
        got = log_z(a, b, m)
        if not close(got, mp_log_z(a, b, m), 1e-13, 1e-13):
            failed.append(f"log_z{(a, b, m)} vs mpmath")
        if not close(got, want, 1e-13, 1e-13):
            failed.append(f"log_z{(a, b, m)} vs closed form")

    for m in (0.3, 7.5, 800.0):
        ref = Reference(1.0, 1.0, m)
        for r in (0, 1, int(m), int(m) + 3):
            exact = mp.exp(-m) * mp.power(m, r) / mp.factorial(r)
            if not close(math.exp(ref.log_pmf(r)), float(exact), 1e-12):
                failed.append(f"poisson pmf m={m} r={r}")
            cum = mp.gammainc(r + 1, m, mp.inf, regularized=True)
            if not close(ref.cdf(r), float(cum), 1e-12, 1e-300):
                failed.append(f"poisson cdf m={m} r={r}")
    # the window reference itself, off the closed-form points
    if not close(float(Reference(0.7, 1.3, 40.0).cdf_window[-1]), 1.0, 1e-13):
        failed.append("window mass")
    return failed
