"""Seeded benchmark inputs, made with numpy and scipy.special only.

Nothing here imports the library, so a change to the library (its
sampler, say) cannot change what the workloads are fed.

Every input is a pure function of (seed, workload, op index). The timed
workloads use only parameter points in reach of the seed code
(``in_reach``, ``fit_in_reach``): away from the numerical cliffs of
ROADMAP item 3, where ops raise or return wrong numbers. The traced run
probes the cliffs on purpose (``cliff_points``, and fit_full over the
whole fit box), so the known failures are still counted.

The parameter points of the timed workloads are a fixed design: the
centres of equal strata of a cost key in a pool drawn with DESIGN_SEED,
the same for every run seed. The cost of an op spans decades across the
domain, so points that moved with the seed made the run seed, not the
code, set the timings. The run seed draws everything else: the counts,
the query values, the sample seeds, and the probes.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
from scipy import special as sc

POOL_SIZE = 4096
PROBE_BASE = 10**6  # op indices of the traced run's probes
FIT_N = 10_000
DESIGN_SEED = 0

# (log-uniform ranges) alpha, beta, m
FIT_BOX = ((0.5, 2.0), (0.5, 2.0), (1.0, 50.0))
# the accepted domain: five in six points from the box, one on the
# Poisson line alpha = beta = 1
DOMAIN_BOX = ((0.1, 10.0), (0.1, 10.0), (0.1, 200.0))
POISSON_M = (1.0, 5000.0)
POISSON_EVERY = 6
# exp(-745.13) is the smallest subnormal double; climb approximates log Z
# by its largest term, so points in reach keep a margin below it
CLIMB_MAX = 700.0
# the seed code stops every series at 10 000 terms (SeriesControl.max_terms,
# ROADMAP item 3b); a point is in reach when each series an op sums has
# fallen below 1e-15 of its peak well inside that
TERM_BUDGET = 8000.0
MGF_T = 0.5  # the cold op's mgf(t): the largest argument it sums is m e^t

_TAGS = {"fit": 1, "query_hot": 2, "cli": 4}


def rng_for(seed: int, workload: str, *index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _TAGS[workload], *index])


def term_peak(alpha, beta, m) -> np.ndarray:
    """Continuous index of the largest term of sum_k m^k / Gamma(alpha k + beta).

    The log-terms are concave in k, so the peak solves
    alpha * digamma(alpha k + beta) = log m, or is 0 when the terms fall
    from the start.
    """
    alpha, beta, m = np.broadcast_arrays(
        np.asarray(alpha, float), np.asarray(beta, float), np.asarray(m, float)
    )
    y = np.log(m) / alpha
    inside = y > sc.digamma(beta)
    # digamma(x) ~ log(x - 1/2) for large x; Newton from there (or from
    # beta + 1 when y is small) converges in a few steps
    x = np.where(y > 1.0, np.exp(np.minimum(y, 700.0)) + 0.5, beta + 1.0)
    for _ in range(30):
        x = np.maximum(x - (sc.digamma(x) - y) / sc.polygamma(1, x), 0.5 * x)
    return np.where(inside, np.maximum((x - beta) / alpha, 0.0), 0.0)


def _log_uniform(rng, lo_hi, size):
    lo, hi = lo_hi
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def climb(alpha, beta, m) -> np.ndarray:
    """-log pmf(0) = log Z + log Gamma(beta), with log Z taken as its
    largest term."""
    k = term_peak(alpha, beta, m)
    return k * np.log(m) - sc.gammaln(alpha * k + beta) + sc.gammaln(beta)


def support(alpha, beta, m) -> np.ndarray:
    """Continuous k where the log-terms have fallen 35 nats (1e-15) below
    the peak: about where a series summed from k = 0 stops, and how far
    the walks over the pmf go. Newton on the concave log-term, from a
    Gaussian guess."""
    alpha, beta, m = np.broadcast_arrays(
        np.asarray(alpha, float), np.asarray(beta, float), np.asarray(m, float)
    )
    peak = term_peak(alpha, beta, m)
    log_m = np.log(m)

    def log_term(k):
        return k * log_m - sc.gammaln(alpha * k + beta)

    target = log_term(peak) - 35.0
    k = peak + np.maximum(1.0, 8.4 / (alpha * np.sqrt(sc.polygamma(1, alpha * peak + beta))))
    for _ in range(40):
        slope = log_m - alpha * sc.digamma(alpha * k + beta)
        k = np.maximum(k - (log_term(k) - target) / slope, peak + 0.5 * (k - peak))
    return k


def in_reach(alpha, beta, m) -> np.ndarray:
    """Outside both cliffs of ROADMAP item 3: pmf(0) is a normal double
    (3a), and the series at m e^MGF_T, the largest one an op sums, ends
    within TERM_BUDGET terms (3b)."""
    with np.errstate(all="ignore"):
        return ((climb(alpha, beta, m) <= CLIMB_MAX)
                & (support(alpha, beta, m * math.exp(MGF_T)) <= TERM_BUDGET))


def fit_in_reach(alpha, beta, m) -> np.ndarray:
    """``in_reach``, and fit_m's bracket stays within the term budget too:
    it starts at the sample mean (about the term peak) and doubles, so it
    sums the series up to about 4 max(mean, m)."""
    top = 4.0 * np.maximum(term_peak(alpha, beta, m), m)
    with np.errstate(all="ignore"):
        return in_reach(alpha, beta, m) & (support(alpha, beta, top) <= TERM_BUDGET)


def strata(params: np.ndarray, count: int, key=climb):
    """The points at the centres of ``count`` equal strata of ``key``."""
    params = params[np.argsort(key(*params.T), kind="stable")]
    return [tuple(float(x) for x in params[int((j + 0.5) * len(params) / count)])
            for j in range(count)]


def design(workload: str, box, count: int, keep=None):
    """A fixed design of ``count`` points of ``box`` (where ``keep`` holds),
    by ``climb``."""
    rng = rng_for(DESIGN_SEED, workload, 0)
    params = np.column_stack([_log_uniform(rng, r, POOL_SIZE) for r in box])
    if keep is not None:
        params = params[keep(*params.T)]
    return strata(params, count)


def _domain_draws(rng, size=POOL_SIZE) -> np.ndarray:
    """``size`` draws from the accepted domain."""
    n_poisson = size // POISSON_EVERY
    box = np.column_stack([_log_uniform(rng, r, size - n_poisson) for r in DOMAIN_BOX])
    line = np.column_stack(
        [np.ones(n_poisson), np.ones(n_poisson), _log_uniform(rng, POISSON_M, n_poisson)])
    return np.vstack([box, line])


def hot_points(count: int):
    """A fixed design of ``count`` distributions from the domain in reach,
    by the mode, which sets the length of every walk a query makes."""
    params = _domain_draws(rng_for(DESIGN_SEED, "query_hot", 0))
    return strata(params[in_reach(*params.T)], count, key=term_peak)


def cliff_points(seed: int, workload: str, count: int):
    """``count`` points of the domain beyond the cliffs (not in reach), by
    ``climb``, with a series peak the reference can still sum."""
    params = _domain_draws(rng_for(seed, workload, 2))
    with np.errstate(all="ignore"):
        beyond = ~in_reach(*params.T) & (term_peak(*params.T) < 1e6)
    return strata(params[beyond], count)


def log_pmf_table(alpha, beta, m, log_z, lo, hi) -> np.ndarray:
    r = np.arange(lo, hi + 1, dtype=float)
    return r * math.log(m) - sc.gammaln(alpha * r + beta) - log_z


def draw_counts(rng, alpha, beta, m, n, window, log_z) -> np.ndarray:
    """n counts by inverse-CDF sampling from a gammaln log-pmf table over
    the reference support window (lo, hi)."""
    lo, hi = window
    cdf = np.cumsum(np.exp(log_pmf_table(alpha, beta, m, log_z, lo, hi)))
    idx = np.searchsorted(cdf, rng.random(n) * cdf[-1], side="right")
    return (lo + np.minimum(idx, hi - lo)).astype(np.int64)


class Digest:
    """Short sha256 of the input arrays added to it."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *items):
        for item in items:
            arr = np.ascontiguousarray(np.asarray(item))
            self._h.update(str(arr.dtype).encode())
            self._h.update(arr.tobytes())

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]
