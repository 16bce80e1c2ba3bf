"""Closed forms of the normalizer Z = E_{alpha,beta}(m) = sum_k m^k /
Gamma(alpha k + beta) for four families, in log space, at O(1) cost for any
rate (Haubold, Mathai & Saxena, J. Appl. Math. 2011, 298628), the log-pmf
they give, and the mean of the alpha = 1 law. A test oracle: it imports no
library code.

- alpha = beta = 1: Z = e^m, the Poisson law;
- alpha = 1, beta > 1 (the hyper-Poisson law of Bardwell & Crow, JASA 59
  (1964) 133-141): Z = m^(1-beta) e^m P(beta-1, m), P the regularized lower
  incomplete gamma function, summed as a series below m = beta;
- alpha = 2: E_{2,1}(m) = cosh sqrt(m) and E_{2,2}(m) = sinh sqrt(m) / sqrt(m);
- alpha = 1/2, beta = 1: Z = e^(m^2) erfc(-m).
"""

import math

from scipy.special import gammainc, gammaincc


def _log_p(a, m):
    """log P(a, m). Below m = a + 1, from its own series
    P = m^a e^-m / Gamma(a+1) * sum_n m^n / ((a+1)...(a+n)), whose terms fall
    by m / (a+n) < 1 each, so the oracle does not rest on scipy's gammainc
    there. Above it, from scipy's upper function Q = 1 - P where P is near 1."""
    if m < a + 1.0:
        term, total, n = 1.0, 1.0, 0
        while term > 1e-17 * total:
            n += 1
            term *= m / (a + n)
            total += term
        return a * math.log(m) - m - math.lgamma(a + 1.0) + math.log(total)
    p = gammainc(a, m)
    return math.log1p(-gammaincc(a, m)) if p > 0.5 else math.log(p)


def _log_cosh(s):
    return s - math.log(2.0) + math.log1p(math.exp(-2.0 * s))


def _log_sinhc(s):
    """log(sinh s / s)."""
    if s < 1.0:
        return math.log(math.sinh(s) / s)
    return s - math.log(2.0 * s) + math.log1p(-math.exp(-2.0 * s))


def log_normalizer(alpha, beta, m):
    """log Z at rate m > 0; a ValueError outside the four families."""
    if alpha == 1.0 and beta == 1.0:
        return m
    if alpha == 1.0 and beta > 1.0:
        return (1.0 - beta) * math.log(m) + m + _log_p(beta - 1.0, m)
    if alpha == 2.0 and beta == 1.0:
        return _log_cosh(math.sqrt(m))
    if alpha == 2.0 and beta == 2.0:
        return _log_sinhc(math.sqrt(m))
    if alpha == 0.5 and beta == 1.0:
        return m * m + math.log(math.erfc(-m))
    raise ValueError(f"no closed form at alpha = {alpha}, beta = {beta}")


def log_pmf(alpha, beta, m, r):
    """log pmf(r) = r log m - ln Gamma(alpha r + beta) - log Z, in the four
    families."""
    return r * math.log(m) - math.lgamma(alpha * r + beta) - log_normalizer(alpha, beta, m)


def mean_alpha_1(beta, m):
    """E[X] at alpha = 1, beta > 1: (1 - beta) + m + 1 / (Gamma(beta-1) E_{1,beta}(m)),
    from E_{1,beta-1}(m) = 1 / Gamma(beta-1) + m E_{1,beta}(m)."""
    log_p = _log_p(beta - 1.0, m)
    tail = math.exp((beta - 1.0) * math.log(m) - m - math.lgamma(beta - 1.0) - log_p)
    return (1.0 - beta) + m + tail
