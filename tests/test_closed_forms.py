"""The normalizer, the table, mgf and the rate fit against closed forms
(tests/closed_forms.py), which are checked in turn against 40-digit mpmath
series."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import closed_forms
from wright_poisson import CountData, fit_m, new_wright_poisson

_FAMILIES = [(1.0, 1.0), (1.0, 1.5), (1.0, 3.7), (1.0, 10.0), (2.0, 1.0), (2.0, 2.0), (0.5, 1.0)]


def _mp_terms(alpha, beta, m):
    """The terms m^k / Gamma(alpha k + beta) at 40 digits, up to where they
    fall below 1e-45 of their sum past the peak."""
    with mpmath.workdps(40):
        a, b, z = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(m)
        peak = m ** (1.0 / alpha) / alpha
        terms, total, k = [], mpmath.mpf(0), 0
        while True:
            t = z**k * mpmath.rgamma(a * k + b)
            terms.append(t)
            total += t
            if k > peak and t < total * mpmath.mpf("1e-45"):
                return terms
            k += 1


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


class TestAgainstMpmath:
    @pytest.mark.parametrize("alpha, beta", _FAMILIES)
    @pytest.mark.parametrize("m", [0.01, 0.7, 7.3, 40.0])
    def test_log_normalizer(self, alpha, beta, m):
        with mpmath.workdps(40):
            ref = float(mpmath.log(mpmath.fsum(_mp_terms(alpha, beta, m))))
        assert closed_forms.log_normalizer(alpha, beta, m) == pytest.approx(ref, rel=1e-14, abs=1e-16)

    @pytest.mark.parametrize("beta", [1.5, 3.7, 10.0])
    @pytest.mark.parametrize("m", [0.01, 0.7, 7.3, 40.0])
    def test_mean_at_alpha_1(self, beta, m):
        terms = _mp_terms(1.0, beta, m)
        with mpmath.workdps(40):
            ref = float(mpmath.fsum(k * t for k, t in enumerate(terms)) / mpmath.fsum(terms))
        assert closed_forms.mean_alpha_1(beta, m) == pytest.approx(ref, rel=1e-13)

    def test_other_shapes_have_no_closed_form(self):
        with pytest.raises(ValueError):
            closed_forms.log_normalizer(0.8, 1.2, 1.0)


class TestLogNormalizer:
    """The kernel's log Z at any rate from 0.01 up to the largest whose
    window fits max_terms, within 1e-13 relative, and near log Z = 0 within
    1e-14: scipy's incomplete gamma function carries a few ulps of 1 there
    (below m = 0.01 at beta near 10, 1e-12 relative)."""

    @staticmethod
    def _check(alpha, beta, m):
        got = new_wright_poisson(alpha, beta, m).log_normalizer
        assert got == pytest.approx(closed_forms.log_normalizer(alpha, beta, m), rel=1e-13, abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(beta=st.one_of(st.just(1.0), st.floats(1.0, 10.0, exclude_min=True)),
           m=_log_uniform(0.01, 5000.0))
    def test_alpha_1(self, beta, m):
        self._check(1.0, beta, m)

    @settings(max_examples=60, deadline=None)
    @given(beta=st.sampled_from([1.0, 2.0]), m=_log_uniform(0.01, 1e8))
    def test_alpha_2(self, beta, m):
        self._check(2.0, beta, m)

    @settings(max_examples=60, deadline=None)
    @given(m=_log_uniform(0.01, 60.0))
    def test_alpha_half(self, m):
        self._check(0.5, 1.0, m)


# the four families at rates from 0.01 up to the largest whose window fits
# max_terms, as in TestLogNormalizer: (alpha, beta, m, that largest rate)
_CAPS = {1.0: 5000.0, 2.0: 1e8, 0.5: 60.0}
_FAMILY_POINTS = st.one_of(
    st.tuples(st.just(1.0), st.one_of(st.just(1.0), st.floats(1.0, 10.0, exclude_min=True)),
              _log_uniform(0.01, _CAPS[1.0])),
    st.tuples(st.just(2.0), st.sampled_from([1.0, 2.0]), _log_uniform(0.01, _CAPS[2.0])),
    st.tuples(st.just(0.5), st.just(1.0), _log_uniform(0.01, _CAPS[0.5])),
)
_EPS = sys.float_info.epsilon


def _log_pmf_tol(alpha, beta, m, r):
    """Bound on the error of the library's log-pmf against the closed form:
    the log Z bound of TestLogNormalizer, 1e-13 relative and 1e-14
    absolute, applied to each of the log-pmf's three summands. That covers
    log Z's own error and the few ulps by which the two ln Gamma values and
    the sums round. A pmf value carries the same bound, relative."""
    return 1e-13 * (abs(r * math.log(m)) + abs(math.lgamma(alpha * r + beta))
                    + abs(closed_forms.log_normalizer(alpha, beta, m))) + 1e-14


class TestTable:
    """The table's pmf and cdf against the closed-form log-pmf."""

    @settings(max_examples=60, deadline=None)
    @given(point=_FAMILY_POINTS)
    def test_pmf_and_cdf(self, point):
        alpha, beta, m = point
        d = new_wright_poisson(alpha, beta, m)
        table = d.support_pmf()
        want = [math.exp(closed_forms.log_pmf(alpha, beta, m, r)) for r in range(table.size)]
        tols = [_log_pmf_tol(alpha, beta, m, r) for r in range(table.size)]
        for r, (got, p, tol) in enumerate(zip(table.tolist(), want, tols)):
            # rel: the log-pmf bound, and an ulp for each exp; abs: below
            # the smallest normal float, exp rounds absolutely
            assert got == pytest.approx(p, rel=tol + 2 * _EPS, abs=sys.float_info.min), r
        for r in sorted({0, table.size // 4, table.size // 2, table.size - 1}):
            # every pmf value within the largest bound up to r, and r + 1
            # roundings of the running sum, each within an ulp of the total
            rel = max(tols[: r + 1]) + 2 * _EPS + (r + 1) * _EPS
            assert d.cdf(r) == pytest.approx(math.fsum(want[: r + 1]), rel=rel), r


class TestMgf:
    """mgf(t) = exp(log Z(m e^t) - log Z(m)) against the closed forms."""

    @settings(max_examples=60, deadline=None)
    @given(point=_FAMILY_POINTS, t=st.floats(-3.0, 3.0))
    def test_ratio_of_normalizers(self, point, t):
        alpha, beta, m = point
        rate = math.exp(t + math.log(m))  # the log rate the library sums at
        assume(0.01 <= rate <= _CAPS[alpha])
        log_num = closed_forms.log_normalizer(alpha, beta, rate)
        log_den = closed_forms.log_normalizer(alpha, beta, m)
        assume(abs(log_num - log_den) < 700.0)  # no overflow, no subnormal
        # the log Z bound of TestLogNormalizer for numerator and denominator,
        # and an ulp for each exp. Rounding the rate to a float moves
        # log Z(rate) by E[X] ulps of 1, below 1e-13 of log Z in these families
        rel = 1e-13 * (abs(log_num) + abs(log_den)) + 2e-14 + 2 * _EPS
        got = new_wright_poisson(alpha, beta, m).mgf(t)
        assert got == pytest.approx(math.exp(log_num - log_den), rel=rel)


class TestFitMScore:
    @settings(max_examples=60, deadline=None)
    @given(
        beta=st.floats(1.0, 10.0, exclude_min=True),
        lam=_log_uniform(0.05, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mean_at_the_fit_is_the_sample_mean(self, beta, lam, seed):
        counts = np.random.default_rng(seed).poisson(lam, 500)
        counts[0] += 1  # the rate of an all-zero sample is the floor, not a root
        data = CountData.from_counts(counts)
        res = fit_m(data, 1.0, beta)
        assert res.converged
        assert abs(math.log(closed_forms.mean_alpha_1(beta, res.m)) - math.log(data.mean)) <= 1e-11
