import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from wright_poisson.distribution import new_wright_poisson
from wright_poisson.special import DomainError, NonConvergenceError, SeriesControl

GRID_SHAPES = (0.5, 1.0, 1.5, 2.0, 3.0)
GRID_M = (0.1, 1.0, 5.0)
GRID = [(a, b, m) for a in GRID_SHAPES for b in GRID_SHAPES for m in GRID_M]


class TestConstruction:
    def test_classical_normalizer(self):
        for m in (0.1, 1.0, 5.0, 20.0):
            d = new_wright_poisson(1.0, 1.0, m)
            assert d.log_normalizer == pytest.approx(m, rel=1e-13)

    def test_e12_normalizer(self):
        d = new_wright_poisson(1.0, 2.0, 1.0)
        assert d.log_normalizer == pytest.approx(math.log(math.e - 1.0), rel=1e-13)

    def test_tiny_m_leading_terms(self):
        d = new_wright_poisson(2.0, 1.0, 1e-4)
        expected = math.log1p(1e-4 / 2.0 + 1e-8 / 24.0 + 1e-12 / 720.0)
        assert d.log_normalizer == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "alpha,beta,m",
        [(0.0, 1.0, 1.0), (-1.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 0.0),
         (1.0, 1.0, -2.0), (math.nan, 1.0, 1.0)],
    )
    def test_domain(self, alpha, beta, m):
        with pytest.raises(DomainError):
            new_wright_poisson(alpha, beta, m)

    def test_immutable(self):
        d = new_wright_poisson(1.0, 1.0, 1.0)
        with pytest.raises(Exception):
            d.m = 2.0


class TestPmf:
    def test_classical_poisson_reduction(self):
        for m in (0.1, 1.0, 5.0, 20.0):
            d = new_wright_poisson(1.0, 1.0, m)
            for r in range(51):
                ref = m**r * math.exp(-m) / math.factorial(r)
                assert d.pmf(r) == pytest.approx(ref, rel=1e-12)

    def test_poisson_at_zero(self):
        d = new_wright_poisson(1.0, 1.0, 1.0)
        assert d.pmf(0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_cosh_normalizer_case(self):
        d = new_wright_poisson(2.0, 1.0, 1.0)
        assert d.pmf(1) == pytest.approx(0.5 / math.cosh(1.0), rel=1e-13)

    def test_pmf_in_unit_interval(self):
        for a, b, m in GRID:
            d = new_wright_poisson(a, b, m)
            for r in range(20):
                assert 0.0 < d.pmf(r) <= 1.0

    def test_negative_r(self):
        d = new_wright_poisson(1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            d.log_pmf(-1)


class TestRecurrence:
    def test_classical_factor(self):
        d = new_wright_poisson(1.0, 1.0, 2.5)
        p0 = d.pmf(0)
        for r in range(10):
            step = d.pmf_recurrence_step(r, d.pmf(r))
            assert step == pytest.approx(d.pmf(r) * 2.5 / (r + 1), rel=1e-13)

    def test_gamma_factor_at_zero(self):
        d = new_wright_poisson(2.0, 1.0, 1.0)
        assert d.pmf_recurrence_step(0, 1.0) == pytest.approx(0.5, rel=1e-14)

    def test_chained_matches_direct(self):
        for a, b, m in GRID:
            d = new_wright_poisson(a, b, m)
            p = d.pmf(0)
            for r in range(200):
                p = d.pmf_recurrence_step(r, p)
                direct = d.pmf(r + 1)
                if direct > 1e-300:
                    assert abs(p - direct) <= 1e-12 * direct


class TestCdfQuantile:
    def test_classical_values(self):
        d = new_wright_poisson(1.0, 1.0, 1.0)
        assert d.cdf(0) == pytest.approx(math.exp(-1.0), rel=1e-13)
        assert d.cdf(1) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-13)

    def test_total_mass(self):
        for a, b, m in GRID:
            d = new_wright_poisson(a, b, m)
            total = float(np.sum(d.support_pmf()))
            assert 1.0 - 1e-10 <= total <= 1.0 + 1e-12

    def test_monotone_and_bounded(self):
        d = new_wright_poisson(0.5, 1.5, 5.0)
        prev = 0.0
        for r in range(60):
            c = d.cdf(r)
            assert c >= prev
            assert c <= 1.0 + 1e-12
            prev = c

    def test_quantile_examples(self):
        d = new_wright_poisson(1.0, 1.0, 1.0)
        assert d.quantile(0.0) == 0
        assert d.quantile(0.5) == 1

    def test_quantile_left_inverse(self):
        d = new_wright_poisson(2.0, 1.0, 1.0)
        for r in range(10):
            assert d.quantile(d.cdf(r) - 1e-15) <= r

    def test_quantile_domain(self):
        d = new_wright_poisson(1.0, 1.0, 1.0)
        for p in (-0.1, 1.0, 1.5):
            with pytest.raises(DomainError):
                d.quantile(p)


class TestMoments:
    def test_classical_mean_all_methods(self):
        for m in (0.1, 1.0, 5.0):
            d = new_wright_poisson(1.0, 1.0, m)
            assert d.mean_series() == pytest.approx(m, rel=1e-11)
            assert d.mean_closed_i() == pytest.approx(m, rel=1e-11)
            assert d.mean_closed_ii() == pytest.approx(m, rel=1e-11)

    def test_classical_second_moment(self):
        for m in (0.1, 1.0, 5.0):
            d = new_wright_poisson(1.0, 1.0, m)
            want = m * m + m
            assert d.second_moment_series() == pytest.approx(want, rel=1e-11)
            assert d.second_moment_closed_i() == pytest.approx(want, rel=1e-11)
            assert d.second_moment_closed_ii() == pytest.approx(want, rel=1e-11)

    def test_tiny_m_limit(self):
        d = new_wright_poisson(1.5, 2.0, 1e-8)
        assert abs(d.mean_series()) <= 1e-7
        assert abs(d.mean_closed_i()) <= 1e-7
        assert abs(d.second_moment_closed_i()) <= 1e-7

    def test_method_agreement_on_grid(self):
        for a, b, m in GRID:
            d = new_wright_poisson(a, b, m)
            rep = d.moment_report()
            scale = max(1.0, abs(rep.m2_series))
            assert rep.max_method_spread <= 1e-9 * scale, (a, b, m)

    def test_report_identity_and_variance(self):
        for a, b, m in [(1.0, 1.0, 2.0), (0.5, 1.5, 1.0), (2.0, 3.0, 5.0)]:
            d = new_wright_poisson(a, b, m)
            rep = d.moment_report()
            assert rep.variance >= 0.0
            assert rep.variance == pytest.approx(
                rep.m2_series - rep.mean_series**2, abs=1e-10
            )

    def test_classical_report_values(self):
        rep = new_wright_poisson(1.0, 1.0, 2.0).moment_report()
        assert rep.mean_series == pytest.approx(2.0, rel=1e-11)
        assert rep.variance == pytest.approx(2.0, rel=1e-10)


class TestMgf:
    def test_at_zero_is_one(self):
        for a, b, m in GRID:
            d = new_wright_poisson(a, b, m)
            assert d.mgf(0.0) == pytest.approx(1.0, rel=1e-13)

    def test_classical_closed_form(self):
        d = new_wright_poisson(1.0, 1.0, 1.0)
        for t in (-1.0, 0.5, math.log(2.0)):
            assert d.mgf(t) == pytest.approx(
                math.exp(math.expm1(t)), rel=1e-12
            )

    def test_matches_expectation_oracle(self):
        for a, b, m in GRID:
            d = new_wright_poisson(a, b, m)
            for t in (-1.0, -0.5, 0.5, 1.0):
                ref = d.expectation(lambda r: math.exp(t * r))
                assert d.mgf(t) == pytest.approx(ref, rel=1e-10), (a, b, m, t)

    def test_finite_difference_mean(self):
        h = 1e-5
        for a, b, m in [(1.0, 1.0, 4.0), (2.0, 1.0, 1.0), (0.5, 1.5, 1.0)]:
            d = new_wright_poisson(a, b, m)
            fd = (d.mgf(h) - d.mgf(-h)) / (2.0 * h)
            assert fd == pytest.approx(d.mean_series(), abs=1e-6)

    def test_t_domain(self):
        d = new_wright_poisson(1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            d.mgf(math.nan)

    @pytest.mark.parametrize("t", [800.0, 709.5])
    def test_t_overflowing_e_t_m_names_t(self, t):
        # e^800 overflows alone; e^709.5 * 2 overflows only times m
        d = new_wright_poisson(1.0, 1.0, 2.0)
        with pytest.raises(DomainError, match="t = "):
            d.mgf(t)


class TestSampling:
    def test_deterministic(self):
        d = new_wright_poisson(2.0, 1.0, 1.0)
        b1 = d.sample(1000, seed=99)
        b2 = d.sample(1000, seed=99)
        assert np.array_equal(b1.values, b2.values)
        assert b1.n == 1000 and b1.seed == 99

    def test_different_seeds_differ(self):
        d = new_wright_poisson(1.0, 1.0, 4.0)
        assert not np.array_equal(
            d.sample(1000, seed=1).values, d.sample(1000, seed=2).values
        )

    def test_nonnegative_integers(self):
        d = new_wright_poisson(0.5, 1.5, 1.0)
        vals = d.sample(500, seed=7).values
        assert vals.dtype.kind == "i"
        assert np.all(vals >= 0)

    def test_empirical_mean_within_clt_bound(self):
        n = 100_000
        for a, b, m in [(1.0, 1.0, 4.0), (2.0, 1.0, 1.0), (0.5, 1.5, 1.0)]:
            d = new_wright_poisson(a, b, m)
            rep = d.moment_report()
            vals = d.sample(n, seed=2024).values
            bound = 3.0 * math.sqrt(rep.variance / n)
            assert abs(float(vals.mean()) - rep.mean_series) <= bound, (a, b, m)

    def test_n_domain(self):
        d = new_wright_poisson(1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            d.sample(0, seed=1)


class TestLargeRate:
    """Poisson rates where pmf(0) underflows; m = 4999 also has a log Z
    whose last-ulp rounding leaves the pmf total short of 1 - 1e-13."""

    @pytest.mark.parametrize("m", [4999, 5000])
    def test_cdf_at_the_mean(self, m):
        d = new_wright_poisson(1.0, 1.0, float(m))
        assert d.cdf(m) == pytest.approx(stats.poisson.cdf(m, m), rel=1e-9)

    @pytest.mark.parametrize("m", [4999, 5000])
    def test_median(self, m):
        assert new_wright_poisson(1.0, 1.0, float(m)).quantile(0.5) == m

    @pytest.mark.parametrize("m", [4999, 5000])
    def test_mean_series(self, m):
        d = new_wright_poisson(1.0, 1.0, float(m))
        assert d.mean_series() == pytest.approx(m, rel=1e-11)

    def test_sample_mean_within_clt_bound(self):
        n, m = 10_000, 1000.0
        vals = new_wright_poisson(1.0, 1.0, m).sample(n, seed=11).values
        assert abs(float(vals.mean()) - m) <= 3.0 * math.sqrt(m / n)

    def test_quantile_above_tabulated_mass_raises(self):
        d = new_wright_poisson(1.0, 1.0, 4999.0)
        p = math.nextafter(d.cdf(10**9), 1.0)
        assert p < 1.0
        with pytest.raises(NonConvergenceError):
            d.quantile(p)


_shape = st.floats(0.5, 3.0)
_rate = st.floats(0.1, 50.0)


class TestSupportProperties:
    @settings(max_examples=25, deadline=None)
    @given(a=_shape, b=_shape, m=_rate)
    def test_pmf_sums_to_one(self, a, b, m):
        total = float(np.sum(new_wright_poisson(a, b, m).support_pmf()))
        assert 1.0 - 1e-10 <= total <= 1.0 + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(a=_shape, b=_shape, m=_rate)
    def test_cdf_monotone_and_bounded(self, a, b, m):
        d = new_wright_poisson(a, b, m)
        cdf = [d.cdf(r) for r in range(d.support_pmf().size + 4)]
        assert all(x <= y for x, y in zip(cdf, cdf[1:]))
        assert 0.0 <= cdf[0] and cdf[-1] <= 1.0 + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(a=_shape, b=_shape, m=_rate)
    def test_quantile_left_inverse(self, a, b, m):
        d = new_wright_poisson(a, b, m)
        for r in range(d.support_pmf().size):
            p = min(max(d.cdf(r) - 1e-12, 0.0), math.nextafter(1.0, 0.0))
            assert d.quantile(p) <= r
