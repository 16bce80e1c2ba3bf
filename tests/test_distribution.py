import itertools
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import gammaln, logsumexp

from wright_poisson import distribution
from wright_poisson.distribution import new_wright_poisson
from wright_poisson.estimation import SHAPE_BOX
from wright_poisson.special import (
    DomainError,
    NonConvergenceError,
    SeriesControl,
    WrightSpec,
    log_gamma,
    mittag_leffler2,
)

GRID_SHAPES = (0.5, 1.0, 1.5, 2.0, 3.0)
GRID_M = (0.1, 1.0, 5.0)
GRID = [(a, b, m) for a in GRID_SHAPES for b in GRID_SHAPES for m in GRID_M]


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


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

    def test_expectation_past_max_terms_is_typed(self):
        # e^{3r} pmf(r) at m = 4 peaks near r = 4 e^3: past 60 terms
        d = new_wright_poisson(1.0, 1.0, 4.0, SeriesControl(max_terms=60))
        with pytest.raises(NonConvergenceError, match="moment series exceeded max_terms"):
            d.expectation(lambda r: math.exp(3 * r))

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

    def test_closed_forms_where_the_normalizer_underflows(self):
        # Z = E_{1,200}(1) is about e^-858: the linear value of every
        # numerator underflows to 0, and only its log survives
        rep = new_wright_poisson(1.0, 200.0, 1.0).moment_report()
        assert rep.mean_closed_i == pytest.approx(rep.mean_series, rel=1e-10)
        assert rep.m2_closed_i == pytest.approx(rep.m2_series, rel=1e-10)
        # the shifted forms subtract about beta - 1 from s1 / Z, losing digits
        assert rep.mean_closed_ii == pytest.approx(rep.mean_series, rel=1e-7)
        assert rep.m2_closed_ii == pytest.approx(rep.m2_series, rel=1e-5)

    def test_each_numerator_is_summed_at_most_once(self, monkeypatch):
        # Psi21, 2Psi2, E_{a,b-1} and E_{a,b-2}: four series per distribution,
        # whatever the order of the calls, and the same answers in every order
        calls = []
        for name in ("wright_series", "mittag_leffler2"):
            series = getattr(distribution, name)
            monkeypatch.setattr(
                distribution, name, lambda *a, _f=series, **k: calls.append(1) or _f(*a, **k)
            )
        methods = ["mean_closed_i", "mean_closed_ii", "second_moment_closed_i",
                   "second_moment_closed_ii", "moment_report"]
        answers = None
        for order in itertools.permutations(methods):
            d = new_wright_poisson(0.8, 1.2, 30.0)
            calls.clear()
            got = {name: getattr(d, name)() for name in order + order}
            assert len(calls) <= 4, order
            if answers is None:
                answers = got
            assert got == answers, order


class TestMgf:
    def test_at_zero_is_one(self):
        for a, b, m in GRID:
            d = new_wright_poisson(a, b, m)
            assert d.mgf(0.0) == pytest.approx(1.0, rel=1e-13)

    @settings(max_examples=300, deadline=None)
    @given(a=_log_uniform(*SHAPE_BOX), b=_log_uniform(*SHAPE_BOX), m=_log_uniform(1e-3, 1e3))
    def test_at_zero_is_exactly_one(self, a, b, m):
        # the numerator's window at t = 0 is the table's window, bit for bit
        try:
            d = new_wright_poisson(a, b, m)
        except NonConvergenceError:  # the terms peak past max_terms
            assume(False)
        assert d.mgf(0.0) == 1.0

    def test_numerator_builds_no_table(self, monkeypatch):
        d = new_wright_poisson(0.793, 1.431, 19.0)
        want = d.mgf(0.5)

        def forbidden(*args):
            raise AssertionError("mgf applied the table's end rule to its numerator")

        monkeypatch.setattr(distribution, "_table_end", forbidden)
        assert d.mgf(0.5) == want

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

    def test_overflowing_mgf_names_t(self):
        # at (10, 1, 1) log mgf(70) is about 1097; mgf(60) from 50-digit mpmath
        d = new_wright_poisson(10.0, 1.0, 1.0)
        assert d.mgf(60.0) == pytest.approx(1.6102701230320939e174, rel=1e-12)
        with pytest.raises(DomainError, match="t = 70.0 is too large"):
            d.mgf(70.0)

    def test_e_t_overflowing_alone_is_summed_in_log_space(self):
        # e^710 overflows, e^710 * 0.01 = e^705.4 does not; 60-digit mpmath
        d = new_wright_poisson(170.0, 1.0, 0.01)
        assert d.mgf(710.0) == pytest.approx(1.3078223550336, rel=1e-12)

    @pytest.mark.parametrize("t", [-800.0, -1e6])
    def test_t_underflowing_e_t_m_is_pmf_0(self, t):
        for a, b, m in [(1.0, 1.0, 2.0), (0.5, 1.5, 30.0)]:
            d = new_wright_poisson(a, b, m)
            assert d.mgf(t) == d.pmf(0)
        assert new_wright_poisson(1.0, 1.0, 2.0).mgf(t) == pytest.approx(math.exp(-2.0), rel=1e-15)


    @pytest.mark.parametrize("t", [-1.2e307, -1e308])
    def test_t_log_rate_past_the_float_range_inside_the_window_is_pmf_0(self, t):
        # k (t + log m) overflows inside the numerator's window, where the
        # terms are 0; mgf(-1e307) reaches no overflow
        d = new_wright_poisson(1.0, 1.0, 1.0)
        assert d.mgf(t) == d.pmf(0) == 0.36787944117144233


class TestOneNormalizer:
    """The moment methods take Z from log_normalizer and the pmf from the
    support table; only the numerators are series of their own."""

    @pytest.mark.parametrize("a, b, m", [(0.793, 1.431, 19.0), (0.5, 0.5, 5.0), (1.0, 1.0, 4.0)])
    def test_moment_report_sums_no_mittag_leffler_at_beta(self, monkeypatch, a, b, m):
        d = new_wright_poisson(a, b, m)
        betas = []
        original = distribution.mittag_leffler2

        def recording(alpha, beta, z, ctrl):
            betas.append(beta)
            return original(alpha, beta, z, ctrl)

        monkeypatch.setattr(distribution, "mittag_leffler2", recording)
        d.moment_report()
        assert sorted(set(betas)) == [b - 2.0, b - 1.0]

    @pytest.mark.parametrize("a, b, m", [(0.793, 1.431, 19.0), (0.5, 0.5, 5.0), (1.0, 1.0, 200.0)])
    def test_series_moments_start_past_the_table(self, monkeypatch, a, b, m):
        d = new_wright_poisson(a, b, m)
        firsts = []
        original = distribution._log_terms

        def recording(alpha, beta, log_m, r):
            firsts.append(int(np.asarray(r).flat[0]))
            return original(alpha, beta, log_m, r)

        monkeypatch.setattr(distribution, "_log_terms", recording)
        d.mean_series()
        d.second_moment_series()
        d.expectation(lambda r: math.exp(0.5 * r))  # a growing weight runs past the table
        assert firsts
        assert min(firsts) >= d.support_pmf().size

    @pytest.mark.parametrize("a, b, m", [(0.793, 1.431, 19.0), (0.5, 0.5, 5.0), (1.0, 1.0, 200.0)])
    def test_expectation_inside_the_table_evaluates_no_term(self, monkeypatch, a, b, m):
        d = new_wright_poisson(a, b, m)
        want = float(np.dot(np.exp(-np.arange(d.support_pmf().size)), d.support_pmf()))

        def forbidden(*args):
            raise AssertionError("expectation evaluated a log-term the table holds")

        monkeypatch.setattr(distribution, "_log_terms", forbidden)
        assert d.expectation(lambda r: math.exp(-r)) == pytest.approx(want, rel=1e-14)


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

    @pytest.mark.parametrize(
        "n, seed, name",
        [(2.5, 1, "n"), (2.0, 1, "n"), (-3, 1, "n"), (None, 1, "n"),
         (5, 1.5, "seed"), (5, -1, "seed"), (5, None, "seed"), (5, "1", "seed")],
    )
    def test_bad_arguments_name_themselves_before_drawing(self, monkeypatch, n, seed, name):
        d = new_wright_poisson(1.0, 1.0, 4.0)

        def forbidden(*args, **kwargs):
            raise AssertionError("sample drew before checking its arguments")

        monkeypatch.setattr(distribution.np.random, "default_rng", forbidden)
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            d.sample(n, seed)

    def test_numpy_integer_arguments(self):
        d = new_wright_poisson(1.0, 1.0, 4.0)
        batch = d.sample(np.int64(50), np.int32(5))
        assert batch.n == 50 and batch.seed == 5 and type(batch.seed) is int
        assert np.array_equal(batch.values, d.sample(50, 5).values)


class TestLargeRate:
    """Poisson rates of 200 and where pmf(0) underflows; m = 4999 also has a
    log Z whose last-ulp rounding leaves the pmf total short of 1 - 1e-13."""

    @pytest.mark.parametrize("m", [200, 4999, 5000])
    def test_cdf_at_the_mean(self, m):
        d = new_wright_poisson(1.0, 1.0, float(m))
        assert d.log_normalizer == pytest.approx(m, rel=1e-14)
        assert abs(float(np.sum(d.support_pmf())) - 1.0) <= 1e-12
        assert d.cdf(m) == pytest.approx(stats.poisson.cdf(m, m), rel=1e-12)

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


def _reference_log_z(a, b, m, terms=20_000):
    """log Z from gammaln and logsumexp over a fixed, generous range."""
    k = np.arange(terms)
    return float(logsumexp(k * math.log(m) - gammaln(a * k + b)))


class TestNormalizerWindow:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("m", [0.1, 1.0, 5.0, 30.0])
    def test_loose_rel_tol_still_normalizes(self, a, b, m):
        # rel_tol bounds the normalizer's error, and the table is normalized
        # by the same window's sum, so the pmf total stays at 1
        d = new_wright_poisson(a, b, m, SeriesControl(rel_tol=1e-6))
        assert abs(float(np.sum(d.support_pmf())) - 1.0) <= 1e-10
        assert abs(d.log_normalizer - _reference_log_z(a, b, m)) <= 1e-6

    @settings(max_examples=25, deadline=None)
    @given(a=_shape, b=_shape, m=_rate)
    def test_log_normalizer_against_reference(self, a, b, m):
        # abs guards log Z = 0, where Z = 1 and a relative error means nothing
        assert new_wright_poisson(a, b, m).log_normalizer == pytest.approx(
            _reference_log_z(a, b, m), rel=1e-14, abs=1e-15
        )

    @pytest.mark.parametrize(
        "args,message",
        # the terms peak near k = 5^10 / 0.1, and past any float at alpha =
        # 1e-10; Poisson(30)'s table ends past 40
        [((0.1, 1.0, 5.0), r"needs about 9.79e\+07 terms"),
         ((1e-10, 1.0, 2.0), r"needs about 1e\+300 terms"),
         ((1.0, 1.0, 30.0, SeriesControl(max_terms=40)), r"needs about \d+ terms, more than max_terms = 40")],
        ids=["far-peak", "overflowing-peak", "capped"],
    )
    def test_past_max_terms_names_the_terms(self, args, message):
        with pytest.raises(NonConvergenceError, match=message):
            new_wright_poisson(*args)

    def test_normalizer_below_the_float_range(self):
        # every 1 / Gamma(1e308 + k) underflows: log Z is about -7e310
        with pytest.raises(DomainError, match="normalizer"):
            new_wright_poisson(1.0, 1e308, 2.0)

    @pytest.mark.parametrize("alpha", [3e307, sys.float_info.max])
    def test_alpha_k_past_the_float_range_inside_the_window(self, alpha):
        # alpha k overflows inside the window, where the terms are 0; numpy's
        # overflow warning, an error under this suite's filter, stays off
        d = new_wright_poisson(alpha, 1.0, 1.0)
        assert d.log_normalizer == 0.0 and d.support_pmf().tolist() == [1.0]
        assert d.log_pmf(20) == -math.inf
        assert d.mean_series() == 0.0
        assert d.mgf(0.5) == 1.0

    @pytest.mark.parametrize("m", [1.0, 1e3])
    def test_log_pmf_ratios_at_the_largest_beta(self, m):
        # eps ln Gamma(3e5) = 7.7e-10 bounds the log-terms' rounding
        d = new_wright_poisson(1.0, 3e5, m)
        with mpmath.workdps(40):
            for r in range(1, 6):
                ref = r * mpmath.log(m) - mpmath.loggamma(3e5 + r) + mpmath.loggamma(3e5)
                assert abs(d.log_pmf(r) - d.log_pmf(0) - float(ref)) <= 1e-9

    def test_gamma_overflow_after_the_first_term(self):
        # Gamma(alpha k + 1) overflows for k >= 1: Z = 1 + 2 / inf
        d = new_wright_poisson(1e308, 1.0, 2.0)
        assert d.log_normalizer == 0.0 and d.support_pmf().tolist() == [1.0]

    @settings(max_examples=200, deadline=None)
    @given(
        a=_log_uniform(0.01, 200.0),
        b=_log_uniform(1e-4, 1e4),
        m=_log_uniform(1e-12, 1e6),
        rel_tol=st.sampled_from([1e-18, 1e-15, 1e-3, 0.5, 0.9]),
    )
    def test_one_window_per_call(self, a, b, m, rel_tol):
        # the window is sized once: it meets the tail bound, or it was capped
        # at max_terms and the kernel raises
        ctrl = SeriesControl(rel_tol=rel_tol, max_terms=10**6)
        sizes = []
        log_terms = distribution._log_terms

        def counting(alpha, beta, log_m, r):
            sizes.append(r.size)
            return log_terms(alpha, beta, log_m, r)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(distribution, "_log_terms", counting)
            try:
                log_z, _, lt, _, _ = distribution._window(a, b, math.log(m), ctrl)
            except NonConvergenceError:
                assert sizes == [ctrl.max_terms]
                return
        assert len(sizes) == 1
        assert distribution._log_tail(lt) - log_z <= math.log(rel_tol)

    def test_table_end_outside_its_window_is_typed(self, monkeypatch):
        # the kernel's window reaches as far below the peak as the end rule
        # needs, so the table takes that one window or raises
        sizes = []

        def no_end(pmf, cdf, log_z):
            sizes.append(pmf.size)
            return None

        monkeypatch.setattr(distribution, "_table_end", no_end)
        with pytest.raises(NonConvergenceError) as err:
            new_wright_poisson(0.793, 1.431, 19.0)
        assert len(sizes) == 1
        assert f"within its window of {sizes[0]} terms (max_terms = 10000)" in str(err.value)

    def test_table_past_max_terms_is_typed(self):
        # Poisson(30)'s normalizer needs about 110 terms by the tail bound,
        # so the kernel raises before the table's end rule is tried
        with pytest.raises(NonConvergenceError, match="more than max_terms = 80"):
            new_wright_poisson(1.0, 1.0, 30.0, SeriesControl(max_terms=80))

    def test_table_end_past_max_terms_is_typed(self):
        # 84 terms hold Poisson(30)'s normalizer to rel_tol, and its table
        # ends at r = 83, whose tail bound needs the term at 84
        with pytest.raises(
            NonConvergenceError,
            match=r"end rule does not hold within its window of 84 terms \(max_terms = 84\)",
        ):
            new_wright_poisson(1.0, 1.0, 30.0, SeriesControl(max_terms=84))
        table = new_wright_poisson(1.0, 1.0, 30.0, SeriesControl(max_terms=85)).support_pmf()
        assert table.tolist() == new_wright_poisson(1.0, 1.0, 30.0).support_pmf().tolist()
        assert table.size == 84

    @pytest.mark.parametrize(
        "a,b,m", [(1.0, 1.0, 30.0), (0.793, 1.431, 19.0), (0.5, 0.5, 5.0), (2.0, 1.0, 0.1)]
    )
    def test_table_end_rule(self, a, b, m):
        # the first r whose cdf reaches the mass floor while the geometric
        # bound t[r+1] / (1 - rho), rho = t[r+1] / t[r] < 1, on the terms past
        # r is below 1e-15 Z, found by a plain loop
        d = new_wright_poisson(a, b, m)
        log_z = d.log_normalizer
        floor = 1.0 - 1e-13 - math.ulp(log_z)
        cdf = 0.0
        for r in range(d.support_pmf().size + 64):
            cdf += d.pmf(r)
            lt, lt_next = (k * math.log(m) - float(gammaln(a * k + b)) for k in (r, r + 1))
            rho = math.exp(lt_next - lt)
            if cdf >= floor and rho < 1.0 and math.exp(lt_next - log_z) / (1.0 - rho) < 1e-15:
                break
        assert d.support_pmf().size == r + 1

    def test_poisson_table_inside_a_short_window(self):
        # the terms past Poisson(4)'s 29-entry table fall geometrically, so
        # a 40-term window holds its end
        d = new_wright_poisson(1.0, 1.0, 4.0, SeriesControl(max_terms=40))
        r = np.arange(d.support_pmf().size)
        assert r.size == 29
        assert d.support_pmf() == pytest.approx(stats.poisson.pmf(r, 4.0), rel=1e-12, abs=0)
        assert [d.cdf(k) for k in r] == pytest.approx(stats.poisson.cdf(r, 4.0), rel=1e-12, abs=0)

    @settings(max_examples=200, deadline=None)
    @given(a=_log_uniform(*SHAPE_BOX), b=_log_uniform(*SHAPE_BOX), m=_log_uniform(1e-3, 500.0))
    # a 9290-entry table, whose tail falls slowly past the mass floor
    @example(a=0.13426544979020233, b=0.12320118550559182, m=2.524783089897609)
    def test_mass_past_the_table(self, a, b, m):
        try:
            d = new_wright_poisson(a, b, m)
        except NonConvergenceError:  # the terms peak past max_terms
            assume(False)
        end = d.support_pmf().size
        k = np.arange(end, 4 * end + 64)
        log_past = k * math.log(m) - gammaln(a * k + b) - d.log_normalizer
        # the brute-force range holds every term that counts
        assert log_past[-1] < math.log(1e-30)
        assert math.exp(logsumexp(log_past)) <= distribution._TAIL_ATOL

    def test_pmf_matches_table(self):
        d = new_wright_poisson(0.793, 1.431, 19.0)
        table = d.support_pmf()
        # math.exp and numpy's exp may round the same log apart by an ulp
        assert [d.pmf(r) for r in range(table.size)] == pytest.approx(table, rel=1e-15)


class TestArguments:
    @pytest.mark.parametrize("r", [2.5, math.nan, math.inf, -math.inf])
    def test_pmf_needs_a_finite_integer(self, r):
        d = new_wright_poisson(1.0, 1.0, 3.0)
        for query in (d.pmf, d.log_pmf):
            with pytest.raises(DomainError, match=f"got {r!r}"):
                query(r)

    def test_pmf_accepts_integral_values(self):
        d = new_wright_poisson(1.0, 1.0, 3.0)
        want = 4.5 * math.exp(-3.0)
        for r in (2, 2.0, np.int64(2), np.float32(2.0)):
            assert d.pmf(r) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize(
        "call,name",
        [(lambda: new_wright_poisson(1.0, 1.0, 10**400), "m"),
         (lambda: new_wright_poisson(10**400, 1.0, 1.0), "alpha"),
         (lambda: new_wright_poisson(1.0, 1.0, 3.0).mgf(10**400), "t"),
         (lambda: new_wright_poisson(1.0, 1.0, 3.0).mgf(-(10**400)), "t"),
         (lambda: mittag_leffler2(1.0, 1.0, 10**400), "z"),
         (lambda: WrightSpec([(1.0, 1.0)], [(1.0, 1.0)], z=10**400), "z"),
         (lambda: log_gamma(10**400), "x")],
        ids=["m", "alpha", "mgf", "mgf-negative", "mittag_leffler2", "WrightSpec", "log_gamma"],
    )
    def test_argument_past_every_float_is_typed(self, call, name):
        # no float holds 10**400: a DomainError names the argument, where
        # converting it would raise a bare OverflowError
        with pytest.raises(DomainError, match=f"^{name} is beyond the float range"):
            call()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["alpha", "beta", "m"])
    def test_non_finite_parameter_names_its_value(self, name, value):
        args = {"alpha": 1.0, "beta": 1.0, "m": 3.0, name: value}
        with pytest.raises(DomainError, match=f"^{name} must be > 0 and finite, got {value}$"):
            new_wright_poisson(**args)

    def test_integer_past_every_float(self):
        # 10**400 cannot be converted to a float, but is a valid count
        d = new_wright_poisson(1.0, 1.0, 3.0)
        assert d.pmf(10**400) == 0.0
        assert d.log_pmf(10**400) == -math.inf
        assert d.cdf(10**400) == np.cumsum(d.support_pmf())[-1] == d.cdf(10**9)

    @pytest.mark.parametrize("r", [1e308, 10**308], ids=["1e308", "10**308"])
    def test_r_where_every_log_term_overflows(self, r):
        # r log m and ln Gamma(r + 1) both overflow; mpmath puts the
        # log-pmf at -7.0428e310, below every float
        d = new_wright_poisson(1.0, 1.0, 50.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert d.log_pmf(r) == -math.inf
            assert d.pmf(r) == 0.0

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_cdf_needs_a_finite_r(self, r):
        with pytest.raises(DomainError, match="finite"):
            new_wright_poisson(1.0, 1.0, 3.0).cdf(r)

    @pytest.mark.parametrize("m", [np.int64(5), np.float32(2.5), np.float64(0.5)])
    def test_numpy_scalar_parameters(self, m):
        want = new_wright_poisson(1.0, 1.0, float(m)).log_normalizer
        assert new_wright_poisson(1.0, 1.0, m).log_normalizer == want
        assert new_wright_poisson(np.float32(1.0), np.int64(1), m).log_normalizer == want

    @pytest.mark.parametrize(
        "args,name", [((1.0, 1.0, "5"), "str"), ((1.0, 1j, 5.0), "complex"),
                      ((None, 1.0, 5.0), "NoneType")]
    )
    def test_non_real_parameters_name_the_type(self, args, name):
        with pytest.raises(DomainError, match=f"got {name}"):
            new_wright_poisson(*args)


# corners and middle of the fit's shape box, m up to 200, and the Poisson line
_TABLE_POINTS = [(0.1, 0.1, 0.5), (0.1, 10.0, 1.0), (10.0, 0.1, 200.0),
                 (10.0, 10.0, 200.0), (0.5, 2.0, 30.0), (3.0, 0.3, 150.0),
                 (1.0, 1.0, 0.1), (1.0, 1.0, 4.0), (1.0, 1.0, 200.0)]


class TestTableReads:
    """Inside the table, pmf, log_pmf, cdf and quantile read lists of Python
    floats built at construction; their answers are those of the direct
    formula and of a numpy search, bit for bit."""

    @pytest.mark.parametrize("a, b, m", _TABLE_POINTS)
    def test_log_pmf_is_the_direct_formula(self, a, b, m):
        d = new_wright_poisson(a, b, m)
        for r in range(d.support_pmf().size + 20):
            assert d.log_pmf(r) == r * math.log(m) - gammaln(a * r + b) - d.log_normalizer, r

    @pytest.mark.parametrize("a, b, m", _TABLE_POINTS)
    def test_cdf_is_the_cumulative_sum(self, a, b, m):
        d = new_wright_poisson(a, b, m)
        cdf = np.cumsum(d.support_pmf())
        assert [d.cdf(r) for r in range(cdf.size + 5)] == cdf.tolist() + [cdf[-1]] * 5

    @pytest.mark.parametrize("a, b, m", _TABLE_POINTS)
    def test_quantile_is_the_left_search(self, a, b, m):
        d = new_wright_poisson(a, b, m)
        cdf = np.cumsum(d.support_pmf())
        ties = [p for p in cdf.tolist() if p < 1.0]
        for p in np.random.default_rng(8).random(500).tolist() + ties:
            want = int(np.searchsorted(cdf, p, "left"))
            if want == cdf.size:
                with pytest.raises(NonConvergenceError):
                    d.quantile(p)
            else:
                assert d.quantile(p) == want, p

    def test_no_numpy_call_inside_the_table(self, monkeypatch):
        d = new_wright_poisson(0.793, 1.431, 19.0)
        size = d.support_pmf().size
        queries = [(d.pmf, range(size)), (d.log_pmf, range(size)),
                   (d.cdf, range(size + 5)), (d.quantile, [0.0, 0.3, 0.5, 0.999])]
        want = [[query(x) for x in xs] for query, xs in queries]

        def forbidden(*args, **kwargs):
            raise AssertionError("a scalar query inside the table called numpy")

        monkeypatch.setattr(np, "searchsorted", forbidden)
        monkeypatch.setattr(distribution.sc, "gammaln", forbidden)
        assert [[query(x) for x in xs] for query, xs in queries] == want
        with pytest.raises(AssertionError, match="called numpy"):
            d.log_pmf(len(d._log_pmf_list))  # past the window, the direct formula

    @pytest.mark.parametrize("a, b, m", [(0.793, 1.431, 19.0), (0.1, 0.1, 0.5), (10.0, 0.1, 200.0)])
    def test_past_the_table_sets_no_floating_point_state(self, monkeypatch, a, b, m):
        # at r = 10^308, ln Gamma(alpha r + beta) overflows, and so does
        # r log m where m > 1
        d = new_wright_poisson(a, b, m)
        size = d.support_pmf().size
        rs = [size, size + 7, 10 * size, 10**6, 10**308]
        want = [d.log_pmf(r) for r in rs]

        def forbidden(*args, **kwargs):
            raise AssertionError("log_pmf past the table entered np.errstate")

        monkeypatch.setattr(np, "errstate", forbidden)
        assert [d.log_pmf(r) for r in rs] == want
        assert want[-1] == -math.inf


def _clamped_search(cdf, u):
    return np.minimum(cdf.searchsorted(u, "left"), cdf.size - 1).astype(np.int64)


# tables of 1, 2 and 3 entries; a last cdf point alone in its bucket, two
# ulps below 1, past which the lookup must clamp; cdf tails flat at 0
# (pmf(0) underflows) and at the end, below and above 1; the Poisson line
_SAMPLE_POINTS = [(0.1, 0.1, 1e-300), (0.1, 0.1, 1e-8), (3.0, 3.0, 0.001),
                  (30.0, 1.0, 7.957585794365732e+32),
                  (0.5, 0.1, 30.0), (0.21796362590946003, 8.923726620602409, 5.062433677111769),
                  (0.20050294587726017, 1.7684290186896696, 2.8751115637128803),
                  (1.0, 1.0, 0.1), (1.0, 1.0, 4.0), (1.0, 1.0, 229.74723709536468),
                  (1.0, 1.0, 1000.0)]


class TestGuideTable:
    """sample inverts the cdf through a guide table; each draw is the left
    search of its uniform in the cdf, clamped to the last support point."""

    def test_points_cover_short_tables_lone_ends_and_flat_tails(self):
        sizes, lone_end, flat_start, flat_end = set(), False, False, set()
        for point in _SAMPLE_POINTS:
            d = new_wright_poisson(*point)
            cdf = np.cumsum(d.support_pmf())
            buckets = d._guide[0].size
            sizes.add(cdf.size)
            lone_end |= np.nextafter(cdf[-1], 2.0) < 1.0 and int(cdf[-2] * buckets) < int(cdf[-1] * buckets)
            flat_start |= cdf.size > 1 and cdf[0] == cdf[1] == 0.0
            if cdf.size > 2 and cdf[-1] == cdf[-3]:
                flat_end.add(cdf[-1] < 1.0)
        assert {1, 2, 3} <= sizes and lone_end and flat_start and flat_end == {False, True}

    @settings(max_examples=60, deadline=None)
    @given(point=st.sampled_from(_SAMPLE_POINTS), n=st.sampled_from([1, 1000, 100_000]),
           seed=st.integers(0, 2**63))
    def test_sample_is_the_clamped_search(self, point, n, seed):
        d = new_wright_poisson(*point)
        cdf = np.cumsum(d.support_pmf())
        values = d.sample(n, seed).values
        assert values.dtype == np.int64
        assert np.array_equal(values, _clamped_search(cdf, np.random.default_rng(seed).random(n)))

    @pytest.mark.parametrize("point", _SAMPLE_POINTS)
    def test_lookup_at_every_edge(self, point):
        d = new_wright_poisson(*point)
        cdf = np.cumsum(d.support_pmf())
        buckets = d._guide[0].size
        assert buckets & (buckets - 1) == 0
        edges = np.arange(buckets) / buckets
        u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0), edges,
                            np.nextafter(edges, -1.0), [0.0, np.nextafter(cdf[-1], 2.0),
                                                        np.nextafter(1.0, 0.0)]])
        u = u[(u >= 0.0) & (u < 1.0)]
        assert np.array_equal(d._search(u), _clamped_search(cdf, u))

    def test_guide_is_built_on_the_first_sample(self):
        d = new_wright_poisson(1.0, 1.0, 4.0)
        assert "_guide" not in vars(d)
        d.sample(10, 1)
        assert "_guide" in vars(d)


class TestPastTheTable:
    """Past the table, log_pmf and pmf read the window [0, K) that
    construction summed; past the window, the scalar formula. expectation
    reads the window and evaluates log-terms only from K."""

    @pytest.mark.parametrize("a, b, m", _TABLE_POINTS)
    def test_window_past_the_table_is_the_direct_formula_with_no_gammaln_call(
            self, monkeypatch, a, b, m):
        d = new_wright_poisson(a, b, m)
        size, window = d.support_pmf().size, len(d._log_pmf_list)
        assert window > size
        want = [r * math.log(m) - gammaln(a * r + b) - d.log_normalizer
                for r in range(size, window)]

        def forbidden(*args, **kwargs):
            raise AssertionError("a query inside the window called gammaln")

        monkeypatch.setattr(distribution.sc, "gammaln", forbidden)
        assert [d.log_pmf(r) for r in range(size, window)] == want
        assert [d.pmf(r) for r in range(size, window)] == [math.exp(x) for x in want]

    @pytest.mark.parametrize("a, b, m", _TABLE_POINTS)
    def test_past_the_window_one_scalar_gammaln_call_per_query(self, monkeypatch, a, b, m):
        d = new_wright_poisson(a, b, m)
        window = len(d._log_pmf_list)
        calls = []

        def counted(x):
            calls.append(np.size(x))
            return gammaln(x)

        monkeypatch.setattr(distribution.sc, "gammaln", counted)
        rs = range(window, 4 * window + 64)
        want = [r * math.log(m) - gammaln(a * r + b) - d.log_normalizer for r in rs]
        assert [d.log_pmf(r) for r in rs] == want
        assert [d.pmf(r) for r in rs] == [math.exp(x) for x in want]
        assert calls == [1] * (2 * len(rs))

    @pytest.mark.parametrize("a, b, m", [(0.793, 1.431, 19.0), (0.5, 0.5, 5.0), (1.0, 1.0, 200.0)])
    def test_series_moments_evaluate_no_log_term(self, monkeypatch, a, b, m):
        d = new_wright_poisson(a, b, m)
        want = d.mean_series(), d.second_moment_series()

        def forbidden(*args):
            raise AssertionError("a series moment evaluated a log-term the window holds")

        monkeypatch.setattr(distribution, "_log_terms", forbidden)
        assert (d.mean_series(), d.second_moment_series()) == want

    @pytest.mark.parametrize("a, b, m", [(0.793, 1.431, 19.0), (0.5, 0.5, 5.0), (1.0, 1.0, 200.0)])
    def test_growing_weight_starts_its_first_chunk_at_the_window_end(self, monkeypatch, a, b, m):
        d = new_wright_poisson(a, b, m)
        firsts = []
        original = distribution._log_terms

        def recording(alpha, beta, log_m, r):
            firsts.append(int(r[0]))
            return original(alpha, beta, log_m, r)

        monkeypatch.setattr(distribution, "_log_terms", recording)
        d.expectation(lambda r: math.exp(0.5 * r))
        assert firsts[:1] == [len(d._log_pmf_list)]
        assert firsts[0] > d.support_pmf().size

    def test_formula_where_alpha_r_overflows(self):
        # alpha * 17 overflows a float; the table has one entry and the
        # scalar formula answers every r past the window
        d = new_wright_poisson(1.1e307, 1.0, 1.0)
        assert d.support_pmf().size == 1
        assert d.log_pmf(17) == -math.inf


class TestOneExponentialRule:
    """Every probability the distribution reads is pmf(r), math.exp of its
    own log-pmf: the table, the cdf as its in-order running sum, and every
    term expectation sums, inside the window and past it."""

    @settings(max_examples=100, deadline=None)
    @given(a=_log_uniform(*SHAPE_BOX), b=_log_uniform(*SHAPE_BOX), m=_log_uniform(0.01, 200.0))
    # expectation of e^{r/2} runs past the window here (see TestPastTheTable)
    @example(a=0.793, b=1.431, m=19.0)
    def test_table_cdf_and_expectation_read_pmf(self, a, b, m):
        try:
            d = new_wright_poisson(a, b, m)
        except NonConvergenceError:  # the terms peak past max_terms
            assume(False)
        size = d.support_pmf().size
        pmf = [d.pmf(r) for r in range(size)]
        assert d.support_pmf().tolist() == pmf
        assert [d.cdf(r) for r in range(size)] == list(itertools.accumulate(pmf))

        visited = []

        def weight(r):
            visited.append((r, math.exp(0.5 * r)))
            return visited[-1][1]

        try:
            got = d.expectation(weight)
        except (NonConvergenceError, OverflowError):  # e^{r/2} outgrows the law
            assume(False)
        assert [r for r, _ in visited] == list(range(len(visited)))
        want = 0.0
        for r, w in visited:
            want += w * d.pmf(r)
        assert got == want
