import dataclasses
import inspect
import math
import re

import mpmath
import numpy as np
import pytest
from scipy import special as sc

import wright_poisson
from wright_poisson import special
from wright_poisson.special import (
    DomainError,
    NonConvergenceError,
    SeriesControl,
    SeriesDivergenceWarning,
    WrightSpec,
    log_gamma,
    mittag_leffler,
    mittag_leffler2,
    mittag_leffler3,
    wright_convergence_index,
    wright_series,
    wright_term,
)


class TestLogGamma:
    def test_trivial_values(self):
        assert log_gamma(1.0) == 0.0
        assert log_gamma(2.0) == 0.0

    def test_half(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15)

    def test_reference_grid(self):
        # relative accuracy <= 1e-13 across [1e-3, 1e3]
        for x in np.logspace(-3, 3, 61):
            ref = float(mpmath.loggamma(mpmath.mpf(float(x))))
            if abs(ref) > 1e-10:
                assert log_gamma(float(x)) == pytest.approx(ref, rel=1e-13)
            else:
                assert log_gamma(float(x)) == pytest.approx(ref, abs=1e-14)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.nan, math.inf])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)


class TestConvergenceIndex:
    def test_distribution_series(self):
        spec = WrightSpec([(1, 1)], [(0.7, 0.4)], 1.0)
        assert wright_convergence_index(spec) == pytest.approx(0.4 - 1.0)

    def test_empty(self):
        assert wright_convergence_index(WrightSpec([], [], 1.0)) == 0.0

    def test_second_moment_series(self):
        spec = WrightSpec([(1, 1), (1, 1)], [(-1, 1), (0.7, 0.4)], 1.0)
        assert wright_convergence_index(spec) == pytest.approx(0.4 - 1.0)


class TestWrightSeries:
    def test_exponential(self):
        res = wright_series(WrightSpec([(1, 1)], [(1, 1)], 1.0))
        assert res.value == pytest.approx(math.e, rel=1e-14)
        assert res.converged

    def test_classical_normalizer(self):
        res = wright_series(WrightSpec([(1, 1)], [(1, 1)], 1.0))
        assert res.value == pytest.approx(math.e, rel=1e-14)

    def test_second_moment_leading_terms_vanish(self):
        spec = WrightSpec([(1, 1), (1, 1)], [(-1, 1), (2.0, 0.5)], 1.0)
        assert wright_term(spec, 0) == 0.0
        assert wright_term(spec, 1) == 0.0
        assert wright_term(spec, 2) != 0.0

    def test_second_moment_series_matches_r2_sum(self):
        # sum_{k>=2} k(k-1) m^k / (Gamma(a k + b) k!) done by hand
        a, b, m = 0.5, 2.0, 1.5
        spec = WrightSpec([(1, 1), (1, 1)], [(-1, 1), (b, a)], m)
        res = wright_series(spec)
        brute = sum(
            k * (k - 1) * math.exp(k * math.log(m) - log_gamma(a * k + b))
            for k in range(2, 200)
        )
        assert res.value == pytest.approx(brute, rel=1e-13)

    def test_negative_z_alternating(self):
        res = wright_series(WrightSpec([(1, 1)], [(1, 1)], -2.0))
        assert res.value == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert math.isnan(res.log_value) or res.value > 0

    def test_zero_argument(self):
        res = wright_series(WrightSpec([(1.5, 1)], [(2.0, 0.7)], 0.0))
        assert res.value == pytest.approx(
            math.exp(log_gamma(1.5) - log_gamma(2.0)), rel=1e-14
        )

    def test_upper_pole_is_domain_error(self):
        with pytest.raises(DomainError):
            wright_series(WrightSpec([(0.0, 1)], [(1, 1)], 1.0))

    def test_divergence_boundary_warns(self):
        spec = WrightSpec([(1, 1)], [], 0.5)  # index -1, geometric series
        with pytest.warns(SeriesDivergenceWarning):
            res = wright_series(spec)
        assert res.value == pytest.approx(2.0, rel=1e-12)

    def test_non_convergence_raises(self):
        ctrl = SeriesControl(max_terms=10)
        with pytest.raises(NonConvergenceError):
            wright_series(WrightSpec([(1, 1)], [(1, 1)], 50.0), ctrl)

    def test_large_argument_log_value(self):
        # normalizer far beyond linear overflow still has a finite log
        res = wright_series(WrightSpec([(1, 1)], [(1.0, 1.0)], 800.0))
        assert res.log_value == pytest.approx(800.0, rel=1e-12)

    def test_truncation_soundness(self):
        base = SeriesControl(rel_tol=1e-10)
        tight = SeriesControl(rel_tol=5e-11, max_terms=20000)
        for z in (0.5, 2.0, -1.5):
            spec = WrightSpec([(1, 1)], [(1.2, 0.8)], z)
            a = wright_series(spec, base).value
            b = wright_series(spec, tight).value
            assert abs(a - b) <= 10 * base.rel_tol * abs(b)

    def test_log_linear_consistency(self):
        for z in (0.1, 1.0, 5.0, 30.0):
            res = wright_series(WrightSpec([(1, 1)], [(1.3, 0.6)], z))
            if 1e-300 < res.value < 1e300:
                assert abs(math.exp(res.log_value) - res.value) <= 4 * math.ulp(
                    res.value
                )


class TestMittagLeffler:
    def test_alpha_one_is_exp(self):
        for z in (-1.5, 0.3, 2.0):
            assert mittag_leffler(1.0, z).value == pytest.approx(
                math.exp(z), rel=1e-13
            )

    def test_cosh(self):
        assert mittag_leffler(2.0, 1.0).value == pytest.approx(
            math.cosh(1.0), rel=1e-14
        )

    def test_zero(self):
        assert mittag_leffler(0.5, 0.0).value == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            mittag_leffler(0.0, 1.0)
        with pytest.raises(DomainError):
            mittag_leffler(-1.0, 1.0)

    def test_two_parameter_reduction(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.uniform(0.15, 3.0)
            z = rng.uniform(-2.0, 2.0)
            got = mittag_leffler2(a, 1.0, z).value
            want = mittag_leffler(a, z).value
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_e12(self):
        assert mittag_leffler2(1.0, 2.0, 1.0).value == pytest.approx(
            math.e - 1.0, rel=1e-14
        )

    def test_shifted_beta_zero(self):
        # k=0 term dies at the Gamma(0) pole; remainder sums to e
        assert mittag_leffler2(1.0, 0.0, 1.0).value == pytest.approx(
            math.e, rel=1e-14
        )

    def test_three_parameter_reduction(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = rng.uniform(0.15, 3.0)
            b = rng.uniform(0.15, 3.0)
            z = rng.uniform(-2.0, 2.0)
            got = mittag_leffler3(a, b, 1.0, z).value
            want = mittag_leffler2(a, b, z).value
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_prabhakar_chain_to_exp(self):
        assert mittag_leffler3(1.0, 1.0, 1.0, 1.0).value == pytest.approx(
            math.e, rel=1e-14
        )

    def test_prabhakar_at_zero(self):
        assert mittag_leffler3(0.7, 1.3, 2.5, 0.0).value == pytest.approx(
            1.0 / math.gamma(1.3), rel=1e-14
        )

    def test_wright_ml_equivalence(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = rng.uniform(0.15, 3.0)
            b = rng.uniform(0.15, 3.0)
            z = rng.uniform(-2.0, 2.0)
            w = wright_series(WrightSpec([(1, 1)], [(b, a)], z)).value
            e = mittag_leffler3(a, b, 1.0, z).value
            assert w == pytest.approx(e, rel=1e-12, abs=1e-15)


def _ml2_reference(a, b, z, terms):
    """E_{a,b}(z) summed in 40-digit arithmetic; rgamma is 0 at poles."""
    with mpmath.workdps(40):
        return mpmath.fsum(
            mpmath.mpf(z) ** k * mpmath.rgamma(mpmath.mpf(a) * k + b)
            for k in range(terms)
        )


class TestBlockEvaluator:
    @pytest.mark.parametrize(
        "a,b,z,terms",
        [(1.0, 1.0, 700.0, 919), (0.793, 1.431, 76.0, 463)],
    )
    def test_long_series_against_mpmath(self, a, b, z, terms):
        # both sums run past several doublings of the first block
        res = mittag_leffler2(a, b, z)
        assert res.terms_used == terms
        ref = _ml2_reference(a, b, z, 2 * terms)
        assert res.log_value == pytest.approx(float(mpmath.log(ref)), rel=1e-14)

    @pytest.mark.parametrize("a,b,z", [(1.0, -1.0, 2.0), (0.5, -1.0, 1.5), (0.5, 0.0, 3.0)])
    def test_lower_pole_terms_vanish(self, a, b, z):
        ref = float(_ml2_reference(a, b, z, 400))
        assert mittag_leffler2(a, b, z).value == pytest.approx(ref, rel=1e-13)

    def test_prabhakar_weights_die_after_k2(self):
        # (-2)_k = 0 for k >= 3: three terms remain
        a, b, z = 0.7, 1.3, 1.5
        want = (
            mpmath.rgamma(b)
            - 2 * z * mpmath.rgamma(a + b)
            + z * z * mpmath.rgamma(2 * a + b)
        )
        assert mittag_leffler3(a, b, -2.0, z).value == pytest.approx(
            float(want), rel=1e-14
        )

    @pytest.mark.parametrize("pole", [20.0, 50.0])
    def test_upper_pole_after_stop_is_not_reached(self, pole):
        spec = WrightSpec([(pole, -1.0)], [(1.0, 1.0)], 0.1)
        res = wright_series(spec)
        assert res.terms_used < pole
        with mpmath.workdps(40):
            ref = mpmath.fsum(
                mpmath.gamma(pole - k) / mpmath.factorial(k) ** 2 * mpmath.mpf("0.1") ** k
                for k in range(int(pole))
            )
        # exp of a log near 145 carries about 145 ulp(1) of relative error
        assert res.value == pytest.approx(float(ref), rel=1e-13)

    def test_upper_pole_before_stop_raises(self):
        with pytest.raises(DomainError):
            wright_series(WrightSpec([(5.0, -1.0)], [(1.0, 1.0)], 0.1))


class TestNonFiniteArgument:
    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_mittag_leffler2(self, z):
        with pytest.raises(DomainError, match="z must be finite"):
            mittag_leffler2(0.5, 1.0, z)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_mittag_leffler3(self, z):
        with pytest.raises(DomainError, match="z must be finite"):
            mittag_leffler3(0.5, 1.0, 2.0, z)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_wright_spec(self, z):
        with pytest.raises(DomainError, match="z must be finite"):
            WrightSpec([(1.0, 1.0)], [(1.0, 1.0)], z)

    @pytest.mark.parametrize(
        "call, name",
        [(lambda: mittag_leffler2(1, 10**400, 1), "beta"),
         (lambda: mittag_leffler2(10**400, 1, 1), "alpha"),
         (lambda: mittag_leffler3(1, 1, 10**400, 1), "gamma"),
         (lambda: mittag_leffler(10**400, 1), "alpha"),
         (lambda: WrightSpec([(10**400, 1)], [(1, 1)], 1), "upper a"),
         (lambda: WrightSpec([(1, 10**400)], [(1, 1)], 1), "upper alpha"),
         (lambda: WrightSpec([(1, 1)], [(1, 10**400)], 1), "lower beta")],
        ids=["ml2-beta", "ml2-alpha", "ml3-gamma", "ml-alpha", "spec-a", "spec-alpha",
             "spec-beta"],
    )
    def test_integer_past_every_float_is_typed(self, call, name):
        # float(10**400) raises OverflowError; the DomainError names the argument
        with pytest.raises(DomainError, match=f"^{name} is beyond the float range$"):
            call()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "call, name",
        [(lambda x: mittag_leffler(x, 0.5), "alpha"),
         (lambda x: mittag_leffler2(x, 1.0, 0.5), "alpha"),
         (lambda x: mittag_leffler3(x, 1.0, 1.0, 0.5), "alpha"),
         (lambda x: WrightSpec([(x, 1.0)], [(1.0, 1.0)], 0.5), "upper a"),
         (lambda x: WrightSpec([(1.0, 1.0)], [(x, 1.0)], 0.5), "lower b")],
        ids=["ml-alpha", "ml2-alpha", "ml3-alpha", "spec-a", "spec-b"],
    )
    def test_non_finite_shape_is_typed(self, call, name, value):
        # before the series sums: alpha = inf made numpy warn of an invalid
        # product, and a = inf or b = inf built a WrightSpec
        with pytest.raises(DomainError, match=f"^{name} must be finite$"):
            call(value)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, -(10**300)])
    def test_finite_alpha_not_above_zero_keeps_its_message(self, alpha):
        for name, call in [("mittag_leffler", lambda: mittag_leffler(alpha, 0.5)),
                           ("mittag_leffler2", lambda: mittag_leffler2(alpha, 1.0, 0.5)),
                           ("mittag_leffler3", lambda: mittag_leffler3(alpha, 1.0, 1.0, 0.5))]:
            with pytest.raises(DomainError, match=f"^{name} requires alpha > 0$"):
                call()


class TestSizedFirstBlock:
    """_term_window sizes the normalizer's windows from the terms' peak; the
    window it gives must reach as far below the peak as asked."""

    def test_window_is_never_short(self):
        # the estimate reaches at least to where the terms lie `drop` nats
        # below their peak, over a grid that spans four decades of each shape
        for a in np.geomspace(0.1, 10.0, 9):
            for b in np.geomspace(0.1, 10.0, 9):
                for z in np.geomspace(1e-3, 1e4, 12):
                    for drop in (20.0, 45.0):
                        end = special._term_window(a, b, math.log(z), drop)
                        if end > 1e5:
                            continue
                        k = np.arange(math.ceil(end) + 1)
                        logt = k * math.log(z) - sc.gammaln(a * k + b)
                        assert logt[-1] <= logt.max() - drop, (a, b, z, drop)


class TestSeriesControl:
    def test_settable_fields(self):
        assert [f.name for f in dataclasses.fields(SeriesControl)] == ["rel_tol", "max_terms"]

    def test_public_callables_default_to_one_control(self):
        checked = set()
        for name in wright_poisson.__all__:
            obj = getattr(wright_poisson, name)
            if isinstance(obj, type) or not callable(obj):
                continue
            params = inspect.signature(obj).parameters
            if "ctrl" in params:
                assert params["ctrl"].default is special._DEFAULT_CTRL, name
                checked.add(name)
        assert {"new_wright_poisson", "log_likelihood", "fit_m", "fit_full"} <= checked

    @pytest.mark.parametrize("max_terms", [100.5, 7, 0, -1, True, "100", None])
    def test_max_terms_must_be_an_integer_of_at_least_8(self, max_terms):
        with pytest.raises(DomainError, match=re.escape(f"max_terms must be an integer >= 8, got {max_terms!r}")):
            SeriesControl(max_terms=max_terms)

    @pytest.mark.parametrize("max_terms", [8, np.int64(100)])
    def test_integral_max_terms_sums(self, max_terms):
        ctrl = SeriesControl(max_terms=max_terms)
        assert mittag_leffler2(1.0, 1.0, 1e-3, ctrl).value == pytest.approx(math.exp(1e-3), rel=1e-15)
