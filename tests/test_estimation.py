import math

import numpy as np
import pytest

from wright_poisson.distribution import new_wright_poisson
from wright_poisson.estimation import (
    CountData,
    DegenerateDataError,
    ParseError,
    fit_full,
    fit_m,
    load_counts,
    log_likelihood,
)
from wright_poisson.special import NonConvergenceError


@pytest.fixture
def poisson4_data():
    rng = np.random.default_rng(314)
    return CountData.from_counts(rng.poisson(4.0, 20_000))


class TestLoadCounts:
    def test_plain_lines(self, tmp_path):
        f = tmp_path / "counts.txt"
        f.write_text("0\n2\n1\n")
        data = load_counts(str(f))
        assert data.counts.tolist() == [0, 2, 1]
        assert data.n == 3 and data.sum == 3 and data.sum_sq == 5

    def test_negative_names_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0\n1\n-1\n")
        with pytest.raises(ParseError, match="line 3"):
            load_counts(str(f))

    def test_non_integer_names_line(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0\n1.5\n")
        with pytest.raises(ParseError, match="line 2"):
            load_counts(str(f))

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.txt"
        f.write_text("\n\n")
        with pytest.raises(ParseError, match="empty"):
            load_counts(str(f))

    def test_csv_header_column(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("id,count\n1,3\n2,0\n3,7\n")
        data = load_counts(str(f), column="count")
        assert data.counts.tolist() == [3, 0, 7]

    def test_csv_missing_column(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("id,count\n1,3\n")
        with pytest.raises(ParseError, match="nope"):
            load_counts(str(f), column="nope")

    def test_tab_delimited_index(self, tmp_path):
        f = tmp_path / "data.tsv"
        f.write_text("a\tn\nx\t4\ny\t6\n")
        data = load_counts(str(f), column=1)
        assert data.counts.tolist() == [4, 6]


class TestCountData:
    def test_integral_floats_accepted(self):
        assert CountData.from_counts([1.0, 2.0, 0.0]).counts.tolist() == [1, 2, 0]

    @pytest.mark.parametrize("counts", [[1.7, 2.2], [1.0, math.nan], [math.inf]])
    def test_non_integer_floats_rejected(self, counts):
        with pytest.raises(ParseError):
            CountData.from_counts(counts)


class TestLogLikelihood:
    def test_classical_reduction(self):
        data = CountData.from_counts([0, 1, 3, 2, 2])
        m = 1.7
        ll = log_likelihood(data, 1.0, 1.0, m)
        ref = sum(
            r * math.log(m) - math.lgamma(r + 1.0) - m for r in data.counts
        )
        assert ll == pytest.approx(ref, rel=1e-12)

    def test_single_observation(self):
        d = new_wright_poisson(2.0, 1.0, 1.0)
        data = CountData.from_counts([3])
        assert log_likelihood(data, 2.0, 1.0, 1.0) == pytest.approx(
            d.log_pmf(3), rel=1e-13
        )

    def test_duplicate_doubles_contribution(self):
        one = CountData.from_counts([5])
        two = CountData.from_counts([5, 5])
        assert log_likelihood(two, 1.5, 1.0, 2.0) == pytest.approx(
            2.0 * log_likelihood(one, 1.5, 1.0, 2.0), rel=1e-13
        )


class TestFitM:
    def test_classical_mle_is_sample_mean(self, poisson4_data):
        res = fit_m(poisson4_data, 1.0, 1.0)
        assert res.converged
        assert res.profile == "m_only"
        assert res.m == pytest.approx(poisson4_data.mean, abs=1e-6)

    def test_all_zeros_hits_floor(self):
        data = CountData.from_counts([0] * 40)
        res = fit_m(data, 1.0, 1.0)
        assert res.m == pytest.approx(1e-8)
        assert not res.converged

    def test_order_invariance(self, poisson4_data):
        shuffled = CountData.from_counts(poisson4_data.counts[::-1].copy())
        a = fit_m(poisson4_data, 1.5, 2.0)
        b = fit_m(shuffled, 1.5, 2.0)
        assert a.m == b.m
        assert a.log_likelihood == b.log_likelihood

    def test_local_maximum(self, poisson4_data):
        res = fit_m(poisson4_data, 1.0, 1.0)
        at_hat = res.log_likelihood
        for bump in (0.9, 1.1):
            away = log_likelihood(poisson4_data, 1.0, 1.0, res.m * bump)
            assert away < at_hat

    def test_synthetic_recovery(self):
        gen = new_wright_poisson(2.0, 1.0, 3.0)
        data = CountData.from_counts(gen.sample(100_000, seed=7).values)
        res = fit_m(data, 2.0, 1.0)
        assert abs(res.m - 3.0) < 0.1


class TestFitMScoreEquation:
    """The rate MLE solves E[X] = sample mean (exponential family in log m)."""

    def test_converges_where_the_series_cliff_was_hit(self):
        # the normalizer needs about m^(1/alpha) / alpha terms: past the
        # term cap at m = 8 (twice the sample mean), well inside it at the root
        data = CountData.from_counts(np.random.default_rng(3).poisson(4.0, 10_000))
        alpha = 10 ** (-2 / 3)
        res = fit_m(data, alpha, 1.0)
        assert res.converged
        mean = new_wright_poisson(alpha, 1.0, res.m).mean_series()
        assert mean == pytest.approx(data.mean, rel=1e-9)

    @pytest.mark.parametrize(
        "alpha, beta, m",
        [
            (1.5, 2.0, 3.0),  # beta != 1
            (0.5, 2.5, 3.0),  # alpha < 1
            (0.3, 0.7, 2.0),  # alpha < 1, beta < 1
            (10.0, 1.0, 3e20),  # the mean is a staircase in log m
            (10.0, 0.5, 1e12),
        ],
    )
    def test_mean_at_fit_equals_sample_mean(self, alpha, beta, m):
        gen = new_wright_poisson(alpha, beta, m)
        data = CountData.from_counts(gen.sample(5_000, seed=5).values)
        res = fit_m(data, alpha, beta)
        assert res.converged
        mean = new_wright_poisson(alpha, beta, res.m).mean_series()
        assert mean == pytest.approx(data.mean, rel=1e-9)
        # a fit costs a handful of Newton steps, not dozens of evaluations
        assert res.iterations <= 10
        for bump in (1.0 - 1e-4, 1.0 + 1e-4):
            assert log_likelihood(data, alpha, beta, res.m * bump) < res.log_likelihood

    def test_root_below_floor_gives_floor(self):
        # at beta = 1e-6, E[X] is about 1e6 m, so the root lies near 1e-9
        data = CountData.from_counts([1] + [0] * 999)
        res = fit_m(data, 1.0, 1e-6)
        assert res.m == 1e-8
        assert not res.converged

    def test_small_rate_is_solved_to_relative_precision(self):
        # the root near 1e-6 sits far below an absolute tolerance of 1e-8
        data = CountData.from_counts([1] + [0] * 999)
        res = fit_m(data, 1.0, 1e-3)
        assert res.converged
        mean = new_wright_poisson(1.0, 1e-3, res.m).mean_series()
        assert mean == pytest.approx(data.mean, rel=1e-9)

    @pytest.mark.parametrize("counts", [[0, 1, 2, 3], [1] + [0] * 999])
    def test_rate_beyond_float_range_is_typed(self, counts):
        # at alpha = 200 the matching rate is near Gamma(201) * mean or above
        with pytest.raises(NonConvergenceError):
            fit_m(CountData.from_counts(counts), 200.0, 1.0)


class TestFitFull:
    def test_degenerate_data(self):
        with pytest.raises(DegenerateDataError):
            fit_full(CountData.from_counts([3, 3, 3, 3]))

    def test_nests_classical_fit(self, poisson4_data):
        classical = fit_m(poisson4_data, 1.0, 1.0)
        full = fit_full(poisson4_data)
        assert full.profile == "full"
        assert full.log_likelihood >= classical.log_likelihood - 1e-3

    def test_dominates_generating_parameters(self):
        gen = new_wright_poisson(1.5, 1.0, 2.0)
        data = CountData.from_counts(gen.sample(20_000, seed=11).values)
        full = fit_full(data)
        truth = log_likelihood(data, 1.5, 1.0, 2.0)
        assert full.log_likelihood >= truth - 1e-6


class TestFitFullProfileSearch:
    """The shape search follows the profile likelihood's gradient to its
    maximum and reports convergence from the projected gradient."""

    @pytest.mark.parametrize(
        "counts, alpha, beta",
        [
            # the nesting test's data: the optimum lies off any coarse grid
            (np.random.default_rng(314).poisson(4.0, 20_000), 1.04, 1.25),
            # underdispersed: the optimum lies on the box edge beta = 10
            (np.random.default_rng(5).binomial(10, 0.5, 10_000), 3.08, 10.0),
        ],
        ids=["nesting-data", "underdispersed"],
    )
    def test_reaches_the_optimum_and_converges(self, counts, alpha, beta):
        data = CountData.from_counts(counts)
        full = fit_full(data)
        assert full.converged
        assert full.log_likelihood >= fit_m(data, alpha, beta).log_likelihood

    def test_interior_optimum_is_a_local_maximum(self):
        gen = new_wright_poisson(1.5, 1.0, 2.0)
        data = CountData.from_counts(gen.sample(20_000, seed=11).values)
        full = fit_full(data)
        assert full.converged
        assert 0.1 < full.alpha < 10.0 and 0.1 < full.beta < 10.0
        for bump in (1.0 - 1e-3, 1.0 + 1e-3):
            for alpha, beta in ((full.alpha * bump, full.beta), (full.alpha, full.beta * bump)):
                assert fit_m(data, alpha, beta).log_likelihood <= full.log_likelihood
