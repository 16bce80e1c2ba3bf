import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wright_poisson import distribution, estimation, special
from wright_poisson.distribution import new_wright_poisson
from wright_poisson.estimation import (
    CountData,
    DegenerateDataError,
    ParseError,
    fit_full,
    SHAPE_BOX,
    fit_m,
    load_counts,
    log_likelihood,
)
from wright_poisson.special import DomainError, NonConvergenceError


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
        assert data.n == 3 and data.sum == 3

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

    def test_integral_float_line(self, tmp_path):
        f = tmp_path / "counts.txt"
        f.write_text("3.0\n")
        assert load_counts(str(f)).counts.tolist() == [3]

    def test_named_column_without_header(self, tmp_path):
        f = tmp_path / "counts.txt"
        f.write_text("2\n5\n")
        with pytest.raises(ParseError, match="requested but file has no header"):
            load_counts(str(f), column="n")

    def test_short_row_names_line(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ParseError, match="line 3: missing column 1"):
            load_counts(str(f), column="b")

    def test_tab_delimited_index(self, tmp_path):
        f = tmp_path / "data.tsv"
        f.write_text("a\tn\nx\t4\ny\t6\n")
        data = load_counts(str(f), column=1)
        assert data.counts.tolist() == [4, 6]

    def test_byte_order_mark_before_plain_lines(self, tmp_path):
        f = tmp_path / "counts.txt"
        f.write_text("\ufeff3\n1\n", encoding="utf-8")
        assert load_counts(str(f)).counts.tolist() == [3, 1]

    def test_byte_order_mark_before_csv_header(self, tmp_path):
        # a spreadsheet's UTF-8 export puts the mark before the first column name
        f = tmp_path / "data.csv"
        f.write_text("\ufeffcount,x\n3,a\n0,b\n", encoding="utf-8")
        assert load_counts(str(f), column="count").counts.tolist() == [3, 0]


class TestCountData:
    def test_integral_floats_accepted(self):
        assert CountData.from_counts([1.0, 2.0, 0.0]).counts.tolist() == [1, 2, 0]

    @pytest.mark.parametrize("counts", [[1.7, 2.2], [1.0, math.nan], [math.inf]])
    def test_non_integer_floats_rejected(self, counts):
        with pytest.raises(ParseError):
            CountData.from_counts(counts)

    @pytest.mark.parametrize(
        "counts, shown",
        [([10**23, 1], "100000000000000000000000"),  # numpy keeps it as an object
         (np.array([2**63, 1], dtype=np.uint64), "9223372036854775808"),
         ([2**63, 1], "9.223372036854776e+18"),  # numpy makes this list float64
         ([-(10**23), 1], "-100000000000000000000000")],
        ids=["object", "uint64", "float", "negative"],
    )
    def test_count_past_int64_is_named(self, counts, shown):
        with pytest.raises(ParseError, match=re.escape(f"count {shown} does not fit")):
            CountData.from_counts(counts)

    @pytest.mark.parametrize(
        "counts, message",
        [([], "need at least one observation"), ([-1, 2], "counts must be nonnegative")],
    )
    def test_empty_or_negative_rejected(self, counts, message):
        with pytest.raises(ParseError, match=message):
            CountData.from_counts(counts)

    @pytest.mark.parametrize(
        "counts, message",
        [([1 + 2j], "(1+2j) is not an integer count"),
         ([None, 1], "None is not an integer count"),
         (["abc"], "'abc' is not an integer count"),
         (np.ones((2, 2)), "counts must be one-dimensional, got shape (2, 2)")],
        ids=["complex", "none", "text", "2-d"],
    )
    def test_non_counts_name_the_cause(self, counts, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            CountData.from_counts(counts)

    def test_float16_counts_accepted(self):
        # the int64 range check must not overflow float16's range
        data = CountData.from_counts(np.array([1, 2], dtype=np.float16))
        assert data.counts.tolist() == [1, 2] and data.counts.dtype == np.int64

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(CountData)] == ["counts", "n", "sum"]

    def test_sums_past_int64_are_exact(self):
        data = CountData.from_counts(np.array([2**62, 2**62]))
        assert data.sum == 2**63
        assert type(data.sum) is int

    @pytest.mark.parametrize("build", [CountData.from_counts,
                                       lambda c: CountData(np.asarray(c), len(c), sum(c))],
                             ids=["from_counts", "constructor"])
    def test_max_count_and_frequencies(self, build):
        data = build([3, 0, 3, 1])
        assert data.max_count == 3 and type(data.max_count) is int
        assert data.frequencies.tolist() == [1, 1, 0, 2]

    def test_one_data_pass_per_count_data(self, monkeypatch):
        # fit_full's fit_m calls share one maximum and one bincount
        data = CountData.from_counts(np.random.default_rng(5).poisson(3.0, 500))
        calls = []
        bincount = np.bincount

        def counted(*args, **kwargs):
            calls.append(1)
            return bincount(*args, **kwargs)

        monkeypatch.setattr(estimation.np, "bincount", counted)
        fit_full(data)
        assert len(calls) == 1
        # from_counts keeps the maximum of its int64 guard
        assert vars(data)["max_count"] == int(data.counts.max())


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


class TestShapeArguments:
    """A parameter that is not a finite real number > 0 is a DomainError
    that names it, raised before any series is summed."""

    @pytest.mark.parametrize(
        "alpha, beta, name",
        [(math.inf, 1.0, "alpha"), (1.0, math.inf, "beta"), (math.nan, 1.0, "alpha"),
         (1.0, -1.0, "beta")],
    )
    def test_fit_m(self, alpha, beta, name):
        with pytest.raises(DomainError, match=f"{name} must be > 0"):
            fit_m(CountData.from_counts([0, 1, 2, 3]), alpha, beta)

    @pytest.mark.parametrize(
        "args, name",
        [((math.inf, 1.0, 1.0), "alpha"), ((1.0, math.inf, 1.0), "beta"),
         ((1.0, 1.0, math.inf), "m"), ((1.0, 1.0, math.nan), "m"), ((1.0, 1.0, 0.0), "m")],
    )
    def test_log_likelihood(self, args, name):
        with pytest.raises(DomainError, match=f"{name} must be > 0"):
            log_likelihood(CountData.from_counts([0, 1, 2, 3]), *args)

    @pytest.mark.parametrize(
        "call",
        [lambda data: fit_m(data, "x", 1.0), lambda data: log_likelihood(data, 1.0, "x", 1.0)],
        ids=["fit_m", "log_likelihood"],
    )
    def test_non_real(self, call):
        with pytest.raises(DomainError, match="must be a real number, got str"):
            call(CountData.from_counts([0, 1, 2, 3]))


def _wright_counts(alpha, beta, m, n, seed):
    return new_wright_poisson(alpha, beta, m).sample(n, seed=seed).values


# the points of TestFitMScoreEquation, then the bench's fit design points
# (to 4 digits) with 10^4 counts each
_FIT_POINTS = [
    (10 ** (-2 / 3), 1.0, lambda: np.random.default_rng(3).poisson(4.0, 10_000)),
    *[
        (a, b, lambda a=a, b=b, m=m: _wright_counts(a, b, m, 5_000, 5))
        for a, b, m in [(1.5, 2.0, 3.0), (0.5, 2.5, 3.0), (0.3, 0.7, 2.0),
                        (10.0, 1.0, 3e20), (10.0, 0.5, 1e12)]
    ],
    (1.0, 1e-6, lambda: [1] + [0] * 999),
    (1.0, 1e-3, lambda: [1] + [0] * 999),
    *[
        (a, b, lambda a=a, b=b, m=m, seed=seed: _wright_counts(a, b, m, 10_000, seed))
        for seed, (a, b, m) in enumerate(
            [(1.582, 1.576, 1.932), (1.693, 0.9983, 2.599), (1.189, 1.713, 4.739),
             (1.504, 0.9853, 6.411), (0.7063, 0.5789, 2.542), (1.353, 0.9043, 12.75),
             (1.27, 0.8211, 16.21), (0.9442, 1.067, 14.19), (0.7932, 1.431, 19.03)]
        )
    ],
]


class TestFitMWindows:
    """fit_m sums the series once per Newton step and once at m-hat, each
    time over one window of normalized terms, and builds no distribution."""

    @pytest.fixture
    def windows(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("fit_m sums the series only through its windows")

        for owner in (special, distribution, estimation):
            monkeypatch.setattr(owner, "mittag_leffler2", forbidden)
        monkeypatch.setattr(distribution, "new_wright_poisson", forbidden)
        calls = []
        log_terms = distribution._log_terms

        def counting(*args):
            calls.append(1)
            return log_terms(*args)

        monkeypatch.setattr(distribution, "_log_terms", counting)
        return calls

    @pytest.mark.parametrize(
        "counts, alpha, beta",
        [(np.random.default_rng(314).poisson(4.0, 20_000), 1.0, 1.0),
         (np.random.default_rng(314).poisson(4.0, 20_000), 0.3, 0.7),
         ([1] + [0] * 999, 1.0, 1e-6),  # the root lies below the floor
         ([0] * 40, 1.0, 1.0)],  # no steps
        ids=["poisson", "alpha-below-1", "floor", "all-zero"],
    )
    def test_one_window_per_step_and_one_at_the_fit(self, windows, counts, alpha, beta):
        res = fit_m(CountData.from_counts(counts), alpha, beta)
        assert len(windows) == res.iterations + 1

    @pytest.mark.parametrize("alpha, beta, counts", _FIT_POINTS)
    def test_log_likelihood_matches_the_public_one(self, alpha, beta, counts):
        data = CountData.from_counts(counts())
        res = fit_m(data, alpha, beta)
        assert res.log_likelihood == pytest.approx(
            log_likelihood(data, alpha, beta, res.m), rel=1e-12
        )


class TestFitMSteps:
    """fit_m starts at the mean and takes Halley steps from the window's
    third cumulant, and reads the log-likelihood from its last window."""

    @pytest.mark.parametrize("alpha, beta, counts", _FIT_POINTS[-9:])
    def test_bench_design_points_take_at_most_three_steps(self, alpha, beta, counts):
        assert fit_m(CountData.from_counts(counts()), alpha, beta).iterations <= 3

    def test_bench_design_points_take_at_most_24_steps_in_all(self):
        steps = [fit_m(CountData.from_counts(counts()), alpha, beta).iterations
                 for alpha, beta, counts in _FIT_POINTS[-9:]]
        assert sum(steps) <= 24

    @pytest.mark.parametrize(
        "counts, alpha, beta, steps",
        # the mean 3/41 lies below the peak of the terms at r = 0, where the
        # first two terms give the rate
        [([0] * 40 + [3], 1.0, 0.05, 4),
         # the first two terms are no guide: the third is as large there
         *[([1] * k + [0] * (1000 - k), 0.1, 0.1, 3) for k in (800, 900, 990)]],
        ids=["two-term-start", "mean-0.8", "mean-0.9", "mean-0.99"],
    )
    def test_mean_below_one(self, counts, alpha, beta, steps):
        assert fit_m(CountData.from_counts(counts), alpha, beta).iterations <= steps

    @pytest.mark.parametrize("alpha, beta, counts", _FIT_POINTS)
    def test_log_likelihood_needs_no_sort(self, monkeypatch, alpha, beta, counts):
        def forbidden(*args, **kwargs):
            raise AssertionError("fit_m reads the log-likelihood from its last window")

        data = CountData.from_counts(counts())
        monkeypatch.setattr(np, "unique", forbidden)
        res = fit_m(data, alpha, beta)
        monkeypatch.undo()
        assert res.log_likelihood == pytest.approx(
            log_likelihood(data, alpha, beta, res.m), rel=1e-12
        )

    def test_count_past_the_last_window(self):
        data = CountData.from_counts([0, 1, 2, 3, 200])
        res = fit_m(data, 1.0, 1.0)
        assert "histogram" in vars(data)  # the fallback sums over the distinct counts
        assert res.log_likelihood == pytest.approx(
            log_likelihood(data, 1.0, 1.0, res.m), rel=1e-12
        )


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


class TestFitMProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        alpha=_log_uniform(*SHAPE_BOX),
        beta=_log_uniform(*SHAPE_BOX),
        lam=_log_uniform(0.05, 100.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_fit_solves_the_score_equation(self, alpha, beta, lam, seed):
        counts = np.random.default_rng(seed).poisson(lam, 500)
        counts[0] += 1  # the rate of an all-zero sample is the floor, not a root
        data = CountData.from_counts(counts)
        res = fit_m(data, alpha, beta)
        assert res.converged
        mean = new_wright_poisson(alpha, beta, res.m).mean_series()
        assert mean == pytest.approx(data.mean, rel=1e-9)
        assert res.log_likelihood == pytest.approx(
            log_likelihood(data, alpha, beta, res.m), rel=1e-12
        )


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

    def test_flat_ridge_reaches_the_box_edge(self):
        # the profile likelihood is flat to 1e-4 nats along beta: a search
        # from (1, 1) alone stops near beta = 1, 8.9e-5 nats below this
        data = CountData.from_counts(np.random.default_rng(3).poisson(8000, 2000))
        full = fit_full(data)
        assert full.beta == pytest.approx(SHAPE_BOX[1], rel=1e-12)
        assert full.log_likelihood >= -11884.25553

    def test_interior_optimum_is_a_local_maximum(self):
        gen = new_wright_poisson(1.5, 1.0, 2.0)
        data = CountData.from_counts(gen.sample(20_000, seed=11).values)
        full = fit_full(data)
        assert full.converged
        assert 0.1 < full.alpha < 10.0 and 0.1 < full.beta < 10.0
        for bump in (1.0 - 1e-3, 1.0 + 1e-3):
            for alpha, beta in ((full.alpha * bump, full.beta), (full.alpha, full.beta * bump)):
                assert fit_m(data, alpha, beta).log_likelihood <= full.log_likelihood


class TestCountHistogram:
    def test_histogram_of_counts(self):
        uniq, wts = CountData.from_counts([3, 0, 3, 1, 3]).histogram
        assert uniq.tolist() == [0, 1, 3] and wts.tolist() == [1, 1, 3]

    def test_computed_once_per_data(self, poisson4_data, monkeypatch):
        calls = []
        unique = np.unique

        def counting(*args, **kwargs):
            calls.append(1)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting)
        first = log_likelihood(poisson4_data, 1.2, 0.9, 3.0)
        fit_m(poisson4_data, 1.2, 0.9)
        assert log_likelihood(poisson4_data, 1.2, 0.9, 3.0) == first
        assert len(calls) == 1
