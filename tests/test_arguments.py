"""One argument rule for every public entry point, the scalar queries
included: an argument that is not a real number (numbers.Real), or not the
CountData a fit takes, is a DomainError that names it, never a bare
TypeError or a silent float()."""

import math
import re
from decimal import Decimal

import numpy as np
import pytest

from wright_poisson import (
    CountData,
    DomainError,
    SeriesControl,
    WrightSpec,
    fit_full,
    fit_m,
    log_gamma,
    log_likelihood,
    mittag_leffler,
    mittag_leffler2,
    mittag_leffler3,
    new_wright_poisson,
    wright_term,
)

_D = new_wright_poisson(1.0, 1.0, 3.0)
_DATA = CountData.from_counts([0, 1, 2, 3])
_SPEC = WrightSpec([(1.0, 1.0)], [(1.0, 1.0)], 0.5)

# (id, the argument's name, a call that passes x as that argument, whether
# the argument is a real that goes through special._as_float)
_ENTRY_POINTS = [
    ("log_gamma", "x", lambda x: log_gamma(x), True),
    ("WrightSpec-upper-a", "upper a", lambda x: WrightSpec([(x, 1.0)], [(1.0, 1.0)], 0.5), True),
    ("WrightSpec-upper-alpha", "upper alpha",
     lambda x: WrightSpec([(1.0, x)], [(1.0, 1.0)], 0.5), True),
    ("WrightSpec-lower-b", "lower b", lambda x: WrightSpec([(1.0, 1.0)], [(x, 1.0)], 0.5), True),
    ("WrightSpec-lower-beta", "lower beta",
     lambda x: WrightSpec([(1.0, 1.0)], [(1.0, x)], 0.5), True),
    ("WrightSpec-z", "z", lambda x: WrightSpec([(1.0, 1.0)], [(1.0, 1.0)], x), True),
    ("SeriesControl-rel_tol", "rel_tol", lambda x: SeriesControl(rel_tol=x), True),
    ("wright_term", "k", lambda x: wright_term(_SPEC, x), True),
    ("mittag_leffler-alpha", "alpha", lambda x: mittag_leffler(x, 0.5), True),
    ("mittag_leffler-z", "z", lambda x: mittag_leffler(1.0, x), True),
    ("mittag_leffler2-alpha", "alpha", lambda x: mittag_leffler2(x, 1.0, 0.5), True),
    ("mittag_leffler2-beta", "beta", lambda x: mittag_leffler2(1.0, x, 0.5), True),
    ("mittag_leffler2-z", "z", lambda x: mittag_leffler2(1.0, 1.0, x), True),
    ("mittag_leffler3-alpha", "alpha", lambda x: mittag_leffler3(x, 1.0, 1.0, 0.5), True),
    ("mittag_leffler3-beta", "beta", lambda x: mittag_leffler3(1.0, x, 1.0, 0.5), True),
    ("mittag_leffler3-gamma", "gamma", lambda x: mittag_leffler3(1.0, 1.0, x, 0.5), True),
    ("mittag_leffler3-z", "z", lambda x: mittag_leffler3(1.0, 1.0, 1.0, x), True),
    ("new_wright_poisson-m", "m", lambda x: new_wright_poisson(1.0, 1.0, x), True),
    ("mgf", "t", lambda x: _D.mgf(x), True),
    ("pmf_recurrence_step-r", "r", lambda x: _D.pmf_recurrence_step(x, 0.1), True),
    ("pmf_recurrence_step-pmf_r", "pmf_r", lambda x: _D.pmf_recurrence_step(2, x), True),
    ("fit_m-alpha", "alpha", lambda x: fit_m(_DATA, x, 1.0), True),
    ("log_likelihood-m", "m", lambda x: log_likelihood(_DATA, 1.0, 1.0, x), True),
    ("log_pmf", "r", lambda x: _D.log_pmf(x), True),
    ("pmf", "r", lambda x: _D.pmf(x), True),
    ("cdf", "r", lambda x: _D.cdf(x), True),
    ("quantile", "p", lambda x: _D.quantile(x), True),
    ("fit_m-data", "data", lambda x: fit_m(x, 1.0, 1.0), False),
    ("fit_full-data", "data", lambda x: fit_full(x), False),
    ("log_likelihood-data", "data", lambda x: log_likelihood(x, 1.0, 1.0, 1.0), False),
]
_NOT_REAL = [("str", "1"), ("None", None), ("complex", 1 + 2j)]
# float() takes these, but they are not numbers.Real
_NOT_REAL_TO_FLOAT = [("Decimal", Decimal("1")), ("0-d-array", np.array(1.0))]


@pytest.mark.parametrize(
    "call, name, value",
    [pytest.param(call, name, value, id=f"{ident}-{kind}")
     for ident, name, call, as_float in _ENTRY_POINTS
     for kind, value in _NOT_REAL + (_NOT_REAL_TO_FLOAT if as_float else [])],
)
def test_argument_that_is_not_real_is_a_domain_error_naming_it(call, name, value):
    with pytest.raises(DomainError) as info:
        call(value)
    assert re.search(rf"(^|\W){re.escape(name)}\W", str(info.value)), str(info.value)


@pytest.mark.parametrize("value", [1, 1.0, np.float32(1.0), np.int64(1)])
def test_real_arguments_of_any_type_give_the_float_answer(value):
    want = mittag_leffler2(1.0, 1.0, 1.0)
    assert mittag_leffler2(value, value, value) == want
    assert mittag_leffler(value, 1.0) == want
    assert _D.mgf(value * 0.5) == _D.mgf(0.5)


@pytest.mark.parametrize("value", [2.5, 2.0, -1, math.nan, math.inf, np.float64(3.0)])
@pytest.mark.parametrize(
    "call, name",
    [(lambda x: wright_term(_SPEC, x), "k"), (lambda x: _D.pmf_recurrence_step(x, 0.1), "r")],
    ids=["wright_term", "pmf_recurrence_step"],
)
def test_term_index_must_be_a_nonnegative_integer(call, name, value):
    # a float index, even an integral one, a negative one and nan or inf
    # used to return a number
    with pytest.raises(DomainError, match=f"^{name} must be an integer >= 0, got "):
        call(value)


@pytest.mark.parametrize("k", [0, 1, 5, np.int64(5), True])
def test_integer_term_index_gives_the_float_answer(k):
    assert wright_term(_SPEC, k) == wright_term(_SPEC, int(k))
    assert _D.pmf_recurrence_step(k, 0.1) == _D.pmf_recurrence_step(int(k), 0.1)


@pytest.mark.parametrize("beta", [1e6, 1e20, 1e308])
@pytest.mark.parametrize(
    "call",
    [lambda b: new_wright_poisson(1.0, b, 1.0), lambda b: fit_m(_DATA, 1.0, b),
     lambda b: log_likelihood(_DATA, 1.0, b, 1.0)],
    ids=["new_wright_poisson", "fit_m", "log_likelihood"],
)
def test_beta_past_the_normalizer_rounding_bound_is_a_domain_error(call, beta):
    # the log-terms carry eps ln Gamma(beta) of rounding: 2.5 nats at 1e15
    # used to be returned without an error; lgamma(1e308) overflows
    with pytest.raises(DomainError, match=r"^beta = .* normalizer"):
        call(beta)
