"""Wright-type Poisson distribution: special functions, the distribution
itself, maximum-likelihood fitting, and a command-line front-end."""

from .special import (
    DomainError,
    NonConvergenceError,
    SeriesControl,
    SeriesResult,
    WrightSpec,
    log_gamma,
    mittag_leffler,
    mittag_leffler2,
    mittag_leffler3,
    wright_convergence_index,
    wright_series,
    wright_term,
)
from .distribution import MomentReport, SampleBatch, WrightPoisson, new_wright_poisson
from .estimation import (
    CountData,
    DegenerateDataError,
    FitResult,
    ParseError,
    fit_full,
    fit_m,
    load_counts,
    log_likelihood,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "NonConvergenceError",
    "SeriesControl",
    "SeriesResult",
    "WrightSpec",
    "log_gamma",
    "mittag_leffler",
    "mittag_leffler2",
    "mittag_leffler3",
    "wright_convergence_index",
    "wright_series",
    "wright_term",
    "MomentReport",
    "SampleBatch",
    "WrightPoisson",
    "new_wright_poisson",
    "CountData",
    "DegenerateDataError",
    "FitResult",
    "ParseError",
    "fit_full",
    "fit_m",
    "load_counts",
    "log_likelihood",
]
