"""Draw samples, then recover the parameters by maximum likelihood.

Shows the round trip: sample from a known member of the family, fit the
rate by solving the score equation E[X] = sample mean with Halley steps
in log m, and fit all three parameters with a gradient search on the
profile likelihood over (log alpha, log beta), the rate fit nested.
"""

import numpy as np

from wright_poisson import CountData, fit_full, fit_m, new_wright_poisson


def main():
    alpha, beta, m = 2.0, 1.0, 1.0
    d = new_wright_poisson(alpha, beta, m)
    batch = d.sample(50_000, seed=123)
    print(f"sampled n={batch.n} from alpha={alpha}, beta={beta}, m={m}")
    print(f"empirical mean {np.mean(batch.values):.6f} "
          f"(theory {d.moment_report().mean_series:.6f})")

    data = CountData.from_counts(batch.values)

    # Rate-only fit with the true shapes held fixed
    res = fit_m(data, alpha=alpha, beta=beta)
    print(f"\nfit_m:    m-hat = {res.m:.6f}  "
          f"ll = {res.log_likelihood:.2f}  converged = {res.converged}")

    # Full three-parameter fit
    full = fit_full(data)
    print(f"fit_full: alpha-hat = {full.alpha:.4f}  beta-hat = {full.beta:.4f}"
          f"  m-hat = {full.m:.4f}  ll = {full.log_likelihood:.2f}")

    # The full fit can never do worse than the constrained one
    assert full.log_likelihood >= res.log_likelihood - 1e-6

    # Classical sanity check: for Poisson data the MLE of m is the mean
    rng = np.random.default_rng(7)
    poisson_counts = rng.poisson(4.0, 50_000)
    pdata = CountData.from_counts(poisson_counts)
    pres = fit_m(pdata, alpha=1.0, beta=1.0)
    print(f"\nclassical: m-hat = {pres.m:.8f}  "
          f"xbar = {np.mean(poisson_counts):.8f}")


if __name__ == "__main__":
    main()
