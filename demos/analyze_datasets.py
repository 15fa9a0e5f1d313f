"""Walk through the three bundled datasets with every inference tool.

For each dataset: sufficient statistics, the null and full maximum
likelihood fits, score and likelihood ratio tests, the Bayesian posterior
probability of excess zeros with its deterministic quadrature cross-check,
the posterior-odds factor on exact and on importance-sampled T, and exact
95% equal-tail and HPD intervals from the marginal posterior of the weight.
"""

import warnings

from zicount import (Family, IntervalKind, bayes_factor_positive,
                     dataset_names, exact_marginal, load_dataset, lr_test,
                     mle_full, mle_null, posterior_prob_positive,
                     posterior_prob_positive_factorized, score_test)

SEED = 1

warnings.filterwarnings("ignore")

for name in dataset_names():
    sample = load_dataset(name)
    print(f"=== {name} ===")
    print(f"n = {sample.n}, zeros = {sample.n0}, sum = {sample.s}, "
          f"mean = {sample.ybar:.4f}")

    null = mle_null(Family.POISSON, sample)
    full = mle_full(Family.POISSON, sample)
    print(f"null fit:  theta = {null.theta_hat:.4f}")
    print(f"full fit:  p = {full.p_hat:.4f}, theta = {full.theta_hat:.4f} "
          f"({full.iterations} Newton steps)")

    score = score_test(Family.POISSON, sample)
    lr = lr_test(Family.POISSON, sample)
    print(f"score test: statistic = {score.statistic:.4f}, "
          f"one-sided p = {score.p_value:.4f}")
    print(f"LR test:    statistic = {lr.statistic:.4f}, "
          f"one-sided p = {lr.p_value:.4f}")

    est = posterior_prob_positive(Family.POISSON, sample, B=10_000, seed=SEED)
    exact = posterior_prob_positive_factorized(Family.POISSON, sample)
    print(f"P(p > 0 | data): {est.value:.4f} +/- {est.mc_se:.4f} "
          f"(importance sampling, ESS {est.ess:.0f}); quadrature {exact:.4f}")

    # B = 0, the default, takes exact T; B > 0 the importance sampler
    exact_factor = bayes_factor_positive(Family.POISSON, sample)
    factor = bayes_factor_positive(Family.POISSON, sample, B=10_000, seed=SEED)
    bound = lambda f: " (lower bound)" if f.lower_bound else ""
    print(f"posterior-odds factor: exact {exact_factor.value:.4g}{bound(exact_factor)}, "
          f"importance sampling {factor.value:.4g}{bound(factor)}")
    print(f"  (non-authoritative; prior P(p > 0) = {factor.prior_prob:.3f})")

    marginal = exact_marginal(Family.POISSON, sample)
    eq = marginal.interval(0.95, IntervalKind.EQUAL_TAIL)
    hp = marginal.interval(0.95, IntervalKind.HPD)
    print(f"95% equal-tail interval (exact): ({eq.lower:.4f}, {eq.upper:.4f})")
    print(f"95% HPD interval (exact):        ({hp.lower:.4f}, {hp.upper:.4f})")
    verdict = "zero inflation" if eq.lower > 0 else "no clear zero inflation"
    print(f"=> interval {'excludes' if eq.lower > 0 else 'contains'} zero: "
          f"{verdict}")
    print()
