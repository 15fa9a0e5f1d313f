"""Inference for excess zeros in zero-inflated power series count models.

The package covers the extended parameter range that allows negative
zero-inflation weights (zero deflation), so that the no-inflation hypothesis
sits in the interior of the parameter space.  It provides:

* the model family itself: densities, likelihoods, Fisher information, the
  orthogonal zero-probability reparametrization and random variates
  (``distributions``);
* score and likelihood ratio tests with exact MLEs (``frequentist``);
* objective-prior Bayesian tests, posterior sampling, the exact marginal
  posterior of the weight with its equal-tail and HPD intervals, and the
  draw-based densities and intervals of the paper (``bayes``);
* higher-order posterior tail expansions and finite-sample calibration of
  the Bayes test (``asymptotics``);
* a Monte Carlo power-study harness with bundled reference tables
  (``power``);
* bundled classic datasets and file ingestion (``datasets``) plus a CLI
  (``zicount``).
"""

from .asymptotics import (BetaCalibration, ExpansionInputs, UniformityReport,
                          beta_calibration, expansion_inputs,
                          posterior_tail_expansion, uniformity_check)
from .bayes import (BayesFactorResult, ExactMarginal, IntervalEstimate,
                    IntervalKind, PosteriorDraws, PosteriorProbability,
                    PriorKind, bayes_factor_positive, credible_interval,
                    density_curve, draw_posterior, exact_marginal,
                    grad_log_prior, hpd_interval, log_prior,
                    marginal_posterior_density,
                    posterior_prob_positive, posterior_prob_positive_factorized,
                    posterior_prob_positive_quadrature, prior_density)
from .datasets import (dataset_names, dataset_table, format_freq_csv,
                       load_counts, load_dataset, parse_counts_text)
from .distributions import (CountSample, Family, FisherInfo, Parametrization,
                            ZipsModel, fisher_info, fisher_info_orthogonal,
                            from_pstar, log_likelihood, log_pmf,
                            loglik_derivatives, p_lower, pmf, sample,
                            sample_values, to_pstar)
from .errors import (DegenerateSampleError, MissingCellError,
                     ParameterRangeError, QuadratureError, ZicountError)
from .frequentist import (MleResult, Sidedness, TestMethod, TestReport,
                          lr_test, mle_full, mle_null, score_test)
from .power import (CellResult, ComparisonReport, Method, PowerConfig,
                    PowerGrid, REFERENCE_POWER_ONE_SIDED,
                    REFERENCE_POWER_TWO_SIDED, compare_tables,
                    run_power_study)

__version__ = "0.1.0"

__all__ = [
    "BayesFactorResult", "BetaCalibration", "CellResult", "ComparisonReport",
    "CountSample", "DegenerateSampleError", "ExactMarginal", "ExpansionInputs",
    "Family",
    "FisherInfo", "IntervalEstimate", "IntervalKind", "Method",
    "MissingCellError", "MleResult", "Parametrization", "ParameterRangeError",
    "PosteriorDraws", "PosteriorProbability", "PowerConfig", "PowerGrid",
    "PriorKind", "QuadratureError", "REFERENCE_POWER_ONE_SIDED",
    "REFERENCE_POWER_TWO_SIDED", "Sidedness", "TestMethod",
    "TestReport", "UniformityReport", "ZicountError", "ZipsModel",
    "bayes_factor_positive", "beta_calibration", "compare_tables",
    "credible_interval", "dataset_names", "dataset_table",
    "density_curve", "draw_posterior", "exact_marginal", "expansion_inputs",
    "fisher_info",
    "fisher_info_orthogonal", "format_freq_csv", "from_pstar",
    "grad_log_prior", "hpd_interval", "load_counts", "load_dataset",
    "log_likelihood", "log_pmf", "log_prior", "loglik_derivatives", "lr_test",
    "marginal_posterior_density", "mle_full", "mle_null", "p_lower",
    "parse_counts_text", "pmf", "posterior_prob_positive",
    "posterior_prob_positive_factorized",
    "posterior_prob_positive_quadrature", "posterior_tail_expansion",
    "prior_density", "run_power_study", "sample", "sample_values",
    "score_test", "to_pstar", "uniformity_check",
]
