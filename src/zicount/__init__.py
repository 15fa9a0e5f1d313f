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
* the frequency table of a sample (``counts``), bundled classic datasets
  and file ingestion (``datasets``) plus a CLI (``zicount``).

The public names load lazily (PEP 562): ``import zicount`` imports neither
numpy nor SciPy, and the first access to a name imports the submodule that
defines it.  SciPy itself loads on the first call that needs it.
"""

import importlib

__version__ = "0.1.0"

# the submodule that defines each public name
_EXPORTS = {name: module for module, names in {
    "asymptotics": ("BetaCalibration", "ExpansionInputs", "UniformityReport",
                    "beta_calibration", "expansion_inputs",
                    "posterior_tail_expansion", "uniformity_check"),
    "bayes": ("BayesFactorResult", "ExactMarginal", "IntervalEstimate",
              "IntervalKind", "PosteriorDraws", "PosteriorProbability",
              "PriorKind", "bayes_factor_positive", "credible_interval",
              "density_curve", "draw_posterior", "exact_marginal",
              "grad_log_prior", "hpd_interval", "log_prior",
              "marginal_posterior_density", "posterior_prob_positive",
              "posterior_prob_positive_factorized", "prior_density"),
    "counts": ("CountSample",),
    "datasets": ("dataset_names", "dataset_table", "format_freq_csv",
                 "load_counts", "load_dataset", "parse_counts_text"),
    "distributions": ("Family", "FisherInfo", "Parametrization",
                      "ZipsModel", "fisher_info", "fisher_info_orthogonal",
                      "from_pstar", "log_likelihood", "log_pmf",
                      "loglik_derivatives", "p_lower", "pmf", "sample",
                      "sample_values", "to_pstar"),
    "errors": ("DegenerateSampleError", "MissingCellError",
               "ParameterRangeError", "QuadratureError", "ZicountError"),
    "frequentist": ("MleResult", "Sidedness", "TestMethod", "TestReport",
                    "lr_test", "mle_full", "mle_null", "score_test"),
    "power": ("CellResult", "ComparisonReport", "Method", "PowerConfig",
              "PowerGrid", "REFERENCE_POWER_ONE_SIDED",
              "REFERENCE_POWER_TWO_SIDED", "compare_tables", "run_power_study"),
}.items() for name in names}
__all__ = sorted(_EXPORTS)
# resolved as attributes too, as when this module imported them all
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli"}


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
