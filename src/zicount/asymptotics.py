"""Higher-order posterior tail behavior and finite-sample calibration.

The leading normal approximation to the posterior tail probability of the
zero-inflation weight gets an order ``1/sqrt(n)`` correction built from the
second and third derivatives of the average log likelihood at the MLE and
from the prior's log-gradient.  Under the null the test statistic
``T(Y) = P(p > 0 | Y)`` is asymptotically Uniform[0, 1]; for finite samples
a Beta law fitted to the simulated null moments of T provides a refined
rejection cutoff.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._special import beta_quantile, ndtr
# posterior_prob_positive_factorized and sample_values are unused here;
# perfbench/tracing.py wraps this module's names
from .bayes import (_DEFAULT_PRIOR, PriorKind, _factorized_t, grad_log_prior,
                    posterior_prob_positive_factorized, prior_density)
from .distributions import (CountSample, Family, loglik_derivatives,
                            sample_values)
from .errors import DegenerateSampleError
from .frequentist import mle_full
from .limits import require_count, require_probability
from .power import _replication_table


@dataclass(frozen=True)
class ExpansionInputs:
    """Ingredients of the posterior tail expansion, all per observation.

    ``a2`` and ``a3`` are the second- and third-derivative tensors of the
    average log likelihood at the MLE ``eta_hat = (p_hat, theta_hat)``; the
    observed information is ``-a2`` and ``info_inv`` its inverse.  ``m`` is
    the first column of ``info_inv`` scaled by its leading entry (so
    ``m[0] = 1``), and ``K`` the residual of ``info_inv`` after projecting
    out that column.  ``prior_grad / prior_value`` is the prior log-gradient.
    """

    eta_hat: tuple[float, float]
    a2: np.ndarray
    a3: np.ndarray
    info_inv: np.ndarray
    m: np.ndarray
    K: np.ndarray
    prior_value: float
    prior_grad: np.ndarray


@dataclass(frozen=True)
class BetaCalibration:
    """Moment-matched Beta fit to the simulated null distribution of T."""

    alpha_hat: float
    beta_hat: float
    n: int
    family: Family
    theta_null: float

    def cutoff(self, alpha: float) -> float:
        """Upper-alpha rejection cutoff for the Bayes test at this n."""
        require_probability("alpha", alpha)
        return float(beta_quantile(self.alpha_hat, self.beta_hat, alpha, complement=True)[0])


@dataclass(frozen=True)
class UniformityReport:
    ks_distance: float
    ks_pvalue: float
    moment1: float
    moment2: float
    t_values: np.ndarray


def expansion_inputs(family: Family, sample: CountSample,
                     prior: PriorKind = _DEFAULT_PRIOR) -> ExpansionInputs:
    """Evaluate all expansion ingredients at the full-model MLE.

    Derivatives are analytic; each entry matches central finite differences
    of the average log likelihood.  Boundary fits (no interior MLE) raise.
    """
    fit = mle_full(family, sample)
    if fit.boundary:
        raise DegenerateSampleError("no interior MLE: expansion undefined")
    eta = (fit.p_hat, fit.theta_hat)
    _, hess, third = loglik_derivatives(family, eta[0], eta[1], sample)
    a2 = hess / sample.n
    a3 = third / sample.n
    info = -a2
    info_inv = np.linalg.inv(info)
    m = info_inv[:, 0] / info_inv[0, 0]
    K = info_inv - np.outer(info_inv[:, 0], info_inv[0, :]) / info_inv[0, 0]
    pv = prior_density(family, eta[0], eta[1], prior)
    pg = pv * grad_log_prior(family, eta[0], eta[1], prior)
    return ExpansionInputs(eta_hat=eta, a2=a2, a3=a3, info_inv=info_inv,
                           m=m, K=K, prior_value=pv, prior_grad=pg)


def _correction_terms(inputs: ExpansionInputs) -> tuple[float, float]:
    i11 = inputs.info_inv[0, 0]
    m = inputs.m
    a3 = inputs.a3
    amm = float(np.einsum("ijk,i,j,k->", a3, m, m, m))
    akm = float(np.einsum("ijk,ij,k->", a3, inputs.K, m))
    g3 = amm * i11 ** 1.5 / 6.0
    g1 = (float(inputs.prior_grad @ m) / inputs.prior_value * math.sqrt(i11)
          + 0.5 * akm * math.sqrt(i11)
          + 0.5 * amm * i11 ** 1.5)
    return g1, g3


def posterior_tail_expansion(inputs: ExpansionInputs, eta10: float,
                             n: int) -> float:
    """Order ``1/sqrt(n)`` approximation of P(p <= eta10 | Y).

    Reduces to the normal leading term when the correction ingredients
    vanish; the result is clipped to [0, 1].
    """
    require_count("n", n, 1)
    if not math.isfinite(eta10):
        raise ValueError(f"eta10 must be finite, got {eta10!r}")
    i11 = inputs.info_inv[0, 0]
    w = math.sqrt(n / i11) * (eta10 - inputs.eta_hat[0])
    g1, g3 = _correction_terms(inputs)
    # correction sign fixed against the exact posterior: a Laplace expansion
    # of the scalar flat-prior case shows the skewness term must pull
    # P(eta <= eta_hat | Y) below one half when the third derivative is
    # positive, which requires the minus sign here
    # normal pdf in scipy.stats.norm.pdf's own arithmetic, so values match it
    pdf = np.exp(-w**2 / 2.0) / np.sqrt(2 * np.pi)
    value = ndtr(w) - pdf * (g1 + g3 * (w * w - 1.0)) / math.sqrt(n)
    return float(min(max(value, 0.0), 1.0))


def _simulate_null_ts(family: Family, theta_null: float, n: int, reps: int,
                      B: int, seed: int) -> np.ndarray:
    """Null-model T values over the replication table of ``power``.

    ``B > 0`` returns the table's Monte Carlo T, B draws per replication, from
    the paper's sampler with no effective-sample-size check and no warning;
    ``B = 0`` computes T by the factorized quadrature, which stays accurate at
    sample sizes where the importance sampler's proposal breaks down.
    Factorized T depends on a sample only through ``(n0, s)`` at fixed n, so it
    runs once per distinct row of the table, in one call.
    """
    require_count("reps", reps, 1)
    require_count("n", n, 2)
    require_count("B", B, 0)
    require_count("seed", seed, 0)
    distinct, inverse, t, _ = _replication_table(family, 0.0, theta_null, n, reps, seed, draws=B)
    if t is not None:
        return t
    n0, s = distinct.T
    return _factorized_t(family, n0, n - n0, s)[inverse]


def uniformity_check(family: Family, theta_null: float, n: int, reps: int,
                     B: int = 0, seed: int = 0) -> UniformityReport:
    """Simulate T under the null and compare against Uniform[0, 1].

    Returns the Kolmogorov-Smirnov distance and p-value plus the first two
    sample moments (mean and central second moment), whose limits are 1/2
    and 1/12.  ``B > 0`` takes T from the paper's sampler, B draws per
    replication, with no effective-sample-size check: at large n the Poisson
    proposal degenerates without a warning, and ``B = 0`` (factorized T) is
    the accurate route.
    """
    # the one SciPy call of the module, loaded here and not with it
    from scipy import stats

    ts = _simulate_null_ts(family, theta_null, n, reps, B, seed)
    ks = stats.kstest(ts, "uniform")
    return UniformityReport(ks_distance=float(ks.statistic),
                            ks_pvalue=float(ks.pvalue),
                            moment1=float(ts.mean()),
                            moment2=float(ts.var()),
                            t_values=ts)


def beta_moment_fit(mean: float, var: float) -> tuple[float, float] | None:
    """Beta parameters matching a mean and variance, or None if degenerate."""
    if var <= 0.0 or var >= mean * (1.0 - mean):
        return None
    scale = mean * (1.0 - mean) / var - 1.0
    return mean * scale, (1.0 - mean) * scale


def beta_calibration(family: Family, theta_null: float, n: int, reps: int,
                     B: int = 0, seed: int = 0) -> BetaCalibration:
    """Method-of-moments Beta fit to the simulated null T sample.

    The fitted parameters approach (1, 1) as n grows, recovering the uniform
    cutoff; degenerate moment estimates fall back to that limit with a
    warning.  ``B`` chooses T as in ``uniformity_check``: ``B > 0`` runs the
    paper's sampler with no effective-sample-size check, and ``B = 0``
    (factorized T) is the accurate route at large n.
    """
    # fewer replications give no stable fit
    require_count("reps", reps, 500)
    ts = _simulate_null_ts(family, theta_null, n, reps, B, seed)
    fit = beta_moment_fit(float(ts.mean()), float(ts.var()))
    if fit is None:
        warnings.warn("degenerate moments; falling back to the uniform cutoff",
                      stacklevel=2)
        return BetaCalibration(1.0, 1.0, n, family, theta_null)
    return BetaCalibration(alpha_hat=fit[0], beta_hat=fit[1],
                           n=n, family=family, theta_null=theta_null)
