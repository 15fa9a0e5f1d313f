"""Maximum likelihood estimation and classical tests for excess zeros.

Tests address the null of no zero inflation (weight p = 0) against the
one-sided alternative p > 0, with two-sided variants.  The score statistic
has a closed form in the sufficient statistics (n, n0, ybar); the likelihood
ratio statistic needs the full-model MLE, ``pstar = n0 / n`` and theta
solving the zero-truncated mean equation by Newton steps, one solver for every
family; both are computed from the sufficient statistics (n, n0, s) alone,
elementwise over arrays of (n0, s), so that a power cell takes one call on
its distinct pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._lazy import LazyModule
from .distributions import (CountSample, Family, _log_a_sum, _newton, _require_counts,
                            loglik_derivatives)
from .errors import DegenerateSampleError
from .limits import require_probability

special = LazyModule("scipy.special", globals())


class Sidedness(Enum):
    ONE_SIDED = "one"
    TWO_SIDED = "two"


class TestMethod(Enum):
    __test__ = False  # not a pytest class, despite the name

    SCORE = "score"
    LR = "lr"


@dataclass(frozen=True)
class MleResult:
    """Maximum likelihood fit of a zero-inflated power series model.

    ``boundary`` marks fits whose supremum is attained only in the closure of
    the parameter range (no zeros in the sample, or every positive count
    equal to one); ``p_hat`` is then the boundary value or NaN.
    ``iterations`` counts the Newton steps of the theta solve.
    """

    p_hat: float
    theta_hat: float
    loglik: float
    converged: bool
    iterations: int
    boundary: bool = False


@dataclass(frozen=True)
class TestReport:
    """Outcome of a single test for excess zeros."""

    __test__ = False  # not a pytest class, despite the name

    method: TestMethod
    statistic: float
    signed_root: float
    p_value: float
    alpha: float
    reject: bool
    sidedness: Sidedness


def mle_null(family: Family, sample: CountSample) -> MleResult:
    """MLE under the no-inflation null (p = 0).

    The base parameter is matched to the sample mean: the rate itself for
    Poisson, ``ybar / (1 + ybar)`` for geometric.
    """
    _require_counts(sample)
    theta0, ll0 = _null_fit(family, sample.n, sample.s)
    return MleResult(0.0, float(theta0), float(ll0 + _log_a_sum(family, sample)),
                     converged=True, iterations=0)


def _null_fit(family: Family, n: int, s):
    """Null fit ``theta0`` (mean ``s / n``) and its log likelihood without the
    log a_y constants, ``s log theta0 - n log c``, finite where ``1 / c``
    underflows; elementwise over an array ``s``."""
    theta0 = family._series.theta_from_mean(s / n)
    return theta0, s * np.log(theta0) - n * family._series.log_c(theta0)


def _truncated_mean_root(family: Family, m: np.ndarray, s: np.ndarray):
    """Theta solving the zero-truncated mean equation
    ``mean(theta) / (1 - f0(theta)) = s / m`` for rows of arrays ``m`` and
    ``s``, and each row's Newton steps.

    The steps run in ``u = log(theta)``, where the truncated mean rises with
    slope ``theta**2 * trunc_info(theta)`` (the truncated variance), from
    ``theta_from_mean((s - m) / m)``, the exact root for geometric, and stop
    once a step is below 1e-6 (leaving an error of order 1e-12) or the mean
    is within four ulps of ``s / m``.
    The rounding of ``s / m`` bounds the accuracy near the all-ones boundary
    ``s = m``, to about ``4e-16 * m / (s - m)`` relative for Poisson.
    """
    series, target = family._series, s / m
    steps = np.zeros(target.shape, dtype=int)

    def fun(u, rows):
        steps[rows] += 1
        theta = np.exp(u)
        log_c = series.log_c(theta)
        mean = series.mean(theta) / -np.expm1(-log_c)
        return target[rows] - mean, -theta * theta * series.trunc_info(theta, log_c)

    u = _newton(fun, np.log(series.theta_from_mean((s - m) / m)), 1e-6,
                hi=math.log(series.theta_max), ftol=4.0 * np.spacing(target))
    return np.exp(u), steps


def _mle_full_stats(family: Family, n: int, n0, s):
    """Full-model MLE from sufficient statistics, elementwise over arrays
    ``n0`` and ``s``.

    Returns ``(p_hat, theta_hat, iterations, boundary)`` without
    evaluating the likelihood; ``_sup_loglik`` gives its maximum.
    """
    n0, s = np.asarray(n0, dtype=float), np.asarray(s, dtype=float)
    if np.any(n0 == n):
        raise DegenerateSampleError("all counts are zero: (p, theta) not identifiable")
    m = n - n0
    # where every positive count equals one, the likelihood supremum is only
    # approached as theta tends to zero, with p running off to the lower
    # endpoint along pstar = n0/n
    ones = s == m
    theta, iters = np.zeros(m.shape), np.zeros(m.shape, dtype=int)
    theta[~ones], iters[~ones] = _truncated_mean_root(family, m[~ones], s[~ones])
    # the fitted zero probability p + (1 - p) * f0 equals n0 / n
    f0 = family.f0(theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_hat = np.where(ones, math.nan, (n0 / n - f0) / (1.0 - f0))
    return p_hat[()], theta[()], iters[()], (ones | (n0 == 0))[()]


def _sup_loglik(family: Family, n: int, n0, s, theta_hat):
    """Full-model maximum of the log likelihood, without the log a_y
    constants; elementwise over arrays.

    In the orthogonal coordinates the likelihood splits into a binomial part
    in pstar, maximized at n0 / n, and the zero-truncated family in theta,
    ``s * log(theta) - m * log(c(theta) - 1)``.  The latter tends to zero as
    ``theta_hat`` does, which is the supremum for samples whose positive
    counts all equal one.
    """
    m = n - n0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_c = family._series.log_c(theta_hat)
        # log(c - 1) = log c + log(1 - f0), stable for large and small c
        fit = s * np.log(theta_hat) - m * (log_c + np.log(-np.expm1(-log_c)))
        return (m * np.log(m / n) + np.where(n0 > 0, n0 * np.log(n0 / n), 0.0)
                + np.where(theta_hat > 0.0, fit, 0.0))


def mle_full(family: Family, sample: CountSample) -> MleResult:
    """MLE of (p, theta) over the extended weight range.

    A sample without zeros yields a boundary fit with negative ``p_hat`` at
    the lower endpoint (flagged, not an error).  An all-zero sample raises,
    since (p, theta) is then not identifiable.
    """
    _require_counts(sample)
    p_hat, theta_hat, iters, boundary = _mle_full_stats(
        family, sample.n, sample.n0, sample.s)
    ll = (_sup_loglik(family, sample.n, sample.n0, sample.s, theta_hat)
          + _log_a_sum(family, sample))
    return MleResult(float(p_hat), float(theta_hat), float(ll), True, int(iters), bool(boundary))


def gradient_norm_at(family: Family, result: MleResult, sample: CountSample) -> float:
    """Euclidean norm of the log-likelihood gradient at a fit (diagnostic)."""
    if result.boundary:
        raise ValueError("gradient undefined at a boundary fit")
    grad, _, _ = loglik_derivatives(family, result.p_hat, result.theta_hat, sample)
    return float(np.linalg.norm(grad))


def _score_statistic(family: Family, n: int, n0, s):
    """Score statistic and its sign from sufficient statistics, elementwise
    over arrays ``n0`` and ``s``.

    At the null fit ``theta0`` the score for p is ``n0 / f0 - n``.  Its
    variance is n times the efficient information for p, ``v / f0`` with
    ``v = 1 - f0 - f0 * theta0 * c1**2 / (c1 + theta0 * c2)``, where ``c1``
    and ``c2`` are the first two derivatives of ``log c`` at ``theta0``.
    Both are scaled by ``f0`` so that a tiny ``f0`` does not overflow; when
    ``f0`` underflows to zero, any zero in the sample is infinite evidence.
    """
    series = family._series
    theta0 = series.theta_from_mean(np.asarray(s / n, dtype=float))
    f0 = series.f0(theta0)
    c1, c2, _ = series.log_c_derivs(theta0)
    excess = n0 - n * f0
    with np.errstate(divide="ignore", invalid="ignore"):
        v = 1.0 - f0 - f0 * theta0 * c1 * c1 / (c1 + theta0 * c2)
        stat = np.where(f0 == 0.0, math.inf, excess * excess / (n * f0 * v))
    # with f0 zero, the excess is n0
    return np.where(excess == 0.0, 0.0, stat)[()], np.sign(excess)[()]


def _lr_statistic_stats(family: Family, n: int, n0, s):
    """Likelihood ratio statistic and sign from sufficient statistics,
    elementwise over arrays ``n0`` and ``s``.

    The log a_y constants cancel.  The statistic is clamped at zero against
    rounding in the Newton solve.  When the full-model weight estimate is
    undefined (every positive count equal to one), the sign falls back to
    the score direction ``n0/n - f0(theta0)``.
    """
    p_hat, theta_hat, _, _ = _mle_full_stats(family, n, n0, s)
    stat = np.maximum(2.0 * (_sup_loglik(family, n, n0, s, theta_hat)
                             - _null_fit(family, n, s)[1]), 0.0)
    sign = np.where(np.isnan(p_hat), _score_statistic(family, n, n0, s)[1], np.sign(p_hat))
    return stat[()], sign[()]


def _alpha_cutoffs(alpha: float) -> tuple[float, float]:
    """Upper-alpha normal and chi-square(1) cutoffs, as scipy.stats computes them."""
    require_probability("alpha", alpha)
    return (float(special.ndtri(1.0 - alpha)),
            float(2.0 * special.gammaincinv(0.5, 1.0 - alpha)))


def _build_report(method: TestMethod, stat: float, sign: float,
                  alpha: float, sidedness: Sidedness) -> TestReport:
    sidedness = Sidedness(sidedness)
    stat, sign = float(stat), float(sign)
    signed_root = sign * math.sqrt(max(stat, 0.0))
    z_cut, chi_cut = _alpha_cutoffs(alpha)
    if sidedness is Sidedness.ONE_SIDED:
        p_value = float(special.ndtr(-signed_root))
        reject = signed_root > z_cut
    else:
        p_value = float(special.chdtrc(1, stat))
        reject = stat > chi_cut
    return TestReport(method=method, statistic=stat, signed_root=signed_root,
                      p_value=p_value, alpha=alpha,
                      reject=bool(reject), sidedness=sidedness)


def score_test(family: Family, sample: CountSample, alpha: float = 0.05,
               sidedness: Sidedness = Sidedness.ONE_SIDED) -> TestReport:
    """Score test of p = 0.

    The statistic depends on the data only through (n, n0, ybar).  One-sided
    tests use the signed root against the upper normal quantile; two-sided
    tests refer the statistic to chi-square with one degree of freedom.
    """
    _require_counts(sample)
    stat, sign = _score_statistic(family, sample.n, sample.n0, sample.s)
    return _build_report(TestMethod.SCORE, stat, sign, alpha, sidedness)


def lr_test(family: Family, sample: CountSample, alpha: float = 0.05,
            sidedness: Sidedness = Sidedness.ONE_SIDED) -> TestReport:
    """Likelihood ratio test of p = 0, with the same rejection rules as
    ``score_test``; the statistic comes from ``_lr_statistic_stats``.
    """
    _require_counts(sample)
    stat, sign = _lr_statistic_stats(family, sample.n, sample.n0, sample.s)
    return _build_report(TestMethod.LR, stat, sign, alpha, sidedness)
