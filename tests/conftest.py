"""Shared fixtures and independent numerical oracles for the test suite.

The oracles here (finite differences, brute-force summation, adaptive
quadrature over the factorized posterior) deliberately avoid the code paths
they are used to check.
"""

import math

import numpy as np
import pytest
from scipy import integrate, optimize, stats

from zicount import CountSample, SamplerError
from zicount import bayes


@pytest.fixture(scope="session")
def uti():
    return CountSample({0: 81, 1: 9, 2: 7, 3: 1})


@pytest.fixture(scope="session")
def terror():
    return CountSample({0: 38, 1: 26, 2: 8, 3: 2, 4: 1})


@pytest.fixture(scope="session")
def cholera():
    return CountSample({0: 168, 1: 32, 2: 16, 3: 6, 4: 1})


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h * max(1.0, abs(x[i]))
        out[i] = (f(x + e) - f(x - e)) / (2.0 * e[i])
    return out


def fd_hessian(f, x, h=1e-4):
    """Richardson-extrapolated central second differences."""
    x = np.asarray(x, dtype=float)
    k = x.size

    def cross(i, j, step):
        ei = np.zeros(k); ei[i] = step * max(1.0, abs(x[i]))
        ej = np.zeros(k); ej[j] = step * max(1.0, abs(x[j]))
        return (f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej)
                + f(x - ei - ej)) / (4.0 * ei[i] * ej[j])

    out = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            d1, d2 = cross(i, j, h), cross(i, j, h / 2.0)
            out[i, j] = out[j, i] = (4.0 * d2 - d1) / 3.0
    return out


def fd_third(hess_fn, x, h=5e-4):
    """Third-derivative tensor from Richardson-extrapolated central
    differences of an exact Hessian."""
    x = np.asarray(x, dtype=float)
    k = x.size

    def slab(c, step):
        e = np.zeros(k)
        e[c] = step * max(1.0, abs(x[c]))
        return (hess_fn(x + e) - hess_fn(x - e)) / (2.0 * e[c])

    out = np.empty((k, k, k))
    for c in range(k):
        d1, d2 = slab(c, h), slab(c, h / 2.0)
        out[:, :, c] = (4.0 * d2 - d1) / 3.0
    return out


class PosteriorOracle:
    """Exact posterior quantities for the Poisson family via 1-D quadrature.

    Uses the factorization of the posterior under the conditional Jeffreys
    prior: the zero probability is Beta(n0 + 1/2, n - n0 + 1/2) independent
    of theta, whose posterior kernel is integrated adaptively here.
    """

    def __init__(self, sample: CountSample):
        self.n, self.n0, self.s = sample.n, sample.n0, sample.s
        self.m = self.n - self.n0
        ratio = (self.s - 0.5) / self.m
        mode = optimize.brentq(lambda t: t / -math.expm1(-t) - ratio,
                               1e-9, max(3.0 * ratio, 10.0))
        self._scale = self._logk(mode)
        lo, hi = mode / 2.0, max(2.0 * mode, 1.0)
        while lo > 1e-12 and self._logk(lo) - self._scale > math.log(1e-18):
            lo /= 2.0
        while self._logk(hi) - self._scale > math.log(1e-18):
            hi *= 1.5
        self.lo, self.hi = lo, hi
        self.norm = self._quad(lambda t: 1.0)

    def _logk(self, t):
        return (-self.m * t - self.m * math.log(-math.expm1(-t))
                + (self.s - 0.5) * math.log(t))

    def _quad(self, g):
        f = lambda t: math.exp(self._logk(t) - self._scale) * g(t)
        return integrate.quad(f, self.lo, self.hi, limit=400)[0]

    def theta_mean(self):
        return self._quad(lambda t: t) / self.norm

    def prob_positive(self):
        g = lambda t: stats.beta.sf(math.exp(-t), self.n0 + 0.5, self.m + 0.5)
        return self._quad(g) / self.norm

    def p_cdf(self, x):
        g = lambda t: stats.beta.cdf(math.exp(-t) + x * (1.0 - math.exp(-t)),
                                     self.n0 + 0.5, self.m + 0.5)
        return self._quad(g) / self.norm

    def p_quantile(self, q):
        return optimize.brentq(lambda x: self.p_cdf(x) - q, -50.0, 1.0 - 1e-12,
                               xtol=1e-8)

    def p_density(self, x):
        def g(t):
            f0 = math.exp(-t)
            return (1.0 - f0) * stats.beta.pdf(f0 + x * (1.0 - f0),
                                               self.n0 + 0.5, self.m + 0.5)
        return self._quad(g) / self.norm


def zip_theta_rejection_draws(rng: np.random.Generator, m: int, s: float,
                              size: int, max_batches: int = 200) -> np.ndarray:
    """Gamma-envelope rejection sampler for the Poisson-case theta posterior.

    Cross-check for the grid inverse-CDF sampler.  The target kernel is the
    gamma kernel with shape ``s - m + 1/2`` and rate ``m`` times
    ``exp(m * r(theta))`` with ``r = log(theta / (1 - exp(-theta)))``, and r
    is increasing and concave, so bounding it by its tangent at the target
    mode gives an exact gamma envelope with the same shape and rate
    ``m * (1 - r'(mode))``.
    """
    shape = s - m + 0.5
    if shape <= 0.0 or m <= 0:
        raise SamplerError("rejection envelope undefined for this sample")

    def r_slope(t):
        # d/dt log(t / (1 - exp(-t))), in (0, 1/2), decreasing
        return 1.0 / t - math.exp(-t) / -math.expm1(-t)

    mode, _, _ = bayes._zip_theta_bracket(m, s)
    mode = max(mode, 1e-6)
    slope = r_slope(mode)
    rate = m * (1.0 - slope)
    if rate <= 0.0:
        raise SamplerError("degenerate envelope rate")

    def log_ratio(t):
        # target/envelope kernel ratio; maximized (at zero) at the tangent point
        r = np.log(t) - np.log(-np.expm1(-t))
        r_mode = math.log(mode) - math.log(-math.expm1(-mode))
        return m * (r - r_mode - slope * (t - mode))

    out = np.empty(0)
    proposed = accepted = 0
    for _ in range(max_batches):
        batch = max(size, 1024)
        cand = rng.gamma(shape, 1.0 / rate, batch)
        ratio = np.exp(log_ratio(cand))
        if np.any(ratio > 1.0 + 1e-9):
            raise SamplerError("envelope failed to dominate the target")
        keep = rng.random(batch) < ratio
        proposed += batch
        accepted += int(keep.sum())
        out = np.concatenate([out, cand[keep]])
        if out.size >= size:
            return out[:size]
        if proposed >= 10 * size and accepted / proposed < 1e-4:
            break
    raise SamplerError(
        f"rejection sampler acceptance too low ({accepted}/{proposed})")
