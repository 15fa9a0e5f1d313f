"""Shared fixtures and independent numerical oracles for the test suite.

The oracles here (finite differences, brute-force summation, adaptive
quadrature over the factorized posterior) deliberately avoid the code paths
they are used to check.
"""

import math

import numpy as np
import pytest
from scipy import integrate, optimize, stats

from zicount import CountSample, Family


class SamplerError(RuntimeError):
    """The rejection oracle failed its acceptance or accuracy diagnostics."""


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
    """Exact posterior quantities via 1-D adaptive quadrature over theta.

    Uses the factorization of the posterior under the conditional Jeffreys
    prior: the zero probability is Beta(n0 + 1/2, n - n0 + 1/2) independent
    of theta, whose posterior kernel is integrated adaptively here.  The
    range is Laplace-sized, the mode plus and minus 15 standard deviations,
    widened until the kernel is below 1e-22 of its peak.  When every
    positive count is one the theta kernel has a ``theta**(-1/2)`` pole at
    zero, so the integration variable is ``x = sqrt(theta)``; otherwise it
    is theta itself.  The weight's density and CDF at a negative point get
    a breakpoint where that point leaves the weight range, so the far left
    tail of an all-ones sample is integrated, not skipped.
    """

    def __init__(self, sample: CountSample, family: Family = Family.POISSON):
        self.n, self.n0, self.s = sample.n, sample.n0, sample.s
        self.m = m = self.n - self.n0
        s = self.s
        if family is Family.POISSON:
            self._f0 = lambda t: math.exp(-t)
            # theta where f0 / (1 - f0) = r: the weight's lower end is -r
            self._theta_at_odds = lambda r: math.log1p(1.0 / r)
            logk = lambda t: -m * t - m * math.log(-math.expm1(-t)) + (s - 0.5) * math.log(t)
            dlogk = lambda t: (s - 0.5) / t - m / -math.expm1(-t)
            upper, start_hi = math.inf, 10.0 * s / m + 10.0
        else:
            a, b = s - m + 0.5, m
            self._f0 = lambda t: 1.0 - t
            self._theta_at_odds = lambda r: 1.0 / (1.0 + r)
            logk = lambda t: (a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t)
            dlogk = lambda t: (a - 1.0) / t - (b - 1.0) / (1.0 - t)
            upper, start_hi = 1.0, 1.0 - 1e-12
        self._root = s == m
        if self._root:
            self._theta = lambda x: x * x
            self._logg = lambda x: logk(x * x) + math.log(2.0 * x)
            dlogg = lambda x: 2.0 * x * dlogk(x * x) + 1.0 / x
            upper, start_hi = math.sqrt(upper), math.sqrt(start_hi)
        else:
            self._theta = lambda x: x
            self._logg, dlogg = logk, dlogk

        # mode of the integrand, at an end of the range when it is monotone
        tiny = 1e-150
        if dlogg(tiny) <= 0.0:
            mode, inside = 0.0, tiny
            curvature = dlogg(1e-4) / 1e-4
        elif dlogg(start_hi) >= 0.0:
            mode, inside, curvature = upper, start_hi, 0.0
        else:
            mode = inside = optimize.brentq(dlogg, tiny, start_hi, xtol=1e-15, rtol=1e-15)
            h = 1e-6 * mode
            curvature = (dlogg(mode + h) - dlogg(mode - h)) / (2.0 * h)
        sd = 1.0 / math.sqrt(-curvature) if curvature < 0.0 else start_hi
        self._peak = self._logg(inside)
        lo, hi = max(mode - 15.0 * sd, 0.0), min(mode + 15.0 * sd, upper)
        while lo > 0.0 and self._logg(lo) - self._peak > -50.0:
            lo = max(mode - 1.5 * (mode - lo), 0.0)
        while hi < upper and self._logg(hi) - self._peak > -50.0:
            hi = min(mode + 1.5 * (hi - mode), upper)
        self.lo, self.hi, self._mode = lo, hi, mode
        self.norm = self._quad(lambda t: 1.0)

    def _quad(self, g, lo=None, hi=None, epsabs=0.0, breaks=()):
        lo = self.lo if lo is None else lo
        hi = self.hi if hi is None else hi
        f = lambda x: math.exp(self._logg(x) - self._peak) * g(self._theta(x))
        points = [x for x in (self._mode, *breaks) if lo < x < hi] or None
        return integrate.quad(f, lo, hi, points=points, limit=500,
                              epsabs=epsabs, epsrel=1e-12)[0]

    def _support_edge(self, x):
        """Breakpoint where the weight's lower end ``-f0 / (1 - f0)`` passes
        ``x``: above that theta, p = x is outside the weight range."""
        if x >= 0.0:
            return ()
        t = self._theta_at_odds(-x)
        return (math.sqrt(t) if self._root else t,)

    def theta_mean(self):
        return self._quad(lambda t: t) / self.norm

    def theta_cdf(self, theta):
        """Posterior CDF of theta, vectorized by summing the quadratures
        between consecutive sorted points."""
        theta = np.asarray(theta, dtype=float)
        x = np.sqrt(theta) if self._root else theta
        x = np.clip(x, self.lo, self.hi)
        order = np.argsort(x, axis=None)
        edges = np.concatenate(([self.lo], x.ravel()[order]))
        pieces = [self._quad(lambda t: 1.0, a, b, 1e-10 * self.norm) if b > a else 0.0
                  for a, b in zip(edges[:-1], edges[1:])]
        out = np.empty(x.size)
        out[order] = np.cumsum(pieces) / self.norm
        return out.reshape(x.shape)

    def theta_quantile(self, q):
        x = optimize.brentq(lambda x: self._quad(lambda t: 1.0, self.lo, x) / self.norm - q,
                            self.lo, self.hi, xtol=1e-14, rtol=1e-12)
        return self._theta(x)

    def prob_positive(self):
        g = lambda t: stats.beta.sf(self._f0(t), self.n0 + 0.5, self.m + 0.5)
        return self._quad(g) / self.norm

    def p_cdf(self, x):
        def g(t):
            f0 = self._f0(t)
            return stats.beta.cdf(f0 + x * (1.0 - f0), self.n0 + 0.5, self.m + 0.5)
        return self._quad(g, breaks=self._support_edge(x)) / self.norm

    def p_quantile(self, q):
        """The weight's q-quantile.  When every positive count is one, the
        theta posterior reaches zero, where the weight's lower end
        ``-f0 / (1 - f0)`` runs to minus infinity, so the lower end of the
        bracket widens geometrically until the CDF falls below q."""
        lo = -1.0
        while self.p_cdf(lo) > q:
            lo *= 8.0
        return optimize.brentq(lambda x: self.p_cdf(x) - q, lo, 1.0 - 1e-12,
                               xtol=1e-8)

    def p_density(self, x):
        def g(t):
            f0 = self._f0(t)
            return (1.0 - f0) * stats.beta.pdf(f0 + x * (1.0 - f0),
                                               self.n0 + 0.5, self.m + 0.5)
        return self._quad(g, breaks=self._support_edge(x)) / self.norm


def zip_theta_rejection_draws(rng: np.random.Generator, m: int, s: float,
                              size: int, max_batches: int = 200) -> np.ndarray:
    """Gamma-envelope rejection sampler for the Poisson-case theta posterior.

    Cross-check for the inverse-CDF theta draws of ``draw_posterior``.  The target kernel is the
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

    # mode of the theta kernel, or its floor when the mass piles up at zero
    ratio = (s - 0.5) / m
    mode = 1e-6
    if ratio > 1.0:
        mode = max(optimize.brentq(lambda t: t / -math.expm1(-t) - ratio, 1e-10,
                                   max(2.0 * ratio, 10.0), xtol=1e-12), mode)
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
