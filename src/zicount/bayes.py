"""Objective-prior Bayesian inference for the zero-inflation weight.

Each ``PriorKind`` carries a prior record ``(k, log Z, g)``; the default is
the conditional Jeffreys prior for the weight p at fixed theta times the
family's Jeffreys prior for theta.  In the orthogonal coordinates
``pstar = p + (1 - p) * f0(theta)`` the posterior factorizes into
``pstar | y ~ Beta(n0 + 1/2, n - n0 + 1 - k/2)`` and a theta law with density
proportional to ``theta**s / (c(theta) - 1)**(n - n0)`` times the record's
``g(theta)``.  One rule, ``_ThetaPosterior``, owns both laws under a given
record for both families; pstar's Beta law has no other owner.  Its one
row-wise kernel, ``marginal``, is the weight's exact marginal posterior:
factorized T under either prior, in rules of ``FACTORIZED_BLOCK`` rows, is
``1 - CDF(0)``, and under the default record ``exact_marginal`` (density,
CDF, equal-tail and HPD intervals, which the CLI uses) reads it elsewhere.
Posterior draws and the draw-based density read the rule too; the draw-based
density and intervals (``draw_posterior`` onwards) are the paper's route.
Each interval solves both of its ends as two rows of one ``_newton`` search.

The test statistic is the posterior probability of positive weight,
``T(Y) = P(p > 0 | Y)``, exact on the theta rule
(``posterior_prob_positive_factorized``): one minus the average over the
rule's nodes of pstar's CDF at ``f0(theta)``, from ``betainc`` once per
panel and pstar's density, integrated on each panel's own nodes, in between.
The paper's route is a sampling kernel per family, ``_SAMPLED_T``: a
self-normalized importance sampler (Poisson) or exact posterior draws
(geometric), each a function of ``(n, n0, s)`` alone.  The power study runs
it on each replication's sufficient statistics; ``posterior_prob_positive``
runs it on a ``CountSample`` and adds the standard error and effective
sample size.  ``bayes_factor_positive``, the factor the CLI reports, reads
``B`` as null calibration does: exact T at ``B = 0``, its default.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from ._lazy import LazyModule
from .distributions import CountSample, Family, ZipsModel, _newton, _require_counts
from .errors import QuadratureError
from .limits import MIN_CURVE_POINTS, require_count, require_probability

special = LazyModule("scipy.special", globals())

DEFAULT_DRAWS = 10_000
# theta window over which the Bayes factor averages its prior odds
DEFAULT_THETA_WINDOW = (0.0, 50.0)
# rows per theta rule of a factorized-T call, which bounds its node arrays: a 5.4 MB
# tracemalloc peak over the benchmark's null-calibration pass
FACTORIZED_BLOCK = 256
# the tolerance the tests hold factorized T to, so the resolution of 1 - T
_FACTORIZED_T_ACCURACY = 1e-8


@dataclass(frozen=True)
class _Prior:
    """Constants of one objective prior (see ``PriorKind``)."""

    k: int
    log_z: float
    log_g: Callable
    dlog_g: Callable

    def pstar_shapes(self, n0, m):
        """Shapes ``(n0 + 1/2, m + 1 - k/2)`` of pstar's posterior Beta law
        given ``n0`` zeros and ``m`` positive counts."""
        return n0 + 0.5, m + 1.0 - 0.5 * self.k


class PriorKind(Enum):
    """Objective prior for (p, theta), each member with its record ``_prior``.

    Both priors are ``pstar**(-1/2) * (1 - pstar)**(-k/2) * g(theta) / Z`` in
    the orthogonal coordinates: ``(k, Z, g)`` is ``(0, 1, sqrt(i_trunc))`` for
    the joint Jeffreys prior and ``(1, pi, sqrt(i))`` for the conditional one.
    ``log_g`` and its derivative take the family's ``_PowerSeries``, theta, ``log c``,
    and ``log_g`` optionally ``log theta``, which saves a log where a caller has it.
    """

    JEFFREYS_JOINT = "jeffreys_joint", _Prior(
        0, 0.0, lambda s, t, log_c, log_t=None: 0.5 * np.log(s.trunc_info(t, log_c)),
        lambda s, *a: 0.5 * s.dlog_trunc_info(*a))
    CONDITIONAL_JEFFREYS = "conditional_jeffreys_times_marginal", _Prior(
        1, math.log(math.pi), lambda s, *a: s.log_jeffreys(*a), lambda s, *a: s.dlog_jeffreys(*a))

    def __new__(cls, value: str, prior: _Prior):
        member = object.__new__(cls)
        member._value_ = value
        member._prior = prior
        return member


# the prior of every entry point that takes one; the family is the model's own
_DEFAULT_PRIOR = PriorKind.CONDITIONAL_JEFFREYS


class IntervalKind(Enum):
    EQUAL_TAIL = "equal_tail"
    HPD = "hpd"


@dataclass(frozen=True)
class IntervalEstimate:
    lower: float
    upper: float
    level: float
    kind: IntervalKind
    density_threshold: float | None = None
    note: str | None = None


@dataclass(frozen=True)
class PosteriorDraws:
    """Joint posterior draws in both coordinate systems, with the sample
    they came from."""

    family: Family
    pstar: np.ndarray
    theta: np.ndarray
    p: np.ndarray
    seed: int
    B: int
    sample: CountSample


@dataclass(frozen=True)
class PosteriorProbability:
    """Monte Carlo estimate of P(p > 0 | Y) with its standard error."""

    value: float
    mc_se: float
    ess: float
    draws: int
    seed: int | None

    def __float__(self):
        return self.value


@dataclass(frozen=True)
class BayesFactorResult:
    """Posterior-odds to prior-odds ratio for the event {p > 0}.

    This is a reproducible stand-in, not a reference Bayes factor: the theta
    prior is improper, so prior odds are computed on a stated theta window
    and the value is flagged non-authoritative wherever it is reported.
    """

    value: float
    posterior_prob: float
    prior_prob: float
    theta_window: tuple[float, float]
    lower_bound: bool
    non_authoritative: bool = True


# ---------------------------------------------------------------------------
# prior densities


def log_prior(family: Family, p: float, theta: float,
              prior: PriorKind = _DEFAULT_PRIOR) -> float:
    """Log of the (unnormalized) prior density at (p, theta).

    The prior in (pstar, theta) (see ``PriorKind``) times the slope
    ``1 - f0`` of ``p -> pstar``: ``sqrt((1 - f0) / ((1 - p) * pstar)) / pi``
    times the family's Jeffreys prior for the conditional kind, and
    ``(1 - f0) * sqrt(i_trunc(theta) / pstar)`` for the joint one.
    """
    a = ZipsModel(family, p, theta).pzero
    series, prior = family._series, prior._prior
    log_c = series.log_c(theta)
    log_om = math.log(-math.expm1(-log_c))
    # log(1 - pstar) as log1p(-p) + log(1 - f0), so that a p near one keeps its digits
    return float(-prior.log_z - 0.5 * (math.log(a) + prior.k * (math.log1p(-p) + log_om))
                 + prior.log_g(series, theta, log_c) + log_om)


def prior_density(family: Family, p: float, theta: float,
                  prior: PriorKind = _DEFAULT_PRIOR) -> float:
    """Unnormalized prior density; proper in p for the conditional kind."""
    return math.exp(log_prior(family, p, theta, prior))


def grad_log_prior(family: Family, p: float, theta: float,
                   prior: PriorKind = _DEFAULT_PRIOR) -> np.ndarray:
    """Gradient of log prior in (p, theta), in closed form."""
    a = ZipsModel(family, p, theta).pzero
    series, prior = family._series, prior._prior
    f0 = series.f0(theta)
    d1 = series.f0_derivs(theta)[0]
    om = -math.expm1(-(log_c := series.log_c(theta)))
    a_p, a_t = 1.0 - f0, (1.0 - p) * d1
    gp = 0.5 * prior.k / (1.0 - p) - 0.5 * a_p / a
    gt = -(1.0 - 0.5 * prior.k) * d1 / om - 0.5 * a_t / a + prior.dlog_g(series, theta, log_c)
    return np.array([gp, gt])


# ---------------------------------------------------------------------------
# the theta posterior and posterior sampling


@functools.cache
def _gauss_legendre() -> np.ndarray:
    """64-point Gauss-Legendre node offsets from a panel's end ``b``, and weights, per unit
    width: ``[offsets, weights]`` of the linear map and of ``u = b - (b - a) t**2``."""
    x, gl = np.polynomial.legendre.leggauss(64)
    t = 0.5 * (1.0 + x)
    return np.array([[0.5 * (1.0 - x), 0.5 * gl], [t * t, t * gl]])


@functools.cache
def _cumulative_legendre() -> np.ndarray:
    """Spectral integration on ``_gauss_legendre``'s nodes (Greengard 1991): per
    unit width, the integral of a function over ``[node, b]`` from its values at
    the nodes, by integrating their degree-63 interpolant: ``f @ this[0]`` on
    the linear map, ``f @ this[1]`` on the squared one."""
    x, gl = np.polynomial.legendre.leggauss(64)
    j = np.arange(64)
    maps = []
    # each map's own variable, 0 at b, is (1 + xi) / 2 at the nodes; the
    # squared map integrates f times its slope 2t = 1 + x
    for xi, slope in ((-x, 1.0), (x, 1.0 + x)):
        leg = np.polynomial.legendre.legvander(xi, 64)
        # the integral of P_j from -1 to each node (xi + 1, then (P_{j+1} -
        # P_{j-1}) / (2j + 1)), and P_j's interpolation coefficient per node
        integral = np.hstack([(xi + 1.0)[:, None],
                              (leg[:, 2:] - leg[:, :-2]) / (2.0 * j[1:] + 1.0)])
        coef = (j + 0.5) * leg[:, :64] * gl[:, None]
        maps.append((0.5 * integral @ coef.T * slope).T)
    return np.array(maps)


def _distinct_rows(*columns):
    """The distinct rows of the equal-length ``columns``, in ascending order, as
    one array per column, and each row's index into them: ``np.unique(...,
    axis=0, return_inverse=True)`` by one lexsort and a change mask."""
    order = np.lexsort(columns[::-1])
    ranked = [column[order] for column in columns]
    new = np.zeros(order.size, dtype=bool)
    new[:1] = True
    for column in ranked:
        new[1:] |= column[1:] != column[:-1]
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return [column[new] for column in ranked], inverse


def _distinct_cuts(cuts: np.ndarray):
    """Rows of ``cuts`` grouped by their number of distinct values: ``(rows,
    sorted distinct cuts)`` per group.  Each row keeps its own panels, with no
    zero-width padding panel, so its nodes are those of a one-row call."""
    cuts = np.sort(cuts, axis=1)
    new = np.ones(cuts.shape, dtype=bool)
    new[:, 1:] = cuts[:, 1:] != cuts[:, :-1]
    count = new.sum(axis=1)
    for k in np.unique(count):
        rows = np.flatnonzero(count == k)
        yield rows, cuts[rows][new[rows]].reshape(-1, k)


def _stirling_rest(z: np.ndarray) -> np.ndarray:
    """``log Gamma(z)`` less ``(z - 1/2) log z - z + log(2 pi) / 2``, elementwise;
    from z = 10 on by its asymptotic series, which avoids the cancellation."""
    z2 = z * z
    series = (1/12 - (1/360 - (1/1260 - (1/1680 - 1/(1188*z2)) / z2) / z2) / z2) / z
    return np.where(z < 10.0, special.gammaln(z) - ((z - 0.5) * np.log(z) - z
                                                   + 0.5 * math.log(2.0 * math.pi)), series)


class _ThetaPosterior:
    """The factorized posterior of rows of ``(n0, m, s)`` (arrays over rows,
    scalars one row) under the record ``prior`` of a ``PriorKind``.  ``pstar``
    is ``Beta(a, b)`` by the record's ``pstar_shapes``, and this rule is that
    law's one owner: ``log_pstar_pdf`` is its log density, ``pstar_nodes``
    gives that and its CDF at ``pstar = p + (1 - p) f0`` on the rule's nodes,
    and ``marginal`` averages them over theta into the weight's marginal;
    its ``window``, the 1e-17, 1/2 and 1 - 1e-17 quantiles of
    ``1 - pstar``, are the points that ``edges_at`` maps into x.  With pstar integrated
    out, ``m`` positive counts summing to ``s`` leave the kernel
    ``theta**s / (c(theta) - 1)**m`` times the record's ``g(theta)``, times
    the Jacobian of the family's unbounded coordinate ``x``: ``u = log(theta)``
    for Poisson, where the all-ones pole ``theta**(-1/2)`` becomes an
    exponential tail, and ``v = logit(theta)`` for geometric, where under the
    default record it is ``theta**(s - m + 1/2) * (1 - theta)**m``.  Both are
    log-concave in x.
    Each row has its own ``mode``, ``peak`` (the log density there) and
    ``[lo, hi]``: on each side the first point of a 1.25 ladder from the
    Laplace 1e-16 point where the density is below 1e-16 of its peak, so
    that a tail falling off faster than the Laplace one is not cut far out
    in its underflow; a row of ``cuts`` is ``lo``, the mode and ``hi``.
    """

    def __init__(self, family: Family, n0, m, s, prior: PriorKind = _DEFAULT_PRIOR):
        self.series, self.prior = family._series, prior._prior
        self.n0, self.m, self.s = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (n0, m, s))
        self.a, self.b = self.prior.pstar_shapes(self.n0, self.m)
        # the window once per distinct shape pair, which rows share
        (a, b), pair = _distinct_rows(self.a, self.b)
        self.window = np.stack([special.betaincinv(b, a, 1e-17), special.betaincinv(b, a, 0.5),
                                special.betainccinv(b, a, 1e-17)], axis=1)[pair]
        # every row's mode of x and its Laplace sd, by one row-wise Newton on
        # the score with a central-difference slope, from the log of the mean
        # (s + 1/2) / m - 1 (geometric's exact mode)
        point, score, h = self.series.coord_point, self.series.coord_score, 1e-6
        dlog_g = functools.partial(self.prior.dlog_g, self.series)
        slope = np.empty(self.m.size)

        def fun(x, rows):
            m_rows, s_rows = self.m[rows], self.s[rows]
            g_up, g_down = (score(*point(x + d), m_rows, s_rows, dlog_g) for d in (h, -h))
            slope[rows] = (g_up - g_down) / (2.0 * h)
            return 0.5 * (g_up + g_down), slope[rows]

        self.mode = _newton(fun, np.log((self.s + 0.5) / self.m - 1.0), 1e-6)
        sd = 1.0 / np.sqrt(-slope)
        mode, rows = self.mode, np.arange(sd.size)
        self.peak = self.log_density(mode[:, None], rows)[0][:, 0]
        floor = self.peak + math.log(1e-16)
        below = math.sqrt(-2.0 * math.log(1e-16)) * sd
        above = below.copy()
        # every row moves along the same 1.25 ladder to its first point below
        # its floor: out from the Laplace point while above it, and in while
        # the next point in is below it too (a tail that falls off faster)
        for side, width in ((-1.0, below), (1.0, above)):
            up = self.log_density((mode + side * width)[:, None], rows)[0][:, 0] > floor
            grow, shrink = rows[up], rows[~up]
            while grow.size:
                width[grow] *= 1.25
                x = (mode[grow] + side * width[grow])[:, None]
                grow = grow[self.log_density(x, grow)[0][:, 0] > floor[grow]]
            while shrink.size:
                x = (mode[shrink] + side * width[shrink] / 1.25)[:, None]
                shrink = shrink[~(self.log_density(x, shrink)[0][:, 0] > floor[shrink])]
                width[shrink] /= 1.25
        self.lo, self.hi = mode - below, mode + above
        self.cuts = np.stack([self.lo, mode, self.hi], axis=1)

    def log_density(self, x, rows=0):
        """Log density of x up to a constant, ``log c`` and ``log(du/dx)`` there.
        ``rows`` is one row index, whose row is taken at every element of
        ``x``, or an index array, one row per entry along the first axis of
        ``x``."""
        m, s, mode = self.m[rows, None], self.s[rows, None], self.mode[rows, None]
        theta, log_theta, log_c, log_cm1, log_dudx = self.series.coord(x, mode)
        return ((s + 1.0) * log_theta - m * log_cm1
                + (self.prior.log_g(self.series, theta, log_c) + log_dudx)), log_c, log_dudx

    def edges_at(self, p, rows=0):
        """The cuts that ``marginal`` adds at ``p``: x where ``1 - pstar =
        (1 - p)(1 - f0)`` reaches each point of the ``window`` (last axis), per ``p`` and
        row as in ``log_pstar_pdf``; ``lo`` for an edge outside the bracket (an empty panel).
        Between the outer two pstar's CDF at ``f0`` falls from one to zero, and the
        middle one splits that fall where a power-law tail makes it long in x."""
        lo, hi = self.lo[rows, None], self.hi[rows, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            om = self.window[rows] / (1.0 - np.asarray(p, dtype=float)[..., None])
            edges = self.series.coord_from_log_c(-np.log1p(-om))
        return np.where((edges > lo) & (edges < hi), edges, lo)

    def log_pstar_pdf(self, x, y, rows=0):
        """Log of pstar's Beta(a, b) density at ``x`` in (0, 1), with ``y = 1 -
        x`` given, of the one row index ``rows`` at every element of ``x`` or,
        for an index array, of those rows along its first axis.

        Written about the mean ``a / (a + b)`` with a Stirling constant, so that
        no term is of order ``a + b``: ``x**(a - 1)`` and ``B(a, b)`` taken
        apart lose about 2e-9 relative at ``a + b = 1e6``.
        """
        a, b = self.a[rows, None], self.b[rows, None]
        mu, nu = a / (a + b), b / (a + b)
        d = x - mu
        bulk = np.abs(d) < 0.5 * np.minimum(mu, nu)
        far = ~bulk
        lx = np.log1p(d / mu, out=np.empty(d.shape), where=bulk)
        np.negative(d, out=d)
        ly = np.log1p(np.divide(d, nu, out=d), out=d, where=bulk)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.log(x / mu, out=lx, where=far)
            np.log(y / nu, out=ly, where=far)
        lx *= a - 1.0
        ly *= b - 1.0
        lx += ly
        lx += self._log_pdf_constant[rows, None]
        return lx

    @functools.cached_property
    def _log_pdf_constant(self):
        """``log_pstar_pdf``'s Stirling constant of every row."""
        a, b = self.a, self.b
        s = a + b
        return (0.5 * (3.0 * np.log(s) - np.log(2.0 * math.pi * a * b))
                - _stirling_rest(a) - _stirling_rest(b) + _stirling_rest(s))

    def pstar_nodes(self, cuts, squared, p=0.0, rows=0, cdf: bool = False):
        """pstar's law on 64 Gauss-Legendre nodes x per panel between ``cuts``,
        at ``pstar = p + (1 - p) f0`` (``p`` one value per set of cuts): the
        nodes' weights times the theta density relative to the mode, ``1 - f0``,
        pstar, ``1 - pstar``, pstar's density there (zero outside (0, 1)) and,
        with ``cdf``, its CDF.  The leading axes of ``cuts`` run over sets of
        cuts of the one row index ``rows`` or, for an index array, over those
        rows.  A panel flagged in ``squared`` maps ``x = b - (b - a) t**2``
        first: half-integer powers of ``b - x`` (a Beta tail) become
        polynomials.

        The CDF is ``betainc`` at each panel's upper end ``b`` plus the
        integral over ``[x, b]`` of pstar's density times ``|d pstar / dx| =
        (1 - p) f0 d log c / dx``, by ``_cumulative_legendre``: one ``betainc``
        per panel, and no difference of two CDFs.  x is the log of the family
        mean ``theta (log c)'``, so ``d log c / dx = exp(x) du/dx``.
        """
        # arrays the size of the nodes are reused in place, since this runs on
        # FACTORIZED_BLOCK rows at once: x becomes log(f0 d log c / dx)
        cuts = np.asarray(cuts, dtype=float)
        b = cuts[..., 1:, None]
        width = b - cuts[..., :-1, None]
        rule = _gauss_legendre()[np.asarray(squared, dtype=int)]
        slope = (b - width * rule[..., 0, :]).reshape(cuts.shape[:-1] + (-1,))
        w = (width * rule[..., 1, :]).reshape(slope.shape)
        del rule
        log_d, log_c, log_dudx = self.log_density(slope, rows)
        log_d -= self.peak[rows, None]
        w *= np.exp(log_d, out=log_d)
        del log_d
        slope += log_dudx
        slope -= log_c
        p = np.asarray(p, dtype=float)[..., None]
        om = -np.expm1(-log_c)
        pstar = np.exp(np.negative(log_c, out=log_c), out=log_c)
        pstar += p * om
        y = (1.0 - p) * om
        pdf = np.exp(self.log_pstar_pdf(pstar, y, rows))
        pdf[(pstar <= 0.0) | (y <= 0.0)] = 0.0
        if not cdf:
            return w, om, pstar, y, pdf
        np.exp(slope, out=slope)
        slope *= pdf
        slope *= 1.0 - p
        slope = slope.reshape(cuts.shape[:-1] + (-1, 64))
        linear, square = _cumulative_legendre()
        below = slope @ linear
        # a squared panel one row at a time, so that a row's bits are its own
        at = np.nonzero(squared)
        below[at] = (slope[at][:, None, :] @ square)[:, 0]
        below *= np.diff(cuts)[..., None]
        log_c_end = self.series.coord_point(cuts[..., 1:])[1]
        end = np.clip(np.exp(-log_c_end) - p * np.expm1(-log_c_end), 0.0, 1.0)
        below += special.betainc(self.a[rows, None], self.b[rows, None], end)[..., None]
        return w, om, pstar, y, pdf, below.reshape(w.shape)

    def marginal(self, p, rows, density: bool = True, cdf: bool = False):
        """The weight's marginal posterior at equal-length arrays of points ``p``
        and row indices ``rows``: with ``density``, its density and slope in p,
        and with ``cdf``, its CDF; None for what is not asked.  An entry's cuts
        are its row's ``cuts`` and ``edges_at(p)``, and the panel ending at the
        top edge, where pstar's Beta tail meets zero, is squared.  Entries are
        grouped by ``_distinct_cuts``, so each sums the nodes it would alone."""
        edges = self.edges_at(p, rows)
        total, dens, slope, below = (np.empty(p.size) for _ in range(4))
        for at, cuts in _distinct_cuts(np.hstack([self.cuts[rows], edges])):
            squared = cuts[:, 1:] == edges[at, -1:]
            w, om, pstar, y, pdf, *tail = self.pstar_nodes(cuts, squared, p[at], rows[at], cdf)
            total[at] = np.sum(w, axis=1)
            if density:
                # the density of p given theta at each node, pstar's times 1 - f0,
                # times the node's weight
                pdf *= om
                pdf *= w
                a, b = self.a[rows[at], None], self.b[rows[at], None]
                # the slope is infinite where pstar**(a - 1) meets zero with a < 2
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    rate = np.where(pdf > 0.0, (a - 1.0) / pstar - (b - 1.0) / y, 0.0)
                    dens[at], slope[at] = pdf.sum(axis=1), np.sum(pdf * rate * om, axis=1)
            if cdf:
                # pstar's CDF at each node, in [0, 1], so that their weighted mean is too
                nodes = np.clip(tail[0], 0.0, 1.0, out=tail[0])
                below[at] = np.sum(np.multiply(nodes, w, out=nodes), axis=1)
        self.require_weight(total, rows)
        return (dens / total if density else None, slope / total if density else None,
                below / total if cdf else None)

    def inverse_cdf(self, r: np.ndarray) -> np.ndarray:
        """x of the one row at CDF levels ``r``, by linear interpolation of a
        midpoint-rule CDF over 4096 cells of the bracket."""
        edges = np.linspace(self.lo.item(), self.hi.item(), 4097)
        log_d = self.log_density(0.5 * (edges[1:] + edges[:-1]))[0]
        cdf = np.concatenate(([0.0], np.cumsum(np.exp(log_d - self.peak.item()))))
        self.require_weight(cdf[-1:])
        return np.interp(r, cdf / cdf[-1], edges)

    def require_weight(self, total, rows=0) -> None:
        """Raise ``QuadratureError`` naming ``(n0, s)`` of the row (``rows`` as
        in ``log_density``) of the first weight ``total`` not finite and positive."""
        bad = np.flatnonzero(~(np.isfinite(total) & (total > 0.0)))
        if bad.size:
            row = np.broadcast_to(rows, np.shape(total))[bad[0]]
            raise QuadratureError(f"theta posterior has no weight on its nodes at (n0, s) = "
                                  f"({self.n0[row]:.17g}, {self.s[row]:.17g})")


def draw_posterior(family: Family, sample: CountSample, B: int = DEFAULT_DRAWS,
                   seed: int = 0) -> PosteriorDraws:
    """Exact joint posterior draws under the default prior.

    ``pstar`` from the theta rule's Beta law, ``theta`` by its tabulated
    inverse CDF from the same stream; ``p = (pstar - f0) / (1 - f0)``.
    """
    require_count("B", B, 1)
    require_count("seed", seed, 0)
    _require_counts(sample, zero=True)
    rule = _ThetaPosterior(family, sample.n0, sample.n - sample.n0, sample.s)
    rng = np.random.default_rng(seed)
    pstar = rng.beta(rule.a.item(), rule.b.item(), B)
    theta, _, log_c, _, _ = rule.series.coord(rule.inverse_cdf(rng.random(B)), rule.mode)
    p = (pstar - np.exp(-log_c)) / -np.expm1(-log_c)
    return PosteriorDraws(family=family, pstar=pstar, theta=theta, p=p, seed=seed, B=B,
                          sample=sample)


# ---------------------------------------------------------------------------
# the Bayes test statistic T(Y) = P(p > 0 | Y)


def _importance_t(n: int, n0: int, s: int, prior: PriorKind, B: int,
                  rng: np.random.Generator):
    """Self-normalized importance sampling estimate of T for the Poisson family.

    Proposal: ``pstar ~ Beta(n0 + 1, n - n0 + 1)`` and theta from the gamma
    with shape ``s - (n - n0) + 1`` and rate ``n - n0`` (the shape/rate
    reading that makes the proposal density match the likelihood factor it
    is meant to absorb).  Weights carry the prior times
    ``(theta / (1 - exp(-theta)))**(n - n0)``; the numerator adds the
    indicator of ``pstar > exp(-theta)``.  Returns T, the weights relative to
    the largest and that indicator.
    """
    m = n - n0
    pstar = rng.beta(n0 + 1.0, m + 1.0, B)
    theta = rng.gamma(s - m + 1.0, 1.0 / m, B)
    series, record = Family.POISSON._series, prior._prior
    neg_theta = -theta
    # log w = m * (log theta - log(1 - exp(-theta))) + log prior, in place
    logw = np.expm1(neg_theta)
    np.negative(logw, out=logw)
    np.log(logw, out=logw)
    log_theta = np.log(theta)
    np.subtract(log_theta, logw, out=logw)
    logw *= m
    # the log prior in (pstar, theta), -log Z - (log pstar + k log(1 - pstar)) / 2
    # + log g(theta) (see PriorKind); k = 0 takes no log(1 - pstar), which is
    # -inf at a draw rounded to one
    log_prior = np.log(pstar)
    if record.k:
        log_prior += record.k * np.log1p(-pstar)
    log_prior *= -0.5
    log_prior -= record.log_z
    log_prior += record.log_g(series, theta, series.log_c(theta), log_theta)
    logw += log_prior
    logw -= logw.max()
    w = np.exp(logw, out=logw)
    ind = pstar > np.exp(neg_theta, out=neg_theta)
    return float((w / w.sum())[ind].sum()), w, ind


def _exact_draws_t(n: int, n0: int, s: int, prior: PriorKind, B: int,
                   rng: np.random.Generator):
    """T from exact posterior draws for the geometric family (both
    coordinates Beta), each of weight ``1/B``: T, and None for the weights
    and the indicator."""
    m = n - n0
    pstar = rng.beta(*prior._prior.pstar_shapes(n0, m), B)
    # theta's law is one under either prior: for this family the joint
    # record's 1/2 log i_trunc = log c - 1/2 log theta is the conditional
    # record's Jeffreys term, and the two slopes are the same formula
    theta = rng.beta(s - m + 0.5, m, B)
    return float(np.mean(pstar > 1.0 - theta)), None, None


# each family's sampling kernel of T, the paper's route: ``(n, n0, s, prior,
# B, rng)`` to T, the draws' weights and their indicator of ``p > 0``
_SAMPLED_T = {Family.POISSON: _importance_t, Family.GEOMETRIC: _exact_draws_t}


def posterior_prob_positive(family: Family, sample: CountSample,
                            prior: PriorKind = _DEFAULT_PRIOR,
                            B: int = DEFAULT_DRAWS,
                            seed: int | np.random.Generator = 0) -> PosteriorProbability:
    """Monte Carlo estimate of the test statistic T(Y) = P(p > 0 | Y), by
    the family's kernel in ``_SAMPLED_T``, with its standard error and
    effective sample size; warns when the importance sampler's ESS is below
    1% of ``B``.  The power study calls the kernel itself on each
    replication's ``(n, n0, s)``, with the same draws and the same T.

    ``seed`` is an integer of at least 0 or a ``Generator``, whose draws it
    advances; the result's ``seed`` is then None."""
    _require_counts(sample)
    require_count("B", B, 1)
    if not isinstance(seed, np.random.Generator):
        require_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    value, w, ind = _SAMPLED_T[family](sample.n, sample.n0, sample.s, prior, B, rng)
    if w is None:  # exact draws: the binomial error, floored at one draw's
        mc_se, ess = math.sqrt(max(value * (1.0 - value), 1.0 / B) / B), float(B)
    else:
        wsum = w.sum()
        ess = float(wsum ** 2 / np.sum(w ** 2))
        # (ind - value)**2 takes two values
        hit, miss = 1.0 - value, -value
        wn = np.square(np.divide(w, wsum, out=w), out=w)
        wn *= np.where(ind, hit * hit, miss * miss)
        mc_se = float(np.sqrt(np.sum(wn)))
        if ess / B < 0.01:
            warnings.warn(f"importance sampling ESS low: {ess:.1f} of {B}", stacklevel=2)
    return PosteriorProbability(value=value, mc_se=mc_se, ess=ess, draws=B,
                                seed=None if isinstance(seed, np.random.Generator) else seed)


# ---------------------------------------------------------------------------
# exact T on the theta rule


def _factorized_t(family: Family, n0, m, s, prior: PriorKind = _DEFAULT_PRIOR) -> np.ndarray:
    """Factorized T for rows of ``(n0, m, s)``: ``T = 1 - CDF(0)``, one minus
    the weight's exact marginal CDF at zero from the theta rule's ``marginal``,
    on one batched rule per ``FACTORIZED_BLOCK`` rows under ``prior``'s record.
    Each row sums the same nodes in the same order as alone.
    """
    n0, m, s = map(np.atleast_1d, (n0, m, s))
    t = np.empty(n0.size)
    for start in range(0, n0.size, FACTORIZED_BLOCK):
        block = slice(start, start + FACTORIZED_BLOCK)
        rule = _ThetaPosterior(family, n0[block], m[block], s[block], prior)
        rows = np.arange(rule.m.size)
        t[block] = 1.0 - rule.marginal(np.zeros(rows.size), rows, density=False, cdf=True)[2]
    return t


def posterior_prob_positive_factorized(family: Family, sample: CountSample,
                                       prior: PriorKind = _DEFAULT_PRIOR) -> float:
    """Deterministic T(Y) from the factorized posterior, by 1-D quadrature.

    ``T = E[SF(f0(theta))]`` where the survival function is that of pstar's
    Beta posterior under ``prior`` and the expectation runs over the theta
    posterior, in Gauss-Legendre panels of the family's coordinate that
    meet at its mode.  Far more accurate than the importance sampler for
    large samples, where the sampler's proposal drifts away from the
    posterior.  The one-row case of ``_factorized_t``, which null
    calibration calls once on all distinct ``(n0, s)``.
    """
    _require_counts(sample)
    return float(_factorized_t(family, [sample.n0], [sample.n - sample.n0], [sample.s],
                               prior)[0])


# ---------------------------------------------------------------------------
# exact marginal of the weight: density, CDF, equal-tail and HPD intervals


def _scan(density, t_range, num: int = 129):
    """``t``, p and ``density`` on ``num`` points even in ``t = log(1 - p)``,
    from ``t_range[0]`` down to ``t_range[1]``; ascending in p."""
    t = np.linspace(*t_range, num)
    p = -np.expm1(t)
    return t, p, density(p)


def _curve(density, t_range, num: int) -> tuple[np.ndarray, np.ndarray]:
    """``density`` on ``num`` even points in p spanning where a scan of
    ``t_range`` finds it at least a thousandth of its peak, each end one scan
    step beyond."""
    require_count("num", num, MIN_CURVE_POINTS)
    _, p, dens = _scan(density, t_range)
    keep = np.flatnonzero(dens >= 1e-3 * dens.max())
    grid = np.linspace(p[max(keep[0] - 1, 0)], p[min(keep[-1] + 1, p.size - 1)], num)
    return grid, density(grid)


@dataclass(frozen=True)
class ExactMarginal:
    """Exact marginal posterior of the weight under the prior record of its
    one-row theta ``rule``, whose Beta law for ``pstar = f0 + p * (1 - f0)``
    given theta, averaged over theta and mapped back to p, gives the density
    and CDF: the rule's ``marginal`` kernel, of which factorized T is ``1 -
    CDF(0)``.  Each point gets its own Gauss-Legendre nodes: the rule's panels
    cut at the points of its ``window`` of ``1 - pstar``, mapped to the rule's
    coordinate through ``1 - pstar = (1 - p)(1 - f0)``.  Root searches run in
    ``t = log(1 - p)``, where the heavy left tail of an all-ones sample
    (theta near zero sends ``-f0 / (1 - f0)`` to minus infinity) becomes an
    exponential one.  Built by ``exact_marginal``.
    """

    rule: _ThetaPosterior

    def _local(self, p, density: bool = True, cdf: bool = False):
        """``marginal``'s density, its derivative in p and CDF at ``p``, of any shape."""
        p = np.asarray(p, dtype=float)
        out = self.rule.marginal(p.ravel(), np.zeros(p.size, dtype=np.intp), density, cdf)
        return tuple(None if v is None else v.reshape(p.shape)[()] for v in out)

    def density(self, p) -> np.ndarray:
        """Marginal posterior density of the weight at ``p``."""
        return self._local(p)[0]

    def cdf(self, p) -> np.ndarray:
        """Marginal posterior CDF of the weight at ``p``, in [0, 1]."""
        return self._local(p, density=False, cdf=True)[2]

    def _quantile_t(self, q: np.ndarray) -> np.ndarray:
        """``t = log(1 - p)`` where the CDF is each level of ``q``, a row
        each, by Newton steps from the conditional quantiles at the theta
        mode."""
        om = -math.expm1(-self.rule.series.coord_point(self.rule.mode[0])[1])

        def fun(t, rows):
            dens, _, cdf = self._local(-np.expm1(t), cdf=True)
            return cdf - q[rows], -dens * np.exp(t)

        t = np.log(special.betaincinv(self.rule.b[0], self.rule.a[0], 1.0 - q) / om)  # 1 - pstar
        return _newton(fun, t, 1e-9 * np.maximum(1.0, np.abs(t)))

    def _flank_t(self, log_c: float, t, split: float) -> np.ndarray:
        """``t`` where the log density is ``log_c``, from the two starts
        ``t``: above ``split`` on the lower flank and below it on the upper,
        two rows of one search."""
        side = np.array([1.0, -1.0])

        def fun(t, rows):
            f, df, _ = self._local(-np.expm1(t))
            with np.errstate(divide="ignore", invalid="ignore"):
                return side[rows] * (np.log(f) - log_c), -side[rows] * (df / f) * np.exp(t)

        return _newton(fun, t, 1e-9 * np.maximum(1.0, np.abs(t)),
                       lo=[split, -math.inf], hi=[math.inf, split])

    def _mode_t(self, lo: float, hi: float) -> float:
        """``t`` at the density's mode, between ``lo`` and ``hi``, by secant
        steps on ``d log f / dt``, which falls through zero there."""
        last = [math.nan, math.nan]  # the first step has no slope: a bisection

        def fun(t, rows):
            f, df, _ = self._local(-np.expm1(t))
            with np.errstate(divide="ignore", invalid="ignore"):
                d = -(df / f) * np.exp(t)
                slope = (d - last[1]) / (t - last[0])
            last[:] = [t, d]
            return d, slope

        return _newton(fun, [0.5 * (lo + hi)], 1e-12 * max(1.0, abs(lo)), lo, hi)[0]

    def _t_range(self) -> np.ndarray:
        """The range of ``t`` that the rule's ``window`` reaches over its
        theta bracket, from its top down."""
        log_c = self.rule.log_density(self.rule.cuts[0, ::2])[1]
        return np.log(self.rule.window[0, ::-2] / -np.expm1(-log_c))

    def interval(self, level: float, kind: IntervalKind) -> IntervalEstimate:
        """Equal-tail interval (two CDF roots) or HPD interval (the level set
        ``density >= c`` holding ``level``).

        The HPD threshold starts from trapezoid cells of a scan of the
        density, taken in decreasing height until they hold ``level``, and
        is refined by Newton steps on ``log c``, each solving
        ``density = c`` on both flanks.  ``kind`` is a member or its value.
        If the scan's super-level set is not one block of points, its hull
        is returned with a warning.
        """
        require_probability("level", level)
        kind = IntervalKind(kind)
        if kind is IntervalKind.EQUAL_TAIL:
            half = 0.5 * (1.0 - level)
            ends = self._quantile_t(np.array([half, 1.0 - half]))
            return IntervalEstimate(*map(float, -np.expm1(ends)), level, kind)
        t, p, dens = _scan(self.density, self._t_range())
        cell = 0.5 * (dens[1:] + dens[:-1])
        mass = cell * np.diff(p)
        order = np.argsort(-cell)
        k = int(np.searchsorted(np.cumsum(mass[order]), level * mass.sum()))
        threshold = float(cell[order[min(k, cell.size - 1)]])
        idx = np.flatnonzero(cell >= threshold)
        above = np.flatnonzero(dens >= threshold)
        if above[-1] - above[0] + 1 != above.size:
            warnings.warn("exact posterior not unimodal at the HPD threshold; "
                          "returning the hull of the super-level set", stacklevel=2)
            return IntervalEstimate(float(p[idx[0]]), float(p[idx[-1] + 1]), level,
                                    kind, density_threshold=threshold,
                                    note="multimodal density; hull of super-level set")
        k = int(np.argmax(dens))
        split = self._mode_t(t[min(k + 1, t.size - 1)], t[max(k - 1, 0)])
        peak = float(self.density(-math.expm1(split)))
        ends = t[[idx[0], idx[-1] + 1]]

        def fun(log_c, rows):  # mass of {density >= c} less the level, decreasing in c
            ends[:] = self._flank_t(log_c[0], ends, split)
            _, df, cdf = self._local(-np.expm1(ends), cdf=True)
            with np.errstate(divide="ignore", invalid="ignore"):
                slope = np.exp(2.0 * log_c) * (1.0 / df[1] - 1.0 / df[0])
            return cdf[1:] - cdf[:1] - level, slope

        log_c = _newton(fun, [math.log(threshold)], 1e-15, hi=math.log(peak), ftol=1e-12)[0]
        return IntervalEstimate(*map(float, -np.expm1(ends)), level, kind,
                                density_threshold=math.exp(log_c))

    def curve(self, num: int = 512) -> tuple[np.ndarray, np.ndarray]:
        """Density on ``num`` even points spanning where it is at least a
        thousandth of its peak, each end one scan step beyond."""
        return _curve(self.density, self._t_range(), num)


def exact_marginal(family: Family, sample: CountSample) -> ExactMarginal:
    """The exact marginal posterior of the weight under the default prior on
    the theta rule."""
    _require_counts(sample, zero=True)
    rule = _ThetaPosterior(family, sample.n0, sample.n - sample.n0, sample.s)
    # one evaluation at p = 0, which raises where the rule has no weight
    rule.marginal(np.zeros(1), np.zeros(1, dtype=np.intp), density=False)
    return ExactMarginal(rule)


# ---------------------------------------------------------------------------
# marginal density of the weight, credible and HPD intervals


def _marginal_density_evaluator(draws: PosteriorDraws, sample: CountSample):
    """Vectorized p -> estimated marginal posterior density of the weight.

    Averages the conditional density of p given each drawn theta (the theta
    rule's Beta law of pstar, times the Jacobian ``1 - f0``), which smooths
    much better than a histogram of the p draws and integrates to one by
    construction.  ``sample`` must be the one the draws came from, whose rule
    sets the Beta law; ``f0`` comes from ``log c`` as in ``draw_posterior``.
    """
    if sample != draws.sample:
        raise ValueError("sample is not the one the posterior draws came from")
    rule = _ThetaPosterior(draws.family, sample.n0, sample.n - sample.n0, sample.s)
    log_c = rule.series.log_c(draws.theta)
    f0, scale = np.exp(-log_c), -np.expm1(-log_c)  # scale: Jacobian of p -> pstar

    def evaluate(p_values) -> np.ndarray:
        p_values = np.atleast_1d(np.asarray(p_values, dtype=float))
        out = np.zeros(p_values.shape)
        for idx, pj in enumerate(p_values):
            if pj >= 1.0:
                continue
            pstar = f0 + pj * scale
            valid = pstar > 0.0
            log_pdf = rule.log_pstar_pdf(pstar[valid], (1.0 - pj) * scale[valid])
            out[idx] = np.sum(np.exp(log_pdf) * scale[valid]) / draws.B
        return out

    return evaluate


def credible_interval(draws: PosteriorDraws, level: float) -> IntervalEstimate:
    """Equal-tail posterior interval from the weight draws."""
    require_probability("level", level)
    half = 0.5 * (1.0 - level)
    lo, hi = np.quantile(draws.p, [half, 1.0 - half])
    return IntervalEstimate(float(lo), float(hi), level, IntervalKind.EQUAL_TAIL)


def hpd_interval(draws: PosteriorDraws, sample: CountSample,
                 level: float) -> IntervalEstimate:
    """Highest posterior density interval for the weight.

    The density threshold is the ``100 * (1 - level)`` percentile of the
    estimated density at the draws; the interval endpoints solve
    ``density = threshold`` on each monotone flank of the (unimodal)
    estimate.  If the super-level set on the grid is not one block of
    points, its hull is returned with a warning.
    """
    require_probability("level", level)
    evaluate = _marginal_density_evaluator(draws, sample)
    lo, hi = float(draws.p.min()), float(draws.p.max())
    grid = np.linspace(lo, hi, 1025)
    dens = evaluate(grid)
    dens_at_draws = np.interp(draws.p, grid, dens)
    threshold = float(np.percentile(dens_at_draws, 100.0 * (1.0 - level)))

    idx = np.flatnonzero(dens >= threshold)
    note = None
    if idx[-1] - idx[0] + 1 != idx.size:
        warnings.warn("estimated posterior not unimodal at the HPD threshold; "
                      "returning the hull of the super-level set", stacklevel=2)
        lower, upper = float(grid[idx[0]]), float(grid[idx[-1]])
        note = "multimodal density estimate; hull of super-level set"
    else:
        # bisect the two flank cells of the one super-level block, as two
        # rows; lo and hi pad the grid with empty cells, where a flank that
        # stays above the threshold ends.  _newton needs
        # side * (density - threshold) falling: side is -1 on the rising flank
        cells = np.r_[lo, grid, hi]
        a, b = cells[[idx[0], idx[-1] + 1]], cells[[idx[0] + 1, idx[-1] + 2]]
        side = np.array([-1.0, 1.0])
        fun = lambda q, rows: (side[rows] * (evaluate(q) - threshold), np.full(rows.size, math.nan))
        lower, upper = map(float, _newton(fun, 0.5 * (a + b), 1e-10, a, b))
    return IntervalEstimate(lower, upper, level, IntervalKind.HPD,
                            density_threshold=threshold, note=note)


def density_curve(draws: PosteriorDraws, sample: CountSample,
                  num: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """Marginal posterior density of the weight on ``num`` even points.

    Laid as the exact marginal's curve is: a scan even in ``t = log(1 - p)``
    across the hull of the draws, its top at most ``1 - 1e-9``, finds where
    the density is at least a thousandth of its peak, so that the long left
    tail of an all-ones sample does not swallow the grid.
    """
    p = np.array([draws.p.min(), min(draws.p.max(), 1.0 - 1e-9)])
    return _curve(_marginal_density_evaluator(draws, sample), np.log1p(-p), num)


# ---------------------------------------------------------------------------
# posterior-odds Bayes factor


def _prior_prob_positive(family: Family, prior: PriorKind,
                         theta_window: tuple[float, float]) -> tuple[float, tuple[float, float]]:
    """Prior probability of positive weight, theta averaged over a window.

    Both theta integrals use one 241-node tanh-sinh rule in ``log theta``.  The
    window, clipped to the family's range, must give finite prior odds."""
    series, prior = family._series, prior._prior
    lo, hi = theta_window
    hi = min(hi, series.theta_max - 1e-6)
    lo = max(lo, 1e-12)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"theta window {theta_window!r}: a non-finite end in the family's range")
    if not hi > lo:
        raise ValueError(f"theta window {theta_window!r}: empty in the family's range")
    a, b = math.log(lo), math.log(hi)
    tau = np.linspace(-4.0, 4.0, 241)
    arg = 0.5 * math.pi * np.sinh(tau)
    theta = np.exp(0.5 * (a + b) + 0.5 * (b - a) * np.tanh(arg))
    log_c = series.log_c(theta)
    # the prior's theta marginal g times dtheta/dtau
    weight = (np.exp(prior.log_g(series, theta, log_c))
              * theta * np.cosh(tau) / np.cosh(arg) ** 2)
    # mass above zero is the tail beyond f0 of pstar's Beta(1/2, 1 - k/2) law, in
    # closed form: (2/pi) acos(sqrt(f0)) for k = 1 and 1 - sqrt(f0) for k = 0
    om, root_f0 = -np.expm1(-log_c), np.sqrt(series.f0(theta))
    positive = (2.0 / math.pi * np.arctan2(np.sqrt(om), root_f0) if prior.k
                else om / (1.0 + root_f0))
    q = float(weight @ positive / weight.sum())
    if not 0.0 < q < 1.0:
        raise ValueError(f"theta window {theta_window!r}: prior P(p > 0) = {q!r}, no finite odds")
    return q, (lo, hi)


def bayes_factor_positive(family: Family, sample: CountSample,
                          prior: PriorKind = _DEFAULT_PRIOR, B: int = 0, seed: int = 0,
                          theta_window: tuple[float, float] = DEFAULT_THETA_WINDOW
                          ) -> BayesFactorResult:
    """Posterior odds of {p > 0} divided by its prior odds.

    ``B = 0`` takes exact T, resolved to 1e-8; ``B > 0`` takes the paper's
    sampler with ``B`` draws from ``seed``, resolved to the larger of its
    standard error and ``1/B``.  Within its resolution of one, T gives a lower
    bound on the factor (flagged on the result).
    """
    require_count("B", B, 0)
    require_count("seed", seed, 0)
    if B:
        est = posterior_prob_positive(family, sample, prior, B, seed)
        t, floor = est.value, max(est.mc_se, 1.0 / B)
    else:
        t, floor = posterior_prob_positive_factorized(family, sample, prior), _FACTORIZED_T_ACCURACY
    q, window = _prior_prob_positive(family, prior, theta_window)
    lower_bound = t > 1.0 - floor
    t_eff = min(t, 1.0 - floor)
    factor = (t_eff / (1.0 - t_eff)) / (q / (1.0 - q))
    return BayesFactorResult(value=factor, posterior_prob=t, prior_prob=q,
                             theta_window=window, lower_bound=lower_bound)
