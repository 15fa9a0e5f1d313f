"""Zero-inflated power series count distributions.

A power series family puts mass proportional to ``a_y * theta**y`` on the
nonnegative integers; Poisson and geometric are the two members shipped here.
The zero-inflated variant adds an extra weight ``p`` at zero,

    P(Y = 0) = p + (1 - p) * f(0 | theta)
    P(Y = y) = (1 - p) * f(y | theta),   y >= 1,

and remains a proper distribution for negative ``p`` down to the open lower
endpoint ``-f0 / (1 - f0)``.  Negative weights describe a deficit of zeros
(zero deflation), so ``p = 0`` sits in the interior of the parameter range
and standard interior-point inference applies.

Everything in this module is a pure function of its inputs.  ``sample`` takes
an explicit seed and never touches global random state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from ._lazy import LazyModule
from .counts import CountSample
from .errors import DegenerateSampleError, ParameterRangeError, QuadratureError
from .limits import require_count

special = LazyModule("scipy.special", globals())

# Open endpoints are rejected within this relative margin to keep logs finite.
BOUNDARY_MARGIN = 1e-12


@dataclass(frozen=True)
class _PowerSeries:
    """Primitives of one power series family (see ``Family``)."""

    theta_max: float
    f0: Callable
    f0_derivs: Callable
    log_c: Callable
    log_c_derivs: Callable
    log_a: Callable
    mean: Callable
    theta_from_mean: Callable
    coord: Callable
    coord_point: Callable
    coord_score: Callable
    coord_from_log_c: Callable
    draws: Callable
    tail_bound: Callable
    trunc_info: Callable
    dlog_trunc_info: Callable
    log_jeffreys: Callable
    dlog_jeffreys: Callable


def _poisson_tail_bound(theta: float, eps: float) -> int:
    # the Poisson inverse survival function (scipy.stats' discrete rule on
    # pdtrik/pdtr) loses precision below 1e-16; extend geometrically from
    # there using the tail ratio bound
    clamped = max(eps, 1e-16)
    q = 1.0 - clamped
    isf = math.ceil(special.pdtrik(q, theta))
    if isf > 0 and special.pdtr(isf - 1, theta) >= q:
        isf -= 1
    bound = isf + 2
    if eps < clamped:
        ratio = min(theta / (bound + 1.0), 0.99)
        bound += int(math.ceil(math.log(eps / clamped) / math.log(ratio))) + 1
    return bound


def _poisson_dlog_trunc_info(theta, log_c):
    e = np.exp(-theta)
    om = -np.expm1(-theta)
    return theta * e / special.gammainc(2.0, theta) - 1.0 / theta - 2.0 * e / om


def _geometric_coord(v, v0):
    # log theta and log(c - 1) = v less their values at v0, with all their digits
    log_c, d = np.logaddexp(0.0, v), v - v0
    log_theta = -np.log1p(np.exp(-np.logaddexp(0.0, v0)) * np.expm1(-d))
    return -np.expm1(-log_c), log_theta, log_c, d, -log_c


# c(theta) = exp(theta), a_y = 1 / y!
_POISSON = _PowerSeries(
    theta_max=math.inf,
    f0=lambda t: np.exp(-t),
    f0_derivs=lambda t: (-(e := np.exp(-t)), e, -e),
    log_c=lambda t: t,
    log_c_derivs=lambda t: (1.0, 0.0, 0.0),
    log_a=lambda y: -special.gammaln(y + 1.0),
    mean=lambda t: t,
    theta_from_mean=lambda mean: mean,
    coord=lambda u, u0: (t := np.exp(u), u, t, t + np.log(-np.expm1(-t)), 0.0),
    coord_point=lambda u: (np.exp(u),) * 2,
    coord_score=lambda t, log_c, m, s, dlog_g: (s + 1.0 + t * dlog_g(t, log_c)
                                                - m * t / -np.expm1(-log_c)),
    coord_from_log_c=np.log,
    draws=lambda rng, t, n: rng.poisson(t, n),
    tail_bound=_poisson_tail_bound,
    # 1 - e^-t - t e^-t, without its cancellation at small t
    trunc_info=lambda t, log_c: special.gammainc(2.0, t) / (t * np.square(np.expm1(-t))),
    dlog_trunc_info=_poisson_dlog_trunc_info,
    log_jeffreys=lambda t, log_c, log_t=None: -0.5 * (np.log(t) if log_t is None else log_t),
    dlog_jeffreys=lambda t, log_c: -0.5 / t,
)

# c(theta) = 1 / (1 - theta), a_y = 1
_GEOMETRIC = _PowerSeries(
    theta_max=1.0,
    f0=lambda t: 1.0 - t,
    f0_derivs=lambda t: (-1.0, 0.0, 0.0),
    log_c=lambda t: -np.log1p(-t),
    log_c_derivs=lambda t: (1.0 / (1.0 - t), 1.0 / np.square(1.0 - t),
                            2.0 / np.power(1.0 - t, 3)),
    log_a=lambda y: 0.0,
    mean=lambda t: t / (1.0 - t),
    theta_from_mean=lambda mean: mean / (1.0 + mean),
    coord=_geometric_coord,  # v = logit(theta)
    # log c = log1p(e^v) without overflow
    coord_point=lambda v: (-np.expm1(-(c := np.maximum(v, 0.0) + np.log1p(np.exp(-np.abs(v))))), c),
    coord_score=lambda t, log_c, m, s, dlog_g: (np.exp(-log_c) * (s + 1.0 + t * dlog_g(t, log_c))
                                                - m - t),
    coord_from_log_c=lambda log_c: np.log(np.expm1(log_c)),
    # numpy's geometric counts trials >= 1 with success probability 1 - theta
    draws=lambda rng, t, n: rng.geometric(1.0 - t, n) - 1,
    # P(Y > y) = theta**(y + 1)
    tail_bound=lambda t, eps: int(math.ceil(math.log(eps) / math.log(t))) + 2,
    trunc_info=lambda t, log_c: np.exp(2.0 * log_c) / t,
    dlog_trunc_info=lambda t, log_c: -1.0 / t + 2.0 * np.exp(log_c),
    log_jeffreys=lambda t, log_c, log_t=None: -0.5 * (np.log(t) if log_t is None else log_t) + log_c,
    dlog_jeffreys=lambda t, log_c: -0.5 / t + np.exp(log_c),
)


class Family(Enum):
    """Power series base family, ``f(y | theta) = a_y * theta**y / c(theta)``.

    The members differ only in their record of primitives, ``_series``;
    the likelihood and its derivatives, both Fisher informations, the
    priors, the score and likelihood ratio statistics are each written once
    in terms of it.  With the normalization ``a_0 = a_1 = 1``, the zero
    probability is ``f0 = 1 / c(theta)``.  A new family adds a member with
    a ``_PowerSeries`` record supplying:

    * ``theta_max``: theta ranges over ``(0, theta_max)``;
    * ``f0`` and ``f0_derivs``: ``f0`` and its first three theta-derivatives;
    * ``log_c`` and ``log_c_derivs``: ``log c`` and its first three
      derivatives;
    * ``log_a``: ``log a_y``, vectorized over ``y``;
    * ``mean`` and ``theta_from_mean``: the family mean and its inverse;
    * ``coord(x, x0)``: the Bayes theta rule's terms ``(theta, log theta, log c,
      log(c - 1), log(du/dx))``, with ``u = log theta``, at ``x``, the log of
      the family mean and so an unbounded coordinate of theta, the 2nd and 4th
      maybe less their value at ``x0``; ``coord_point(x)``: ``(theta,
      log c)``; ``coord_score(theta, log c, m, s, dlog_g)``: the
      rule's score in x given ``d log g / d theta``; ``coord_from_log_c``;
    * ``draws``: the base sampler;
    * ``tail_bound``: a ``y`` with tail mass beyond it below ``eps``;
    * ``trunc_info`` and ``dlog_trunc_info``: the Fisher information of the
      zero-truncated family and the derivative of its log;
    * ``log_jeffreys`` and ``dlog_jeffreys``: the log of the family's
      Jeffreys prior for theta, ``sqrt(i(theta))``, and its derivative.

    The last four take ``log c`` after theta, so as not to round ``1 - theta``;
    ``log_jeffreys`` also takes ``log theta`` where a caller has it.
    All but ``draws`` and ``tail_bound`` are elementwise over arrays, and
    none checks theta: ``ZipsModel`` does, through ``require_theta``.
    """

    POISSON = "poisson", _POISSON
    GEOMETRIC = "geometric", _GEOMETRIC

    def __new__(cls, value: str, series: _PowerSeries):
        member = object.__new__(cls)
        member._value_ = value
        member._series = series
        return member

    def require_theta(self, theta: float) -> None:
        """Raise unless ``theta`` is strictly inside the family's range."""
        hi = self._series.theta_max
        if not (BOUNDARY_MARGIN < theta < hi - BOUNDARY_MARGIN):
            raise ParameterRangeError(
                f"{self.value} parameter must lie in (0, {hi}), got theta={theta!r}")

    def f0(self, theta):
        """Base-family probability of zero, ``1 / c(theta)``."""
        return self._series.f0(theta)


def _log_a_sum(family: Family, sample: CountSample) -> float:
    """Data constant ``sum_i log a_{y_i}`` of the log likelihood."""
    log_a = family._series.log_a
    return sum(count * log_a(value) for value, count in sample.freq.items() if value)


def _require_counts(sample: CountSample, *, zero: bool = False) -> None:
    """Raise ``DegenerateSampleError`` unless the sample has a positive count
    and, with ``zero``, a zero as well."""
    if sample.n0 == sample.n or zero and sample.n0 == 0:
        raise DegenerateSampleError("the sample needs both a zero and a positive count"
                                    if zero else "the sample needs a positive count")


def _newton(fun, x, tol, lo=-math.inf, hi=math.inf, ftol=0.0):
    """Roots of a decreasing ``fun`` (returning value and slope) by Newton
    steps from ``x``, row by row.  ``x``, ``tol``, ``lo``, ``hi`` and
    ``ftol`` are scalars or arrays over rows, broadcast together.  A row
    stops once a step is below its ``tol`` (after a Newton step the error is
    of order ``tol**2``) or at a point where ``|fun|`` is at most its
    ``ftol``.  Its ``lo`` and ``hi`` bracket the root and shrink as it goes;
    a step that leaves them bisects them, or, while a side is still open,
    steps outward from the other by a doubling length.  Every row takes the
    steps, and the calls of ``fun``, that it would take alone: ``fun(x,
    rows)`` gets the rows still searching, by flat index, and the roots come
    back as an array of the broadcast shape."""
    shape = np.broadcast_shapes(*map(np.shape, (x, tol, lo, hi, ftol)))
    x, tol, lo, hi, ftol = (np.array(np.broadcast_to(v, shape), dtype=float).ravel()
                            for v in (x, tol, lo, hi, ftol))
    step, root, rows = np.full(x.size, 0.5), np.empty(x.size), np.arange(x.size)
    for _ in range(200):
        if not rows.size:
            break
        at, near = x[rows], tol[rows]
        val, slope = (np.asarray(v, dtype=float) for v in fun(at, rows))
        found = np.abs(val) <= ftol[rows]
        rising = val > 0.0
        lo[rows] = low = np.where(rising, at, lo[rows])
        hi[rows] = high = np.where(rising, hi[rows], at)
        with np.errstate(divide="ignore", invalid="ignore"):
            new = np.where((-math.inf < slope) & (slope < 0.0), at - val / slope, math.nan)
        stray = ~((low < new) & (new < high) | (np.abs(new - at) <= near))
        if stray.any():
            open_side = np.isinf(high) | np.isinf(low)
            length = step[rows]
            new = np.where(stray, np.where(open_side, np.where(np.isinf(high), low + length,
                                                               high - length),
                                           0.5 * (low + high)), new)
            step[rows] = np.where(stray & open_side, 2.0 * length, length)
        root[rows] = np.where(found, at, new)
        x[rows] = new
        rows = rows[~(found | (np.abs(new - at) <= near))]
    if rows.size:
        raise QuadratureError(f"root search did not converge in 200 steps on {rows.size} "
                              f"of {x.size} rows")
    return root.reshape(shape)


class Parametrization(Enum):
    """Coordinate system of a Fisher information matrix."""

    P_THETA = "p_theta"
    PSTAR_THETA = "pstar_theta"


def p_lower(family: Family, theta: float) -> float:
    """Open lower endpoint of the zero-inflation weight range.

    Equals ``-f0 / (1 - f0)`` where ``f0`` is the base probability of zero;
    always negative and approaching 0 from below as ``f0`` shrinks.
    """
    family.require_theta(theta)
    f0 = float(family.f0(theta))
    return -f0 / (1.0 - f0)


@dataclass(frozen=True)
class ZipsModel:
    """A zero-inflated power series model on the extended weight range.

    Constructing it is the one range check of a (p, theta) pair: theta must
    lie in ``(0, theta_max)`` and p in ``(p_lower(family, theta), 1)``, both
    open and shrunk by ``BOUNDARY_MARGIN`` (relative to ``|p_lower|`` at the
    lower end of p), or ``ParameterRangeError`` is raised.  Every function
    taking (p, theta), or pstar and theta, builds one and so accepts exactly
    this range.

    Parameters
    ----------
    family : Family
        Base power series family.
    p : float
        Mixing weight for the extra mass at zero; may be negative down to
        (but excluding) ``p_lower(family, theta)``.
    theta : float
        Base family parameter (Poisson rate, or geometric parameter in (0,1)).
    """

    family: Family
    p: float
    theta: float

    def __post_init__(self):
        lo = p_lower(self.family, self.theta)
        # margin scaled by the range width below zero so that p = 0 stays
        # valid even when the lower endpoint is within rounding of zero
        margin = BOUNDARY_MARGIN * abs(lo)
        if not (lo + margin < self.p < 1.0 - BOUNDARY_MARGIN):
            raise ParameterRangeError(
                f"zero-inflation weight p={self.p!r} outside open range "
                f"({lo!r}, 1) for theta={self.theta!r}")

    @property
    def pzero(self) -> float:
        """Total probability of zero, ``p + (1 - p) * f0``."""
        f0 = float(self.family.f0(self.theta))
        return f0 + self.p * (1.0 - f0)

    def mean(self) -> float:
        """Model mean, ``(1 - p)`` times the base-family mean."""
        return (1.0 - self.p) * self.family._series.mean(self.theta)

    def support_bound(self, eps: float) -> int:
        """Smallest y with model tail mass beyond y below ``eps``, for
        ``0 < eps < 1``."""
        if not 0.0 < eps < 1.0:
            raise ParameterRangeError(f"tail mass must lie in (0, 1), got eps={eps!r}")
        scale = max(1.0 - self.p, 1e-300)
        if scale <= eps:  # all the mass above zero is below eps
            return 10
        return max(self.family._series.tail_bound(self.theta, eps / scale), 10)


@dataclass(frozen=True)
class FisherInfo:
    """Per-observation Fisher information matrix entries."""

    i11: float
    i12: float
    i22: float
    parametrization: Parametrization

    def matrix(self) -> np.ndarray:
        return np.array([[self.i11, self.i12], [self.i12, self.i22]])

    def det(self) -> float:
        return self.i11 * self.i22 - self.i12 * self.i12


def log_pmf(model: ZipsModel, y):
    """Log probability mass at ``y`` (scalar or integer array)."""
    arr = np.asarray(y)
    if np.any(arr < 0) or not np.issubdtype(arr.dtype, np.integer):
        if (np.any(arr < 0) or np.any(arr >= 2.0 ** 63)
                or not np.all(np.equal(np.mod(arr, 1), 0))):
            raise ValueError("y must contain nonnegative integers below 2**63")
        arr = arr.astype(np.int64)
    series = model.family._series
    base = -series.log_c(model.theta) + arr * math.log(model.theta) + series.log_a(arr)
    return np.where(arr == 0, math.log(model.pzero), math.log1p(-model.p) + base)[()]


def pmf(model: ZipsModel, y):
    """Probability mass at ``y``; handles negative weights in range."""
    return np.exp(log_pmf(model, y))


def _log_likelihood(family: Family, p: float, theta: float, sample: CountSample,
                    *, allow_boundary: bool = False) -> float:
    """Log likelihood at raw parameter values.

    With ``allow_boundary`` the weight may sit at the exact lower endpoint,
    where the zero-probability term is dropped when the sample has no zeros
    and -inf is returned when it does; otherwise ``ZipsModel`` checks (p, theta).
    """
    if allow_boundary:
        lo = p_lower(family, theta)
        if not (lo - 1e-9 <= p < 1.0):
            raise ParameterRangeError(f"p={p!r} outside closed range [{lo!r}, 1)")
        f0 = float(family.f0(theta))
        pzero = f0 + p * (1.0 - f0)
    else:
        pzero = ZipsModel(family, p, theta).pzero
    m = sample.n - sample.n0
    ll = 0.0
    if sample.n0 > 0:
        if pzero <= 0.0:
            return -math.inf
        ll += sample.n0 * math.log(pzero)
    if m > 0:
        ll += m * math.log1p(-p)
        ll += -m * family._series.log_c(theta) + sample.s * math.log(theta)
        ll += _log_a_sum(family, sample)
    return float(ll)


def log_likelihood(model: ZipsModel, sample: CountSample) -> float:
    """Log likelihood of the sample under the model.

    Includes the data-dependent constants (for Poisson, the log factorial
    terms), so absolute values are comparable across families; likelihood
    ratios cancel them either way.
    """
    return _log_likelihood(model.family, model.p, model.theta, sample)


def loglik_derivatives(family: Family, p: float, theta: float,
                       sample: CountSample):
    """First, second and third derivatives of the total log likelihood.

    Returns ``(grad, hess, third)`` with shapes (2,), (2, 2) and (2, 2, 2),
    in (p, theta) order.  The third-order tensor is symmetric in its indices.
    """
    a = ZipsModel(family, p, theta).pzero
    series = family._series
    f0 = series.f0(theta)
    n0, m, s = sample.n0, sample.n - sample.n0, sample.s

    # a = f0 + p * (1 - f0) is linear in p, so its derivatives follow f0's
    d1, d2, d3 = series.f0_derivs(theta)
    ap, at = 1.0 - f0, (1.0 - p) * d1
    apt, att = -d1, (1.0 - p) * d2
    aptt, attt = -d2, (1.0 - p) * d3
    # the positive counts contribute s * log(theta) - m * log(c(theta))
    c1, c2, c3 = series.log_c_derivs(theta)
    t1 = -m * c1 + s / theta
    t2 = -m * c2 - s / theta ** 2
    t3 = -m * c3 + 2.0 * s / theta ** 3

    # derivatives of log(a); a_pp and all its p,p,* derivatives vanish
    lp, lt = ap / a, at / a
    lpp = -(ap / a) ** 2
    lpt = apt / a - ap * at / a ** 2
    ltt = att / a - (at / a) ** 2
    lppp = 2.0 * ap ** 3 / a ** 3
    lppt = -2.0 * apt * ap / a ** 2 + 2.0 * ap ** 2 * at / a ** 3
    lptt = aptt / a - (2.0 * apt * at + att * ap) / a ** 2 + 2.0 * ap * at ** 2 / a ** 3
    lttt = attt / a - 3.0 * att * at / a ** 2 + 2.0 * at ** 3 / a ** 3

    one_m_p = 1.0 - p
    grad = np.array([n0 * lp - m / one_m_p, n0 * lt + t1])
    hess = np.array([
        [n0 * lpp - m / one_m_p ** 2, n0 * lpt],
        [n0 * lpt, n0 * ltt + t2],
    ])
    third = np.empty((2, 2, 2))
    third[0, 0, 0] = n0 * lppp - 2.0 * m / one_m_p ** 3
    third[0, 0, 1] = third[0, 1, 0] = third[1, 0, 0] = n0 * lppt
    third[0, 1, 1] = third[1, 0, 1] = third[1, 1, 0] = n0 * lptt
    third[1, 1, 1] = n0 * lttt + t3
    return grad, hess, third


def fisher_info(model: ZipsModel) -> FisherInfo:
    """Per-observation Fisher information in the (p, theta) coordinates.

    The orthogonal information mapped through the Jacobian of
    ``(p, theta) -> (pstar, theta)``, whose first row is ``(1 - f0, (1 - p) f0')``.
    """
    p, theta = model.p, model.theta
    series = model.family._series
    f0 = float(series.f0(theta))
    d1 = float(series.f0_derivs(theta)[0])
    a = f0 + p * (1.0 - f0)
    om = 1.0 - f0
    i11 = om / ((1.0 - p) * a)
    i12 = d1 / a
    info = float(series.trunc_info(theta, series.log_c(theta)))
    i22 = (1.0 - p) * (d1 * d1 / (a * om) + om * info)
    return FisherInfo(i11, i12, i22, Parametrization.P_THETA)


def to_pstar(model: ZipsModel) -> tuple[float, float]:
    """Map to the orthogonal coordinates ``(pstar, theta)``.

    ``pstar = p + (1 - p) * f0`` is the total probability of zero; the map is
    increasing in ``p`` and sends the extended weight range onto (0, 1).
    """
    return model.pzero, model.theta


def from_pstar(family: Family, pstar: float, theta: float) -> ZipsModel:
    """Inverse of ``to_pstar``: the model whose ``p`` puts ``pstar`` at zero,
    which ``ZipsModel`` checks, so ``pstar`` must lie in (0, 1)."""
    f0 = float(family.f0(theta))
    # 1 - f0 vanishes only at a theta that ZipsModel rejects
    return ZipsModel(family, (pstar - f0) / (1.0 - f0) if f0 != 1.0 else math.nan, theta)


def fisher_info_orthogonal(family: Family, pstar: float, theta: float) -> FisherInfo:
    """Per-observation Fisher information in the (pstar, theta) coordinates.

    The matrix is exactly diagonal: pstar is a Bernoulli zero-probability,
    so its information is ``1 / (pstar * (1 - pstar))`` regardless of family,
    and theta is informed by the ``1 - pstar`` share of positive counts, drawn
    from the zero-truncated family.  (pstar, theta) is checked as ``from_pstar``'s.
    """
    from_pstar(family, pstar, theta)
    i11 = 1.0 / (pstar * (1.0 - pstar))
    i22 = (1.0 - pstar) * float(family._series.trunc_info(theta, family._series.log_c(theta)))
    return FisherInfo(i11, 0.0, i22, Parametrization.PSTAR_THETA)


def sample(model: ZipsModel, n: int, rng_seed) -> CountSample:
    """Draw ``n`` independent counts from the model.

    For ``p >= 0`` the two-stage mixture is used (with probability p emit a
    zero, otherwise draw from the base family).  For negative p the mixture
    decomposition is invalid, so draws come from the inverse CDF of the
    zero-inflated pmf directly.  ``rng_seed`` is an integer of at least 0 or
    a ``Generator``, whose draws it advances.
    """
    if not isinstance(rng_seed, np.random.Generator):
        require_count("rng_seed", rng_seed, 0)
    rng = np.random.default_rng(rng_seed)
    values = sample_values(model, n, rng)
    return CountSample.from_values(values)


def sample_values(model: ZipsModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Raw count draws as an integer array (back end for ``sample``); ``n``
    must be a positive integer."""
    # concrete types, not numbers.Integral: this runs once per replication
    if not (isinstance(n, (int, np.integer)) and n > 0):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    p, theta = model.p, model.theta
    if p >= 0.0:
        out = model.family._series.draws(rng, theta, n)
        if p > 0.0:
            out[rng.random(n) < p] = 0
        return out
    upper = model.support_bound(1e-15)
    cdf = np.cumsum(np.exp(log_pmf(model, np.arange(upper + 1))))
    idx = np.searchsorted(cdf, rng.random(n), side="right")
    return np.minimum(idx, upper).astype(np.int64)
