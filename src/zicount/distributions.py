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
from scipy import special

from .errors import ParameterRangeError

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
    theta_from_log_c: Callable
    truncated_mle: Callable
    draws: Callable
    tail_bound: Callable
    trunc_info: Callable
    dlog_trunc_info: Callable
    log_jeffreys: Callable
    dlog_jeffreys: Callable


def _poisson_f0(theta):
    # numpy for arrays of posterior draws, math for the scalar hot paths
    return np.exp(-theta) if isinstance(theta, np.ndarray) else math.exp(-theta)


def _poisson_truncated_mle(m: int, s: float, tol: float, max_iter: int):
    """Solve ``theta = c * (1 - exp(-theta))``, ``c = s / m``, by damped
    fixed point.

    ``c`` is both the starting value and the map scale.  The map is
    monotone and contracts near the solution; damping by half guards
    against overshoot when successive steps change direction.
    """
    c = s / m
    theta = c
    prev_delta = 0.0
    for it in range(1, max_iter + 1):
        new = c * -math.expm1(-theta)
        delta = new - theta
        if prev_delta * delta < 0.0:
            new = 0.5 * (new + theta)
            delta = new - theta
        theta = new
        if abs(delta) < tol:
            return theta, it, True
        prev_delta = delta
    return theta, max_iter, False


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


def _poisson_dlog_trunc_info(theta: float) -> float:
    e = math.exp(-theta)
    om = -math.expm1(-theta)
    return theta * e / float(special.gammainc(2.0, theta)) - 1.0 / theta - 2.0 * e / om


# c(theta) = exp(theta), a_y = 1 / y!
_POISSON = _PowerSeries(
    theta_max=math.inf,
    f0=_poisson_f0,
    f0_derivs=lambda t: (-math.exp(-t), math.exp(-t), -math.exp(-t)),
    log_c=lambda t: t,
    log_c_derivs=lambda t: (1.0, 0.0, 0.0),
    log_a=lambda y: -special.gammaln(y + 1.0),
    mean=lambda t: t,
    theta_from_mean=lambda mean: mean,
    theta_from_log_c=lambda log_c: log_c,
    truncated_mle=_poisson_truncated_mle,
    draws=lambda rng, t, n: rng.poisson(t, n),
    tail_bound=_poisson_tail_bound,
    # 1 - e^-t - t e^-t, without its cancellation at small t
    trunc_info=lambda t: special.gammainc(2.0, t) / (t * np.expm1(-t) ** 2),
    dlog_trunc_info=_poisson_dlog_trunc_info,
    log_jeffreys=lambda t: -0.5 * np.log(t),
    dlog_jeffreys=lambda t: -0.5 / t,
)

# c(theta) = 1 / (1 - theta), a_y = 1
_GEOMETRIC = _PowerSeries(
    theta_max=1.0,
    f0=lambda t: 1.0 - t,
    f0_derivs=lambda t: (-1.0, 0.0, 0.0),
    log_c=lambda t: -np.log1p(-t) if isinstance(t, np.ndarray) else -math.log1p(-t),
    log_c_derivs=lambda t: (1.0 / (1.0 - t), 1.0 / (1.0 - t) ** 2,
                            2.0 / (1.0 - t) ** 3),
    log_a=lambda y: 0.0,
    mean=lambda t: t / (1.0 - t),
    theta_from_mean=lambda mean: mean / (1.0 + mean),
    theta_from_log_c=lambda log_c: -np.expm1(-log_c),
    truncated_mle=lambda m, s, tol, max_iter: ((s - m) / s, 0, True),
    # numpy's geometric counts trials >= 1 with success probability 1 - theta
    draws=lambda rng, t, n: rng.geometric(1.0 - t, n) - 1,
    # P(Y > y) = theta**(y + 1)
    tail_bound=lambda t, eps: int(math.ceil(math.log(eps) / math.log(t))) + 2,
    trunc_info=lambda t: 1.0 / (t * (1.0 - t) ** 2),
    dlog_trunc_info=lambda t: -1.0 / t + 2.0 / (1.0 - t),
    log_jeffreys=lambda t: -0.5 * np.log(t) - np.log1p(-t),
    dlog_jeffreys=lambda t: -0.5 / t + 1.0 / (1.0 - t),
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
    * ``theta_from_log_c``: the inverse of ``log_c``;
    * ``truncated_mle``: theta solving the zero-truncated likelihood
      equations for ``m`` positive counts summing to ``s``;
    * ``draws``: the base sampler;
    * ``tail_bound``: a ``y`` with tail mass beyond it below ``eps``;
    * ``trunc_info`` and ``dlog_trunc_info``: the Fisher information of the
      zero-truncated family and the derivative of its log;
    * ``log_jeffreys`` and ``dlog_jeffreys``: the log of the family's
      Jeffreys prior for theta, ``sqrt(i(theta))``, and its derivative.

    ``f0``, ``log_c``, ``theta_from_log_c``, ``trunc_info`` and
    ``log_jeffreys`` take arrays too.
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
    f0 = family.f0(theta)
    return -f0 / (1.0 - f0)


@dataclass(frozen=True)
class ZipsModel:
    """A zero-inflated power series model on the extended weight range.

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
        f0 = self.family.f0(self.theta)
        return f0 + self.p * (1.0 - f0)

    def mean(self) -> float:
        """Model mean, ``(1 - p)`` times the base-family mean."""
        return (1.0 - self.p) * self.family._series.mean(self.theta)

    def support_bound(self, eps: float) -> int:
        """Smallest y with model tail mass beyond y below ``eps``."""
        scale = max(1.0 - self.p, 1e-300)
        return max(self.family._series.tail_bound(self.theta, eps / scale), 10)


@dataclass(frozen=True)
class CountSample:
    """A frequency table of nonnegative counts with cached sufficient stats.

    Attributes
    ----------
    freq : dict
        Map from count value to positive frequency.
    n : int
        Total sample size.
    n0 : int
        Number of zeros.
    s : int
        Sum of all counts.
    ybar : float
        Sample mean ``s / n``.
    """

    freq: dict

    def __post_init__(self):
        clean = {}
        for value, count in self.freq.items():
            v, c = int(value), int(count)
            if v != value or c != count:
                raise ValueError(f"non-integer entry {value!r}: {count!r}")
            if v < 0:
                raise ValueError(f"negative count value {v}")
            if c <= 0:
                raise ValueError(f"frequency for value {v} must be positive, got {c}")
            clean[v] = clean.get(v, 0) + c
        if not clean:
            raise ValueError("empty sample")
        object.__setattr__(self, "freq", clean)
        object.__setattr__(self, "n", sum(clean.values()))
        object.__setattr__(self, "n0", clean.get(0, 0))
        object.__setattr__(self, "s", sum(v * c for v, c in clean.items()))
        object.__setattr__(self, "ybar", self.s / self.n)

    @classmethod
    def from_values(cls, values) -> "CountSample":
        values = np.asarray(values)
        if values.size == 0:
            raise ValueError("empty sample")
        if not np.issubdtype(values.dtype, np.integer):
            fractional = values[np.mod(values, 1) != 0]
            if fractional.size:
                raise ValueError(f"non-integer entry {fractional[0]!r}")
        counts = np.bincount(values.astype(np.int64))
        return cls({int(v): int(c) for v, c in enumerate(counts) if c > 0})

    def items(self):
        """Frequency table entries in increasing count order."""
        return sorted(self.freq.items())

    def __eq__(self, other):
        return isinstance(other, CountSample) and self.items() == other.items()

    def __hash__(self):
        return hash(tuple(self.items()))


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
        if not np.all(np.equal(np.mod(arr, 1), 0)) or np.any(arr < 0):
            raise ValueError("y must contain nonnegative integers")
        arr = arr.astype(np.int64)
    series = model.family._series
    base = -series.log_c(model.theta) + arr * math.log(model.theta) + series.log_a(arr)
    out = np.where(arr == 0,
                   math.log(model.pzero),
                   math.log1p(-model.p) + base)
    return out if isinstance(y, np.ndarray) else float(out)


def pmf(model: ZipsModel, y):
    """Probability mass at ``y``; handles negative weights in range."""
    return np.exp(log_pmf(model, y)) if isinstance(y, np.ndarray) else math.exp(log_pmf(model, y))


def _log_likelihood(family: Family, p: float, theta: float, sample: CountSample,
                    *, allow_boundary: bool = False) -> float:
    """Log likelihood at raw parameter values.

    With ``allow_boundary`` the weight may sit at the exact lower endpoint,
    where the zero-probability term is dropped when the sample has no zeros
    and -inf is returned when it does.
    """
    lo = p_lower(family, theta)
    if allow_boundary:
        if not (lo - 1e-9 <= p < 1.0):
            raise ParameterRangeError(f"p={p!r} outside closed range [{lo!r}, 1)")
    else:
        margin = BOUNDARY_MARGIN * abs(lo)
        if not (lo + margin < p < 1.0 - BOUNDARY_MARGIN):
            raise ParameterRangeError(f"p={p!r} outside open range ({lo!r}, 1)")

    f0 = family.f0(theta)
    pzero = f0 + p * (1.0 - f0)
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
    return ll


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
    family.require_theta(theta)
    series = family._series
    f0 = series.f0(theta)
    a = f0 + p * (1.0 - f0)
    if a <= 0.0 or p >= 1.0:
        raise ParameterRangeError("parameters outside the extended range")
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
    f0 = series.f0(theta)
    d1 = series.f0_derivs(theta)[0]
    a = f0 + p * (1.0 - f0)
    om = 1.0 - f0
    i11 = om / ((1.0 - p) * a)
    i12 = d1 / a
    i22 = (1.0 - p) * (d1 * d1 / (a * om) + om * float(series.trunc_info(theta)))
    return FisherInfo(i11, i12, i22, Parametrization.P_THETA)


def to_pstar(model: ZipsModel) -> tuple[float, float]:
    """Map to the orthogonal coordinates ``(pstar, theta)``.

    ``pstar = p + (1 - p) * f0`` is the total probability of zero; the map is
    increasing in ``p`` and sends the extended weight range onto (0, 1).
    """
    return model.pzero, model.theta


def from_pstar(family: Family, pstar: float, theta: float) -> ZipsModel:
    """Inverse of ``to_pstar``; requires ``0 < pstar < 1``."""
    family.require_theta(theta)
    if not (BOUNDARY_MARGIN < pstar < 1.0 - BOUNDARY_MARGIN):
        raise ParameterRangeError(f"pstar={pstar!r} outside open (0, 1)")
    f0 = family.f0(theta)
    p = (pstar - f0) / (1.0 - f0)
    return ZipsModel(family, p, theta)


def fisher_info_orthogonal(family: Family, pstar: float, theta: float) -> FisherInfo:
    """Per-observation Fisher information in the (pstar, theta) coordinates.

    The matrix is exactly diagonal: pstar is a Bernoulli zero-probability,
    so its information is ``1 / (pstar * (1 - pstar))`` regardless of family,
    and theta is informed by the ``1 - pstar`` share of positive counts, drawn
    from the zero-truncated family.
    """
    family.require_theta(theta)
    if not (0.0 < pstar < 1.0):
        raise ParameterRangeError(f"pstar={pstar!r} outside open (0, 1)")
    i11 = 1.0 / (pstar * (1.0 - pstar))
    i22 = (1.0 - pstar) * float(family._series.trunc_info(theta))
    return FisherInfo(i11, 0.0, i22, Parametrization.PSTAR_THETA)


def sample(model: ZipsModel, n: int, rng_seed) -> CountSample:
    """Draw ``n`` independent counts from the model.

    For ``p >= 0`` the two-stage mixture is used (with probability p emit a
    zero, otherwise draw from the base family).  For negative p the mixture
    decomposition is invalid, so draws come from the inverse CDF of the
    zero-inflated pmf directly.
    """
    if n <= 0:
        raise ValueError("n must be positive")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    values = sample_values(model, n, rng)
    return CountSample.from_values(values)


def sample_values(model: ZipsModel, n: int, rng: np.random.Generator) -> np.ndarray:
    """Raw count draws as an integer array (back end for ``sample``)."""
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
