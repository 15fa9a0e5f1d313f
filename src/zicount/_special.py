"""Special functions of the computing commands, on numpy and ``math`` alone.

``test``, ``interval`` and ``posterior`` need a handful of special functions,
and importing ``scipy.special`` for them would take most of each command's
start-up.  They are here instead:

* pstar's Beta law: ``log_beta_pdf``, its log density written about the mean
  with a Stirling constant (``log_beta_constant``); ``betainc``, the
  regularized incomplete beta, by the continued fraction of Numerical
  Recipes (3rd ed., section 6.4, there by the modified Lentz method), here
  in blocks of terms multiplied as 2x2 matrices, with its prefactor
  ``x**a y**b / (a B(a, b))`` taken from ``log_beta_pdf``; and
  ``beta_quantile``, its inverse, by Halley steps in ``logit x``;
* ``lgamma``, elementwise ``math.lgamma``, and ``stirling_rest``;
* ``gammainc2``, the regularized lower incomplete gamma function at shape 2;
* ``ndtr``, ``ndtri`` and ``chdtrc``, the normal CDF and quantile and the
  chi-square(1) survival function, from ``math.erfc`` and
  ``statistics.NormalDist``; the chi-square(1) quantile at ``1 - alpha`` is
  ``ndtri(alpha / 2)**2``.

Simulation still calls SciPy in two places, each importing it inside the
function that calls it: the Poisson tail bound of ``sample_values`` at
``p < 0`` (``pdtrik`` and ``pdtr``) and the KS test of ``uniformity_check``.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .errors import QuadratureError

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT1_2 = math.sqrt(0.5)
_STANDARD_NORMAL = NormalDist()
# a point of the continued fraction stops once the last term of a block moves
# it by at most this, relative
_FRACTION_EPS = 1e-15

lgamma = np.vectorize(math.lgamma, otypes=[float])
lgamma.__doc__ = """``log Gamma(z)`` elementwise, by ``math.lgamma``."""


def stirling_rest(z: np.ndarray) -> np.ndarray:
    """``log Gamma(z)`` less ``(z - 1/2) log z - z + log(2 pi) / 2``, elementwise;
    from z = 10 on by its asymptotic series, which avoids the cancellation."""
    shape = np.shape(z)
    z = np.asarray(z, dtype=float).ravel()
    z2 = z * z
    rest = (1/12 - (1/360 - (1/1260 - (1/1680 - (1/1188 - (691/360360 - 1/(156*z2)) / z2)
                                       / z2) / z2) / z2) / z2) / z
    small = z < 10.0
    if small.any():
        zs = z[small]
        rest[small] = lgamma(zs) - ((zs - 0.5) * np.log(zs) - zs + _HALF_LOG_2PI)
    return rest.reshape(shape)


def log_beta_constant(a, b) -> np.ndarray:
    """``log_beta_pdf``'s constant: the log density of Beta(a, b) less ``(a -
    1) log(x / mu) + (b - 1) log(y / nu)``, with mu and nu its mean and one
    less it, by Stirling's series with no term of order ``a + b``."""
    s = a + b
    return (0.5 * (3.0 * np.log(s) - np.log(2.0 * math.pi * a * b))
            - stirling_rest(a) - stirling_rest(b) + stirling_rest(s))


def log_beta_pdf(x, y, a, b, constant) -> np.ndarray:
    """Log density of Beta(a, b) at ``x`` in (0, 1), with ``y = 1 - x`` given
    and ``constant`` from ``log_beta_constant``; broadcast together.

    Written about the mean ``mu = a / (a + b)``, so that no term is of order
    ``a + b``: ``x**(a - 1)`` and ``B(a, b)`` taken apart lose about 2e-9
    relative at ``a + b = 1e6``.  Each log is taken from its own side: ``log(x
    / mu)`` is ``log1p`` of the offset ``x - mu`` where that is below ``mu /
    2``, and ``log(y / nu)``, with ``nu = 1 - mu``, where it is below ``nu /
    2``; the log of the ratio elsewhere.  The offset is ``x - mu`` or ``nu -
    y``, whichever of mu and nu is the smaller, which keeps its digits.
    """
    mu, nu = a / (a + b), b / (a + b)
    small_mu = mu <= nu
    d = np.empty(np.broadcast_shapes(np.shape(x), np.shape(mu)))
    if np.all(small_mu):
        np.subtract(x, mu, out=d)
    elif not np.any(small_mu):
        np.subtract(nu, y, out=d)
    else:
        np.copyto(d, np.where(small_mu, x - mu, nu - y))
    size = np.abs(d)
    near_x, near_y = size < 0.5 * mu, size < 0.5 * nu
    lx = np.log1p(d / mu, out=np.empty(d.shape), where=near_x)
    np.negative(d, out=d)
    ly = np.log1p(np.divide(d, nu, out=d), out=d, where=near_y)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log(x / mu, out=lx, where=~near_x)
        np.log(y / nu, out=ly, where=~near_y)
    lx *= a - 1.0
    ly *= b - 1.0
    lx += ly
    lx += constant
    return lx


def _beta_fraction(a, b, x, y) -> np.ndarray:
    """The continued fraction of ``I_x(a, b) a B(a, b) / (x**a y**b)``,
    ``1 / (1 + d_1 / (1 + d_2 / ...))``, on 1-D arrays with ``y = 1 - x``; it
    converges fast where ``x < (a + 1) / (a + b + 2)``.

    Its convergents ``P_k / Q_k`` follow the Wallis recurrence ``(P, P_old)
    -> (P + d P_old, P)``, a 2x2 matrix per term.  A block of ``k`` pairs of
    terms is one matrix, the product of its terms' by pairwise products in
    ``log2(2k)`` array steps, so that numpy runs many terms per call; after
    each block the convergents are scaled to ``Q = 1`` and a point stops
    once the block's last term moves its value by at most
    ``_FRACTION_EPS`` relative.  The blocks, of 16 pairs after two of 8, are
    the same for every point, so its value does not depend on the others.
    The fraction is slowest at ``x = (a + 1) / (a + b + 2)``, where it takes
    about ``6 max(a, b)**(1/3)`` pairs (560 at a = b = 1e6, 54 000 at 1e12);
    it gives up after ``2000 + sqrt(max(a, b))``."""
    out = np.empty(x.size)
    at = np.arange(x.size)
    apb, neg_a = a + b, -a
    limit = 2000.0 + math.sqrt(max(np.max(a), np.max(b)))
    # (P_1, P_2) = (1, 1) and (Q_1, Q_2) = (1, 1 + d_1), where d_1 = -(a + b) x
    # / (a + 1) nears -1 at the centre; from the smaller of x and y, 1 + d_1
    # keeps its digits
    p_old, p, q_old = np.ones(x.size), np.ones(x.size), np.ones(x.size)
    q = np.where(x <= y, (a + 1.0) - apb * x, apb * y + (1.0 - b)) / (a + 1.0)
    m0 = 1
    while m0 <= limit:
        k = 8 if m0 < 17 else 16
        m = np.arange(m0, m0 + k, dtype=float)[:, None]
        m0 += k
        # d_2m = m (b - m) x / ((a + 2m - 1)(a + 2m)) and d_2m+1 = -(a + m)(a +
        # b + m) x / ((a + 2m)(a + 2m + 1)), over one common denominator
        a2m = 2.0 * m - neg_a
        below, above = a2m - 1.0, a2m + 1.0
        scale = x / (below * a2m * above)
        even = (b - m) * m * above * scale
        odd = (neg_a - m) * (apb + m) * below * scale
        # d_2m then d_2m+1 as one matrix, E = [[1, odd], [1, 0]] [[1, even], [1,
        # 0]] = [[u, even], [1, even]] with u = 1 + odd; a later one L times an
        # earlier one E is [[uL uE + eL, (uL + eL) eE], [uE + eL, (1 + eL) eE]]
        u = 1.0 + odd
        if (x > y).any():
            # near x = 1, odd nears -1; u from y then keeps its digits:
            # ((a + 2m)(a + 2m + 1) - (a + m)(a + b + m)) + (a + m)(a + b + m) y
            # over (a + 2m)(a + 2m + 1)
            near = (2.0 * m + 1.0 - b) * -neg_a + m * (3.0 * m + 2.0 - b)
            near += (m - neg_a) * (apb + m) * y
            u = np.where(x > y, near / (a2m * above), u)
        (ul, ue), (el, ee) = (u[1::2], u[::2]), (even[1::2], even[::2])
        t11, t12, t21, t22 = ul * ue + el, (ul + el) * ee, ue + el, (1.0 + el) * ee
        # then the later half of the products times the earlier, until one is left
        while t11.shape[0] > 1:
            (l11, e11), (l12, e12), (l21, e21), (l22, e22) = (
                (t[1::2], t[::2]) for t in (t11, t12, t21, t22))
            t11, t12 = l11 * e11 + l12 * e21, l11 * e12 + l12 * e22
            t21, t22 = l21 * e11 + l22 * e21, l21 * e12 + l22 * e22
        t11, t12, t21, t22 = t11[0], t12[0], t21[0], t22[0]
        p, p_old = t11 * p + t12 * p_old, t21 * p + t22 * p_old
        q, q_old = t11 * q + t12 * q_old, t21 * q + t22 * q_old
        p /= q
        p_old /= q
        q_old /= q
        q = np.ones(x.size)
        done = np.abs(p - p_old / q_old) <= _FRACTION_EPS * np.abs(p)
        if done.any():
            out[at[done]] = p[done]
            if done.all():
                return out
            more = ~done
            at, neg_a, b, x, y, apb, p, p_old, q, q_old = (
                v[more] for v in (at, neg_a, b, x, y, apb, p, p_old, q, q_old))
    raise QuadratureError(f"incomplete beta fraction did not converge in {m0 - 1} steps "
                          f"at (a, b, x) = ({-neg_a[0]!r}, {b[0]!r}, {x[0]!r})")


def _incomplete_beta(a, b, x, y, constant):
    """On 1-D arrays with ``y = 1 - x`` and ``constant`` given and x, y in (0,
    1): where the fraction runs on ``I_x(a, b)`` (false in ``flip``) and
    where on ``I_y(b, a) = 1 - I_x(a, b)``; the log of that one, which does
    not underflow; and the log of ``x y`` times the density at x."""
    log_dens = log_beta_pdf(x, y, a, b, constant) + np.log(x) + np.log(y)
    # above the fraction's fast range it runs on I_y(b, a)
    flip = x * (a + b + 2.0) > a + 1.0
    first = np.where(flip, b, a)
    fraction = _beta_fraction(first, np.where(flip, a, b), np.where(flip, y, x),
                              np.where(flip, x, y))
    return flip, log_dens - np.log(first) + np.log(fraction), log_dens


def betainc(a, b, x, y, constant) -> np.ndarray:
    """The regularized incomplete beta function ``I_x(a, b)``, the CDF of
    Beta(a, b) at x, with ``y = 1 - x`` and ``log_beta_constant(a, b)``
    given, broadcast over its arguments.  Zero at ``x <= 0`` and one at ``y
    <= 0``."""
    a, b, x, y = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, x, y)))
    constant = np.broadcast_to(constant, x.shape)
    out = np.where(x > 0.0, 1.0, 0.0)
    inside = np.flatnonzero((x > 0.0) & (y > 0.0))
    if inside.size:
        a, b, x, y, constant = (v.ravel()[inside] for v in (a, b, x, y, constant))
        flip, log_part, _ = _incomplete_beta(a, b, x, y, constant)
        part = np.exp(log_part)
        out.flat[inside] = np.where(flip, 1.0 - part, part)
    return out[()]


def _lower_quantile(a, b, q):
    """``(x, 1 - x)`` with ``I_x(a, b) = q``, on 1-D arrays, for ``q`` at most
    1/2: Halley steps on ``g = log I - log q`` in ``u = logit x``, where the
    lower tail is about linear and g concave.  With ``D = x y`` times the
    density, ``g' = D / I`` and ``g'' / g' = a y - b x - g'``, so a step costs
    no more than a Newton step; it is at most twice the Newton step.  Each
    point starts from a closed form: the Cornish-Fisher start of Abramowitz
    and Stegun 26.5.22 where both shapes are at least one, and the leading
    term of the lower tail, ``x**a / (a B(a, b))``, elsewhere.  A point stops
    with a step whose own error, from the next terms of g's Taylor series
    (its third derivative is as cheap), is below 1e-19 in u; that last step
    is taken on log x and log y themselves, to second order, which keeps
    their digits."""
    constant = log_beta_constant(a, b)
    mu, nu = a / (a + b), b / (a + b)
    log_q = np.log(q)
    # log B(a, b) from log_beta_constant; the tail start, capped at the mean
    log_beta = (a - 1.0) * np.log(mu) + (b - 1.0) * np.log(nu) - constant
    log_x = np.minimum((log_q + np.log(a) + log_beta) / a, np.log(mu))
    u = log_x - np.log(-np.expm1(log_x))
    normal = (a >= 1.0) & (b >= 1.0)
    if normal.any():
        levels, index = np.unique(q[normal], return_inverse=True)
        z = np.array([ndtri(v) for v in levels])[index]
        an, bn = a[normal], b[normal]
        h = 2.0 / (1.0 / (2.0 * an - 1.0) + 1.0 / (2.0 * bn - 1.0))
        lam = (z * z - 3.0) / 6.0
        w = (-z * np.sqrt(h + lam) / h
             - (1.0 / (2.0 * bn - 1.0) - 1.0 / (2.0 * an - 1.0))
             * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h)))
        u[normal] = np.log(an / bn) - 2.0 * w
    x, y = np.empty(q.size), np.empty(q.size)
    at = np.arange(q.size)
    for _ in range(100):
        if not at.size:
            return x, y
        # x and y from e**-|u|, each to its own precision, down to the least
        # double, e**-745
        u = np.clip(u, -745.0, 745.0)
        e = np.exp(-np.abs(u))
        xs, ys = np.where(u < 0.0, e, 1.0) / (1.0 + e), np.where(u < 0.0, 1.0, e) / (1.0 + e)
        flip, log_part, log_dens = _incomplete_beta(a[at], b[at], xs, ys, constant[at])
        log_value = np.where(flip, np.log1p(-np.exp(log_part)), log_part)
        g = log_value - log_q[at]
        with np.errstate(over="ignore", invalid="ignore"):
            slope = np.exp(log_dens - log_value)
            newton = g / slope
            curve = a[at] * ys - b[at] * xs - slope
            bend = 1.0 - 0.5 * newton * curve
            step = np.where(bend >= 0.5, newton / bend, 2.0 * newton)
            # a Halley step leaves an error of about (h**2 / 4 + |g3 / g1| / 6)
            # step**3, with h = g2 / g1 = curve and g3 / g1 = curve**2 - (a +
            # b) x y - g1 curve (g1, g2, g3 the derivatives of g)
            third = np.abs(curve * (curve - slope) - (a[at] + b[at]) * xs * ys)
            done = (0.25 * curve * curve + third / 6.0) * np.abs(step) ** 3 <= 1e-19
        # a root below the least double is x = 0
        under = (u <= -745.0) & (g > 0.0)
        step[under], xs[under], ys[under] = 0.0, 0.0, 1.0
        done |= under
        if done.any():
            # log x and log y move by -s y and s x per unit step s in u, less
            # x y s**2 / 2 to second order
            s, xd, yd = step[done], xs[done], ys[done]
            bend = 0.5 * s * s * xd * yd
            x[at[done]] = xd * np.exp(-s * yd - bend)
            y[at[done]] = yd * np.exp(s * xd - bend)
            more = ~done
            at, u, step = at[more], u[more], step[more]
        u = u - step
    raise QuadratureError(f"incomplete beta inverse did not converge at (a, b, q) = "
                          f"({a[at[0]]!r}, {b[at[0]]!r}, {q[at[0]]!r})")


def beta_quantile(a, b, q, complement=False):
    """x with ``I_x(a, b) = q`` or, where ``complement``, ``1 - I_x(a, b) =
    q``, and ``1 - x``, each to its own relative precision; broadcast over
    the arguments, with ``q`` in (0, 1).  Either way it solves for the
    smaller tail, ``I_x(a, b)`` or ``I_{1-x}(b, a)``, so a complement as small
    as 1e-17 keeps its digits."""
    a, b, q, complement = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, q)),
                                              complement)
    upper = q > 0.5
    swap = (upper != complement).ravel()
    x, y = _lower_quantile(np.where(swap, b.ravel(), a.ravel()),
                           np.where(swap, a.ravel(), b.ravel()),
                           np.where(upper, 1.0 - q, q).ravel())
    return np.where(swap, y, x).reshape(q.shape)[()], np.where(swap, x, y).reshape(q.shape)[()]


def gammainc2(t):
    """The regularized lower incomplete gamma function at shape 2, ``1 -
    e**-t (1 + t)``, elementwise for ``t >= 0``; below one by its series
    ``e**-t sum_{k >= 2} t**k / k!``, which avoids the cancellation."""
    shape = np.shape(t)
    t = np.asarray(t, dtype=float).ravel()
    with np.errstate(over="ignore"):
        out = -np.expm1(-t) - t * np.exp(-t)
    small = t < 1.0
    if small.any():
        ts = t[small]
        # t**2 / 2 (1 + t / 3 + t**2 / 12 + ...), to the term t**19 / 19!
        series = np.ones(ts.shape)
        for k in range(19, 2, -1):
            series = 1.0 + series * ts / k
        out[small] = np.exp(-ts) * 0.5 * ts * ts * series
    return out.reshape(shape)[()]


def ndtr(x: float) -> float:
    """The standard normal CDF at x, ``erfc(-x / sqrt 2) / 2``; the rounding
    of ``-x / sqrt 2`` costs about ``2 x**2`` units in the last place."""
    return 0.5 * math.erfc(-x * _SQRT1_2)


def ndtri(p: float) -> float:
    """The standard normal quantile at p in (0, 1) (Wichura's AS 241, by
    ``statistics.NormalDist``)."""
    return _STANDARD_NORMAL.inv_cdf(p)


def chdtrc(x: float) -> float:
    """The chi-square survival function with one degree of freedom at ``x
    >= 0``, ``erfc(sqrt(x / 2))``, within about ``x`` units in the last
    place; NaN below zero, as SciPy's ``chdtrc``."""
    return math.erfc(math.sqrt(0.5 * x)) if x >= 0.0 else math.nan
