"""Output checks: each returns None when the output is right, else a reason.

The references here are the benchmark's own, so that a defect in the
program cannot also hide in its oracle:

* the score statistic comes from its closed form in ``(n, n0, s)``;
* ``T = P(p > 0 | data)`` comes from an adaptive one-dimensional ``quad``
  over ``theta`` on mode +/- 15 posterior standard deviations of the
  ``theta`` kernel, with the Beta tail of the zero probability inside.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy import integrate, optimize, stats

REFERENCE_SD_SPAN = 15.0


def reference_t(family: str, n: int, n0: int, s: int) -> float:
    """``P(p > 0 | data)`` under the conditional Jeffreys prior.

    The posterior factorizes into ``pstar ~ Beta(n0 + 1/2, m + 1/2)`` with
    ``m = n - n0`` and a ``theta`` law; ``p > 0`` exactly when
    ``pstar > f0(theta)``, so ``T`` is the ``theta``-average of the Beta
    survival function at ``f0(theta)``.
    """
    m = n - n0
    if family == "poisson":
        log_kernel = lambda t: -m * t - m * math.log(-math.expm1(-t)) + (s - 0.5) * math.log(t)
        f0 = lambda t: math.exp(-t)
        mode = optimize.brentq(lambda t: (s - 0.5) / t - m / -math.expm1(-t),
                               1e-12, 10.0 * s / m + 10.0, xtol=1e-14, rtol=1e-15)
        e = math.exp(-mode)
        curvature = (s - 0.5) / mode ** 2 - m * e / (1.0 - e) ** 2
        support = (0.0, math.inf)
    elif family == "geometric":
        a, b = s - m + 0.5, float(m)
        log_kernel = lambda t: (a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t)
        f0 = lambda t: 1.0 - t
        mode = (a - 1.0) / (a + b - 2.0)
        curvature = (a - 1.0) / mode ** 2 + (b - 1.0) / (1.0 - mode) ** 2
        support = (0.0, 1.0)
    else:
        raise ValueError(f"unknown family {family!r}")
    sd = 1.0 / math.sqrt(curvature)
    lo = max(mode - REFERENCE_SD_SPAN * sd, support[0] + 1e-12 * mode)
    hi = min(mode + REFERENCE_SD_SPAN * sd, support[1] - 1e-12)
    peak = log_kernel(mode)
    density = lambda t: math.exp(log_kernel(t) - peak)
    tail = lambda t: float(stats.beta.sf(f0(t), n0 + 0.5, m + 0.5))
    options = dict(points=[mode], limit=500, epsabs=0.0, epsrel=1e-12)
    num, _ = integrate.quad(lambda t: density(t) * tail(t), lo, hi, **options)
    den, _ = integrate.quad(density, lo, hi, **options)
    return num / den


def score_closed_form(family: str, n: int, n0: int, s: int) -> float:
    """Score statistic for ``p = 0``: ``U**2 / (n * v)``.

    ``U = n0 / f0 - n`` is the score for the weight at the null fit and
    ``v`` the per-observation efficient information left after profiling
    out ``theta``.
    """
    ybar = s / n
    if family == "poisson":
        f0 = math.exp(-ybar)
        v = (1.0 - f0) / f0 - ybar
    else:
        f0 = 1.0 / (1.0 + ybar)
        v = ybar ** 2 / (1.0 + ybar)
    return (n0 / f0 - n) ** 2 / (n * v)


def check_test_report(report: dict, family: str, stats_: tuple, validate,
                      reference: float) -> str | None:
    """A ``zicount test --method all --out json`` report."""
    try:
        validate(report)
    except ValueError as err:
        return f"schema: {err}"
    n, n0, s = stats_
    ds = report["dataset"]
    if (ds["n"], ds["n0"], ds["sum"]) != (n, n0, s):
        return f"sufficient statistics {(ds['n'], ds['n0'], ds['sum'])} != {stats_}"
    score = report["results"]["score"]["statistic"]
    expected = score_closed_form(family, n, n0, s)
    if not math.isclose(score, expected, rel_tol=1e-9, abs_tol=1e-12):
        return f"score {score!r} != closed form {expected!r}"
    bayes = report["results"]["bayes"]
    value, mc_se = bayes["posterior_prob"], bayes["mc_se"]
    allowed = max(4.0 * mc_se, 0.01)
    if not abs(value - reference) <= allowed:
        return (f"bayes T {value:.6g} (mc_se {mc_se:.3g}, ess {bayes['ess']:.4g}) "
                f"vs reference {reference:.6g}: off by more than {allowed:.3g}")
    return None


def check_interval_report(report: dict, validate) -> str | None:
    """A ``zicount interval --out json`` report."""
    try:
        validate(report)
    except ValueError as err:
        return f"schema: {err}"
    entry = report["intervals"][0]
    lower, upper = entry["lower"], entry["upper"]
    if not (math.isfinite(lower) and math.isfinite(upper) and lower < upper < 1.0):
        return f"interval ({lower!r}, {upper!r}) not finite with lower < upper < 1"
    return None


def check_density_csv(text: str) -> str | None:
    """The CSV written by ``zicount posterior``."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["p", "density"]:
        return "density CSV lacks its p,density header"
    grid = np.array([float(r[0]) for r in rows[1:]])
    dens = np.array([float(r[1]) for r in rows[1:]])
    if grid.size < 2 or not np.all(np.isfinite(dens)) or np.any(dens < 0.0):
        return "density CSV has a negative or non-finite value"
    mass = float(np.trapezoid(dens, grid))
    if abs(mass - 1.0) > 0.01:
        return f"density integrates to {mass:.5f}, not 1 within 0.01"
    return None


def check_t_values(t_values) -> str | None:
    """Null-calibration ``T`` values from ``uniformity_check``."""
    t = np.asarray(t_values, dtype=float)
    bad = int(np.count_nonzero(~(np.isfinite(t) & (t >= 0.0) & (t <= 1.0))))
    return f"{bad} of {t.size} T values not finite in [0, 1]" if bad else None


def check_cutoff(cutoff: float) -> str | None:
    """The calibrated Bayes-test cutoff from ``beta_calibration``."""
    return None if 0.0 < cutoff < 1.0 else f"calibrated cutoff {cutoff!r} not in (0, 1)"
