import math

import numpy as np
import pytest
from scipy import optimize, stats

from zicount import (BetaCalibration, CountSample, DegenerateSampleError, Family,
                     Sidedness, TestMethod, ZipsModel, log_likelihood, lr_test,
                     mle_full, mle_null, sample_values, score_test)
from zicount.distributions import _log_likelihood
from zicount.frequentist import (_alpha_cutoffs, _build_report,
                                 _lr_statistic_stats, _mle_full_stats,
                                 _score_statistic, gradient_norm_at)


class TestMleNull:
    def test_uti_rate(self, uti):
        fit = mle_null(Family.POISSON, uti)
        assert fit.theta_hat == pytest.approx(26 / 98, abs=1e-12)
        assert fit.p_hat == 0.0
        assert fit.converged

    def test_terror_rate(self, terror):
        assert mle_null(Family.POISSON, terror).theta_hat == pytest.approx(52 / 75, abs=1e-12)

    def test_geometric_moment_identity(self):
        cs = CountSample({0: 5, 2: 5})  # ybar = 1
        assert mle_null(Family.GEOMETRIC, cs).theta_hat == pytest.approx(0.5, abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            mle_null(Family.POISSON, CountSample({0: 10}))

    def test_underflowing_zero_probability(self):
        # at theta = 2500, e^-theta underflows, but the null fit is finite:
        # -2 theta + 5000 log theta - log 5000!
        fit = mle_null(Family.POISSON, CountSample({0: 1, 5000: 1}))
        assert fit.theta_hat == 2500.0
        expected = -5000.0 + 5000.0 * math.log(2500.0) - math.lgamma(5001.0)
        assert fit.loglik == pytest.approx(expected, rel=1e-12)
        assert fit.loglik == pytest.approx(-3470.9134545953057, rel=1e-12)


# n from 2 to 1e6, with the all-ones boundary shape s = m + 1 among them
TRUNCATED_MLE_TABLES = (
    {0: 1, 2: 1}, {1: 1, 2: 1}, {0: 1, 1: 1, 2: 1}, {0: 81, 1: 9, 2: 7, 3: 1},
    {0: 9, 50: 1}, {0: 1, 5000: 1}, {0: 3, 800: 2, 900: 3}, {1: 90, 2: 10},
    {0: 5, 1: 9_999, 2: 1}, {0: 10, 1: 999, 2: 1}, {0: 1, 1: 999_999, 2: 1},
    {0: 400_000, 1: 599_999, 3: 1}, {0: 600_000, 1: 250_000, 2: 100_000, 3: 50_000},
    {1: 500_000, 2: 500_000},
)


class TestMleFull:
    def test_uti_fixed_point(self, uti):
        fit = mle_full(Family.POISSON, uti)
        assert fit.converged and not fit.boundary
        assert fit.theta_hat == pytest.approx(0.9197, abs=5e-4)
        assert fit.p_hat == pytest.approx(0.7115, abs=5e-4)
        assert gradient_norm_at(Family.POISSON, fit, uti) < 1e-6

    def test_uti_beats_grid_maximization(self, uti):
        fit = mle_full(Family.POISSON, uti)
        best = -np.inf
        for p in np.linspace(0.3, 0.95, 200):
            for theta in np.linspace(0.4, 2.0, 200):
                best = max(best, _log_likelihood(Family.POISSON, p, theta, uti))
        assert fit.loglik >= best - 1e-8

    def test_poisson_shaped_sample_gives_zero_weight(self):
        # with n0/n equal to exp(-theta_hat) the weight estimate vanishes;
        # arrange it exactly by solving the truncated mean equation for a real-valued s
        theta_star = math.log(4.0)
        n, n0 = 100, 25
        s = theta_star * (n - n0) / (1.0 - math.exp(-theta_star))
        p_hat, theta_hat, _, boundary = _mle_full_stats(Family.POISSON, n, n0, s)
        assert not boundary
        assert theta_hat == pytest.approx(theta_star, abs=1e-9)
        assert p_hat == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
    def test_truncated_mle_matches_tight_root(self, family):
        # theta solves m * excess(theta) = (s - m) * (1 - f0(theta)), where
        # excess = theta * (log c)' - (1 - f0), the truncated mean equation
        # written without its cancellation near s = m (Poisson excess by its
        # Taylor series below 1)
        excess, one_m_f0, upper = {
            Family.POISSON: (
                lambda t: t + math.expm1(-t) if t >= 1.0 else
                sum((-t) ** k / math.factorial(k) for k in range(2, 30)),
                lambda t: -math.expm1(-t), lambda m, s: s / m + 1.0),
            Family.GEOMETRIC: (lambda t: t * t / (1.0 - t), lambda t: t,
                               lambda m, s: 1.0 - 0.5 * m / s),
        }[family]
        for table in TRUNCATED_MLE_TABLES:
            cs = CountSample(table)
            m, s = cs.n - cs.n0, cs.s
            root = optimize.brentq(lambda t: m * excess(t) - (s - m) * one_m_f0(t),
                                   0.5 * (s - m) / s, upper(m, s),
                                   xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
            fit = mle_full(family, cs)
            assert fit.converged, table
            assert fit.theta_hat == pytest.approx(root, rel=1e-9, abs=0.0), table

    def test_geometric_closed_form(self):
        cs = CountSample({0: 50, 1: 25, 2: 25})
        fit = mle_full(Family.GEOMETRIC, cs)
        assert fit.theta_hat == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert fit.p_hat == pytest.approx(-0.5, abs=1e-12)

    def test_geometric_closed_form_matches_numeric_maximum(self):
        cs = CountSample({0: 50, 1: 25, 2: 25})
        fit = mle_full(Family.GEOMETRIC, cs)
        best = -np.inf
        for p in np.linspace(-0.9, 0.5, 300):
            for theta in np.linspace(0.05, 0.8, 300):
                lo = -(1.0 - theta) / theta
                if p <= lo + 1e-6:
                    continue
                best = max(best, _log_likelihood(Family.GEOMETRIC, p, theta, cs))
        assert fit.loglik >= best - 1e-8

    def test_no_zeros_boundary_flag(self):
        cs = CountSample({1: 6, 2: 3, 4: 1})
        fit = mle_full(Family.POISSON, cs)
        assert fit.boundary
        assert fit.p_hat < 0.0
        e = math.exp(-fit.theta_hat)
        assert fit.p_hat == pytest.approx(-e / (1.0 - e), rel=1e-9)

    def test_all_zeros_error(self):
        with pytest.raises(DegenerateSampleError, match="positive count"):
            mle_full(Family.POISSON, CountSample({0: 9}))

    def test_all_positive_ones_boundary(self):
        cs = CountSample({0: 5, 1: 5})
        fit = mle_full(Family.POISSON, cs)
        assert fit.boundary and math.isnan(fit.p_hat)
        assert fit.loglik == pytest.approx(10 * math.log(0.5), rel=1e-12)


class TestScoreTest:
    # frozen statistics for the bundled datasets, confirmed by an
    # independent hand evaluation of the closed form
    KNOWN = {"uti": 15.34, "terror": 0.04, "cholera": 30.56}

    def test_uti(self, uti):
        report = score_test(Family.POISSON, uti)
        assert report.statistic == pytest.approx(15.34, abs=0.01)
        two = score_test(Family.POISSON, uti, sidedness=Sidedness.TWO_SIDED)
        assert two.p_value == pytest.approx(0.0001, abs=5e-5)
        assert report.reject

    def test_terror(self, terror):
        two = score_test(Family.POISSON, terror, sidedness=Sidedness.TWO_SIDED)
        assert two.statistic == pytest.approx(0.04, abs=0.01)
        assert two.p_value == pytest.approx(0.83, abs=0.01)
        assert not two.reject

    def test_cholera(self, cholera):
        report = score_test(Family.POISSON, cholera)
        assert report.statistic == pytest.approx(30.56, abs=0.01)

    def test_depends_only_on_sufficient_statistics(self):
        # different tables, identical (n, n0, s)
        a = CountSample({0: 5, 4: 1, 1: 2})
        b = CountSample({0: 5, 3: 1, 2: 1, 1: 1})
        assert (a.n, a.n0, a.s) == (b.n, b.n0, b.s)
        ra = score_test(Family.POISSON, a)
        rb = score_test(Family.POISSON, b)
        assert ra.statistic == rb.statistic  # bit identical

    def test_zero_statistic_identity(self):
        # statistic vanishes exactly when n0/n equals the fitted zero mass
        n, s = 100.0, 100.0
        n0 = n * math.exp(-s / n)
        stat, _ = _score_statistic(Family.POISSON, n, n0, s)
        assert abs(stat) < 1e-20
        theta0 = 1.0  # geometric: ybar = 1 -> theta0 = 1/2, f0 = 1/2
        stat_g, _ = _score_statistic(Family.GEOMETRIC, 100.0, 50.0, 100.0)
        assert abs(stat_g) < 1e-20
        assert theta0  # silence lint

    def test_monotone_in_n0_above_the_null_mass(self):
        n, s = 200, 240
        stats_seq = []
        for n0 in range(70, 130, 10):
            if n0 / n > math.exp(-s / n):
                stats_seq.append(_score_statistic(Family.POISSON, n, n0, s)[0])
        assert stats_seq == sorted(stats_seq)

    def test_signed_root_normality_under_null(self):
        rng = np.random.default_rng(2024)
        model = ZipsModel(Family.POISSON, 1e-14, 1.0)
        roots = []
        for _ in range(5000):
            values = sample_values(model, 500, rng)
            n0 = int(np.count_nonzero(values == 0))
            s = int(values.sum())
            stat, sign = _score_statistic(Family.POISSON, 500, n0, s)
            roots.append(sign * math.sqrt(stat))
        result = stats.kstest(np.asarray(roots), "norm")
        assert result.statistic < 0.025

    def test_degenerate_propagates(self):
        with pytest.raises(DegenerateSampleError):
            score_test(Family.POISSON, CountSample({0: 4}))

    @pytest.mark.parametrize("counts, expected", [
        ({0: 5, 800: 3, 900: 2}, 6.333188405901794e182),
        ({0: 5, 1000: 5}, 3.5089805446320937e217),
        ({1500: 4}, 0.0),  # f0 = exp(-1500) underflows, no zeros: no evidence
        ({0: 1, 20000: 1}, math.inf),  # f0 underflows, one zero: certain evidence
    ])
    def test_means_above_700(self, counts, expected):
        # the Poisson statistic (n0 - n f0)^2 / (n f0 (1 - f0 - theta0 f0))
        # is n0^2 e^theta0 / n to double precision once f0 is tiny
        sample = CountSample(counts)
        one = score_test(Family.POISSON, sample)
        two = score_test(Family.POISSON, sample, sidedness=Sidedness.TWO_SIDED)
        assert one.statistic == two.statistic == pytest.approx(expected, rel=1e-12)
        if sample.n0 > 0:
            theta0 = sample.s / sample.n
            log_ratio = math.log(sample.n0 ** 2 / sample.n) + theta0
            if math.isfinite(expected):
                assert math.log(one.statistic) == pytest.approx(log_ratio, rel=1e-14)
            assert one.p_value == two.p_value == 0.0
            assert one.reject and two.reject
        else:
            assert one.p_value == 0.5 and two.p_value == 1.0
            assert not one.reject and not two.reject


    @pytest.mark.parametrize("alpha", [0.2, 0.05, 0.01, 1e-6])
    def test_report_matches_scipy_stats_exactly(self, alpha):
        z_cut = stats.norm.ppf(1.0 - alpha)
        chi_cut = stats.chi2.ppf(1.0 - alpha, 1)
        assert _alpha_cutoffs(alpha) == (float(z_cut), float(chi_cut))
        # statistics at and one ulp around both cutoffs, plus a spread
        stats_grid = [0.0, 1e-12, 1e-3, 0.5, 2.7, 15.34, 30.56, 80.0, 700.0,
                      z_cut ** 2, float(chi_cut)]
        stats_grid += [float(np.nextafter(x, up)) for x in stats_grid[-2:]
                       for up in (0.0, math.inf)]
        for stat in stats_grid:
            for sign in (1.0, -1.0, 0.0):
                one = _build_report(TestMethod.SCORE, stat, sign, alpha,
                                    Sidedness.ONE_SIDED)
                assert one.p_value == float(stats.norm.sf(one.signed_root))
                assert one.reject == bool(one.signed_root > z_cut)
                two = _build_report(TestMethod.LR, stat, sign, alpha,
                                    Sidedness.TWO_SIDED)
                assert two.p_value == float(stats.chi2.sf(stat, 1))
                assert two.reject == bool(stat > chi_cut)


@pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
@pytest.mark.parametrize("statistic", [_score_statistic, _lr_statistic_stats],
                         ids=["score", "lr"])
def test_statistics_over_rows_equal_one_row_calls(family, statistic):
    # all-ones rows (s = m) and rows without zeros included
    rng = np.random.default_rng(6)
    n = 60
    n0 = np.concatenate([[0, 0, 5, 59], rng.integers(0, n, 300)])
    m = n - n0
    s = np.concatenate([[60, 75, 55, 1], m[4:] + rng.poisson(m[4:] * rng.uniform(0.0, 3.0, 300))])
    stat, sign = statistic(family, n, n0, s)
    rows = np.array([statistic(family, n, int(a), int(b)) for a, b in zip(n0, s)])
    assert np.array_equal(stat, rows[:, 0]) and np.array_equal(sign, rows[:, 1])


LEVEL_ROUTES = {
    "score_test": lambda cs, alpha: score_test(Family.POISSON, cs, alpha=alpha),
    "lr_test": lambda cs, alpha: lr_test(Family.POISSON, cs, alpha=alpha),
    "cutoff": lambda cs, alpha: BetaCalibration(1.0, 1.0, cs.n, Family.POISSON, 1.0).cutoff(alpha),
}


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, math.nan], ids=repr)
@pytest.mark.parametrize("route", LEVEL_ROUTES)
def test_level_outside_the_unit_interval_raises(uti, route, alpha):
    # unchecked, alpha = 0 gives reject=False beside a one-sided p-value of 4.5e-5
    with pytest.raises(ValueError,
                       match=f"alpha must lie strictly between 0 and 1, got {alpha!r}"):
        LEVEL_ROUTES[route](uti, alpha)


class TestLrTest:
    def test_zero_when_sample_is_poisson_shaped(self):
        theta_star = math.log(4.0)
        n, n0 = 100, 25
        s = theta_star * (n - n0) / (1.0 - math.exp(-theta_star))
        stat, _ = _lr_statistic_stats(Family.POISSON, n, n0, s)
        assert stat == pytest.approx(0.0, abs=1e-12)

    def test_uti_rejects_one_sided(self, uti):
        report = lr_test(Family.POISSON, uti)
        assert report.statistic > 0
        assert report.reject
        assert report.signed_root == pytest.approx(math.sqrt(report.statistic), abs=1e-10)

    def test_null_rejection_rate(self):
        # one-sided LR at the 5% level over 10,000 null replications
        rng_spawn = np.random.SeedSequence(424242).spawn(10_000)
        model = ZipsModel(Family.POISSON, 1e-14, 1.0)
        z_cut = stats.norm.ppf(0.95)
        rejections = 0
        for child in rng_spawn:
            values = sample_values(model, 100, np.random.default_rng(child))
            n0 = int(np.count_nonzero(values == 0))
            if n0 == 100:
                continue
            stat, sign = _lr_statistic_stats(Family.POISSON, 100, n0, int(values.sum()))
            if sign * math.sqrt(stat) > z_cut:
                rejections += 1
        assert rejections / 10_000 == pytest.approx(0.048, abs=0.01)

    def test_nesting_over_random_samples(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            fam = Family.POISSON if rng.random() < 0.5 else Family.GEOMETRIC
            theta = rng.uniform(0.3, 2.5) if fam is Family.POISSON else rng.uniform(0.2, 0.8)
            p = rng.uniform(-0.1, 0.6)
            try:
                model = ZipsModel(fam, p, theta)
            except Exception:
                continue
            cs = CountSample.from_values(sample_values(model, 80, rng))
            if cs.n0 == cs.n:
                continue
            full = mle_full(fam, cs)
            try:
                null = mle_null(fam, cs)
            except DegenerateSampleError:
                continue
            assert full.loglik >= null.loglik - 1e-9

    def test_statistic_matches_fitted_log_likelihoods(self):
        # oracle: twice the gap between the full and null fits' log
        # likelihoods, over random samples that include samples without
        # zeros and samples whose positive counts all equal one
        rng = np.random.default_rng(12)
        samples = [CountSample({1: 7}), CountSample({0: 3, 1: 4}),
                   CountSample({1: 3, 2: 2, 5: 1})]
        for _ in range(40):
            n = int(rng.integers(2, 60))
            values = rng.poisson(rng.uniform(0.2, 3.0), n)
            values[rng.random(n) < rng.uniform(0.0, 0.6)] = 0
            if values.sum() > 0:
                samples.append(CountSample.from_values(values))
        assert any(cs.n0 == 0 for cs in samples)
        for fam in Family:
            for cs in samples:
                full = mle_full(fam, cs)
                null = mle_null(fam, cs)
                expected = max(2.0 * (full.loglik - null.loglik), 0.0)
                assert lr_test(fam, cs).statistic == pytest.approx(expected, abs=1e-9)
                if not full.boundary:
                    # the fitted value itself, from the likelihood at the fit
                    direct = log_likelihood(ZipsModel(fam, full.p_hat, full.theta_hat), cs)
                    assert full.loglik == pytest.approx(direct, abs=1e-9)

    def test_all_zero_sample_raises(self):
        with pytest.raises(DegenerateSampleError, match="positive count"):
            lr_test(Family.POISSON, CountSample({0: 5}))

    def test_report_invariants(self, uti, terror):
        for cs in (uti, terror):
            for sided in Sidedness:
                for report in (score_test(Family.POISSON, cs, sidedness=sided),
                               lr_test(Family.POISSON, cs, sidedness=sided)):
                    assert report.statistic >= 0.0
                    assert report.signed_root ** 2 == pytest.approx(
                        report.statistic, abs=1e-10)
                    assert 0.0 <= report.p_value <= 1.0
                    if sided is Sidedness.ONE_SIDED:
                        expected = report.signed_root > stats.norm.ppf(0.95)
                    else:
                        expected = report.statistic > stats.chi2.ppf(0.95, 1)
                    assert report.reject == expected

    def test_sidedness_by_its_value(self, uti):
        for sided in Sidedness:
            for test in (score_test, lr_test):
                assert (test(Family.POISSON, uti, 0.05, sided.value)
                        == test(Family.POISSON, uti, 0.05, sided))
        with pytest.raises(ValueError, match="'both' is not a valid Sidedness"):
            score_test(Family.POISSON, uti, 0.05, "both")

    def test_method_tags(self, uti):
        assert score_test(Family.POISSON, uti).method is TestMethod.SCORE
        assert lr_test(Family.POISSON, uti).method is TestMethod.LR
