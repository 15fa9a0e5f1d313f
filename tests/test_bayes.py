import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import integrate, special, stats

from zicount import (CountSample, DegenerateSampleError, ExactMarginal, Family,
                     IntervalKind, PriorKind, ZicountError, ZipsModel,
                     bayes_factor_positive, credible_interval, density_curve,
                     draw_posterior, exact_marginal, expansion_inputs, fisher_info,
                     grad_log_prior, hpd_interval, log_prior, lr_test,
                     mle_full, mle_null, p_lower,
                     posterior_prob_positive, posterior_prob_positive_factorized,
                     posterior_tail_expansion, prior_density, sample_values, score_test)

from zicount.datasets import dataset_names, load_dataset
from zicount.bayes import (FACTORIZED_BLOCK, _FACTORIZED_T_ACCURACY, _distinct_cuts,
                           _factorized_t, _marginal_density_evaluator, _prior_prob_positive,
                           _pstar_cdf, _scan, _ThetaPosterior)

from conftest import (PosteriorOracle, fd_gradient, wedge_prob_positive,
                      zip_theta_rejection_draws)


class TestPriorDensity:
    def test_conditional_zip_at_zero_weight(self):
        # conditional factor at p = 0 times the rate prior 1/sqrt(theta)
        for theta in (0.5, 1.0, 2.5):
            expected = (1.0 / math.pi) * math.sqrt(
                (1.0 - math.exp(-theta)) / math.exp(-theta)) / math.sqrt(theta)
            value = prior_density(Family.POISSON, 0.0, theta, PriorKind.CONDITIONAL_JEFFREYS)
            assert value == pytest.approx(expected, rel=1e-12)

    def test_conditional_factor_integrates_to_one(self):
        # the p-factor is proper over the extended range at every theta
        rng = np.random.default_rng(4)
        for _ in range(20):
            fam = Family.POISSON if rng.random() < 0.5 else Family.GEOMETRIC
            theta = rng.uniform(0.2, 3.0) if fam is Family.POISSON else rng.uniform(0.1, 0.9)
            marginal = (theta ** -0.5 if fam is Family.POISSON
                        else theta ** -0.5 / (1.0 - theta))
            lo = p_lower(fam, theta)
            value, _ = integrate.quad(
                lambda q: prior_density(fam, q, theta, PriorKind.CONDITIONAL_JEFFREYS),
                lo + 1e-12, 1.0 - 1e-12, limit=300, points=[0.0])
            assert value / marginal == pytest.approx(1.0, abs=1e-8)

    def test_joint_matches_root_det_information(self):
        rng = np.random.default_rng(11)
        ratios = {Family.POISSON: [], Family.GEOMETRIC: []}
        for _ in range(50):
            fam = Family.POISSON if rng.random() < 0.5 else Family.GEOMETRIC
            theta = rng.uniform(0.3, 3.0) if fam is Family.POISSON else rng.uniform(0.15, 0.85)
            lo = p_lower(fam, theta)
            p = rng.uniform(0.7 * lo, 0.9)
            det = fisher_info(ZipsModel(fam, p, theta)).det()
            ratios[fam].append(prior_density(fam, p, theta, PriorKind.JEFFREYS_JOINT)
                               / math.sqrt(det))
        for fam, values in ratios.items():
            values = np.asarray(values)
            assert np.all(np.abs(values / values[0] - 1.0) < 1e-8)

    def test_domain_error(self):
        with pytest.raises(Exception):
            log_prior(Family.POISSON, -0.99, 2.0)

    def test_geometric_records_share_their_theta_term(self):
        # the geometric sampling kernel draws theta from one Beta law under
        # either prior, because the joint record's 1/2 log i_trunc is the
        # conditional record's Jeffreys term, and their slopes one formula
        series = Family.GEOMETRIC._series
        tail = np.logspace(-12, math.log10(0.5), 2000)
        theta = np.concatenate([tail, 1.0 - tail])
        log_c = series.log_c(theta)
        joint, cond = PriorKind.JEFFREYS_JOINT._prior, PriorKind.CONDITIONAL_JEFFREYS._prior
        np.testing.assert_allclose(joint.log_g(series, theta, log_c),
                                   cond.log_g(series, theta, log_c), rtol=1e-14, atol=0.0)
        np.testing.assert_array_equal(joint.dlog_g(series, theta, log_c),
                                      cond.dlog_g(series, theta, log_c))

    def test_gradient_matches_finite_differences(self):
        for kind in PriorKind:
            for fam, point in ((Family.POISSON, (0.2, 1.3)),
                               (Family.GEOMETRIC, (-0.1, 0.45))):
                analytic = grad_log_prior(fam, *point, kind)
                numeric = fd_gradient(lambda x: log_prior(fam, x[0], x[1], kind),
                                      point, h=1e-7)
                assert np.allclose(analytic, numeric, rtol=1e-6, atol=1e-9)


class TestDrawPosterior:
    def test_uti_pstar_beta_law(self, uti):
        draws = draw_posterior(Family.POISSON, uti, B=20_000, seed=1)
        result = stats.kstest(draws.pstar, stats.beta(81.5, 17.5).cdf)
        assert result.pvalue > 1e-3

    def test_uti_theta_mean_matches_quadrature(self, uti):
        draws = draw_posterior(Family.POISSON, uti, B=50_000, seed=2)
        oracle = PosteriorOracle(uti)
        se = draws.theta.std() / math.sqrt(draws.B)
        assert abs(draws.theta.mean() - oracle.theta_mean()) < 3.0 * se

    def test_terror_weight_straddles_zero(self, terror):
        draws = draw_posterior(Family.POISSON, terror, B=20_000, seed=3)
        assert abs(np.mean(draws.p)) < 0.15
        assert (draws.p < 0).mean() > 0.2
        assert (draws.p > 0).mean() > 0.2

    def test_factorization(self, uti):
        draws = draw_posterior(Family.POISSON, uti, B=40_000, seed=4)
        corr = np.corrcoef(draws.pstar, draws.theta)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(draws.B)

    def test_weight_above_lower_endpoint(self, terror):
        draws = draw_posterior(Family.POISSON, terror, B=5000, seed=5)
        lower = -np.exp(-draws.theta) / (1.0 - np.exp(-draws.theta))
        assert np.all(draws.p > lower)

    def test_geometric_two_beta_laws(self):
        cs = CountSample({0: 30, 1: 12, 2: 5, 3: 2, 5: 1})
        m = cs.n - cs.n0
        draws = draw_posterior(Family.GEOMETRIC, cs, B=20_000, seed=6)
        assert stats.kstest(draws.pstar, stats.beta(cs.n0 + 0.5, m + 0.5).cdf).pvalue > 1e-3
        assert stats.kstest(draws.theta, stats.beta(cs.s - m + 0.5, m).cdf).pvalue > 1e-3

    def test_reproducible(self, uti):
        a = draw_posterior(Family.POISSON, uti, B=1000, seed=7)
        b = draw_posterior(Family.POISSON, uti, B=1000, seed=7)
        assert np.array_equal(a.p, b.p) and np.array_equal(a.theta, b.theta)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSampleError):
            draw_posterior(Family.POISSON, CountSample({0: 5}), B=100, seed=0)
        with pytest.raises(DegenerateSampleError):
            draw_posterior(Family.POISSON, CountSample({1: 5}), B=100, seed=0)

    def test_rejection_sampler_agrees_with_grid_sampler(self, uti):
        m, s = uti.n - uti.n0, uti.s
        rej = zip_theta_rejection_draws(np.random.default_rng(8), m, s, 30_000)
        grid = draw_posterior(Family.POISSON, uti, B=30_000, seed=9).theta
        assert stats.ks_2samp(rej, grid).pvalue > 1e-3
        oracle = PosteriorOracle(uti)
        se = rej.std() / math.sqrt(rej.size)
        assert abs(rej.mean() - oracle.theta_mean()) < 4.0 * se


class TestPosteriorProbPositive:
    def test_matches_quadrature_on_bundled_datasets(self, uti, terror, cholera):
        for cs in (uti, terror, cholera):
            with pytest.warns(UserWarning) if cs is not uti else _nullcontext():
                est = posterior_prob_positive(Family.POISSON, cs, B=10_000, seed=1)
            exact, _ = wedge_prob_positive(Family.POISSON, cs)
            assert abs(est.value - exact) < 3.0 * max(est.mc_se, 1e-6) + 1e-4

    def test_matches_quadrature_on_simulated_datasets(self):
        # studentized deviations from the oracle over 20 simulated datasets;
        # the self-normalized estimator carries O(1/ESS) bias, so individual
        # deviations are judged in aggregate rather than each at 3 sigma
        rng = np.random.default_rng(77)
        zs = []
        low_ess_warned = 0
        for _ in range(60):
            if len(zs) >= 20:
                break
            p_true = rng.uniform(-0.1, 0.5)
            model_p = max(p_true, 1e-12)
            model = ZipsModel(Family.POISSON, model_p, rng.uniform(0.5, 2.0))
            cs = CountSample.from_values(sample_values(model, 60, rng))
            if cs.n0 in (0, cs.n) or cs.s == cs.n - cs.n0:
                continue
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                est = posterior_prob_positive(Family.POISSON, cs, B=20_000,
                                              seed=len(zs))
            if est.ess < 100.0:
                # outside the sampler's design regime the reported standard
                # error is itself unreliable; the contract is the warning
                low_ess_warned += sum("ESS" in str(w.message) for w in caught)
                continue
            exact, _ = wedge_prob_positive(Family.POISSON, cs)
            zs.append((est.value - exact) / max(est.mc_se, 1e-6))
        assert len(zs) == 20
        zs = np.abs(zs)
        assert np.all(zs < 5.0)
        assert np.mean(zs) < 1.5
        assert np.sum(zs < 3.5) >= 17

    def test_geometric_direct_draws(self):
        cs = CountSample({0: 30, 1: 12, 2: 5, 3: 2, 5: 1})
        est = posterior_prob_positive(Family.GEOMETRIC, cs, B=40_000, seed=2)
        exact, _ = wedge_prob_positive(Family.GEOMETRIC, cs)
        assert abs(est.value - exact) < 3.0 * est.mc_se
        assert est.ess == est.draws

    def test_factorized_agrees_with_2d_quadrature(self, uti, terror):
        for cs in (uti, terror):
            assert posterior_prob_positive_factorized(Family.POISSON, cs) == pytest.approx(
                wedge_prob_positive(Family.POISSON, cs)[0], abs=1e-8)
        geo = CountSample({0: 22, 1: 9, 2: 4, 4: 1})
        assert posterior_prob_positive_factorized(Family.GEOMETRIC, geo) == pytest.approx(
            wedge_prob_positive(Family.GEOMETRIC, geo)[0], abs=1e-8)

    @pytest.mark.parametrize("counts, expected", [
        ({0: 4, 1: 6}, 0.025219), ({0: 1, 1: 1}, 0.34913), ({1: 3, 2: 2}, 0.033720)])
    def test_joint_prior_oracle_on_small_theta_samples(self, counts, expected):
        # these posteriors put mass at theta near zero, where the joint
        # prior's 1 - e^-t - t e^-t must not cancel to zero or below; the
        # agreement test below checks these values against the 2-D oracle
        cs = CountSample(counts)
        prior = PriorKind.JEFFREYS_JOINT
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exact = posterior_prob_positive_factorized(Family.POISSON, cs, prior)
        assert exact == pytest.approx(expected, rel=1e-4)
        est = posterior_prob_positive(Family.POISSON, cs, prior, B=200_000, seed=1)
        assert abs(est.value - exact) < 4.0 * est.mc_se

    def test_oracle_keeps_quadpack_flags_in_its_accuracy(self):
        # no zeros: the inner p integrals start at the pstar**(-1/2) pole,
        # where QUADPACK flags roundoff; the flag enters the 2-D oracle's own
        # accuracy bound, which stays within its 1e-6 target, and no warning
        # leaks (the joint prior's case is in the agreement test below)
        cs = CountSample({1: 3, 2: 2})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exact, bound = wedge_prob_positive(Family.POISSON, cs)
        assert bound <= 1e-6
        assert exact == pytest.approx(posterior_prob_positive_factorized(Family.POISSON, cs),
                                      abs=1e-8)

    @pytest.mark.parametrize("counts", [{0: 22, 1: 9, 2: 4, 4: 1}, {0: 4, 1: 6, 3: 2}],
                             ids=str)
    def test_geometric_joint_prior_draws_match_quadrature(self, counts):
        # the joint prior's pstar draws are Beta(n0 + 1/2, m + 1), not m + 1/2
        cs = CountSample(counts)
        prior = PriorKind.JEFFREYS_JOINT
        exact, _ = wedge_prob_positive(Family.GEOMETRIC, cs, prior)
        est = posterior_prob_positive(Family.GEOMETRIC, cs, prior, B=200_000, seed=1)
        assert abs(est.value - exact) < 4.0 * est.mc_se

    def test_symmetric_case_is_one_half(self):
        # zero mass symmetric about one half on the pstar scale, with the
        # theta posterior concentrated at one half
        cs = CountSample({0: 200, 2: 200})
        value = posterior_prob_positive_factorized(Family.GEOMETRIC, cs)
        assert value == pytest.approx(0.5, abs=0.02)

    def test_monotone_in_zero_count(self):
        # n = 50 and s = 60 held fixed while the zero count grows
        tables = [{0: 10, 1: 20, 2: 20}, {0: 20, 2: 30},
                  {0: 30, 3: 20}, {0: 40, 6: 10}]
        values = []
        for freq in tables:
            cs = CountSample(freq)
            assert (cs.n, cs.s) == (50, 60)
            values.append(posterior_prob_positive_factorized(Family.POISSON, cs))
        assert values == sorted(values)

    def test_low_ess_warning(self, cholera):
        with pytest.warns(UserWarning, match="ESS"):
            posterior_prob_positive(Family.POISSON, cholera, B=10_000, seed=3)

    def test_reproducible(self, terror):
        a = posterior_prob_positive(Family.POISSON, terror, B=2000, seed=11)
        b = posterior_prob_positive(Family.POISSON, terror, B=2000, seed=11)
        assert a == b

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("prior", list(PriorKind))
    def test_generator_seed_draws_as_its_int(self, terror, family, prior):
        by_int = posterior_prob_positive(family, terror, prior, B=2000, seed=11)
        by_rng = posterior_prob_positive(family, terror, prior, B=2000,
                                         seed=np.random.default_rng(11))
        assert (by_rng.value, by_rng.mc_se, by_rng.ess) == (by_int.value, by_int.mc_se,
                                                            by_int.ess)
        assert (by_int.seed, by_rng.seed) == (11, None)

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            posterior_prob_positive(Family.POISSON, CountSample({0: 3}), B=100, seed=0)


def _null_sample(family, theta, n):
    """The first sample of size n from the base family with a positive
    count, over a fixed sequence of seeds."""
    for seed in range(100):
        rng = np.random.default_rng([n, seed])
        cs = CountSample.from_values(sample_values(ZipsModel(family, 0.0, theta), n, rng))
        if cs.n0 < cs.n:
            return cs
    raise AssertionError("no usable sample")


NULL_THETAS = {Family.POISSON: (0.3, 1.0, 8.0), Family.GEOMETRIC: (0.1, 0.5, 0.9)}
ORACLE_GRID = [(family, theta, n)
               for family, thetas in NULL_THETAS.items()
               for theta in thetas
               for n in (2, 5, 20, 100, 1_000, 10_000, 100_000, 1_000_000)]
# every positive count one (a theta**(-1/2) pole at zero), and m = 1
SMALL_SAMPLES = ({0: 4, 1: 6}, {0: 18, 1: 2}, {0: 3, 1: 1}, {0: 19, 1: 1})
# the bundled datasets, the small samples, the joint prior's small-theta
# tables and, by (index into NULL_THETAS, n), null samples up to n = 1e4
AGREEMENT_CASES = (*dataset_names(), *SMALL_SAMPLES, {0: 1, 1: 1}, {1: 3, 2: 2},
                   (0, 20), (1, 10_000), (2, 100))


def _agreement_sample(family, case):
    if isinstance(case, str):
        return load_dataset(case)
    if isinstance(case, dict):
        return CountSample(case)
    k, n = case
    return _null_sample(family, NULL_THETAS[family][k], n)


def _sample_of(n0, m, s):
    """A sample with ``n0`` zeros and ``m`` positive counts summing to ``s``."""
    table = {0: n0, 1: m - 1, s - m + 1: 1} if s > m else {0: n0, 1: m}
    return CountSample({value: count for value, count in table.items() if count})


# Cook's finite sum for the geometric lower tail P(p <= 0 | y) under the
# conditional prior (Cook, "Exact calculation of beta inequalities", 2005):
# theta is Beta(s - m + 1/2, m) and pstar Beta(n0 + 1/2, m + 1/2), so with the
# integer shape m the tail is a sum of m positive terms, the ratio of each to
# the one before in closed form.  Each row's largest term, by its index, from
# a 30-digit mpmath sum, starts the recurrence both ways.  The rows: the three
# datasets, the near-top tables of test_geometric_near_theta_one, m from 1
# to 1e5, and n0 = 1e6 at m = 1.
COOK_ROWS = {
    (81, 17, 26): (16, 0.006162936489495265),
    (38, 37, 52): (14, 0.062207764193993036),
    (168, 55, 86): (54, 0.003092958997263594),
    (1, 2, 10**14 + 1): (1, 6.7702750025725765e-21),
    (2, 2, 10**12 + 1): (1, 4.513516668328452e-29),
    (1, 2, 200_000_000_000): (1, 7.569397565838129e-17),
    (1, 2, 1_000_001): (1, 6.770225072045906e-09),
    (40, 1, 2): (0, 0.008217959418243067),
    (4, 1, 1): (0, 0.47034534408687106),
    (5, 3, 100): (2, 1.5266902647635028e-06),
    (500, 1000, 3000): (997, 0.005954035692574786),
    (400, 1000, 3000): (797, 0.006890952421499654),
    (100_000, 100_000, 200_000): (99_997, 0.0006307900297086188),
    (30_000, 100_000, 150_000): (14_999, 0.0023326735347901),
    (999_999, 1, 1): (0, 0.0011283787439535452),
}
# rows where the rule's lower tail is off by more: 4.3e-11 relative at a tail
# of 5.9e-11, 7% at 2.7e-32 (past the theta bracket)
COOK_ROWS_UNRESOLVED = {
    (10, 3, 100): (2, 4.836022327168057e-11),
    (1000, 1000, 3000): (999, 4.462118798891374e-33),
}


def _cook_lower_tail(n0, m, s, peak_index, peak):
    a, c = n0 + 0.5, s - m + 0.5
    ratio = [(c + i) * (a + i) / ((i + 1) * (a + i + s + 1)) for i in range(m - 1)]
    terms = [peak]
    for r in ratio[peak_index:]:
        terms.append(terms[-1] * r)
    term = peak
    for r in reversed(ratio[:peak_index]):
        term /= r
        terms.append(term)
    return math.fsum(terms)


class TestThetaPosterior:
    """The theta-posterior rule behind factorized T under either prior,
    posterior draws and the exact marginal, against the 1-D quadrature
    oracle and the 2-D wedge oracle."""

    @pytest.mark.parametrize("family, theta, n", ORACLE_GRID,
                             ids=lambda v: getattr(v, "value", v))
    def test_factorized_matches_oracle_on_null_samples(self, family, theta, n):
        cs = _null_sample(family, theta, n)
        exact = PosteriorOracle(cs, family).prob_positive()
        assert abs(posterior_prob_positive_factorized(family, cs) - exact) < 1e-8

    @pytest.mark.parametrize("table", SMALL_SAMPLES, ids=str)
    @pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
    def test_factorized_matches_oracle_on_small_samples(self, family, table):
        cs = CountSample(table)
        exact = PosteriorOracle(cs, family).prob_positive()
        assert abs(posterior_prob_positive_factorized(family, cs) - exact) < 1e-8

    @pytest.mark.parametrize("table", SMALL_SAMPLES, ids=str)
    @pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
    def test_quadrature_oracle_matches_1d_oracle(self, family, table):
        cs = CountSample(table)
        exact = PosteriorOracle(cs, family).prob_positive()
        assert abs(wedge_prob_positive(family, cs)[0] - exact) < 1e-8

    @pytest.mark.parametrize("case", AGREEMENT_CASES, ids=str)
    @pytest.mark.parametrize("prior", PriorKind, ids=lambda k: k.value)
    @pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
    def test_factorized_matches_2d_oracle_under_both_priors(self, family, prior, case):
        cs = _agreement_sample(family, case)
        exact, bound = wedge_prob_positive(family, cs, prior)
        # with no zeros the oracle's inner integrals start at the
        # pstar**(-1/2) pole, and its own bound says how close it gets
        tol = _FACTORIZED_T_ACCURACY if cs.n0 > 0 else bound + 1e-12
        assert abs(posterior_prob_positive_factorized(family, cs, prior) - exact) <= tol

    @pytest.mark.parametrize("n", (10_000, 100_000, 1_000_000))
    @pytest.mark.parametrize("family, theta", ((Family.POISSON, 1.0),
                                               (Family.GEOMETRIC, 0.5)),
                             ids=("poisson", "geometric"))
    def test_draws_at_large_n(self, family, theta, n):
        cs = _null_sample(family, theta, n)
        oracle = PosteriorOracle(cs, family)
        draws = draw_posterior(family, cs, B=10_000, seed=31)
        se = draws.theta.std() / math.sqrt(draws.B)
        assert abs(draws.theta.mean() - oracle.theta_mean()) < 4.0 * se
        assert stats.kstest(draws.theta, oracle.theta_cdf).pvalue > 1e-3

    @pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
    def test_batched_nodes_equal_nodes_per_row(self, family):
        cs = CountSample({0: 12, 1: 5, 2: 2, 4: 1})
        rule = _ThetaPosterior(family, cs.n0, cs.n - cs.n0, cs.s)
        rng = np.random.default_rng(7)
        extra = rng.uniform(rule.lo, rule.hi, (5, 2))
        base = np.unique(rule.cuts[0])
        cuts = np.sort(np.concatenate([np.broadcast_to(base, (5, base.size)), extra], axis=1))
        squared = rng.random((5, cuts.shape[1] - 1)) < 0.4
        top = _pstar_cdf(rule.series, rule.a[0], rule.b[0], rule._log_pdf_constant[0],
                         cuts[:, -1])
        batched = rule.pstar_nodes(cuts, squared, top=top)
        for row in range(5):
            single = rule.pstar_nodes(cuts[row], squared[row], top=top[row])
            for got, want in zip(batched, single):
                assert np.array_equal(got[row], want)

    @pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
    def test_batched_t_equals_t_per_sample(self, monkeypatch, family):
        # one-row calls against one shuffled batch: rises with no edge, one
        # edge or both in the bracket (three, four and five cuts), m = 1 and n
        # from 2 to 1e6
        rng = np.random.default_rng(3 if family is Family.POISSON else 4)
        rows = [(1, 1, 1), (0, 1, 1), (1, 1, 7), (10, 1, 40), (0, 2, 3), (3, 2, 2),
                (4, 6, 6), (999_995, 5, 9), (999_000, 1000, 1500), (1000, 2, 3)]
        for _ in range(FACTORIZED_BLOCK + 40):
            n = int(np.exp(rng.uniform(math.log(2.0), math.log(1e6))))
            m = int(rng.integers(1, n + 1))
            rows.append((n - m, m, m + int(rng.poisson(m * rng.uniform(0.05, 3.0)))))
        n0, m, s = np.array(rows)[rng.permutation(len(rows))].T
        single = np.array([posterior_prob_positive_factorized(family, _sample_of(*row))
                           for row in zip(n0.tolist(), m.tolist(), s.tolist())])
        cut_counts = set()

        def spy(cuts):
            for group in _distinct_cuts(cuts):
                cut_counts.add(group[1].shape[1])
                yield group

        monkeypatch.setattr("zicount.bayes._distinct_cuts", spy)
        assert np.array_equal(_factorized_t(family, n0, m, s), single)
        # split where null calibration's blocks end
        split = [_factorized_t(family, n0[i:i + FACTORIZED_BLOCK], m[i:i + FACTORIZED_BLOCK],
                               s[i:i + FACTORIZED_BLOCK])
                 for i in range(0, len(rows), FACTORIZED_BLOCK)]
        assert len(split) > 1 and np.array_equal(np.concatenate(split), single)
        assert cut_counts >= {3, 4, 5}

    @pytest.mark.parametrize("table, lower_tail", [
        ({0: 1, 1: 1, 10**14: 1}, 1.128379167095447e-20),
        ({0: 2, 1: 1, 10**12: 1}, 6.31892333566886e-29),
        ({0: 1, 1: 1, 199_999_999_999: 1}, 1.261566260983114e-16),
        ({0: 1, 1: 1, 10**6: 1}, 1.12837265073524e-8),
    ], ids=str)
    def test_geometric_near_theta_one(self, table, lower_tail):
        # theta modes up to about 1e-11 below one, which v = logit(theta)
        # resolves: every route returns numbers, and the lower tail
        # P(p <= 0 | y) over the rule's nodes matches a 40-digit mpmath integral
        cs = CountSample(table)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = _factorized_t(Family.GEOMETRIC, np.array([3, cs.n0]),
                              np.array([4, cs.n - cs.n0]), np.array([9, cs.s]))
            exact = exact_marginal(Family.GEOMETRIC, cs)
            ends = [getattr(exact.interval(0.95, kind), end)
                    for kind in IntervalKind for end in ("lower", "upper")]
            draws = draw_posterior(Family.GEOMETRIC, cs, B=100, seed=1)
        assert np.all(np.isfinite(t)) and 0.0 <= t[1] <= 1.0
        assert all(math.isfinite(end) for end in ends)
        assert all(np.all(np.isfinite(v)) for v in (draws.pstar, draws.theta, draws.p))
        rule = exact.rule
        w, _, pstar, *_ = rule.pstar_nodes(np.unique(rule.cuts[0]), False)
        tail = np.sum(w * special.betainc(rule.a[0], rule.b[0], pstar)) / np.sum(w)
        assert tail == pytest.approx(lower_tail, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("row, peak", COOK_ROWS.items(), ids=str)
    def test_geometric_lower_tail_matches_cooks_sum(self, row, peak):
        # P(p <= 0 | y), the exact marginal's CDF at zero, which sums w * CDF
        # over the rule's nodes at factorized T's cuts, against the finite sum
        exact = exact_marginal(Family.GEOMETRIC, _sample_of(*row))
        assert exact.cdf(0.0) == pytest.approx(_cook_lower_tail(*row, *peak), rel=1e-12, abs=0.0)

    @pytest.mark.xfail(strict=True, reason="a tail far below the CDF's range on its panels, "
                       "or past the theta bracket, keeps no 1e-12 relative precision")
    @pytest.mark.parametrize("row, peak", COOK_ROWS_UNRESOLVED.items(), ids=str)
    def test_geometric_lower_tail_unresolved_rows(self, row, peak):
        exact = exact_marginal(Family.GEOMETRIC, _sample_of(*row))
        assert exact.cdf(0.0) == pytest.approx(_cook_lower_tail(*row, *peak), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("prior", PriorKind, ids=lambda k: k.value)
    @pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
    def test_t_and_marginal_cdf_stay_in_unit_interval(self, family, prior):
        # the batched test's rows, all-ones samples and near-top geometric
        # tables: T in [0, 1], and the marginal CDF in [0, 1] and
        # non-decreasing on the 129-point scan of its t range, up to the
        # rounding of its normalized weights' sum near one (steps back of
        # 1.1e-16 to 3.3e-16 on these rows)
        rng = np.random.default_rng(3 if family is Family.POISSON else 4)
        rows = [(1, 1, 1), (0, 1, 1), (1, 1, 7), (10, 1, 40), (0, 2, 3), (3, 2, 2),
                (4, 6, 6), (999_995, 5, 9), (999_000, 1000, 1500), (1000, 2, 3)]
        for _ in range(FACTORIZED_BLOCK + 40):
            n = int(np.exp(rng.uniform(math.log(2.0), math.log(1e6))))
            m = int(rng.integers(1, n + 1))
            rows.append((n - m, m, m + int(rng.poisson(m * rng.uniform(0.05, 3.0)))))
        rows += [(4, 6, 6), (18, 2, 2), (19, 1, 1), (0, 5, 5), (999_999, 1, 1), (1, 999_999, 999_999)]
        if family is Family.GEOMETRIC:
            rows += [(1, 2, 10**14 + 1), (2, 2, 10**12 + 1), (1, 2, 200_000_000_000)]
        n0, m, s = np.array(rows).T
        t = _factorized_t(family, n0, m, s, prior)
        assert np.all((t >= 0.0) & (t <= 1.0))
        for row in rows[:10] + rows[-9:]:
            if row[0] == 0:
                continue
            exact = ExactMarginal(_ThetaPosterior(family, *row, prior))
            _, _, cdf = _scan(exact.cdf, exact._t_range())
            assert np.all((cdf >= 0.0) & (cdf <= 1.0)) and np.all(np.diff(cdf) >= -1e-15), row

    @pytest.mark.parametrize("row", [(4, 1, 1), (5, 1, 1), (6, 1, 1), (306, 1, 1),
                                     (999_999, 1, 1), (7200, 10596, 26368),
                                     (16778, 25658, 64418), (34762, 61741, 171695)], ids=str)
    def test_geometric_t_matches_beta_integral(self, row):
        # T = E[betaincc(n0 + 1/2, m + 1/2, phi)] with phi = 1 - theta ~
        # Beta(m, s - m + 1/2), by quad on 40 panels between phi's 1e-18 quantiles
        n0, m, s = row
        law = stats.beta(m, s - m + 0.5)
        edges = np.linspace(law.ppf(1e-18), law.isf(1e-18), 41)
        integrand = lambda phi: law.pdf(phi) * special.betaincc(n0 + 0.5, m + 0.5, phi)
        reference = sum(integrate.quad(integrand, a, b, epsabs=1e-17, epsrel=1e-13,
                                       limit=200)[0] for a, b in zip(edges[:-1], edges[1:]))
        assert abs(_factorized_t(Family.GEOMETRIC, [n0], [m], [s])[0] - reference) <= 3e-14

    @pytest.mark.parametrize("row, reference", [
        ((4, 1, 1), 0.5814438776698703468),
        ((20, 1, 1), 0.78937497516041357198),
        ((306, 1, 1), 0.94440435900386573456),
        ((3, 2, 2), 0.29437913126353730874),
        ((40, 1, 2), 0.99682722767425255791),
        ((40, 2, 3), 0.98497362578373230649),
        ((60, 2, 3), 0.99153959856901886878),
        ((1000, 2, 3), 0.99986724424412948103),
    ], ids=str)
    def test_poisson_t_matches_30_digit_integral(self, row, reference):
        # T = E[betaincc(n0 + 1/2, m + 1/2, exp(-theta))] over the theta law,
        # by 30-digit mpmath quadrature (40 digits agree within 1e-31); m = 1
        # rows have a rise over many decades, and the last four a rise over
        # most of the bracket, which the panels cut at both of its edges
        n0, m, s = row
        assert abs(_factorized_t(Family.POISSON, [n0], [m], [s])[0] - reference) <= 2e-14

    @pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
    def test_all_ones_draws_match_oracle_quantiles(self, family):
        cs = CountSample({0: 4, 1: 6})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = draw_posterior(family, cs, B=100_000, seed=32)
        oracle = PosteriorOracle(cs, family)
        for q in (0.01, 0.5, 0.99):
            share = np.mean(draws.theta <= oracle.theta_quantile(q))
            assert abs(share - q) < 4.0 * math.sqrt(q * (1.0 - q) / draws.B)


class TestMarginalDensity:
    def test_uti_unimodal_with_mode_in_range(self, uti):
        draws = draw_posterior(Family.POISSON, uti, B=30_000, seed=12)
        grid = np.linspace(-0.2, 0.99, 400)
        dens = _marginal_density_evaluator(draws, uti)(grid)
        assert np.all(dens >= 0.0)
        mode = grid[int(np.argmax(dens))]
        assert 0.4 < mode < 0.8
        peaks = np.sum((dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:]
                                                   ) & (dens[1:-1] > 0.05 * dens.max()))
        assert peaks == 1

    def test_terror_mode_near_zero(self, terror):
        draws = draw_posterior(Family.POISSON, terror, B=30_000, seed=13)
        grid = np.linspace(-0.9, 0.9, 600)
        dens = _marginal_density_evaluator(draws, terror)(grid)
        assert abs(grid[int(np.argmax(dens))]) < 0.15

    def test_integrates_to_one(self, uti, terror):
        for cs in (uti, terror):
            draws = draw_posterior(Family.POISSON, cs, B=30_000, seed=14)
            lo = float(np.min(-np.exp(-draws.theta) / (1 - np.exp(-draws.theta))))
            grid = np.linspace(lo + 1e-9, 1.0 - 1e-9, 4000)
            dens = _marginal_density_evaluator(draws, cs)(grid)
            assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=0.01)

    def test_matches_exact_density(self, uti):
        draws = draw_posterior(Family.POISSON, uti, B=60_000, seed=15)
        oracle = PosteriorOracle(uti)
        grid = np.linspace(-0.1, 0.95, 40)
        estimated = _marginal_density_evaluator(draws, uti)(grid)
        exact = np.array([oracle.p_density(x) for x in grid])
        assert np.max(np.abs(estimated - exact)) < 0.02 * exact.max()

    def test_vanishes_at_range_ends(self, uti):
        draws = draw_posterior(Family.POISSON, uti, B=20_000, seed=16)
        grid, dens = density_curve(draws, uti, num=256)
        assert dens[0] < 1e-3 * dens.max()
        assert dens[-1] < 1e-3 * dens.max()
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=0.01)

    @pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
    def test_all_ones_curve_holds_the_exact_mass(self, family):
        # the draws of an all-ones sample reach p of about -5e9, far beyond
        # the visible mass; the curve still spans the bulk of the exact one
        cs = CountSample({0: 4, 1: 6})
        grid, dens = density_curve(draw_posterior(family, cs, B=20_000, seed=16), cs)
        exact_grid, exact = exact_marginal(family, cs).curve()
        assert abs(np.trapezoid(dens, grid) - np.trapezoid(exact, exact_grid)) <= 0.05


class TestIntervals:
    def test_equal_tail_matches_exact_quantiles(self, uti, terror):
        for cs in (uti, terror):
            draws = draw_posterior(Family.POISSON, cs, B=100_000, seed=17)
            oracle = PosteriorOracle(cs)
            est = credible_interval(draws, 0.95)
            assert est.lower == pytest.approx(oracle.p_quantile(0.025), abs=0.01)
            assert est.upper == pytest.approx(oracle.p_quantile(0.975), abs=0.01)
            assert est.kind is IntervalKind.EQUAL_TAIL

    def test_hpd_matches_exact_construction(self, uti):
        draws = draw_posterior(Family.POISSON, uti, B=100_000, seed=18)
        est = hpd_interval(draws, uti, 0.95)
        # exact analogue: threshold at the 5th percentile of exact densities
        # evaluated at the draws, endpoints solving density = threshold
        oracle = PosteriorOracle(uti)
        exact_dens = np.array([oracle.p_density(x)
                               for x in np.linspace(draws.p.min(), draws.p.max(), 200)])
        grid = np.linspace(draws.p.min(), draws.p.max(), 200)
        dens_at_draws = np.interp(draws.p, grid, exact_dens)
        threshold = np.percentile(dens_at_draws, 5.0)
        from scipy.optimize import brentq
        mode = grid[int(np.argmax(exact_dens))]
        lower = brentq(lambda x: oracle.p_density(x) - threshold, grid[0], mode)
        upper = brentq(lambda x: oracle.p_density(x) - threshold, mode, grid[-1])
        assert est.lower == pytest.approx(lower, abs=0.01)
        assert est.upper == pytest.approx(upper, abs=0.01)
        exact = exact_marginal(Family.POISSON, uti).interval(0.95, IntervalKind.HPD)
        assert exact.lower == pytest.approx(lower, abs=0.01)
        assert exact.upper == pytest.approx(upper, abs=0.01)

    def test_hpd_properties(self, uti, terror, cholera):
        for cs in (uti, terror, cholera):
            draws = draw_posterior(Family.POISSON, cs, B=50_000, seed=19)
            hpd = hpd_interval(draws, cs, 0.95)
            equal = credible_interval(draws, 0.95)
            assert draws.p.min() <= hpd.lower < hpd.upper <= draws.p.max()
            coverage = np.mean((draws.p >= hpd.lower) & (draws.p <= hpd.upper))
            assert coverage >= 0.94
            width_hpd = hpd.upper - hpd.lower
            width_eq = equal.upper - equal.lower
            assert width_hpd <= width_eq + 0.02
            mode_grid = np.linspace(draws.p.min(), draws.p.max(), 512)
            dens = _marginal_density_evaluator(draws, cs)(mode_grid)
            mode = mode_grid[int(np.argmax(dens))]
            assert hpd.lower <= mode <= hpd.upper
            assert hpd.density_threshold is not None and hpd.density_threshold > 0

    def test_level_validation(self, uti):
        draws = draw_posterior(Family.POISSON, uti, B=2000, seed=20)
        with pytest.raises(ValueError):
            credible_interval(draws, 1.0)
        with pytest.raises(ValueError):
            hpd_interval(draws, uti, 0.0)
        for level in (math.nan, -0.1):
            with pytest.raises(ValueError, match="level must lie strictly between 0 and 1"):
                credible_interval(draws, level)
            with pytest.raises(ValueError, match="level must lie strictly between 0 and 1"):
                hpd_interval(draws, uti, level)
        with pytest.raises(ValueError, match="B must be an integer, got 2.5"):
            draw_posterior(Family.POISSON, uti, B=2.5)
        with pytest.raises(ValueError, match="B must be an integer, got True"):
            posterior_prob_positive(Family.POISSON, uti, B=True)
        with pytest.raises(ValueError, match="num must be an integer, got 16.5"):
            density_curve(draws, uti, 16.5)

    def test_seed_validation(self, uti):
        # a seed is an integer of at least 0; None would draw OS entropy
        for seed, message in ((None, "seed must be an integer, got None"),
                              (1.5, "seed must be an integer, got 1.5"),
                              (True, "seed must be an integer, got True"),
                              (-1, "seed must be at least 0, got -1")):
            with pytest.raises(ValueError, match=message):
                draw_posterior(Family.POISSON, uti, B=100, seed=seed)
            with pytest.raises(ValueError, match=message):
                posterior_prob_positive(Family.GEOMETRIC, uti, B=100, seed=seed)
        # posterior_prob_positive also takes a Generator, as documented
        by_generator = posterior_prob_positive(Family.GEOMETRIC, uti, B=100,
                                               seed=np.random.default_rng(np.int64(3)))
        by_seed = posterior_prob_positive(Family.GEOMETRIC, uti, B=100, seed=np.int64(3))
        assert by_generator.value == by_seed.value

    def test_routes_reject_a_sample_the_draws_did_not_come_from(self, uti, terror):
        # pstar's Beta law comes from the sample, so another one would give
        # a wrong density with no error
        draws = draw_posterior(Family.POISSON, uti, B=2000, seed=20)
        routes = (lambda cs: _marginal_density_evaluator(draws, cs)([0.5]),
                  lambda cs: density_curve(draws, cs, 64),
                  lambda cs: hpd_interval(draws, cs, 0.95))
        for route in routes:
            route(CountSample(dict(uti.items())))  # an equal table is the same sample
            with pytest.raises(ValueError, match="not the one the posterior draws came from"):
                route(terror)

    def test_multimodal_fallback_returns_hull_with_warning(self, uti):
        # synthetic draws with theta split into two distant clumps make the
        # estimated weight density bimodal, triggering the hull fallback
        from zicount import PosteriorDraws
        rng = np.random.default_rng(30)
        B = 20_000
        theta = np.concatenate([rng.normal(0.25, 0.01, B // 2),
                                rng.normal(3.5, 0.02, B // 2)])
        pstar = rng.beta(81.5, 17.5, B)
        f0 = np.exp(-theta)
        p = (pstar - f0) / (1.0 - f0)
        draws = PosteriorDraws(family=Family.POISSON, pstar=pstar, theta=theta,
                               p=p, seed=30, B=B, sample=uti)
        with pytest.warns(UserWarning, match="unimodal"):
            est = hpd_interval(draws, uti, 0.95)
        assert est.note is not None
        assert est.lower < est.upper

    def test_super_level_blocks_at_both_ends_return_hull_with_warning(self, uti,
                                                                       monkeypatch):
        # a density lowest mid-grid crosses any threshold above its floor
        # only twice, yet its super-level set is two blocks
        draws = draw_posterior(Family.POISSON, uti, B=2000, seed=20)
        mid = 0.5 * (draws.p.min() + draws.p.max())
        monkeypatch.setattr("zicount.bayes._marginal_density_evaluator",
                            lambda draws, sample: lambda p: (np.asarray(p) - mid) ** 2)
        with pytest.warns(UserWarning, match="unimodal"):
            est = hpd_interval(draws, uti, 0.5)
        assert est.note is not None
        assert (est.lower, est.upper) == (draws.p.min(), draws.p.max())


# sample sizes for samples drawn at p = 0.2, and all-ones samples, whose
# weight posterior has a heavy left tail (theta near zero sends -f0/(1 - f0)
# to minus infinity)
MARGINAL_CASES = (2, 20, 100, 1_000, 10_000, 1_000_000,
                  {0: 4, 1: 6}, {0: 18, 1: 2}, {0: 19, 1: 1})


def _marginal_sample(family, case):
    if isinstance(case, dict):
        return CountSample(case)
    model = ZipsModel(family, 0.2, 1.0 if family is Family.POISSON else 0.5)
    for seed in range(100):
        cs = CountSample.from_values(sample_values(model, case, np.random.default_rng([case, seed])))
        if 0 < cs.n0 < cs.n:
            return cs
    raise AssertionError("no usable sample")


class TestExactMarginal:
    """The exact marginal of the weight, against the 1-D quadrature oracle."""

    @pytest.mark.parametrize("case", MARGINAL_CASES, ids=str)
    @pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
    def test_matches_oracle(self, family, case):
        cs = _marginal_sample(family, case)
        oracle = PosteriorOracle(cs, family)
        exact = exact_marginal(family, cs)
        equal = exact.interval(0.95, IntervalKind.EQUAL_TAIL)
        points = {oracle.p_quantile(q): None for q in (0.01, 0.5, 0.99)}
        points.update({equal.lower: 0.025, equal.upper: 0.975})
        for x, q in points.items():
            # relative above one: at n = 1e6 the density is about 300, and
            # the oracle's theta kernel, like the rule's, sums terms of order
            # n, which leaves about 1e-11 relative noise in either
            dens, cdf = oracle.p_density(x), oracle.p_cdf(x)
            assert abs(exact.density(x) - dens) <= 1e-8 * max(1.0, dens)
            assert abs(exact.cdf(x) - cdf) <= 1e-8
            assert q is None or abs(cdf - q) <= 1e-8

    @pytest.mark.parametrize("case", MARGINAL_CASES + tuple(dataset_names()) + (
        {0: 40, 1: 1, 2: 1}, {0: 60, 1: 1, 2: 1}, {0: 1000, 1: 1, 2: 1}), ids=str)
    @pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
    def test_factorized_t_is_the_marginal_tail(self, family, case):
        # factorized T = P(p > 0 | Y) is one minus the marginal CDF at zero,
        # both from the one kernel on the one rule; the last three have a rise
        # over most of the theta bracket
        cs = load_dataset(case) if isinstance(case, str) else _marginal_sample(family, case)
        tail = 1.0 - exact_marginal(family, cs).cdf(0.0)
        assert posterior_prob_positive_factorized(family, cs) == tail

    @pytest.mark.parametrize("case", tuple(dataset_names()) + ({0: 4, 1: 6}, {0: 19, 1: 1}),
                             ids=str)
    @pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
    def test_batched_points_equal_points_alone(self, family, case):
        # the kernel groups points by their number of distinct cuts, so that
        # each sums the same nodes in the same order as alone: points across
        # the curve, in its far left tail, at zero and near one, more of them
        # than one block of the kernel's entries, so that a batch crosses a
        # block's end
        cs = load_dataset(case) if isinstance(case, str) else CountSample(case)
        exact = exact_marginal(family, cs)
        points = np.concatenate([exact.curve(FACTORIZED_BLOCK + 44)[0],
                                 [-1e6, -10.0, 0.0, 0.5, 0.999]])
        points = points[np.random.default_rng(5).permutation(points.size)]
        for route in (exact.density, exact.cdf):
            assert np.array_equal(route(points), [route(x) for x in points])

    @pytest.mark.parametrize("case", dataset_names())
    @pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
    def test_curve_memory_does_not_grow_with_its_points(self, family, case):
        # the kernel works on FACTORIZED_BLOCK entries at a time, so a long
        # curve holds one block's nodes, not every point's
        cs = load_dataset(case)
        tracemalloc.start()
        try:
            grid, dens = exact_marginal(family, cs).curve(20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.size == 20_000 and np.all(np.isfinite(dens))
        assert peak < 32 << 20

    @pytest.mark.parametrize("level", (0.05, 0.5, 0.95, 0.99))
    @pytest.mark.parametrize("case", MARGINAL_CASES, ids=str)
    @pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
    def test_hpd_is_the_level_set(self, family, case, level):
        exact = exact_marginal(family, _marginal_sample(family, case))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hpd = exact.interval(level, IntervalKind.HPD)
            equal = exact.interval(level, IntervalKind.EQUAL_TAIL)
        _, dens = exact.curve(512)
        lower, upper = exact.density([hpd.lower, hpd.upper])
        assert hpd.note is None and hpd.lower < hpd.upper < 1.0
        assert abs(exact.cdf(hpd.upper) - exact.cdf(hpd.lower) - level) <= 1e-9
        assert abs(lower - upper) <= 1e-8 * dens.max()
        assert hpd.density_threshold == pytest.approx(lower, rel=1e-8)
        assert hpd.upper - hpd.lower <= equal.upper - equal.lower

    def test_curve_spans_visible_mass(self, uti, cholera):
        for cs in (uti, cholera):
            grid, dens = exact_marginal(Family.POISSON, cs).curve(256)
            assert grid.size == 256 and np.all(np.diff(grid) > 0.0)
            assert dens[0] < 1e-3 * dens.max() and dens[-1] < 1e-3 * dens.max()
            assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=2e-3)

    def test_multimodal_fallback_returns_hull_with_warning(self, uti):
        class TwoBumps(ExactMarginal):
            def density(self, p):
                p = np.asarray(p, dtype=float)
                return (np.exp(-0.5 * ((p - 0.2) / 0.05) ** 2)
                        + np.exp(-0.5 * ((p - 0.7) / 0.05) ** 2))

        base = exact_marginal(Family.POISSON, uti)
        bumps = TwoBumps(base.rule)
        with pytest.warns(UserWarning, match="unimodal"):
            est = bumps.interval(0.95, IntervalKind.HPD)
        assert est.note is not None
        assert est.lower < 0.2 < 0.7 < est.upper

    def test_super_level_blocks_at_both_ends_return_hull_with_warning(self, uti):
        base = exact_marginal(Family.POISSON, uti)
        mid = -np.expm1(base._t_range()).mean()

        class TwoEnds(ExactMarginal):
            def density(self, p):
                return (np.asarray(p, dtype=float) - mid) ** 2

        with pytest.warns(UserWarning, match="unimodal"):
            est = TwoEnds(base.rule).interval(0.5, IntervalKind.HPD)
        assert est.note is not None
        assert est.lower < mid < est.upper

    def test_level_validation(self, uti):
        exact = exact_marginal(Family.POISSON, uti)
        for kind in IntervalKind:
            with pytest.raises(ValueError):
                exact.interval(1.0, kind)
            with pytest.raises(ValueError, match="level must lie strictly between 0 and 1, got nan"):
                exact.interval(math.nan, kind)
        with pytest.raises(ValueError):
            exact.curve(8)
        with pytest.raises(ValueError, match="num must be an integer, got 16.5"):
            exact.curve(16.5)

    def test_interval_takes_a_kind_by_its_value(self, terror):
        exact = exact_marginal(Family.POISSON, terror)
        for kind in IntervalKind:
            assert exact.interval(0.95, kind.value) == exact.interval(0.95, kind)
        with pytest.raises(ValueError, match="'central' is not a valid IntervalKind"):
            exact.interval(0.95, "central")


# (n0, positive counts): n from 2 to 1e6, with no zeros, no positives, all
# positives one, a single large count, a Poisson mean above 700, and a
# geometric theta within about 1e-11 of one
SWEEP_TABLES = (
    {0: 1, 1: 1}, {0: 1, 7: 1}, {1: 3, 2: 2}, {0: 5}, {0: 4, 1: 6},
    {0: 12, 1: 5, 2: 2, 4: 1}, {0: 9, 50: 1}, {0: 99, 1000: 1}, {0: 1, 5000: 1},
    {0: 3, 800: 2, 900: 3}, {0: 400_000, 1: 600_000}, {0: 999_999, 1: 1},
    {0: 1, 1: 999_999}, {0: 1, 2: 999_999}, {0: 5, 1: 9_999, 2: 1},
    {0: 1, 1: 999_999, 2: 1}, {0: 600_000, 1: 250_000, 2: 100_000, 3: 50_000},
    {0: 1, 1: 1, 10**14: 1}, {0: 2, 1: 1, 10**12: 1},
)


@pytest.mark.parametrize("table", SWEEP_TABLES, ids=lambda t: str(t)[:40])
@pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
def test_exact_marginal_returns_finite_numbers_or_typed_errors(family, table):
    cs = CountSample(table)
    if cs.n0 == 0 or cs.n0 == cs.n:
        with pytest.raises(DegenerateSampleError):
            exact_marginal(family, cs)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            exact = exact_marginal(family, cs)
            points = [-10.0, 0.0, 0.5, 0.999]
            values = [exact.density(points), exact.cdf(points), *exact.curve(64)]
            for kind in IntervalKind:
                est = exact.interval(0.95, kind)
                values.append([est.lower, est.upper])
        except ZicountError:
            return
    assert all(np.all(np.isfinite(v)) for v in values)
    assert np.all(values[0] >= 0.0) and np.all((values[1] >= 0.0) & (values[1] <= 1.0))


# the two tables where the importance sampler's proposal drifts from the
# posterior far enough for its documented low-ESS warning
LOW_ESS_TABLES = ({0: 1, 2: 999_999}, {0: 600_000, 1: 250_000, 2: 100_000, 3: 50_000})
IS_ROUTES = tuple(f"posterior_prob_positive/{kind.value}" for kind in PriorKind) + (
    "bayes_factor_positive",)
# exact T under each prior, and the Bayes factor on it
FACTORIZED_ROUTES = tuple(f"factorized/{kind.value}" for kind in PriorKind) + (
    "bayes_factor_positive/exact",)
EXPANSION_ROUTES = tuple(f"expansion_inputs/{kind.value}" for kind in PriorKind)
DRAW_ROUTES = ("draw_posterior", "credible_interval", "_marginal_density_evaluator",
               "density_curve", "hpd_interval")
# the tables where the draw-based HPD grid may cross its threshold more than
# twice at B = 500, so that it returns its documented hull fallback
HPD_HULL_TABLES = ({0: 400_000, 1: 600_000}, {0: 1, 2: 999_999}, {0: 5, 1: 9_999, 2: 1})


def _sweep_outputs(route, family, cs):
    """The numbers one route returns on one sweep sample."""
    if route.startswith("factorized/"):
        return [posterior_prob_positive_factorized(family, cs, PriorKind(route.split("/")[1]))]
    if route.startswith("posterior_prob_positive/"):
        est = posterior_prob_positive(family, cs, PriorKind(route.split("/")[1]), B=500)
        return [est.value, est.mc_se, est.ess]
    if route.startswith("bayes_factor_positive"):
        result = bayes_factor_positive(family, cs, B=0 if route.endswith("/exact") else 500)
        return [result.value, result.posterior_prob, result.prior_prob]
    if route.startswith("expansion_inputs/"):
        inputs = expansion_inputs(family, cs, PriorKind(route.split("/")[1]))
        return [posterior_tail_expansion(inputs, 0.0, cs.n), inputs.prior_value,
                *inputs.prior_grad]
    if route in DRAW_ROUTES:
        draws = draw_posterior(family, cs, B=500)
        if route == "credible_interval":
            est = credible_interval(draws, 0.95)
            return [est.lower, est.upper]
        if route == "_marginal_density_evaluator":
            return [*_marginal_density_evaluator(draws, cs)([-10.0, 0.0, 0.5, 0.999])]
        if route == "density_curve":
            grid, dens = density_curve(draws, cs, 64)
            return [*grid, *dens]
        if route == "hpd_interval":
            est = hpd_interval(draws, cs, 0.95)
            return [est.lower, est.upper, est.density_threshold]
        return [*draws.pstar, *draws.theta, *draws.p]
    if route in ("score_test", "lr_test"):
        report = (score_test if route == "score_test" else lr_test)(family, cs)
        return [report.statistic, report.signed_root, report.p_value]
    fit = (mle_null if route == "mle_null" else mle_full)(family, cs)
    return [fit.p_hat, fit.theta_hat, fit.loglik]


@pytest.mark.parametrize("route", [*FACTORIZED_ROUTES, "score_test", "lr_test", "mle_null",
                                   "mle_full", *IS_ROUTES, *EXPANSION_ROUTES, *DRAW_ROUTES])
@pytest.mark.parametrize("table", SWEEP_TABLES, ids=lambda t: str(t)[:40])
@pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
def test_routes_return_finite_numbers_or_typed_errors(family, table, route):
    cs = CountSample(table)
    low_ess = route in IS_ROUTES and family is Family.POISSON and table in LOW_ESS_TABLES
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if route == "hpd_interval" and table in HPD_HULL_TABLES:
            warnings.filterwarnings("ignore", "estimated posterior not unimodal")
        try:
            with pytest.warns(UserWarning, match="ESS low") if low_ess else _nullcontext():
                values = _sweep_outputs(route, family, cs)
        except ZicountError:
            return
    # two defined non-finite values:
    if route == "score_test" and family is Family.POISSON and math.exp(-cs.ybar) == 0.0:
        # f0 underflows at the null fit theta = ybar (Poisson {0: 1, 5000: 1}):
        # the statistic is +inf and the p-value 0
        assert values[0] == values[1] == math.inf and values[2] == 0.0
        values = values[2:]
    if route == "mle_full" and 0 < cs.n0 and cs.s == cs.n - cs.n0:
        # every positive count is one: no interior MLE, the boundary p_hat is NaN
        assert math.isnan(values[0])
        values = values[1:]
    assert all(math.isfinite(v) for v in values), values[:3]
    if route.startswith(("factorized/", "posterior_prob_positive/", "expansion_inputs/")):
        assert 0.0 <= values[0] <= 1.0


class TestBayesFactor:
    def test_odds_identity(self):
        # symmetric sample where T is close to one half: the factor reduces
        # to the ratio of posterior to prior odds, checked via its own parts
        cs = CountSample({0: 200, 2: 200})
        result = bayes_factor_positive(Family.GEOMETRIC, cs, B=50_000, seed=21)
        t, q = result.posterior_prob, result.prior_prob
        assert result.value == pytest.approx((t / (1 - t)) / (q / (1 - q)), rel=1e-9)
        assert not result.lower_bound
        assert result.non_authoritative

    def test_uti_strong_evidence(self, uti):
        result = bayes_factor_positive(Family.POISSON, uti, B=10_000, seed=22)
        assert result.value > 1.0

    def test_terror_no_evidence(self, terror):
        result = bayes_factor_positive(Family.POISSON, terror, B=10_000, seed=23)
        assert result.value < 1.0

    def test_lower_bound_flag_near_one(self, cholera):
        with pytest.warns(UserWarning):
            result = bayes_factor_positive(Family.POISSON, cholera, B=10_000, seed=24)
            est = posterior_prob_positive(Family.POISSON, cholera, B=10_000, seed=24)
        # B > 0 resolves the sampler's T to the larger of its se and 1/B
        assert result.posterior_prob == est.value > 1.0 - max(est.mc_se, 1.0 / est.draws)
        assert result.lower_bound
        assert math.isfinite(result.value) and result.value > 1.0

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("kind", list(PriorKind))
    @pytest.mark.parametrize("window, rel", [
        ((0.0, 50.0), 1e-10), ((0.1, 5.0), 1e-10), ((1e-3, 0.9), 1e-10),
        ((0.0, 1e6), 1e-6),  # adaptive quad without breakpoints: 1.3e-3
    ])
    def test_prior_probability_matches_tight_quadrature(self, family, kind,
                                                        window, rel):
        q, (lo, hi) = _prior_prob_positive(family, kind, window)
        series = family._series
        # the prior's theta marginal: the family's Jeffreys prior under the
        # conditional prior, sqrt(i_trunc) under the joint one
        if kind is PriorKind.CONDITIONAL_JEFFREYS:
            log_g = lambda t: series.log_jeffreys(t, series.log_c(t))
            positive = lambda t: stats.beta.sf(family.f0(t), 0.5, 0.5)
        else:
            log_g = lambda t: 0.5 * math.log(series.trunc_info(t, series.log_c(t)))
            positive = lambda t: 1.0 - math.sqrt(family.f0(t))
        weight = lambda u: math.exp(log_g(math.exp(u)) + u)
        a, b = math.log(lo), math.log(hi)
        points = [x for x in (-1e-2, -1e-3, 0.0, 1.0, 2.0) if a < x < b]
        tight = dict(epsabs=0.0, epsrel=1e-13, limit=500, points=points)
        num, _ = integrate.quad(lambda u: weight(u) * positive(math.exp(u)), a, b, **tight)
        den, _ = integrate.quad(weight, a, b, **tight)
        assert q == pytest.approx(num / den, rel=rel)

    def test_window_stamped(self, uti):
        result = bayes_factor_positive(Family.POISSON, uti, B=2000, seed=25,
                                       theta_window=(0.0, 30.0))
        assert result.theta_window[1] == 30.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", list(PriorKind))
    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("name", ["uti", "terror", "cholera"])
    def test_default_is_exact_t(self, name, family, kind):
        # B = 0, the default, takes T from the theta rule, resolved to
        # _FACTORIZED_T_ACCURACY, with no Monte Carlo diagnostic to warn of
        cs = load_dataset(name)
        result = bayes_factor_positive(family, cs, kind)
        t = posterior_prob_positive_factorized(family, cs, kind)
        assert result.posterior_prob == t
        assert result == bayes_factor_positive(family, cs, kind, B=0)
        assert result.lower_bound is (t > 1.0 - _FACTORIZED_T_ACCURACY)
        q = result.prior_prob
        t_eff = min(t, 1.0 - _FACTORIZED_T_ACCURACY)
        assert result.value == (t_eff / (1.0 - t_eff)) / (q / (1.0 - q))

    def test_b_and_seed_validation(self, uti):
        # B = 0 is exact T and B > 0 the paper's sampler; no other B is a route
        for name, value, message in (
                ("B", 2.5, "B must be an integer, got 2.5"),
                ("B", True, "B must be an integer, got True"),
                ("B", -1, "B must be at least 0, got -1"),
                ("seed", None, "seed must be an integer, got None"),
                ("seed", 1.5, "seed must be an integer, got 1.5"),
                ("seed", True, "seed must be an integer, got True"),
                ("seed", -1, "seed must be at least 0, got -1")):
            for B in (0, 100):
                with pytest.raises(ValueError, match=message):
                    bayes_factor_positive(Family.POISSON, uti, **{"B": B, name: value})

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family, window", [
        (Family.POISSON, (0.0, math.inf)), (Family.POISSON, (0.0, 1e300)),
        (Family.POISSON, (math.nan, 5.0)), (Family.GEOMETRIC, (2.0, 3.0))])
    def test_window_without_finite_prior_odds(self, uti, family, window):
        # Poisson theta has no upper end: an infinite window end stays, and a
        # huge one rounds the prior probability of p > 0 to one; a geometric
        # window past theta_max is empty
        with pytest.raises(ValueError, match=r"theta window \("):
            bayes_factor_positive(family, uti, theta_window=window)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("hi", [math.inf, 1e300, 50.0])
    def test_geometric_window_clipped_to_theta_max(self, uti, hi):
        result = bayes_factor_positive(Family.GEOMETRIC, uti, theta_window=(0.0, hi))
        assert result.theta_window == (1e-12, 1.0 - 1e-6)
        assert result == bayes_factor_positive(Family.GEOMETRIC, uti)
        assert math.isfinite(result.value) and 0.0 < result.prior_prob < 1.0


class _nullcontext:
    def __enter__(self):
        return None

    def __exit__(self, *args):
        return False
