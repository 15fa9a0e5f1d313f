import math

import numpy as np
import pytest
from scipy import stats

from zicount import (CountSample, DegenerateSampleError, ExpansionInputs,
                     Family, PriorKind, ZicountError, ZipsModel, beta_calibration,
                     expansion_inputs, loglik_derivatives,
                     posterior_prob_positive, posterior_prob_positive_factorized,
                     posterior_tail_expansion, sample_values, uniformity_check)
from zicount.asymptotics import (BetaCalibration, _correction_terms,
                                 beta_moment_fit)
from zicount.bayes import _factorized_t
from zicount.distributions import _log_likelihood
from zicount.power import _replications

from conftest import fd_hessian, fd_third


SAMPLE = CountSample({0: 30, 1: 10, 2: 6, 3: 2})


def synthetic_inputs(g1_parts=None, third_scale=0.0):
    """ExpansionInputs with controllable correction ingredients."""
    info_inv = np.array([[2.0, 0.0], [0.0, 1.0]])
    return ExpansionInputs(
        eta_hat=(0.0, 1.0),
        a2=-np.linalg.inv(info_inv),
        a3=third_scale * np.ones((2, 2, 2)),
        info_inv=info_inv,
        m=np.array([1.0, 0.0]),
        K=info_inv - np.outer(info_inv[:, 0], info_inv[0, :]) / info_inv[0, 0],
        prior_value=1.0,
        prior_grad=np.zeros(2) if g1_parts is None else np.asarray(g1_parts),
    )


class TestExpansionInputs:
    def test_average_hessian_identity(self, uti):
        inputs = expansion_inputs(Family.POISSON, uti)
        _, hess, _ = loglik_derivatives(Family.POISSON, *inputs.eta_hat, uti)
        # total Hessian = -n times the per-observation information
        info = -inputs.a2
        assert np.allclose(hess, -uti.n * info, rtol=1e-12)

    def test_m_first_entry_is_one(self, uti, terror):
        for cs in (uti, terror):
            inputs = expansion_inputs(Family.POISSON, cs)
            assert inputs.m[0] == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("family,point", [
        (Family.POISSON, (0.2, 1.0)),
        (Family.POISSON, (-0.15, 1.6)),
        (Family.GEOMETRIC, (0.1, 0.45)),
    ])
    def test_derivative_tensors_match_finite_differences(self, family, point):
        f = lambda x: _log_likelihood(family, x[0], x[1], SAMPLE)
        grad, hess, third = loglik_derivatives(family, *point, SAMPLE)
        hess_fd = fd_hessian(f, point, h=1e-4)
        assert np.allclose(hess, hess_fd, rtol=1e-5, atol=1e-8)
        hess_exact = lambda x: loglik_derivatives(family, x[0], x[1], SAMPLE)[1]
        third_fd = fd_third(hess_exact, point, h=1e-3)
        assert np.allclose(third, third_fd, rtol=1e-5, atol=1e-8)
        for perm in ((0, 1, 0), (1, 0, 0), (1, 1, 0)):
            i, j, k = perm
            assert third[i, j, k] == third[k, j, i] == third[j, i, k]

    def test_tensor_checks_at_random_interior_points(self):
        # acceptance-grade sweep: 50 random interior points, both families
        rng = np.random.default_rng(55)
        for trial in range(50):
            fam = Family.POISSON if trial % 2 == 0 else Family.GEOMETRIC
            theta = rng.uniform(0.4, 3.0) if fam is Family.POISSON else rng.uniform(0.2, 0.8)
            lo = -fam.f0(theta) / (1.0 - fam.f0(theta))
            p = rng.uniform(0.6 * lo, 0.85)
            f = lambda x: _log_likelihood(fam, x[0], x[1], SAMPLE,
                                          allow_boundary=True)
            _, hess, third = loglik_derivatives(fam, p, theta, SAMPLE)
            hess_fd = fd_hessian(f, (p, theta), h=1e-4)
            assert np.allclose(hess, hess_fd, rtol=1e-5, atol=1e-8)
            hess_exact = lambda x: loglik_derivatives(fam, x[0], x[1], SAMPLE)[1]
            third_fd = fd_third(hess_exact, (p, theta), h=1e-4)
            assert np.allclose(third, third_fd, rtol=1e-5, atol=1e-8)

    def test_info_inverse_consistency(self, uti):
        inputs = expansion_inputs(Family.POISSON, uti)
        assert np.allclose(inputs.info_inv @ -inputs.a2, np.eye(2), atol=1e-10)
        assert inputs.info_inv[0, 1] == pytest.approx(inputs.info_inv[1, 0])
        assert np.all(np.linalg.eigvalsh(inputs.info_inv) > 0)

    def test_prior_kinds_accepted(self, uti):
        for kind in PriorKind:
            inputs = expansion_inputs(Family.POISSON, uti, kind)
            assert inputs.prior_value > 0
            assert np.all(np.isfinite(inputs.prior_grad))

    def test_boundary_mle_rejected(self):
        with pytest.raises(DegenerateSampleError):
            expansion_inputs(Family.POISSON, CountSample({1: 5, 2: 3}))


class TestPosteriorTailExpansion:
    def test_center_without_corrections(self):
        value = posterior_tail_expansion(synthetic_inputs(), 0.0, 100)
        assert value == pytest.approx(0.5, abs=1e-14)

    def test_reduces_to_normal_leading_term(self):
        inputs = synthetic_inputs()
        for eta10 in (-0.3, -0.1, 0.05, 0.2):
            w = math.sqrt(100 / 2.0) * (eta10 - 0.0)
            assert posterior_tail_expansion(inputs, eta10, 100) == pytest.approx(
                stats.norm.cdf(w), abs=1e-14)

    def test_center_with_corrections(self):
        # at w = 0 the correction is -phi(0) (G1 - G3) / sqrt(n); the sign
        # makes a right-skewed posterior put less mass below its center
        inputs = synthetic_inputs(third_scale=0.3)
        i11 = inputs.info_inv[0, 0]
        m = inputs.m
        amm = float(np.einsum("ijk,i,j,k->", inputs.a3, m, m, m))
        akm = float(np.einsum("ijk,ij,k->", inputs.a3, inputs.K, m))
        g3 = amm * i11 ** 1.5 / 6.0
        g1 = 0.5 * akm * math.sqrt(i11) + 0.5 * amm * i11 ** 1.5
        n = 400
        expected = 0.5 - stats.norm.pdf(0.0) * (g1 - g3) / math.sqrt(n)
        assert posterior_tail_expansion(synthetic_inputs(third_scale=0.3),
                                        0.0, n) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("third_scale", [0.0, 0.3, 50.0])
    def test_matches_scipy_stats_normal_exactly(self, third_scale):
        inputs = synthetic_inputs(third_scale=third_scale)
        g1, g3 = _correction_terms(inputs)
        for n in (25, 100, 400):
            for eta10 in (-5.0, -0.3, -0.01, 0.0, 0.05, 0.2, 5.0):
                w = math.sqrt(n / 2.0) * eta10
                value = (stats.norm.cdf(w) - stats.norm.pdf(w)
                         * (g1 + g3 * (w * w - 1.0)) / math.sqrt(n))
                expected = float(min(max(value, 0.0), 1.0))
                assert posterior_tail_expansion(inputs, eta10, n) == expected

    def test_clipped_to_unit_interval(self):
        inputs = synthetic_inputs(third_scale=50.0)
        assert 0.0 <= posterior_tail_expansion(inputs, -5.0, 25) <= 1.0
        assert 0.0 <= posterior_tail_expansion(inputs, 5.0, 25) <= 1.0

    def test_improves_on_leading_term(self):
        # the order 1/sqrt(n) correction should beat the plain normal
        # approximation against the exact posterior in most replications
        rng = np.random.default_rng(5)
        model = ZipsModel(Family.POISSON, 1e-14, 1.5)
        better = total = 0
        while total < 200:
            cs = CountSample.from_values(sample_values(model, 200, rng))
            if cs.n0 in (0, cs.n) or cs.s == cs.n - cs.n0:
                continue
            inputs = expansion_inputs(Family.POISSON, cs)
            exact = 1.0 - posterior_prob_positive_factorized(Family.POISSON, cs)
            approx = posterior_tail_expansion(inputs, 0.0, cs.n)
            w = math.sqrt(cs.n / inputs.info_inv[0, 0]) * (0.0 - inputs.eta_hat[0])
            leading = stats.norm.cdf(w)
            total += 1
            if abs(approx - exact) < abs(leading - exact):
                better += 1
        assert better / total >= 0.70

    @pytest.mark.parametrize("prior", PriorKind, ids=lambda k: k.value)
    @pytest.mark.parametrize("family, theta", [(Family.POISSON, 1.5), (Family.GEOMETRIC, 0.5)],
                             ids=["poisson", "geometric"])
    def test_error_order_against_factorized_t(self, family, theta, prior):
        # the expansion is of order 1/sqrt(n), so its error falls as 1/n and
        # that of its normal term as 1/sqrt(n): log-log slopes of the median
        # error over null samples, against 1 - T from factorized T, both
        # under the one prior
        ns = (50, 200, 800, 3200, 12_800)
        errors = []
        for n in ns:
            expansion, normal = [], []
            for values, _, _, _ in _replications(family, 0.0, theta, n, 100, seed=1):
                cs = CountSample.from_values(values)
                try:
                    inputs = expansion_inputs(family, cs, prior)
                    exact = 1.0 - posterior_prob_positive_factorized(family, cs, prior)
                except ZicountError:
                    continue
                w = math.sqrt(n / inputs.info_inv[0, 0]) * (0.0 - inputs.eta_hat[0])
                expansion.append(abs(posterior_tail_expansion(inputs, 0.0, n) - exact))
                normal.append(abs(stats.norm.cdf(w) - exact))
            assert len(expansion) >= 90
            errors.append([np.median(expansion), np.median(normal)])
        slopes = np.polyfit(np.log(ns), np.log(errors), 1)[0]
        assert -1.15 <= slopes[0] <= -0.85
        assert -0.6 <= slopes[1] <= -0.4

    def test_input_validation(self):
        for n, message in ((0, "n must be at least 1, got 0"),
                           (math.nan, "n must be an integer, got nan"),
                           (True, "n must be an integer, got True"),
                           (2.5, "n must be an integer, got 2.5")):
            with pytest.raises(ValueError, match=message):
                posterior_tail_expansion(synthetic_inputs(), 0.0, n)
        for eta10 in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="eta10 must be finite"):
                posterior_tail_expansion(synthetic_inputs(), eta10, 100)


class TestUniformityCheck:
    def test_exact_mode_moments_at_moderate_scale(self):
        report = uniformity_check(Family.POISSON, 2.0, 200, reps=400, B=0, seed=3)
        assert report.moment1 == pytest.approx(0.5, abs=0.06)
        assert report.moment2 == pytest.approx(1.0 / 12.0, abs=0.02)
        assert report.ks_pvalue > 1e-4
        assert report.t_values.shape == (400,)

    def test_mc_mode_smoke(self):
        report = uniformity_check(Family.POISSON, 0.5, 30, reps=200, B=500, seed=4)
        assert 0.3 < report.moment1 < 0.7
        assert np.all((report.t_values >= 0) & (report.t_values <= 1))

    def test_ks_distance_shrinks_with_sample_size(self):
        distances = [uniformity_check(Family.POISSON, 2.0, n, reps=1500,
                                      B=0, seed=9).ks_distance
                     for n in (50, 200, 800)]
        # noisy downward trend: the largest n must not look worse than the
        # smallest beyond KS sampling noise at 1500 replications
        noise = 1.0 / math.sqrt(1500)
        assert distances[2] < distances[0] + noise
        assert min(distances) == distances[2] or distances[2] < distances[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            uniformity_check(Family.POISSON, 1.0, 100, reps=0)
        with pytest.raises(ValueError, match="reps must be an integer, got 2.5"):
            uniformity_check(Family.POISSON, 1.0, 100, reps=2.5)
        # B = 0 is factorized T and B > 0 the paper's sampler; no other B is a route
        for B, message in ((2.5, "B must be an integer, got 2.5"),
                           (True, "B must be an integer, got True"),
                           (-1, "B must be at least 0, got -1")):
            with pytest.raises(ValueError, match=message):
                uniformity_check(Family.POISSON, 1.0, 100, reps=10, B=B)

    def test_seed_validation(self):
        # uniformity_check and beta_calibration share the null simulation and
        # its seed check; None would draw OS entropy, a different T each call
        for seed, message in ((None, "seed must be an integer, got None"),
                              (1.5, "seed must be an integer, got 1.5"),
                              (True, "seed must be an integer, got True"),
                              (-1, "seed must be at least 0, got -1")):
            with pytest.raises(ValueError, match=message):
                uniformity_check(Family.POISSON, 1.0, 20, 50, seed=seed)
            with pytest.raises(ValueError, match=message):
                beta_calibration(Family.POISSON, 1.0, 20, 500, seed=seed)

    @pytest.mark.parametrize("family, theta, n", [
        (Family.POISSON, 1.0, 30), (Family.GEOMETRIC, 0.5, 60)])
    def test_factorized_t_once_per_distinct_statistic(self, monkeypatch,
                                                      family, theta, n):
        reps, seed = 400, 12
        batched = _factorized_t
        keys = []

        def counted(fam, n0, m, s):
            assert np.array_equal(m, n - n0)
            keys.extend(zip(n0.tolist(), s.tolist()))
            return batched(fam, n0, m, s)

        monkeypatch.setattr("zicount.asymptotics._factorized_t", counted)
        report = uniformity_check(family, theta, n, reps=reps, B=0, seed=seed)
        samples = [CountSample.from_values(values) for values, *_ in
                   _replications(family, 0.0, theta, n, reps, seed)]
        distinct = {(cs.n0, cs.s) for cs in samples}
        assert len(keys) == len(set(keys)) == len(distinct) < reps
        assert set(keys) == distinct
        expected = np.array([posterior_prob_positive_factorized(family, cs)
                             for cs in samples])
        assert np.array_equal(report.t_values, expected)
        # no cache outlives a call: the same call computes every T again
        again = uniformity_check(family, theta, n, reps=reps, B=0, seed=seed)
        assert len(keys) == 2 * len(distinct)
        assert np.array_equal(again.t_values, expected)

    @pytest.mark.parametrize("family, theta", [(Family.POISSON, 0.5), (Family.GEOMETRIC, 0.5)],
                             ids=["poisson", "geometric"])
    def test_mc_mode_seeds_each_replication_from_its_bayes_child(self, family, theta):
        # replication rep draws its data from child (rep, 0) and its Monte
        # Carlo T from child (rep, 1) of the seed, as a power cell does
        report = uniformity_check(family, theta, 30, reps=60, B=300, seed=4)
        expected = []
        for values, _, rep, _ in _replications(family, 0.0, theta, 30, 60, 4):
            bayes_seed = np.random.SeedSequence(4, spawn_key=(rep, 1)).generate_state(1)[0]
            expected.append(posterior_prob_positive(family, CountSample.from_values(values),
                                                    B=300, seed=int(bayes_seed)).value)
        assert np.array_equal(report.t_values, expected)


class TestBetaCalibration:
    def test_uniform_moments_give_unit_parameters(self):
        fit = beta_moment_fit(0.5, 1.0 / 12.0)
        assert fit is not None
        assert fit[0] == pytest.approx(1.0, abs=1e-12)
        assert fit[1] == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_moments(self):
        assert beta_moment_fit(0.5, 0.3) is None

    def test_near_uniform_at_moderate_n(self):
        cal = beta_calibration(Family.POISSON, 1.0, 50, reps=1500, B=0, seed=6)
        assert abs(cal.alpha_hat - 1.0) < 0.25
        assert abs(cal.beta_hat - 1.0) < 0.25
        cutoff = cal.cutoff(0.05)
        assert 0.9 < cutoff < 0.99

    def test_cutoff_matches_scipy_stats_beta_exactly(self):
        rng = np.random.default_rng(11)
        for a, b in zip(rng.uniform(0.3, 3.0, 200), rng.uniform(0.3, 3.0, 200)):
            cal = BetaCalibration(float(a), float(b), 50, Family.POISSON, 1.0)
            for alpha in (0.1, 0.05, 0.01, 0.001):
                assert cal.cutoff(alpha) == float(stats.beta.ppf(1.0 - alpha, a, b))

    def test_approaches_uniform_as_n_grows(self):
        small = beta_calibration(Family.POISSON, 1.0, 50, reps=2500, B=0, seed=7)
        large = beta_calibration(Family.POISSON, 1.0, 400, reps=2500, B=0, seed=7)
        dev_small = abs(small.alpha_hat - 1.0) + abs(small.beta_hat - 1.0)
        dev_large = abs(large.alpha_hat - 1.0) + abs(large.beta_hat - 1.0)
        assert dev_large < dev_small + 0.05

    def test_rep_validation(self):
        with pytest.raises(ValueError):
            beta_calibration(Family.POISSON, 1.0, 50, reps=100)

    def test_sample_size_validation(self):
        # uniformity_check and beta_calibration share the null simulation,
        # and with it its checks
        for n in (1, 0):
            with pytest.raises(ValueError, match=f"n must be at least 2, got {n}"):
                beta_calibration(Family.POISSON, 1.0, n, 500, seed=1)
            with pytest.raises(ValueError, match=f"n must be at least 2, got {n}"):
                uniformity_check(Family.POISSON, 1.0, n, 500, seed=1)
        with pytest.raises(ValueError, match="reps must be an integer, got 600.5"):
            beta_calibration(Family.POISSON, 1.0, 50, reps=600.5, seed=1)
        for B, message in ((2.5, "B must be an integer, got 2.5"),
                           (True, "B must be an integer, got True"),
                           (-1, "B must be at least 0, got -1")):
            with pytest.raises(ValueError, match=message):
                beta_calibration(Family.POISSON, 1.0, 50, 500, B=B, seed=1)

    def test_calibrated_cutoff_holds_level(self):
        # null rejection rates with the calibrated cutoff stay near alpha
        # across the (theta, n) grid
        alpha = 0.05
        for theta in (0.5, 1.0, 1.5, 2.0):
            for n in (20, 50, 100):
                cal = beta_calibration(Family.POISSON, theta, n,
                                       reps=3000, B=0, seed=1000 + n)
                cutoff = cal.cutoff(alpha)
                report = uniformity_check(Family.POISSON, theta, n,
                                          reps=4000, B=0, seed=2000 + n)
                rate = float(np.mean(report.t_values > cutoff))
                assert alpha - 0.012 <= rate <= alpha + 0.012, (theta, n, rate)
