import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from zicount import (CountSample, Family, Parametrization, ParameterRangeError,
                     ZipsModel, fisher_info, fisher_info_orthogonal, from_pstar,
                     grad_log_prior, log_likelihood, log_pmf, log_prior,
                     loglik_derivatives, p_lower, pmf, prior_density, sample,
                     sample_values, to_pstar)
from zicount.distributions import _log_likelihood, _newton, _poisson_tail_bound
from zicount.errors import QuadratureError

from conftest import fd_hessian


def random_models(count, seed=0, include_negative=True):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        fam = Family.POISSON if rng.random() < 0.5 else Family.GEOMETRIC
        theta = rng.uniform(0.1, 6.0) if fam is Family.POISSON else rng.uniform(0.05, 0.9)
        lo = p_lower(fam, theta)
        p_min = 0.9 * lo if include_negative else 0.0
        p = rng.uniform(p_min, 0.95)
        out.append(ZipsModel(fam, p, theta))
    return out


class TestPmf:
    def test_poisson_reduces_at_zero_weight(self):
        model = ZipsModel(Family.POISSON, 0.0, 1.0)
        assert pmf(model, 0) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_poisson_half_weight(self):
        model = ZipsModel(Family.POISSON, 0.5, 1.0)
        assert pmf(model, 0) == pytest.approx(0.5 + 0.5 * math.exp(-1.0), abs=1e-12)

    def test_geometric_negative_weight(self):
        model = ZipsModel(Family.GEOMETRIC, -0.2, 0.5)
        assert pmf(model, 0) == pytest.approx(0.4, abs=1e-12)
        # partial sums approach one from below
        ys = np.arange(0, 60)
        partial = np.cumsum(np.exp(log_pmf(model, ys)))
        assert partial[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(partial) >= 0)
        assert np.all(partial <= 1.0 + 1e-12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterRangeError):
            ZipsModel(Family.POISSON, 1.0, 1.0)
        with pytest.raises(ParameterRangeError):
            ZipsModel(Family.POISSON, -2.0, 1.0)
        with pytest.raises(ParameterRangeError):
            ZipsModel(Family.GEOMETRIC, 0.1, 1.5)
        with pytest.raises(ParameterRangeError):
            ZipsModel(Family.POISSON, 0.1, -1.0)

    def test_boundary_margin(self):
        lo = p_lower(Family.GEOMETRIC, 0.5)  # exactly -1
        with pytest.raises(ParameterRangeError):
            ZipsModel(Family.GEOMETRIC, lo + 1e-14, 0.5)
        ZipsModel(Family.GEOMETRIC, lo + 1e-9, 0.5)  # inside the margin

    def test_zero_weight_valid_at_large_theta(self):
        # the margin must not swallow p = 0 when the lower endpoint is tiny
        ZipsModel(Family.POISSON, 0.0, 30.0)

    def test_negative_y_rejected(self):
        model = ZipsModel(Family.POISSON, 0.1, 1.0)
        with pytest.raises(ValueError):
            pmf(model, -1)

    @pytest.mark.parametrize("y", [10**30, [1, 2**63], 2.0**63, math.inf],
                             ids=["int-1e30", "list-2**63", "float-2**63", "inf"])
    def test_y_beyond_int64_rejected(self, y):
        model = ZipsModel(Family.POISSON, 0.1, 1.0)
        with pytest.raises(ValueError, match="below 2\\*\\*63"):
            log_pmf(model, y)
        assert np.isfinite(log_pmf(model, 2**63 - 1))


# every function that takes (p, theta), or pstar and theta, as a list of the
# numbers it returns at p, theta, their pstar and a sample
_DOMAIN_ROUTES = {
    "log_prior": lambda fam, p, theta, pstar, cs: [log_prior(fam, p, theta)],
    "prior_density": lambda fam, p, theta, pstar, cs: [prior_density(fam, p, theta)],
    "grad_log_prior": lambda fam, p, theta, pstar, cs: grad_log_prior(fam, p, theta),
    "loglik_derivatives": lambda fam, p, theta, pstar, cs: np.concatenate(
        [np.ravel(d) for d in loglik_derivatives(fam, p, theta, cs)]),
    "_log_likelihood": lambda fam, p, theta, pstar, cs: [_log_likelihood(fam, p, theta, cs)],
    "from_pstar": lambda fam, p, theta, pstar, cs: [from_pstar(fam, pstar, theta).p],
    "fisher_info_orthogonal": lambda fam, p, theta, pstar, cs: np.ravel(
        fisher_info_orthogonal(fam, pstar, theta).matrix()),
}

# (p, theta) outside the model's open range and inside it; the weights sit
# at theta = 0.5
_OFF_RANGE = {
    "p=lo": lambda fam: (p_lower(fam, 0.5), 0.5),
    "p=lo-1": lambda fam: (p_lower(fam, 0.5) - 1.0, 0.5),
    "p=1": lambda fam: (1.0, 0.5),
    "p=1.5": lambda fam: (1.5, 0.5),
    "p=nan": lambda fam: (math.nan, 0.5),
    "theta=nan": lambda fam: (0.2, math.nan),
    "theta=-1": lambda fam: (0.2, -1.0),
    "theta=0": lambda fam: (0.2, 0.0),
    "theta=max": lambda fam: (0.2, fam._series.theta_max),
}
_INTERIOR = {
    "p=lo/2": lambda fam: (0.5 * p_lower(fam, 0.5), 0.5),
    "p=0": lambda fam: (0.0, 0.5),
    "p=0.9": lambda fam: (0.9, 0.5),
}


class TestModelDomain:
    @pytest.mark.parametrize("point", [*_OFF_RANGE, *_INTERIOR])
    @pytest.mark.parametrize("route", _DOMAIN_ROUTES)
    @pytest.mark.parametrize("family", list(Family))
    def test_accepts_exactly_the_model_range(self, family, route, point):
        p, theta = {**_OFF_RANGE, **_INTERIOR}[point](family)
        f0 = float(family.f0(theta))
        args = family, p, theta, f0 + p * (1.0 - f0), CountSample({0: 3, 1: 2, 4: 1})
        if point in _INTERIOR:
            assert np.all(np.isfinite(np.asarray(_DOMAIN_ROUTES[route](*args), dtype=float)))
        else:
            with pytest.raises(ParameterRangeError), np.errstate(all="ignore"):
                _DOMAIN_ROUTES[route](*args)


class TestPLower:
    def test_poisson_log2(self):
        assert p_lower(Family.POISSON, math.log(2.0)) == pytest.approx(-1.0, abs=1e-12)

    def test_geometric_half(self):
        assert p_lower(Family.GEOMETRIC, 0.5) == pytest.approx(-1.0, abs=1e-12)

    def test_approaches_zero_from_below(self):
        values = [p_lower(Family.POISSON, t) for t in (2.0, 5.0, 10.0, 20.0)]
        assert all(v < 0 for v in values)
        assert values == sorted(values)  # increasing toward zero
        assert values[-1] > -1e-8

    def test_domain_error(self):
        with pytest.raises(ParameterRangeError):
            p_lower(Family.POISSON, 0.0)
        with pytest.raises(ParameterRangeError):
            p_lower(Family.GEOMETRIC, 1.0)


class TestLogLikelihood:
    def test_matches_poisson_at_null(self, uti):
        model = ZipsModel(Family.POISSON, 1e-13, uti.ybar)
        expected = sum(c * stats.poisson.logpmf(v, uti.ybar)
                       for v, c in uti.items())
        assert log_likelihood(model, uti) == pytest.approx(expected, abs=1e-7)

    def test_mle_dominates_null_on_grid(self, uti):
        # brute-force check that the reported MLE value beats a (p, theta) grid
        at_mle = _log_likelihood(Family.POISSON, 0.7116, 0.9198, uti)
        null = _log_likelihood(Family.POISSON, 1e-13, uti.ybar, uti)
        assert at_mle > null
        best = -np.inf
        for p in np.linspace(-0.3, 0.95, 120):
            for theta in np.linspace(0.1, 3.0, 120):
                lo = p_lower(Family.POISSON, theta)
                if p <= lo + 1e-6:
                    continue
                best = max(best, _log_likelihood(Family.POISSON, p, theta, uti))
        assert at_mle >= best - 1e-6

    def test_all_zero_sample(self):
        all_zero = CountSample({0: 12})
        for model in (ZipsModel(Family.POISSON, 0.3, 1.2),
                      ZipsModel(Family.GEOMETRIC, -0.1, 0.4)):
            expected = 12 * math.log(model.pzero)
            assert log_likelihood(model, all_zero) == pytest.approx(expected, rel=1e-12)

    def test_boundary_weight_returns_neg_inf_with_zeros(self):
        lo = p_lower(Family.POISSON, 1.0)
        value = _log_likelihood(Family.POISSON, lo, 1.0, CountSample({0: 3, 1: 2}),
                                allow_boundary=True)
        assert value == -math.inf


class TestNormalizationAndMean:
    def test_pmf_normalizes_over_200_random_models(self):
        for model in random_models(200, seed=42):
            upper = model.support_bound(1e-12)
            total = np.exp(log_pmf(model, np.arange(upper + 1))).sum()
            assert total == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("eps", [0.0, -1.0, 1.0, 1.5, math.nan])
    def test_support_bound_rejects_eps_outside_zero_one(self, eps):
        with pytest.raises(ParameterRangeError, match="eps="):
            ZipsModel(Family.POISSON, 0.2, 1.0).support_bound(eps)

    @pytest.mark.parametrize("family", list(Family))
    def test_support_bound_when_the_positive_mass_is_below_eps(self, family):
        # 1 - p = 0.01 < eps: no tail beyond zero reaches eps
        assert ZipsModel(family, 0.99, 0.5).support_bound(0.5) == 10

    def test_mean_identity(self):
        for model in random_models(60, seed=7):
            upper = model.support_bound(1e-16)
            ys = np.arange(upper + 1)
            mean = float((ys * np.exp(log_pmf(model, ys))).sum())
            assert mean == pytest.approx(model.mean(), abs=1e-8)

    @pytest.mark.parametrize("eps", [1e-3, 1e-9, 1e-12, 1e-16])
    def test_poisson_tail_bound_matches_scipy_stats_isf(self, eps):
        # the pdtrik/pdtr rule is scipy.stats' own poisson.isf, bit for bit
        thetas = np.exp(np.random.default_rng(3).uniform(
            math.log(1e-6), math.log(700.0), 400))
        for theta in (*thetas, 1e-6, 0.5, 1.0, 700.0):
            expected = int(stats.poisson.isf(eps, theta)) + 2
            assert _poisson_tail_bound(float(theta), eps) == expected


class TestFisherInformation:
    def test_poisson_entries_at_zero_weight(self):
        theta = 2.0
        info = fisher_info(ZipsModel(Family.POISSON, 1e-15, theta))
        e = math.exp(-theta)
        assert info.i11 == pytest.approx((1.0 - e) / e, rel=1e-9)
        assert info.i12 == pytest.approx(-1.0, rel=1e-9)
        assert info.i22 == pytest.approx(1.0 / theta, rel=1e-9)

    def test_geometric_entries_at_zero_weight(self):
        info = fisher_info(ZipsModel(Family.GEOMETRIC, 1e-15, 0.5))
        assert info.i11 == pytest.approx(1.0, rel=1e-9)
        assert info.i12 == pytest.approx(-2.0, rel=1e-9)

    def test_matches_expected_loglik_hessian(self):
        # oracle: Hessian of E[log f(Y | p', theta')] at the true parameters,
        # expectation summed over the (truncated) support
        model = ZipsModel(Family.POISSON, 0.3, 1.5)
        upper = model.support_bound(1e-14)
        ys = np.arange(upper + 1)
        probs = np.exp(log_pmf(model, ys))

        def expected_loglik(x):
            total = 0.0
            for y, pr in zip(ys, probs):
                total += pr * _log_likelihood(Family.POISSON, x[0], x[1],
                                              CountSample({int(y): 1}))
            return total

        hess = fd_hessian(expected_loglik, [model.p, model.theta], h=2e-3)
        analytic = fisher_info(model).matrix()
        assert np.allclose(-hess, analytic, atol=1e-6)

    def test_matches_score_outer_product(self):
        for model in random_models(10, seed=3):
            upper = model.support_bound(1e-16)
            ys = np.arange(upper + 1)
            probs = np.exp(log_pmf(model, ys))
            total = np.zeros((2, 2))
            for y, pr in zip(ys, probs):
                score, _, _ = loglik_derivatives(model.family, model.p, model.theta,
                                                 CountSample({int(y): 1}))
                total += pr * np.outer(score, score)
            assert np.allclose(total, fisher_info(model).matrix(), atol=1e-6)

    @pytest.mark.parametrize("theta", [1e-10, 1e-6, 1e-3])
    def test_poisson_truncated_information_at_small_theta(self, theta):
        # (1 - e^-t - t e^-t) / (t (1 - e^-t)^2) from the Taylor series of
        # numerator and denominator; at t = 1e-3 twelve terms reach 1e-36
        sign = lambda k: -1.0 if k % 2 else 1.0
        num = sum(sign(k) * (k - 1) * theta ** k / math.factorial(k)
                  for k in range(2, 14))
        om = sum(-sign(k) * theta ** k / math.factorial(k) for k in range(1, 14))
        got = float(Family.POISSON._series.trunc_info(theta, theta))  # log c = theta
        assert got == pytest.approx(num / (theta * om * om), rel=1e-12)

    def test_positive_definite_in_the_interior(self):
        for model in random_models(50, seed=9):
            info = fisher_info(model)
            assert info.i11 > 0
            assert info.det() > 0
            assert info.parametrization is Parametrization.P_THETA


class TestOrthogonalReparametrization:
    def test_pstar_at_zero_weight(self):
        model = ZipsModel(Family.POISSON, 1e-15, 1.7)
        pstar, _ = to_pstar(model)
        assert pstar == pytest.approx(math.exp(-1.7), rel=1e-9)

    def test_roundtrip(self):
        for model in random_models(50, seed=21):
            pstar, theta = to_pstar(model)
            back = from_pstar(model.family, pstar, theta)
            assert back.p == pytest.approx(model.p, abs=1e-12)
            assert back.theta == model.theta

    def test_sign_correspondence(self):
        for model in random_models(50, seed=22):
            pstar, theta = to_pstar(model)
            f0 = model.family.f0(theta)
            assert (model.p > 0) == (pstar > f0)

    def test_example_value(self):
        pstar, _ = to_pstar(ZipsModel(Family.POISSON, 0.5, 1.0))
        assert pstar == pytest.approx(0.68394, abs=5e-6)
        assert from_pstar(Family.POISSON, pstar, 1.0).p == pytest.approx(0.5, abs=1e-12)

    def test_diagonal_i11(self):
        info = fisher_info_orthogonal(Family.POISSON, 0.5, 1.0)
        assert info.i12 == 0.0
        assert info.i11 == pytest.approx(4.0, abs=1e-12)

    def test_poisson_i22_closed_form(self):
        theta = 1.0
        info = fisher_info_orthogonal(Family.POISSON, 0.3, theta)
        e = math.exp(-theta)
        expected = (1.0 - e - theta * e) * 0.7 / (theta * (1.0 - e) ** 2)
        assert info.i22 == pytest.approx(expected, rel=1e-12)

    def test_jacobian_transform_agrees(self):
        # oracle: change of variables of the (p, theta) information matrix
        rng = np.random.default_rng(17)
        for _ in range(30):
            fam = Family.POISSON if rng.random() < 0.5 else Family.GEOMETRIC
            theta = rng.uniform(0.3, 4.0) if fam is Family.POISSON else rng.uniform(0.1, 0.9)
            pstar = rng.uniform(0.05, 0.95)
            f0 = fam.f0(theta)
            p = (pstar - f0) / (1.0 - f0)
            base = fisher_info(ZipsModel(fam, p, theta)).matrix()
            df0 = -math.exp(-theta) if fam is Family.POISSON else -1.0
            jac = np.array([[1.0 / (1.0 - f0),
                             -df0 * (1.0 - pstar) / (1.0 - f0) ** 2],
                            [0.0, 1.0]])
            transformed = jac.T @ base @ jac
            direct = fisher_info_orthogonal(fam, pstar, theta)
            assert abs(transformed[0, 1]) < 1e-8
            assert np.allclose(transformed, direct.matrix(), atol=1e-8)


class TestSampling:
    def test_high_weight_mostly_zero(self):
        model = ZipsModel(Family.POISSON, 1.0 - 1e-6, 2.0)
        cs = sample(model, 2000, rng_seed=0)
        assert cs.n0 == cs.n

    def test_poisson_zero_frequency(self):
        model = ZipsModel(Family.POISSON, 0.3, 2.0)
        n = 1_000_000
        cs = sample(model, n, rng_seed=5)
        target = 0.3 + 0.7 * math.exp(-2.0)
        se = math.sqrt(target * (1.0 - target) / n)
        assert abs(cs.n0 / cs.n - target) < 3.0 * se

    def test_geometric_negative_weight_pmf(self):
        model = ZipsModel(Family.GEOMETRIC, -0.3, 0.6)
        n = 1_000_000
        cs = sample(model, n, rng_seed=6)
        for y in (0, 1, 2):
            target = pmf(model, y)
            se = math.sqrt(target * (1.0 - target) / n)
            observed = cs.freq.get(y, 0) / n
            assert abs(observed - target) < 3.0 * se

    @pytest.mark.parametrize("family,p,theta", [
        (Family.POISSON, 0.3, 2.0),
        (Family.POISSON, -0.2, 1.0),
        (Family.GEOMETRIC, 0.4, 0.5),
        (Family.GEOMETRIC, -0.3, 0.6),
    ])
    def test_chi_square_goodness_of_fit(self, family, p, theta):
        model = ZipsModel(family, p, theta)
        n = 100_000
        cs = sample(model, n, rng_seed=123)
        upper = model.support_bound(1e-9)
        expected = np.exp(log_pmf(model, np.arange(upper + 1))) * n
        observed = np.array([cs.freq.get(y, 0) for y in range(upper + 1)], float)
        # merge the tail so expected cell counts stay above five
        while expected[-1] < 5.0 and len(expected) > 2:
            expected[-2] += expected[-1]
            observed[-2] += observed[-1]
            expected, observed = expected[:-1], observed[:-1]
        observed[-1] += n - observed.sum()
        expected[-1] += n - expected.sum()
        result = stats.chisquare(observed, expected)
        assert result.pvalue > 1e-3

    @pytest.mark.parametrize("n", [-1, 0, 2.5, "3"])
    def test_sample_size_must_be_a_positive_integer(self, n):
        model = ZipsModel(Family.POISSON, -0.1, 1.0)
        with pytest.raises(ValueError, match="n must be a positive integer"):
            sample_values(model, n, np.random.default_rng(0))
        with pytest.raises(ValueError, match="n must be a positive integer"):
            sample(model, n, 0)

    def test_seed_determinism(self):
        model = ZipsModel(Family.POISSON, -0.1, 1.0)
        assert sample(model, 500, rng_seed=9) == sample(model, 500, rng_seed=9)
        assert sample(model, 500, rng_seed=9) != sample(model, 500, rng_seed=10)
        assert sample(model, 500, np.random.default_rng(9)) == sample(model, 500, rng_seed=9)

    def test_seed_validation(self):
        model = ZipsModel(Family.POISSON, 0.2, 1.0)
        for seed, message in ((None, "rng_seed must be an integer, got None"),
                              (1.5, "rng_seed must be an integer, got 1.5"),
                              (True, "rng_seed must be an integer, got True"),
                              (-1, "rng_seed must be at least 0, got -1")):
            with pytest.raises(ValueError, match=message):
                sample(model, 10, seed)


class TestCountSample:
    def test_sufficient_statistics(self, uti):
        assert (uti.n, uti.n0, uti.s) == (98, 81, 26)
        assert uti.ybar == pytest.approx(26 / 98)

    def test_from_values(self):
        cs = CountSample.from_values([0, 0, 1, 3, 1])
        assert cs.freq == {0: 2, 1: 2, 3: 1}
        assert (cs.n, cs.n0, cs.s) == (5, 2, 5)

    def test_from_values_rejects_non_integers(self):
        with pytest.raises(ValueError, match="non-integer entry"):
            CountSample.from_values([0.5, 1.7, 2.2])
        with pytest.raises(ValueError, match="non-integer entry"):
            CountSample.from_values(np.array([0.0, 2.0, np.nan]))
        cs = CountSample.from_values(np.array([0.0, 2.0, 2.0]))
        assert cs.freq == {0: 1, 2: 2}

    def test_from_values_tabulates_dense_and_sparse_counts_alike(self):
        # the dict comes in increasing order however far apart the counts are
        rng = np.random.default_rng(4)
        for size, top in ((50, 10), (50, 199), (50, 201), (5, 10**12)):
            values = rng.integers(0, top + 1, size)
            freq = CountSample.from_values(values).freq
            assert list(freq.items()) == sorted(Counter(values.tolist()).items())
        for values in ([3, -1, 2], [3, -1, 100]):
            with pytest.raises(ValueError, match="^negative count value -1$"):
                CountSample.from_values(values)
        for values in ([[0, 1], [2, 3]], [[0, 1], [2, 10**12]], 3):
            with pytest.raises(ValueError, match="^raw counts must be 1-d"):
                CountSample.from_values(values)

    def test_counts_beyond_int64_are_rejected_naming_the_count(self):
        assert CountSample.from_values([0, 2**63 - 1]).s == 2**63 - 1
        assert CountSample({2**63 - 1: 1}).s == 2**63 - 1
        for big in (2**63, 10**20):
            for make in (lambda: CountSample({1: 1, big: 1}),
                         lambda: CountSample.from_values([1, big]),
                         lambda: CountSample.from_values(np.array([1, big], dtype=object))):
                with pytest.raises(ValueError, match=f"count value {big} "):
                    make()
        with pytest.raises(ValueError, match="count value 9223372036854775808 "):
            CountSample.from_values(np.array([1.0, 2.0**63]))

    def test_from_values_memory_does_not_grow_with_the_largest_count(self):
        tracemalloc.start()
        try:
            sample = CountSample.from_values([1, 3_000_000_000])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample.freq == {1: 1, 3_000_000_000: 1}
        assert peak < 1 << 20

    def test_validation(self):
        with pytest.raises(ValueError):
            CountSample({})
        with pytest.raises(ValueError):
            CountSample({-1: 2})
        with pytest.raises(ValueError):
            CountSample({1: 0})
        with pytest.raises(ValueError):
            CountSample({0.5: 1})

    def test_hash_and_equality(self):
        a = CountSample({0: 2, 1: 1})
        b = CountSample({1: 1, 0: 2})
        assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_record_entries_give_one_value_per_element(family):
    """Every elementwise entry of the family record gives the same bits for
    a float, a 0-d array and the same value inside an array, so a row
    computed alone equals that row in a batch."""
    series, size = family._series, 2000
    rng = np.random.default_rng(23)
    theta = (np.exp(rng.uniform(-12.0, 7.0, size)) if family is Family.POISSON
             else rng.uniform(1e-6, 1.0 - 1e-6, size))
    log_c = series.log_c(theta)
    args = {"f0": (theta,), "f0_derivs": (theta,), "log_c": (theta,),
            "log_c_derivs": (theta,), "mean": (theta,),
            "theta_from_mean": (series.mean(theta),),
            "trunc_info": (theta, log_c), "dlog_trunc_info": (theta, log_c),
            "log_jeffreys": (theta, log_c), "dlog_jeffreys": (theta, log_c),
            "coord_point": (rng.uniform(-30.0, 30.0, size),),
            "coord_from_log_c": (log_c,)}

    def parts(out):  # each output, as float64 over the batch's elements
        return [np.broadcast_to(np.asarray(part, dtype=float), (size,))
                for part in (out if isinstance(out, tuple) else (out,))]

    for name, arrays in args.items():
        entry = getattr(series, name)
        whole = np.stack(parts(entry(*arrays)))
        for convert in (float, np.array):
            alone = np.array([np.stack(parts(entry(*(convert(a[i]) for a in arrays))))[:, 0]
                              for i in range(size)]).T
            mismatch = np.flatnonzero((alone.view(np.int64) != whole.view(np.int64)).any(axis=0))
            assert mismatch.size == 0, (name, convert.__name__, theta[mismatch[:3]])


def _newton_rows(root, kind):
    """A decreasing ``fun(x, rows)`` for ``_newton`` over rows with roots
    ``root``, counting its calls per row in ``calls``.  Kind 0 is the line
    ``root - x`` (one Newton step), kind 1 is ``tanh(root - x)``, whose first
    Newton step from three units off overshoots by about a hundred and the
    next leaves the bracket (bisection), and kind 2 is the line with no
    slope, so that an open side is stepped by doubling lengths."""
    calls = np.zeros(root.size, dtype=int)

    def fun(x, rows):
        calls[rows] += 1
        r, k = root[rows], kind[rows]
        val = np.where(k == 1, np.tanh(r - x), r - x)
        slope = np.where(k == 0, -1.0, np.where(k == 1, np.tanh(r - x) ** 2 - 1.0, math.nan))
        return val, slope

    return fun, calls


class TestNewton:
    rng = np.random.default_rng(11)
    kind = np.tile([0, 1, 2], 7)
    root = rng.uniform(-4.0, 4.0, kind.size)
    start = root - np.where(kind == 1, 3.0, rng.uniform(-6.0, 6.0, kind.size))
    tol = np.where(kind == 2, 1e-9, 1e-6)

    def test_rows_equal_one_row_solves(self):
        fun, calls = _newton_rows(self.root, self.kind)
        roots = _newton(fun, self.start, self.tol)
        assert np.abs(roots - self.root).max() < 1e-8
        # every kind takes several calls, and kind 2 the doubling steps
        assert calls.min() >= 2 and calls[self.kind == 2].min() >= 6
        for i in range(self.root.size):
            one, one_calls = _newton_rows(self.root[i:i + 1], self.kind[i:i + 1])
            assert _newton(one, self.start[i:i + 1], self.tol[i:i + 1])[0] == roots[i]
            assert one_calls[0] == calls[i]

    def test_bounds_and_ftol_per_row(self):
        root, kind = np.array([1.0, 1.0, 1.1, 2.3]), np.array([0, 0, 2, 2])
        fun, calls = _newton_rows(root, kind)
        ftol = np.array([0.0, 0.75, 0.0, 0.0])
        roots = _newton(fun, np.array([0.5, 0.5, 0.5, 3.0]), 1e-10,
                        lo=np.array([-np.inf, -np.inf, 0.0, 2.0]),
                        hi=np.array([np.inf, np.inf, 1.5, 4.0]), ftol=ftol)
        # |fun| at the start is 0.5, within the second row's ftol only
        assert roots[1] == 0.5 and calls[1] == 1
        assert roots[0] == 1.0 and calls[0] == 2
        # bisection of the given brackets
        assert abs(roots[2] - 1.1) < 1e-9 and abs(roots[3] - 2.3) < 1e-9
        assert calls[2] > 20 and calls[3] > 20

    def test_a_row_that_does_not_converge_raises(self):
        root, kind = np.array([0.0, 1.0, math.nan]), np.array([0, 1, 0])
        fun, _ = _newton_rows(root, kind)
        with pytest.raises(QuadratureError, match="1 of 3 rows"):
            _newton(fun, np.zeros(3), 1e-8)

    def test_shape_and_empty(self):
        fun, _ = _newton_rows(np.arange(6.0), np.zeros(6, dtype=int))
        roots = _newton(fun, np.zeros((2, 3)), 1e-8)
        assert roots.shape == (2, 3) and np.array_equal(roots.ravel(), np.arange(6.0))
        assert _newton(fun, np.empty(0), 1e-8).shape == (0,)
