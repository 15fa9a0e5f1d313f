import math
import warnings

import numpy as np
import pytest

from zicount import (CellResult, CountSample, DegenerateSampleError, Family, Method,
                     MissingCellError, PowerConfig, PowerGrid,
                     REFERENCE_POWER_ONE_SIDED, REFERENCE_POWER_TWO_SIDED,
                     compare_tables, posterior_prob_positive, run_power_study,
                     uniformity_check)
from zicount.distributions import ZipsModel, sample_values
from zicount.frequentist import _alpha_cutoffs, _lr_statistic_stats, _score_statistic
from zicount.power import SEED_BLOCK, _rep_rngs, _replication_table, _replications

ALL_METHODS = (Method.SCORE_ONE, Method.SCORE_TWO, Method.BAYES,
               Method.LR_ONE, Method.LR_TWO)


def small_grid(**overrides):
    base = dict(thetas=(1.0,), ps=(0.0, 0.3), ns=(50,), reps=200, draws=400,
                seed=5, methods=(Method.SCORE_ONE, Method.BAYES, Method.LR_ONE))
    base.update(overrides)
    return PowerConfig(**base)


class TestRunPowerStudy:
    def test_deterministic_across_worker_counts(self):
        config = small_grid()
        sequential = run_power_study(config, n_jobs=1)
        parallel = run_power_study(config, n_jobs=2)
        assert sequential.cells == parallel.cells
        assert sequential.redraws == parallel.redraws

    def test_progress_with_workers(self, capsys):
        config = small_grid(ps=(0.0, 0.3), reps=100, draws=200,
                            methods=(Method.SCORE_ONE, Method.LR_ONE))
        parallel = run_power_study(config, n_jobs=2, progress=True)
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all(line.strip().startswith("done theta=") for line in lines)
        assert {line.rsplit(" ", 1)[1] for line in lines} == {"[1/2]", "[2/2]"}
        sequential = run_power_study(config, n_jobs=1)
        assert parallel.cells == sequential.cells
        assert parallel.redraws == sequential.redraws

    def test_deterministic_given_seed(self):
        config = small_grid()
        assert run_power_study(config).cells == run_power_study(config).cells

    def test_redraw_accounting(self):
        # nearly saturated zero inflation at tiny n forces all-zero redraws
        config = PowerConfig(thetas=(0.5,), ps=(0.9,), ns=(10,), reps=150,
                             draws=200, seed=6, methods=(Method.SCORE_ONE,))
        grid = run_power_study(config)
        assert grid.redraws[(0.5, 0.9, 10)] > 0

    def test_persistent_redraws_raise_one_error_on_both_simulations(self):
        # at theta = 1e-4 and n = 2 a sample is all zero with probability 0.9998
        config = PowerConfig(thetas=(1e-4,), ps=(0.0,), ns=(2,), reps=100,
                             seed=1, methods=(Method.SCORE_ONE,))
        with pytest.raises(DegenerateSampleError) as power_err:
            run_power_study(config)
        with pytest.raises(DegenerateSampleError) as null_err:
            uniformity_check(Family.POISSON, 1e-4, 2, reps=10, seed=1)
        assert str(power_err.value) == str(null_err.value) == (
            "all-zero samples persisted for 100 redraws at theta=0.0001, p=0.0, n=2")

    def test_validation(self):
        with pytest.raises(ValueError):
            run_power_study(small_grid(reps=50))
        with pytest.raises(ValueError):
            run_power_study(PowerConfig(thetas=(), ps=(0.1,), ns=(50,)))

    @pytest.mark.parametrize("overrides, message", [
        (dict(ns=(50, 1)), "ns entry must be at least 2, got 1"),
        (dict(ns=(20.0,)), "ns entry must be an integer, got 20.0"),
        (dict(alpha=0.0), "alpha must lie strictly between 0 and 1, got 0.0"),
        (dict(alpha=1.5), "alpha must lie strictly between 0 and 1, got 1.5"),
        (dict(alpha=math.nan), "alpha must lie strictly between 0 and 1, got nan"),
        (dict(reps=1000.0), "reps must be an integer, got 1000.0"),
        (dict(draws=10.5), "draws must be an integer, got 10.5"),
        (dict(draws=True), "draws must be an integer, got True"),
    ], ids=["n-one", "n-float", "alpha-zero", "alpha-above-one", "alpha-nan",
            "reps-float", "draws-float", "draws-bool"])
    def test_config_rejects_bad_sample_size_and_level(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            small_grid(**overrides)

    def test_config_takes_methods_by_their_values(self):
        by_value = small_grid(methods=("score1", "bayes"))
        assert by_value.methods == (Method.SCORE_ONE, Method.BAYES)
        assert run_power_study(by_value).cells == run_power_study(
            small_grid(methods=(Method.SCORE_ONE, Method.BAYES))).cells
        with pytest.raises(ValueError, match="'score' is not a valid Method"):
            small_grid(methods=("score",))

    def test_config_takes_numpy_integer_sample_sizes(self):
        assert small_grid(ns=(np.int64(20),)).ns == (20,)

    @pytest.mark.parametrize("seed", [None, 1.5, True], ids=repr)
    def test_config_rejects_a_seed_that_is_not_an_integer(self, seed):
        # None would draw fresh entropy in every cell
        with pytest.raises(ValueError, match=f"seed must be an integer, got {seed!r}"):
            small_grid(seed=seed)

    def test_numpy_integer_seed_gives_the_grid_of_its_int(self):
        by_numpy = run_power_study(small_grid(seed=np.int64(3), reps=100))
        assert by_numpy.cells == run_power_study(small_grid(seed=3, reps=100)).cells

    def test_mc_se_formula(self):
        grid = run_power_study(small_grid())
        for cell in grid.cells.values():
            expected = np.sqrt(cell.power * (1.0 - cell.power) / 200)
            assert cell.mc_se == pytest.approx(expected, abs=1e-12)

    def test_power_monotone_in_weight(self):
        config = PowerConfig(thetas=(1.0,), ps=(0.0, 0.1, 0.3, 0.4), ns=(50,),
                             reps=800, draws=800, seed=7, methods=ALL_METHODS)
        grid = run_power_study(config, n_jobs=2)
        for method in ALL_METHODS:
            series = [grid.cells[(method, 1.0, p, 50)] for p in config.ps]
            for lo, hi in zip(series, series[1:]):
                assert hi.power >= lo.power - 4.0 * max(hi.mc_se, lo.mc_se)

    def test_power_monotone_in_sample_size(self):
        config = PowerConfig(thetas=(1.0,), ps=(0.3,), ns=(20, 50, 100),
                             reps=800, draws=800, seed=8, methods=ALL_METHODS)
        grid = run_power_study(config, n_jobs=2)
        for method in ALL_METHODS:
            series = [grid.cells[(method, 1.0, 0.3, n)] for n in config.ns]
            for lo, hi in zip(series, series[1:]):
                assert hi.power >= lo.power - 4.0 * max(hi.mc_se, lo.mc_se)

    def test_level_calibration(self):
        config = PowerConfig(thetas=(1.0,), ps=(0.0,), ns=(50,), reps=800,
                             draws=800, seed=9, methods=ALL_METHODS)
        grid = run_power_study(config)
        for method in ALL_METHODS:
            cell = grid.cells[(method, 1.0, 0.0, 50)]
            assert abs(cell.power - 0.05) <= 4.0 * max(cell.mc_se, 0.005)

    def test_true_levels_sit_inside_the_reference_window(self):
        # high-precision ground truth at the reference grid's lowest levels:
        # the one-sided LR cells at n = 20 run closest to the 0.035 floor
        config = PowerConfig(thetas=(1.0, 2.0), ps=(0.0,), ns=(20,),
                             reps=20_000, draws=200, seed=31415,
                             methods=(Method.SCORE_ONE, Method.LR_ONE))
        grid = run_power_study(config, n_jobs=2)
        for (method, theta, p, n), cell in grid.cells.items():
            assert 0.035 < cell.power < 0.065, (method.value, theta, cell.power)

    def test_geometric_family_smoke(self):
        config = PowerConfig(thetas=(0.5,), ps=(0.0, 0.3), ns=(60,), reps=400,
                             draws=400, seed=10, family=Family.GEOMETRIC,
                             methods=(Method.SCORE_ONE, Method.BAYES, Method.LR_ONE))
        grid = run_power_study(config)
        for method in config.methods:
            null = grid.cells[(method, 0.5, 0.0, 60)].power
            alt = grid.cells[(method, 0.5, 0.3, 60)].power
            assert null < 0.12
            assert alt > null

    @pytest.mark.filterwarnings("error::UserWarning")
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("family, thetas, ns", [
        (Family.POISSON, (0.05, 2.0, 8.0), (3, 50)),
        (Family.GEOMETRIC, (0.1, 0.9), (5, 50)),
    ], ids=["poisson", "geometric"])
    def test_power_study_runs_without_warnings(self, family, thetas, ns):
        # nothing silences a cell's warnings, so the sampling kernel and the
        # score and LR statistics must run clean, small n and extreme theta
        # included
        config = PowerConfig(thetas=thetas, ps=(0.0, 0.3), ns=ns, reps=300, seed=3,
                             family=family, methods=ALL_METHODS)
        assert len(run_power_study(config).cells) == len(ALL_METHODS) * len(config.combos())

    def test_spot_cell_reproduces_reference(self):
        config = PowerConfig(thetas=(1.0,), ps=(0.3,), ns=(50,), reps=2000,
                             draws=2000, seed=4)
        grid = run_power_study(config, n_jobs=2)
        assert grid.cells[(Method.SCORE_ONE, 1.0, 0.3, 50)].power == pytest.approx(0.433, abs=0.03)
        assert grid.cells[(Method.BAYES, 1.0, 0.3, 50)].power == pytest.approx(0.434, abs=0.03)
        assert grid.cells[(Method.LR_ONE, 1.0, 0.3, 50)].power == pytest.approx(0.417, abs=0.03)


class TestOutputs:
    def test_csv_layout(self):
        grid = run_power_study(small_grid())
        lines = grid.to_csv().strip().splitlines()
        assert lines[0] == "method,theta,p,n,power,mc_se"
        assert len(lines) == 1 + len(grid.cells)
        first = lines[1].split(",")
        assert first[0] in {m.value for m in Method}
        float(first[4]); float(first[5])

    def test_format_table_mentions_all_methods(self):
        grid = run_power_study(small_grid())
        text = grid.format_table()
        for method in small_grid().methods:
            assert method.value in text


class TestCompareTables:
    def test_perfect_reproduction_has_zero_flags(self):
        config = PowerConfig(thetas=(0.5, 1.0, 1.5, 2.0),
                             ps=(0.00, 0.10, 0.30, 0.40), ns=(20, 50, 100),
                             reps=10_000)
        cells = {key: CellResult(power=value,
                                 mc_se=np.sqrt(value * (1 - value) / 10_000))
                 for key, value in REFERENCE_POWER_ONE_SIDED.items()}
        grid = PowerGrid(config=config, cells=cells)
        report = compare_tables(grid, REFERENCE_POWER_ONE_SIDED)
        assert report.n_flagged == 0
        assert report.pass_fraction == 1.0
        assert "PASS" in report.summary()

    def test_missing_cell_raises(self):
        config = small_grid()
        grid = run_power_study(config)
        with pytest.raises(MissingCellError):
            compare_tables(grid, REFERENCE_POWER_ONE_SIDED)

    def test_empty_reference_raises(self):
        # a report of no cells would read "PASS: 0/0 cells"
        grid = PowerGrid(config=small_grid(), cells={})
        with pytest.raises(ValueError, match="no reference cells"):
            compare_tables(grid, {})

    def test_reference_tables_complete(self):
        # 4 thetas x 4 weights x 3 sizes x 3 methods per table
        assert len(REFERENCE_POWER_ONE_SIDED) == 144
        assert len(REFERENCE_POWER_TWO_SIDED) == 144
        for table in (REFERENCE_POWER_ONE_SIDED, REFERENCE_POWER_TWO_SIDED):
            assert all(0.0 <= v <= 1.0 for v in table.values())

    def test_desk_scale_run_agrees_with_reference_subset(self):
        # one theta row at desk scale: every cell within the flag threshold
        config = PowerConfig(thetas=(1.0,), ps=(0.00, 0.10, 0.30, 0.40),
                             ns=(20, 50, 100), reps=2000, draws=2000, seed=4)
        grid = run_power_study(config, n_jobs=2)
        subset = {k: v for k, v in REFERENCE_POWER_ONE_SIDED.items()
                  if k[1] == 1.0}
        report = compare_tables(grid, subset)
        assert report.n_cells == 36
        assert report.pass_fraction >= 0.9


class TestSeedLayout:
    """Replication ``rep`` of cell ``key`` takes its data from child 0 and its
    Bayes seed from child 1 of ``SeedSequence(seed, spawn_key=key + (rep,))``."""

    @pytest.mark.parametrize("seed, key", [(0, ()), (5, (0,)), (123456789, (7,))])
    def test_data_and_bayes_children_match_spawn(self, seed, key):
        # a sample is all zero with probability about 0.18, so some are redrawn
        model = ZipsModel(Family.POISSON, 0.6, 0.5)
        stream = _replications(Family.POISSON, 0.6, 0.5, 10, 20, seed, key)
        total_redraws = 0
        for (values, n0, rep, redraws), bayes_rng in zip(stream, _rep_rngs(seed, key, 20, 1)):
            data, bayes = np.random.SeedSequence(seed, spawn_key=key + (rep,)).spawn(2)
            rng = np.random.default_rng(data)
            for _ in range(redraws + 1):
                expected = sample_values(model, 10, rng)
            assert np.array_equal(values, expected)
            assert n0 == int(np.count_nonzero(expected == 0)) < 10
            assert bayes_rng.bit_generator.state == np.random.default_rng(
                int(bayes.generate_state(1)[0])).bit_generator.state
            total_redraws += redraws
        assert total_redraws > 0

    @pytest.mark.parametrize("family", Family, ids=lambda f: f.value)
    def test_null_stream_draws_the_base_family_alone(self, family):
        # theta = 0.1 at n = 5: about 1.5 all-zero redraws per replication;
        # at p = 0 a redraw follows the last draw on the same generator, with
        # no uniforms for a zero mask in between
        theta, n, reps, seed = 0.1, 5, 200, 8
        total_redraws = 0
        for values, n0, rep, redraws in _replications(family, 0.0, theta, n, reps, seed):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep, 0)))
            expected, redrawn = family._series.draws(rng, theta, n), 0
            while not expected.any():
                expected, redrawn = family._series.draws(rng, theta, n), redrawn + 1
            assert np.array_equal(values, expected)
            assert (n0, redraws) == (n - np.count_nonzero(expected), redrawn)
            total_redraws += redraws
        assert 1.2 * reps < total_redraws < 1.8 * reps

    @pytest.mark.parametrize("seed", [0, 1, 2**32 + 5, 2**64 - 1])
    @pytest.mark.parametrize("key", [(), (3,), (7, 2**33 + 1)])
    def test_bulk_states_are_seed_sequence_states(self, seed, key):
        # the rep numbers cross the first block boundary
        reps = SEED_BLOCK + 5
        checked = sorted({0, 1, 2, SEED_BLOCK - 1, SEED_BLOCK, reps - 1, *range(0, reps, 97)})
        for child in (0, 1):
            states = [rng.bit_generator.state for rng in _rep_rngs(seed, key, reps, child)]
            assert len(states) == reps
            for rep in checked:
                sequence = np.random.SeedSequence(seed, spawn_key=key + (rep, child))
                rng = np.random.default_rng(
                    sequence if child == 0 else int(sequence.generate_state(1)[0]))
                assert states[rep] == rng.bit_generator.state

    @pytest.mark.parametrize("seed, key", [(-1, ()), (3, (-2,)), (3, (1, -1))])
    def test_bad_seed_or_key_raises_as_seed_sequence(self, seed, key):
        with pytest.raises(Exception) as expected:
            np.random.SeedSequence(seed, spawn_key=key + (0, 0))
        for child in (0, 1):
            with pytest.raises(expected.type):
                next(_rep_rngs(seed, key, 10, child))

    def test_all_methods_cell_matches_per_replication_seeding(self):
        # 1500 replications span two seed blocks; an all-zero sample has
        # probability about 0.04, so some replications are redrawn
        config = PowerConfig(thetas=(0.5,), ps=(0.3,), ns=(10,), reps=1500, draws=200,
                             seed=21, methods=ALL_METHODS)
        grid = run_power_study(config)
        model = ZipsModel(Family.POISSON, 0.3, 0.5)
        z_cut, chi_cut = _alpha_cutoffs(config.alpha)
        rejections, redraws = dict.fromkeys(ALL_METHODS, 0), 0
        for rep in range(config.reps):
            rng = np.random.default_rng(np.random.SeedSequence(21, spawn_key=(0, rep, 0)))
            values = sample_values(model, 10, rng)
            while not values.any():
                redraws += 1
                values = sample_values(model, 10, rng)
            n0, s = int(np.count_nonzero(values == 0)), int(values.sum())
            for statistic, one, two in ((_score_statistic, Method.SCORE_ONE, Method.SCORE_TWO),
                                        (_lr_statistic_stats, Method.LR_ONE, Method.LR_TWO)):
                stat, sign = statistic(Family.POISSON, 10, n0, s)
                rejections[one] += sign * np.sqrt(stat) > z_cut
                rejections[two] += stat > chi_cut
            bayes_seed = np.random.SeedSequence(21, spawn_key=(0, rep, 1)).generate_state(1)[0]
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                est = posterior_prob_positive(Family.POISSON, CountSample.from_values(values),
                                              B=config.draws, seed=int(bayes_seed))
            rejections[Method.BAYES] += est.value > 1.0 - config.alpha
        assert grid.redraws[(0.5, 0.3, 10)] == redraws > 0
        for method in ALL_METHODS:
            assert grid.cells[(method, 0.5, 0.3, 10)].power == rejections[method] / config.reps

    @pytest.mark.parametrize("family, theta", [(Family.POISSON, 0.5), (Family.GEOMETRIC, 0.3)],
                             ids=["poisson", "geometric"])
    def test_bayes_column_is_posterior_prob_positive_value_by_value(self, family, theta):
        # the table runs the sampling kernel on (n, n0, s); each of its T
        # values is the public estimate's on the replication's counts and
        # Bayes seed.  1500 replications span two seed blocks, with redraws
        seed, key, reps, draws = 23, (4,), 1500, 300
        _, _, t, redraws = _replication_table(family, 0.3, theta, 10, reps, seed, key, draws)
        assert reps > SEED_BLOCK and redraws > 0
        expected = np.empty(reps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the importance sampler's "ESS low"
            for values, _, rep, _ in _replications(family, 0.3, theta, 10, reps, seed, key):
                bayes_seed = np.random.SeedSequence(
                    seed, spawn_key=key + (rep, 1)).generate_state(1)[0]
                expected[rep] = posterior_prob_positive(
                    family, CountSample.from_values(values), B=draws, seed=int(bayes_seed)).value
        assert np.array_equal(t, expected)

    def test_score_and_lr_grid_draws_no_bayes_seed(self, monkeypatch):
        def data_only(seed, key, reps, child):
            if child != 0:
                raise AssertionError("Bayes seed derived for a grid without the Bayes test")
            return _rep_rngs(seed, key, reps, child)

        monkeypatch.setattr("zicount.power._rep_rngs", data_only)
        config = small_grid(methods=(Method.SCORE_ONE, Method.SCORE_TWO,
                                     Method.LR_ONE, Method.LR_TWO), reps=100)
        grid = run_power_study(config)
        assert len(grid.cells) == 8
