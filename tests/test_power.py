import numpy as np
import pytest

from zicount import (CellResult, DegenerateSampleError, Family, Method,
                     MissingCellError, PowerConfig, PowerGrid,
                     REFERENCE_POWER_ONE_SIDED, REFERENCE_POWER_TWO_SIDED,
                     compare_tables, run_power_study, uniformity_check)
from zicount.distributions import ZipsModel, sample_values
from zicount.power import _bayes_seed, _replications

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
        for values, n0, rep, redraws in stream:
            data, bayes = np.random.SeedSequence(seed, spawn_key=key + (rep,)).spawn(2)
            rng = np.random.default_rng(data)
            for _ in range(redraws + 1):
                expected = sample_values(model, 10, rng)
            assert np.array_equal(values, expected)
            assert n0 == int(np.count_nonzero(expected == 0)) < 10
            assert _bayes_seed(seed, key, rep) == int(bayes.generate_state(1)[0])
            total_redraws += redraws
        assert total_redraws > 0

    def test_score_and_lr_grid_draws_no_bayes_seed(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("Bayes seed derived for a grid without the Bayes test")

        monkeypatch.setattr("zicount.power._bayes_seed", forbidden)
        config = small_grid(methods=(Method.SCORE_ONE, Method.SCORE_TWO,
                                     Method.LR_ONE, Method.LR_TWO), reps=100)
        grid = run_power_study(config)
        assert len(grid.cells) == 8
