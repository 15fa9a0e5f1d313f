import json
from types import SimpleNamespace

import numpy as np
import pytest

from zicount import (CountSample, Family, Method, bayes_factor_positive, dataset_names,
                     dataset_table, format_freq_csv, load_counts, load_dataset,
                     parse_counts_text, posterior_prob_positive_factorized)
from zicount.bayes import _FACTORIZED_T_ACCURACY
from zicount.cli import main, validate_report
from zicount import datasets as datasets_mod


class TestBundledDatasets:
    EXPECTED = {
        "uti": ({0: 81, 1: 9, 2: 7, 3: 1}, 98, 26),
        "terror": ({0: 38, 1: 26, 2: 8, 3: 2, 4: 1}, 75, 52),
        "cholera": ({0: 168, 1: 32, 2: 16, 3: 6, 4: 1}, 223, 86),
    }

    def test_names(self):
        assert dataset_names() == ["cholera", "terror", "uti"]

    @pytest.mark.parametrize("name", ["uti", "terror", "cholera"])
    def test_contents(self, name):
        freq, n, s = self.EXPECTED[name]
        cs = load_dataset(name)
        assert cs.freq == freq
        assert (cs.n, cs.s) == (n, s)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_dataset("nope")

    def test_checksum_guard(self, monkeypatch):
        tampered = dict(datasets_mod.DATASETS)
        tampered["uti"] = {0: 80, 1: 10, 2: 7, 3: 1}
        monkeypatch.setattr(datasets_mod, "DATASETS", tampered)
        with pytest.raises(RuntimeError, match="checksum"):
            load_dataset("uti")

    def test_table_rendering(self):
        text = dataset_table("terror")
        for token in ("terror", "38", "26", "8", "2", "1", "75"):
            assert token in text


class TestCountFiles:
    def test_frequency_form(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("value,count\n# comment\n0,5\n2,3\n\n1,2\n")
        cs = load_counts(path)
        assert cs.freq == {0: 5, 1: 2, 2: 3}

    def test_raw_form(self):
        cs = parse_counts_text("0\n0\n3\n1\n")
        assert cs.freq == {0: 2, 1: 1, 3: 1}

    @pytest.mark.parametrize("text,fragment", [
        ("0,5\n2\n", ":2:"),
        ("1\n0,5\n", ":2:"),
        ("a,5\n", "non-integer"),
        ("0,0\n", "count >= 1"),
        ("-1,4\n", "value >= 0"),
        ("x\n", "non-integer"),
        ("", "no data rows"),
        ("0,1,2\n", "expected"),
    ])
    def test_errors_name_the_line(self, text, fragment):
        with pytest.raises(ValueError, match=fragment.replace(",", ".")):
            parse_counts_text(text, name="bad.csv")

    def test_round_trip(self):
        for name in dataset_names():
            original = load_dataset(name)
            again = parse_counts_text(format_freq_csv(original))
            assert again == original

    def test_round_trip_arbitrary_sample(self):
        cs = CountSample({0: 4, 7: 2, 3: 1})
        assert parse_counts_text(format_freq_csv(cs)) == cs


class TestCli:
    def test_score_test_on_bundled_dataset(self, capsys):
        assert main(["test", "--dataset", "uti", "--method", "score",
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "15.34" in out
        assert "seed=1" in out

    def test_json_report_schema_and_values(self, capsys):
        code = main(["test", "--dataset", "uti", "--method", "all",
                     "--seed", "3", "--out", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        validate_report(report)
        assert report["results"]["score"]["statistic"] == pytest.approx(15.34, abs=0.01)
        assert report["results"]["bayes"]["posterior_prob"] > 0.99
        assert report["results"]["bayes_factor"]["non_authoritative"] is True
        assert report["mle"]["full"]["p_hat"] == pytest.approx(0.7116, abs=5e-4)
        assert report["seed"] == 3

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("name", ["uti", "terror", "cholera"])
    def test_bayes_test_reports_factorized_t(self, capsys, name, family):
        # exact T has no Monte Carlo diagnostic: any warning fails the test
        assert main(["test", "--dataset", name, "--model", family.value,
                     "--method", "all", "--out", "json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        t = posterior_prob_positive_factorized(family, load_dataset(name))
        assert results["bayes"]["posterior_prob"] == t
        assert (results["bayes"]["mc_se"], results["bayes"]["ess"]) == (0.0, 0.0)
        assert results["bayes_factor"]["posterior_prob"] == t
        assert results["bayes_factor"]["lower_bound"] is False
        # the library's default factor is the one the command reports, bit for bit
        bf = bayes_factor_positive(family, load_dataset(name))
        assert [results["bayes_factor"][key] for key in
                ("value", "posterior_prob", "prior_prob", "lower_bound")] == \
            [bf.value, bf.posterior_prob, bf.prior_prob, bf.lower_bound]

    def test_bayes_test_makes_one_library_call(self, monkeypatch, capsys):
        calls = []

        def spy(*args, **kwargs):
            calls.append(bayes_factor_positive(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr("zicount.cli.bayes_factor_positive", spy)
        assert main(["test", "--dataset", "uti", "--method", "bayes", "--out", "json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        [bf] = calls
        assert results["bayes"]["statistic"] == results["bayes"]["posterior_prob"] == \
            bf.posterior_prob
        assert results["bayes_factor"] == {
            "value": bf.value, "posterior_prob": bf.posterior_prob,
            "prior_prob": bf.prior_prob, "theta_window": list(bf.theta_window),
            "lower_bound": bf.lower_bound, "non_authoritative": bf.non_authoritative}

    @pytest.mark.parametrize("n, lower_bound, t_is_one", [
        (2_000, False, False), (4_000, True, False), (1_000_000, True, True)])
    def test_bayes_test_on_a_count_file(self, tmp_path, capsys, n, lower_bound, t_is_one):
        # Poisson(1.5) counts with 5% extra zeros, as in the benchmark, where
        # the importance sampler's proposal collapses and gave T = 0; from
        # n = 4000 on, 1 - T (8e-11 there) is below what factorized T resolves
        rng = np.random.default_rng(1)
        y = rng.poisson(1.5, n)
        y[rng.random(n) < 0.05] = 0
        path = tmp_path / "counts.txt"
        path.write_text("\n".join(map(str, y)) + "\n")
        assert main(["test", "--data", str(path), "--method", "bayes",
                     "--seed", "1", "--out", "json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        t = results["bayes"]["posterior_prob"]
        assert t == posterior_prob_positive_factorized(Family.POISSON, CountSample.from_values(y))
        assert (t == 1.0) is t_is_one
        assert results["bayes"]["reject"] is True
        assert results["bayes_factor"]["lower_bound"] is lower_bound
        assert (t > 1.0 - _FACTORIZED_T_ACCURACY) is lower_bound

    def test_text_and_json_carry_identical_numbers(self, capsys):
        main(["test", "--dataset", "terror", "--method", "score",
              "--seed", "2", "--out", "json"])
        report = json.loads(capsys.readouterr().out)
        main(["test", "--dataset", "terror", "--method", "score", "--seed", "2"])
        text = capsys.readouterr().out
        assert f"{report['results']['score']['statistic']:.4g}" in text
        assert f"{report['results']['score']['p_value']:.4g}" in text

    def test_deterministic_given_seed(self, capsys):
        main(["test", "--dataset", "terror", "--method", "bayes",
              "--seed", "11", "--out", "json"])
        first = json.loads(capsys.readouterr().out)
        main(["test", "--dataset", "terror", "--method", "bayes",
              "--seed", "11", "--out", "json"])
        second = json.loads(capsys.readouterr().out)
        first.pop("elapsed_seconds"); second.pop("elapsed_seconds")
        assert first == second

    def test_data_file_ingestion(self, tmp_path, capsys):
        path = tmp_path / "mine.csv"
        path.write_text("value,count\n0,30\n1,6\n2,4\n")
        assert main(["test", "--data", str(path), "--method", "score"]) == 0
        assert "score test" in capsys.readouterr().out

    def test_degenerate_data_exits_2(self, tmp_path, capsys):
        path = tmp_path / "zeros.csv"
        path.write_text("0\n0\n0\n")
        assert main(["test", "--data", str(path), "--method", "score"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_bad_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.csv"
        path.write_text("0,5\nfoo,bar\n")
        assert main(["test", "--data", str(path)]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_count_beyond_int64_exits_2_naming_it(self, tmp_path, capsys):
        path = tmp_path / "huge.txt"
        path.write_text("1\n99999999999999999999\n")
        assert main(["test", "--data", str(path)]) == 2
        assert "count value 99999999999999999999 " in capsys.readouterr().err

    def test_count_of_three_billion_gives_a_report(self, tmp_path, capsys):
        # a bincount over 3e9 + 1 slots would take 22 GiB
        path = tmp_path / "large.txt"
        path.write_text("1\n3000000000\n")
        assert main(["test", "--data", str(path), "--seed", "1", "--out", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["dataset"]["n"], report["dataset"]["sum"]) == (2, 3_000_000_001)

    def test_missing_file_exits_2(self, capsys):
        assert main(["test", "--data", "/no/such/file.csv"]) == 2

    def test_interval_command(self, capsys):
        code = main(["interval", "--dataset", "cholera", "--kind", "hpd",
                     "--level", "0.95", "--seed", "4", "--out", "json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        entry = report["intervals"][0]
        assert entry["kind"] == "hpd" and entry["method"] == "exact"
        assert "draws" not in report
        assert 0.4 < entry["lower"] < entry["upper"] < 0.8
        assert entry["density_threshold"] > 0

    @pytest.mark.parametrize("n0", [20_000_000, 100_000_000])
    def test_commands_on_a_frequency_file_of_large_shapes(self, tmp_path, capsys, n0):
        # n0 zeros and n0 positive counts give pstar Beta shapes of about n0;
        # a 1% equal-tail interval starts from pstar's quantiles at its centre,
        # where the incomplete beta's fraction takes about 6 n0**(1/3) pairs
        # of terms; and at alpha = 1e-17, 1 - alpha rounds to one
        path = tmp_path / "large.csv"
        path.write_text(f"0,{n0}\n1,{n0 // 2}\n2,{n0 // 2}\n")
        for kind in ("equal", "hpd"):
            assert main(["interval", "--data", str(path), "--kind", kind, "--level", "0.01",
                         "--out", "json"]) == 0
            entry = json.loads(capsys.readouterr().out)["intervals"][0]
            assert 0.1420 < entry["lower"] < entry["upper"] < 0.1422
        assert main(["test", "--data", str(path), "--method", "all", "--alpha", "1e-17",
                     "--out", "json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["score"]["reject"] and results["lr"]["reject"]
        assert main(["posterior", "--data", str(path), "--out", str(tmp_path / "curve.csv")]) == 0

    def test_interval_on_large_count_file(self, tmp_path, capsys):
        # 20 000 Poisson(1.5) counts with 5% extra zeros, as in the benchmark
        rng = np.random.default_rng(1)
        y = rng.poisson(1.5, 20_000)
        y[rng.random(20_000) < 0.05] = 0
        path = tmp_path / "counts.txt"
        path.write_text("\n".join(map(str, y)) + "\n")
        code = main(["interval", "--data", str(path), "--model", "poisson",
                     "--seed", "1", "--out", "json"])
        assert code == 0
        entry = json.loads(capsys.readouterr().out)["intervals"][0]
        assert np.isfinite(entry["lower"]) and entry["lower"] < entry["upper"] < 1.0

    def test_interval_level_validation(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["interval", "--dataset", "uti", "--level", "1.0"])
        assert excinfo.value.code == 2

    def test_posterior_curve_export(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main(["posterior", "--dataset", "uti", "--seed", "5",
                     "--grid-points", "200", "--out", str(out)])
        assert code == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert data.shape == (200, 2)
        assert np.trapezoid(data[:, 1], data[:, 0]) == pytest.approx(1.0, abs=0.01)
        assert data[0, 1] < 1e-3 * data[:, 1].max()
        assert data[-1, 1] < 1e-3 * data[:, 1].max()

    def test_power_inline_grid(self, capsys):
        code = main(["power", "--thetas", "1.0", "--ps", "0.0,0.3",
                     "--ns", "50", "--reps", "200", "--draws", "300",
                     "--seed", "6", "--jobs", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "score1" in out and "bayes" in out

    def test_power_csv_and_compare(self, tmp_path, capsys):
        out = tmp_path / "power.csv"
        code = main(["power", "--thetas", "1.0", "--ps", "0.3", "--ns", "50",
                     "--reps", "400", "--draws", "400", "--seed", "7",
                     "--out", str(out), "--compare-reference"])
        assert code == 0
        text = capsys.readouterr().out
        assert "cells within tolerance" in text
        header = out.read_text().splitlines()[0]
        assert header == "method,theta,p,n,power,mc_se"

    def test_power_compare_paper_alias(self, capsys):
        code = main(["power", "--thetas", "1.0", "--ps", "0.3", "--ns", "50",
                     "--reps", "200", "--draws", "200", "--seed", "8",
                     "--compare-paper"])
        assert code == 0

    def test_power_config_file(self, tmp_path, capsys):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({
            "thetas": [1.0], "ps": [0.0], "ns": [40], "reps": 150,
            "draws": 200, "seed": 9, "methods": ["score1"]}))
        assert main(["power", "--config", str(config)]) == 0

    def test_power_flags_supply_keys_the_config_omits(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({"thetas": [0.5], "ps": [0.0], "ns": [40], "seed": 9}))
        built = []

        def capture(config, n_jobs, progress):
            built.append(config)
            return SimpleNamespace(format_table=lambda: "", redraws={})

        monkeypatch.setattr("zicount.cli.run_power_study", capture)
        assert main(["power", "--config", str(config), "--model", "geometric",
                     "--methods", "score1,lr1", "--reps", "150"]) == 0
        (got,) = built
        assert got.family is Family.GEOMETRIC
        assert got.methods == (Method.SCORE_ONE, Method.LR_ONE)
        assert (got.thetas, got.ps, got.ns, got.reps, got.seed) == ((0.5,), (0.0,), (40,), 150, 9)

    def test_power_config_misspelled_family_exits_2(self, tmp_path, capsys):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({
            "thetas": [0.5], "ps": [0.0], "ns": [40], "reps": 150,
            "seed": 9, "methods": ["score1"], "family": "poison"}))
        assert main(["power", "--config", str(config)]) == 2
        assert "poison" in capsys.readouterr().err

    def test_power_empty_grid_exits_2(self, capsys):
        assert main(["power", "--reps", "200"]) == 2

    @pytest.mark.parametrize("argv, flag, low", [
        (["posterior", "--dataset", "uti", "--out", "unused.csv", "--grid-points", "15"],
         "--grid-points", 16),
        (["power", "--thetas", "1", "--ps", "0", "--ns", "20", "--reps", "50"], "--reps", 100),
        (["power", "--thetas", "1", "--ps", "0", "--ns", "20", "--draws", "-1"], "--draws", 1),
        (["power", "--thetas", "1", "--ps", "0", "--ns", "20", "--jobs", "0"], "--jobs", 1),
    ], ids=["posterior-grid-points", "power-reps", "power-draws", "power-jobs"])
    def test_bad_count_flag_exits_2_naming_the_flag(self, capsys, argv, flag, low):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: {argv[-1]!r} must be at least {low}" in captured.err

    def test_power_config_values_are_checked_before_the_header(self, tmp_path, capsys):
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({"thetas": [1.0], "ps": [0.0], "ns": [20], "reps": 50}))
        assert main(["power", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "reps must be at least 100" in captured.err

    @pytest.mark.parametrize("config, argv, message", [
        ({"thetas": 0.5, "ps": [0.3], "ns": [20]}, [],
         "config key 'thetas' must be a JSON list, got 0.5"),
        ({"thetas": ["a"], "ps": [0.3], "ns": [20]}, [],
         "config key 'thetas': could not convert string to float: 'a'"),
        ([1, 2], [], "must hold a JSON object, not a list"),
        ({"thetas": [0.5], "ps": [0.3], "ns": [20.5]}, [],
         "config key 'ns': 20.5 is not an integer"),
        ({"thetas": [0.5], "ps": [0.3], "ns": [20], "methods": "score1"}, [],
         "config key 'methods' must be a JSON list, got 'score1'"),
        (None, ["--thetas", "0.5", "--ps", "0.3", "--ns", "0"],
         "ns entry must be at least 2, got 0"),
        (None, ["--thetas", "0.5", "--ps", "0.3", "--ns=-3"],
         "ns entry must be at least 2, got -3"),
        ({"thetas": [0.5], "ps": [0.3], "ns": [20], "rep": 150, "methods": ["score1"]}, [],
         "unknown config key 'rep'"),
        (None, ["--thetas", "0.5", "--ps", "1.5", "--ns", "20"], "p=1.5 outside open range"),
        (None, ["--thetas", "0.5", "--ps", "0.3", "--ns", "20", "--seed=-1"],
         "seed must be at least 0, got -1"),
        (None, ["--thetas", "0.5,-5", "--ps", "0.3", "--ns", "20"], "theta=-5.0"),
        (None, ["--model", "geometric", "--thetas", "1.5", "--ps", "0.3", "--ns", "20"],
         "theta=1.5"),
    ], ids=["thetas-scalar", "thetas-string", "top-level-list", "ns-fraction",
            "methods-string", "ns-zero", "ns-negative", "unknown-key", "p-above-one",
            "negative-seed", "negative-theta", "geometric-theta-above-one"])
    def test_malformed_power_grid_exits_2_before_the_header(self, tmp_path, capsys,
                                                            config, argv, message):
        if config is not None:
            path = tmp_path / "grid.json"
            path.write_text(json.dumps(config))
            argv = ["--config", str(path)]
        assert main(["power", "--reps", "100", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["--model", "geometric"], "tables cover the Poisson family at alpha = 0.05 only"),
        (["--alpha", "0.2"], "tables cover the Poisson family at alpha = 0.05 only"),
        (["--ns", "30"], "grid does not cover any bundled reference cells"),
    ], ids=["geometric", "alpha-0.2", "uncovered-n"])
    def test_compare_reference_outside_its_tables_exits_2(self, capsys, argv, message):
        assert main(["power", "--thetas", "0.5", "--ps", "0.3", "--ns", "20", "--reps", "200",
                     "--methods", "score1,lr1", "--compare-reference", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_datasets_show_matches_tables(self, capsys):
        assert main(["datasets", "show", "uti"]) == 0
        out = capsys.readouterr().out
        assert dataset_table("uti") in out

    def test_datasets_export_round_trips(self, capsys):
        assert main(["datasets", "export", "cholera"]) == 0
        text = capsys.readouterr().out
        assert parse_counts_text(text) == load_dataset("cholera")

    def test_datasets_list(self, capsys):
        assert main(["datasets", "list"]) == 0
        out = capsys.readouterr().out
        for name in dataset_names():
            assert name in out

    def test_geometric_model_flag(self, capsys):
        assert main(["test", "--dataset", "uti", "--model", "geometric",
                     "--method", "score"]) == 0

    def test_auto_seed_logged(self, capsys):
        assert main(["test", "--dataset", "uti", "--method", "score"]) == 0
        assert "seed=" in capsys.readouterr().out

    def test_validate_report_rejects_bad_payload(self):
        with pytest.raises(ValueError):
            validate_report({"schema_version": 1})
