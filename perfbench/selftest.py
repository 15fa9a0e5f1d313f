"""Self-tests of the benchmark: its checks, its references and its output.

    python3 perfbench/selftest.py        (from the root of a checkout)

They live here, not in ``tests/``, so that the repository's own suite
stays the program's tests.  The end-to-end test runs the ``nullcal``
workload briefly, once untraced and once traced (about 30 s).
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def cli_report(*argv: str) -> dict:
    from zicount.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        assert main(list(argv)) == 0
    return json.loads(out.getvalue())


class ReferenceT(unittest.TestCase):
    def test_matches_factorized_quadrature_on_bundled_datasets(self):
        from zicount import Family, load_dataset, posterior_prob_positive_factorized

        for name in ("uti", "terror", "cholera"):
            sample = load_dataset(name)
            for family, label in ((Family.POISSON, "poisson"), (Family.GEOMETRIC, "geometric")):
                with self.subTest(dataset=name, family=label):
                    ours = checks.reference_t(label, sample.n, sample.n0, sample.s)
                    theirs = posterior_prob_positive_factorized(family, sample)
                    self.assertAlmostEqual(ours, theirs, delta=1e-6)

    def test_score_closed_form_matches_the_cli(self):
        for family in ("poisson", "geometric"):
            report = cli_report("test", "--dataset", "terror", "--model", family,
                                "--method", "score", "--out", "json", "--seed", "1")
            n, n0, s = workloads._freq_stats(workloads.DATASET_FREQ["terror"])
            self.assertAlmostEqual(report["results"]["score"]["statistic"],
                                   checks.score_closed_form(family, n, n0, s), places=9)


class CheckerCountsFailures(unittest.TestCase):
    def setUp(self):
        from zicount.cli import validate_report

        self.validate = validate_report
        self.stats = workloads._freq_stats(workloads.DATASET_FREQ["uti"])
        self.reference = checks.reference_t("poisson", *self.stats)

    def test_right_t_passes_and_wrong_t_fails(self):
        report = cli_report("test", "--dataset", "uti", "--method", "all",
                            "--out", "json", "--seed", "1")
        args = ("poisson", self.stats, self.validate, self.reference)
        self.assertIsNone(checks.check_test_report(report, *args))
        report["results"]["bayes"]["posterior_prob"] = self.reference - 0.05
        self.assertIn("bayes T", checks.check_test_report(report, *args))

    def test_nonzero_exit_fails(self):
        command = {"kind": "interval", "argv": ["interval"]}
        reason, output = workloads.CliWorkload(1)._check(command, 2, "", "error: bad\n")
        self.assertEqual(reason, "exit 2: error: bad")
        self.assertEqual(output, (2, None))

    def test_flagged_power_cell_fails(self):
        from zicount.power import CellResult, Method, PowerConfig, PowerGrid, \
            REFERENCE_POWER_ONE_SIDED

        config = PowerConfig(thetas=(1.0,), ps=(0.3,), ns=(50,), reps=2000)
        reference = {k: v for k, v in REFERENCE_POWER_ONE_SIDED.items()
                     if k[1:] == (1.0, 0.3, 50)}
        cells = {k: CellResult(v, 0.01) for k, v in reference.items()}
        off = (Method.BAYES, 1.0, 0.3, 50)
        cells[off] = CellResult(reference[off] + 0.2, 0.01)
        grid = PowerGrid(config=config, cells=cells, redraws={(1.0, 0.3, 50): 0})
        ops = workloads.power_ops(grid, reference)
        self.assertEqual(len(ops), 3)
        self.assertEqual([o["op"] for o in ops if not o["ok"]], ["bayes theta=1.0 p=0.3 n=50"])

    def test_traced_output_that_differs_fails(self):
        plain = workloads.Pass(call_walls=[1.0], ops=[workloads.op("a", None, 1),
                                                      workloads.op("b", None, 2)])
        traced = workloads.Pass(call_walls=[1.0], ops=[workloads.op("a", None, 1),
                                                       workloads.op("b", None, 3)])
        self.assertEqual([o["ok"] for o in run.compare_passes(plain, traced)], [True, False])

    def test_median_pass_wall_sums_per_call_medians(self):
        passes = [workloads.Pass(call_walls=[1.0, 9.0], ops=[]),
                  workloads.Pass(call_walls=[2.0, 4.0], ops=[]),
                  workloads.Pass(call_walls=[7.0, 5.0], ops=[])]
        self.assertEqual(run.median_pass_wall(passes), 7.0)

    def test_density_and_interval_checks(self):
        self.assertIsNone(checks.check_density_csv("p,density\n0,1\n1,1\n"))
        self.assertIn("integrates", checks.check_density_csv("p,density\n0,2\n1,2\n"))
        self.assertIn("negative", checks.check_density_csv("p,density\n0,-1\n1,3\n"))
        self.assertIn("not finite", checks.check_t_values([0.5, float("nan"), 1.5]))
        self.assertIsNotNone(checks.check_cutoff(1.0))


class Tracing(unittest.TestCase):
    def test_self_time_subtracts_direct_children(self):
        spans = [(0, "outer", 0.0, 10.0, None, "op", None),
                 (1, "inner", 1.0, 4.0, 0, "op", None),
                 (2, "leaf", 2.0, 3.0, 1, "op", None),
                 (3, "inner", 5.0, 6.0, 0, "op", None)]
        selfs = tracing.self_times(spans)
        self.assertEqual(selfs[("op", 0)], 6.0)
        self.assertEqual(selfs[("op", 1)], 2.0)

    def test_wrappers_record_parents_and_are_removed(self):
        import zicount.power

        original = zicount.power.sample_values
        tracer = tracing.Tracer(op="x")
        with tracing.installed(tracer, tracing.SIMULATION_TARGETS):
            self.assertIsNot(zicount.power.sample_values, original)
            outer = tracer.wrap("outer", lambda: zicount.power._score_statistic(
                zicount.power.Family.POISSON, 50, 30, 40))
            outer()
        self.assertIs(zicount.power.sample_values, original)
        (_, name0, _, _, parent0, _, _), (_, name1, _, _, parent1, op1, _) = tracer.spans
        self.assertEqual((name0, parent0), ("outer", None))
        self.assertEqual((name1, parent1, op1), ("frequentist.score_statistic", 0, "x"))

    def test_importtime_parse_sums_outermost_entries(self):
        text = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:        10 |         10 |       scipy.stats._a",
            "import time:        20 |         30 |     scipy.stats._b",
            "import time:         5 |          5 |     scipy.linalg",
            "import time:        40 |         75 |   zicount.bayes",
            "import time:         1 |         76 | zicount",
        ])
        self.assertAlmostEqual(run.parse_importtime(text, "scipy.stats"), 30e-6)
        self.assertAlmostEqual(run.parse_importtime(text, "zicount"), 76e-6)


class EmittedMetrics(unittest.TestCase):
    """Every metric named in BENCHMARK.json is emitted with its unit."""

    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    def summary(self, trace: int) -> dict:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "nullcal",
                               "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def assert_metrics(self, summary: dict, specs: list) -> None:
        self.assertEqual(set(summary), {"correct", "attempted", "failed", "metrics"})
        expected = {m["name"]: m["unit"] for m in specs}
        got = {name: m["unit"] for name, m in summary["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in summary["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_untraced_run_emits_end_to_end_metrics(self):
        summary = self.summary(0)
        self.assert_metrics(summary, self.spec["end_to_end"])
        self.assertTrue(all(m["value"] > 0 for m in summary["metrics"].values()))
        self.assertEqual((summary["attempted"], summary["failed"]), (5, 0))

    def test_traced_run_emits_per_layer_metrics(self):
        self.assert_metrics(self.summary(1), self.spec["per_layer"])

    def test_refuses_a_directory_without_the_program(self):
        bare = ROOT / workloads.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "cli",
                                   "--seed", "1", "--seconds", "1", "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
