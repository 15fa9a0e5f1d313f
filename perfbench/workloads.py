"""The three workloads: a cold CLI session, a power grid, null calibration.

Each is a closed loop with one client: the next command or call starts when
the previous one has returned.  A workload object builds its inputs from
the workload seed, makes its untimed warm-up, and runs passes; a pass is the
workload's fixed unit of work, run either untraced or under a ``Tracer``.

A pass is a fixed sequence of calls into the program (commands, power
cells, null-calibration calls) and records the wall time of each call.  It
returns one record per checked operation, ``{"op", "ok", "reason",
"output"}``.  ``output`` is what the program produced, in a form that
compares equal between an untraced and a traced pass exactly when both did
the same work.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")  # relative to ROOT, so reports name inputs alike in every checkout
CHILD = str(Path(__file__).resolve().parent / "child.py")
CLI_ENTRY = "import sys; from zicount.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 170


@dataclass
class Pass:
    call_walls: list
    ops: list
    extras: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.call_walls)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str]) -> tuple[int, str, str, float]:
    """Run ``python3 ARGS`` from the checkout root; return code, out, err, wall."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr, time.perf_counter() - start


def op(name: str, reason: str | None, output) -> dict:
    return {"op": name, "ok": reason is None, "reason": reason, "output": output}


# ---------------------------------------------------------------------------
# cli: a scripted analyst session, one fresh interpreter per command

# the bundled datasets as published, so the checks do not trust the
# program's own copy
DATASET_FREQ = {
    "uti": {0: 81, 1: 9, 2: 7, 3: 1},
    "terror": {0: 38, 1: 26, 2: 8, 3: 2, 4: 1},
    "cholera": {0: 168, 1: 32, 2: 16, 3: 6, 4: 1},
}
COUNT_FILE_SIZES = (2_000, 20_000)
COUNT_FILE_THETA = 1.5
COUNT_FILE_WEIGHT = 0.05
# The Poisson importance-sampled T collapses to 0.0 on these files (ESS near
# 1) and the Poisson equal-tail interval exits 2 on the 20k file, so a run
# with them would never be correct.  The file commands that reach those
# paths fit the geometric model, whose T and interval are exact; the
# Poisson importance sampler still runs on the bundled datasets.
COUNT_FILE_FAMILY = "geometric"


def _freq_stats(freq: dict) -> tuple[int, int, int]:
    return sum(freq.values()), freq.get(0, 0), sum(v * c for v, c in freq.items())


class CliWorkload:
    name = "cli"
    unit = "commands"

    def __init__(self, seed: int):
        self.seed = seed
        self.stats = {name: _freq_stats(freq) for name, freq in DATASET_FREQ.items()}
        self.files = {}
        self.commands = []
        self._references: dict = {}

    def config(self) -> dict:
        return {"commands": [c["argv"] for c in self.commands],
                "count_files": {"sizes": COUNT_FILE_SIZES, "theta": COUNT_FILE_THETA,
                                "weight": COUNT_FILE_WEIGHT, "generator": "numpy default_rng(seed)",
                                "model": COUNT_FILE_FAMILY},
                "entry": CLI_ENTRY, "clients": 1}

    def prepare(self) -> None:
        from zicount.cli import validate_report

        self.validate = validate_report
        (ROOT / WORK).mkdir(exist_ok=True)
        rng = np.random.default_rng(self.seed)
        for n in COUNT_FILE_SIZES:
            y = rng.poisson(COUNT_FILE_THETA, n)
            y[rng.random(n) < COUNT_FILE_WEIGHT] = 0
            path = str(WORK / f"counts_{n}.txt")
            (ROOT / path).write_text("\n".join(map(str, y)) + "\n", encoding="utf-8")
            self.files[n] = path
            self.stats[path] = (n, int(np.count_nonzero(y == 0)), int(y.sum()))
        seed = str(self.seed)
        dataset = lambda name: ["--dataset", name]
        data = lambda n: ["--data", self.files[n]]

        def test(source, family="poisson"):
            return ["test", *source, "--model", family, "--method", "all",
                    "--out", "json", "--seed", seed]

        def interval(source, kind, family="poisson"):
            return ["interval", *source, "--model", family, "--kind", kind, "--out", "json",
                    "--seed", seed]

        density = str(WORK / "cholera_density.csv")
        self.commands = [
            {"kind": "version", "argv": ["--version"]},
            *({"kind": "test", "argv": test(dataset(d)), "data": d, "family": "poisson"}
              for d in ("uti", "terror", "cholera")),
            {"kind": "test", "argv": test(dataset("uti"), "geometric"), "data": "uti",
             "family": "geometric"},
            *({"kind": "test", "argv": test(data(n), COUNT_FILE_FAMILY), "data": self.files[n],
               "family": COUNT_FILE_FAMILY}
              for n in COUNT_FILE_SIZES),
            {"kind": "interval", "argv": interval(dataset("uti"), "equal")},
            {"kind": "interval", "argv": interval(data(20_000), "equal", COUNT_FILE_FAMILY)},
            {"kind": "hpd", "argv": interval(dataset("terror"), "hpd")},
            {"kind": "hpd", "argv": interval(data(2_000), "hpd")},
            {"kind": "posterior", "argv": ["posterior", *dataset("cholera"), "--out", density,
                                           "--seed", seed], "csv": density},
        ]
        for command in self.commands:
            if command["kind"] == "test":
                key = (command["family"], *self.stats[command["data"]])
                if key not in self._references:
                    self._references[key] = checks.reference_t(*key)

    def warm_up(self) -> None:
        """Nothing: users pay interpreter and import start-up on every command."""

    def _check(self, command: dict, rc: int, out: str, err: str):
        kind = command["kind"]
        if rc != 0:
            lines = err.strip().splitlines()
            return f"exit {rc}: {lines[-1] if lines else ''}", (rc, None)
        if kind == "version":
            return (None if out.startswith("zicount ") else f"bad version line {out!r}"), (rc, out)
        if kind == "posterior":
            text = (ROOT / command["csv"]).read_text(encoding="utf-8")
            return checks.check_density_csv(text), (rc, out, text)
        try:
            report = json.loads(out)
        except json.JSONDecodeError as err:
            return f"stdout is not a JSON report: {err}", (rc, out)
        comparable = {k: v for k, v in report.items() if k != "elapsed_seconds"}
        if kind == "test":
            family = command["family"]
            stats_ = self.stats[command["data"]]
            reason = checks.check_test_report(report, family, stats_, self.validate,
                                              self._references[(family, *stats_)])
        else:
            reason = checks.check_interval_report(report, self.validate)
        return reason, (rc, comparable)

    def run_pass(self, tracer: tracing.Tracer | None = None) -> Pass:
        ops, walls, spans = [], [], []
        spans_path = str(WORK / "cli_spans.json")
        for index, command in enumerate(self.commands):
            if tracer is None:
                args = ["-c", CLI_ENTRY, *command["argv"]]
            else:
                args = [CHILD, "cli", spans_path, *command["argv"]]
                (ROOT / spans_path).unlink(missing_ok=True)
            rc, out, err, wall = run_child(args)
            walls.append((command["kind"], wall))
            if tracer is not None and (ROOT / spans_path).exists():
                with open(ROOT / spans_path, encoding="utf-8") as handle:
                    spans.extend(tuple(s[:5]) + (index,) + tuple(s[6:])
                                 for s in json.load(handle))
            reason, output = self._check(command, rc, out, err)
            ops.append(op(" ".join(command["argv"]), reason, output))
        by_kind = lambda kind: [w for k, w in walls if k == kind]
        extras = {"cli.session_s": sum(w for _, w in walls),
                  "cli.startup_s": by_kind("version")[0],
                  "cli.test_s": statistics.median(by_kind("test")),
                  "cli.hpd_s": statistics.median(by_kind("hpd")),
                  "cli.posterior_s": by_kind("posterior")[0]}
        return Pass(call_walls=[w for _, w in walls], ops=ops, extras=extras, spans=spans)

    def work_units(self) -> int:
        return len(self.commands)


# ---------------------------------------------------------------------------
# power: the Monte Carlo power grid, all five methods, one worker


# ``compare_tables`` flags a cell off its reference by more than
# max(0.03, 4 mc_se).  The references are published Monte Carlo values with
# errors of about 0.01 of their own, so a cell with power near 0.5 at 2000
# replications is flagged on about one seed in a hundred.  The p > 0 cells
# run enough replications for the 0.03 floor to hold; the level cells, with
# power near alpha, are far inside it at 2000.
POWER_GRID = {"thetas": (0.5, 2.0), "ps": (0.0, 0.3), "ns": (50, 100)}
LEVEL_REPS = 2000
ALTERNATIVE_REPS = 8000


class PowerWorkload:
    """The grid runs as one ``run_power_study`` call per cell, so that each
    cell's wall time is measured on its own; the cells together are the
    8-cell grid, each seeded from the workload seed."""

    name = "power"
    unit = "replications"

    def __init__(self, seed: int):
        self.seed = seed

    def config(self) -> dict:
        c = self.power_config
        return {"thetas": c.thetas, "ps": c.ps, "ns": c.ns,
                "methods": [m.value for m in c.methods], "family": c.family.value,
                "reps": [cell.reps for cell in self.cells], "draws": c.draws,
                "alpha": c.alpha, "n_jobs": 1,
                "cell_seeds": [cell.seed for cell in self.cells],
                "reference_cells": len(self.reference)}

    def prepare(self) -> None:
        from dataclasses import replace

        from zicount.power import (Method, PowerConfig, REFERENCE_POWER_ONE_SIDED,
                                   REFERENCE_POWER_TWO_SIDED, run_power_study)

        self.run_power_study = run_power_study
        self.power_config = PowerConfig(**POWER_GRID, methods=tuple(Method),
                                        reps=ALTERNATIVE_REPS, draws=2000, alpha=0.05,
                                        seed=self.seed)
        combos = self.power_config.combos()
        seeds = np.random.SeedSequence(self.seed).generate_state(len(combos))
        self.cells = [replace(self.power_config, thetas=(theta,), ps=(p,), ns=(n,),
                              reps=LEVEL_REPS if p == 0.0 else ALTERNATIVE_REPS,
                              seed=int(cell_seed))
                      for (theta, p, n), cell_seed in zip(combos, seeds)]
        # one- and two-sided references, the Bayes column taken from the
        # one-sided table as `zicount power --compare-reference` does
        reference = dict(REFERENCE_POWER_ONE_SIDED)
        reference.update({k: v for k, v in REFERENCE_POWER_TWO_SIDED.items()
                          if k[0] is not Method.BAYES})
        self.reference = {k: v for k, v in reference.items() if k[1:] in combos}

    def warm_up(self) -> None:
        from zicount import CountSample, Family, posterior_prob_positive

        posterior_prob_positive(Family.POISSON, CountSample(dict(DATASET_FREQ["uti"])),
                                B=self.power_config.draws, seed=self.seed)

    def run_pass(self, tracer: tracing.Tracer | None = None) -> Pass:
        from zicount.power import PowerGrid

        cells, redraws, walls = {}, {}, []
        for cell in self.cells:
            study = self.run_power_study
            if tracer is not None:
                tracer.op = f"theta={cell.thetas[0]} p={cell.ps[0]} n={cell.ns[0]}"
                study = tracer.wrap("power.run_power_study", study)
            start = time.perf_counter()
            grid = study(cell, n_jobs=1)
            walls.append(time.perf_counter() - start)
            cells.update(grid.cells)
            redraws.update(grid.redraws)
        grid = PowerGrid(config=self.power_config, cells=cells, redraws=redraws)
        replications = self.work_units()
        total_redraws = sum(redraws.values())
        extras = {"power.redraws": total_redraws,
                  "power.useful_draw_ratio": replications / (replications + total_redraws)}
        return Pass(call_walls=walls, ops=power_ops(grid, self.reference), extras=extras)

    def work_units(self) -> int:
        return sum(cell.reps for cell in self.cells)


def power_ops(grid, reference: dict) -> list[dict]:
    """One operation per reference cell, failed where ``compare_tables``
    flags it."""
    from zicount.power import compare_tables

    ops = []
    for row in compare_tables(grid, reference).rows:
        name = f"{row.method.value} theta={row.theta} p={row.p} n={row.n}"
        reason = (f"power {row.power:.4f} vs reference {row.reference:.3f} "
                  f"(mc_se {row.mc_se:.4f})" if row.flagged else None)
        output = (grid.cells[(row.method, row.theta, row.p, row.n)],
                  grid.redraws[(row.theta, row.p, row.n)])
        ops.append(op(name, reason, output))
    return ops


# ---------------------------------------------------------------------------
# nullcal: null uniformity of the factorized T and Beta calibration

NULLCAL_CALLS = (
    ("uniformity_check", "poisson", 1.0, 50, 3000),
    ("uniformity_check", "poisson", 2.0, 400, 2000),
    ("uniformity_check", "geometric", 0.5, 100, 2000),
    ("uniformity_check", "poisson", 1.0, 5000, 500),
    ("beta_calibration", "poisson", 1.0, 50, 3000),
)
CALIBRATION_ALPHA = 0.05


class NullcalWorkload:
    name = "nullcal"
    unit = "replications"

    def __init__(self, seed: int):
        self.seed = seed
        self.call_seeds = [int(x) for x in
                           np.random.SeedSequence(seed).generate_state(len(NULLCAL_CALLS))]

    def config(self) -> dict:
        return {"calls": [{"function": f, "family": fam, "theta": theta, "n": n,
                           "reps": reps, "B": 0, "seed": s}
                          for (f, fam, theta, n, reps), s in zip(NULLCAL_CALLS, self.call_seeds)],
                "cutoff_alpha": CALIBRATION_ALPHA}

    def prepare(self) -> None:
        import zicount

        self.zicount = zicount

    def warm_up(self) -> None:
        """Fills the per-process Gauss-Legendre node cache of factorized T."""
        z = self.zicount
        z.posterior_prob_positive_factorized(z.Family.POISSON,
                                             z.CountSample(dict(DATASET_FREQ["uti"])))

    def run_pass(self, tracer: tracing.Tracer | None = None) -> Pass:
        z = self.zicount
        ops, walls = [], []
        for (function, family, theta, n, reps), seed in zip(NULLCAL_CALLS, self.call_seeds):
            fn = getattr(z, function)
            if tracer is not None:
                tracer.op = f"{function} n={n}"
                fn = tracer.wrap(f"asymptotics.{function}", fn)
            fam = z.Family.POISSON if family == "poisson" else z.Family.GEOMETRIC
            start = time.perf_counter()
            result = fn(fam, theta, n, reps, B=0, seed=seed)
            walls.append(time.perf_counter() - start)
            if function == "uniformity_check":
                reason = checks.check_t_values(result.t_values)
                output = (tuple(result.t_values.tolist()), result.ks_distance)
            else:
                cutoff = result.cutoff(CALIBRATION_ALPHA)
                reason = checks.check_cutoff(cutoff)
                output = (result.alpha_hat, result.beta_hat, cutoff)
            ops.append(op(f"{function} {family} theta={theta} n={n} reps={reps}",
                          reason, output))
        return Pass(call_walls=walls, ops=ops)

    def work_units(self) -> int:
        return sum(call[4] for call in NULLCAL_CALLS)


WORKLOADS = {w.name: w for w in (CliWorkload, PowerWorkload, NullcalWorkload)}
