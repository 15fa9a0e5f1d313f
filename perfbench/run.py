"""zicount benchmark: end-to-end and per-layer metrics with output checks.

    python3 perfbench/run.py --workload cli|power|nullcal --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, untraced then traced

Run from the root of a checkout; the program is imported from its ``src``.
With ``--trace 0`` the run times fresh-interpreter set-up, then repeats the
workload's pass, untraced, until ``--seconds`` would be exceeded, and
reports the end-to-end metrics.  ``--seconds`` is not used with
``--trace 1``.  With ``--trace 1`` it makes one untraced
and one traced pass and reports the per-layer metrics.  Every output is
checked; the last line of standard output is the JSON summary
``{"correct", "attempted", "failed", "metrics"}``, preceded by a JSON line
with provenance, the workload config and each failed operation.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
IMPORT_PROBES = 3
RESULT_DIR = ".bench_work"

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "throughput": "1/s"}
PER_LAYER_EXTRAS = {
    "import.zicount_s": "s", "import.scipy_stats_s": "s",
    "cli.session_s": "s", "cli.startup_s": "s", "cli.test_s": "s",
    "cli.hpd_s": "s", "cli.posterior_s": "s",
    "bayes.factorized.first_call_s": "s",
    "power.redraws": "count", "power.useful_draw_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict:
    import tracing

    units = {f"{name}.s": "s" for name in tracing.TIMED_LAYERS}
    units.update({f"{name}.calls": "count" for name in tracing.COUNTED_LAYERS})
    units.update({name: "s" for name in tracing.SELF_TIMED})
    units["frequentist.mle_full.iterations"] = "count"
    units["bayes.posterior_prob_positive.ess_ratio_p50"] = "ratio"
    units["bayes.distinct_inputs_ratio"] = "ratio"
    units.update({f"bayes.distinct_inputs_ratio.n{n}": "ratio" for n in tracing.DISTINCT_NS})
    units.update(PER_LAYER_EXTRAS)
    return units


def provenance(seed: int) -> dict:
    import numpy
    import scipy
    import zicount

    revision = dirty = None
    if (ROOT / ".git").exists():
        git = lambda *args: subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                           text=True, timeout=30).stdout.strip()
        revision = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "zicount": zicount.__version__,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "git_revision": revision, "git_dirty": dirty, "seed": seed}


def measure_setup(workload_name: str, repeats: int) -> list[tuple[float, dict]]:
    """Wall time of each fresh interpreter importing zicount and making the
    warm-up call, with the import and warm-up times it measured itself."""
    from workloads import CHILD, run_child

    walls = []
    for _ in range(repeats):
        rc, out, err, wall = run_child([CHILD, "setup", workload_name])
        if rc != 0:
            raise RuntimeError(f"set-up probe failed with exit {rc}:\n{err}")
        walls.append((wall, json.loads(out)))
    return walls


def parse_importtime(stderr: str, package: str) -> float:
    """Seconds spent importing ``package`` and its submodules.

    ``-X importtime`` prints each module after its children, indented two
    spaces per level, with the cumulative time in microseconds.  The sum
    runs over the outermost entries under ``package``, since scipy loads
    subpackages lazily and need not print a line for the package itself.
    """
    total, ancestors = 0, []
    for line in reversed(stderr.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, field = line.removeprefix("import time:").split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        name = field.strip()
        level = len(field) - len(field.lstrip()) - 1
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        inside = lambda mod: mod == package or mod.startswith(package + ".")
        if inside(name) and not any(inside(mod) for _, mod in ancestors):
            total += int(cumulative)
        ancestors.append((level, name))
    return total * 1e-6


def import_times() -> dict:
    """Import times of ``zicount`` and of the ``scipy.stats`` modules it
    pulls in, medians over fresh interpreters under ``-X importtime``."""
    from workloads import run_child

    found = {"zicount": [], "scipy.stats": []}
    for _ in range(IMPORT_PROBES):
        rc, _, err, _ = run_child(["-X", "importtime", "-c", "import zicount"])
        if rc != 0:
            raise RuntimeError(f"import probe failed with exit {rc}:\n{err}")
        for package, times in found.items():
            times.append(parse_importtime(err, package))
    return {"import.zicount_s": statistics.median(found["zicount"]),
            "import.scipy_stats_s": statistics.median(found["scipy.stats"])}


def median_pass_wall(passes) -> float:
    """Sum over a pass's calls of each call's median wall time across passes.

    A burst of load from other tenants of the machine slows the calls it
    overlaps; a per-call median drops them where the median of whole passes
    would need many more passes to.
    """
    return sum(statistics.median(walls) for walls in zip(*(p.call_walls for p in passes)))


def compare_passes(untraced, traced) -> list[dict]:
    """Traced ops, failed where their output differs from the untraced pass."""
    ops = []
    for plain, seen in zip(untraced.ops, traced.ops, strict=True):
        if seen["output"] != plain["output"]:
            seen = dict(seen, ok=False, reason="traced output differs from untraced output")
        ops.append(seen)
    return ops


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    metrics: dict = {}
    if trace:
        metrics.update(import_times())
        setups = measure_setup(name, 1) if name == "nullcal" else []
        metrics["bayes.factorized.first_call_s"] = setups[0][1]["warmup_s"] if setups else 0.0
    else:
        setups = measure_setup(name, SETUP_REPEATS)
        metrics["setup_s"] = statistics.median(wall for wall, _ in setups)

    workload.prepare()
    workload.warm_up()
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        elapsed = time.perf_counter() - start
        if trace or elapsed + passes[-1].wall > seconds:
            break
    ops = [o for p in passes for o in p.ops]
    spans_file = None

    if trace:
        tracer = tracing.Tracer()
        with tracing.installed(tracer, tracing.SIMULATION_TARGETS):
            traced = workload.run_pass(tracer)
        spans = tracer.spans + traced.spans
        ops += compare_passes(passes[0], traced)
        metrics.update(tracing.layer_metrics(spans))
        metrics.update({k: 0.0 for k in PER_LAYER_EXTRAS if k not in metrics})
        metrics.update(passes[0].extras)
        metrics["trace.overhead_ratio"] = traced.wall / passes[0].wall
        spans_file = Path(RESULT_DIR) / f"spans-{name}.jsonl"
        (ROOT / RESULT_DIR).mkdir(exist_ok=True)
        tracing.write_spans(spans, ROOT / spans_file)
        units = per_layer_units()
    else:
        usage = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
        metrics["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
        metrics["throughput"] = workload.work_units() / median_pass_wall(passes)
        units = END_TO_END_UNITS

    failed = [{"op": o["op"], "reason": o["reason"]} for o in ops if not o["ok"]]
    return {
        "workload": name, "trace": int(trace), "seconds": seconds,
        "provenance": provenance(seed), "config": workload.config(),
        "work_per_pass": {"count": workload.work_units(), "unit": workload.unit},
        "setup_probes": [dict(probe, wall_s=wall) for wall, probe in setups],
        "pass_walls_s": [p.wall for p in passes],
        "spans_file": str(spans_file) if spans_file else None,
        "failed_ops": failed,
        "summary": {
            "correct": not failed, "attempted": len(ops), "failed": len(failed),
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
    }


def print_report(result: dict) -> None:
    summary = result["summary"]
    print(f"zicount benchmark: workload={result['workload']} "
          f"seed={result['provenance']['seed']} trace={result['trace']}")
    for name, metric in summary["metrics"].items():
        print(f"  {name:<46} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  operations: {summary['attempted']} attempted, {summary['failed']} failed")
    for failure in result["failed_ops"]:
        print(f"    FAILED {failure['op']}: {failure['reason']}")


def run_all(args) -> int:
    """Each workload untraced, then traced, each in its own process."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            summary = json.loads(proc.stdout.strip().splitlines()[-1])
            combined["correct"] &= summary["correct"]
            combined["attempted"] += summary["attempted"]
            combined["failed"] += summary["failed"]
            combined["metrics"].update({f"{name}.{k}": v for k, v in summary["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", "cli", "power", "nullcal"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "zicount" / "__init__.py").is_file():
        print("error: no zicount sources at src/zicount; run from the root of a "
              "zicount checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    (ROOT / RESULT_DIR).mkdir(exist_ok=True)
    detail = ROOT / RESULT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print_report(result)
    print(json.dumps({k: v for k, v in result.items() if k != "summary"}))
    print(json.dumps(result["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
