"""Fresh-interpreter entry points the benchmark starts as child processes.

    python3 perfbench/child.py setup WORKLOAD
        import zicount and make the workload's warm-up call; print the
        in-process import and warm-up times as JSON.

    python3 perfbench/child.py cli SPANS_PATH ARG...
        run ``zicount ARG...`` with timing wrappers installed and write the
        spans to SPANS_PATH as JSON; exit with the command's exit code.

Both expect ``src`` of the checkout on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import sys
import time

# the bundled uti data: the warm-up input for every workload
WARMUP_FREQ = {0: 81, 1: 9, 2: 7, 3: 1}


def setup(workload: str) -> None:
    start = time.perf_counter()
    if workload == "cli":
        from zicount.cli import main  # noqa: F401  (what every command imports)
        imported = time.perf_counter()
    else:
        from zicount import (CountSample, Family, posterior_prob_positive,
                             posterior_prob_positive_factorized)
        imported = time.perf_counter()
        sample = CountSample(dict(WARMUP_FREQ))
        if workload == "power":
            posterior_prob_positive(Family.POISSON, sample, B=2000, seed=1)
        else:
            posterior_prob_positive_factorized(Family.POISSON, sample)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "warmup_s": done - imported}))


def traced_cli(spans_path: str, argv: list[str]) -> int:
    import tracing
    import zicount.cli

    tracer = tracing.Tracer()
    with tracing.installed(tracer, tracing.CLI_TARGETS):
        try:
            return tracer.wrap("cli.main", zicount.cli.main)(argv)
        finally:
            with open(spans_path, "w", encoding="utf-8") as handle:
                json.dump(tracer.spans, handle)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2])
    elif sys.argv[1] == "cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
