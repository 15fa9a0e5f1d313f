"""Span recording for the traced benchmark run.

Spans are recorded by timing wrappers that the benchmark installs on the
names each calling module looks up (``zicount.power.sample_values``,
``zicount.cli.hpd_interval`` and so on), so nothing under ``src/`` changes
and the untraced run executes the program exactly as shipped.  Each span is
``(id, name, start, end, parent, op, attrs)``: ``parent`` is the id of the
enclosing span in the same process, ``op`` the operation the span belongs to
(one CLI command, one power-grid call, one null-calibration call) and
``attrs`` the counts read from the call's arguments and return value.
Spans stay in memory until the run ends and are written out once.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, op=None):
        self.spans: list[tuple] = []
        self.op = op
        self._stack: list[int] = []

    def wrap(self, name: str, fn, annotate=None):
        """Return ``fn`` wrapped so that each call records one span."""

        def traced(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)  # reserve the id before children run
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                attrs = annotate(args, kwargs, result) if annotate and result is not None else None
                self.spans[span_id] = (span_id, name, start, end, parent, self.op, attrs)

        return traced


def write_spans(spans, path) -> None:
    """Write spans as JSON lines with named fields."""
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, name, start, end, parent, op, attrs in spans:
            handle.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "attrs": attrs}) + "\n")


def _sample_key(args, kwargs):
    sample = args[1] if len(args) > 1 else kwargs["sample"]
    return [sample.n, sample.n0, sample.s]


def _t_attrs(args, kwargs, result):
    return {"key": _sample_key(args, kwargs)}


def _is_attrs(args, kwargs, result):
    return {"key": _sample_key(args, kwargs), "ess_ratio": result.ess / result.draws}


def _mle_attrs(args, kwargs, result):
    return {"iterations": result.iterations}


# (module, attribute, span name, annotate): the lookups each caller makes.
# A function appears once per module that imported it by name, because a
# wrapper on the defining module is invisible to a caller holding its own
# reference.
SIMULATION_TARGETS = (
    ("zicount.power", "sample_values", "distributions.sample_values", None),
    ("zicount.asymptotics", "sample_values", "distributions.sample_values", None),
    ("zicount.power", "_score_statistic", "frequentist.score_statistic", None),
    ("zicount.power", "_lr_statistic_stats", "power.lr_statistic", None),
    ("zicount.power", "posterior_prob_positive", "bayes.posterior_prob_positive", _is_attrs),
    ("zicount.asymptotics", "posterior_prob_positive_factorized", "bayes.factorized", _t_attrs),
)

CLI_TARGETS = (
    ("zicount.cli", "load_counts", "datasets.load_counts", None),
    ("zicount.cli", "load_dataset", "datasets.load_dataset", None),
    ("zicount.cli", "score_test", "frequentist.score_test", None),
    ("zicount.cli", "lr_test", "frequentist.lr_test", None),
    ("zicount.cli", "mle_null", "frequentist.mle_null", None),
    ("zicount.cli", "mle_full", "frequentist.mle_full", _mle_attrs),
    ("zicount.frequentist", "mle_full", "frequentist.mle_full", _mle_attrs),
    ("zicount.cli", "posterior_prob_positive", "bayes.posterior_prob_positive", _is_attrs),
    ("zicount.bayes", "posterior_prob_positive", "bayes.posterior_prob_positive", _is_attrs),
    ("zicount.cli", "bayes_factor_positive", "bayes.bayes_factor_positive", None),
    ("zicount.cli", "draw_posterior", "bayes.draw_posterior", None),
    ("zicount.cli", "credible_interval", "bayes.credible_interval", None),
    ("zicount.cli", "hpd_interval", "bayes.hpd_interval", None),
    ("zicount.cli", "density_curve", "bayes.density_curve", None),
)


@contextmanager
def installed(tracer: Tracer, targets):
    """Install wrappers for ``targets`` (plus ``CountSample.from_values``)
    and restore the original attributes on exit."""
    from zicount.distributions import CountSample

    saved = []
    try:
        for module_name, attr, name, annotate in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, annotate))
        original_from_values = CountSample.__dict__["from_values"]
        saved.append((CountSample, "from_values", original_from_values))
        CountSample.from_values = staticmethod(
            tracer.wrap("distributions.from_values", CountSample.from_values))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics from spans

TIMED_LAYERS = (
    "datasets.load_counts", "distributions.sample_values",
    "distributions.from_values", "frequentist.score_test",
    "frequentist.lr_test", "frequentist.mle_full",
    "frequentist.score_statistic", "power.lr_statistic",
    "bayes.posterior_prob_positive", "bayes.bayes_factor_positive",
    "bayes.factorized", "bayes.draw_posterior", "bayes.hpd_interval",
    "bayes.density_curve", "bayes.credible_interval",
)
COUNTED_LAYERS = (
    "distributions.sample_values", "distributions.from_values",
    "frequentist.score_statistic", "power.lr_statistic",
    "bayes.posterior_prob_positive", "bayes.factorized",
)
SELF_TIMED = {
    "cli.main.self_s": ("cli.main",),
    "asymptotics.self_s": ("asymptotics.uniformity_check",
                           "asymptotics.beta_calibration"),
    "power.run_power_study.self_s": ("power.run_power_study",),
}
DISTINCT_NS = (20, 50, 100, 400, 5000)


def self_times(spans) -> dict:
    """Span id -> duration minus the time its direct children cover.

    Spans are keyed per process by ``(op, id)``; children run one after
    another on one thread, so their durations add without overlap.
    """
    child_time: dict = {}
    for span_id, _, start, end, parent, op, _ in spans:
        if parent is not None:
            child_time[(op, parent)] = child_time.get((op, parent), 0.0) + (end - start)
    return {(op, span_id): (end - start) - child_time.get((op, span_id), 0.0)
            for span_id, _, start, end, _, op, _ in spans}


def layer_metrics(spans) -> dict:
    """Per-layer totals, counts and ratios; zero where a layer never ran."""
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
    total = lambda name: sum(end - start for _, _, start, end, *_ in by_name.get(name, ()))
    out = {f"{name}.s": total(name) for name in TIMED_LAYERS}
    out.update({f"{name}.calls": len(by_name.get(name, ())) for name in COUNTED_LAYERS})
    selfs = self_times(spans)
    for metric, names in SELF_TIMED.items():
        out[metric] = sum(selfs[(span[5], span[0])]
                          for name in names for span in by_name.get(name, ()))
    attrs = lambda name: [span[6] for span in by_name.get(name, ()) if span[6]]
    out["frequentist.mle_full.iterations"] = sum(
        a["iterations"] for a in attrs("frequentist.mle_full"))
    ess = [a["ess_ratio"] for a in attrs("bayes.posterior_prob_positive")]
    out["bayes.posterior_prob_positive.ess_ratio_p50"] = statistics.median(ess) if ess else 0.0
    keys = [tuple(a["key"]) for name in ("bayes.posterior_prob_positive", "bayes.factorized")
            for a in attrs(name)]
    out["bayes.distinct_inputs_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
    for n in DISTINCT_NS:
        at_n = [key for key in keys if key[0] == n]
        out[f"bayes.distinct_inputs_ratio.n{n}"] = len(set(at_n)) / len(at_n) if at_n else 0.0
    return out
