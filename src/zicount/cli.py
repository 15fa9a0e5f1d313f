"""Command line interface.

Subcommands: ``test`` (score, likelihood ratio, Bayes tests), ``interval``
(equal-tail or HPD credible interval for the weight), ``posterior`` (density
curve export as CSV), ``power`` (simulation grid driver) and ``datasets``
(bundled data).  Reports print as text or JSON with identical numbers.  Only
``power`` draws random numbers, from an explicit or auto-generated seed;
every report echoes the seed, which the other commands take only to echo.

Exit codes: 0 success, 1 internal error, 2 bad input or degenerate data.

At import this module loads only the standard library and the numpy-free
modules ``errors``, ``datasets`` and ``limits``, so ``--version``,
``--help``, usage errors and the ``datasets`` command load no numpy.
Every name of the package's export table ``zicount._EXPORTS`` resolves here
on first use (PEP 562): each command binds the exports of the modules it
runs, and a name already bound, such as a timing wrapper or a test double set
on this module, stays bound.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time

from . import _EXPORTS, __version__
from .datasets import (dataset_names, dataset_table, format_freq_csv,
                       load_counts, load_dataset)
from .errors import ZicountError
from .limits import MIN_CURVE_POINTS, MIN_REPS

def _bind(*modules: str) -> None:
    """Bind in this module the package's exports defined in ``modules``,
    except those already bound."""
    namespace = globals()
    for name, module in _EXPORTS.items():
        if module in modules and name not in namespace:
            namespace[name] = getattr(importlib.import_module(f"{__package__}.{module}"), name)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind(_EXPORTS[name])
    return globals()[name]


SCHEMA_VERSION = 1
# --seed help of test, interval and posterior, kept because reports carry a seed
_SEED_ECHOED = "only echoed back: this command draws no random numbers"


def _fmt(x) -> str:
    if x is None:
        return "-"
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, float):
        return f"{x:.4g}"
    return str(x)


def _auto_seed(value) -> int:
    if value is not None:
        return int(value)
    import secrets

    # 128 bits, the entropy numpy's SeedSequence() draws, reduced to a seed
    return secrets.randbits(128) % (2 ** 31)


def _load_sample(args) -> tuple[CountSample, str]:
    if args.dataset:
        return load_dataset(args.dataset), args.dataset
    return load_counts(args.data), str(args.data)


def _report_skeleton(command: str, name: str, sample: CountSample, args,
                     seed: int) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "zicount", "version": __version__},
        "command": command,
        "dataset": {
            "name": name,
            "n": sample.n,
            "n0": sample.n0,
            "sum": sample.s,
            "mean": sample.ybar,
            "freq": {str(v): c for v, c in sample.items()},
        },
        "model": args.model,
        "seed": seed,
    }


def validate_report(report: dict) -> None:
    """Check a JSON report against the published schema (raises on failure)."""
    required = {"schema_version": int, "tool": dict, "command": str,
                "dataset": dict, "model": str, "seed": int,
                "elapsed_seconds": float}
    for key, kind in required.items():
        if key not in report:
            raise ValueError(f"report missing required key {key!r}")
        if not isinstance(report[key], kind):
            raise ValueError(f"report key {key!r} has wrong type")
    for key in ("name", "n", "n0", "sum", "mean", "freq"):
        if key not in report["dataset"]:
            raise ValueError(f"dataset summary missing {key!r}")
    if report["schema_version"] != SCHEMA_VERSION:
        raise ValueError("unsupported schema version")


def _test_entry(report_obj) -> dict:
    return {
        "statistic": report_obj.statistic,
        "alpha": report_obj.alpha,
        "reject": report_obj.reject,
        "sidedness": report_obj.sidedness.value,
        "signed_root": report_obj.signed_root,
        "p_value": report_obj.p_value,
    }


def _mle_entry(fit) -> dict:
    return {"p_hat": None if fit.p_hat != fit.p_hat else fit.p_hat,
            "theta_hat": fit.theta_hat, "loglik": fit.loglik,
            "converged": fit.converged, "iterations": fit.iterations,
            "boundary": fit.boundary}


def _print_test_text(report: dict) -> None:
    ds = report["dataset"]
    print(f"zicount {report['tool']['version']}  seed={report['seed']}")
    print(f"dataset {ds['name']}: n={ds['n']} zeros={ds['n0']} "
          f"sum={ds['sum']} mean={_fmt(ds['mean'])}")
    print(f"model: {report['model']}")
    for name, entry in report["results"].items():
        if name == "bayes_factor":
            note = " (non-authoritative posterior-odds construction)"
            bound = ", lower bound" if entry["lower_bound"] else ""
            print(f"bayes factor for positive weight: {_fmt(entry['value'])}"
                  f"{bound}{note}")
            print(f"  prior P(p>0)={_fmt(entry['prior_prob'])} on theta window "
                  f"({_fmt(entry['theta_window'][0])}, {_fmt(entry['theta_window'][1])})")
            continue
        parts = [f"{name} test: statistic={_fmt(entry['statistic'])}"]
        if "p_value" in entry:
            parts.append(f"p-value={_fmt(entry['p_value'])}")
        if "posterior_prob" in entry:
            parts.append(f"P(p>0|data)={_fmt(entry['posterior_prob'])}")
        parts.append(f"reject at alpha={_fmt(entry['alpha'])}: {_fmt(entry['reject'])}")
        print("  ".join(parts))
    if "mle" in report:
        full = report["mle"]["full"]
        null = report["mle"]["null"]
        print(f"mle (null): theta={_fmt(null['theta_hat'])} "
              f"loglik={_fmt(null['loglik'])}")
        print(f"mle (full): p={_fmt(full['p_hat'])} theta={_fmt(full['theta_hat'])} "
              f"loglik={_fmt(full['loglik'])}"
              + (" [boundary]" if full["boundary"] else ""))


def _emit(report: dict, out_format: str) -> None:
    if out_format == "json":
        print(json.dumps(report, indent=2))
    else:
        _print_test_text(report)


def _cmd_test(args) -> int:
    _bind("bayes", "distributions", "frequentist")
    family = Family(args.model)
    sample, name = _load_sample(args)
    seed = _auto_seed(args.seed)
    sided = Sidedness.ONE_SIDED if args.sided == "one" else Sidedness.TWO_SIDED
    t0 = time.perf_counter()
    report = _report_skeleton("test", name, sample, args, seed)
    report["alpha"] = args.alpha
    report["sided"] = args.sided
    results: dict = {}
    if args.method in ("score", "all"):
        results["score"] = _test_entry(score_test(family, sample, args.alpha, sided))
    if args.method in ("lr", "all"):
        results["lr"] = _test_entry(lr_test(family, sample, args.alpha, sided))
    if args.method in ("bayes", "all"):
        from .bayes import _FACTORIZED_T_ACCURACY, _bayes_factor_from

        t = posterior_prob_positive_factorized(family, sample)
        # T is exact, so mc_se and ess are 0.0, kept because perfbench/checks.py reads them
        results["bayes"] = {
            "statistic": t, "posterior_prob": t, "mc_se": 0.0, "ess": 0.0, "alpha": args.alpha,
            "reject": t > 1.0 - args.alpha, "sidedness": "one",
        }
        bf = _bayes_factor_from(t, _FACTORIZED_T_ACCURACY, family)
        results["bayes_factor"] = {
            "value": bf.value, "posterior_prob": bf.posterior_prob,
            "prior_prob": bf.prior_prob, "theta_window": list(bf.theta_window),
            "lower_bound": bf.lower_bound, "non_authoritative": True,
        }
    report["results"] = results
    report["mle"] = {"null": _mle_entry(mle_null(family, sample)),
                     "full": _mle_entry(mle_full(family, sample))}
    report["elapsed_seconds"] = time.perf_counter() - t0
    _emit(report, args.out)
    return 0


def _cmd_interval(args) -> int:
    _bind("bayes", "distributions")
    family = Family(args.model)
    sample, name = _load_sample(args)
    seed = _auto_seed(args.seed)
    t0 = time.perf_counter()
    kind = IntervalKind.EQUAL_TAIL if args.kind == "equal" else IntervalKind.HPD
    est = exact_marginal(family, sample).interval(args.level, kind)
    report = _report_skeleton("interval", name, sample, args, seed)
    entry = {"kind": est.kind.value, "method": "exact", "level": est.level,
             "lower": est.lower, "upper": est.upper}
    if est.density_threshold is not None:
        entry["density_threshold"] = est.density_threshold
    if est.note:
        entry["note"] = est.note
    report["intervals"] = [entry]
    report["elapsed_seconds"] = time.perf_counter() - t0
    if args.out == "json":
        print(json.dumps(report, indent=2))
    else:
        print(f"zicount {__version__}  seed={seed}")
        label = "equal-tail" if est.kind is IntervalKind.EQUAL_TAIL else "HPD"
        line = (f"{name}: {_fmt(est.level)} exact {label} interval for the "
                f"zero-inflation weight: ({_fmt(est.lower)}, {_fmt(est.upper)})")
        if est.density_threshold is not None:
            line += f"  density threshold {_fmt(est.density_threshold)}"
        print(line)
        if est.note:
            print(f"note: {est.note}")
    return 0


def _cmd_posterior(args) -> int:
    _bind("bayes", "distributions")
    family = Family(args.model)
    sample, name = _load_sample(args)
    seed = _auto_seed(args.seed)
    grid, dens = exact_marginal(family, sample).curve(args.grid_points)
    lines = ["p,density"]
    lines.extend(f"{p:.8g},{d:.8g}" for p, d in zip(grid, dens))
    text = "\n".join(lines) + "\n"
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"zicount {__version__}  seed={seed}")
    print(f"wrote {len(grid)} exact density points for {name} to {args.out}")
    return 0


def _parse_grid_values(text: str, cast):
    try:
        values = tuple(cast(piece) for piece in text.split(",") if piece.strip())
    except ValueError as err:
        raise ValueError(f"bad grid list {text!r}: {err}") from None
    if not values:
        raise ValueError(f"empty grid list {text!r}")
    return values


def _whole(value) -> int:
    """``int(value)`` of a decimal string, or of a number only when it is
    integral."""
    whole = int(value)
    if not isinstance(value, str) and whole != value:
        raise ValueError(f"{value!r} is not an integer")
    return whole


def _config_value(key: str, value, cast):
    """A configuration file's ``value`` for ``key``, cast as its flag is."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ValueError(f"config key {key!r}: {err}") from None


def _cmd_power(args) -> int:
    _bind("distributions", "power")
    raw = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        if not isinstance(raw, dict):
            raise ValueError(f"{args.config} must hold a JSON object, "
                             f"not a {type(raw).__name__}")
    # flags supply every key the configuration file omits; each value is cast
    # as its flag is
    fields = {}
    for key, cast in (("thetas", float), ("ps", float), ("ns", _whole), ("methods", Method)):
        if key in raw:
            if not isinstance(raw[key], list):
                raise ValueError(f"config key {key!r} must be a JSON list, got {raw[key]!r}")
            fields[key] = tuple(_config_value(key, value, cast) for value in raw[key])
        elif getattr(args, key) is not None:
            fields[key] = _parse_grid_values(getattr(args, key), cast)
    if not all(key in fields for key in ("thetas", "ps", "ns")):
        raise ValueError("give --config or all of --thetas, --ps, --ns")
    for key, cast, default in (("family", Family, args.model), ("reps", _whole, args.reps),
                               ("draws", _whole, args.draws), ("alpha", float, args.alpha),
                               ("seed", _whole, _auto_seed(args.seed))):
        fields[key] = _config_value(key, raw[key], cast) if key in raw else cast(default)
    # every key read above is in fields by now
    unknown = sorted(set(raw) - set(fields))
    if unknown:
        raise ValueError(f"{args.config}: unknown config key {', '.join(map(repr, unknown))}")
    config = PowerConfig(**fields)
    if args.compare_reference:
        if config.family is not Family.POISSON or config.alpha != 0.05:
            raise ValueError("--compare-reference: the bundled reference tables "
                             "cover the Poisson family at alpha = 0.05 only")
        reference = dict(REFERENCE_POWER_ONE_SIDED)
        reference.update({k: v for k, v in REFERENCE_POWER_TWO_SIDED.items()
                          if k[0] is not Method.BAYES})
        combos = set(config.combos())
        covered = {k: v for k, v in reference.items()
                   if k[0] in config.methods and k[1:] in combos}
        if not covered:
            raise ValueError("grid does not cover any bundled reference cells")

    print(f"zicount {__version__}  seed={config.seed}  reps={config.reps} "
          f"draws={config.draws} alpha={config.alpha}", flush=True)
    grid = run_power_study(config, n_jobs=args.jobs, progress=True)
    print(grid.format_table())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(grid.to_csv())
        print(f"wrote CSV to {args.out}")
    total_redraws = sum(grid.redraws.values())
    if total_redraws:
        print(f"redrew {total_redraws} all-zero replications")
    if args.compare_reference:
        report = compare_tables(grid, covered)
        print(report.summary())
        for row in report.rows:
            if row.flagged:
                print(f"  flagged {row.method.value} theta={row.theta} "
                      f"p={row.p} n={row.n}: {row.power:.3f} vs "
                      f"reference {row.reference:.3f}")
    return 0


def _cmd_datasets(args) -> int:
    if args.action == "list":
        for name in dataset_names():
            sample = load_dataset(name)
            print(f"{name}: n={sample.n} zeros={sample.n0} sum={sample.s}")
        return 0
    if args.name:
        names = [args.name]
    else:
        names = dataset_names()
    for i, name in enumerate(names):
        if i:
            print()
        if args.action == "show":
            print(dataset_table(name))
        else:  # export
            sys.stdout.write(format_freq_csv(load_dataset(name)))
    return 0


def _probability(text: str) -> float:
    value = float(text)
    if not (0.0 < value < 1.0):
        raise argparse.ArgumentTypeError(
            f"{text!r} must be strictly between 0 and 1")
    return value


def _at_least(low: int):
    """argparse type: an integer of at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{text!r} must be at least {low}")
        return value

    return parse


def _add_data_options(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", help="path to a count file")
    group.add_argument("--dataset", choices=dataset_names(),
                       help="bundled dataset name")
    parser.add_argument("--model", choices=("poisson", "geometric"),
                        default="poisson", help="base count family")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zicount",
        description="Tests and Bayesian inference for excess zeros in count data")
    parser.add_argument("--version", action="version",
                        version=f"zicount {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_test = sub.add_parser("test", help="run zero-inflation tests")
    _add_data_options(p_test)
    p_test.add_argument("--method", choices=("score", "lr", "bayes", "all"),
                        default="all")
    p_test.add_argument("--alpha", type=_probability, default=0.05)
    p_test.add_argument("--sided", choices=("one", "two"), default="one")
    p_test.add_argument("--seed", type=int, default=None, help=_SEED_ECHOED)
    p_test.add_argument("--out", choices=("json", "text"), default="text")
    p_test.set_defaults(func=_cmd_test)

    p_int = sub.add_parser("interval", help="credible interval for the weight")
    _add_data_options(p_int)
    p_int.add_argument("--kind", choices=("equal", "hpd"), default="equal")
    p_int.add_argument("--level", type=_probability, default=0.95)
    p_int.add_argument("--seed", type=int, default=None, help=_SEED_ECHOED)
    p_int.add_argument("--out", choices=("json", "text"), default="text")
    p_int.set_defaults(func=_cmd_interval)

    p_post = sub.add_parser("posterior", help="export the posterior density curve")
    _add_data_options(p_post)
    p_post.add_argument("--grid-points", type=_at_least(MIN_CURVE_POINTS), default=512)
    p_post.add_argument("--seed", type=int, default=None, help=_SEED_ECHOED)
    p_post.add_argument("--out", required=True, help="output CSV path")
    p_post.set_defaults(func=_cmd_posterior)

    p_pow = sub.add_parser("power", help="rejection-rate simulation grid")
    p_pow.add_argument("--config", help="JSON grid configuration file")
    p_pow.add_argument("--thetas", help="comma separated theta grid")
    p_pow.add_argument("--ps", help="comma separated weight grid")
    p_pow.add_argument("--ns", help="comma separated sample sizes")
    p_pow.add_argument("--methods", default="score1,bayes,lr1",
                       help="comma separated subset of score1,score2,lr1,lr2,bayes")
    p_pow.add_argument("--model", choices=("poisson", "geometric"),
                       default="poisson")
    p_pow.add_argument("--reps", type=_at_least(MIN_REPS), default=2000)
    p_pow.add_argument("--draws", type=_at_least(1), default=2000)
    p_pow.add_argument("--alpha", type=_probability, default=0.05)
    p_pow.add_argument("--seed", type=int, default=None)
    p_pow.add_argument("--jobs", type=_at_least(1), default=1)
    p_pow.add_argument("--out", help="CSV output path")
    p_pow.add_argument("--compare-reference", "--compare-paper",
                       dest="compare_reference", action="store_true",
                       help="compare computed powers against the bundled "
                            "reference values")
    p_pow.set_defaults(func=_cmd_power)

    p_data = sub.add_parser("datasets", help="bundled datasets")
    p_data.add_argument("action", choices=("list", "show", "export"))
    p_data.add_argument("name", nargs="?", choices=dataset_names())
    p_data.set_defaults(func=_cmd_datasets)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # bad input; DegenerateSampleError and ParameterRangeError are ValueErrors
    except (ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ZicountError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
