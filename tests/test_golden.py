"""Golden parity fixture: recorded outputs of the public numerical API.

``tests/data/golden_outputs.json`` holds values recorded from an earlier
revision of the package.  Outputs of seeded simulations must match them
exactly; every other number must agree within ``1e-12 * max(1, |x|)``.
Run this file as a script to re-record the fixture:

    PYTHONPATH=src python tests/test_golden.py

A re-record keeps every recorded ``close`` entry that still passes the
check, so only real changes (and new keys) reach the file, not last-digit
noise.  It prints each key whose value it changed, with the largest absolute
and relative move among its floats and every other entry that changed.
"""

import dataclasses
import enum
import json
import math
import pathlib
import warnings

import numpy as np

from zicount import (CountSample, Family, Method, PowerConfig, PriorKind,
                     PriorSpec, Sidedness, ZipsModel, expansion_inputs,
                     fisher_info, fisher_info_orthogonal, grad_log_prior,
                     load_dataset, log_likelihood, log_pmf, log_prior,
                     loglik_derivatives, lr_test, mle_full, mle_null, p_lower,
                     posterior_prob_positive, posterior_prob_positive_factorized,
                     run_power_study, sample_values, score_test,
                     uniformity_check)

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_outputs.json"
REL_TOL = 1e-12

SAMPLES = {
    "uti": load_dataset("uti"),
    "terror": load_dataset("terror"),
    "cholera": load_dataset("cholera"),
    "small": CountSample({0: 3, 1: 4, 2: 2, 5: 1}),
    "no_zeros": CountSample({1: 3, 2: 4, 4: 1}),
    "ones_with_zeros": CountSample({0: 4, 1: 6}),
    "ones_only": CountSample({1: 5}),
    "all_zero": CountSample({0: 5}),
}

THETAS = {Family.POISSON: (0.05, 0.7, 2.0, 9.0),
          Family.GEOMETRIC: (0.05, 0.4, 0.75, 0.97)}


def _models():
    for family, thetas in THETAS.items():
        for theta in thetas:
            lo = p_lower(family, theta)
            for p in (0.9 * lo, 0.5 * lo, 0.0, 0.3, 0.85):
                yield f"{family.value}/theta={theta}/p={p!r}", ZipsModel(family, p, theta)


def _plain(x):
    """JSON-ready copy of a result: dataclasses become dicts, enums values."""
    if dataclasses.is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, enum.Enum):
        return x.value
    if isinstance(x, np.ndarray):
        return _plain(x.tolist())
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, np.generic):
        return x.item()
    return x


def _call(fn, *args, **kwargs):
    try:
        return _plain(fn(*args, **kwargs))
    except Exception as err:  # the error type is part of the contract
        return {"error": type(err).__name__}


def _power_entry(grid) -> dict:
    return {
        "cells": {f"{m.value}/{t}/{p}/{n}": _plain(cell)
                  for (m, t, p, n), cell in sorted(
                      grid.cells.items(), key=lambda kv: kv[0][0].value)},
        "redraws": [[list(k), v] for k, v in sorted(grid.redraws.items())],
    }


def compute_outputs() -> dict:
    """All recorded outputs, split into exact (seeded) and close values."""
    exact, close = {}, {}
    ys = np.arange(9)
    for key, model in _models():
        close[f"log_pmf/{key}"] = _call(log_pmf, model, ys)
        close[f"fisher_info/{key}"] = _call(fisher_info, model)
        close[f"support_bound/{key}"] = [model.support_bound(eps)
                                         for eps in (1e-6, 1e-12, 1e-16, 1e-20)]
        close[f"p_lower/{key}"] = p_lower(model.family, model.theta)
        pstar = model.pzero
        close[f"fisher_info_orthogonal/{key}"] = _call(
            fisher_info_orthogonal, model.family, pstar, model.theta)
        for kind in PriorKind:
            spec = PriorSpec(kind, model.family)
            close[f"log_prior/{kind.value}/{key}"] = _call(
                log_prior, spec, model.p, model.theta)
            close[f"grad_log_prior/{kind.value}/{key}"] = _call(
                grad_log_prior, spec, model.p, model.theta)
        for name, sample in SAMPLES.items():
            close[f"log_likelihood/{name}/{key}"] = _call(log_likelihood, model, sample)
            close[f"loglik_derivatives/{name}/{key}"] = _call(
                loglik_derivatives, model.family, model.p, model.theta, sample)
        if model.p < 0.0 or model.p == 0.3:
            exact[f"sample_values/{key}"] = _call(
                sample_values, model, 50, np.random.default_rng(17))

    for family in Family:
        for name, sample in SAMPLES.items():
            key = f"{family.value}/{name}"
            close[f"mle_null/{key}"] = _call(mle_null, family, sample)
            close[f"mle_full/{key}"] = _call(mle_full, family, sample)
            for sided in Sidedness:
                close[f"score_test/{sided.value}/{key}"] = _call(
                    score_test, family, sample, sidedness=sided)
                close[f"lr_test/{sided.value}/{key}"] = _call(
                    lr_test, family, sample, sidedness=sided)
            close[f"factorized/{key}"] = _call(
                posterior_prob_positive_factorized, family, sample)
            close[f"expansion_inputs/{key}"] = _call(expansion_inputs, family, sample)
            for kind in PriorKind:
                spec = PriorSpec(kind, family)
                bucket = exact if kind is PriorKind.CONDITIONAL_JEFFREYS else close
                bucket[f"posterior_prob_positive/{kind.value}/{key}"] = _call(
                    posterior_prob_positive, family, sample, spec, B=2000, seed=3)

        config = PowerConfig(thetas=(THETAS[family][1],), ps=(0.3,), ns=(30,),
                             methods=tuple(Method), family=family, reps=100,
                             draws=500, seed=11)
        exact[f"power/{family.value}"] = _power_entry(run_power_study(config))
        report = uniformity_check(family, THETAS[family][1], 25, 50, seed=5)
        exact[f"uniformity/{family.value}"] = _plain(report)
        report = uniformity_check(family, THETAS[family][1], 25, 50, B=200, seed=5)
        exact[f"uniformity_is/{family.value}"] = _plain(report)
        # theta = 0.1 at n = 5: about 1.5 all-zero redraws per replication
        report = uniformity_check(family, 0.1, 5, 50, seed=5)
        exact[f"uniformity_redraws/{family.value}"] = _plain(report)

    # p = 0.9 at n = 10: about two all-zero redraws per replication
    config = PowerConfig(thetas=(0.5,), ps=(0.9,), ns=(10,), methods=tuple(Method),
                         family=Family.POISSON, reps=150, draws=200, seed=6)
    exact["power_redraws/poisson"] = _power_entry(run_power_study(config))
    return {"exact": exact, "close": close}


def _assert_same(got, want, path, exact):
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), path
        for k in want:
            _assert_same(got[k], want[k], f"{path}/{k}", exact)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{path}[{i}]", exact)
    elif isinstance(want, float) and not isinstance(want, bool):
        assert isinstance(got, (int, float)), path
        if math.isnan(want) or math.isinf(want) or exact:
            assert got == want or (math.isnan(want) and math.isnan(got)), \
                f"{path}: {got!r} != {want!r}"
        else:
            assert abs(got - want) <= REL_TOL * max(1.0, abs(want)), \
                f"{path}: {got!r} vs {want!r}"
    else:
        assert got == want, f"{path}: {got!r} != {want!r}"


def test_outputs_match_golden_fixture():
    want = json.loads(GOLDEN.read_text())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = json.loads(json.dumps(compute_outputs()))
    for bucket in ("exact", "close"):
        _assert_same(got[bucket], want[bucket], bucket, bucket == "exact")


def _passes(got, want) -> bool:
    try:
        _assert_same(got, want, "", exact=False)
    except AssertionError:
        return False
    return True


def _leaves(x, path=""):
    """``(path, value)`` for every scalar inside a recorded value."""
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _leaves(v, f"{path}/{k}")
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, x


def _move(new, old) -> str | None:
    """The largest absolute and relative moves of the floats from ``old`` to
    ``new``, and every other entry that changed; None when nothing did."""
    new, old = dict(_leaves(new)), dict(_leaves(old))
    if new.keys() != old.keys():
        return "entries added or removed"
    big_abs = big_rel = 0.0
    others = []
    for path, x in new.items():
        y = old[path]
        if x == y or (x != x and y != y):  # equal, or both NaN
            continue
        if isinstance(x, float) and isinstance(y, (int, float)) and not isinstance(y, bool):
            big_abs = max(big_abs, abs(x - y))
            big_rel = max(big_rel, abs(x - y) / abs(y) if y else math.inf)
        else:
            others.append(f"{path or 'value'} {y!r} -> {x!r}")
    moves = [f"max abs {big_abs:.3g}, max rel {big_rel:.3g}"] if big_abs else []
    return "; ".join(moves + others) or None


if __name__ == "__main__":
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        outputs = json.loads(json.dumps(compute_outputs()))
    if GOLDEN.exists():
        recorded = json.loads(GOLDEN.read_text())
        outputs["close"] = {k: recorded["close"][k]
                            if k in recorded["close"] and _passes(v, recorded["close"][k])
                            else v for k, v in outputs["close"].items()}
        for bucket in ("exact", "close"):
            old, new = recorded[bucket], outputs[bucket]
            for key in sorted(old.keys() | new.keys()):
                if key not in new or key not in old:
                    print(f"{bucket}/{key}: {'removed' if key in old else 'new'}")
                elif (move := _move(new[key], old[key])) is not None:
                    print(f"{bucket}/{key}: {move}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
