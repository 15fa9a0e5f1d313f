"""Names that the benchmark's traced run wraps on the package's modules.

``perfbench/tracing.py`` times each layer by replacing a module attribute
(such as ``zicount.power._score_statistic``) with a wrapper.  A renamed or
dropped attribute breaks the traced run, and a caller that bound the
function before the wrapper went in hides its layer, so both are checked.
"""

import importlib
import importlib.util
import pathlib
import warnings

import pytest

from zicount import Family, Method, PowerConfig, run_power_study, uniformity_check
from zicount.cli import main

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module_name, attr",
                         [target[:2] for target in
                          tracing.SIMULATION_TARGETS + tracing.CLI_TARGETS],
                         ids=lambda x: x)
def test_traced_name_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_simulation_layers_are_traced():
    tracer = tracing.Tracer()
    config = PowerConfig(thetas=(1.0,), ps=(0.3,), ns=(20,), methods=tuple(Method),
                         reps=100, draws=100, seed=2)
    with tracing.installed(tracer, tracing.SIMULATION_TARGETS), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_power_study(config)
        null_start = len(tracer.spans)
        uniformity_check(Family.POISSON, 1.0, 20, reps=10, seed=2)
    names = {span[1] for span in tracer.spans}
    # null calibration computes factorized T in one batched call, not per sample
    null_names = {span[1] for span in tracer.spans[null_start:]}
    assert null_names == {"distributions.sample_values"}
    # the power study's Bayes column runs the sampling kernel on (n, n0, s),
    # with no CountSample and no call of posterior_prob_positive
    assert names == {"distributions.sample_values", "frequentist.score_statistic",
                     "power.lr_statistic"}


def test_cli_layers_are_traced(capsys):
    # the command binds its model names on first use; that binding must not
    # replace the wrappers installed on zicount.cli
    tracer = tracing.Tracer()
    with tracing.installed(tracer, tracing.CLI_TARGETS), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["test", "--dataset", "uti", "--method", "all", "--seed", "1"]) == 0
    names = {span[1] for span in tracer.spans}
    assert {"datasets.load_dataset", "frequentist.score_test", "frequentist.lr_test"} <= names
