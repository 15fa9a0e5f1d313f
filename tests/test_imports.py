"""Import weight of the package and of the light CLI commands.

``tests/conftest.py`` imports ``scipy.stats`` into the test process, and one
command's imports would be charged to every later command in a shared
interpreter, so each check runs in a fresh interpreter and reports what that
interpreter loaded.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# modules that cost start-up time and that the light commands never use
HEAVY = ("scipy.stats", "scipy.integrate", "scipy.interpolate",
         "scipy.optimize", "concurrent.futures.process")

LIGHT_COMMANDS = (
    ["--version"],
    ["test", "--dataset", "uti"],
    ["test", "--dataset", "uti", "--method", "score"],
    ["test", "--dataset", "uti", "--method", "lr"],
    ["test", "--dataset", "uti", "--method", "bayes"],
    ["interval", "--dataset", "uti", "--model", "geometric"],
    ["interval", "--dataset", "uti"],
    ["interval", "--dataset", "terror", "--kind", "hpd"],
    ["posterior", "--dataset", "cholera", "--out", "{tmp}/density.csv"],
)

# commands that load no SciPy at all
SCIPY_FREE_COMMANDS = (["--version"], ["datasets", "list"])

# commands that the parser, or the bundled frequency tables, answer before
# any model module loads, with their exit codes
NUMPY_FREE_COMMANDS = (
    (["--version"], 0),
    (["--help"], 0),
    (["test", "--help"], 0),
    (["test", "--dataset", "uti", "--alpha", "2"], 2),
    (["datasets", "list"], 0),
    (["datasets", "show"], 0),
    (["datasets", "export"], 0),
)

COMMAND = """
import contextlib, io, json, sys
from zicount.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(json.loads(sys.argv[1]))
    except SystemExit as exc:  # --version exits from argparse
        code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""


def _run(code: str, *args: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout


def _loaded(code: str) -> list[str]:
    """Modules loaded by a fresh interpreter that runs ``code``."""
    return json.loads(_run(code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"))


def _command(argv: list[str]) -> tuple[int, list[str]]:
    """Exit code of ``zicount argv`` and the modules its interpreter loaded."""
    code, modules = json.loads(_run(COMMAND, json.dumps(argv)))
    return code, modules


def _scipy(modules) -> list[str]:
    return [name for name in modules if name == "scipy" or name.startswith("scipy.")]


def _numpy_or_scipy(modules) -> list[str]:
    return [name for name in modules if name.split(".")[0] in ("numpy", "scipy")]


def test_package_import_loads_neither_numpy_nor_scipy():
    modules = _loaded("import zicount")
    assert [name for name in modules if name.split(".")[0] in ("numpy", "scipy")] == []


def test_cli_import_loads_neither_numpy_nor_model_modules():
    modules = _loaded("from zicount.cli import main")
    assert _numpy_or_scipy(modules) == []
    assert sorted(name for name in modules if name.startswith("zicount.")) == [
        "zicount.cli", "zicount.datasets", "zicount.errors", "zicount.limits"]


@pytest.mark.parametrize("argv, exit_code", NUMPY_FREE_COMMANDS,
                         ids=[" ".join(argv) for argv, _ in NUMPY_FREE_COMMANDS])
def test_parser_answers_without_numpy(argv, exit_code):
    code, modules = _command(argv)
    assert code == exit_code
    assert _numpy_or_scipy(modules) == []


def test_module_entry_point_runs_main_without_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "zicount", "--version"],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    # -X importtime writes "import time: self | cumulative | module" lines
    modules = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
               if line.startswith("import time:")]
    assert proc.stdout.startswith("zicount ")
    assert "zicount.cli" in modules
    assert _numpy_or_scipy(modules) == []


def test_cli_import_loads_no_scipy_and_no_asymptotics():
    modules = _loaded("from zicount.cli import main")
    assert _scipy(modules) == []
    assert "zicount.asymptotics" not in modules


@pytest.mark.parametrize("argv", SCIPY_FREE_COMMANDS, ids=" ".join)
def test_light_command_loads_no_scipy(argv):
    code, modules = _command(argv)
    assert code == 0
    assert _scipy(modules) == []


@pytest.mark.parametrize("argv", LIGHT_COMMANDS, ids=" ".join)
def test_light_command_loads_no_heavy_module(tmp_path, argv):
    code, modules = _command([arg.format(tmp=tmp_path) for arg in argv])
    assert code == 0
    assert [name for name in HEAVY if name in modules] == []


def test_special_functions_are_called_on_scipy_special_itself():
    # after the first call the stand-in has swapped the module into the
    # caller's globals, so no call goes through a wrapper
    code = ("import scipy.special, zicount\n"
            "zicount.score_test(zicount.Family.POISSON, zicount.load_dataset('uti'))\n"
            "print(zicount.frequentist.special is scipy.special)")
    assert _run(code).strip() == "True"


def test_every_export_is_its_submodules_own_object():
    code = ("import importlib, json, zicount\n"
            "found = {}\n"
            "for name in zicount.__all__:\n"
            "    value = getattr(zicount, name)\n"
            "    module = importlib.import_module('zicount.' + zicount._EXPORTS[name])\n"
            "    home = getattr(value, '__module__', module.__name__)\n"
            "    found[name] = value is getattr(module, name) and home == module.__name__\n"
            "print(json.dumps(found))")
    found = json.loads(_run(code))
    assert [name for name, ok in found.items() if not ok] == []


def test_dir_and_star_import_cover_all():
    code = ("import json, zicount\n"
            "listed = dir(zicount)\n"
            "namespace = {}\n"
            "exec('from zicount import *', namespace)\n"
            "print(json.dumps([[n for n in zicount.__all__ if n not in listed],\n"
            "                  [n for n in zicount.__all__ if n not in namespace],\n"
            "                  sorted(zicount._EXPORTS) == sorted(zicount.__all__)]))")
    assert json.loads(_run(code)) == [[], [], True]


def test_unknown_name_raises_attribute_error():
    code = ("import zicount\n"
            "try:\n"
            "    zicount.no_such_name\n"
            "except AttributeError as err:\n"
            "    print(err)\n"
            "print(hasattr(zicount, 'no_such_name'))")
    assert _run(code).splitlines() == [
        "module 'zicount' has no attribute 'no_such_name'", "False"]


def test_submodules_resolve_as_attributes():
    code = ("import sys, zicount\n"
            "print(zicount.power.MIN_REPS, 'zicount.asymptotics' in sys.modules)")
    assert _run(code).strip() == "100 False"


def test_factorized_t_loads_no_linear_algebra():
    # the theta rule's Gauss-Legendre table comes from numpy, not scipy.linalg
    code = ("import sys\n"
            "from zicount import Family, load_dataset, posterior_prob_positive_factorized\n"
            "posterior_prob_positive_factorized(Family.POISSON, load_dataset('terror'))\n"
            "print('scipy.linalg' in sys.modules)")
    assert _run(code).strip() == "False"


def test_draw_based_hpd_loads_no_root_finder():
    # the endpoints bisect inside a grid cell with the package's own Newton
    code = ("import sys\n"
            "from zicount import Family, draw_posterior, hpd_interval, load_dataset\n"
            "sample = load_dataset('uti')\n"
            "draws = draw_posterior(Family.POISSON, sample, B=2000, seed=1)\n"
            "print(hpd_interval(draws, sample, 0.95).note, 'scipy.optimize' in sys.modules)")
    assert _run(code).strip() == "None False"


def test_package_loads_no_quadpack():
    # deterministic T under either prior runs on the theta rule; the 2-D
    # wedge quadrature is a test oracle, so no submodule needs scipy.integrate
    code = ("import importlib, pkgutil, sys, zicount\n"
            "for info in pkgutil.iter_modules(zicount.__path__):\n"
            "    if info.name != '__main__':\n"
            "        importlib.import_module('zicount.' + info.name)\n"
            "sample = zicount.load_dataset('uti')\n"
            "for prior in zicount.PriorKind:\n"
            "    zicount.posterior_prob_positive_quadrature(zicount.Family.POISSON, sample, prior)\n"
            "print('scipy.integrate' in sys.modules)")
    assert _run(code).strip() == "False"
