"""Import weight of the package and of the light CLI commands.

``tests/conftest.py`` imports ``scipy.stats`` into the test process, so each
check runs in a fresh interpreter and reports what that interpreter loaded.
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
    ["interval", "--dataset", "uti", "--model", "geometric"],
    ["interval", "--dataset", "uti"],
    ["interval", "--dataset", "terror", "--kind", "hpd"],
    ["posterior", "--dataset", "cholera", "--out", "{tmp}/density.csv"],
)

PROBE = """
import contextlib, io, json, sys
heavy = json.loads(sys.argv[1])
loaded = lambda: [name for name in heavy if name in sys.modules]
from zicount.cli import main
found = {"import": loaded()}
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # --version exits from argparse
            code = exc.code
    found[" ".join(argv)] = [code, loaded()]
print(json.dumps(found))
"""


def _run(code: str, *args: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter on the package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return proc.stdout


def _probe(commands) -> dict:
    return json.loads(_run(PROBE, json.dumps(HEAVY), json.dumps(commands)))


@pytest.fixture(scope="module")
def probed(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("probe")
    commands = [[arg.format(tmp=tmp) for arg in argv] for argv in LIGHT_COMMANDS]
    found = _probe(commands)
    found.update({" ".join(argv): found[" ".join(command)]
                  for argv, command in zip(LIGHT_COMMANDS, commands)})
    return found


def test_package_import_loads_no_heavy_module(probed):
    assert probed["import"] == []


@pytest.mark.parametrize("argv", LIGHT_COMMANDS, ids=" ".join)
def test_light_command_loads_no_heavy_module(probed, argv):
    code, loaded = probed[" ".join(argv)]
    assert code == 0
    assert loaded == []


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
