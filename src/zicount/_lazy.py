"""Modules imported on first use.

SciPy is left only on the simulation paths: ``distributions`` calls
``scipy.special`` for the Poisson tail bound of ``sample_values``, and
``asymptotics`` calls ``scipy.stats`` for the KS test of
``uniformity_check``.  Importing either is most of a cold start, and no
other command needs them, so those modules bind them as::

    special = LazyModule("scipy.special", globals())

The first attribute lookup imports the module and rebinds the global name to
it.  From then on ``special.pdtr`` is an ordinary attribute lookup on the
module itself, with no stand-in between.
"""

from __future__ import annotations

import importlib


class LazyModule:
    """Stand-in for module ``name``, bound under its last dotted component in
    the ``namespace`` (a module's ``globals()``) that it replaces itself in."""

    __slots__ = ("_name", "_namespace")

    def __init__(self, name: str, namespace: dict):
        self._name = name
        self._namespace = namespace

    def __getattr__(self, attr: str):
        module = importlib.import_module(self._name)
        self._namespace[self._name.rpartition(".")[2]] = module
        return getattr(module, attr)

    def __repr__(self) -> str:
        return f"<module {self._name!r}, imported on first use>"
