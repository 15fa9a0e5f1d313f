"""Modules imported on first use.

``scipy.special`` is about half of a cold ``import numpy, scipy.special``,
and the light commands (``--version``, ``datasets``) never call it, so the
modules that need SciPy bind it as::

    special = LazyModule("scipy.special", globals())

The first attribute lookup imports the module and rebinds the global name to
it.  From then on ``special.betainc`` is an ordinary attribute lookup on the
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
