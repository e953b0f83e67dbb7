"""Every name a module exports in ``__all__`` exists.

``from module import *`` and tools that walk ``__all__`` skip or fail on
a stale name only when they use it; this catches one left behind by a
deletion.
"""

import importlib

import pytest

MODULES = ("linalg", "schedules", "integrators", "spectral", "evolution", "grover",
           "toymodels", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"adiawalk.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
