"""Every public name a module exports resolves.

``from module import *`` raises ``AttributeError`` on a stale
``__all__`` entry, which no test that imports names one by one notices.
"""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    m.name
    for m in pkgutil.walk_packages(repro.__path__, "repro.")
    if m.name.rpartition(".")[2] != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names undefined {missing}"
