"""Every name a module of the package exports through ``__all__`` exists,
so ``from omegaflow.<module> import *`` never fails on a stale entry."""

import importlib
import pkgutil

import pytest

import omegaflow

MODULES = sorted(m.name for m in pkgutil.iter_modules(omegaflow.__path__))


def test_modules_found():
    assert {"measures", "transport", "energies", "jko", "verify"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"omegaflow.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"omegaflow.{name}.__all__ names {missing}"
