"""Every name in a module's ``__all__`` exists, so a removal cannot leave a stale entry."""

import importlib
import pkgutil

import pytest

import octocf

MODULES = sorted(m.name for m in pkgutil.iter_modules(octocf.__path__, "octocf."))


def test_every_library_module_declares_its_exports():
    # cli is the command-line tool, not a library module
    declared = {name for name in MODULES if hasattr(importlib.import_module(name), "__all__")}
    assert declared == set(MODULES) - {"octocf.cli"}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    exported = getattr(importlib.import_module(name), "__all__", ())
    assert len(set(exported)) == len(exported)
    namespace = {}
    exec(f"from {name} import *", namespace)  # raises AttributeError on a stale entry
    assert set(exported) <= namespace.keys()
