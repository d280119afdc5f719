"""The public surface: each library module's __all__, and an empty package root.

A name deleted from a module must leave its __all__ with it, or
`from couplersim.<module> import *` breaks.  Every public name has one home,
the module that defines it, so the package root re-exports none.
"""

import inspect
import types

import pytest

import couplersim
from couplersim import analysis, coupler, engine, fock, gates

LIBRARY = (analysis, coupler, engine, fock, gates)


@pytest.mark.parametrize("module", LIBRARY, ids=lambda m: m.__name__)
def test_every_exported_name_exists(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= set(namespace)


@pytest.mark.parametrize("module", LIBRARY, ids=lambda m: m.__name__)
def test_every_public_definition_is_exported(module):
    defined = {
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == module.__name__
    }
    assert defined - set(module.__all__) == set()


def test_package_root_defines_no_public_names():
    root = {
        name
        for name, obj in vars(couplersim).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert root == set()
