"""The public surface: each library module's __all__ and the package root agree.

A name deleted from a module must leave its __all__ and the root with it,
or `from couplersim.<module> import *` and `import couplersim` break.
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


def test_package_root_names_come_from_module_exports():
    exported = {name for module in LIBRARY for name in module.__all__}
    root = {
        name
        for name, obj in vars(couplersim).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert root - exported == set()
