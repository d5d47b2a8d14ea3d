"""The package's public names: each declared once, in its module's __all__."""

import importlib
import pkgutil
import types

import robinfem

# the modules whose names the package republishes; cli is the command-line front end
API_MODULES = ["analysis", "assembly", "errors", "felib", "geometry", "mesh", "problems", "solver", "study"]


def test_the_package_republishes_exactly_the_names_its_modules_declare():
    found = {info.name for info in pkgutil.iter_modules(robinfem.__path__) if not info.name.startswith("_")}
    assert found == set(API_MODULES) | {"cli"}
    declared = {}
    for name in API_MODULES:
        module = importlib.import_module(f"robinfem.{name}")
        assert hasattr(module, "__all__"), f"robinfem.{name} declares no __all__"
        for attr in module.__all__:
            assert attr not in declared, f"{attr} is declared twice"
            declared[attr] = getattr(module, attr)
            assert declared[attr].__module__ == module.__name__, f"{attr} is not defined in robinfem.{name}"
    public = {
        name for name in dir(robinfem)
        if not name.startswith("_") and not isinstance(getattr(robinfem, name), types.ModuleType)
    }
    assert public == set(declared)
    for name, value in declared.items():
        assert getattr(robinfem, name) is value
