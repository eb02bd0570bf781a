import importlib
import pkgutil

import pytest

import qdel

MODULES = sorted(
    f"qdel.{info.name}" for info in pkgutil.iter_modules(qdel.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", ["qdel"] + MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
