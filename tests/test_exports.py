import importlib
import pkgutil

import pytest

import qdel

MODULES = sorted(
    f"qdel.{info.name}" for info in pkgutil.iter_modules(qdel.__path__) if info.name != "__main__"
)

# the library modules whose public names the root re-exports, in the root's order
LIBRARY = ["errors", "hilbert", "machines", "deletion", "fidelity", "nogo", "signalling", "reports"]


@pytest.mark.parametrize("name", ["qdel"] + MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []


@pytest.mark.parametrize("name", LIBRARY + ["cli"])
def test_every_module_defines_all(name):
    assert isinstance(importlib.import_module(f"qdel.{name}").__dict__.get("__all__"), list)


def test_root_all_is_the_module_lists_in_order():
    expected = ["__version__"]
    for name in LIBRARY:
        expected += importlib.import_module(f"qdel.{name}").__all__
    assert qdel.__all__ == expected
    # a star import would let a later module's name shadow an earlier one silently
    assert len(set(expected)) == len(expected)


@pytest.mark.parametrize("name", LIBRARY)
def test_root_names_are_the_module_objects(name):
    module = importlib.import_module(f"qdel.{name}")
    assert [n for n in module.__all__ if getattr(qdel, n) is not getattr(module, n)] == []


def test_library_and_cli_are_every_module():
    assert sorted(f"qdel.{name}" for name in LIBRARY + ["cli"]) == MODULES
