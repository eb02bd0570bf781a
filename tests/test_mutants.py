"""The standing mutant list, `tools/mutants.py`, still names code that exists."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

SOURCES = {path.name: path.read_text() for path in (ROOT / "src" / "qdel").glob("*.py")}


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.name for m in mutants.MUTANTS])
def test_each_text_occurs_exactly_once_in_the_package(mutant):
    assert SOURCES[mutant.module].count(mutant.text) == 1
    assert sum(source.count(mutant.text) for source in SOURCES.values()) == 1
    assert mutant.replacement != mutant.text
    assert mutant.tests and all((ROOT / test).is_file() for test in mutant.tests)


def test_names_are_unique():
    names = [mutant.name for mutant in mutants.MUTANTS]
    assert len(set(names)) == len(names)
