"""The README's command-line and library examples, run as written."""

import ast
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from qdel.cli import main
from qdel.machines import machine_to_json, swap_deleter

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def fenced(after: str, language: str) -> str:
    """The first ```language block after the heading `after`."""
    return re.search(rf"```{language}\n(.*?)```", README[README.index(after):], re.S).group(1)


COMMANDS = [
    shlex.split(line.split("#")[0])[1:]
    for line in fenced("## Command line", "sh").splitlines()
    if line.startswith("qdel ")
]


def test_readme_lists_every_subcommand():
    assert len(COMMANDS) == 11
    assert {argv[0] for argv in COMMANDS} == {
        "quality", "fidelity", "nogo", "signal", "delete-demo", "verify",
    }


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_command_runs(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "machine.json").write_text(json.dumps(machine_to_json(swap_deleter(2))))
    assert main(argv) == 0
    out = capsys.readouterr().out
    if "--out" in argv:
        assert out == "" and (tmp_path / argv[argv.index("--out") + 1]).read_text() != ""
    else:
        assert out != ""


def test_readme_library_snippet_gives_its_commented_values():
    source = fenced("## Library", "python")
    lines = source.splitlines()
    namespace: dict = {}
    shown = []  # (the comment, the value) of each bare expression
    for statement in ast.parse(source).body:
        code = ast.get_source_segment(source, statement)
        if isinstance(statement, ast.Expr):
            shown.append((lines[statement.lineno - 1].split("# ", 1)[1], eval(code, namespace)))
        else:
            exec(code, namespace)
    (c1, fidelity), (c2, quality), (c3, kind), (c4, flipped), (c5, entry) = shown
    assert c1 == "0.75" and fidelity == pytest.approx(0.75, abs=1e-12)
    assert c2 == "0.7071..." and quality == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert c3 == "SwapLike" and kind.value == "SwapLike"
    assert c4 == "[0, 1]" and flipped.tolist() == [0, 1]
    assert c5.startswith("1:") and entry == 1
