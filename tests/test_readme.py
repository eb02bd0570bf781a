"""The README's command-line and library examples, run as written."""

import ast
import importlib.util
import json
import math
import re
import shlex
from pathlib import Path

import pytest

from qdel.cli import main
from qdel.machines import machine_to_json, swap_deleter

ROOT = Path(__file__).parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced(after: str, language: str) -> str:
    """The first ```language block after the heading `after`."""
    return re.search(rf"```{language}\n(.*?)```", README[README.index(after):], re.S).group(1)


COMMANDS = [
    shlex.split(line.split("#")[0])[1:]
    for line in fenced("## Command line", "sh").splitlines()
    if line.startswith("qdel ")
]


def load_byte_audit():
    spec = importlib.util.spec_from_file_location("outputs", ROOT / "tools" / "outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_byte_audit_runs_every_readme_command():
    assert load_byte_audit().readme_commands() == COMMANDS


def test_the_byte_audit_names_what_moved_and_by_how_much():
    moves = load_byte_audit()._moves
    old = json.dumps({"f_b": 0.75, "avg_f_b": 0.8333333333333339, "n_theta": 8}, indent=2)
    new = json.dumps({"f_b": 0.75, "avg_f_b": 0.8333333333333335, "n_theta": 8}, indent=2)
    assert moves(old, new) == [("avg_f_b", pytest.approx(4.44e-16, rel=0.01))]
    assert moves("s,r\n0.5,0.25\n", "s,r\n0.5,0.5\n") == [("its text", 0.25)]
    assert moves("s,r\n0.5,0.25\n", "s,r\n0.5\n") == [("its text", None)]


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
