"""Property tests of the command-line contract: generated argument lists and mutated machine
files through `qdel.cli.main`.

Every run ends 0, 2 or 3 with no traceback; an exit-0 run prints no NaN or infinity; and a
run manifest is printed exactly when --manifest is given and the run ends 0 or 3.
"""

import contextlib
import copy
import io
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from qdel import cli
from qdel.cli import main
from qdel.machines import conditional_deleter, machine_to_json, qudit_pair_deleter, swap_deleter

# derandomized, so that every run draws the same examples and writes no example database
PROPERTIES = settings(max_examples=120, deadline=None, derandomize=True, database=None)

NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")
MANIFEST = '"command": "qdel '

# Values any numeric flag may draw: in and out of range, non-finite, overflowing, malformed.
# Sizes stay small (the largest grid is refused at once), so a run takes milliseconds.
NUMBERS = ["0", "1", "2", "3", "5", "12", "0.5", "0.3", "1e-300", "-0.1", "-1", "1.5", "7",
           "65", "nan", "inf", "-inf", "1e400", "-1e-3", "abc", "", " 0.25 ", "0x10", "3.5"]
COUNTS = ["1", "2", "3", "5", "8", "0", "-1", "2.5", "nan", "1e400", "x"]
ANGLES = ["0", "1.2", "45deg", "-45deg", "1e400deg", "nandeg", "deg", "7deg", "-3"]
GRIDS = ["8x8", "9x13", "16x8", "4x4", "8x", "axb", "8X8", "100000x100000", "5000x8", "x"]
ALPHABETS = ["0,1", "+,-", "0,1,+", "bloch:1:2", "bloch:1", "0,5", "", ",", "bloch:nan",
             "bloch:1e400", "7", "+", "x", "0,-1", "2"]
FORMATS = ["json", "csv", "table", "yaml"]

FLAGS = {
    "quality": {"--n": COUNTS, "--m": COUNTS, "--format": FORMATS},
    "fidelity": {"--alpha-sq": NUMBERS, "--average": None, "--grid": GRIDS,
                 "--sweep": COUNTS, "--format": FORMATS},
    "nogo": {"--overlap": NUMBERS, "--sweep": COUNTS, "--phase": ANGLES, "--format": FORMATS},
    "signal": {"--theta1": ANGLES, "--theta2": ANGLES, "--sweep": COUNTS, "--format": FORMATS},
    "delete-demo": {"--dim": NUMBERS, "--alpha-sq": NUMBERS},
    "verify": {"--alphabet": ALPHABETS, "--tol": NUMBERS},
}
# flags a run is refused without, drawn for every run of their command
REQUIRED = {"quality": ["--n", "--m"]}

BASE_MACHINES = [machine_to_json(m) for m in
                 (swap_deleter(2), conditional_deleter(), qudit_pair_deleter(2))]
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**30), st.floats(), st.text(max_size=3),
    st.just([]), st.just({}), st.lists(st.floats(-2.0, 2.0), max_size=3),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli_contract")


def flag_args(draw, command: str) -> list[str]:
    """Some of the command's flags, each with a drawn value, as separate or --flag=value words."""
    argv = []
    drawn = draw(st.lists(st.sampled_from(sorted(FLAGS[command])), max_size=3))
    for flag in REQUIRED.get(command, []) + drawn:
        values = FLAGS[command][flag]
        if values is None:
            argv.append(flag)
        elif draw(st.booleans()):
            argv.append(f"{flag}={draw(st.sampled_from(values))}")
        else:
            argv += [flag, draw(st.sampled_from(values))]
    return argv


def paths(node, prefix=()):
    """The key path of every node below the root of a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


@st.composite
def machine_texts(draw) -> str:
    """A machine wire format with up to three mutations, sometimes cut short."""
    payload = copy.deepcopy(draw(st.sampled_from(BASE_MACHINES)))
    for _ in range(draw(st.integers(0, 3))):
        nodes = list(paths(payload))
        if not nodes:
            break
        *parents, last = draw(st.sampled_from(nodes))
        target = payload
        for key in parents:
            target = target[key]
        action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if action == "replace":
            target[last] = draw(JUNK)
        elif action == "delete":
            del target[last]
        elif isinstance(target, list):
            target.insert(last, copy.deepcopy(target[last]))
    text = json.dumps(payload)
    if draw(st.integers(0, 9)) == 0:
        text = text[: draw(st.integers(0, len(text)))]
    return text


def run(argv: list[str]) -> tuple[int, str, str]:
    """main's exit code (argparse's SystemExit included), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_contract(argv: list[str], out_path) -> None:
    if out_path is not None and out_path.exists():
        out_path.unlink()
    code, out, err = run(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 0:
        text = out_path.read_text() if out_path is not None else out
        assert not NON_FINITE.search(text), (argv, text)
    assert (MANIFEST in err) == ("--manifest" in argv and code in (0, 3)), (argv, code, err)


@st.composite
def common_args(draw, workdir) -> tuple[list[str], object]:
    """--manifest and --out, each drawn; --out names a file, or one in a missing directory."""
    argv, out_path = [], None
    if draw(st.booleans()):
        argv.append("--manifest")
    choice = draw(st.integers(0, 5))
    if choice == 0:
        out_path = workdir / "out.txt"
        argv += ["--out", str(out_path)]
    elif choice == 1:
        argv += ["--out", str(workdir / "missing" / "out.txt")]
    return argv, out_path


@PROPERTIES
@given(st.data())
def test_generated_argument_lists_keep_the_contract(workdir, data):
    command = data.draw(st.sampled_from(sorted(set(FLAGS) - {"verify"})))
    argv = [command] + flag_args(data.draw, command)
    common, out_path = data.draw(common_args(workdir))
    check_contract(argv + common, out_path)


@PROPERTIES
@given(machine_texts(), st.data())
def test_mutated_machine_files_keep_the_contract(workdir, text, data):
    machine_file = workdir / "machine.json"
    machine_file.write_text(text)
    argv = ["verify", "--machine", str(machine_file)] + flag_args(data.draw, "verify")
    common, out_path = data.draw(common_args(workdir))
    check_contract(argv + common, out_path)


# tokens that parse differently at the top level and in a subcommand's parser
STRAY = ["--", "extra", "-h", "--version", "--manifest", "--out", "--di", "--n=2", "quality", "-"]


def parse_outcome(call, argv: list[str]):
    """(the namespace's attributes in order, or the SystemExit code), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = list(vars(call(list(argv))).items())
        except SystemExit as exc:
            result = ("SystemExit", exc.code)
    return result, out.getvalue(), err.getvalue()


@PROPERTIES
@given(st.data())
def test_generated_token_lists_parse_as_with_the_full_parser(data):
    """`cli._parse` gives what `_PARSER.parse_args` gives: the same namespace, or the same
    exit with the same help, version or error text."""
    command = data.draw(st.sampled_from(sorted(FLAGS) + ["explode"]))
    argv = [command] + (flag_args(data.draw, command) if command in FLAGS else [])
    for token in data.draw(st.lists(st.sampled_from(STRAY), max_size=2)):
        argv.insert(data.draw(st.integers(0, len(argv))), token)
    assert parse_outcome(cli._parse, argv) == parse_outcome(cli._PARSER.parse_args, argv), argv
