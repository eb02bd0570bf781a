"""Byte audit of qdel's outputs: record a fixed job list, or compare a rerun with a record.

    python tools/outputs.py --write FILE [--digests]
    python tools/outputs.py --compare FILE

The job list is every `perfbench/jobs.py` job of the three workloads at seeds
1-3 (built through `jobs.build`), every command-line example of the README
(extracted as `tests/test_readme.py` extracts them), `classify_deleter`
verdicts by `repr`, and `verify` on a few malformed machine files. qdel is
imported from the `src/` of this checkout, so a copy of this file in another
checkout audits that checkout.

`--write` stores a first JSON line naming the platform the outputs were
computed on (Python's minor version, the numpy version, its BLAS, the SIMD
extensions numpy found and the C library: what the last bits of a float may
depend on besides qdel), then one JSON line per output: its label, exit code
and sha256, and the text itself when it holds a digit. With `--digests` the
texts are left out (about 70 KB against 1 MB); `tests/output_digests.jsonl`
is such a record, and `tests/test_output_record.py` holds a rerun to it.

`--compare` reruns the list and names every output that is missing, new or
changed; for a changed output whose numbers line up with the record it gives
the largest absolute difference, by JSON key where both are JSON objects and
the record holds the text. A record written on another platform is named
first, and a record without a platform line (from an earlier copy of this
file) is read too. The last line is a summary. Exit status: 0 when every
output is byte-identical, 1 when one is not, and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import re
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import qdel  # noqa: E402  (from this checkout's src/)
from qdel.cli import main  # noqa: E402
from qdel.machines import (  # noqa: E402
    classify_deleter, conditional_deleter, machine_to_json, swap_deleter,
)

SEEDS = (1, 2, 3)
CLASSIFY_SAMPLES, CLASSIFY_SEEDS = 50, (0, 1)

_NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan")


def readme_commands() -> list[list[str]]:
    """The README's `qdel ...` lines of its first ```sh block after "## Command line", as argv
    lists without the program name and the trailing comment."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```sh\n(.*?)```", readme[readme.index("## Command line"):], re.S).group(1)
    return [shlex.split(line.split("#")[0])[1:] for line in block.splitlines()
            if line.startswith("qdel ")]


def _malformed_machines() -> dict[str, str]:
    """File name -> text of machine files `verify` refuses, three from the swap(2) wire format."""
    ragged, string_amplitude, no_rules = (machine_to_json(swap_deleter(2)) for _ in range(3))
    ragged["rules"][1]["out_amplitudes"][2] = [0.0]
    string_amplitude["rules"][0]["out_amplitudes"][0] = ["1", 0.0]
    del no_rules["rules"]
    return {
        "ragged.json": json.dumps(ragged),
        "string_amplitude.json": json.dumps(string_amplitude),
        "no_rules.json": json.dumps(no_rules),
        "not_json.json": "{",
    }


def _cli(argv: list[str], work: Path) -> tuple[int, str]:
    """(exit code, output) of `qdel argv` run in `work`: stdout, or the `--out` file's text,
    followed by any stderr."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(cwd)
    text = out.getvalue()
    if "--out" in argv:
        target = work / argv[argv.index("--out") + 1]
        text += target.read_text(encoding="utf-8") if target.is_file() else ""
    if err.getvalue():
        text += "[stderr]\n" + err.getvalue()
    return code, text


def _perfbench_outputs(work: Path):
    spec = importlib.util.spec_from_file_location("perfbench_jobs", ROOT / "perfbench" / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = jobs  # its dataclasses look their module up
    spec.loader.exec_module(jobs)
    for workload in jobs.WORKLOADS:
        for seed in SEEDS:
            job_dir = work / f"{workload}-{seed}"
            job_dir.mkdir()
            for job in jobs.build(workload, qdel, seed, job_dir):
                label = f"{workload}/{seed}: {job.label.replace(str(job_dir), '<dir>')}"
                try:
                    result = job.call()
                except jobs.ExitCode as exit_:
                    code = int(re.match(r"exit code (\d+)", str(exit_)).group(1))
                    yield label, code, str(exit_).replace(str(job_dir), "<dir>")
                    continue
                text = result if isinstance(result, str) else repr(result)
                yield label, 0, text.replace(str(job_dir), "<dir>")


def outputs():
    """(label, exit code, text) of every job on the list, in a fixed order."""
    with tempfile.TemporaryDirectory(prefix="qdel-outputs-") as tmp:
        work = Path(tmp)
        yield from _perfbench_outputs(work)
        readme_dir = work / "readme"
        readme_dir.mkdir()
        (readme_dir / "machine.json").write_text(json.dumps(machine_to_json(swap_deleter(2))))
        for argv in readme_commands():
            yield ("readme: " + " ".join(argv), *_cli(argv, readme_dir))
        machines = {"swap_deleter(2)": swap_deleter(2), "swap_deleter(3)": swap_deleter(3),
                    "conditional_deleter()": conditional_deleter()}
        for name, machine in machines.items():
            for seed in CLASSIFY_SEEDS:
                verdict = classify_deleter(machine, CLASSIFY_SAMPLES, seed)
                yield f"classify_deleter({name}, {CLASSIFY_SAMPLES}, {seed})", 0, repr(verdict)
        for name, text in _malformed_machines().items():
            (work / name).write_text(text)
            code, output = _cli(["verify", "--machine", name], work)
            yield f"verify --machine {name}", code, output


def platform_info() -> dict:
    """What the outputs' last bits may depend on besides qdel, as the record's first line
    names it."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "python": ".".join(platform.python_version_tuple()[:2]),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "simd": config.get("SIMD Extensions", {}).get("found"),
        "libc": " ".join(platform.libc_ver()),
    }


def _record(label: str, code: int, text: str, digests: bool = False) -> dict:
    return {
        "label": label,
        "exit": code,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "text": text if not digests and re.search(r"\d", text) else None,
    }


def read_record(path: Path) -> tuple[dict | None, dict[str, dict]]:
    """(platform, records by label) of a record file; platform is None when it names none."""
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    written_on = lines.pop(0)["platform"] if lines and "platform" in lines[0] else None
    return written_on, {record["label"]: record for record in lines}


def _moves(old: str | None, new: str | None) -> list[tuple[str, float | None]]:
    """Where a changed output moved, with the largest absolute difference of its numbers there:
    one entry per changed key where both texts are JSON objects with the same keys, else one
    for the whole text. The difference is None when the numbers do not line up."""
    if old is None or new is None:
        return [("its text, not recorded", None)]
    try:
        old_json, new_json = json.loads(old), json.loads(new)
    except ValueError:
        old_json = new_json = None
    objects = isinstance(old_json, dict) and isinstance(new_json, dict)
    if objects and old_json.keys() == new_json.keys():
        return [(key, _max_difference(json.dumps(old_json[key]), json.dumps(new_json[key])))
                for key in old_json if old_json[key] != new_json[key]]
    return [("its text", _max_difference(old, new))]


def _max_difference(old: str, new: str) -> float | None:
    if _NUMBER.sub("#", old) != _NUMBER.sub("#", new):
        return None
    return max(abs(float(a) - float(b)) for a, b in zip(_NUMBER.findall(old), _NUMBER.findall(new)))


def write(path: Path, digests: bool = False) -> int:
    records = [_record(*output, digests) for output in outputs()]
    lines = [{"platform": platform_info()}, *records]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    print(f"{len(records)} outputs written to {path}")
    return 0


def compare(path: Path) -> int:
    written_on, recorded = read_record(path)
    if written_on is not None and written_on != platform_info():
        print(f"platform: recorded on {written_on}, rerun on {platform_info()}")
    identical, changed, new = 0, [], []
    largest = 0.0
    for label, code, text in outputs():
        record, old = _record(label, code, text), recorded.pop(label, None)
        if old is None:
            new.append(label)
        elif (old["exit"], old["sha256"]) == (record["exit"], record["sha256"]):
            identical += 1
        else:
            moves = _moves(old["text"], record["text"])
            how = [f"{where} by at most {by:.3g}" if by is not None
                   else f"{where} beyond its numbers" for where, by in moves]
            if old["exit"] != record["exit"]:
                how.insert(0, f"exit {old['exit']} -> {record['exit']}")
            print(f"changed: {label}: {', '.join(how) or 'equal values in other bytes'}")
            changed.append(label)
            largest = max([largest, *(by for _, by in moves if by is not None)])
    for label in new:
        print(f"new: {label}")
    for label in recorded:
        print(f"missing: {label}")
    total = identical + len(changed) + len(new)
    print(f"{total} outputs: {identical} byte-identical, {len(changed)} changed"
          f" (largest absolute difference {largest:.3g}), {len(new)} new, {len(recorded)} missing")
    return 0 if not (changed or new or recorded) else 1


def _main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", type=Path, metavar="FILE")
    action.add_argument("--compare", type=Path, metavar="FILE")
    parser.add_argument("--digests", action="store_true",
                        help="with --write, record digests without the texts")
    args = parser.parse_args(argv)
    if args.compare is not None and not args.compare.is_file():
        parser.error(f"no record at {args.compare}")
    if args.compare is not None and args.digests:
        parser.error("--digests goes with --write")
    return write(args.write, args.digests) if args.write is not None else compare(args.compare)


if __name__ == "__main__":
    sys.exit(_main())
