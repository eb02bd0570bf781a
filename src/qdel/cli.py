"""Command-line interface: every analysis as a subcommand with stable output.

Outside --sweep, a subcommand emits the report of one analysis, which owns its
thresholds. Exit codes: 0 success, 2 flag/usage error, 3 numeric error during
computation (an allocation numpy refuses and a machine file nested too deeply included).
Angles are radians by default; append ``deg`` for degrees (``--theta1 45deg``).
argparse reads a value such as ``-45deg`` or ``-1e-3`` as an option, so a
negative angle with ``deg`` or an exponent is written ``--theta1=-45deg``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__
from .deletion import optimal_quality
from .fidelity import _MIN_GRID, _batched_fidelities, fidelity_report
from .hilbert import _bloch_amplitudes, _half_trace_norms
from .machines import _copy_layout, delete_demo_report, machine_from_json
# apply stays bound as apply_machine: perfbench's span test checks that this binding is wrapped
from .machines import apply as apply_machine  # noqa: F401
from .nogo import _sweep_max_residuals, _verify_report, overlap_constraints
from .reports import RunManifest, _csv, _json, emit_report
from .signalling import _deletion_mixtures, signalling_distance

__all__ = ["main", "entry"]


# Flag types: argparse turns a ValueError raised here into a usage error (exit 2).


def _parse_angle(text: str) -> float:
    text = text.strip().lower()
    value = math.radians(float(text[:-3])) if text.endswith("deg") else float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"angle must be finite, got {text!r}")
    return value


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2 or not all(part.isdigit() for part in parts):
        raise argparse.ArgumentTypeError(f"grid must look like 256x256, got {text!r}")
    grid = int(parts[0]), int(parts[1])
    if min(grid) < _MIN_GRID:
        raise argparse.ArgumentTypeError(f"grid must be at least {_MIN_GRID}x{_MIN_GRID}")
    return grid


def _unit_interval(text: str) -> float:
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text}")
    return value


def _bounded_int(low: int, most: float = math.inf):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        if value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {text}")
        return value

    return integer


# An alphabet state as the flag reads it: a basis index, which waits for the
# machine's dimension, or the two amplitudes of a qubit state.
AlphabetState = Union[int, tuple[complex, complex]]

_HALF = 1 / math.sqrt(2)


def _parse_alphabet(spec: str) -> list[AlphabetState]:
    """Amplitude pairs for +, - and bloch:THETA[:PHI]; basis indices as ints."""
    states: list[AlphabetState] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "+":
            states.append((_HALF, _HALF))
        elif token == "-":
            states.append((_HALF, -_HALF))
        elif token.startswith("bloch:"):
            theta, colon, phi = token[len("bloch:") :].partition(":")
            theta = _parse_angle(theta)
            states.append(_bloch_amplitudes(theta, _parse_angle(phi) if colon else 0.0))
        else:
            states.append(int(token))
    if not states:
        raise argparse.ArgumentTypeError("alphabet is empty")
    return states


def _alphabet_amplitudes(alphabet: list[AlphabetState], dim: int) -> np.ndarray:
    """The parsed alphabet on a machine with `dim`-level copies, one (K, dim) amplitude row
    per state; a misfit is a usage error."""
    if dim != 2 and any(isinstance(state, tuple) for state in alphabet):
        raise argparse.ArgumentTypeError(f"--alphabet: qubit states given for {dim}-level copies")
    bad = [i for i in alphabet if isinstance(i, int) and not 0 <= i < dim]
    if bad:
        raise argparse.ArgumentTypeError(f"--alphabet: index {bad[0]} outside dimension {dim}")
    basis = np.eye(dim, dtype=complex)
    return np.array([basis[s] if isinstance(s, int) else s for s in alphabet], dtype=complex)


def _angle_help(flag: str, what: str) -> str:
    return f"{what} (radians or Ndeg); a negative angle with deg or an exponent needs {flag}=VALUE"


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser, and each subcommand's parser by name."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH", default=None, help="output path (default stdout)")
    common.add_argument("--manifest", action="store_true", help="print a run manifest to stderr")
    report = argparse.ArgumentParser(add_help=False, parents=[common])
    report.add_argument("--format", choices=("json", "csv", "table"), default=None)

    parser = argparse.ArgumentParser(
        prog="qdel",
        description="Numerical analyses of the quantum no-deleting principle.",
    )
    parser.add_argument("--version", action="version", version=f"qdel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quality", parents=[report], help="N-to-M deletion quality bound")
    p.add_argument("--n", type=_bounded_int(1), required=True)
    p.add_argument("--m", type=_bounded_int(1), required=True)

    p = sub.add_parser("fidelity", parents=[report], help="conditional-deleter fidelities")
    p.add_argument("--alpha-sq", type=_unit_interval, default=None)
    p.add_argument("--average", action="store_true", default=None,
                   help="average over a 256x256 grid instead of 64x64; no effect with --grid")
    p.add_argument("--grid", type=_parse_grid, default=None, metavar="AxB",
                   help="quadrature grid, e.g. 256x256; at most 4096 theta rows, 2^28 points")
    p.add_argument("--sweep", type=_bounded_int(2), default=None, metavar="N",
                   help="emit CSV of (alpha_sq, f_a, f_b) over an N-point sweep")

    p = sub.add_parser("nogo", parents=[report], help="non-orthogonal deletion constraints")
    p.add_argument("--overlap", type=_unit_interval, default=None, metavar="S")
    p.add_argument("--sweep", type=_bounded_int(2), default=None, metavar="N")
    p.add_argument("--phase", type=_parse_angle, default=0.0, metavar="CHI",
                   help=_angle_help("--phase", "phase of the overlap"))

    p = sub.add_parser("signal", parents=[report], help="no-signalling consistency check")
    p.add_argument("--theta1", type=_parse_angle, default=None, metavar="T1",
                   help=_angle_help("--theta1", "Alice's first basis angle"))
    p.add_argument("--theta2", type=_parse_angle, default=None, metavar="T2",
                   help=_angle_help("--theta2", "Alice's second basis angle"))
    p.add_argument("--sweep", type=_bounded_int(2), default=None, metavar="N",
                   help="emit CSV of trace distance to the theta=0 mixture")

    p = sub.add_parser("delete-demo", parents=[common], help="pair-deleter linearity obstruction")
    # dim^2 <= 4096: the pair's total dimension stays where hilbert's tolerances hold
    p.add_argument("--dim", type=_bounded_int(2, most=64), default=2)
    p.add_argument("--alpha-sq", type=_unit_interval, default=0.5)

    p = sub.add_parser("verify", parents=[common], help="check a user-supplied machine")
    p.add_argument("--machine", required=True, metavar="FILE")
    p.add_argument("--alphabet", type=_parse_alphabet, default=None, metavar="SPEC",
                   help="comma-separated states: basis indices, +, -, bloch:THETA[:PHI]")
    p.add_argument("--tol", type=_positive_float, default=1e-10,
                   help="isometry tolerance (default 1e-10)")

    return parser, sub.choices


# Built once per process: parse_args starts each call from a fresh namespace
# and _validate writes only to that namespace, so no call sees another's flags.
_PARSER, _COMMANDS = _build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """`_PARSER.parse_args(argv)`, running only the subcommand's parser when argv starts
    with a subcommand and that parser leaves nothing over.

    `_PARSER` hands everything after the subcommand's name to its parser, so that parser
    gives the same namespace and prints the same help and errors. Every other argv, the
    leftovers the top-level parser reports included, goes through `_PARSER` itself.
    """
    parser = _COMMANDS.get(argv[0]) if argv else None
    if parser is not None:
        args, extras = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return _PARSER.parse_args(argv)


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_manifest(args: argparse.Namespace, argv: Sequence[str]) -> None:
    if args.manifest:
        manifest = RunManifest(command="qdel " + " ".join(argv), tol=getattr(args, "tol", None))
        sys.stderr.write(_json(manifest.to_json()) + "\n")


def _run_quality(args) -> str:
    return emit_report(optimal_quality(args.n, args.m), args.format)


def _run_fidelity(args) -> str:
    if args.sweep is not None:
        xs = np.linspace(0.0, 1.0, args.sweep)
        f_b, f_a = _batched_fidelities(np.sqrt(xs), np.sqrt(1.0 - xs))
        return _csv("alpha_sq,f_a,f_b", xs, f_a, f_b)
    if args.grid is not None:
        n_theta, n_phi = args.grid
    else:
        n_theta, n_phi = (256, 256) if args.average else (64, 64)
    report = fidelity_report(args.alpha_sq, n_theta=n_theta, n_phi=n_phi)
    return emit_report(report, args.format)


def _run_nogo(args) -> str:
    if args.sweep is not None:
        return _csv("s,max_residual", *_sweep_max_residuals(args.sweep, args.phase))
    return emit_report(overlap_constraints(args.overlap, args.phase), args.format)


def _run_signal(args) -> str:
    if args.sweep is not None:
        thetas = np.linspace(0.0, math.pi, args.sweep)
        mixtures = _deletion_mixtures(np.concatenate([[0.0], thetas]))
        distances = _half_trace_norms(mixtures[1:] - mixtures[0])
        return _csv("theta,trace_distance_vs_theta0", thetas, distances)
    return emit_report(signalling_distance(args.theta1, args.theta2), args.format)


def _run_delete_demo(args) -> str:
    return emit_report(delete_demo_report(args.dim, args.alpha_sq), "json")


def _run_verify(args) -> str:
    try:
        with open(args.machine, "r", encoding="utf-8") as fh:
            machine = machine_from_json(json.load(fh), strict=False)
    except RecursionError:  # json's decoder recurses once per level of nesting
        raise ValueError(f"{args.machine}: JSON nested too deeply to read") from None
    amps = args.alphabet and _alphabet_amplitudes(args.alphabet, _copy_layout(machine)[0])
    return emit_report(_verify_report(machine, args.tol, amps), "json")


_RUNNERS = {
    "quality": _run_quality,
    "fidelity": _run_fidelity,
    "nogo": _run_nogo,
    "signal": _run_signal,
    "delete-demo": _run_delete_demo,
    "verify": _run_verify,
}


# Flags a --sweep run does not read, with the value each takes when omitted.
# argparse gives them no default, so that one given alongside --sweep shows.
_SWEEP_IGNORED = {
    "fidelity": {"alpha_sq": 0.5, "average": False, "grid": None},
    "nogo": {"overlap": 0.7071067811865476},
    "signal": {"theta1": 0.0, "theta2": math.pi / 4},
}


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Rules that join two flags, then defaults; argparse types check each flag's range."""
    if args.command == "quality" and args.m > args.n:
        parser.error(f"need 1 <= m <= n, got n={args.n}, m={args.m}")
    ignored = _SWEEP_IGNORED.get(args.command, {})
    if getattr(args, "sweep", None) is not None:
        given = [f"--{d.replace('_', '-')}" for d in ignored if getattr(args, d) is not None]
        if args.format not in (None, "csv"):
            given.append(f"--format {args.format}")
        if given:
            parser.error(f"--sweep prints CSV and would ignore {', '.join(given)}")
    if args.command == "signal" and args.sweep is None and args.format == "csv":
        parser.error("the signal report is matrix-valued and has no CSV rendering")
    for dest, value in {"format": "json", **ignored}.items():
        if getattr(args, dest, value) is None:
            setattr(args, dest, value)


# qdel's errors are ValueErrors; a MemoryError is a --grid or --sweep numpy cannot allocate
_NUMERIC_ERRORS = (ValueError, ArithmeticError, OSError, KeyError, MemoryError)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command. A usage error prints the subcommand's usage line and no manifest."""
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parse(argv)
    parser = _COMMANDS[args.command]
    _validate(parser, args)
    try:
        try:
            text = _RUNNERS[args.command](args)
        except argparse.ArgumentTypeError as exc:  # a flag value the input shows to be wrong
            parser.error(str(exc))
        except _NUMERIC_ERRORS:
            _emit_manifest(args, argv)
            raise
        _emit_manifest(args, argv)
        _write(text, args.out)
    except _NUMERIC_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    return 0


def entry() -> None:
    sys.exit(main())
