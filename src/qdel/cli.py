"""Command-line interface: every analysis as a subcommand with stable output.

Exit codes: 0 success, 2 flag/usage error, 3 numeric error during computation.
Angles are radians by default; append ``deg`` for degrees (``--theta1 45deg``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .deletion import optimal_quality
from .errors import InvalidStateError, ShapeError, UnsupportedFormatError
from .fidelity import _MIN_GRID, fidelity_report, point_fidelities
from .hilbert import Ket, basis_ket, bloch_ket, ket, tensor, trace_distance
from .machines import (
    apply as apply_machine,
    check_isometry,
    deletion_residual,
    machine_from_json,
    qudit_pair_deleter,
)
from .nogo import gram_preservation_check, nonorthogonal_constraints, sweep_overlap
from .reports import RunManifest, ToleranceConfig, default_seed, emit_report
from .signalling import bob_delete_and_reduce, signalling_distance

__all__ = ["main", "entry"]


def _parse_angle(text: str) -> float:
    text = text.strip().lower()
    if text.endswith("deg"):
        return math.radians(float(text[:-3]))
    return float(text)


def _parse_grid(text: str) -> tuple[int, int]:
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise ValueError(f"grid must look like 256x256, got {text!r}")
    return int(parts[0]), int(parts[1])


def _parse_alphabet(spec: str, dim: int) -> list[Ket]:
    states = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "+":
            states.append(ket([1 / math.sqrt(2), 1 / math.sqrt(2)], [2]))
        elif token == "-":
            states.append(ket([1 / math.sqrt(2), -1 / math.sqrt(2)], [2]))
        elif token.startswith("bloch:"):
            angles = token[len("bloch:") :].split(":")
            theta = _parse_angle(angles[0])
            phi = _parse_angle(angles[1]) if len(angles) > 1 else 0.0
            states.append(bloch_ket(theta, phi))
        else:
            states.append(basis_ket([dim], int(token)))
    if not states:
        raise ValueError("alphabet is empty")
    return states


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "table"), default="json")
    common.add_argument("--out", metavar="PATH", default=None, help="output path (default stdout)")
    common.add_argument("--seed", type=int, default=None, help="override QDEL_SEED / 0")
    common.add_argument("--tol", type=float, default=None, help="override the algebraic tolerance")
    common.add_argument("--manifest", action="store_true", help="print a run manifest to stderr")

    parser = argparse.ArgumentParser(
        prog="qdel",
        description="Numerical analyses of the quantum no-deleting principle.",
    )
    parser.add_argument("--version", action="version", version=f"qdel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("quality", parents=[common], help="N-to-M deletion quality bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--curve", action="store_true", help="emit the bound curve as CSV")

    p = sub.add_parser("fidelity", parents=[common], help="conditional-deleter fidelities")
    p.add_argument("--alpha-sq", type=float, default=0.5)
    p.add_argument("--average", action="store_true", help="emphasize the Bloch-sphere averages")
    p.add_argument("--grid", default=None, metavar="AxB", help="quadrature grid, e.g. 256x256")
    p.add_argument("--sweep", type=int, default=None, metavar="N",
                   help="emit CSV of (alpha_sq, f_a, f_b) over an N-point sweep")

    p = sub.add_parser("nogo", parents=[common], help="non-orthogonal deletion constraints")
    p.add_argument("--overlap", type=float, default=None, metavar="S")
    p.add_argument("--sweep", type=int, default=None, metavar="N")
    p.add_argument("--phase", default="0", metavar="CHI", help="phase of the overlap (radians or Ndeg)")

    p = sub.add_parser("signal", parents=[common], help="no-signalling consistency check")
    p.add_argument("--theta1", default="0", metavar="T1")
    p.add_argument("--theta2", default="0.7853981633974483", metavar="T2")
    p.add_argument("--sweep", type=int, default=None, metavar="N",
                   help="emit CSV of trace distance to the theta=0 mixture")

    p = sub.add_parser("delete-demo", parents=[common], help="pair-deleter linearity obstruction")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--alpha-sq", type=float, default=0.5)

    p = sub.add_parser("verify", parents=[common], help="check a user-supplied machine")
    p.add_argument("--machine", required=True, metavar="FILE")
    p.add_argument("--alphabet", default=None, metavar="SPEC",
                   help="comma-separated states: basis indices, +, -, bloch:THETA[:PHI]")

    return parser


def _write(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_manifest(args: argparse.Namespace, argv: Sequence[str]) -> None:
    if getattr(args, "manifest", False):
        config = ToleranceConfig(algebraic_tol=args.tol) if args.tol else ToleranceConfig()
        manifest = RunManifest(
            seed=args.seed if args.seed is not None else default_seed(),
            config=config,
            command="qdel " + " ".join(argv),
            version=__version__,
        )
        sys.stderr.write(json.dumps(manifest.to_json(), indent=2) + "\n")


def _run_quality(args) -> str:
    report = optimal_quality(args.n, args.m)
    if args.curve:
        return emit_report(report, "csv")
    return emit_report(report, args.format)


def _run_fidelity(args) -> str:
    if args.sweep is not None:
        rows = ["alpha_sq,f_a,f_b"]
        for x in np.linspace(0.0, 1.0, args.sweep):
            f_b, f_a = point_fidelities(math.sqrt(x), math.sqrt(1.0 - x))
            rows.append(f"{float(x)!r},{f_a!r},{f_b!r}")
        return "\n".join(rows) + "\n"
    if args.grid is not None:
        n_theta, n_phi = _parse_grid(args.grid)
    else:
        n_theta, n_phi = (256, 256) if args.average else (64, 64)
    report = fidelity_report(args.alpha_sq, n_theta=n_theta, n_phi=n_phi)
    return emit_report(report, args.format)


def _run_nogo(args) -> str:
    phase = _parse_angle(args.phase)
    if args.sweep is not None:
        reports = sweep_overlap(args.sweep, phase=phase)
        rows = ["s,max_residual"]
        grid = np.linspace(0.0, 1.0, args.sweep)
        rows += [f"{float(s)!r},{r.max_residual!r}" for s, r in zip(grid, reports)]
        return "\n".join(rows) + "\n"
    s = 0.7071067811865476 if args.overlap is None else args.overlap
    psi1 = basis_ket([2], 0)
    sigma = basis_ket([2], 0)
    amp = complex(math.cos(phase), math.sin(phase)) * s
    psi2 = ket([amp, math.sqrt(max(1.0 - s * s, 0.0))], [2])
    report = nonorthogonal_constraints(psi1, psi2, sigma)
    return emit_report(report, args.format)


def _run_signal(args) -> str:
    if args.sweep is not None:
        base = bob_delete_and_reduce(0.0)
        rows = ["theta,trace_distance_vs_theta0"]
        for theta in np.linspace(0.0, math.pi, args.sweep):
            d = trace_distance(bob_delete_and_reduce(float(theta)), base)
            rows.append(f"{float(theta)!r},{d!r}")
        return "\n".join(rows) + "\n"
    report = signalling_distance(_parse_angle(args.theta1), _parse_angle(args.theta2))
    return emit_report(report, args.format)


def _run_delete_demo(args) -> str:
    machine = qudit_pair_deleter(args.dim)
    x = args.alpha_sq
    amps = np.zeros(args.dim, dtype=complex)
    amps[0] = math.sqrt(x)
    amps[1] = math.sqrt(1.0 - x)
    psi = ket(amps, [args.dim])
    residual = deletion_residual(machine, psi)
    out_norm = apply_machine(machine, tensor(psi, psi)).norm()
    payload = {
        "dim": args.dim,
        "alpha_sq": x,
        "residual": residual,
        "output_norm": out_norm,
        "deletes_exactly": residual <= 1e-12,
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _run_verify(args) -> str:
    with open(args.machine, "r", encoding="utf-8") as fh:
        machine = machine_from_json(json.load(fh), strict=False)
    tol = args.tol if args.tol is not None else 1e-10
    iso = check_isometry(machine, tol)
    payload = {
        "is_isometry": iso.is_isometry,
        "max_gram_deviation": iso.max_gram_deviation,
        "rules_normalized": machine.rule_norms_ok(1e-9),
        "max_gram_residual": None,
    }
    if args.alphabet:
        alphabet = _parse_alphabet(args.alphabet, machine.input_shape.dims[0])
        payload["max_gram_residual"] = gram_preservation_check(machine, alphabet).max_gram_residual
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


_RUNNERS = {
    "quality": _run_quality,
    "fidelity": _run_fidelity,
    "nogo": _run_nogo,
    "signal": _run_signal,
    "delete-demo": _run_delete_demo,
    "verify": _run_verify,
}


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Flag-level validation: reject bad values before any computation runs."""
    if args.command == "quality":
        if args.n < 1 or not 1 <= args.m <= args.n:
            parser.error(f"need 1 <= m <= n, got n={args.n}, m={args.m}")
    if args.command in ("fidelity", "delete-demo"):
        if not 0.0 <= args.alpha_sq <= 1.0:
            parser.error(f"--alpha-sq must lie in [0, 1], got {args.alpha_sq}")
    if args.command == "fidelity" and args.grid is not None:
        try:
            grid = _parse_grid(args.grid)
        except ValueError as exc:
            parser.error(str(exc))
        if min(grid) < _MIN_GRID:
            parser.error(f"--grid must be at least {_MIN_GRID}x{_MIN_GRID}, got {args.grid}")
    if args.command in ("fidelity", "nogo", "signal") and args.sweep is not None:
        if args.sweep < 2:
            parser.error("--sweep needs at least 2 points")
    if args.command == "nogo" and args.overlap is not None and not 0.0 <= args.overlap <= 1.0:
        parser.error(f"--overlap must lie in [0, 1], got {args.overlap}")
    if args.command == "signal" and args.sweep is None and args.format == "csv":
        parser.error("the signal report is matrix-valued and has no CSV rendering")
    if args.command == "delete-demo" and args.dim < 2:
        parser.error("--dim must be >= 2")


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate(parser, args)
    _emit_manifest(args, argv)
    try:
        text = _RUNNERS[args.command](args)
    except (InvalidStateError, ShapeError, UnsupportedFormatError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (ValueError, ArithmeticError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    _write(text, args.out)
    return 0


def entry() -> None:
    sys.exit(main())
