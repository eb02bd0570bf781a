"""Report serialization, per-operation sub-seeds and the CLI run manifest.

JSON is the primary machine-readable format: complex numbers are emitted as
[re, im] pairs and matrices as nested row-major arrays. Floats are rendered
with Python's shortest round-trip repr so that serialize -> parse -> compare
is exact and two identical runs emit byte-identical output.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

from . import __version__
from .deletion import QualityReport
from .errors import UnsupportedFormatError
from .fidelity import FidelityReport
from .hilbert import complex_pair, density_to_json
from .machines import DeleterVerdict
from .nogo import ConstraintReport
from .signalling import SignallingReport

__all__ = [
    "RunManifest",
    "sub_seed",
    "emit_report",
]

_FORMATS = ("json", "csv", "table")


@dataclass(frozen=True)
class RunManifest:
    """What a CLI run applied: its command line and, for verify, the isometry tolerance."""

    command: str
    tol: Optional[float] = None

    def to_json(self) -> dict:
        payload = {"command": self.command, "version": __version__}
        if self.tol is not None:
            payload["tol"] = self.tol
        return payload


def sub_seed(seed: int, module: str, operation: str) -> int:
    """Stable per-operation sub-seed, derived by hashing (seed, module, operation).

    Uses SHA-256 so the derivation is identical across processes and
    platforms (Python's built-in hash is salted per process).
    """
    digest = hashlib.sha256(f"{seed}:{module}:{operation}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


# --- emission ----------------------------------------------------------------


def _dumps(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _quality_payload(r: QualityReport) -> dict:
    return {
        "n": r.n,
        "m": r.m,
        "min_bound": r.min_bound,
        "formula_value": r.formula_value,
        "agreement": r.agreement,
    }


def _fidelity_payload(r: FidelityReport) -> dict:
    return {
        "alpha_sq": r.alpha_sq,
        "f_b": r.f_b,
        "f_a": r.f_a,
        "avg_f_b": r.avg_f_b,
        "avg_f_a": r.avg_f_a,
        "quadrature_error": r.quadrature_error,
    }


def _constraint_payload(r: ConstraintReport) -> dict:
    return {
        "overlap_s": complex_pair(r.overlap_s),
        "constraints": [
            {
                "label": c.label,
                "lhs": complex_pair(c.lhs),
                "rhs": complex_pair(c.rhs),
                "residual": c.residual,
            }
            for c in r.constraints
        ],
        "satisfiable": r.satisfiable,
        "trivial_only": r.trivial_only,
        "max_residual": r.max_residual,
    }


def _signalling_payload(r: SignallingReport) -> dict:
    return {
        "theta_1": r.theta_1,
        "theta_2": r.theta_2,
        "rho_with_deletion": [density_to_json(m) for m in r.rho_with_deletion],
        "rho_without_deletion": [density_to_json(m) for m in r.rho_without_deletion],
        "distance_with": r.distance_with,
        "distance_without": r.distance_without,
    }


def _verdict_payload(r: DeleterVerdict) -> dict:
    return {
        "kind": r.kind.value,
        "residual_stats": list(r.residual_stats),
        "ancilla_dependence": r.ancilla_dependence,
        "ancilla_errors": list(r.ancilla_errors),
    }


_PAYLOADS = {
    QualityReport: _quality_payload,
    FidelityReport: _fidelity_payload,
    ConstraintReport: _constraint_payload,
    SignallingReport: _signalling_payload,
    DeleterVerdict: _verdict_payload,
}


def _csv_lines(report) -> list[str]:
    if isinstance(report, QualityReport):
        rows = ["alpha_sq,bound"]
        rows += [f"{float(x)!r},{float(v)!r}" for x, v in report.bound_curve]
        return rows
    if isinstance(report, FidelityReport):
        p = _fidelity_payload(report)
        return [",".join(p), ",".join(repr(v) for v in p.values())]
    if isinstance(report, ConstraintReport):
        rows = ["label,lhs_re,lhs_im,rhs_re,rhs_im,residual"]
        for c in report.constraints:
            rows.append(
                f"\"{c.label}\",{c.lhs.real!r},{c.lhs.imag!r},"
                f"{complex(c.rhs).real!r},{complex(c.rhs).imag!r},{c.residual!r}"
            )
        return rows
    if isinstance(report, DeleterVerdict):
        rows = ["sample,residual,ancilla_error"]
        for i, (res, err) in enumerate(zip(report.residual_stats, report.ancilla_errors)):
            rows.append(f"{i},{res!r},{err!r}")
        return rows
    raise UnsupportedFormatError(
        f"{type(report).__name__} is matrix-valued and has no CSV rendering"
    )


def _table_lines(payload: dict) -> list[str]:
    flat = {k: v for k, v in payload.items() if not isinstance(v, (list, dict))}
    width = max(len(k) for k in flat)
    lines = [f"{k.ljust(width)}  {v}" for k, v in flat.items()]
    constraints = payload.get("constraints")
    if constraints:
        label_width = max(len(c["label"]) for c in constraints)
        lines.append("")
        lines += [f"{c['label'].ljust(label_width)}  residual {c['residual']:.12f}"
                  for c in constraints]
    return lines


def emit_report(report, format: str = "json") -> str:
    """Serialize a report deterministically in the requested format."""
    if format not in _FORMATS:
        raise UnsupportedFormatError(f"unknown format {format!r}; choose from {_FORMATS}")
    payload_fn = _PAYLOADS.get(type(report))
    if payload_fn is None:
        raise UnsupportedFormatError(f"{type(report).__name__} is not an emittable report")
    if format == "json":
        return _dumps(payload_fn(report))
    if format == "csv":
        return "\n".join(_csv_lines(report)) + "\n"
    return "\n".join(_table_lines(payload_fn(report))) + "\n"
