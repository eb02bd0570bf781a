"""Report serialization, per-operation sub-seeds and the CLI run manifest.

JSON is the primary machine-readable format: complex numbers are emitted as
[re, im] pairs, matrices as nested row-major arrays and None as null. Floats
are rendered with Python's shortest round-trip repr so that serialize ->
parse -> compare is exact and two identical runs emit byte-identical output.
A report's JSON object is its dataclass fields in declaration order, then
the derived properties `_KEYS` names. Every JSON text, a report's or the run
manifest's, comes from `_json`, which writes the bytes of
`json.dumps(value, indent=2, allow_nan=False)`; a matrix's entries are
written from their float view in one step. Every CSV, a report's or a CLI
sweep's, comes from `_csv`.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import platform
import re
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii
from typing import Optional

import numpy as np

from . import __version__
from .deletion import QualityReport
from .errors import UnsupportedFormatError
from .fidelity import FidelityReport
from .hilbert import DensityMatrix, _density_layout, complex_pair
from .machines import DeleteDemoReport, DeleterVerdict
from .nogo import Constraint, ConstraintReport, VerifyReport
from .signalling import SignallingReport

__all__ = [
    "RunManifest",
    "sub_seed",
    "emit_report",
]

_FORMATS = ("json", "csv", "table")
_REPORTS = (
    QualityReport, FidelityReport, ConstraintReport, SignallingReport, DeleterVerdict,
    DeleteDemoReport, VerifyReport,
)


@dataclass(frozen=True)
class RunManifest:
    """What a CLI run applied: its command line and, for verify, the isometry tolerance.

    Its JSON also names the qdel, Python and numpy versions that ran it.
    """

    command: str
    tol: Optional[float] = None

    def to_json(self) -> dict:
        payload = {
            "command": self.command, "version": __version__,
            "python": platform.python_version(), "numpy": np.__version__,
        }
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


# Each encoded type's JSON keys: its fields in declaration order, then its derived properties.
_KEYS = {cls: tuple(f.name for f in fields(cls)) for cls in (*_REPORTS, Constraint)}
_KEYS[Constraint] += ("residual",)
_KEYS[ConstraintReport] += ("satisfiable", "trivial_only", "max_residual")
_KEYS[DeleteDemoReport] += ("deletes_exactly",)


def _encode(value):
    if value is None or isinstance(value, (int, float, str)):  # bool is an int, float64 a float
        return value
    if isinstance(value, complex):
        return complex_pair(value)
    if isinstance(value, DensityMatrix):
        return _density_layout(value)
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return _payload(value)  # a nested Constraint


def _payload(report) -> dict:
    """The report's JSON object: the values of `_KEYS[type(report)]`, each encoded."""
    return {key: _encode(getattr(report, key)) for key in _KEYS[type(report)]}


def _finite(text: str) -> str:
    """`text`, the reprs of one or more floats; ValueError if one is NaN or infinite, as
    json's allow_nan=False. A finite float's repr holds no "n"; "nan" and "inf" do."""
    if "n" in text:
        bad = re.search(r"-?(?:nan|inf)", text).group()
        raise ValueError(f"Out of range float values are not JSON compliant: {bad}")
    return text


@functools.cache
def _array_template(shape: tuple[int, ...], pad: str) -> str:
    """A float array of `shape` as JSON text begun on line `pad`, a "%r" for each entry."""
    if not shape:
        return "%r"
    if not shape[0]:
        return "[]"
    inner = pad + "  "
    rows = ("," + inner).join([_array_template(shape[1:], inner)] * shape[0])
    return "[" + inner + rows + pad + "]"


def _json(value, pad: str = "\n") -> str:
    """The text `json.dumps(value, indent=2, allow_nan=False)` gives, for the values a
    payload holds: dicts with str keys, lists, tuples, str, int, bool, None, float and
    float arrays (as their `tolist()`). `pad` is the newline and indent of the value's line.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _finite(float.__repr__(value))
    if isinstance(value, np.ndarray) and value.dtype == float:
        return _finite(_array_template(value.shape, pad) % tuple(value.ravel().tolist()))
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + pad + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _csv(header: str, *columns) -> str:
    """CSV text: the header line, then row k from item k of every column.

    An array column is read with `tolist`, other columns as they are. Numbers
    are written with repr, the shortest round-trip form; a column of strings
    is written in double quotes.
    """
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    texts = [map('"{}"'.format if c and isinstance(c[0], str) else repr, c) for c in columns]
    return "\n".join([header, *map(",".join, zip(*texts))]) + "\n"


def _csv_report(report) -> str:
    if isinstance(report, QualityReport):
        return _csv("alpha_sq,bound", *report.bound_curve.T)
    if isinstance(report, FidelityReport):
        p = _payload(report)
        return _csv(",".join(p), *([v] for v in p.values()))
    if isinstance(report, ConstraintReport):
        cs = report.constraints
        lhs, rhs = np.array([c.lhs for c in cs]), np.array([c.rhs for c in cs])
        return _csv("label,lhs_re,lhs_im,rhs_re,rhs_im,residual", [c.label for c in cs],
                    lhs.real, lhs.imag, rhs.real, rhs.imag, [c.residual for c in cs])
    if isinstance(report, DeleterVerdict):
        return _csv("sample,residual,ancilla_error", range(len(report.residual_stats)),
                    report.residual_stats, report.ancilla_errors)
    raise UnsupportedFormatError(f"{type(report).__name__} has no CSV rendering")


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
    if type(report) not in _REPORTS:
        raise UnsupportedFormatError(f"{type(report).__name__} is not an emittable report")
    if format == "json":
        return _json(_payload(report)) + "\n"
    if format == "csv":
        return _csv_report(report)
    return "\n".join(_table_lines(_payload(report))) + "\n"
