"""Span recording around qdel's layer boundaries, from outside the package.

A span wraps one public function of a layer. Because ``from .hilbert import
partial_trace`` copies the binding into the importing module, a function is
wrapped at every name it is bound to in the loaded qdel modules, and every
one of those names is put back by ``Tracer.uninstall``. Spans record the
span name, start, end, parent span and job id into flat arrays that stay in
memory until the run ends.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter
from typing import Callable

import numpy as np

# span name -> (module, attribute); "Class.method" wraps a method on the class.
# The first name part is the layer: the qdel module the function belongs to.
# numpy.linalg.eigvalsh counts under hilbert, whose states call it. Entry
# points that no metric reports (fidelity_report, sweep_overlap, ...) are
# spanned too, so that their work is not counted as cli.main self time and
# exceptions escaping them count against their layer.
TARGETS = {
    "hilbert.density_matrix": ("qdel.hilbert", "DensityMatrix.__post_init__"),
    "hilbert.eigvalsh": ("numpy.linalg", "eigvalsh"),
    "hilbert.partial_trace": ("qdel.hilbert", "partial_trace"),
    "hilbert.trace_distance": ("qdel.hilbert", "trace_distance"),
    "machines.apply": ("qdel.machines", "apply"),
    "machines.check_isometry": ("qdel.machines", "check_isometry"),
    "machines.classify_deleter": ("qdel.machines", "classify_deleter"),
    "machines.deletion_residual": ("qdel.machines", "deletion_residual"),
    "machines.machine_from_json": ("qdel.machines", "machine_from_json"),
    "deletion.optimal_quality": ("qdel.deletion", "optimal_quality"),
    "fidelity.batched": ("qdel.fidelity", "_batched_fidelities"),
    "fidelity.fidelity_report": ("qdel.fidelity", "fidelity_report"),
    "fidelity.point_fidelities": ("qdel.fidelity", "point_fidelities"),
    "nogo.gram_preservation_check": ("qdel.nogo", "gram_preservation_check"),
    "nogo.nonorthogonal_constraints": ("qdel.nogo", "nonorthogonal_constraints"),
    "nogo.sweep_overlap": ("qdel.nogo", "sweep_overlap"),
    "signalling.alice_measure": ("qdel.signalling", "alice_measure"),
    "signalling.bob_delete_and_reduce": ("qdel.signalling", "bob_delete_and_reduce"),
    "signalling.no_deletion_reduce": ("qdel.signalling", "no_deletion_reduce"),
    "signalling.signalling_distance": ("qdel.signalling", "signalling_distance"),
    "reports.emit_report": ("qdel.reports", "emit_report"),
    "cli.main": ("qdel.cli", "main"),
}

LAYERS = ("hilbert", "machines", "deletion", "fidelity", "nogo", "signalling", "reports", "cli")

# the one span that also records work: the points of the batched grid it is given
POINTS_SPAN = "fidelity.batched"

SPAN_MARK = "__perfbench_span__"


def _owners(module: str, attr: str) -> list[tuple[object, str, object]]:
    """Every (namespace, name) in the loaded modules bound to the target."""
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(sys.modules[module], cls_name)
        return [(cls, method, cls.__dict__[method])]
    original = getattr(sys.modules[module], attr)
    names = [m for m in sys.modules if m == "qdel" or m.startswith("qdel.")] + [module]
    owners = []
    for name in dict.fromkeys(names):
        namespace = sys.modules[name]
        for key, value in vars(namespace).items():
            if value is original:
                owners.append((namespace, key, original))
    return owners


class Tracer:
    """Collects spans; ``install`` wraps the targets and ``uninstall`` restores them."""

    def __init__(self) -> None:
        self.names = list(TARGETS)
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.escaped = array("b")  # 1 when an exception left this span for another layer
        self.points = array("i")
        self.current_job = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = self.names.index(name)
        layer = name.split(".")[0]
        count_points = name == POINTS_SPAN
        names, stack = self.names, self._stack
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        job, escaped, points = self.job, self.escaped, self.points

        def span(*args, **kwargs):
            idx = len(start)
            up = stack[-1] if stack else -1
            name_id.append(nid)
            parent.append(up)
            job.append(self.current_job)
            escaped.append(0)
            points.append(int(np.size(args[0])) if count_points else 0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if up < 0 or names[name_id[up]].split(".")[0] != layer:
                    escaped[idx] = 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()

        setattr(span, SPAN_MARK, name)
        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name, (module, attr) in TARGETS.items():
            owners = _owners(module, attr)
            if not owners:
                raise RuntimeError(f"span target {module}.{attr} is not bound anywhere")
            wrapper = self._wrap(name, owners[0][2])
            for namespace, key, original in owners:
                self._saved.append((namespace, key, original))
                setattr(namespace, key, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            namespace, key, original = self._saved.pop()
            setattr(namespace, key, original)

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of the span columns, plus each span's self time.

        Self time is the span's duration minus the time its direct children
        cover; calls on one thread nest, so the children never overlap.
        """
        cols = {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "job": np.array(self.job, dtype=np.int32),
            "escaped": np.array(self.escaped, dtype=np.int8),
            "points": np.array(self.points, dtype=np.int32),
        }
        dur = cols["end"] - cols["start"]
        child = cols["parent"] >= 0
        covered = np.bincount(cols["parent"][child], weights=dur[child], minlength=len(dur))
        cols["self_s"] = dur - covered
        return cols

    def aggregate(self, cols: dict[str, np.ndarray], lo: int, hi: int) -> dict[str, float]:
        """Per-span calls, self time and points, and per-layer errors, over spans [lo, hi)."""
        ids, k = cols["name_id"][lo:hi], len(self.names)

        def per_name(column: str) -> np.ndarray:
            return np.bincount(ids, weights=cols[column][lo:hi], minlength=k)

        calls, self_s, points, escaped = (np.bincount(ids, minlength=k), per_name("self_s"),
                                          per_name("points"), per_name("escaped"))
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.self_s"] = float(self_s[i])
            out[f"{name}.points"] = int(points[i])
        for layer in LAYERS:
            out[f"{layer}.errors"] = int(sum(escaped[i] for i, name in enumerate(self.names)
                                             if name.split(".")[0] == layer))
        return out

    def save(self, path, cols: dict[str, np.ndarray]) -> None:
        np.savez(path, names=np.array(self.names), **cols)
