"""Closed-loop benchmark of qdel: one process, one thread, one caller.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pointwise --seed 1 --seconds 30 --trace 0

Set-up imports qdel from the checkout's ``src/``, builds the workload's
machines and wire-format files and makes one warm-up pass. ``setup_s`` is
the median of SETUP_SAMPLES cold set-ups: this process's own and those of
fresh interpreters started one after another (setup_once.py). Then whole
passes over the workload's fixed, seeded job list run back to back until
``--seconds`` have elapsed and at least TAIL_SAMPLES job latencies are in;
each job is issued only after the previous one returns. Every output is checked (see jobs.py), and a job that exits
non-zero, raises or fails its check counts as failed.

The shared host runs the same pass at speeds that differ by up to 1.8x in
phases lasting seconds, so a run's median pass depends on how much of the
run fell into slow phases. The latency metrics are therefore taken from
each job's fastest latencies in the run (see end_to_end).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced passes with traced ones (spans.py) and prints the per-layer
metrics, each a median over the traced passes; the spans themselves are
written to ``perfbench/out/spans-<workload>.npz``.

The last line of standard output is the result object; the line before it
records the environment, sample counts and the fail ratio with its base.
"""

from __future__ import annotations

import os

# OpenBLAS and friends read these when numpy loads them, so this precedes
# every import of numpy: the benchmark measures one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Optional, Sequence  # noqa: E402

import numpy as np  # noqa: E402

import jobs as joblist  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

# Each set-up is the first in its process, so each pays the first-call costs
# (the first ``fidelity --average`` runs several times slower than later ones).
SETUP_SAMPLES = 5

# job_p95_ms is the highest percentile with 10 samples beyond it in a pool
# of 200 job latencies, so a run measures until every job has been timed at
# least TAIL_SAMPLES / jobs-per-pass times. audit, the workload with the
# fewest jobs (6 a pass), usually gets there in 30 s.
TAIL_SAMPLES = 200

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "job_p50_ms": "ms",
    "job_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metrics taken straight from the span aggregates
SPAN_METRICS = (
    "hilbert.density_matrix.calls", "hilbert.density_matrix.self_s",
    "hilbert.eigvalsh.calls",
    "hilbert.partial_trace.calls", "hilbert.partial_trace.self_s",
    "hilbert.trace_distance.calls", "hilbert.trace_distance.self_s",
    "machines.apply.calls", "machines.apply.self_s",
    "machines.classify_deleter.self_s", "machines.machine_from_json.self_s",
    "deletion.optimal_quality.calls", "deletion.optimal_quality.self_s",
    "fidelity.point_fidelities.calls", "fidelity.point_fidelities.self_s",
    "fidelity.batched.self_s",
    "nogo.nonorthogonal_constraints.self_s", "nogo.gram_preservation_check.self_s",
    "signalling.alice_measure.calls", "signalling.bob_delete_and_reduce.self_s",
    "signalling.no_deletion_reduce.self_s",
    "reports.emit_report.calls", "reports.emit_report.self_s",
    "cli.main.self_s",
) + tuple(f"{layer}.errors" for layer in LAYERS)

PER_LAYER = {
    **{name: "s" if name.endswith(".self_s") else "count" for name in SPAN_METRICS},
    "hilbert.validations_per_point": "1/point",
    "fidelity.batched.points": "count",
    "cli.bytes_out": "B",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class PassResult:
    seconds: float
    latencies: list[float]
    failures: list[str]
    bytes_out: int


def run_pass(jobs: Sequence[joblist.Job], tracer: Optional[Tracer] = None) -> PassResult:
    """Issue every job once, in order; check the outputs after the clock stops."""
    results = []
    t_pass = perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.current_job += 1
        t0 = perf_counter()
        try:
            out, error = job.call(), None
        except (Exception, SystemExit) as exc:  # argparse exits on a usage error
            out, error = None, exc
        results.append((out, error, perf_counter() - t0))
    seconds = perf_counter() - t_pass

    failures, bytes_out = [], 0
    for job, (out, error, _) in zip(jobs, results):
        if isinstance(out, str):
            bytes_out += len(out.encode("utf-8"))
        if error is None:
            try:
                job.check(out)
            except Exception as exc:  # a check that cannot read the output fails the job
                error = exc
        if error is not None:
            failures.append(f"{job.label[:120]}: {type(error).__name__}: {error}")
    return PassResult(seconds, [lat for *_, lat in results], failures, bytes_out)


def import_qdel():
    """Import qdel afresh from the checkout's sources, never from an installed copy."""
    for name in [m for m in sys.modules if m == "qdel" or m.startswith("qdel.")]:
        del sys.modules[name]
    qdel = importlib.import_module("qdel")
    importlib.import_module("qdel.cli")
    if Path(qdel.__file__).resolve().parent != SRC / "qdel":
        raise ImportError(f"qdel was imported from {qdel.__file__}, not from {SRC}")
    return qdel


def set_up(workload: str, seed: int, out_dir: Path) -> tuple[float, list[joblist.Job], PassResult]:
    """Import qdel, build the job list and make the warm-up pass; returns its seconds."""
    t0 = perf_counter()
    qdel = import_qdel()
    jobs = joblist.build(workload, qdel, seed, out_dir)
    warmup = run_pass(jobs)
    return perf_counter() - t0, jobs, warmup


def set_up_in_child(workload: str, seed: int, out_dir: Path) -> tuple[float, int, list[str]]:
    """One cold set-up in a fresh interpreter: (seconds, jobs attempted, failures)."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_once.py"), workload, str(seed),
                           str(out_dir)], capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout.strip().split("\n")[-1])
    return out["setup_s"], out["attempted"], out["failures"]


def git_sha() -> Optional[str]:
    """The checked-out commit when it can be read from .git/HEAD and one ref file."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[len("ref: "):]
    return ref_file.read_text().strip() if ref_file.is_file() else None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": hashlib.sha256(b"".join(
            path.read_bytes() for path in sorted((SRC / "qdel").glob("*.py")))).hexdigest(),
        "loadavg_at_start": os.getloadavg(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }


def end_to_end(setup_times: list[float], passes: list[PassResult]) -> dict[str, float]:
    """The end-to-end metrics of a run.

    Each job of the list is timed once a pass, and its fastest latency in the
    run is its latency as it runs when the host does not slow it. pass_s adds
    these up over the job list, and job_p50_ms is their upper median, so an
    observed latency. job_p95_ms is taken over each job's ``k`` fastest
    latencies, ``k`` the fewest that give TAIL_SAMPLES of them, so the tail
    shows the slow jobs rather than the host's slow phases.
    """
    by_job = [sorted(lats) for lats in zip(*(p.latencies for p in passes))]
    best = [lats[0] for lats in by_job]
    k = math.ceil(TAIL_SAMPLES / len(by_job))
    fastest = [lat for lats in by_job for lat in lats[:k]]
    return {
        "setup_s": statistics.median(setup_times),
        "pass_s": sum(best),
        "job_p50_ms": 1e3 * statistics.median_high(best),
        "job_p95_ms": 1e3 * statistics.quantiles(fastest, n=20, method="inclusive")[18],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: Tracer, bounds: list[tuple[int, int]], plain: list[PassResult],
              traced: list[PassResult], points: int, spans_path: Path) -> dict[str, float]:
    cols = tracer.arrays()
    tracer.save(spans_path, cols)
    per_pass = [tracer.aggregate(cols, lo, hi) for lo, hi in bounds]

    def median(key: str) -> float:
        return statistics.median_low(agg[key] for agg in per_pass)

    metrics = {name: median(name) for name in SPAN_METRICS if not name.endswith(".errors")}
    for layer in LAYERS:  # every escaped exception counts, not just a median pass's
        metrics[f"{layer}.errors"] = sum(agg[f"{layer}.errors"] for agg in per_pass) / len(per_pass)
    metrics["hilbert.validations_per_point"] = median("hilbert.density_matrix.calls") / points
    metrics["fidelity.batched.points"] = median("fidelity.batched.points")
    metrics["cli.bytes_out"] = statistics.median_low(p.bytes_out for p in traced)
    metrics["trace.overhead_ratio"] = (statistics.median(p.seconds for p in traced)
                                       / statistics.median(p.seconds for p in plain))
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool,
        out_dir: Path) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (report, result)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    env = environment()
    setup_s, jobs, warmup = set_up(workload, seed, out_dir)
    setups = [(setup_s, len(warmup.latencies), warmup.failures)]
    if not trace:  # the traced run does not report setup_s
        setups += [set_up_in_child(workload, seed, out_dir) for _ in range(SETUP_SAMPLES - 1)]
    setup_times = [s for s, _, _ in setups]

    tracer = Tracer() if trace else None
    plain, traced, bounds = [], [], []
    deadline = perf_counter() + seconds
    while True:
        plain.append(run_pass(jobs))
        if tracer is not None:
            lo = len(tracer)
            tracer.install()
            try:
                traced.append(run_pass(jobs, tracer))
            finally:
                tracer.uninstall()
            bounds.append((lo, len(tracer)))
        if perf_counter() >= deadline and len(plain) * len(jobs) >= TAIL_SAMPLES:
            break

    passes = plain + traced
    attempted = sum(n for _, n, _ in setups) + sum(len(p.latencies) for p in passes)
    failures = [f for _, _, fs in setups for f in fs] + [f for p in passes for f in p.failures]
    points = sum(job.points for job in jobs)
    if tracer is None:
        values, units = end_to_end(setup_times, plain), END_TO_END
    else:
        spans_path = out_dir / f"spans-{workload}.npz"
        values, units = per_layer(tracer, bounds, plain, traced, points, spans_path), PER_LAYER

    samples = len(plain) * len(jobs)
    report = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "env": env,
        "closed_loop": {"callers": 1, "jobs_per_pass": len(jobs), "points_per_pass": points},
        "setup_s_samples": setup_times,
        "passes": len(plain),
        "traced_passes": len(traced),
        "job_latency_samples": samples,
        "job_p95_samples": math.ceil(TAIL_SAMPLES / len(jobs)) * len(jobs),
        "fail_ratio": {"value": len(failures) / attempted, "failed": len(failures),
                       "attempted": attempted},
        "failures": failures[:10],
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    return report, result


def main(argv: Optional[Sequence[str]] = None, out_dir: Path = OUT_DIR) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=joblist.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qdel" / "__init__.py").is_file():
        print(f"error: no qdel sources at {SRC / 'qdel'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    report, result = run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    for failure in report["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
