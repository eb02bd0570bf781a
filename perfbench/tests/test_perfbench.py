"""Tests of the benchmark harness itself: metrics, failure counting, tracing.

Run from the root of the repository: python -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# the same job kinds at sizes that run in well under a second
TINY = {
    "fidelity_sweep": 11, "signal_sweep": 9, "nogo_sweep": 10,
    "delete_demos": 2, "signal_pairs": 1,
    "grid": 16, "quality_n_max": 3,
    "classify_samples": (8, 6, 6), "alphabet": 4,
}


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    """Tiny jobs, and only the in-process set-up (a fresh interpreter would run full sizes)."""
    monkeypatch.setattr(jobs, "SIZES", TINY)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)


def bench(capsys, out_dir, workload, trace, seed=3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.05",
                     "--trace", str(trace)], out_dir=out_dir)
    lines = capsys.readouterr().out.strip().split("\n")
    return code, json.loads(lines[-2]), json.loads(lines[-1])


def test_spec_names_the_benchmarks_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(jobs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(capsys, tmp_path, workload, trace, section):
    code, report, result = bench(capsys, tmp_path, workload, trace)
    assert code == 0
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert report["fail_ratio"] == {"value": 0.0, "failed": 0, "attempted": result["attempted"]}
    assert report["job_latency_samples"] >= run.TAIL_SAMPLES  # job_p95_ms has 10 beyond it


def test_setup_s_is_the_median_of_cold_set_ups(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 3)
    code, report, result = bench(capsys, tmp_path, "quadrature", 0)
    assert code == 0 and result["correct"] is True
    samples = report["setup_s_samples"]
    assert len(samples) == 3 and min(samples) > 0
    assert result["metrics"]["setup_s"]["value"] == sorted(samples)[1]
    # the two fresh interpreters warm up on the full-size job list: 1 + 78 jobs
    per_pass = report["closed_loop"]["jobs_per_pass"]
    assert result["attempted"] == per_pass * (1 + report["passes"]) + 2 * 79


def test_latency_metrics_come_from_each_jobs_fastest_latencies(monkeypatch):
    monkeypatch.setattr(run, "TAIL_SAMPLES", 4)  # two jobs, so each job's 2 fastest
    passes = [run.PassResult(0.0, [0.001 * a, 0.010 * b], [], 0)
              for a, b in [(3, 5), (1, 9), (2, 4), (8, 6)]]
    metrics = run.end_to_end([2.0, 1.0, 3.0], passes)
    assert metrics["setup_s"] == 2.0
    assert metrics["pass_s"] == pytest.approx(0.001 + 0.040)
    # the pool is 1, 2, 40, 50 ms; 0.95 of the way from the first to the last
    assert metrics["job_p95_ms"] == pytest.approx(40 + 0.85 * 10)
    assert metrics["job_p50_ms"] == pytest.approx(40)  # upper median of 1 and 40 ms


def _wrong_output(job, qdel):
    def call():
        header, first, *rest = job.call().split("\n")
        return "\n".join([header, first.rsplit(",", 1)[0] + ",0.5", *rest])  # f_b(0) is 1

    return jobs.Job(job.label, call, job.check, job.points)


def _exception(job, qdel):
    def call():
        raise RuntimeError("injected")

    return jobs.Job(job.label, call, job.check, job.points)


def _exit_code(job, qdel):
    return jobs.cli_job(qdel, ["verify", "--machine", "no-such-file.json"], job.check, 0)


@pytest.mark.parametrize("fault", [_wrong_output, _exception, _exit_code])
def test_a_failing_job_counts_in_fail_ratio(monkeypatch, capsys, tmp_path, fault):
    build = jobs.build

    def faulty(workload, qdel, *args, **kwargs):
        first, *rest = build(workload, qdel, *args, **kwargs)
        return [fault(first, qdel), *rest]

    monkeypatch.setattr(jobs, "build", faulty)
    code, report, result = bench(capsys, tmp_path, "pointwise", 0)
    assert code == 1 and result["correct"] is False
    assert result["failed"] == report["passes"] + 1  # once in every pass and the warm-up
    assert report["fail_ratio"] == {"value": result["failed"] / result["attempted"],
                                    "failed": result["failed"], "attempted": result["attempted"]}


def test_the_seed_alone_decides_the_inputs(tmp_path):
    qdel = run.import_qdel()
    for workload in jobs.WORKLOADS:
        labels = [[j.label for j in jobs.build(workload, qdel, seed, tmp_path)]
                  for seed in (5, 5, 6)]
        assert labels[0] == labels[1]
        assert labels[0] != labels[2]


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_traced_counts_repeat_exactly_for_one_seed(capsys, tmp_path, workload):
    def counts():
        _, _, result = bench(capsys, tmp_path, workload, 1)
        return {name: metric["value"] for name, metric in result["metrics"].items()
                if name.endswith((".calls", ".points", ".errors", "bytes_out", "per_point"))}

    first, second = counts(), counts()
    assert first == second
    assert first["hilbert.density_matrix.calls"] > 0


def _bindings():
    """Every attribute of the loaded qdel modules, the traced method and eigvalsh."""
    found = {("numpy.linalg", "eigvalsh"): np.linalg.eigvalsh}
    for name, module in list(sys.modules.items()):
        if name == "qdel" or name.startswith("qdel."):
            found.update({(name, key): value for key, value in vars(module).items()})
    density = sys.modules["qdel.hilbert"].DensityMatrix
    found[("qdel.hilbert", "DensityMatrix.__post_init__")] = density.__dict__["__post_init__"]
    return found


def test_install_wraps_every_binding_and_uninstall_restores_it():
    qdel = run.import_qdel()
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _bindings()
        for module, key in [("qdel.machines", "apply"), ("qdel", "apply"),
                            ("qdel.cli", "apply_machine"), ("qdel.fidelity", "apply"),
                            ("qdel.cli", "main"), ("numpy.linalg", "eigvalsh"),
                            ("qdel.hilbert", "DensityMatrix.__post_init__")]:
            assert hasattr(during[(module, key)], spans.SPAN_MARK), (module, key)
        qdel.hilbert.partial_trace(qdel.density_of(qdel.basis_ket([2, 2], 0)), keep={0})
        assert len(tracer) > 0
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    recorded = len(tracer)
    qdel.hilbert.partial_trace(qdel.density_of(qdel.basis_ket([2, 2], 0)), keep={0})
    assert len(tracer) == recorded


def test_a_traced_run_leaves_no_wrapper_behind(capsys, tmp_path):
    bench(capsys, tmp_path, "pointwise", 1)
    assert not [key for key, value in _bindings().items() if hasattr(value, spans.SPAN_MARK)]


def test_without_the_sources_it_fails_without_a_result(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "audit", "--seed", "1", "--seconds", "1"], out_dir=tmp_path)
    assert code != 0
    assert capsys.readouterr().out == ""
