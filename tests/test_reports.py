import json
import math
import platform

import numpy as np
import pytest

from qdel import __version__
from qdel.deletion import optimal_quality
from qdel.errors import UnsupportedFormatError
from qdel.fidelity import fidelity_report
from qdel.hilbert import basis_ket, ket
from qdel.machines import DeleterKind, DeleterVerdict, classify_deleter, swap_deleter
from qdel.nogo import nonorthogonal_constraints
from qdel.reports import RunManifest, emit_report, sub_seed
from qdel.signalling import signalling_distance

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestSeeds:
    def test_sub_seed_is_stable_and_distinct(self):
        a = sub_seed(0, "machines", "classify")
        assert a == sub_seed(0, "machines", "classify")
        assert a != sub_seed(0, "machines", "witness")
        assert a != sub_seed(1, "machines", "classify")
        assert 0 <= a < 2**63


class TestQualityEmission:
    def test_json_schema(self):
        report = optimal_quality(2, 1)
        payload = json.loads(emit_report(report, "json"))
        assert set(payload) == {"n", "m", "min_bound", "formula_value", "agreement"}
        assert payload["formula_value"] == report.formula_value
        assert payload["min_bound"] == report.min_bound

    def test_csv_is_the_bound_curve(self):
        report = optimal_quality(2, 1)
        lines = emit_report(report, "csv").strip().split("\n")
        assert lines[0] == "alpha_sq,bound"
        assert len(lines) == 1 + report.bound_curve.shape[0]
        x, val = lines[1].split(",")
        assert float(x) == 0.0 and float(val) == 1.0

    def test_table_contains_fields(self):
        text = emit_report(optimal_quality(2, 1), "table")
        assert "formula_value" in text and "agreement" in text

    def test_determinism(self):
        one = emit_report(optimal_quality(3, 2), "json")
        two = emit_report(optimal_quality(3, 2), "json")
        assert one == two


class TestFidelityEmission:
    def test_round_trip_values(self):
        report = fidelity_report(0.5, n_theta=16, n_phi=16)
        payload = json.loads(emit_report(report, "json"))
        assert payload["f_b"] == report.f_b
        assert payload["avg_f_a"] == report.avg_f_a

    def test_csv_single_row(self):
        report = fidelity_report(0.5, n_theta=16, n_phi=16)
        lines = emit_report(report, "csv").strip().split("\n")
        assert lines[0].startswith("alpha_sq,")
        assert len(lines) == 2

    def test_table_columns_align(self):
        report = fidelity_report(0.5, n_theta=16, n_phi=16)
        lines = emit_report(report, "table").strip().split("\n")
        assert len(lines) == 8
        values = {line.split()[0] for line in lines}
        assert {"alpha_sq", "f_b", "f_a", "avg_f_b", "avg_f_a", "quadrature_error", "n_theta",
                "n_phi"} == values


class TestConstraintEmission:
    def make_report(self):
        return nonorthogonal_constraints(
            basis_ket([2], 0), ket([INV_SQRT2, INV_SQRT2], [2]), basis_ket([2], 0)
        )

    def test_json_complex_pairs(self):
        payload = json.loads(emit_report(self.make_report(), "json"))
        assert payload["satisfiable"] is False
        assert len(payload["constraints"]) == 5
        lhs = payload["constraints"][0]["lhs"]
        assert isinstance(lhs, list) and len(lhs) == 2

    def test_csv_rows(self):
        lines = emit_report(self.make_report(), "csv").strip().split("\n")
        assert len(lines) == 6


class TestSignallingEmission:
    def test_json_contains_matrices(self):
        report = signalling_distance(0.0, math.pi / 4)
        payload = json.loads(emit_report(report, "json"))
        assert payload["distance_with"] == report.distance_with
        entries = payload["rho_with_deletion"][0]["entries"]
        assert len(entries) == 4 and len(entries[0]) == 4

    def test_csv_unsupported(self):
        report = signalling_distance(0.0, math.pi / 4)
        with pytest.raises(UnsupportedFormatError):
            emit_report(report, "csv")


class TestVerdictEmission:
    def test_csv_per_sample(self):
        verdict = classify_deleter(swap_deleter(2), samples=5, seed=1)
        lines = emit_report(verdict, "csv").strip().split("\n")
        assert lines[0] == "sample,residual,ancilla_error"
        assert len(lines) == 6

    def test_json_kind(self):
        verdict = classify_deleter(swap_deleter(2), samples=5, seed=1)
        payload = json.loads(emit_report(verdict, "json"))
        assert payload["kind"] == "SwapLike"

    def test_sample_count_and_seed_are_emitted(self):
        verdict = classify_deleter(swap_deleter(2), samples=5, seed=2**40 + 1)
        payload = json.loads(emit_report(verdict, "json"))
        assert (payload["samples"], payload["seed"]) == (5, 2**40 + 1)
        table = emit_report(verdict, "table").split("\n")
        assert table[:3] == ["kind                SwapLike", "samples             5",
                             f"seed                {2**40 + 1}"]


def test_json_key_order_is_the_field_order_then_derived_properties():
    verdict = classify_deleter(swap_deleter(2), samples=5, seed=1)
    constraints = nonorthogonal_constraints(
        basis_ket([2], 0), ket([INV_SQRT2, INV_SQRT2], [2]), basis_ket([2], 0)
    )
    expected = [
        (optimal_quality(2, 1), ["n", "m", "min_bound", "formula_value", "agreement"]),
        (fidelity_report(0.5, n_theta=16, n_phi=16),
         ["alpha_sq", "f_b", "f_a", "avg_f_b", "avg_f_a", "quadrature_error", "n_theta",
          "n_phi"]),
        (constraints, ["overlap_s", "constraints", "satisfiable", "trivial_only", "max_residual"]),
        (signalling_distance(0.0, math.pi / 4),
         ["theta_1", "theta_2", "rho_with_deletion", "rho_without_deletion", "distance_with",
          "distance_without"]),
        (verdict, ["kind", "samples", "seed", "residual_stats", "ancilla_dependence",
                   "ancilla_errors"]),
    ]
    for report, keys in expected:
        assert list(json.loads(emit_report(report, "json"))) == keys, type(report).__name__
    entries = json.loads(emit_report(constraints, "json"))["constraints"]
    assert [list(entry) for entry in entries] == [["label", "lhs", "rhs", "residual"]] * 5
    # complex as annotated, so the encoder's complex rule is what writes [re, im]
    assert all(type(c.lhs) is complex and type(c.rhs) is complex for c in constraints.constraints)


class TestEmissionErrors:
    def test_unknown_format(self):
        with pytest.raises(UnsupportedFormatError):
            emit_report(optimal_quality(2, 1), "yaml")

    def test_unknown_report_type(self):
        with pytest.raises(UnsupportedFormatError):
            emit_report({"not": "a report"}, "json")

    def test_nan_is_refused_not_emitted(self):
        verdict = DeleterVerdict(
            kind=DeleterKind.SWAP_LIKE, samples=1, seed=0, residual_stats=(math.nan,),
            ancilla_dependence=0.0, ancilla_errors=(0.0,),
        )
        with pytest.raises(ValueError):
            emit_report(verdict, "json")


class TestRunManifest:
    def test_serialization(self):
        payload = RunManifest(command="qdel verify --machine m.json", tol=1e-9).to_json()
        assert payload == {
            "command": "qdel verify --machine m.json", "version": __version__,
            "python": platform.python_version(), "numpy": np.__version__, "tol": 1e-9,
        }

    def test_identical_manifests_reproduce_identical_reports(self):
        seed = sub_seed(5, "machines", "classify")
        one = classify_deleter(swap_deleter(2), samples=10, seed=seed)
        two = classify_deleter(swap_deleter(2), samples=10, seed=seed)
        assert emit_report(one, "json") == emit_report(two, "json")
