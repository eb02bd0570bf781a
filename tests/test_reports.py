import enum
import json
import math
import platform
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from qdel import __version__, reports
from qdel.deletion import QualityReport, optimal_quality
from qdel.errors import UnsupportedFormatError
from qdel.fidelity import FidelityReport, fidelity_report
from qdel.hilbert import DensityMatrix, basis_ket, bloch_ket, density_to_json, ket
from qdel.machines import (
    DeleterKind,
    DeleterVerdict,
    classify_deleter,
    conditional_deleter,
    delete_demo_report,
    qudit_pair_deleter,
    swap_deleter,
)
from qdel.nogo import (
    ConstraintReport,
    nonorthogonal_constraints,
    overlap_constraints,
    verify_report,
)
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
        assert set(payload) == {"n", "m", "min_bound", "formula_value", "agreement",
                                "argmin_alpha_sq", "kind"}
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
        assert table[:3] == ["kind            SwapLike", "samples         5",
                             f"seed            {2**40 + 1}"]


def test_json_key_order_is_the_field_order_then_derived_properties():
    verdict = classify_deleter(swap_deleter(2), samples=5, seed=1)
    constraints = nonorthogonal_constraints(
        basis_ket([2], 0), ket([INV_SQRT2, INV_SQRT2], [2]), basis_ket([2], 0)
    )
    expected = [
        (optimal_quality(2, 1), ["n", "m", "min_bound", "formula_value", "agreement",
                                 "argmin_alpha_sq", "kind"]),
        (fidelity_report(0.5, n_theta=16, n_phi=16),
         ["alpha_sq", "f_b", "f_a", "avg_f_b", "avg_f_a", "quadrature_error", "n_theta",
          "n_phi"]),
        (constraints, ["overlap_s", "constraints", "satisfiable", "trivial_only", "max_residual"]),
        (signalling_distance(0.0, math.pi / 4),
         ["theta_1", "theta_2", "rho_with_deletion", "rho_without_deletion", "distance_with",
          "distance_without"]),
        (verdict, ["kind", "samples", "seed", "residual_stats", "swap_deviation",
                   "gram_deviation", "ancilla_errors"]),
        (delete_demo_report(2, 0.5),
         ["dim", "alpha_sq", "residual", "output_norm", "deletes_exactly"]),
        (verify_report(swap_deleter(2), 1e-10),
         ["is_isometry", "max_gram_deviation", "rules_normalized", "max_gram_residual", "tol"]),
    ]
    for report, keys in expected:
        assert list(json.loads(emit_report(report, "json"))) == keys, type(report).__name__
    entries = json.loads(emit_report(constraints, "json"))["constraints"]
    assert [list(entry) for entry in entries] == [["label", "lhs", "rhs", "residual"]] * 5
    # complex as annotated, so the encoder's complex rule is what writes [re, im]
    assert all(type(c.lhs) is complex and type(c.rhs) is complex for c in constraints.constraints)


# One report of every emittable type, with complex, matrix, per-sample and null values.
SAMPLES = [
    optimal_quality(4, 2),
    fidelity_report(0.3, n_theta=16, n_phi=16),
    overlap_constraints(0.6, 0.4),
    signalling_distance(0.2, 0.9),
    classify_deleter(conditional_deleter(), samples=6, seed=3),
    delete_demo_report(3, 0.3),
    verify_report(swap_deleter(2), 1e-10, [basis_ket([2], 0), bloch_ket(0.3, 1.2)]),
    verify_report(qudit_pair_deleter(2), 1e-10),
]

# The rows each CSV rendering holds, from the report's own values.
CSV_ROWS = {
    QualityReport: lambda r: r.bound_curve.tolist(),
    FidelityReport: lambda r: [[getattr(r, f.name) for f in fields(r)]],
    ConstraintReport: lambda r: [[c.label, c.lhs.real, c.lhs.imag, c.rhs.real, c.rhs.imag,
                                  c.residual] for c in r.constraints],
    DeleterVerdict: lambda r: [[i, *pair] for i, pair in
                               enumerate(zip(r.residual_stats, r.ancilla_errors))],
}


def holds_exactly(parsed, value) -> bool:
    """Whether parsed JSON is exactly the report value: every number equal, bool and null kept."""
    if isinstance(value, complex):
        return parsed == [value.real, value.imag]
    if isinstance(value, DensityMatrix):
        entries_hold = holds_exactly(parsed["entries"], value.entries)
        return parsed["dims"] == list(value.dims) and entries_hold
    if isinstance(value, (tuple, np.ndarray)):
        return len(parsed) == len(value) and all(map(holds_exactly, parsed, value))
    if isinstance(value, enum.Enum):
        return parsed == value.value
    if is_dataclass(value):
        return all(holds_exactly(parsed[key], getattr(value, key)) for key in parsed)
    return parsed == value and isinstance(parsed, bool) == isinstance(value, bool)


def list_payload(value):
    """A report's JSON payload built as lists, each matrix through `density_to_json`."""
    if isinstance(value, DensityMatrix):
        return density_to_json(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, tuple):
        return [list_payload(v) for v in value]
    if is_dataclass(value):
        return {key: list_payload(getattr(value, key)) for key in reports._KEYS[type(value)]}
    return value


def test_samples_cover_every_report_type():
    assert {type(report) for report in SAMPLES} == set(reports._REPORTS)


@pytest.mark.parametrize("report", SAMPLES, ids=lambda r: type(r).__name__)
def test_json_is_the_bytes_of_the_standard_indent_2_dump(report):
    expected = json.dumps(list_payload(report), indent=2, allow_nan=False) + "\n"
    assert emit_report(report, "json") == expected


@pytest.mark.parametrize("report", SAMPLES, ids=lambda r: type(r).__name__)
def test_every_rendering_parses_back_to_the_report(report):
    payload = json.loads(emit_report(report, "json"))
    assert payload and holds_exactly(payload, report)

    if type(report) in CSV_ROWS:
        header, *lines = emit_report(report, "csv").splitlines()
        cells = [[c[1:-1] if c.startswith('"') else float(c) for c in line.split(",")]
                 for line in lines]
        assert cells == CSV_ROWS[type(report)](report)
        assert len(header.split(",")) == len(cells[0])
    else:
        with pytest.raises(UnsupportedFormatError, match="has no CSV rendering"):
            emit_report(report, "csv")

    # the table: one "key  value" line per scalar, then a rounded residual per constraint
    flat, _, rest = emit_report(report, "table").rstrip("\n").partition("\n\n")
    scalars = [key for key, value in payload.items() if not isinstance(value, (list, dict))]
    assert [line.split()[0] for line in flat.splitlines()] == scalars
    for line in flat.splitlines():
        key, text = line.split(None, 1)
        value = getattr(report, key)
        if isinstance(value, float):
            assert float(text) == value
        else:
            assert text == str(value.value if isinstance(value, enum.Enum) else value)
    residuals = [float(line.rsplit(" residual ", 1)[1]) for line in rest.splitlines()]
    constraints = getattr(report, "constraints", ())
    assert residuals == [round(c.residual, 12) for c in constraints]


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
            swap_deviation=0.0, gram_deviation=0.0, ancilla_errors=(0.0,),
        )
        with pytest.raises(ValueError):
            emit_report(verdict, "json")


# Finite floats, with the reprs at json's edges: a signed zero, the least subnormal, the
# switch to exponent form on both sides and the greatest double.
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e16, 1e-7, 1.7976931348623157e308])
_TEXTS = st.text() | st.sampled_from(["caf\u00e9 \u2603 \U0001d400", 'a "quoted" word', "back\\slash",
                                      "two\nlines", "[1|2]", ""])
_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(2**63, 2**200) | _FLOATS
           | _TEXTS | arrays(float, array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=3),
                             elements=_FLOATS))
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXTS, inner, max_size=4)),
    max_leaves=12,
)


class TestJsonWriter:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(value=_VALUES)
    def test_writes_the_bytes_of_the_standard_indent_2_dump(self, value):
        expected = json.dumps(value, indent=2, allow_nan=False, default=np.ndarray.tolist)
        assert reports._json(value) == expected

    @pytest.mark.parametrize("shape", [(4, 4, 2), (1, 1, 2), (3, 0), (0, 3), (2, 3), (5,)])
    def test_a_float_array_is_its_nested_list(self, shape):
        array = np.random.default_rng(3).standard_normal(shape)
        for value in (array, {"entries": array}, [[array], -0.0]):
            expected = json.dumps(value, indent=2, allow_nan=False, default=np.ndarray.tolist)
            assert reports._json(value) == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("place", [lambda x: x, lambda x: {"k": (1, x)},
                                       lambda x: np.array([[0.5, 0.25], [x, 0.0]])],
                             ids=["scalar", "mixed_tuple", "array"])
    def test_nan_and_infinities_are_refused(self, bad, place):
        with pytest.raises(ValueError, match="not JSON compliant"):
            reports._json(place(bad))

    def test_values_a_payload_does_not_hold_are_a_type_error(self):
        for value in (np.arange(3), {1: 0.5}, 1j, object()):
            with pytest.raises(TypeError):
                reports._json(value)


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
