import contextlib
import io
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qdel
from qdel import cli
from qdel.cli import main
from qdel.errors import InvalidStateError, ShapeError
from qdel.fidelity import point_fidelities
from qdel.hilbert import basis_ket, bloch_ket, ket, tensor
from qdel.machines import (
    BasisActionMachine,
    apply,
    check_isometry,
    conditional_deleter,
    deletion_residual,
    machine_from_json,
    machine_to_json,
    qudit_pair_deleter,
    swap_deleter,
)
from qdel.nogo import _conditions, gram_preservation_check
from qdel.reports import emit_report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQuality:
    def test_two_to_one(self, capsys):
        code, out, _ = run(capsys, "quality", "--n", "2", "--m", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["formula_value"] == pytest.approx(0.70711, abs=1e-5)

    def test_curve_csv(self, capsys):
        code, out, _ = run(capsys, "quality", "--n", "2", "--m", "1", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha_sq,bound"
        assert len(lines) == 10002

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "quality", "--n", "3", "--m", "2", "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["n"] == 3

    @pytest.mark.parametrize("target", ["missing/report.json", "."], ids=["no_dir", "a_dir"])
    def test_unwritable_out_is_a_numeric_error(self, capsys, tmp_path, target):
        out_path = str(tmp_path / target)
        code, out, err = run(capsys, "quality", "--n", "2", "--m", "1", "--out", out_path)
        assert code == 3 and out == "" and err.startswith("error: ")

    def test_large_n_has_a_finite_minimum(self, capsys):
        code, out, _ = run(capsys, "quality", "--n", "16384", "--m", "2")
        assert code == 0
        payload = json.loads(out)
        assert math.isfinite(payload["min_bound"]) and payload["min_bound"] < 0.05
        assert payload["kind"] == "local_maximum"

    def test_n_beyond_a_float_is_a_numeric_error(self, capsys):
        code, out, err = run(capsys, "quality", "--n", str(10**400), "--m", "2")
        assert code == 3 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("n, m", [(10**15, 7), (10**300, 10**299)])
    def test_a_minimum_doubles_cannot_resolve_is_a_numeric_error(self, capsys, n, m):
        code, out, err = run(capsys, "quality", "--n", str(n), "--m", str(m))
        assert code == 3 and out == ""
        assert err.startswith(f"error: quality bound at n={n}, m={m}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_bad_n_m_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "quality", "--n", "1", "--m", "2")
        assert err.value.code == 2


class TestFidelity:
    def test_average_grid(self, capsys):
        code, out, _ = run(capsys, "fidelity", "--average", "--grid", "64x64")
        assert code == 0
        payload = json.loads(out)
        assert payload["avg_f_b"] == pytest.approx(5.0 / 6.0, abs=1e-6)
        assert payload["avg_f_a"] == pytest.approx(2.0 / 3.0, abs=1e-6)

    @pytest.mark.parametrize("flags, grid", [(["--average"], "256x256"), ([], "64x64")])
    def test_average_only_sets_the_default_grid(self, capsys, flags, grid):
        code, out, _ = run(capsys, "fidelity", *flags, "--alpha-sq", "0.3")
        assert code == 0
        assert run(capsys, "fidelity", "--grid", grid, "--alpha-sq", "0.3") == (0, out, "")

    def test_pointwise(self, capsys):
        code, out, _ = run(capsys, "fidelity", "--alpha-sq", "0.5")
        payload = json.loads(out)
        assert code == 0
        assert payload["f_b"] == pytest.approx(0.75, abs=1e-12)
        assert payload["f_a"] == pytest.approx(0.5, abs=1e-12)

    def test_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "fidelity", "--sweep", "11")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "alpha_sq,f_a,f_b"
        assert len(lines) == 12
        for line in lines[1:]:  # the batched sweep equals the one-point path exactly
            x, f_a, f_b = map(float, line.split(","))
            assert (f_b, f_a) == point_fidelities(math.sqrt(x), math.sqrt(1.0 - x))

    def test_alpha_sq_validated_before_computation(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "fidelity", "--alpha-sq", "1.5")
        assert err.value.code == 2

    def test_refused_allocation_is_a_numeric_error(self, capsys, monkeypatch):
        def refuse(args):  # a --grid too large for numpy, without allocating anything
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setitem(cli._RUNNERS, "fidelity", refuse)
        code, out, err = run(capsys, "fidelity", "--alpha-sq", "0.3", "--grid", "1000000x8")
        assert code == 3 and out == ""
        assert err == "error: Unable to allocate 7.28 TiB for an array\n"

    def test_grid_over_the_theta_row_limit_is_a_numeric_error(self, capsys):
        # under the point limit, but over the theta-row limit, whose rule costs O(n^2)
        code, out, err = run(capsys, "fidelity", "--alpha-sq", "0.3", "--grid", "4097x8")
        assert code == 3 and out == ""
        assert err == "error: grid 4097x8 has 4,097 theta rows, above the limit of 4,096\n"

    def test_grid_over_the_point_limit_is_a_numeric_error(self, capsys):
        # refused before the grid is built, where streaming it would run for hours
        code, out, err = run(capsys, "fidelity", "--alpha-sq", "0.3", "--grid", "512x100000000")
        assert code == 3 and out == ""
        assert err == (
            "error: grid 512x100000000 has 51,200,000,000 points, above the limit of 268,435,456\n"
        )


class TestNogo:
    def test_overlap_report(self, capsys):
        code, out, _ = run(capsys, "nogo", "--overlap", "0.7071067811865476")
        payload = json.loads(out)
        assert code == 0
        assert payload["satisfiable"] is False
        assert payload["constraints"][0]["residual"] == pytest.approx(
            abs(0.5 - 2.0 ** -0.5), abs=1e-12
        )

    def test_table_lists_the_five_residuals_in_condition_order(self, capsys):
        code, out, _ = run(capsys, "nogo", "--overlap", "0.5", "--format", "table")
        assert code == 0
        labels = [label for label, _, _ in _conditions(0.5, 1.0, 0.5, 0.5)]
        width = max(len(label) for label in labels)
        rows = [line for line in out.splitlines() if "  residual " in line]
        assert [row[:width] for row in rows] == [label.ljust(width) for label in labels]
        residuals = [float(row.rsplit(" ", 1)[1]) for row in rows]
        assert residuals == pytest.approx([0.25, 0.0, 0.5, 0.0, 0.5], abs=1e-12)

    def test_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "nogo", "--sweep", "21")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "s,max_residual"
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[1]) == pytest.approx(1.0, abs=1e-12)
        assert float(last[1]) == 0.0


class TestSignal:
    def test_distances(self, capsys):
        code, out, _ = run(capsys, "signal", "--theta1", "0", "--theta2", "0.7853981633974483")
        payload = json.loads(out)
        assert code == 0
        assert payload["distance_with"] == pytest.approx(0.25, abs=1e-12)
        assert payload["distance_without"] < 1e-12

    def test_degree_suffix(self, capsys):
        code, out, _ = run(capsys, "signal", "--theta1", "45deg", "--theta2", "0.7853981633974483")
        payload = json.loads(out)
        assert code == 0
        assert payload["distance_with"] < 1e-12  # 45deg == pi/4

    def test_negative_degree_angle_takes_the_equals_form(self, capsys):
        code, out, _ = run(capsys, "signal", "--theta1=-45deg", "--theta2", "0")
        _, radians, _ = run(capsys, "signal", "--theta1=-0.7853981633974483", "--theta2", "0")
        assert code == 0
        assert out == radians

    def test_sweep(self, capsys):
        code, out, _ = run(capsys, "signal", "--sweep", "11")
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "theta,trace_distance_vs_theta0"
        assert len(lines) == 12
        assert float(lines[1].split(",")[1]) == pytest.approx(0.0, abs=1e-12)


class TestDeleteDemo:
    def test_balanced_residual_positive(self, capsys):
        code, out, _ = run(capsys, "delete-demo", "--dim", "2", "--alpha-sq", "0.5")
        payload = json.loads(out)
        assert code == 0
        assert payload["residual"] > 0.01
        assert payload["deletes_exactly"] is False

    def test_basis_state_deletes(self, capsys):
        code, out, _ = run(capsys, "delete-demo", "--dim", "3", "--alpha-sq", "1.0")
        payload = json.loads(out)
        assert code == 0
        assert payload["deletes_exactly"] is True


class TestVerify:
    def write_machine(self, tmp_path, machine):
        path = tmp_path / "machine.json"
        path.write_text(json.dumps(machine_to_json(machine)))
        return str(path)

    def test_swap_machine_verifies(self, capsys, tmp_path):
        path = self.write_machine(tmp_path, swap_deleter(2))
        code, out, _ = run(capsys, "verify", "--machine", path, "--alphabet", "0,1,+")
        payload = json.loads(out)
        assert code == 0
        assert payload["is_isometry"] is True
        assert payload["max_gram_residual"] < 1e-12

    def test_pair_deleter_is_not_an_isometry(self, capsys, tmp_path):
        path = self.write_machine(tmp_path, qudit_pair_deleter(2))
        code, out, _ = run(capsys, "verify", "--machine", path)
        payload = json.loads(out)
        assert code == 0
        assert payload["is_isometry"] is False

    def test_corrupt_machine_is_a_numeric_error(self, capsys, tmp_path):
        payload = machine_to_json(swap_deleter(2))
        payload["rules"] = payload["rules"][:-1]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "verify", "--machine", str(path))
        assert code == 3
        assert "error" in err

    @pytest.mark.parametrize(
        "d, alphabet, named",
        [(2, "7", "dimension 2"), (2, "0,-1", "dimension 2"), (3, "0,+", "3-level"),
         (3, "bloch:1", "3-level")],
    )
    def test_alphabet_that_misfits_the_machine_is_a_usage_error(
        self, capsys, tmp_path, d, alphabet, named
    ):
        path = self.write_machine(tmp_path, swap_deleter(d))
        with pytest.raises(SystemExit) as err:
            run(capsys, "verify", "--machine", path, "--alphabet", alphabet)
        assert err.value.code == 2
        assert named in capsys.readouterr().err

    def test_an_alphabet_for_a_machine_with_no_two_copies_is_a_numeric_error(
        self, capsys, tmp_path
    ):
        path = self.write_machine(tmp_path, BasisActionMachine((2,), (2,), np.eye(2)))
        code, out, err = run(capsys, "verify", "--machine", path, "--alphabet", "0")
        assert code == 3 and out == ""
        assert "expected a [d, d] or [d, d, m] machine, got (2,)" in err

    def test_qutrit_basis_alphabet_fits(self, capsys, tmp_path):
        path = self.write_machine(tmp_path, swap_deleter(3))
        code, out, _ = run(capsys, "verify", "--machine", path, "--alphabet", "0,1,2")
        assert code == 0 and json.loads(out)["max_gram_residual"] == 0.0

    def test_a_repeated_index_names_the_missing_one_in_a_short_line(self, capsys, tmp_path):
        # 1,024 rules: a message listing every index would run to thousands of characters
        rules = [{"in_index": i, "out_amplitudes": [[1.0, 0.0], [0.0, 0.0]]} for i in range(1024)]
        rules[700]["in_index"] = 5
        path = tmp_path / "repeat.json"
        path.write_text(json.dumps({"input_dims": [32, 32], "output_dims": [2], "rules": rules}))
        code, out, err = run(capsys, "verify", "--machine", str(path))
        assert code == 3 and out == ""
        assert "no rule has in_index 700" in err and len(err) < 200

    def test_deeply_nested_file_is_a_numeric_error(self, capsys, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run(capsys, "verify", "--machine", str(path))
        assert code == 3 and out == ""
        assert err == f"error: {path}: JSON nested too deeply to read\n"

    def test_nan_amplitude_is_a_numeric_error(self, capsys, tmp_path):
        payload = machine_to_json(swap_deleter(2))
        payload["rules"][0]["out_amplitudes"][0] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify", "--machine", str(path), "--alphabet", "0,1,+")
        assert code == 3
        assert out == "" and "non-finite" in err

    @staticmethod
    def retyped(path: list, value):
        """The swap(2) wire format with the value at `path` replaced, or deleted for None;
        [] replaces the whole."""
        payload = machine_to_json(swap_deleter(2))
        if not path:
            return value
        *parents, last = path
        target = payload
        for key in parents:
            target = target[key]
        if value is None:
            del target[last]
        else:
            target[last] = value
        return payload

    @pytest.mark.parametrize("path, value", [
        (["rules", 0, "out_amplitudes", 0], ["1", 0.0]),
        (["rules", 0, "out_amplitudes"], 1.0),
        ([], [machine_to_json(swap_deleter(2))]),
        (["input_dims"], [[2]]),
        (["rules", 0], [0, []]),
        (["rules"], machine_to_json(swap_deleter(2))["rules"] * 2),
        (["rules", 1, "in_index"], 1.7),
        (["rules", 1, "in_index"], True),
    ], ids=["string_amplitude", "numeric_out_amplitudes", "top_level_list", "nested_dims",
            "rule_not_an_object", "repeated_in_index", "fractional_in_index", "boolean_in_index"])
    def test_wrong_json_types_are_numeric_errors(self, capsys, tmp_path, path, value):
        payload = self.retyped(path, value)
        with pytest.raises((ShapeError, InvalidStateError)):
            machine_from_json(payload, strict=False)
        machine_file = tmp_path / "typed.json"
        machine_file.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify", "--machine", str(machine_file))
        assert code == 3 and out == "" and err.startswith("error: ")


    @pytest.mark.parametrize("path, value, named", [
        (["rules", 1, "out_amplitudes", 2], [0.0],
         "rule 1: out_amplitudes is not a list of [re, im] pairs"),
        (["rules", 0, "out_amplitudes", 0], ["1", 0.0],
         "rule 0: out_amplitudes must hold numbers, got <U32"),
        (["rules", 2, "out_amplitudes"], [[0.0, 0.0]] * 7,
         "rule 2 has amplitudes of shape (7, 2), need (8, 2)"),
        (["rules", 3, "out_amplitudes"], [[False, False]] * 7 + [[True, False]],
         "rule 3: out_amplitudes must hold numbers, got bool"),
        (["rules", 1, "in_index"], 1.7, "rules[1].in_index must be an integer >= 0, got 1.7"),
    ], ids=["ragged", "string_amplitude", "wrong_shape", "boolean_rule", "fractional_in_index"])
    def test_a_malformed_rule_is_named(self, capsys, tmp_path, path, value, named):
        machine_file = tmp_path / "malformed.json"
        machine_file.write_text(json.dumps(self.retyped(path, value)))
        code, out, err = run(capsys, "verify", "--machine", str(machine_file))
        assert (code, out, err) == (3, "", f"error: {named}\n")

    def test_the_first_malformed_rule_in_file_order_is_named_by_its_in_index(
        self, capsys, tmp_path
    ):
        payload = machine_to_json(swap_deleter(2))
        payload["rules"].reverse()
        payload["rules"][0]["out_amplitudes"][0] = ["x", 0.0]  # in_index 7
        payload["rules"][1]["out_amplitudes"].pop()  # in_index 6
        machine_file = tmp_path / "reversed.json"
        machine_file.write_text(json.dumps(payload))
        code, out, err = run(capsys, "verify", "--machine", str(machine_file))
        named = "rule 7: out_amplitudes must hold numbers, got <U32"
        assert (code, out, err) == (3, "", f"error: {named}\n")

    def test_rules_in_any_order_read_as_the_same_machine(self):
        payload = machine_to_json(conditional_deleter())
        payload["rules"].reverse()
        want = conditional_deleter().matrix.tobytes()
        assert machine_from_json(payload).matrix.tobytes() == want

    @pytest.mark.parametrize("path, named", [
        (["input_dims"], "a machine has no 'input_dims' key"),
        (["output_dims"], "a machine has no 'output_dims' key"),
        (["rules"], "a machine has no 'rules' key"),
        (["rules", 1, "in_index"], "rules[1] has no 'in_index' key"),
        (["rules", 2, "out_amplitudes"], "rules[2] has no 'out_amplitudes' key"),
    ], ids=["input_dims", "output_dims", "rules", "in_index", "out_amplitudes"])
    def test_missing_key_is_named(self, capsys, tmp_path, path, named):
        machine_file = tmp_path / "missing.json"
        machine_file.write_text(json.dumps(self.retyped(path, None)))
        code, out, err = run(capsys, "verify", "--machine", str(machine_file))
        assert code == 3 and out == ""
        assert err == f"error: {named}\n"


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fidelity", "--sweep", "1"],
            ["signal", "--sweep", "1"],
            ["fidelity", "--grid", "4x4"],
            ["signal", "--format", "csv"],
            ["signal", "--theta1", "abc"],
            ["nogo", "--phase", "x"],
            ["verify", "--machine", "m.json", "--tol", "-1"],
            ["verify", "--machine", "m.json", "--tol", "nan"],
            ["quality", "--n", "2", "--m", "1", "--seed", "9"],
            ["quality", "--n", "2", "--m", "1", "--curve"],
            ["quality", "--n", "2", "--m", "1", "--tol", "1e-9"],
            ["delete-demo", "--format", "json"],
            ["verify", "--machine", "m.json", "--alphabet", "bloch:abc"],
            ["verify", "--machine", "m.json", "--alphabet", "bloch:1:2:3"],
            ["verify", "--machine", "m.json", "--alphabet", "1.5"],
            ["verify", "--machine", "m.json", "--alphabet", ","],
            ["fidelity", "--sweep", "3", "--format", "table"],
            ["fidelity", "--sweep", "3", "--format", "json"],
            ["fidelity", "--sweep", "3", "--grid", "16x16"],
            ["fidelity", "--sweep", "3", "--alpha-sq", "0.2"],
            ["fidelity", "--sweep", "3", "--average"],
            ["nogo", "--sweep", "3", "--overlap", "0.2"],
            ["nogo", "--sweep", "3", "--format", "json"],
            ["signal", "--sweep", "3", "--theta1", "0.4"],
            ["signal", "--sweep", "3", "--theta2", "0"],
            ["signal", "--sweep", "3", "--format", "table"],
            ["delete-demo", "--dim", "65"],
            ["delete-demo", "--dim", "100000"],
        ],
    )
    def test_rejected_before_computation(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            run(capsys, *argv)
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["signal", "--theta1", "nan"],
            ["signal", "--theta2", "infdeg"],
            ["nogo", "--sweep", "5", "--phase", "inf"],
            ["nogo", "--overlap", "0.5", "--phase=-inf"],
            ["verify", "--machine", "m.json", "--alphabet", "bloch:nan"],
            ["verify", "--machine", "m.json", "--alphabet", "bloch:1:1e400deg"],
        ],
    )
    def test_non_finite_angle_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            run(capsys, *argv)
        assert err.value.code == 2
        assert "angle must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["fidelity", "--sweep", "5"], ["nogo", "--sweep", "5", "--phase", "0.3"],
         ["signal", "--sweep", "5"]],
    )
    def test_sweep_takes_csv_or_no_format(self, capsys, argv):
        omitted = run(capsys, *argv)
        assert omitted[0] == 0
        assert run(capsys, *argv, "--format", "csv") == omitted

    @pytest.mark.parametrize(
        "bare, spelled_out",
        [
            (["fidelity"], ["fidelity", "--alpha-sq", "0.5", "--format", "json"]),
            (["nogo"], ["nogo", "--overlap", "0.7071067811865476"]),
            (["signal"], ["signal", "--theta1", "0", "--theta2", "45deg"]),
        ],
    )
    def test_omitted_flags_take_their_defaults(self, capsys, bare, spelled_out):
        result = run(capsys, *bare)
        assert result[0] == 0
        assert run(capsys, *spelled_out) == result

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys, "explode")
        assert err.value.code == 2

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(capsys)
        assert err.value.code == 2


class TestManifest:
    def test_manifest_goes_to_stderr(self, capsys):
        code, out, err = run(capsys, "quality", "--n", "2", "--m", "1", "--manifest")
        assert code == 0
        manifest = json.loads(err)
        assert "quality" in manifest["command"]
        assert "tol" not in manifest
        assert (manifest["python"], manifest["numpy"]) == (platform.python_version(), np.__version__)
        json.loads(out)  # report still parses

    def test_manifest_and_out_go_after_the_subcommand(self, capsys, tmp_path):
        # they are flags of every subcommand, not of `qdel` itself, as the README says
        path = tmp_path / "report.json"
        code, out, err = run(capsys, "quality", "--n", "3", "--m", "2", "--out", str(path),
                             "--manifest")
        assert code == 0 and out == ""
        assert json.loads(err)["command"] == f"qdel quality --n 3 --m 2 --out {path} --manifest"
        assert json.loads(path.read_text())["n"] == 3
        path.unlink()
        for before in (["--manifest"], ["--out", str(path)]):
            with pytest.raises(SystemExit) as exc:
                run(capsys, *before, "quality", "--n", "3", "--m", "2")
            captured = capsys.readouterr()
            assert exc.value.code == 2 and captured.out == ""
            assert captured.err.startswith("usage: qdel [-h] [--version]")
            assert not path.exists()

    def test_verify_records_the_tolerance_it_applied(self, capsys, tmp_path):
        path = tmp_path / "machine.json"
        path.write_text(json.dumps(machine_to_json(swap_deleter(2))))
        argv = ["verify", "--machine", str(path), "--tol", "1e-9", "--manifest"]
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert json.loads(err)["tol"] == 1e-9
        assert json.loads(out)["is_isometry"] is True

    def test_a_usage_error_prints_no_manifest(self, capsys, tmp_path):
        path = tmp_path / "machine.json"
        path.write_text(json.dumps(machine_to_json(swap_deleter(2))))
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--machine", str(path), "--alphabet", "0,5", "--manifest")
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.startswith("usage: qdel verify ")
        assert captured.err.endswith("error: --alphabet: index 5 outside dimension 2\n")
        assert '"command"' not in captured.err

    @pytest.mark.parametrize(
        "flags, message",
        [(["--tol", "nan"], "tol must be a positive finite number, got nan"),
         (["--alphabet", "0,bloch:1:inf"], "angle must be finite, got inf")],
        ids=["tol", "bloch_angle"],
    )
    def test_flag_values_are_judged_before_the_machine_file_is_read(
        self, capsys, tmp_path, flags, message
    ):
        # a numeric error's manifest records these flags, so a missing file waits for them
        missing = str(tmp_path / "missing.json")
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify", "--machine", missing, *flags, "--manifest")
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.endswith(f"error: {message}\n")
        assert '"command"' not in captured.err

    def test_a_numeric_error_keeps_its_manifest(self, capsys, tmp_path):
        path = tmp_path / "missing.json"
        code, out, err = run(capsys, "verify", "--machine", str(path), "--manifest")
        manifest, error = err.split("}\n")
        assert code == 3 and out == ""
        assert json.loads(manifest + "}")["command"].endswith("--manifest")
        assert error.startswith("error: ") and "missing.json" in error


@pytest.mark.parametrize(
    "argv, message",
    [(["quality", "--n", "2", "--m", "3"], "need 1 <= m <= n, got n=2, m=3"),
     (["fidelity", "--sweep", "5", "--format", "table"],
      "--sweep prints CSV and would ignore --format table"),
     (["nogo", "--sweep", "3", "--overlap", "0.2"],
      "--sweep prints CSV and would ignore --overlap"),
     (["signal", "--format", "csv"], "the signal report is matrix-valued and has no CSV rendering"),
     (["verify", "--alphabet", "0,+"], "--alphabet: qubit states given for 3-level copies"),
     # a value a library rule refuses, in the words of that rule
     (["quality", "--n", "0", "--m", "1"], "n must be an integer >= 1, got 0"),
     (["fidelity", "--alpha-sq", "1.5"], "alpha_sq must lie in [0, 1], got 1.5"),
     (["fidelity", "--grid", "4x64"], "n_theta must be an integer >= 8, got 4"),
     (["fidelity", "--sweep", "1"], "n_points must be an integer >= 2, got 1"),
     (["nogo", "--overlap", "-0.5"], "overlap s must lie in [0, 1], got -0.5"),
     (["nogo", "--sweep", "1"], "n_points must be an integer >= 2, got 1"),
     (["signal", "--theta1", "nan"], "angle must be finite, got nan"),
     (["signal", "--sweep", "0"], "n_points must be an integer >= 2, got 0"),
     (["delete-demo", "--dim", "1"], "qudit dimension must be an integer >= 2, got 1"),
     (["delete-demo", "--alpha-sq", "nan"], "alpha_sq must lie in [0, 1], got nan"),
     (["delete-demo", "--dim", "65"], "argument --dim: must be at most 64, got 65"),
     (["verify", "--tol", "0"], "tol must be a positive finite number, got 0.0"),
     (["verify", "--alphabet", "0,bloch:1:inf"], "angle must be finite, got inf")],
    ids=["quality", "fidelity_sweep", "nogo_sweep", "signal_csv", "verify_alphabet",
         "quality_n", "fidelity_alpha_sq", "fidelity_grid", "fidelity_sweep_points",
         "nogo_overlap", "nogo_sweep_points", "signal_theta", "signal_sweep_points",
         "delete_demo_dim", "delete_demo_alpha_sq", "delete_demo_dim_cap", "verify_tol",
         "verify_angle"],
)
def test_usage_errors_after_parsing_read_like_argparse(capsys, tmp_path, argv, message):
    """Each prints its subcommand's usage line and `qdel <command>: error:`, as argparse does."""
    if argv[0] == "verify":
        path = tmp_path / "machine.json"
        path.write_text(json.dumps(machine_to_json(swap_deleter(3))))
        argv = [*argv, "--machine", str(path)]
    with pytest.raises(SystemExit) as exc:
        run(capsys, *argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.startswith(f"usage: qdel {argv[0]} [-h] ")
    assert captured.err.endswith(f"qdel {argv[0]}: error: {message}\n")


def test_a_flag_value_that_does_not_parse_names_what_the_flag_expected(capsys, tmp_path):
    """Every flag that parses its value, given `abc`, is a usage error in words of its own,
    never argparse's `invalid <function name> value`."""
    machine = tmp_path / "machine.json"
    machine.write_text(json.dumps(machine_to_json(swap_deleter(2))))
    checked = []
    for command, parser in cli._COMMANDS.items():
        for action in parser._actions:
            if not action.option_strings or (action.type is None and action.choices is None):
                continue
            flag = action.option_strings[0]
            required = ["--machine", str(machine)] if command == "verify" else []
            with pytest.raises(SystemExit) as exc:
                run(capsys, command, flag, "abc", *required)
            captured = capsys.readouterr()
            assert exc.value.code == 2 and captured.out == "", (command, flag)
            assert captured.err.startswith(f"usage: qdel {command} [-h] "), (command, flag)
            assert f"error: argument {flag}: " in captured.err, (command, flag)
            assert "invalid _" not in captured.err, (command, flag, captured.err)
            checked.append(flag)
    # every value-taking flag but --out and --machine, which name paths
    assert len(checked) == 19


# Each rule on a flag's value, the job that runs it, and how often one job calls it.
RULE_CALLS = [
    ("_copy_counts", ["quality", "--n", "12", "--m", "5"], 1),
    ("_alpha_sq", ["fidelity", "--alpha-sq", "0.3"], 1),
    ("_alpha_sq", ["delete-demo", "--dim", "3"], 1),
    ("_alpha_sq", ["nogo", "--overlap", "0.5"], 1),
    ("_int_at_least", ["fidelity", "--sweep", "5"], 1),
    ("_finite_angles", ["signal", "--theta1", "0.3", "--theta2", "1.2"], 1),
    ("_finite_angles", ["nogo", "--sweep", "5", "--phase", "0.3"], 1),
    ("_finite_angles", ["verify", "--alphabet", "bloch:0.3:1.2,bloch:1,+,0"], 1),
]


@pytest.mark.parametrize("rule, argv, calls", RULE_CALLS,
                         ids=[" ".join(argv) for _, argv, _ in RULE_CALLS])
def test_each_rule_runs_once_per_job(capsys, monkeypatch, tmp_path, rule, argv, calls):
    """A rule is counted wherever a module binds it, so a second copy of a check shows."""
    if argv[0] == "verify":
        path = tmp_path / "machine.json"
        path.write_text(json.dumps(machine_to_json(swap_deleter(2))))
        argv = [*argv, "--machine", str(path)]
    seen = []
    original = next(getattr(m, rule) for m in (qdel.hilbert, qdel.deletion) if hasattr(m, rule))

    def counted(*args, **kwargs):
        seen.append(args)
        return original(*args, **kwargs)

    for name in ("cli", "hilbert", "machines", "deletion", "fidelity", "nogo", "signalling"):
        module = getattr(qdel, name)
        if getattr(module, rule, None) is original:
            monkeypatch.setattr(module, rule, counted)
    assert run(capsys, *argv)[0] == 0
    assert len(seen) == calls, seen


def run_fresh(*argv):
    """(exit code, stdout, stderr) of `python -m qdel argv` in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(qdel.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "qdel", *argv], capture_output=True, text=True, timeout=60, env=env,
    )
    return done.returncode, done.stdout, done.stderr


def test_python_dash_m_runs_the_cli():
    code, out, err = run_fresh("quality", "--n", "2", "--m", "1")
    assert code == 0, err
    assert json.loads(out)["n"] == 2


def test_one_parser_serves_every_call(capsys):
    """Calls in one process match fresh processes: no flag or default leaks into the next call."""
    calls = [
        ["nogo", "--sweep", "3"], ["nogo", "--overlap", "0.5"],
        ["signal", "--sweep", "3"], ["signal"],
        ["nogo", "--sweep", "3", "--overlap", "0.2"], ["nogo"],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == run_fresh(*argv), argv


def hand_built_delete_demo(dim: int, x: float) -> str:
    """delete-demo's JSON as the CLI once assembled it, field by field."""
    machine = qudit_pair_deleter(dim)
    amps = np.zeros(dim, dtype=complex)
    amps[0] = math.sqrt(x)
    amps[1] = math.sqrt(1.0 - x)
    psi = ket(amps, [dim])
    residual = deletion_residual(machine, psi)
    out_norm = apply(machine, tensor(psi, psi)).norm()
    payload = {
        "dim": dim,
        "alpha_sq": x,
        "residual": residual,
        "output_norm": out_norm,
        "deletes_exactly": residual <= 1e-12,
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def hand_built_verify(machine, tol: float, alphabet) -> str:
    """verify's JSON as the CLI once assembled it, field by field."""
    deviation = check_isometry(machine)
    payload = {
        "is_isometry": deviation <= tol,
        "max_gram_deviation": deviation,
        "rules_normalized": machine.rule_norms_ok(1e-9),
        "max_gram_residual": None,
    }
    if alphabet:
        payload["max_gram_residual"] = gram_preservation_check(machine, alphabet)
    payload["tol"] = tol
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("dim", [2, 3, 5])  # --dim 64 builds a 4096 x 4096 matrix: 1.4 s each
@pytest.mark.parametrize("alpha_sq", ["0", "0.3", "0.5", "1.0", "0.123456789"])
def test_delete_demo_bytes_are_the_hand_built_json(capsys, dim, alpha_sq):
    code, out, err = run(capsys, "delete-demo", "--dim", str(dim), "--alpha-sq", alpha_sq)
    assert (code, err) == (0, "")
    assert out == hand_built_delete_demo(dim, float(alpha_sq))


def qr_machine() -> BasisActionMachine:
    """A [2, 2] unitary from QR, whose Gram deviation is a few ulp, not 0."""
    q, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4)) + 0j)
    return BasisActionMachine((2, 2), (2, 2), q)


def public_alphabet(spec: str, d: int) -> list:
    """--alphabet as Kets from the public constructors, one token at a time."""
    states = []
    for token in spec.split(","):
        if token in ("+", "-"):
            states.append(ket([1 / math.sqrt(2), float(token + "1") / math.sqrt(2)], [2]))
        elif token.startswith("bloch:"):
            theta, colon, phi = token[len("bloch:"):].partition(":")
            phi = cli._parse_angle(phi) if colon else 0.0
            states.append(bloch_ket(cli._parse_angle(theta), phi))
        else:
            states.append(basis_ket([d], int(token)))
    return states


@pytest.mark.parametrize("machine", [swap_deleter(2), conditional_deleter(), qudit_pair_deleter(2),
                                     qr_machine(), qudit_pair_deleter(3)],
                         ids=["swap2", "conditional", "pair2", "qr", "pair3"])
@pytest.mark.parametrize("tol", [None, "1e-20"])
@pytest.mark.parametrize("alphabet", [None, "0,1,+,-,bloch:0.3:1.2", "bloch:45deg:-30deg,bloch:1.1",
                                      "-", "+,bloch:0.3:1.2,+,bloch:0.3:1.2", "0,2,1,1"])
def test_verify_bytes_are_the_hand_built_json(capsys, tmp_path, machine, tol, alphabet):
    """verify's bytes are those of the public Kets' route; an alphabet that does not fit the
    machine's copies (qubit states on qutrits, index 2 on qubits) is refused as a usage error."""
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(machine_to_json(machine)))
    argv = ["verify", "--machine", str(path)]
    argv += [] if tol is None else ["--tol", tol]
    argv += [] if alphabet is None else ["--alphabet", alphabet]
    d = machine.input_dims[0]
    tokens = alphabet.split(",") if alphabet else []
    indices = [int(token) for token in tokens if token.isdigit()]
    outside = [i for i in indices if i >= d]
    misfit = (f"--alphabet: qubit states given for {d}-level copies"
              if d != 2 and len(indices) < len(tokens)
              else outside and f"--alphabet: index {outside[0]} outside dimension {d}")
    if misfit:
        with pytest.raises(SystemExit) as exit_:
            run(capsys, *argv)
        assert exit_.value.code == 2 and misfit in capsys.readouterr().err
        return
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    loaded = machine_from_json(json.loads(path.read_text()), strict=False)
    kets = alphabet and public_alphabet(alphabet, d)
    if kets:  # the builder's rows are the Kets' amplitudes, bit for bit
        amps = cli._alphabet_amplitudes(cli._parse_alphabet(alphabet), d)
        assert amps.tobytes() == np.stack([psi.amplitudes for psi in kets]).tobytes()
    assert out == hand_built_verify(loaded, 1e-10 if tol is None else float(tol), kets)


def test_tol_flips_is_isometry_and_no_alphabet_is_null(capsys, tmp_path):
    """The byte cases above include an is_isometry that --tol flips and a null residual."""
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(machine_to_json(qr_machine())))
    loose = json.loads(run(capsys, "verify", "--machine", str(path))[1])
    strict = json.loads(run(capsys, "verify", "--machine", str(path), "--tol", "1e-20")[1])
    assert loose["is_isometry"] is True and strict["is_isometry"] is False
    assert loose["max_gram_residual"] is None and 0.0 < loose["max_gram_deviation"] < 1e-14


def test_a_complex_unitary_verifies_as_an_isometry(capsys, tmp_path):
    rng = np.random.default_rng(23)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    path = tmp_path / "machine.json"
    path.write_text(json.dumps(machine_to_json(BasisActionMachine((2, 2), (2, 2), q))))
    code, out, err = run(capsys, "verify", "--machine", str(path))
    payload = json.loads(out)
    assert (code, err, payload["is_isometry"]) == (0, "", True)
    assert payload["max_gram_deviation"] < 1e-14


EMITTING = [
    ["quality", "--n", "3", "--m", "2"],
    ["fidelity", "--grid", "8x8"],
    ["nogo", "--overlap", "0.5"],
    ["signal", "--format", "table"],
    ["delete-demo", "--dim", "3", "--alpha-sq", "0.3"],
    ["verify", "--alphabet", "0,1,+"],
]


def test_every_subcommand_is_covered_by_the_emission_spy():
    assert [argv[0] for argv in EMITTING] == list(cli._RUNNERS)


@pytest.mark.parametrize("argv", EMITTING, ids=lambda argv: argv[0])
def test_every_report_reaches_stdout_through_emit_report(capsys, monkeypatch, tmp_path, argv):
    """Outside --sweep, stdout is exactly one emit_report result: no hand-built path."""
    if argv[0] == "verify":
        path = tmp_path / "machine.json"
        path.write_text(json.dumps(machine_to_json(swap_deleter(2))))
        argv = [*argv, "--machine", str(path)]
    emitted = []

    def spy(report, format="json"):
        emitted.append(emit_report(report, format))
        return emitted[-1]

    monkeypatch.setattr(cli, "emit_report", spy)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and emitted == [out]


# --- parsing with the subcommand's own parser ----------------------------------

# Every README command line, and the argv of each perfbench job shape (seeded values
# written out); `_parse` must read each as `_PARSER.parse_args` does.
README_ARGV = [
    ["quality", "--n", "2", "--m", "1"],
    ["quality", "--n", "6", "--m", "5", "--format", "csv", "--out", "bound.csv"],
    ["fidelity", "--alpha-sq", "0.5"],
    ["fidelity", "--average"],
    ["fidelity", "--sweep", "101", "--out", "sweep.csv"],
    ["nogo", "--overlap", "0.7071067811865476"],
    ["nogo", "--sweep", "1000", "--out", "obstruction.csv"],
    ["signal", "--theta1", "0", "--theta2", "45deg"],
    ["signal", "--sweep", "101", "--out", "curve.csv"],
    ["delete-demo", "--dim", "3", "--alpha-sq", "0.5"],
    ["verify", "--machine", "machine.json", "--alphabet", "0,1,+"],
]
JOB_ARGV = [
    # pointwise
    ["fidelity", "--sweep", "1001"],
    ["signal", "--sweep", "101"],
    ["nogo", "--sweep", "1000"],
    ["delete-demo", "--dim", "3", "--alpha-sq", "0.34144948834984606"],
    ["signal", "--theta1", "2.1930310542441453", "--theta2", "0.5134512302402593"],
    # quadrature
    ["fidelity", "--average", "--grid", "512x512", "--alpha-sq", "0.32383276483316237"],
    ["quality", "--n", "1", "--m", "1"],
    ["quality", "--n", "12", "--m", "7"],
    # audit
    ["verify", "--machine", "work/swap2.json", "--alphabet",
     "bloch:1.148845614871787:0.3644179919766519,bloch:1.594156371556833:0.2355921702057036"],
    ["verify", "--machine", "work/qudit_pair3.json", "--alphabet", "0,1,2"],
]

# argv that `_parse` hands to `_PARSER`, that exit inside the subcommand's parser, or that
# argparse reads in a way easy to get wrong (an abbreviated flag, a negative angle)
EDGE_ARGV = [
    ["quality", "--n", "3", "--m", "2", "extra"],
    ["quality", "--n", "3", "--m", "2", "--", "extra"],
    ["quality", "--n", "3", "--m", "2", "--"],
    ["explode"],
    [],
    ["-h"],
    ["quality", "-h"],
    ["--version"],
    ["--manifest", "quality", "--n", "3", "--m", "2"],
    ["quality", "--n", "3", "--m", "2", "--version"],
    ["quality", "--n", "x", "--m", "2"],
    ["delete-demo", "--di", "3"],
    ["signal", "--theta1=-45deg"],
    ["signal", "--theta1", "-45deg"],
]


def test_the_readme_part_of_the_corpus_is_the_readme():
    import test_readme

    assert README_ARGV == test_readme.COMMANDS


@pytest.mark.parametrize("argv", README_ARGV + JOB_ARGV, ids=" ".join)
def test_parse_reads_each_command_as_the_full_parser_does(argv):
    mine, full = vars(cli._parse(argv)), vars(cli._PARSER.parse_args(argv))
    assert list(mine.items()) == list(full.items())  # the same attributes, command first


def outcome(call, argv):
    """(what `call(argv)` returned or the SystemExit code it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(list(argv))
        except SystemExit as exc:
            result = ("SystemExit", exc.code)
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", EDGE_ARGV, ids=lambda argv: " ".join(argv) or "empty")
def test_main_behaves_as_with_the_full_parser(monkeypatch, argv):
    mine = outcome(main, argv)
    monkeypatch.setattr(cli, "_parse", cli._PARSER.parse_args)
    assert mine == outcome(main, argv)


def test_a_valid_command_never_reaches_the_full_parser(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a valid command went through _PARSER")

    monkeypatch.setattr(cli._PARSER, "parse_args", refuse)
    monkeypatch.setattr(cli._PARSER, "parse_known_args", refuse)
    for argv in README_ARGV + JOB_ARGV:
        assert cli._parse(argv).command == argv[0]
    for argv in (["quality", "--n", "3", "--m", "2"], ["delete-demo", "--dim", "3"],
                 ["signal", "--theta1=-45deg"]):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out
