import math
import re
import tracemalloc

import numpy as np
import pytest

from qdel import hilbert, machines
from qdel.errors import InvalidStateError, ShapeError
from qdel.hilbert import (
    Ket,
    basis_ket,
    bloch_ket,
    density_of,
    haar_ket,
    haar_qubit,
    ket,
    partial_trace,
    state_fidelity,
    tensor,
    trace_distance,
)
from qdel.machines import (
    BasisActionMachine,
    DeleterKind,
    DeleterVerdict,
    apply,
    check_isometry,
    classify_deleter,
    conditional_deleter,
    delete_demo_report,
    deletion_residual,
    machine_from_json,
    machine_to_json,
    qudit_pair_deleter,
    swap_deleter,
)
from qdel.machines import _copies_output, _pair_sums, _swap_certificate
from qdel.signalling import bob_machine_and_reduce
from two_copy_reference import norms_sq, swap_certificate, weights

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def identity_machine(dims) -> BasisActionMachine:
    return BasisActionMachine(dims, dims, np.eye(math.prod(dims)))


def random_machine(rng, in_dims, out_dims) -> BasisActionMachine:
    columns = [haar_ket(math.prod(out_dims), rng).amplitudes for _ in range(math.prod(in_dims))]
    return BasisActionMachine(in_dims, out_dims, np.column_stack(columns))


class TestBasisActionMachine:
    def test_needs_one_rule_per_basis_state(self):
        with pytest.raises(ShapeError):
            BasisActionMachine((2,), (2,), np.eye(2)[:, :1])

    def test_rules_must_be_normalized_when_strict(self):
        bad = np.diag([0.5, 1.0])
        with pytest.raises(InvalidStateError):
            BasisActionMachine((2,), (2,), bad)
        loose = BasisActionMachine((2,), (2,), bad, strict=False)
        assert not loose.rule_norms_ok()

    def test_rule_shape_must_match_output(self):
        with pytest.raises(ShapeError):
            BasisActionMachine((2,), (3,), np.eye(2))

    def test_construction_holds_no_third_copy_of_the_matrix(self):
        # the builder scatters its permutation into one zeros matrix and hands it over:
        # no identity, no permuted copy and no constructor copy
        qudit_pair_deleter(2)
        tracemalloc.start()
        try:
            machine = qudit_pair_deleter(32)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * machine.matrix.nbytes


class TestApply:
    def test_identity(self):
        rng = np.random.default_rng(0)
        psi = haar_ket(4, rng)
        out = apply(identity_machine([4]), psi)
        np.testing.assert_allclose(out.amplitudes, psi.amplitudes)

    def test_pair_deleter_on_two_copies(self):
        # linearity forces the quadratic two-term-plus-garbage output
        alpha, beta = 0.6, 0.8
        psi = ket([alpha, beta], [2])
        out = apply(qudit_pair_deleter(2), tensor(psi, psi))
        expected = (
            alpha**2 * basis_ket([2, 2], (0, 0)).amplitudes
            + beta**2 * basis_ket([2, 2], (1, 0)).amplitudes
            + alpha * beta * (basis_ket([2, 2], (0, 1)).amplitudes + basis_ket([2, 2], (1, 0)).amplitudes)
        )
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-14)

    def test_swap_deleter_hides_the_state_in_the_ancilla(self):
        rng = np.random.default_rng(1)
        psi = haar_qubit(rng)
        out = apply(swap_deleter(2), tensor(psi, psi, basis_ket([2], 0)))
        reduced = partial_trace(density_of(out), keep={2})
        assert trace_distance(reduced, density_of(psi)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            apply(identity_machine([4]), basis_ket([2], 0))

    def test_linearity(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            machine = random_machine(rng, [2, 2], [2, 3])
            psi = ket(haar_ket(4, rng).amplitudes, [2, 2])
            phi = ket(haar_ket(4, rng).amplitudes, [2, 2])
            a = rng.standard_normal() + 1j * rng.standard_normal()
            b = rng.standard_normal() + 1j * rng.standard_normal()
            norm = math.sqrt(abs(a) ** 2 + abs(b) ** 2)
            a, b = a / norm, b / norm
            combo = ket(a * psi.amplitudes + b * phi.amplitudes, [2, 2])
            lhs = apply(machine, combo).amplitudes
            rhs = a * apply(machine, psi).amplitudes + b * apply(machine, phi).amplitudes
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestCheckIsometry:
    def test_identity(self):
        assert check_isometry(identity_machine([2, 2])) == 0.0

    def test_conditional_deleter_is_isometric(self):
        assert check_isometry(conditional_deleter()) <= 1e-12

    def test_a_complex_isometry_is_measured_with_its_conjugate_transpose(self):
        rng = np.random.default_rng(17)
        q, _ = np.linalg.qr(rng.standard_normal((12, 8)) + 1j * rng.standard_normal((12, 8)))
        assert check_isometry(BasisActionMachine((2, 2, 2), (2, 2, 3), q)) <= 1e-12
        assert np.max(np.abs(q.T @ q - np.eye(8))) > 0.1  # without the conjugate it is no isometry

    def test_colliding_rules_fail_with_unit_deviation(self):
        machine = BasisActionMachine((2,), (2,), [[1.0, 1.0], [0.0, 0.0]])
        assert check_isometry(machine) == pytest.approx(1.0, abs=1e-15)

    def test_isometry_implies_norm_preservation(self):
        rng = np.random.default_rng(3)
        for machine in (swap_deleter(2), swap_deleter(3), conditional_deleter()):
            assert check_isometry(machine) <= 1e-12
            dim = math.prod(machine.input_dims)
            for _ in range(100):
                psi = ket(haar_ket(dim, rng).amplitudes, machine.input_dims)
                assert abs(apply(machine, psi).norm() - 1.0) < 1e-10


class TestQuditPairDeleter:
    def test_identical_basis_inputs_are_deleted(self):
        out = apply(qudit_pair_deleter(2), basis_ket([2, 2], (0, 0)))
        np.testing.assert_allclose(out.amplitudes, basis_ket([2, 2], (0, 0)).amplitudes)
        out = apply(qudit_pair_deleter(2), basis_ket([2, 2], (1, 1)))
        np.testing.assert_allclose(out.amplitudes, basis_ket([2, 2], (1, 0)).amplitudes)

    def test_distinct_inputs_pass_through_by_default(self):
        out = apply(qudit_pair_deleter(3), basis_ket([3, 3], (1, 2)))
        np.testing.assert_allclose(out.amplitudes, basis_ket([3, 3], (1, 2)).amplitudes)

    def test_custom_garbage_is_used(self):
        garbage = {
            (0, 1): basis_ket([2, 2], (1, 1)),
            (1, 0): basis_ket([2, 2], (0, 1)),
        }
        machine = qudit_pair_deleter(2, garbage=garbage)
        out = apply(machine, basis_ket([2, 2], (0, 1)))
        np.testing.assert_allclose(out.amplitudes, basis_ket([2, 2], (1, 1)).amplitudes)

    def test_missing_garbage_pair_rejected(self):
        with pytest.raises(ValueError):
            qudit_pair_deleter(2, garbage={(0, 1): basis_ket([2, 2], (0, 1))})

    @pytest.mark.parametrize("dims", [[4], [2, 2, 2], [3, 3]])
    def test_garbage_state_on_another_space_rejected(self, dims):
        garbage = {(0, 1): basis_ket([2, 2], (1, 1)), (1, 0): basis_ket(dims, 0)}
        with pytest.raises(ShapeError, match=r"garbage state for \(1, 0\) has dims"):
            qudit_pair_deleter(2, garbage=garbage)

    @pytest.mark.parametrize("extra", [(0, 7), (1, 1), (2, 0), "01"])
    def test_garbage_key_that_is_no_off_diagonal_pair_rejected(self, extra):
        garbage = {(0, 1): basis_ket([2, 2], (1, 1)), (1, 0): basis_ket([2, 2], (0, 1))}
        with pytest.raises(ValueError, match="unknown keys"):
            qudit_pair_deleter(2, garbage={**garbage, extra: "anything"})

    def test_balanced_superposition_leaves_residual(self):
        psi = ket([INV_SQRT2, INV_SQRT2], [2])
        assert deletion_residual(qudit_pair_deleter(2), psi) > 0.01

    def test_basis_states_delete_exactly(self):
        assert deletion_residual(qudit_pair_deleter(2), basis_ket([2], 0)) < 1e-12
        assert deletion_residual(qudit_pair_deleter(2), basis_ket([2], 1)) < 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_demo_report_deletes_exactly_only_on_basis_states(self, dim):
        for x in (0.0, 1.0):
            report = delete_demo_report(dim, x)
            assert report.deletes_exactly and report.residual <= 1e-12
            assert report.output_norm == pytest.approx(1.0, abs=1e-15)
        report = delete_demo_report(dim, 0.5)
        psi = ket([math.sqrt(0.5)] * 2 + [0.0] * (dim - 2), [dim])
        assert not report.deletes_exactly
        assert (report.dim, report.alpha_sq) == (dim, 0.5)
        assert report.residual == deletion_residual(qudit_pair_deleter(dim), psi)
        assert report.output_norm == apply(qudit_pair_deleter(dim), tensor(psi, psi)).norm()

    def test_deletes_exactly_holds_at_its_1e_12_edge(self):
        # near |0>, 1 - alpha_sq = y leaves a residual of about y / 2
        near = delete_demo_report(2, 1.0 - 1e-8)
        assert 1e-9 < near.residual < 1e-8 and not near.deletes_exactly
        edge = delete_demo_report(2, 1.0 - 1e-13)
        assert 0.0 < edge.residual < 1e-12 and edge.deletes_exactly

    @pytest.mark.parametrize("dim, alpha_sq", [(2, 1.5), (2, -0.1), (2, math.nan), (1, 0.5)])
    def test_demo_report_refuses_what_has_no_input(self, dim, alpha_sq):
        with pytest.raises(ValueError):
            delete_demo_report(dim, alpha_sq)

    def test_demo_report_work_is_pinned(self, monkeypatch):
        """The residual and the output norm come from one residual call on a scattered output;
        no matrix and no object pipeline."""
        calls = []
        residuals = machines._output_residuals

        def counted(outs, psis):
            calls.append((np.shape(outs), np.shape(psis)))
            return residuals(outs, psis)

        def refuse(*args, **kwargs):
            raise AssertionError("delete_demo_report built a matrix or went through the objects")

        monkeypatch.setattr(machines, "_output_residuals", counted)
        for name in ("apply", "deletion_residual", "tensor", "_copies_output", "_basis_map",
                     "qudit_pair_deleter"):
            monkeypatch.setattr(machines, name, refuse, raising=False)
        monkeypatch.setattr(hilbert, "tensor", refuse)
        delete_demo_report(3, 0.3)
        assert calls == [((3, 3, 1), (3, 1))]

    SEEDED = np.random.default_rng(41).uniform(0.0, 1.0, size=6).tolist()

    @pytest.mark.parametrize("dim", [2, 3, 5, 17, 64])
    @pytest.mark.parametrize("alpha_sq", [0.0, 1.0, 0.5, 1e-300] + SEEDED)
    def test_demo_report_equals_the_matrix_route_bit_for_bit(self, dim, alpha_sq):
        """Each scatter target sums at most two products, so the report holds the bits of
        the pair deleter's matrix applied to |psi psi> and run through `_output_residuals`."""
        psis = np.zeros((dim, 1), dtype=complex)
        psis[:2, 0] = math.sqrt(alpha_sq), math.sqrt(1.0 - alpha_sq)
        outs = _copies_output(qudit_pair_deleter(dim), psis)
        _, residuals = machines._output_residuals(outs, psis)
        report = delete_demo_report(dim, alpha_sq)
        matrix_route = machines.DeleteDemoReport(
            dim, alpha_sq, float(residuals[0]), float(np.linalg.norm(outs)))
        assert repr(report) == repr(matrix_route)  # repr tells -0.0 from 0.0

    def test_demo_report_at_dim_64_allocates_no_matrix(self):
        # the 4096 x 4096 complex matrix alone is 268 MB
        tracemalloc.start()
        try:
            delete_demo_report(64, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestConditionalDeleter:
    def test_declared_rules(self):
        machine = conditional_deleter()
        dims = machine.input_dims
        cases = {
            (0, 0, 0): (0, 0, 1),
            (1, 1, 0): (1, 0, 2),
            (0, 1, 0): (0, 1, 0),
            (1, 0, 0): (1, 0, 0),
        }
        for inp, expected in cases.items():
            out = apply(machine, basis_ket(dims, inp))
            np.testing.assert_allclose(out.amplitudes, basis_ket(dims, expected).amplitudes)

    def test_superposition_output_form(self):
        alpha, beta = 0.6, 0.8
        psi = ket([alpha, beta], [2])
        out = apply(conditional_deleter(), tensor(psi, psi, basis_ket([3], 0)))
        dims = (2, 2, 3)
        expected = (
            alpha**2 * basis_ket(dims, (0, 0, 1)).amplitudes
            + beta**2 * basis_ket(dims, (1, 0, 2)).amplitudes
            + alpha * beta * (basis_ket(dims, (0, 1, 0)).amplitudes + basis_ket(dims, (1, 0, 0)).amplitudes)
        )
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-14)

    def test_every_column_is_a_basis_state(self):
        # declared rules at inputs 0, 3, 6 and 9; the free inputs take the
        # unused outputs in index order
        targets = [1, 0, 2, 3, 4, 5, 6, 7, 9, 8, 10, 11]
        np.testing.assert_array_equal(conditional_deleter().matrix, np.eye(12)[:, targets])


class TestSwapDeleter:
    def test_moves_second_copy_to_ancilla(self):
        rng = np.random.default_rng(5)
        psi, phi = haar_qubit(rng), haar_qubit(rng)
        out = apply(swap_deleter(2), tensor(psi, phi, basis_ket([2], 0)))
        np.testing.assert_allclose(
            out.amplitudes, tensor(psi, basis_ket([2], 0), phi).amplitudes, atol=1e-14
        )

    def test_reduced_copies_become_state_times_blank(self):
        rng = np.random.default_rng(6)
        psi = haar_qubit(rng)
        out = apply(swap_deleter(2), tensor(psi, psi, basis_ket([2], 0)))
        reduced = partial_trace(density_of(out), keep={0, 1})
        expected = density_of(tensor(psi, basis_ket([2], 0)))
        np.testing.assert_allclose(reduced.entries, expected.entries, atol=1e-12)

    def test_exact_isometry(self):
        assert check_isometry(swap_deleter(3)) == 0.0


class TestClassifyDeleter:
    def test_swap_deleter_is_swap_like(self):
        verdict = classify_deleter(swap_deleter(2), samples=100, seed=11)
        assert verdict.kind is DeleterKind.SWAP_LIKE
        assert max(verdict.residual_stats) < 1e-10
        assert max(verdict.ancilla_errors) < 1e-10
        # the ancilla images are orthonormal: the state is hidden, not deleted
        assert verdict.swap_deviation == verdict.gram_deviation == 0.0

    def test_qutrit_swap_is_swap_like(self):
        verdict = classify_deleter(swap_deleter(3), samples=50, seed=12)
        assert verdict.kind is DeleterKind.SWAP_LIKE

    def test_conditional_deleter_is_approximate(self):
        verdict = classify_deleter(conditional_deleter(), samples=100, seed=13)
        assert verdict.kind is DeleterKind.APPROXIMATE_DELETER
        assert len(verdict.residual_stats) == 100
        assert min(verdict.residual_stats) >= 0.0
        assert max(verdict.residual_stats) > 0.1

    def test_swap_only_property(self):
        # a machine whose residuals all vanish must reconstruct the state on
        # its ancilla; a machine with positive residuals is exempt
        for machine in (swap_deleter(2), swap_deleter(3), conditional_deleter()):
            verdict = classify_deleter(machine, samples=100, seed=17)
            if max(verdict.residual_stats) < 1e-10:
                assert max(verdict.ancilla_errors) < 1e-8

    def test_deterministic_given_seed(self):
        v1 = classify_deleter(conditional_deleter(), samples=20, seed=23)
        v2 = classify_deleter(conditional_deleter(), samples=20, seed=23)
        assert v1.residual_stats == v2.residual_stats

    def test_zero_samples_rejected(self):
        with pytest.raises(ValueError):
            classify_deleter(swap_deleter(2), samples=0, seed=1)

    @pytest.mark.parametrize("samples", [2.5, True, False, "3", None, -1, np.float64(3.0)])
    def test_samples_must_be_a_positive_integer(self, samples):
        with pytest.raises(ValueError, match="samples must be an integer >= 1"):
            classify_deleter(swap_deleter(2), samples=samples, seed=1)

    @pytest.mark.parametrize("seed", [None, True, False, -1, 1.0, "1", np.True_])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # None would draw fresh entropy from the OS, and the verdict would not repeat
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            classify_deleter(swap_deleter(2), samples=5, seed=seed)

    def test_numpy_integers_are_accepted(self):
        verdict = classify_deleter(swap_deleter(2), samples=np.int64(5), seed=np.uint32(7))
        assert verdict == classify_deleter(swap_deleter(2), samples=5, seed=7)

    def test_residuals_are_never_negative(self):
        # exact deleters put the whole output in the subspace, where 1 - ||kept|| / ||out||
        # rounds to either side of 0
        for machine in (swap_deleter(2), swap_deleter(3), conditional_deleter()):
            for seed in range(5):
                assert min(classify_deleter(machine, samples=150, seed=seed).residual_stats) >= 0.0

    def test_ancilla_errors_are_never_negative(self):
        # an exact deleter's rho - |u><u| is rounding noise, whose -lambda_min rounds to either
        # side of 0; a sign bit would print as -0.0
        for machine in (swap_deleter(2), swap_deleter(3)):
            for seed in range(5):
                errors = np.array(classify_deleter(machine, samples=150, seed=seed).ancilla_errors)
                assert not np.any(np.signbit(errors))

    # Verdicts of the all-pairs eigensolve scan that preceded the swap
    # certificate: kind must not move, the per-sample statistics not by more
    # than 4 eps. Every swap value is rounding noise, and the swap2 row was
    # recorded on the earlier Bloch-angle qubit draws, so the swap rows check
    # only that every value is within 4 eps of 0. The conditional deleter's
    # values are those of the object route on the same draws, `haar_ket(2, rng)`
    # six times: `apply`, normalize, 1 - ||(<psi|<blank| (x) I) out|| / ||out||,
    # and the `trace_distance` of `partial_trace(keep={2})` to sum_i psi_i a_i.
    RECORDED_SMALL = {
        "swap2": (
            DeleterKind.SWAP_LIKE,
            [-2.220446049250313e-16, 0.0, -2.220446049250313e-16, 1.1102230246251565e-16, 0.0, 0.0],
            [1.8824747269678055e-16, 6.206335383118183e-17, 6.798699777552591e-17,
             2.7755575615628914e-17, 0.0, 1.3877787807814457e-17],
        ),
        "conditional": (
            DeleterKind.APPROXIMATE_DELETER,
            [0.25448098526606455, 0.32967743141911865, 0.13020332758160336, 0.1452909585876483,
             0.19693014334597592, 0.3683440014647581],
            [0.6897827583158893, 0.6604085950225195, 0.5150434241554668, 0.5419671798438548,
             0.6208828501343593, 0.7741657818950152],
        ),
        "swap3": (
            DeleterKind.SWAP_LIKE,
            [2.220446049250313e-16, 0.0, 1.1102230246251565e-16, 1.1102230246251565e-16, 0.0, 0.0],
            [2.896434946591119e-16, 9.020562075079397e-17, 1.5393646707704637e-16,
             9.85704363057626e-17, 7.679498485057654e-17, 1.435530609672952e-16],
        ),
    }
    # (samples, kind) at seed 1, the sample counts of the audit benchmark
    RECORDED_LARGE = {
        "swap2": (200, DeleterKind.SWAP_LIKE),
        "conditional": (150, DeleterKind.APPROXIMATE_DELETER),
        "swap3": (150, DeleterKind.SWAP_LIKE),
    }
    MACHINES = {"swap2": lambda: swap_deleter(2), "conditional": conditional_deleter,
                "swap3": lambda: swap_deleter(3), "swap4": lambda: swap_deleter(4)}

    @pytest.mark.parametrize("name", ["swap2", "conditional", "swap3"])
    def test_verdict_matches_the_recorded_all_pairs_scan(self, name):
        kind, residuals, errors = self.RECORDED_SMALL[name]
        verdict = classify_deleter(self.MACHINES[name](), samples=6, seed=5)
        assert verdict.kind is kind
        eps = np.finfo(float).eps
        np.testing.assert_allclose(verdict.residual_stats, residuals, rtol=0, atol=4 * eps)
        np.testing.assert_allclose(verdict.ancilla_errors, errors, rtol=0, atol=4 * eps)

        samples, kind = self.RECORDED_LARGE[name]
        verdict = classify_deleter(self.MACHINES[name](), samples=samples, seed=1)
        assert verdict.kind is kind

    # (machine, samples, seed) of the classifier jobs of the audit benchmark at seed 1: their
    # sub-seeds are three draws of random.Random(1).randrange(2**32)
    AUDIT_JOBS = [("swap2", 200, 3280387012), ("conditional", 150, 1095513148),
                  ("swap3", 150, 1930549411)]

    @pytest.mark.parametrize("name, samples, seed", AUDIT_JOBS + [("swap4", 100, 1930549411)],
                             ids=[job[0] for job in AUDIT_JOBS] + ["swap4"])
    def test_only_an_ancilla_above_three_levels_is_eigensolved(
        self, monkeypatch, name, samples, seed
    ):
        """The audit machines' ancilla errors (m = 2, 3) are solved in closed form, with no
        eigensolve; a 4-level ancilla makes one (samples, 4, 4) stack, and a return to solving
        pairs of samples fails here."""
        stacks = []
        eigvalsh = np.linalg.eigvalsh

        def counted(matrices):
            stacks.append(np.shape(matrices))
            return eigvalsh(matrices)

        machine = self.MACHINES[name]()
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        classify_deleter(machine, samples=samples, seed=seed)
        m = machine.input_dims[2]
        assert stacks == ([] if m <= 3 else [(samples, m, m)])

    def test_needs_ancilla_structure(self):
        with pytest.raises(ShapeError):
            classify_deleter(qudit_pair_deleter(2), samples=10, seed=1)

    def test_output_must_be_the_input_space(self):
        # the same 8 amplitudes per column, read as a [2, 4] output
        machine = BasisActionMachine((2, 2, 2), (2, 4), swap_deleter(2).matrix)
        with pytest.raises(ShapeError, match=r"\(2, 2, 2\) -> \(2, 4\)"):
            classify_deleter(machine, samples=10, seed=1)

    def test_machine_must_delete_identical_basis_inputs(self):
        # the identity on [2, 2, 2] leaves |1 1 A> untouched, so it is not a
        # candidate deleter at all
        machine = identity_machine([2, 2, 2])
        with pytest.raises(InvalidStateError):
            classify_deleter(machine, samples=10, seed=1)

    @staticmethod
    def turned_swap(cell, towards, angle):
        """swap_deleter(2) with the image of input cell `cell` turned by `angle` towards the
        output cell `towards`, orthogonal to it: cos(angle) e_image + sin(angle) e_towards."""
        matrix = swap_deleter(2).matrix.copy()
        column = int(np.ravel_multi_index(cell, (2, 2, 2)))
        matrix[:, column] *= math.cos(angle)
        matrix[int(np.ravel_multi_index(towards, (2, 2, 2))), column] = math.sin(angle)
        return BasisActionMachine((2, 2, 2), (2, 2, 2), matrix)

    @pytest.mark.parametrize("angle, kind", [(1e-12, DeleterKind.SWAP_LIKE),
                                             (1e-6, DeleterKind.APPROXIMATE_DELETER)])
    def test_near_swap_is_decided_by_the_certificate_tolerance(self, angle, kind):
        # |0 1 0> -> |0 blank 1> leaks into |0 1 1>, a second copy that is not blank; the
        # deviation is 2 sin(angle / 2). The residuals grow with its square, so both machines
        # leave every sampled residual below 1e-10: only the certificate tells them apart.
        verdict = classify_deleter(self.turned_swap((0, 1, 0), (0, 1, 1), angle), 20, seed=2)
        assert verdict.swap_deviation == pytest.approx(angle, rel=1e-6)
        assert verdict.kind is kind
        assert max(verdict.residual_stats) < 1e-10

    def test_basis_deletion_image_off_unit_norm_by_1e_6_is_refused(self):
        # |0 0 0> -> (1 - 1e-6)|0 blank 0> + s|0 1 0>: the ancilla image a_0 has norm 1 - 1e-6
        machine = self.turned_swap((0, 0, 0), (0, 1, 0), math.acos(1.0 - 1e-6))
        with pytest.raises(InvalidStateError, match=r"\|0>\|0>"):
            classify_deleter(machine, samples=10, seed=1)

    def test_basis_deletion_image_off_unit_norm_by_1e_12_is_classified(self):
        # the image leaves the subspace by s = sqrt(2e-12), which the diagonal pair (0, 0) of
        # the certificate sees twice
        machine = self.turned_swap((0, 0, 0), (0, 1, 0), math.acos(1.0 - 1e-12))
        verdict = classify_deleter(machine, samples=10, seed=1)
        assert verdict.kind is DeleterKind.APPROXIMATE_DELETER
        assert verdict.swap_deviation == pytest.approx(2.0 * math.sqrt(2e-12), rel=1e-3)

    @staticmethod
    def deleter_without_isometry():
        """swap(2) with |0 1 0> -> |0 0 0> and |1 1 0> -> |1 0 0>: every rule normalized and
        every residual 0, but a_0 = a_1 = |0>, so the ancilla holds nothing of psi."""
        matrix = swap_deleter(2).matrix.copy()
        for i in (0, 1):
            matrix[:, int(np.ravel_multi_index((i, 1, 0), (2, 2, 2)))] = np.eye(8)[4 * i]
        return BasisActionMachine((2, 2, 2), (2, 2, 2), matrix)

    def test_an_exact_deleter_that_is_no_isometry_is_not_swap_like(self):
        machine = self.deleter_without_isometry()
        verdict = classify_deleter(machine, samples=20, seed=1)
        assert (verdict.swap_deviation, verdict.gram_deviation) == (0.0, 1.0)
        assert check_isometry(machine) == 1.0
        assert max(verdict.residual_stats) < 1e-12
        assert verdict.kind is DeleterKind.APPROXIMATE_DELETER

    @pytest.mark.parametrize("gap, error", [(1e-9, 0.0), (1e-13, 1.0)])
    def test_a_predicted_ancilla_counts_as_lost_only_below_1e_12(self, monkeypatch, gap, error):
        # the ancilla predicted for psi = (1, -1 + gap) / norm is (psi_0 + psi_1)|0>, of norm
        # about 0.7 gap: at 7e-10 it is still compared with the output's ancilla |0>, at 7e-14
        # the sample counts as lost, with error 1
        psi = np.array([1.0, -1.0 + gap]) / math.hypot(1.0, 1.0 - gap)
        monkeypatch.setattr(machines, "_haar_amplitudes", lambda d, count, rng: psi[None] + 0j)
        verdict = classify_deleter(self.deleter_without_isometry(), samples=1, seed=0)
        assert verdict.ancilla_errors[0] == pytest.approx(error, abs=1e-12)

    def test_one_sample_has_no_dependence(self):
        """A one-sample verdict gets the kind and certificate of a 50-sample one: the
        certificate does not depend on the samples."""
        for machine, kind in ((swap_deleter(2), DeleterKind.SWAP_LIKE),
                              (swap_deleter(3), DeleterKind.SWAP_LIKE),
                              (conditional_deleter(), DeleterKind.APPROXIMATE_DELETER)):
            verdicts = [classify_deleter(machine, samples, seed) for samples, seed in
                        ((1, 3), (50, 4))]
            assert [v.kind for v in verdicts] == [kind, kind]
            assert len({(v.swap_deviation, v.gram_deviation) for v in verdicts}) == 1

    def test_conditional_deleter_fails_the_certificate(self):
        # |0 1 A> + |1 0 A> pass through, but the certificate asks for |0 blank A_1> + |1 blank A_0>
        verdict = classify_deleter(conditional_deleter(), samples=5, seed=1)
        assert verdict.swap_deviation == 2.0
        assert verdict.gram_deviation == 0.0

    def test_unnormalized_rules_are_flagged(self):
        matrix = swap_deleter(2).matrix.copy()
        matrix[:, 0] *= 0.5
        machine = BasisActionMachine((2, 2, 2), (2, 2, 2), matrix, strict=False)
        verdict = classify_deleter(machine, samples=10, seed=1)
        assert verdict.kind is DeleterKind.NOT_LINEAR_CONSISTENT
        assert verdict.residual_stats == ()

    def test_verdict_invariant(self):
        with pytest.raises(ValueError):
            DeleterVerdict(
                kind=DeleterKind.APPROXIMATE_DELETER, samples=1, seed=0, residual_stats=(),
                swap_deviation=0.0, gram_deviation=0.0,
            )

    @pytest.mark.parametrize("errors", [(), (0.0,), (0.0, 0.0, 0.0)])
    def test_one_ancilla_error_per_residual_sample(self, errors):
        with pytest.raises(ValueError):
            DeleterVerdict(
                kind=DeleterKind.SWAP_LIKE, samples=2, seed=0, residual_stats=(0.0, 0.0),
                swap_deviation=0.0, gram_deviation=0.0, ancilla_errors=errors,
            )

    @pytest.mark.parametrize("samples", [1, 3])
    def test_one_residual_per_recorded_sample(self, samples):
        with pytest.raises(ValueError, match="2 samples need as many residuals"):
            DeleterVerdict(
                kind=DeleterKind.SWAP_LIKE, samples=2, seed=0, residual_stats=(0.0,) * samples,
                swap_deviation=0.0, gram_deviation=0.0, ancilla_errors=(0.0,) * samples,
            )

    @pytest.mark.parametrize("rules_normalized", [True, False])
    def test_verdict_records_its_sample_count_and_seed(self, rules_normalized):
        matrix = swap_deleter(2).matrix.copy()
        if not rules_normalized:
            matrix[:, 0] *= 0.5
        machine = BasisActionMachine((2, 2, 2), (2, 2, 2), matrix, strict=False)
        verdict = classify_deleter(machine, samples=np.int64(7), seed=np.uint32(3))
        assert (verdict.samples, verdict.seed) == (7, 3)
        assert type(verdict.samples) is int and type(verdict.seed) is int
        assert len(verdict.residual_stats) == (7 if rules_normalized else 0)


def gaussian(rng, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_deleting_isometry(rng, d, m) -> BasisActionMachine:
    """A random unitary on [d, d, m] that deletes the identical basis inputs: |i i 0> goes to
    |i, blank, a_i>, the a_i the columns of a QR of a complex Gaussian, and the other
    columns complete those d to the Q of a QR of a complex Gaussian."""
    dims = (d, d, m)
    n = d * d * m
    images = np.zeros((d, d, m, d), dtype=complex)  # [..., i] is |i, blank, a_i>
    images[np.arange(d), machines.BLANK_INDEX, :, np.arange(d)] = np.linalg.qr(
        gaussian(rng, m, d))[0].T
    images = images.reshape(n, d)
    deleting = [int(np.ravel_multi_index((i, i, 0), dims)) for i in range(d)]
    matrix = np.empty((n, n), dtype=complex)
    matrix[:, deleting] = images
    matrix[:, np.setdiff1d(np.arange(n), deleting)] = np.linalg.qr(
        np.hstack([images, gaussian(rng, n, n - d)]))[0][:, d:]
    return BasisActionMachine(dims, dims, matrix)


class TestAncillaErrors:
    """`machines._ancilla_errors` against the eigensolver's half trace norm."""

    @staticmethod
    def classifier_stack(monkeypatch, machine, samples, seed) -> np.ndarray:
        """The (m, m, S) stack rho - |u><u| that `classify_deleter` hands to the helper."""
        stacks = []
        solve = machines._ancilla_errors

        def kept(differences):
            stacks.append(differences.copy())
            return solve(differences)

        with monkeypatch.context() as patch:
            patch.setattr(machines, "_ancilla_errors", kept)
            classify_deleter(machine, samples, seed)
        return stacks[0]

    @staticmethod
    def eigensolved(stack) -> np.ndarray:
        return hilbert._half_trace_norms(np.moveaxis(stack, -1, 0))

    @staticmethod
    def stacked(matrices) -> np.ndarray:
        """An (S, m, m) stack of matrices laid out as the classifier lays them, (m, m, S)."""
        return np.ascontiguousarray(np.moveaxis(matrices, 0, -1))

    CLASSIFIED = {
        "conditional": conditional_deleter,
        "turned_swap": lambda: TestClassifyDeleter.turned_swap((0, 1, 0), (0, 1, 1), 0.3),
        "without_isometry": TestClassifyDeleter.deleter_without_isometry,
        "swap2": lambda: swap_deleter(2),
        "swap3": lambda: swap_deleter(3),
    }

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3), (3, 3, 3)])
    def test_random_isometry_stacks_match_the_eigensolver(self, monkeypatch, dims):
        rng = np.random.default_rng(sum(dims))
        for seed in range(5):
            machine = random_deleting_isometry(rng, dims[0], dims[2])
            stack = self.classifier_stack(monkeypatch, machine, 200, seed)
            np.testing.assert_allclose(machines._ancilla_errors(stack), self.eigensolved(stack),
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("name", CLASSIFIED)
    def test_deleter_stacks_match_the_eigensolver(self, monkeypatch, name):
        stack = self.classifier_stack(monkeypatch, self.CLASSIFIED[name](), 200, 3)
        np.testing.assert_allclose(machines._ancilla_errors(stack), self.eigensolved(stack),
                                   rtol=0, atol=1e-14)

    @pytest.mark.parametrize("machine", [lambda: swap_deleter(4),
                                         lambda: random_deleting_isometry(
                                             np.random.default_rng(4), 2, 4)])
    def test_a_larger_ancilla_keeps_the_eigensolver_bytes(self, monkeypatch, machine):
        stack = self.classifier_stack(monkeypatch, machine(), 100, 3)
        np.testing.assert_array_equal(machines._ancilla_errors(stack), self.eigensolved(stack))

    @pytest.mark.parametrize("spectrum, error", [((1.0, 1.0, -2.0), 2.0), ((1.0, 0.0, -1.0), 1.0)])
    def test_hand_built_spectra_at_the_ends_of_the_cubic(self, spectrum, error):
        # (a, a, -2a) puts det(D - qI)/(2p^3) at -1, where rounding steps past arccos's domain,
        # and (a, 0, -a) at 0
        rng = np.random.default_rng(5)
        scales = 0.5 * 10.0 ** rng.uniform(-8.0, 0.0, 300)
        turns = np.linalg.qr(gaussian(rng, 300, 3, 3))[0]
        matrices = (turns * (scales[:, None] * spectrum)[:, None]) @ turns.conj().swapaxes(1, 2)
        got = machines._ancilla_errors(self.stacked(matrices))
        np.testing.assert_allclose(got, error * scales, rtol=0, atol=1e-14)
        np.testing.assert_allclose(got, self.eigensolved(self.stacked(matrices)), rtol=0,
                                   atol=1e-14)

    @pytest.mark.parametrize("m", [2, 3])
    def test_a_zero_difference_has_error_zero(self, m):
        # p = 0 for m = 3: no division by it, so no warning, and no sign bit
        got = machines._ancilla_errors(np.zeros((m, m, 4), dtype=complex))
        assert got.tolist() == [0.0] * 4
        assert not np.any(np.signbit(got))

    @pytest.mark.parametrize("m", [2, 3])
    def test_an_off_diagonal_coupling_alone(self, m):
        # eigenvalues +-|z| and, for m = 3, 0: the error is |z|
        matrices = np.zeros((1, m, m), dtype=complex)
        matrices[0, 0, 1], matrices[0, 1, 0] = 0.3 + 0.4j, 0.3 - 0.4j
        assert machines._ancilla_errors(self.stacked(matrices)).tolist() == pytest.approx(
            [0.5], rel=0, abs=1e-15)

    def test_thirty_digit_eigenvalues(self, monkeypatch):
        mp = pytest.importorskip("mpmath").mp
        rng = np.random.default_rng(6)
        stacks = [self.classifier_stack(monkeypatch, random_deleting_isometry(rng, d, m), 20, 1)
                  for d, m in ((2, 2), (2, 3), (3, 3))]
        stacks.append(self.classifier_stack(monkeypatch, conditional_deleter(), 20, 2))
        for stack in stacks:
            with mp.workdps(30):
                exact = [mp.fsum(abs(e) for e in mp.eighe(mp.matrix(matrix.tolist()),
                                                          eigvals_only=True)) / 2
                         for matrix in np.moveaxis(stack, -1, 0)]
                exact = np.array([float(e) for e in exact])
            np.testing.assert_allclose(machines._ancilla_errors(stack), exact, rtol=0, atol=1e-14)


class TestTwoCopyKernel:
    def test_random_isometries_match_the_object_pipeline(self):
        rng = np.random.default_rng(31)
        for dims in ([2, 2, 3], [2, 2, 4], [3, 3, 3]):
            n = math.prod(dims)
            gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q, _ = np.linalg.qr(gauss)
            machine = BasisActionMachine(dims, dims, q)
            d, m = dims[0], dims[2]
            psis = [haar_ket(d, rng) for _ in range(5)]
            outs = _copies_output(machine, np.stack([psi.amplitudes for psi in psis], axis=1))
            assert outs.shape == (d, d, m, 5)
            for psi, out in zip(psis, np.moveaxis(outs, -1, 0)):
                reference = apply(machine, tensor(psi, psi, basis_ket([m], 0)))
                np.testing.assert_allclose(out.reshape(-1), reference.amplitudes, atol=1e-12)
                rho_copies = np.einsum("abc,dec->abde", out, out.conj()).reshape(d * d, d * d)
                expected = partial_trace(density_of(reference), keep={0, 1}).entries
                np.testing.assert_allclose(rho_copies, expected, atol=1e-12)
            if d == 2:
                # no-signalling: Bob's mixture after a legal machine ignores Alice's basis
                base = bob_machine_and_reduce(0.0, machine).entries
                for theta in rng.uniform(0.0, math.pi, 5):
                    mixed = bob_machine_and_reduce(float(theta), machine).entries
                    np.testing.assert_allclose(mixed, base, atol=1e-12)

    @pytest.mark.parametrize("dims", [[2, 2, 3], [2, 2, 4], [3, 3, 3], [3, 3]])
    @pytest.mark.parametrize("isometry", [True, False], ids=["isometry", "non_isometry"])
    def test_weights_match_the_object_route(self, dims, isometry):
        rng = np.random.default_rng(37)
        n, d = math.prod(dims), dims[0]
        gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        matrix = np.linalg.qr(gauss)[0] if isometry else gauss
        machine = BasisActionMachine(dims, dims, matrix, strict=isometry)
        psis = [haar_ket(d, rng) for _ in range(4)]
        amps = np.stack([psi.amplitudes for psi in psis], axis=1)
        entries = weights(_copies_output(machine, amps), amps)
        whole, blank, kept, kept_blank = (norms_sq(p) for row in entries for p in row)
        ancilla = [basis_ket(dims[2:], 0)] if len(dims) == 3 else []
        blank_ket = basis_ket([d], 0)
        for k, psi in enumerate(psis):
            out = apply(machine, tensor(psi, psi, *ancilla))
            norm_sq = out.norm() ** 2
            rho = density_of(Ket(out.dims, out.amplitudes / out.norm()))
            rho_a = partial_trace(rho, keep={0}).entries
            rho_b = partial_trace(rho, keep={1}).entries
            rho_ab = partial_trace(rho, keep={0, 1}).entries
            psi_blank = tensor(psi, blank_ket).amplitudes
            expected = [
                norm_sq,
                norm_sq * (blank_ket.amplitudes.conj() @ rho_b @ blank_ket.amplitudes).real,
                norm_sq * (psi.amplitudes.conj() @ rho_a @ psi.amplitudes).real,
                norm_sq * (psi_blank.conj() @ rho_ab @ psi_blank).real,
            ]
            got = [whole[k], blank[k], kept[k], kept_blank[k]]
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-12)

    def test_a_vanishing_output_has_residual_one(self):
        machine = BasisActionMachine((2, 2, 3), (2, 2, 3), np.zeros((12, 12)), strict=False)
        assert deletion_residual(machine, haar_ket(2, np.random.default_rng(41))) == 1.0
        # _output_residuals' floor: ||out||^2 = 1e-32 is below 1e-30, so the output counts as lost,
        # though it lies in the ideal-deletion subspace
        tiny = BasisActionMachine((2, 2), (2, 2), 1e-16 * np.eye(4), strict=False)
        assert deletion_residual(tiny, basis_ket([2], 0)) == 1.0


    @pytest.mark.parametrize("output_dims", [(4,), (3, 2), (2,)])
    def test_an_output_without_a_copy_and_a_blank_slot_is_refused(self, output_dims):
        matrix = np.eye(math.prod(output_dims))[:, [0, 1, 1, 0]]
        machine = BasisActionMachine((2, 2), output_dims, matrix)
        with pytest.raises(ShapeError, match=re.escape(f"output dims {output_dims}")):
            deletion_residual(machine, basis_ket([2], 0))

    def test_an_input_state_of_another_dimension_is_refused(self):
        with pytest.raises(ShapeError, match="machine copies are 3-level"):
            deletion_residual(qudit_pair_deleter(3), basis_ket([2], 0))


def _kernel_machines() -> dict:
    gauss = np.random.default_rng(59).standard_normal((2, 12, 12))
    return {
        "swap2": swap_deleter(2),
        "swap3": swap_deleter(3),
        "conditional": conditional_deleter(),
        "qudit_pair3": qudit_pair_deleter(3),
        "random_223": BasisActionMachine((2, 2, 3), (2, 2, 3), gauss[0] + 1j * gauss[1],
                                         strict=False),
    }


KERNEL_MACHINES = _kernel_machines()
EPS = np.finfo(float).eps


class TestPointsLastKernel:
    """The two-copy kernel, the points on its last axis, held to the object route at 4 eps."""

    @staticmethod
    def drawn(machine, count=16):
        d = machine.input_dims[0]
        rng = np.random.default_rng(61 + d)
        psis = [haar_ket(d, rng) for _ in range(count)]
        ancilla = [basis_ket(machine.input_dims[2:], 0)] if len(machine.input_dims) == 3 else []
        return psis, np.stack([psi.amplitudes for psi in psis], axis=1), ancilla

    @pytest.mark.parametrize("name", list(KERNEL_MACHINES))
    def test_each_output_column_is_apply_on_two_copies(self, name):
        machine = KERNEL_MACHINES[name]
        psis, amps, ancilla = self.drawn(machine)
        outs = _copies_output(machine, amps)
        assert outs.shape == machine.output_dims + (len(psis),)
        for k, psi in enumerate(psis):
            want = apply(machine, tensor(psi, psi, *ancilla)).amplitudes
            scale = max(1.0, np.max(np.abs(want)))
            np.testing.assert_allclose(outs[..., k].reshape(-1), want, rtol=0, atol=4 * EPS * scale)

    @pytest.mark.parametrize("name", list(KERNEL_MACHINES))
    def test_weights_match_the_partial_trace_route(self, name):
        machine = KERNEL_MACHINES[name]
        psis, amps, ancilla = self.drawn(machine)
        entries = weights(_copies_output(machine, amps), amps)
        table = np.array([norms_sq(p) for row in entries for p in row])
        assert table.shape == (4, len(psis))
        d = machine.input_dims[0]
        blank = basis_ket([d], 0)
        for k, psi in enumerate(psis):
            out = apply(machine, tensor(psi, psi, *ancilla))
            norm_sq = out.norm() ** 2
            rho = density_of(Ket(out.dims, out.amplitudes / out.norm()))
            overlaps = [
                1.0,
                state_fidelity(partial_trace(rho, keep={1}), blank),
                state_fidelity(partial_trace(rho, keep={0}), psi),
                state_fidelity(partial_trace(rho, keep={0, 1}), tensor(psi, blank)),
            ]
            np.testing.assert_allclose(table[:, k], norm_sq * np.array(overlaps), rtol=0,
                                       atol=4 * EPS * max(1.0, norm_sq))


    @pytest.mark.parametrize("name", list(KERNEL_MACHINES))
    def test_residuals_are_the_weight_tables_blank_row_bit_for_bit(self, name):
        machine = KERNEL_MACHINES[name]
        rng = np.random.default_rng(67)
        for count in (1, 37, 150):
            amps = hilbert._haar_amplitudes(machine.input_dims[0], count, rng).T
            outs = _copies_output(machine, amps)
            whole, residuals = machines._output_residuals(outs, amps)
            (out, _), (_, kept_blank) = weights(outs, amps)
            assert whole.tobytes() == norms_sq(out).tobytes()
            want = np.maximum(1.0 - np.sqrt(norms_sq(kept_blank) / whole), 0.0)
            assert residuals.tobytes() == want.tobytes()


# KERNEL_MACHINES and two random complex machines whose columns are Haar states
PAIR_SUM_MACHINES = {
    **KERNEL_MACHINES,
    "complex_223": random_machine(np.random.default_rng(79), [2, 2, 3], [2, 2, 3]),
    "complex_333": random_machine(np.random.default_rng(83), [3, 3, 3], [3, 3, 3]),
}


class TestPairSums:
    """S, the ancilla-0 columns summed over i <= j: one read-only array, and S @ q the
    two-copy output that `_copies_output` forms from all d^2 columns."""

    @pytest.mark.parametrize("name", list(PAIR_SUM_MACHINES))
    def test_s_applied_to_the_pair_products_is_the_two_copy_output(self, name):
        machine = PAIR_SUM_MACHINES[name]
        d = machine.input_dims[0]
        amps = hilbert._haar_amplitudes(d, 16, np.random.default_rng(89)).T
        i, j = np.triu_indices(d)
        got = _pair_sums(machine) @ (amps[i] * amps[j])
        want = _copies_output(machine, amps).reshape(-1, amps.shape[1])
        scale = max(1.0, np.max(np.abs(want)))
        np.testing.assert_allclose(got, want, rtol=0, atol=4 * EPS * scale)

    def test_s_is_read_only(self):
        pairs = _pair_sums(swap_deleter(2))
        assert pairs.shape == (8, 3) and not pairs.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            pairs[:, 0] *= 2.0
        # a transposed reshape that only splits an axis is a view, which an in-place step
        # would write through to S
        with pytest.raises(ValueError, match="read-only"):
            pairs.T.reshape(3, 2, 2, 2)[0] *= 2.0


class TestSwapCertificateReference:
    """`_swap_certificate` from S's columns, held by `repr` to the reference that forms the
    pair sums for every i and j as one (d, d, d, d, m) array."""

    @staticmethod
    def assert_same(machine) -> tuple:
        """Assert the two certificates `repr`-equal and return the reference's."""
        got, want = _swap_certificate(machine), swap_certificate(machine)
        assert repr((got[0].tolist(), *got[1:])) == repr((want[0].tolist(), *want[1:]))
        return want

    @pytest.mark.parametrize("name", list(PAIR_SUM_MACHINES))
    def test_kernel_and_random_complex_machines(self, name):
        self.assert_same(PAIR_SUM_MACHINES[name])

    @pytest.mark.parametrize("cell, towards, angle", [
        ((0, 1, 0), (0, 1, 1), 1e-12),
        ((0, 1, 0), (0, 1, 1), 1e-6),
        ((0, 0, 0), (0, 1, 0), math.acos(1.0 - 1e-12)),
        ((0, 0, 0), (0, 1, 0), math.acos(1.0 - 1e-6)),
    ])
    def test_turned_swaps(self, cell, towards, angle):
        self.assert_same(TestClassifyDeleter.turned_swap(cell, towards, angle))

    def test_a_not_linear_consistent_verdict_reports_the_certificate(self):
        matrix = swap_deleter(2).matrix.copy()
        matrix[:, 0] *= 0.5
        machine = BasisActionMachine((2, 2, 2), (2, 2, 2), matrix, strict=False)
        _, deviation, gram_deviation = self.assert_same(machine)
        verdict = classify_deleter(machine, samples=10, seed=1)
        assert verdict.kind is DeleterKind.NOT_LINEAR_CONSISTENT
        assert repr((verdict.swap_deviation, verdict.gram_deviation)) == repr(
            (deviation, gram_deviation))
        assert deviation > 0.0 and gram_deviation > 0.0


class TestNoDeletionWitness:
    def test_every_garbage_choice_fails_somewhere(self):
        # linearity beats any garbage assignment: some input state always
        # leaves a visible residual
        rng = np.random.default_rng(29)
        for _ in range(5):
            garbage = {
                (0, 1): ket(haar_ket(4, rng).amplitudes, [2, 2]),
                (1, 0): ket(haar_ket(4, rng).amplitudes, [2, 2]),
            }
            machine = qudit_pair_deleter(2, garbage=garbage)
            worst = max(deletion_residual(machine, haar_qubit(rng)) for _ in range(50))
            assert worst > 0.01


class TestMachineJson:
    def test_round_trip(self):
        machine = conditional_deleter()
        back = machine_from_json(machine_to_json(machine))
        assert back.input_dims == machine.input_dims == (2, 2, 3)
        np.testing.assert_array_equal(back.matrix, machine.matrix)

    def test_missing_rule_rejected(self):
        payload = machine_to_json(swap_deleter(2))
        payload["rules"] = payload["rules"][:-1]
        with pytest.raises(ShapeError):
            machine_from_json(payload)

    def test_wrong_rule_count_is_refused_before_anything_input_sized_is_built(self):
        # 2^20 input basis states and no rule: a list of 2^20 indices alone is 40 MB
        payload = {"input_dims": [2] * 20, "output_dims": [2], "rules": []}
        tracemalloc.start()
        try:
            with pytest.raises(ShapeError, match="rules must number 1048576, .* got 0$"):
                machine_from_json(payload, strict=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_non_strict_load_keeps_bad_rules(self):
        payload = machine_to_json(swap_deleter(2))
        payload["rules"][0]["out_amplitudes"][0] = [0.5, 0.0]
        with pytest.raises(InvalidStateError):
            machine_from_json(payload)
        machine = machine_from_json(payload, strict=False)
        assert not machine.rule_norms_ok()

    def test_bloch_state_survives_round_trip(self):
        columns = (bloch_ket(0.7, 1.1).amplitudes, bloch_ket(2.0, 0.3).amplitudes)
        machine = BasisActionMachine((2,), (2,), np.column_stack(columns))
        back = machine_from_json(machine_to_json(machine))
        np.testing.assert_array_equal(back.matrix, machine.matrix)
